"""Edge-addition resilience: verdicts, witnesses, maxima, solver-call pins."""
import gc
import itertools
import random
import tracemalloc
from math import comb

import pytest

from conftest import (
    canonical_masks,
    carried_scans_match_reference,
    count_calls,
    counted,
    oracle_graph_first_failure,
    random_graph,
    reference_first_uncovered,
)
from rescol.coloring import is_k_colorable
from rescol.graphs import (
    Graph,
    add_edges,
    apex_extension,
    classic,
    complete_graph,
    complete_minus_matching,
    complete_plus_isolated,
    non_edges,
)
from rescol import resilience
from rescol.reductions import blow_up
from rescol.resilience import (
    SATURATED,
    is_r_resiliently_k_colorable,
    max_graph_resilience,
)
from rescol.sat import CnfFormula, is_r_resilient, max_sat_resilience


def test_bits_matches_the_low_bit_loop():
    """_bits gives the set bits that clearing the low bit one step at a
    time gives: 0, one bit, masks of a few bits, masks just under and over
    256 bits, and masks over 100,000 bits."""

    def low_bit_loop(mask):
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    rng = random.Random(50)
    masks = [0, 1, 2, 1 << 63, 1 << 255, 1 << 256, 1 << 100_000, (1 << 256) - 1, (1 << 257) - 1]
    for size in (3, 36, 257, 1000):
        masks += [rng.getrandbits(size) for _ in range(50)]
    masks += [sum(1 << rng.randrange(100_003) for _ in range(2000)) for _ in range(3)]
    for mask in masks:
        assert list(resilience._bits(mask)) == low_bit_loop(mask)


def test_scans_leave_no_cyclic_garbage():
    """A scan's nodes, certificates and solver are freed by reference
    counting when it returns: graph and SAT scans, resilient or not, and
    both max sweeps leave nothing for the cycle collector."""
    phi = blow_up(CnfFormula.make(3, [(1, 2, 3), (-1, -2, 3)]), 2)
    scans = [
        lambda: is_r_resiliently_k_colorable(classic("petersen"), 2, 3),
        lambda: is_r_resiliently_k_colorable(classic("durer"), 2, 3),
        lambda: max_graph_resilience(classic("petersen"), 3),
        lambda: is_r_resilient(phi, 2),
        lambda: is_r_resilient(CnfFormula.make(2, [(1, 2)]), 2),
        lambda: max_sat_resilience(phi),
    ]
    gc.collect()
    gc.disable()
    try:
        for scan in scans:
            scan()
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_petersen_2_3_resilient():
    verdict = is_r_resiliently_k_colorable(classic("petersen"), 2, 3)
    assert verdict.resilient and verdict.witness is None
    assert verdict.subsets_checked == 435


def test_durer_2_3_not_resilient():
    verdict = is_r_resiliently_k_colorable(classic("durer"), 2, 3)
    assert not verdict.resilient
    assert verdict.witness is not None and len(verdict.witness) == 2
    g = add_edges(classic("durer"), verdict.witness)
    assert is_k_colorable(g, 3) is None


def test_chvatal_4_4_not_resilient():
    verdict = is_r_resiliently_k_colorable(classic("chvatal"), 4, 4)
    assert not verdict.resilient
    assert is_k_colorable(add_edges(classic("chvatal"), verdict.witness), 4) is None


def test_complete_minus_matching_example():
    verdict = is_r_resiliently_k_colorable(complete_minus_matching(3), 2, 4)
    assert not verdict.resilient
    # the only breaking pair restores both missing edges of K5
    assert verdict.witness == ((0, 1), (2, 3))


def test_not_colorable_at_r0():
    verdict = is_r_resiliently_k_colorable(complete_graph(4), 0, 3)
    assert not verdict.resilient
    assert verdict.witness == ()
    assert verdict.subsets_checked == 1


def test_r_capped_at_non_edge_count():
    g = Graph.from_edges(3, [(0, 1)])  # two non-edges
    verdict = is_r_resiliently_k_colorable(g, 5, 3)
    assert verdict.r == 2
    assert verdict.resilient  # forcing K3 stays 3-colorable
    verdict = is_r_resiliently_k_colorable(g, 5, 2)
    assert not verdict.resilient and len(verdict.witness) == 2


def test_rejects_bad_arguments():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        is_r_resiliently_k_colorable(g, -1, 3)
    with pytest.raises(ValueError):
        is_r_resiliently_k_colorable(g, 0, 0)


def test_witness_is_lexicographically_first():
    rng = random.Random(30)
    for _ in range(120):
        g = random_graph(rng, max_n=6)
        k = rng.randint(1, 3)
        r = rng.randint(0, 3)
        verdict = is_r_resiliently_k_colorable(g, r, k)
        expected_witness, expected_checked = oracle_graph_first_failure(g, r, k)
        if expected_witness is None:
            assert verdict.resilient and verdict.witness is None
        else:
            assert not verdict.resilient
            assert verdict.witness == expected_witness
        assert verdict.subsets_checked == expected_checked


def test_witness_breaks_colorability():
    rng = random.Random(31)
    for _ in range(80):
        g = random_graph(rng, max_n=7)
        k = rng.randint(1, 3)
        verdict = is_r_resiliently_k_colorable(g, rng.randint(0, 3), k)
        if verdict.witness is not None and len(verdict.witness) > 0:
            assert is_k_colorable(add_edges(g, verdict.witness), k) is None


def test_monotone_in_r():
    rng = random.Random(32)
    for _ in range(40):
        g = random_graph(rng, max_n=6)
        k = rng.randint(1, 3)
        states = [is_r_resiliently_k_colorable(g, r, k).resilient for r in range(4)]
        for earlier, later in itertools.pairwise(states):
            assert earlier or not later


def test_max_examples():
    assert max_graph_resilience(classic("grotzsch"), 4) == 4
    assert max_graph_resilience(classic("durer"), 4) == 4
    assert max_graph_resilience(complete_graph(3), 3) == SATURATED
    assert max_graph_resilience(complete_plus_isolated(3), 3) == 2
    assert max_graph_resilience(complete_plus_isolated(4), 4) == 3


def test_max_derived_classics():
    assert max_graph_resilience(classic("petersen"), 3) == 2
    assert max_graph_resilience(classic("durer"), 3) == 1
    assert max_graph_resilience(classic("chvatal"), 4) == 3


def test_max_errors_when_not_colorable():
    with pytest.raises(ValueError, match="not even 0-resilient"):
        max_graph_resilience(complete_graph(4), 3)


def test_max_saturated_iff_small():
    assert max_graph_resilience(Graph(2, frozenset()), 3) == SATURATED
    # three added edges can form a triangle, two cannot
    assert max_graph_resilience(Graph(4, frozenset()), 2) == 2


def test_empty_graph_resilience():
    g = Graph(0, frozenset())
    verdict = is_r_resiliently_k_colorable(g, 2, 1)
    assert verdict.resilient and verdict.witness is None
    assert (verdict.r, verdict.subsets_checked) == (0, 1)
    assert max_graph_resilience(g, 1) == SATURATED


def test_max_agrees_with_direct_scan():
    rng = random.Random(33)
    for _ in range(40):
        g = random_graph(rng, max_n=6, min_n=2)
        k = rng.randint(1, 3)
        if is_k_colorable(g, k) is None:
            continue
        got = max_graph_resilience(g, k)
        if g.n <= k:
            assert got == SATURATED
            continue
        # recompute independently from the single-r predicate
        limit = len(non_edges(g))
        expect = 0
        for r in range(1, limit + 1):
            if not is_r_resiliently_k_colorable(g, r, k).resilient:
                expect = r - 1
                break
        else:
            expect = limit
        assert got == expect


def test_coloring_cache_solver_calls_pinned(monkeypatch):
    """Perf gate: the coloring cache answers all but 49 of the 43,863 subsets
    scanned; a cache regression changes this count."""
    calls = count_calls(monkeypatch, resilience, "_solve_masks")
    verdict = is_r_resiliently_k_colorable(classic("durer"), 5, 4)
    assert not verdict.resilient
    assert verdict.witness == ((0, 2), (0, 8), (0, 10), (2, 6), (2, 10))
    assert verdict.subsets_checked == 43863
    assert calls[0] == 49


@pytest.mark.parametrize(
    "name, expected, pinned", [("durer", 4, 68), ("grotzsch", 4, 61), ("chvatal", 3, 31)]
)
def test_max_graph_resilience_solver_calls_pinned(monkeypatch, name, expected, pinned):
    """Perf gate: one coloring cache serves the whole sweep over r."""
    calls = count_calls(monkeypatch, resilience, "_solve_masks")
    assert max_graph_resilience(classic(name), 4) == expected
    assert calls[0] == pinned


def test_max_clebsch_solver_calls_pinned(monkeypatch):
    """Perf gate: the Clebsch graph has 4 as its exact max resilience at
    k = 4, and the sweep ends at the missing-edge bound without the r = 5
    scan."""
    calls = count_calls(monkeypatch, resilience, "_solve_masks")
    assert max_graph_resilience(classic("clebsch"), 4) == 4
    assert calls[0] == 82


def test_missing_edge_bound_never_below_brute_force():
    """The greedy bound is never below the fewest missing edges over all
    (k+1)-vertex sets, so one less than it is a valid upper bound."""
    rng = random.Random(41)
    for _ in range(300):
        g = random_graph(rng, max_n=9, min_n=2)
        k = rng.randint(1, g.n - 1)
        fewest = min(
            comb(k + 1, 2) - sum(g.has_edge(u, v) for u, v in itertools.combinations(s, 2))
            for s in itertools.combinations(range(g.n), k + 1)
        )
        assert resilience._missing_edge_bound(g, k) >= fewest


def test_bounded_max_matches_unbounded_sweep(monkeypatch):
    """The bounded sweep gives the answer of an r-by-r sweep of single-r
    scans, raising where it raises, and never solves more than the sweep
    that runs until its first failing r.  A quarter of the random graphs
    contain a planted K_{k+1}; Durer at k = 3 has a bound above its value,
    so its sweep stops at a failing scan."""
    calls = count_calls(monkeypatch, resilience, "_solve_masks")
    rng = random.Random(43)
    cases = [(classic("durer"), 3)]
    for _ in range(600):
        k = rng.randint(2, 4)
        g = random_graph(rng, max_n=7, min_n=k)
        if rng.random() < 1 / 4 and g.n > k:
            clique = rng.sample(range(g.n), k + 1)
            g = add_edges(g, [(u, v) for u, v in itertools.combinations(clique, 2) if not g.has_edge(u, v)])
        cases.append((g, k))
    for g, k in cases:
        if g.n <= k:
            expect = SATURATED
        else:
            # all non-edges added make K_n, so some r fails
            r = next(
                r
                for r in range(len(non_edges(g)) + 1)
                if not is_r_resiliently_k_colorable(g, r, k).resilient
            )
            expect = "raises" if r == 0 else r - 1
        calls[0] = 0
        try:
            got = max_graph_resilience(g, k)
        except ValueError:
            got = "raises"
        assert got == expect
        if isinstance(got, int):
            bounded = calls[0]
            candidates = non_edges(g)
            solve = resilience._coloring_certifier(g, k, candidates)
            calls[0] = 0
            store = resilience._CertificateStore(len(candidates), 1)
            assert resilience._max_resilience(store, solve, "", len(candidates)) == got
            assert bounded <= calls[0]
    assert resilience._missing_edge_bound(classic("durer"), 3) - 1 > 1


def test_clebsch_scan_solver_calls_pinned(monkeypatch):
    """Perf gate: the Clebsch graph is 4-resiliently 5-colorable, and 71
    solves answer all C(80, 4) subsets."""
    calls = count_calls(monkeypatch, resilience, "_solve_masks")
    verdict = is_r_resiliently_k_colorable(classic("clebsch"), 4, 5)
    assert verdict.resilient and verdict.witness is None
    assert verdict.subsets_checked == comb(80, 4) == 1_581_580
    assert calls[0] == 71


def test_clebsch_r5_scan_solver_calls_pinned(monkeypatch):
    """Perf gate where the last level of the prefix walk dominates: the
    Clebsch graph is 5-resiliently 5-colorable, and 108 solves answer all
    C(80, 5) subsets."""
    calls = count_calls(monkeypatch, resilience, "_solve_masks")
    verdict = is_r_resiliently_k_colorable(classic("clebsch"), 5, 5)
    assert verdict.resilient and verdict.witness is None
    assert verdict.subsets_checked == comb(80, 5) == 24_040_016
    assert calls[0] == 108


def test_certificate_store_keeps_every_certificate():
    """No certificate is ever dropped: 200 singleton groups at r = 1, each
    certified only by itself, take 200 solves and leave 200 certificates,
    which answer a second scan over the same store without a solve.  The
    solve fails past 200 calls, so a scan that misses a certificate it
    found fails the test instead of re-solving one mask forever."""
    calls = 0

    def solve(mask):
        nonlocal calls
        calls += 1
        assert calls <= 200
        return mask

    store = resilience._CertificateStore(200, 1)
    assert resilience._first_uncovered(store, 1, solve) == (None, 200)
    assert calls == 200
    assert len(store.complements) == 200
    assert resilience._first_uncovered(store, 1, solve) == (None, 200)
    assert calls == 200


def test_certificate_store_is_linear_in_the_universe():
    """A store over 20,000 groups keeps nothing quadratic: no mask of the
    later groups per group."""
    tracemalloc.start()
    try:
        resilience._CertificateStore(20_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_scan_matches_plain_reference_scan(monkeypatch):
    """The lex-prefix search solves exactly the subsets that the plain scan
    solves: same verdict, witness, subsets_checked and solver calls through
    the public API, and the same results and certificates when one store
    is carried through r = 0..3 (as the max sweep does), including sizes
    above the non-edge count."""
    calls = count_calls(monkeypatch, resilience, "_solve_masks")
    rng = random.Random(35)
    for _ in range(250):
        g = random_graph(rng, max_n=9)
        k = rng.randint(1, 4)
        candidates = non_edges(g)
        m = len(candidates)
        solve = resilience._coloring_certifier(g, k, candidates)
        store = resilience._CertificateStore(m, 1)
        certs = []
        for r in range(4):
            size = min(r, m)
            ref = [0]
            failure, checked = reference_first_uncovered(
                canonical_masks(m, 1, size), counted(solve, ref, 0), []
            )
            calls[0] = 0
            verdict = is_r_resiliently_k_colorable(g, r, k)
            assert verdict.resilient == (failure is None)
            if failure is not None:
                assert verdict.witness == tuple(candidates[i] for i in range(m) if failure >> i & 1)
            assert verdict.subsets_checked == checked
            assert calls[0] == ref[0]

            pair = [0, 0]
            got = resilience._first_uncovered(store, r, counted(solve, pair, 0))
            want = reference_first_uncovered(canonical_masks(m, 1, r), counted(solve, pair, 1), certs)
            assert got == want
            assert pair[0] == pair[1]
            assert sorted(store.complements) == sorted((1 << m) - 1 & ~cert for cert in certs)


def test_scan_matches_plain_reference_scan_through_r4():
    """One store carried through r = 0..4 on graphs of 8-10 vertices: each
    scan returns the plain scan's result, solves the same subsets in the
    same order and keeps the same colorings.  The cases reach the walk's
    last level both ways: a pick whose kept coloring met a sibling, and a
    prefix whose children pass the dead-group test yet all escape nothing."""
    rng = random.Random(37)
    siblings = covered = 0
    for _ in range(60):
        g = random_graph(rng, max_n=10, min_n=8)
        k = rng.randint(2, 4)
        candidates = non_edges(g)
        shapes = carried_scans_match_reference(
            resilience._first_uncovered,
            resilience._CertificateStore(len(candidates), 1),
            resilience._coloring_certifier(g, k, candidates),
            range(5),
        )
        siblings += shapes[0]
        covered += shapes[1]
    assert siblings and covered
