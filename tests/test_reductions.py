"""Blow-up, shrink-down, the hardness chain, and the 6-CNF to 3-coloring encoder."""
import hashlib
import itertools
import json
import math
import random

import pytest

from conftest import assert_checked, assert_graph_checked, brute_satisfiable, random_cnf, uniform_six_cnf
from rescol.coloring import chromatic_number, is_k_colorable, validate_coloring
from rescol.graphs import Graph, add_edges, non_edges
from rescol import reductions
from rescol.reductions import (
    BudgetExceededError,
    blow_up,
    decode_coloring,
    hardness_chain,
    provenance_json,
    shrink_down,
    six_cnf_to_graph,
    three_sat_to_coloring,
)
from rescol.resilience import is_r_resiliently_k_colorable
from rescol.sat import CnfFormula, is_r_resilient, is_satisfiable, restrict, serialize_cnf


def satisfies(phi: CnfFormula, assignment: dict[int, bool]) -> bool:
    return all(any(assignment[abs(lit)] == (lit > 0) for lit in cl) for cl in phi.clauses)


# ---------------------------------------------------------------- blow_up


def test_blow_up_single_clause():
    phi = CnfFormula.make(3, [(1, 2, 3)])
    psi = blow_up(phi, 2)
    assert psi.num_vars == 6
    assert psi.clauses == ((1, 2, 3, 4, 5, 6),)


def test_blow_up_product_order():
    phi = CnfFormula.make(3, [(1, 2, 3), (-1, -2, -3)])
    psi = blow_up(phi, 2)
    assert psi.num_vars == 6
    assert psi.clauses == (
        (1, 2, 3, 4, 5, 6),
        (1, 2, 3, -4, -5, -6),
        (-1, -2, -3, 4, 5, 6),
        (-1, -2, -3, -4, -5, -6),
    )
    assert psi.width == 6
    # at s = 3, clause by clause the definition: copy i renames v to i*n + v,
    # over itertools.product of the clauses, copy 0 most significant
    rng = random.Random(40)
    for _ in range(30):
        phi = random_cnf(rng, max_vars=5, max_clauses=5, max_width=3)
        n = phi.num_vars
        expected = tuple(
            tuple(lit + i * n if lit > 0 else lit - i * n for i, cl in enumerate(combo) for lit in cl)
            for combo in itertools.product(phi.clauses, repeat=3)
        )
        assert blow_up(phi, 3) == CnfFormula(3 * n, expected)


def test_blow_up_negative_literal_offsets():
    phi = CnfFormula.make(3, [(-2,)])
    psi = blow_up(phi, 2)
    assert psi.clauses == ((-2, -5),)


def test_blow_up_s1_is_identity():
    phi = CnfFormula.make(3, [(1, -3)])
    assert blow_up(phi, 1) == phi


def test_blow_up_rejects_bad_s():
    with pytest.raises(ValueError):
        blow_up(CnfFormula.make(1, [(1,)]), 0)


def test_blow_up_budget():
    phi = CnfFormula.make(2, [(1,), (2,), (-1, -2), (1, -2)])
    with pytest.raises(BudgetExceededError, match=r"4\^10"):
        blow_up(phi, 10, clause_budget=1000)
    # the check happens before any expansion work
    with pytest.raises(BudgetExceededError, match="over the budget"):
        blow_up(phi, 40)
    # a huge s is refused before m**s is computed or printed
    with pytest.raises(BudgetExceededError, match=r"3\^10000 clauses"):
        blow_up(CnfFormula.make(3, [(1,), (2,), (3,)]), 10_000)
    # one clause passes any clause count; its literal count is budgeted too
    one = CnfFormula.make(3, [(1, 2, 3)])
    with pytest.raises(BudgetExceededError, match="102 literals"):
        blow_up(one, 34, clause_budget=100)
    out = blow_up(one, 33, clause_budget=100)
    assert len(out.clauses) == 1 and len(out.clauses[0]) == 99


def test_blow_up_work_follows_its_output():
    """With no clause or one, the product is built directly: a huge s costs
    no loop over the copies, and a wide clause no rebuild per copy."""
    assert blow_up(CnfFormula(3, ()), 10**12) == CnfFormula(3 * 10**12, ())
    assert blow_up(CnfFormula.make(1, [(1,)]), 10**6).clauses == (tuple(range(1, 10**6 + 1)),)
    # an empty clause, which only a restriction makes, stays empty
    assert blow_up(CnfFormula(2, ((),)), 10**12) == CnfFormula(2 * 10**12, ((),))


def test_blow_up_equisatisfiable():
    rng = random.Random(40)
    for _ in range(100):
        phi = random_cnf(rng, max_vars=4, max_clauses=3)
        psi = blow_up(phi, 2)
        assert brute_satisfiable(psi) == brute_satisfiable(phi)


def test_blow_up_resilience_transfer():
    """A merely satisfiable input becomes (s-1)-resilient after blow-up."""
    rng = random.Random(41)
    done = 0
    while done < 12:
        phi = random_cnf(rng, max_vars=3, max_clauses=2, max_width=3)
        if phi.num_vars == 0 or not brute_satisfiable(phi):
            continue
        done += 1
        for s in (2, 3):
            psi = blow_up(phi, s)
            assert is_r_resilient(psi, s - 1).resilient


# ------------------------------------------------------------- shrink_down


def test_shrink_down_width6_example():
    phi = CnfFormula.make(6, [(1, 2, 3, 4, 5, 6)])
    psi = shrink_down(phi)
    assert psi.num_vars == 7
    assert psi.clauses == ((1, 2, 3, 7), (4, 5, 6, -7))
    assert psi.width == 4


def test_shrink_down_width5_example():
    phi = CnfFormula.make(5, [(1, 2, 3, 4, 5)])
    psi = shrink_down(phi)
    assert psi.clauses == ((1, 2, 3, 6), (4, 5, -6))
    assert psi.width == 4


def test_shrink_down_fresh_variable_per_clause():
    phi = CnfFormula.make(4, [(1, 2), (3, 4), (-1, -4)])
    psi = shrink_down(phi)
    assert psi.num_vars == 7
    assert psi.clauses == ((1, 5), (2, -5), (3, 6), (4, -6), (-1, 7), (-4, -7))


def test_shrink_down_rejects_narrow():
    with pytest.raises(ValueError, match="width >= 2"):
        shrink_down(CnfFormula.make(2, [(1,), (2,)]))


def test_shrink_down_equisatisfiable():
    rng = random.Random(42)
    for _ in range(100):
        phi = random_cnf(rng, max_vars=6, max_clauses=3, max_width=6, exact_width=True)
        assert brute_satisfiable(shrink_down(phi)) == brute_satisfiable(phi)


def test_shrink_down_resilience_transfer():
    """r-resilient uniform width-6 input gives a min(r, 3)-resilient output."""
    rng = random.Random(43)
    found = 0
    while found < 10:
        phi = uniform_six_cnf(rng, rng.randint(1, 2))
        if not brute_satisfiable(phi):
            continue
        r = 0
        while r < phi.num_vars and is_r_resilient(phi, r + 1).resilient:
            r += 1
        if r == 0:
            continue
        found += 1
        psi = shrink_down(phi)
        assert is_r_resilient(psi, min(r, 3)).resilient


# ----------------------------------------------------------- hardness_chain


def test_hardness_chain_validates_input():
    phi = CnfFormula.make(1, [(1,)])
    with pytest.raises(ValueError, match="r >= 2"):
        hardness_chain(1, phi)
    wide = CnfFormula.make(4, [(1, 2, 3, 4)])
    with pytest.raises(ValueError, match="width"):
        hardness_chain(2, wide)


def test_hardness_chain_output_width():
    phi = CnfFormula.make(3, [(1, 2, 3), (-1, 2, -3)])
    for r in range(2, 7):
        assert hardness_chain(r, phi).width == r + 1


def test_hardness_chain_maps_unsat_to_unsat():
    # the output grows exponentially in r: m^(r+1) blow-up clauses, each
    # split by every shrink round.  is_satisfiable resolves the shrink
    # rounds' switch variables away and refutes only the blow-up, so the
    # r = 3 chain of the 3-variable contradiction (32,768 clauses) takes
    # well under a second; without the elimination its DPLL took seconds
    phi = CnfFormula.make(1, [(1, 1, 1), (-1, -1, -1)])
    out = hardness_chain(2, phi)
    assert out.width == 3
    assert is_satisfiable(out) is None
    contradiction = CnfFormula.make(3, itertools.product((1, -1), (2, -2), (3, -3)))
    out = hardness_chain(3, contradiction)
    assert (out.width, len(out.clauses)) == (4, 32_768)
    assert is_satisfiable(out) is None


def test_hardness_chain_normalizes_narrow_input():
    # a unit clause and a binary clause expand over fresh variables; the
    # output is too large for a full resilience scan, so check structure
    # and satisfiability (resilience transfer is verified on the
    # single-clause input below, where the space is small)
    phi = CnfFormula.make(3, [(1,), (2, -3)])
    out = hardness_chain(2, phi)
    assert out.width == 3
    for cl in out.clauses:
        assert len({abs(lit) for lit in cl}) == 3
    assert is_satisfiable(out) is not None


def test_hardness_chain_drops_tautologies():
    phi = CnfFormula.make(2, [(1, -1, 2)])
    out = hardness_chain(3, phi)
    assert out == CnfFormula(8, ())


def test_exact_three_cnf_frozen_output():
    # CnfFormula(...) rather than make(): make rejects the empty clause
    phi = CnfFormula(3, ((), (2,), (1, -3), (1, -2, 1), (2, -2, 3), (-1, 2, 3)))
    out = reductions._exact_three_cnf(phi)
    assert out == CnfFormula(
        10,
        (
            (4, 5, 6),
            (4, 5, -6),
            (4, -5, 6),
            (4, -5, -6),
            (-4, 5, 6),
            (-4, 5, -6),
            (-4, -5, 6),
            (-4, -5, -6),
            (2, 7, 8),
            (2, 7, -8),
            (2, -7, 8),
            (2, -7, -8),
            (1, -3, 9),
            (1, -3, -9),
            (1, -2, 10),
            (1, -2, -10),
            (-1, 2, 3),
        ),
    )


def test_hardness_chain_frozen_r2_output():
    out = hardness_chain(2, CnfFormula.make(3, [(1, 2, 3)]))
    assert out.num_vars == 16
    assert out.clauses == (
        (1, 2, 13),
        (3, 11, -13),
        (4, 5, 14),
        (10, -11, -14),
        (6, 7, 15),
        (8, 12, -15),
        (9, -10, 16),
        (6, -12, -16),
    )


def test_hardness_chain_clauses_have_distinct_variables():
    phi = CnfFormula.make(3, [(1, 2, 3), (-1, 2, -3)])
    for r in (2, 3, 4, 5):
        out = hardness_chain(r, phi)
        for cl in out.clauses:
            assert len({abs(lit) for lit in cl}) == len(cl) == r + 1


def test_hardness_chain_lemma_exact():
    """A satisfiable input gives an output that survives every r fixings,
    and no more: fixing one output clause's r + 1 literals false kills it."""
    cases = [
        (2, CnfFormula.make(3, [(1, 2, 3)]), 480),
        (2, CnfFormula.make(3, [(1, 2)]), 9112),
        (2, CnfFormula.make(3, [(1, 2, 3), (-1, -2, -3)]), 8320),
        (3, CnfFormula.make(3, [(1, 2, 3)]), 7752),
        # 457 output variables
        (2, CnfFormula.make(1, [(1,)]), 416784),
        (3, CnfFormula.make(3, [(1, 2, 3), (-1, -2, -3)]), 2480992),
    ]
    for r, phi, checked in cases:
        out = hardness_chain(r, phi)
        assert out.width == r + 1
        verdict = is_r_resilient(out, r)
        assert verdict.resilient
        assert verdict.restrictions_checked == math.comb(out.num_vars, r) * 2**r == checked
        control = is_r_resilient(out, r + 1)
        assert not control.resilient
        # the witness falsifies the first output clause, (x1 | x2 | x13) for r = 2
        # on the first input
        first = sorted(out.clauses[0], key=abs)
        assert control.witness.fixes == tuple((abs(lit), lit < 0) for lit in first)
    # random 3-CNFs of one or two clauses over four variables, at r = 2
    # (three clauses make outputs of 1,500-3,600 variables, 1-2 s each)
    rng = random.Random(35)
    for _ in range(10):
        clauses = [
            tuple(rng.choice((1, -1)) * v for v in rng.sample(range(1, 5), 3))
            for _ in range(rng.randint(1, 2))
        ]
        phi = CnfFormula.make(4, clauses)
        assert brute_satisfiable(phi)
        out = hardness_chain(2, phi)
        verdict = is_r_resilient(out, 2)
        assert verdict.resilient
        assert verdict.restrictions_checked == math.comb(out.num_vars, 2) * 4
        control = is_r_resilient(out, 3)
        assert not control.resilient and len(control.witness) == 3
        assert is_satisfiable(restrict(out, control.witness)) is None


def test_hardness_chain_budget():
    phi = CnfFormula.make(3, [(1, 2, 3), (-1, -2, 3), (1, -2, -3)])
    with pytest.raises(BudgetExceededError):
        hardness_chain(5, phi, clause_budget=100)
    # the 2^3 = 8 blow-up clauses fit; the first shrink step would emit 16
    two = CnfFormula.make(3, [(1, 2, 3), (-1, -2, 3)])
    with pytest.raises(BudgetExceededError, match="shrink step would emit 16"):
        hardness_chain(2, two, clause_budget=8)


def test_reductions_build_formulas_the_constructor_accepts():
    """The reductions build their outputs without the constructor's range
    check; on seeded random inputs every output passes it unchanged."""
    rng = random.Random(47)
    for _ in range(100):
        n = rng.randint(1, 5)
        # m = 0, 1 and >= 2 clauses, an empty clause now and then
        phi = random_cnf(rng, max_vars=n, max_clauses=3)
        inputs = [CnfFormula(n, ()), CnfFormula(n, phi.clauses[:1]), phi, CnfFormula(n, ((),))]
        for psi in inputs:
            for s in (1, 2, 3):
                assert_checked(blow_up(psi, s))
            assert_checked(reductions._exact_three_cnf(psi))
        wide = random_cnf(rng, max_vars=6, max_clauses=4, max_width=6)
        if wide.width >= 2:
            assert_checked(shrink_down(wide))
        # every clause at least half the target width, as the pad requires
        width = rng.randint(2, 8)
        clauses = [
            tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint((width + 1) // 2, width)))
            for _ in range(rng.randint(0, 4))
        ]
        assert_checked(reductions._pad_to_width(CnfFormula(n, tuple(clauses)), width))
    for r, clauses in ((2, 3), (3, 3), (4, 2)):
        for _ in range(5):
            phi3 = random_cnf(rng, max_vars=4, max_clauses=clauses, exact_width=True)
            assert_checked(hardness_chain(r, phi3))


# r, the input's variable count and clauses, and the SHA-256 of the chain's
# DIMACS text
_FROZEN_CHAINS = [
    (2, 3, [(1, 2, 3)], "c14445e51e2ac0d739720c532aa524298ca18d0cce07c1cf66d5db8bd7f177a7"),
    (2, 3, [(1, 2), (-1, -2, -3)], "3da432914f2be05626d477c19b97bf3c184e5dec8f47094c37a6bef86589a1f3"),
    (2, 4, [(1, -2, 3), (-1, 4), (2, 3, -4)], "b08f6e2338771560e2d74ec28f4ffccd3fe76b803affe2cb1f2d504fa195e8f4"),
    (3, 3, [(1, 2, 3)], "ded06d1e9fd3af55cb83b163469b4306662eaf6db2dd9bd15fcfd72cb263a589"),
    (3, 3, [(1, 2), (-1, -2, -3)], "ab09348c0f0462aa470ea49a791f0643bb77e8d553e0e813318d4f2756b86fc0"),
    (3, 4, [(1, -2, 3), (-1, 4), (2, 3, -4)], "8960f2acd3e49bf8a17b3dc4bc6559b4b2e5cdbb0f4c00d82d8a9580608f5f96"),
    (4, 3, [(1, 2, 3)], "8d706a28a0c89e2a220a7ae3e38273792466693b52ee2307fc69f9ae38dfb7d5"),
    (4, 3, [(1, 2), (-1, -2, -3)], "86021126fe7329d51b422f8cf9a7af11c6268ad7dd00e84f5d25ca708efbcfd2"),
    (4, 4, [(1, -2, 3), (-1, 4), (2, 3, -4)], "2a626a800b4629a1827339225172797e1076fa7d994b240518e309bed5294f07"),
]


def test_hardness_chain_outputs_are_frozen_and_uniform_pads_return_their_input(monkeypatch):
    """The chain's outputs at r = 2, 3 and 4, frozen as the SHA-256 of their
    DIMACS text.  Of the four pads in each chain, those whose input has no
    clause narrower than the target width return that input itself: the
    second, third and fourth at r = 2, the second and third at r = 3 and 4."""
    returned_input = []
    pad = reductions._pad_to_width

    def spy(phi, width):
        out = pad(phi, width)
        returned_input.append(out is phi)
        return out

    monkeypatch.setattr(reductions, "_pad_to_width", spy)
    for r, num_vars, clauses, digest in _FROZEN_CHAINS:
        returned_input.clear()
        out = hardness_chain(r, CnfFormula.make(num_vars, clauses))
        assert hashlib.sha256(serialize_cnf(out).encode()).hexdigest() == digest
        assert returned_input == ([True, True, False, True] if r == 2 else [False, True, True, False])


# --------------------------------------------------------- six_cnf_to_graph


def test_gadget_graphs_pass_the_constructor_check():
    """The gadget builder makes its graphs without the constructor's check;
    on seeded random inputs every graph it makes passes it unchanged, as do
    the standalone gadgets and each of them plus one added edge."""
    rng = random.Random(53)
    for _ in range(30):
        assert_graph_checked(six_cnf_to_graph(random_cnf(rng, max_vars=5, max_clauses=4, max_width=6)).graph)
    for _ in range(10):
        assert_graph_checked(three_sat_to_coloring(random_cnf(rng, max_vars=4, max_clauses=3)).graph)
    for num_ports, wire in ((2, None), (4, reductions._wire_negation), (12, reductions._wire_clause)):
        graph = reductions._standalone(num_ports, wire)[0]
        assert_graph_checked(graph)
        pairs = non_edges(graph)
        for pair in rng.sample(pairs, min(20, len(pairs))):
            assert_graph_checked(add_edges(graph, [pair]))


def test_gadget_graph_shape():
    phi = CnfFormula.make(3, [(1, 2, 3, -1, -2, -3)])
    gg = six_cnf_to_graph(phi)
    assert gg.graph.n == 1 + 10 * 3 + 18 * 1
    assert gg.base == 0
    assert gg.source_num_vars == 3
    # every occurring variable has ports for both polarities
    for v in (1, 2, 3):
        assert v in gg.literal_ports and -v in gg.literal_ports


def test_gadget_graph_counts_only_occurring_variables():
    phi = CnfFormula.make(5, [(2, 2, 2, 2, 2, 2)])
    gg = six_cnf_to_graph(phi)
    assert gg.graph.n == 1 + 10 * 1 + 18 * 1
    assert gg.source_num_vars == 5
    assert set(gg.literal_ports) == {2, -2}


def test_vertex_budget_matches_gadget_sizes():
    """The vertex budget's per-variable and per-clause counts are what the
    wiring builds."""
    negation_internals = reductions._standalone(4, reductions._wire_negation)[3]
    clause_internals = reductions._standalone(12, reductions._wire_clause)[3]
    assert reductions._VERTICES_PER_VARIABLE == 4 + len(negation_internals)
    assert reductions._VERTICES_PER_CLAUSE == len(clause_internals)
    rng = random.Random(12)
    for _ in range(100):
        phi = random_cnf(rng, max_vars=7, max_clauses=5, max_width=6)
        gg = six_cnf_to_graph(phi)
        assert gg.graph.n == 1 + 10 * len(phi.variables()) + 18 * len(phi.clauses)


def test_ports_adjacent_to_base():
    phi = CnfFormula.make(3, [(1, -2, 3, 1, 1, 1), (2, -3, -1, 2, 2, 2)])
    gg = six_cnf_to_graph(phi)
    for pair in gg.literal_ports.values():
        for port in pair:
            assert gg.graph.has_edge(gg.base, port)


def test_provenance_records_are_disjoint():
    phi = CnfFormula.make(2, [(1, 2, -1, -2, 1, 2)])
    gg = six_cnf_to_graph(phi)
    seen: set[int] = set()
    for record in gg.provenance:
        owned = set(record.vertices)
        assert not owned & seen
        seen |= owned
    kinds = sorted(r.kind for r in gg.provenance)
    assert kinds == ["clause", "literal", "literal", "literal", "literal", "negation", "negation"]
    # base plus all gadget vertices tile the graph
    assert seen | {gg.base} == set(range(gg.graph.n))


def test_six_cnf_rejects_bad_input():
    with pytest.raises(ValueError, match="width"):
        six_cnf_to_graph(CnfFormula.make(7, [(1, 2, 3, 4, 5, 6, 7)]))
    with pytest.raises(ValueError):
        six_cnf_to_graph(CnfFormula(1, ((),)))
    big = CnfFormula.make(6, [(1, 2, 3, 4, 5, 6)] * 40)
    with pytest.raises(BudgetExceededError):
        six_cnf_to_graph(big, vertex_budget=100)


def test_satisfiable_clause_gives_colorable_graph():
    phi = CnfFormula.make(6, [(1, -2, 3, -4, 5, -6)])
    gg = six_cnf_to_graph(phi)
    assert is_k_colorable(gg.graph, 3) is not None


def test_unsatisfiable_formula_gives_uncolorable_graph():
    phi = CnfFormula.make(1, [(1,) * 6, (-1,) * 6])
    gg = six_cnf_to_graph(phi)
    assert is_k_colorable(gg.graph, 3) is None


def test_equisatisfiable_on_random_formulas():
    rng = random.Random(44)
    for _ in range(40):
        phi = random_cnf(rng, max_vars=3, max_clauses=2, max_width=6)
        if phi.width == 0:
            continue
        gg = six_cnf_to_graph(phi)
        assert (is_k_colorable(gg.graph, 3) is not None) == brute_satisfiable(phi)


def test_one_resilience_transfer_single_instance():
    phi = blow_up(CnfFormula.make(2, [(1, 2), (-1, 2)]), 2)
    assert is_r_resilient(phi, 1).resilient
    gg = six_cnf_to_graph(phi)
    verdict = is_r_resiliently_k_colorable(gg.graph, 1, 3)
    assert verdict.resilient


# ------------------------------------------------------ three_sat_to_coloring


def test_three_sat_positive_instance():
    gg = three_sat_to_coloring(CnfFormula.make(3, [(1, 2, 3)]))
    assert is_r_resiliently_k_colorable(gg.graph, 1, 3).resilient


def test_three_sat_negative_instance():
    phi = CnfFormula.make(1, [(1, 1, 1), (-1, -1, -1)])
    gg = three_sat_to_coloring(phi)
    assert chromatic_number(gg.graph) >= 4


def test_three_sat_empty_formula():
    gg = three_sat_to_coloring(CnfFormula.make(0, []))
    assert gg.graph.n == 1
    assert len(gg.graph.edges) == 0
    assert is_k_colorable(gg.graph, 3) is not None


def test_three_sat_rejects_wide_input():
    with pytest.raises(ValueError):
        three_sat_to_coloring(CnfFormula.make(4, [(1, 2, 3, 4)]))


def test_three_sat_applies_default_vertex_budget():
    m = 75
    phi = CnfFormula.make(m, [(i + 1, -((i + 1) % m + 1), (i + 2) % m + 1) for i in range(m)])
    with pytest.raises(BudgetExceededError, match="102751 vertices"):
        three_sat_to_coloring(phi)


# ------------------------------------------------------------ decode_coloring


def test_decode_rejects_improper_coloring():
    gg = six_cnf_to_graph(CnfFormula.make(1, [(1,) * 6]))
    with pytest.raises(ValueError, match="not a proper 3-coloring"):
        decode_coloring(gg, [0] * gg.graph.n)


def test_decode_reads_port_colors():
    phi = CnfFormula.make(1, [(1,) * 6])
    gg = six_cnf_to_graph(phi)
    colors = is_k_colorable(gg.graph, 3)
    decoded = decode_coloring(gg, colors)
    p, q = gg.literal_ports[1]
    assert decoded[1] == (colors[p] == colors[q])
    assert decoded[1] is True  # the only way to satisfy (x or x or ... or x)


def test_decode_is_color_permutation_invariant():
    phi = CnfFormula.make(2, [(1, -2, 1, 1, 1, 1)])
    gg = six_cnf_to_graph(phi)
    colors = is_k_colorable(gg.graph, 3)
    base_decoded = decode_coloring(gg, colors)
    for perm in itertools.permutations(range(3)):
        permuted = [perm[c] for c in colors]
        assert decode_coloring(gg, permuted) == base_decoded


def test_decode_covers_all_source_variables():
    phi = CnfFormula.make(9, [(4, 4, 4, 4, 4, 4)])
    gg = six_cnf_to_graph(phi)
    decoded = decode_coloring(gg, is_k_colorable(gg.graph, 3))
    assert set(decoded) == set(range(1, 10))


def test_full_pipeline_decoded_assignment_satisfies():
    rng = random.Random(45)
    done = 0
    while done < 60:
        phi = random_cnf(rng, max_vars=3, max_clauses=2, max_width=6)
        if phi.width == 0 or not brute_satisfiable(phi):
            continue
        done += 1
        gg = six_cnf_to_graph(phi)
        colors = is_k_colorable(gg.graph, 3)
        assert colors is not None
        assert satisfies(phi, decode_coloring(gg, colors))


def test_every_proper_coloring_decodes_to_satisfying_assignment():
    """Reduction completeness, checked over the full coloring space."""
    phi = CnfFormula.make(1, [(1, 1, 1, -1, -1, -1)])
    gg = six_cnf_to_graph(phi)
    g = gg.graph
    # enumerate proper colorings by branch and bound over the real solver:
    # sample many distinct colorings instead of all (the space is huge), by
    # clamping the first port pair into every joint color combination
    p, q = gg.literal_ports[1]
    from rescol.coloring import extend_coloring

    seen = 0
    for cp in range(3):
        for cq in range(3):
            colors = extend_coloring(g, 3, {p: cp, q: cq})
            if colors is None:
                continue
            seen += 1
            assert satisfies(phi, decode_coloring(gg, colors))
    assert seen > 0


# ------------------------------------------------------------- provenance


def test_provenance_json_schema():
    phi = CnfFormula.make(2, [(1, 2, 1, 1, 1, 1)])
    gg = six_cnf_to_graph(phi)
    doc = json.loads(provenance_json(gg))
    assert doc["base"] == gg.base
    assert doc["vertex_count"] == gg.graph.n
    assert doc["source_num_vars"] == 2
    assert doc["literal_ports"]["1"] == list(gg.literal_ports[1])
    assert doc["literal_ports"]["-2"] == list(gg.literal_ports[-2])
    kinds = {entry["kind"] for entry in doc["gadgets"]}
    assert kinds == {"literal", "negation", "clause"}
    for entry in doc["gadgets"]:
        assert set(entry) == {"kind", "vertices", "ports", "ref"}
