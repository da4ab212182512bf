"""Exact coloring solver, chromatic number, greedy bounded-degree coloring."""
import hashlib
import random
import tracemalloc

import pytest

from conftest import TAIL_8_14, brute_colorable, random_graph
from rescol import coloring
from rescol.coloring import (
    DegreeWitness,
    chromatic_number,
    extend_coloring,
    greedy_color_bounded_degree,
    is_k_colorable,
    validate_coloring,
)
from rescol.graphs import Graph, classic, complete_graph, complete_plus_isolated
from rescol.reductions import six_cnf_to_graph, three_sat_to_coloring
from rescol.sat import CnfFormula, is_satisfiable


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_small_knowns():
    assert is_k_colorable(complete_graph(4), 3) is None
    assert is_k_colorable(complete_graph(4), 4) is not None
    assert is_k_colorable(cycle(5), 2) is None
    assert is_k_colorable(cycle(5), 3) is not None
    assert is_k_colorable(cycle(6), 2) is not None
    assert is_k_colorable(Graph(3, frozenset()), 1) is not None


def test_k_validation():
    with pytest.raises(ValueError):
        is_k_colorable(complete_graph(2), 0)


def test_returned_colorings_are_proper():
    rng = random.Random(10)
    for _ in range(200):
        g = random_graph(rng)
        k = rng.randint(1, 4)
        got = is_k_colorable(g, k)
        if got is not None:
            assert validate_coloring(g, got, k)


def test_agrees_with_brute_force():
    rng = random.Random(11)
    for _ in range(300):
        g = random_graph(rng)
        k = rng.randint(1, 4)
        assert (is_k_colorable(g, k) is not None) == brute_colorable(g, k)


def test_solver_matches_plain_backtracking_reference():
    """Backjumping and the forced-color step must not change the coloring
    found, only the work done."""

    def reference(g, k, fixed=None):
        color = [-1] * g.n
        avail = [(1 << k) - 1] * g.n
        if fixed:
            for v, c in fixed.items():
                color[v] = c
            for v, c in fixed.items():
                for u in range(g.n):
                    if g.has_edge(u, v):
                        if color[u] == c:
                            return None
                        if color[u] == -1:
                            avail[u] &= ~(1 << c)
                            if avail[u] == 0:
                                return None
        order = sorted(
            (v for v in range(g.n) if color[v] == -1),
            key=lambda v: (-sum(g.has_edge(u, v) for u in range(g.n)), v),
        )
        if not order:
            return tuple(color)
        if not fixed:
            avail[order[0]] = 1

        def rec(i):
            if i == len(order):
                return True
            v = order[i]
            m = avail[v]
            while m:
                c = (m & -m).bit_length() - 1
                m &= m - 1
                bit = 1 << c
                touched = []
                dead = False
                for u in range(g.n):
                    if g.has_edge(u, v) and color[u] == -1 and avail[u] & bit:
                        avail[u] &= ~bit
                        touched.append(u)
                        if avail[u] == 0:
                            dead = True
                            break
                if not dead:
                    color[v] = c
                    if rec(i + 1):
                        return True
                    color[v] = -1
                for u in touched:
                    avail[u] |= bit
            return False

        return tuple(color) if rec(0) else None

    rng = random.Random(12)
    for _ in range(400):
        g = random_graph(rng)
        k = rng.randint(1, 4)
        fixed = None
        if g.n and rng.random() < 0.4:
            fixed = {rng.randrange(g.n): rng.randrange(k)}
        assert extend_coloring(g, k, fixed or {}) == reference(g, k, fixed)

    # k = 4 and 5 on denser graphs of 10-14 vertices, with up to three pins,
    # where backjumps over more than one frame are common
    rng = random.Random(13)
    for _ in range(200):
        g = random_graph(rng, max_n=14, min_n=10, density=rng.uniform(0.4, 0.8))
        k = rng.randint(4, 5)
        fixed = {v: rng.randrange(k) for v in rng.sample(range(g.n), rng.randint(0, 3))}
        assert extend_coloring(g, k, fixed) == reference(g, k, fixed or None)

    # k = 3 on graphs with triangles, where the forced-color step's pair
    # rule fires, with up to three pins
    rng = random.Random(14)
    tested = 0
    while tested < 400:
        g = random_graph(rng, max_n=12, min_n=8, density=rng.uniform(0.3, 0.5))
        if not any(set(g.neighbors[u]) & set(g.neighbors[v]) for u, v in g.edges):
            continue
        fixed = {v: rng.randrange(3) for v in rng.sample(range(g.n), rng.randint(0, 3))}
        assert extend_coloring(g, 3, fixed) == reference(g, 3, fixed or None)
        tested += 1

    # gadget graphs of one or two random 6-clauses, 39-57 vertices, where
    # wipe-outs inside the forced-color step and the backjumps they cause
    # are common
    rng = random.Random(15)
    for _ in range(60):
        num_vars = rng.randint(1, 3)
        clauses = [
            tuple(rng.choice((1, -1)) * rng.randint(1, num_vars) for _ in range(6))
            for _ in range(rng.randint(1, 2))
        ]
        g = six_cnf_to_graph(CnfFormula.make(num_vars, clauses)).graph
        fixed = {v: rng.randrange(3) for v in rng.sample(range(g.n), rng.randint(0, 3))}
        assert extend_coloring(g, 3, fixed) == reference(g, 3, fixed or None)


def planted_3cnf(seed: int, num_vars: int, num_clauses: int, min_true: int) -> CnfFormula:
    """Clauses over three distinct variables, each with at least min_true
    literals true under a hidden random assignment."""
    rng = random.Random(seed)
    truth = [rng.random() < 0.5 for _ in range(num_vars + 1)]
    clauses = []
    while len(clauses) < num_clauses:
        clause = tuple(
            v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 3)
        )
        if sum((lit > 0) == truth[abs(lit)] for lit in clause) >= min_true:
            clauses.append(clause)
    return CnfFormula.make(num_vars, clauses)


@pytest.mark.parametrize(
    "phi, size, digest",
    [
        # easy: two planted-true literals per clause; 2,753 color tries, one
        # per vertex, and no backjumps
        (
            planted_3cnf(0, 8, 12, 2),
            (2753, 5040),
            "51b9f43ee3d0784ada8b0421ee4ac215d922dc1e163582c61d469c6240547ff0",
        ),
        # one planted-true literal per clause; 2,866 color tries and 15
        # backjumps
        (
            planted_3cnf(0, 8, 12, 1),
            (2753, 5040),
            "99a7b016146d04058e5068d3b2d55d5cae24d7b79675a9c2475ab30ff08d4496",
        ),
        # 4,209 color tries and 96 backjumps
        (
            TAIL_8_14,
            (3689, 6756),
            "bad7d964f135fb1290096564cd601656d033753914340d2b0fe58e2a769d0a4a",
        ),
    ],
    ids=["two-planted", "one-planted-tail", "one-planted-8-14"],
)
def test_gadget_graph_coloring_is_frozen(phi, size, digest):
    """Past the plain reference's reach: the first 3-coloring of a gadget
    graph of thousands of vertices, frozen as the SHA-256 of its bytes."""
    g = three_sat_to_coloring(phi).graph
    assert (g.n, len(g.edges)) == size
    colors = is_k_colorable(g, 3)
    assert validate_coloring(g, colors, 3)
    assert hashlib.sha256(bytes(colors)).hexdigest() == digest


def test_one_planted_gadget_colorings_are_frozen():
    """The first 3-colorings of ten one-planted 2,753-vertex gadget graphs,
    frozen together as one SHA-256.  Seven color without backtracking; the
    other three make 15, 7 and 383 backjumps, and an explanation left short
    by one vertex's removers jumps past their first coloring."""
    digest = hashlib.sha256()
    for seed in range(1, 11):
        g = three_sat_to_coloring(planted_3cnf(seed, 8, 12, 1)).graph
        colors = is_k_colorable(g, 3)
        assert validate_coloring(g, colors, 3)
        digest.update(bytes(colors))
    assert digest.hexdigest() == "12aff2c3d99b55386337dd4819e7f2f8e144b62d54451101df1e7dce583b4d6f"


def test_forced_color_step_starts_from_the_try(monkeypatch):
    """The forced-color step is seeded with the vertices that the try's own
    forward check pruned: uncolored neighbors of the vertex just colored,
    each once.  Seeding it from the whole trail finds the same colorings
    at a higher cost, so only the queue shows it."""
    queues = []
    force = coloring._force

    def spy(queue, nbrs, color, *rest):
        common = set.intersection(*(set(nbrs[u]) for u in queue)) if queue else set()
        queues.append(
            len(set(queue)) == len(queue)
            and all(color[u] == -1 for u in queue)
            and (not queue or any(color[w] != -1 for w in common))
        )
        return force(queue, nbrs, color, *rest)

    monkeypatch.setattr(coloring, "_force", spy)
    assert is_k_colorable(classic("grotzsch"), 3) is None
    assert is_k_colorable(three_sat_to_coloring(planted_3cnf(0, 8, 12, 1)).graph, 3)
    assert len(queues) > 100 and all(queues)


def test_extend_coloring_agrees_with_coloring_cnf():
    """Past the numpy oracles' reach: extend_coloring against a direct
    k-coloring CNF (one variable per vertex and color) solved by the SAT
    engine, on graphs of 13-20 vertices with up to four pins."""
    rng = random.Random(13)
    outcomes = set()
    for _ in range(150):
        n = rng.randint(13, 20)
        k = rng.choice((3, 4))
        planted = [rng.randrange(k) for _ in range(n)]
        density = rng.uniform(0.2, 0.6)
        g = Graph(
            n,
            frozenset(
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < (density if planted[u] != planted[v] else density / 8)
            ),
        )
        pinned = rng.sample(range(n), rng.randint(0, 4))
        if rng.random() < 0.5:
            fixed = {v: planted[v] for v in pinned}
        else:
            fixed = {v: rng.randrange(k) for v in pinned}

        def var(v, c):
            return v * k + c + 1

        clauses = [[var(v, c) for c in range(k)] for v in range(n)]
        clauses += [[-var(u, c), -var(v, c)] for u, v in g.edges for c in range(k)]
        clauses += [[var(v, c)] for v, c in fixed.items()]
        expected = is_satisfiable(CnfFormula.make(n * k, clauses)) is not None
        got = extend_coloring(g, k, fixed)
        assert (got is not None) == expected
        if got is not None:
            assert validate_coloring(g, got, k)
            assert all(got[v] == c for v, c in fixed.items())
        outcomes.add((got is not None, len(fixed) > 1))
    assert len(outcomes) == 4  # both verdicts occur, with and without several pins


def test_root_symmetry_break():
    g = classic("petersen")
    colors = is_k_colorable(g, 3)
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    assert colors[order[0]] == 0


def test_deterministic_output():
    g = classic("grotzsch")
    assert is_k_colorable(g, 4) == is_k_colorable(g, 4)


def test_color_count_capped_at_vertex_count():
    """Colors past n are never tried, so a huge k costs no more than k = n."""
    path = Graph.from_edges(500, [(i, i + 1) for i in range(499)])
    want = is_k_colorable(path, 500)
    tracemalloc.start()
    try:
        got = is_k_colorable(path, 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 5_000_000


def test_extend_coloring_respects_clamps():
    g = cycle(4)
    got = extend_coloring(g, 2, {0: 1})
    assert got is not None and got[0] == 1 and validate_coloring(g, got, 2)
    assert extend_coloring(complete_graph(3), 3, {0: 1, 1: 1}) is None
    assert extend_coloring(complete_graph(4), 3, {0: 0}) is None


def test_extend_coloring_validates_clamps():
    g = cycle(4)
    with pytest.raises(ValueError):
        extend_coloring(g, 2, {7: 0})
    with pytest.raises(ValueError):
        extend_coloring(g, 2, {0: 2})


def test_chromatic_numbers():
    assert chromatic_number(classic("petersen")) == 3
    assert chromatic_number(classic("durer")) == 3
    assert chromatic_number(classic("grotzsch")) == 4
    assert chromatic_number(classic("chvatal")) == 4
    assert chromatic_number(complete_graph(5)) == 5
    assert chromatic_number(complete_graph(1)) == 1
    assert chromatic_number(Graph(4, frozenset())) == 1
    assert chromatic_number(cycle(5)) == 3
    with pytest.raises(ValueError):
        chromatic_number(Graph(0, frozenset()))


def test_empty_graph_colorings():
    g = Graph(0, frozenset())
    assert is_k_colorable(g, 1) == ()
    assert extend_coloring(g, 2, {}) == ()
    assert greedy_color_bounded_degree(g, 1) == ()


def test_greedy_examples():
    got = greedy_color_bounded_degree(complete_plus_isolated(3), 3)
    assert not isinstance(got, DegreeWitness)
    assert validate_coloring(complete_plus_isolated(3), got, 3)

    witness = greedy_color_bounded_degree(complete_graph(4), 3)
    assert witness == DegreeWitness(vertex=0, degree=3)

    got = greedy_color_bounded_degree(cycle(5), 3)
    assert not isinstance(got, DegreeWitness)
    assert validate_coloring(cycle(5), got, 3)


def test_greedy_witness_is_least_index():
    g = Graph.from_edges(4, [(1, 2), (1, 3), (2, 3), (0, 1)])
    # vertex 1 has degree 3; it is the least-index vertex of degree >= 2
    got = greedy_color_bounded_degree(g, 2)
    assert got == DegreeWitness(vertex=1, degree=3)


def test_greedy_succeeds_whenever_degree_bounded():
    rng = random.Random(13)
    for _ in range(200):
        g = random_graph(rng)
        k = rng.randint(1, 4)
        got = greedy_color_bounded_degree(g, k)
        if g.n and g.max_degree() >= k:
            assert isinstance(got, DegreeWitness)
            assert got.degree >= k
        else:
            assert validate_coloring(g, got, k)
            # never uses more than max degree + 1 colors
            if g.n:
                assert max(got) <= g.max_degree()


def test_validate_coloring_rejects_bad_input():
    g = complete_graph(3)
    assert validate_coloring(g, (0, 1, 2), 3)
    assert not validate_coloring(g, (0, 1), 3)
    assert not validate_coloring(g, (0, 1, 3), 3)
    assert not validate_coloring(g, (0, 1, 1), 3)
    assert not validate_coloring(g, (0, 1, -1), 3)
