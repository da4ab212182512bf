"""Graph model, classic instances, transformations, and DIMACS edge I/O."""
import itertools
import random

import pytest

from conftest import random_graph
from rescol.coloring import chromatic_number
from rescol.graphs import (
    CLASSIC_NAMES,
    Graph,
    InputError,
    ParseError,
    add_edges,
    apex_extension,
    classic,
    complete_graph,
    complete_minus_matching,
    complete_plus_isolated,
    non_edges,
    normalize_edge,
    parse_graph,
    serialize_graph,
)


def test_normalize_edge_orders_endpoints():
    assert normalize_edge(5, 2) == (2, 5)
    assert normalize_edge(2, 5) == (2, 5)


def test_normalize_edge_rejects_self_loop():
    with pytest.raises(ValueError):
        normalize_edge(3, 3)


def test_graph_validates_endpoints():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(0, 3)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(-1, 0)}))
    with pytest.raises(ValueError):
        Graph(2, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        Graph(2, frozenset({(1, 0)}))  # stored pairs must be ordered


def test_from_edges_normalizes_and_dedupes():
    g = Graph.from_edges(3, [(2, 0), (0, 2), (1, 2)])
    assert g.edges == frozenset({(0, 2), (1, 2)})


def test_has_edge_and_neighbors_match_edges():
    rng = random.Random(1)
    for _ in range(50):
        g = random_graph(rng)
        for u in range(g.n):
            for v in range(g.n):
                expected = (min(u, v), max(u, v)) in g.edges
                assert g.has_edge(u, v) == expected
            assert g.neighbors[u] == tuple(v for v in range(g.n) if g.has_edge(u, v))
    g = classic("petersen")
    for u, v in [(-1, 0), (0, -1), (10, 1), (1, 10), (-1, -1), (10, 10), (0, 0)]:
        assert g.has_edge(u, v) is False


def test_degree_helpers():
    g = classic("petersen")
    assert g.degrees() == (3,) * 10
    assert g.max_degree() == 3
    assert g.degree(0) == 3
    for v in (-1, 10):
        with pytest.raises(InputError, match="out of range"):
            g.degree(v)


def test_parse_triangle():
    g = parse_graph("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    assert g == Graph(3, frozenset({(0, 1), (1, 2), (0, 2)}))


def test_parse_isolated_vertices():
    g = parse_graph("p edge 2 0\n")
    assert g.n == 2 and not g.edges


def test_parse_skips_comments_and_blank_lines():
    g = parse_graph("c a comment\n\np edge 2 1\nc more\ne 1 2\n")
    assert g.edges == frozenset({(0, 1)})


def test_parse_dedupes_repeated_edges():
    g = parse_graph("p edge 3 3\ne 1 2\ne 2 1\ne 1 3\n")
    assert g.edges == frozenset({(0, 1), (0, 2)})


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("p edge 3 1\ne 1 5\n", "out of range"),
        ("e 1 2\n", "header"),
        ("p edge 3 0\np edge 3 0\n", "duplicate"),
        ("p cnf 3 1\n", "header"),
        ("p edge 3 1\ne 2 2\n", "self-loop"),
        ("p edge 3 1\nxyzzy\n", "unrecognized"),
        ("c nothing else\n", "header"),
        ("p edge 3 1\ne 1\n", "malformed"),
        ("p edge 3 x\n", "malformed header"),
        ("p edge -1 0\n", "negative vertex count"),
        ("p edge 3 -1\ne 1 2\n", "line 1: negative edge count"),
        ("p edge 3 1\ne 1 x\n", "malformed edge line"),
    ],
)
def test_parse_errors_name_the_line(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert fragment in str(err.value)


def test_serialize_sorted_one_indexed():
    g = Graph.from_edges(3, [(1, 2), (0, 2)])
    assert serialize_graph(g) == "p edge 3 2\ne 1 3\ne 2 3\n"


def test_round_trip_random_graphs():
    rng = random.Random(2)
    for _ in range(100):
        g = random_graph(rng, max_n=9)
        assert parse_graph(serialize_graph(g)) == g


def test_petersen_shape():
    g = classic("petersen")
    assert (g.n, len(g.edges)) == (10, 15)
    assert set(g.degrees()) == {3}


def test_durer_shape():
    g = classic("durer")
    assert (g.n, len(g.edges)) == (12, 18)
    assert set(g.degrees()) == {3}


def test_grotzsch_shape():
    g = classic("grotzsch")
    assert (g.n, len(g.edges)) == (11, 20)
    assert sorted(g.degrees()) == [3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 5]


def test_chvatal_shape_and_girth_four():
    g = classic("chvatal")
    assert (g.n, len(g.edges)) == (12, 24)
    assert set(g.degrees()) == {4}
    # girth 4: triangle-free but contains a 4-cycle
    for u, v in g.edges:
        assert set(g.neighbors[u]).isdisjoint(g.neighbors[v])
    has_square = any(
        g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d) and g.has_edge(d, a)
        for a, b, c, d in itertools.permutations(range(g.n), 4)
        if a < b and a < c and a < d
    )
    assert has_square


def test_clebsch_shape():
    g = classic("clebsch")
    assert (g.n, len(g.edges)) == (16, 40)
    assert set(g.degrees()) == {5}
    # triangle-free
    assert all(set(g.neighbors[u]).isdisjoint(g.neighbors[v]) for u, v in g.edges)
    assert chromatic_number(g) == 4


def test_complete_families():
    assert classic("complete", 4) == complete_graph(4)
    assert len(complete_graph(4).edges) == 6
    g = complete_minus_matching(3)
    assert (g.n, len(g.edges)) == (5, 8)
    assert not g.has_edge(0, 1) and not g.has_edge(2, 3)
    g = complete_plus_isolated(3)
    assert (g.n, len(g.edges)) == (4, 3)
    assert g.degree(3) == 0


def test_classic_dispatch_errors():
    with pytest.raises(ValueError):
        classic("moebius")
    with pytest.raises(ValueError):
        classic("complete")  # parametric graph needs its size
    with pytest.raises(ValueError):
        classic("complete", 0)
    with pytest.raises(ValueError):
        classic("complete_minus_matching", 1)
    assert set(CLASSIC_NAMES) >= {
        "petersen",
        "durer",
        "grotzsch",
        "chvatal",
        "clebsch",
        "complete",
        "complete_minus_matching",
        "complete_plus_isolated",
    }


def test_add_edges_examples():
    nearly = Graph.from_edges(3, [(0, 2), (1, 2)])
    assert add_edges(nearly, [(0, 1)]) == complete_graph(3)
    g = classic("petersen")
    assert add_edges(g, []) == g
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert add_edges(path, [(0, 2)]) == complete_graph(3)


def test_add_edges_rejects_existing_edge_and_bad_pairs():
    g = complete_graph(3)
    with pytest.raises(ValueError, match="already an edge"):
        add_edges(g, [(0, 1)])
    with pytest.raises(ValueError):
        add_edges(g, [(0, 3)])
    with pytest.raises(ValueError):
        add_edges(g, [(1, 1)])


def test_add_all_non_edges_completes_graph():
    rng = random.Random(3)
    for _ in range(30):
        g = random_graph(rng)
        assert add_edges(g, non_edges(g)) == complete_graph(g.n)


def test_apex_extension():
    assert apex_extension(Graph(1, frozenset())) == complete_graph(2)
    assert apex_extension(complete_graph(3)) == complete_graph(4)
    big = apex_extension(classic("petersen"))
    assert (big.n, len(big.edges)) == (11, 25)
    rng = random.Random(4)
    for _ in range(30):
        g = random_graph(rng)
        ext = apex_extension(g)
        assert ext.degree(g.n) == g.n
        for v in range(g.n):
            assert ext.degree(v) == g.degree(v) + 1


def test_non_edges_sorted_and_complete():
    assert non_edges(complete_graph(4)) == ()
    assert len(non_edges(classic("petersen"))) == 30
    assert len(non_edges(classic("durer"))) == 48
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(rng)
        ne = non_edges(g)
        assert list(ne) == sorted(ne)
        assert len(ne) == g.n * (g.n - 1) // 2 - len(g.edges)
        assert not set(ne) & g.edges
