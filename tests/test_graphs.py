"""Graph model, classic instances, transformations, and DIMACS edge I/O."""
import itertools
import random
import sys
import tracemalloc

import pytest

from conftest import TAIL_8_14, assert_graph_checked, count_calls, random_graph
from rescol import graphs
from rescol.coloring import chromatic_number, is_k_colorable
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
from rescol.reductions import decode_coloring, three_sat_to_coloring


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


# (text, the case's name in the test id, the full error message)
_PARSE_ERRORS = [
    ("p edge 3 1\ne 1 5\n", "out of range", "line 2: endpoint out of range 'e 1 5'"),
    ("e 1 2\n", "header", "line 1: edge before header 'e 1 2'"),
    ("p edge 3 0\np edge 3 0\n", "duplicate", "line 2: duplicate header 'p edge 3 0'"),
    ("p cnf 3 1\n", "header", "line 1: malformed header 'p cnf 3 1'"),
    ("p edge 3 1\ne 2 2\n", "self-loop", "line 2: self-loop 'e 2 2'"),
    ("p edge 3 1\nxyzzy\n", "unrecognized", "line 2: unrecognized line 'xyzzy'"),
    ("c nothing else\n", "header", "missing 'p edge' header"),
    ("p edge 3 1\ne 1\n", "malformed", "line 2: malformed edge line 'e 1'"),
    ("p edge 3 x\n", "malformed header", "line 1: malformed header 'p edge 3 x'"),
    ("p edge -1 0\n", "negative vertex count", "line 1: negative vertex count 'p edge -1 0'"),
    ("p edge 3 -1\ne 1 2\n", "line 1: negative edge count", "line 1: negative edge count 'p edge 3 -1'"),
    ("p edge 3 1\ne 1 x\n", "malformed edge line", "line 2: malformed edge line 'e 1 x'"),
    # the tokens of the two lines would regroup into the edges (1, 2) and (3, 4)
    ("p edge 4 2\ne 1 2 e\n3 4\n", "line-boundary trap", "line 2: malformed edge line 'e 1 2 e'"),
]


def _path_text(*inserts: tuple[int, str]) -> str:
    """The path on 400 vertices in DIMACS edge format, its 399 edge lines
    on lines 2..400, with each (line number, line) of inserts put in at
    that line number, in order."""
    lines = ["p edge 400 399", *(f"e {v} {v + 1}" for v in range(1, 400))]
    for lineno, line in inserts:
        lines.insert(lineno - 1, line)
    return "\n".join(lines) + "\n"


# (the case's name, its text, the full error message): errors past the
# first default block of 256 lines, in blocks the bulk step rejects
_LONG_PARSE_ERRORS = [
    ("past the first block", _path_text((300, "e 5 401")), "line 300: endpoint out of range 'e 5 401'"),
    (
        "mid-body comment",
        _path_text((270, "c a comment"), (280, "e 7 7")),
        "line 280: self-loop 'e 7 7'",
    ),
    (
        "mid-body blank line",
        _path_text((270, ""), (271, "e 0 2")),
        "line 271: endpoint out of range 'e 0 2'",
    ),
    (
        "leading whitespace",
        _path_text((290, "   e 1 x\t")),
        "line 290: malformed edge line 'e 1 x'",
    ),
    (
        "line-boundary trap past the first block",
        _path_text((300, "e 1 2 e"), (301, "3 4")),
        "line 300: malformed edge line 'e 1 2 e'",
    ),
    (
        "second header past the first block",
        _path_text((380, "p edge 400 399")),
        "line 380: duplicate header 'p edge 400 399'",
    ),
    ("last line", _path_text()[:-1] + "0\n", "line 400: endpoint out of range 'e 399 4000'"),
]


@pytest.mark.parametrize(
    "text,message",
    [pytest.param(text, message, id=f"{text}-{name}") for text, name, message in _PARSE_ERRORS]
    + [pytest.param(text, message, id=name) for name, text, message in _LONG_PARSE_ERRORS],
)
def test_parse_errors_name_the_line(text, message):
    with pytest.raises(ParseError) as caught:
        parse_graph(text)
    assert str(caught.value) == message


def _reference_parse(text: str) -> Graph:
    """The line walker parse_graph replaced: one line at a time, every error
    naming the offending line, the graph built by the checked constructor."""
    n = None
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise ParseError(f"line {lineno}: duplicate header {line!r}")
            if len(fields) != 4 or fields[1] != "edge":
                raise ParseError(f"line {lineno}: malformed header {line!r}")
            try:
                n, m = int(fields[2]), int(fields[3])
            except ValueError:
                raise ParseError(f"line {lineno}: malformed header {line!r}") from None
            if n < 0:
                raise ParseError(f"line {lineno}: negative vertex count {line!r}")
            if m < 0:
                raise ParseError(f"line {lineno}: negative edge count {line!r}")
        elif fields[0] == "e":
            if n is None:
                raise ParseError(f"line {lineno}: edge before header {line!r}")
            if len(fields) != 3:
                raise ParseError(f"line {lineno}: malformed edge line {line!r}")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError(f"line {lineno}: malformed edge line {line!r}") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"line {lineno}: endpoint out of range {line!r}")
            if u == v:
                raise ParseError(f"line {lineno}: self-loop {line!r}")
            edges.add(normalize_edge(u - 1, v - 1))
        else:
            raise ParseError(f"line {lineno}: unrecognized line {line!r}")
    if n is None:
        raise ParseError("missing 'p edge' header")
    return Graph(n, frozenset(edges))


_DEFAULT_BLOCK_LINES = graphs._BLOCK_LINES
_LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85")
# int() reads the first four as -0, 0, 1 and 10, and U+0661 (Arabic-Indic
# one) as 1; the rest are no integers at all, and the last three carry the
# bulk step's line marker
_ODD_TOKENS = ("-0", "00", "+1", "1_0", "١", "x", "c", "p", "e", "|e", "|", "e|")
_FILLERS = ("", " ", "\t", "c", "c a comment", " c indented", "xyzzy", "edge 1 2")


def _edge_lines(rng: random.Random, n: int) -> list[str]:
    """One edge line, mostly well formed, or two lines whose tokens regroup
    into edge lines across the line break."""
    top = max(n, 1)
    fields = ["e", *map(str, rng.sample(range(1, n + 1), 2) if n > 1 else (1, 1))]
    roll = rng.random()
    if roll < 0.02:  # an endpoint out of range
        fields[rng.randint(1, 2)] = str(rng.choice((0, -1, n + 1)))
    elif roll < 0.04:
        fields[2] = fields[1]  # a self-loop
    elif roll < 0.05:
        del fields[rng.randint(1, 2)]
    elif roll < 0.06:
        fields.append(rng.choice(("1", "e")))
    elif roll < 0.07:
        fields[rng.randrange(3)] = rng.choice(_ODD_TOKENS)
    elif roll < 0.08:  # the line-boundary trap
        return [" ".join(fields + ["e"]), f"{rng.randint(1, top)} {rng.randint(1, top)}"]
    return [rng.choice(("", "", "", " ", "\t")) + " ".join(fields) + rng.choice(("", "", " "))]


def _random_edge_text(rng: random.Random) -> str:
    """A DIMACS-edge-like text: mostly well formed, with seeded damage."""
    n = rng.randint(0, 1) if rng.random() < 0.05 else rng.randint(2, 9)
    counts = [str(n), str(rng.randint(0, 12))]
    if rng.random() < 0.05:
        counts[rng.randrange(2)] = rng.choice(_ODD_TOKENS + ("-1",))
    header = rng.choice(("", " ")) + "p " + rng.choice(("edge",) * 30 + ("cnf",)) + " " + " ".join(counts)
    lines = [rng.choice(_FILLERS if rng.random() < 0.1 else _FILLERS[:6]) for _ in range(rng.choice((0, 0, 1, 2)))]
    if rng.random() < 0.97:
        lines.append(header + rng.choice(("", " ", "\t")))
    for _ in range(rng.randint(0, 8)):
        lines += _edge_lines(rng, n)
        if rng.random() < 0.05:
            lines.append(rng.choice(_FILLERS))
    if rng.random() < 0.05:
        lines.insert(rng.randint(0, len(lines)), header)
    text = "".join(line + rng.choice(_LINE_BREAKS) for line in lines)
    return text if rng.random() < 0.8 else text.rstrip("\r\n")


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


_EDGE_ERRORS = {"endpoint out of range", "self-loop", "malformed edge line", "unrecognized line", "duplicate header"}
_HEADER_ERRORS = {
    "edge before header", "malformed header", "negative vertex count", "negative edge count",
    "missing 'p edge' header", "unrecognized line",
}


def _spy_on_blocks(monkeypatch) -> list[bool]:
    """Patch graphs._read_block to record, per call, whether the bulk step
    rejected the block."""
    rejected: list[bool] = []
    read_block = graphs._read_block

    def spy(lines, n):
        block = read_block(lines, n)
        rejected.append(block is None)
        return block

    monkeypatch.setattr(graphs, "_read_block", spy)
    return rejected


def test_parse_matches_line_walker(monkeypatch):
    """parse_graph and the line walker agree on every text, graph or error,
    and parse_graph builds graphs the checked constructor accepts.

    Small blocks put a block boundary every few lines.  Every error a line
    can raise is met in a block the bulk step rejected; the rest are met
    before or at the header, where no block is read.
    """
    rng = random.Random(27)
    rejected = _spy_on_blocks(monkeypatch)
    tally = {"read whole in bulk": 0, "some block walked": 0}
    seen: dict[str, set[str]] = {"in a rejected block": set(), "before any block": set()}
    for _ in range(20_000):
        text = _random_edge_text(rng)
        monkeypatch.setattr(graphs, "_BLOCK_LINES", rng.choice((1, 2, 3, _DEFAULT_BLOCK_LINES)))
        rejected.clear()
        expected = _outcome(_reference_parse, text)
        got = _outcome(parse_graph, text)
        assert got == expected, repr(text)
        if isinstance(got, Graph):
            assert_graph_checked(got)
            if rejected:
                tally["some block walked" if any(rejected) else "read whole in bulk"] += 1
        else:
            kinds = {kind for kind in _EDGE_ERRORS | _HEADER_ERRORS if kind in got}
            seen["in a rejected block" if any(rejected) else "before any block"] |= kinds
    assert seen == {"in a rejected block": _EDGE_ERRORS, "before any block": _HEADER_ERRORS}, seen
    assert min(tally.values()) > 2_000, tally


def _long_edge_text(rng: random.Random) -> str:
    """A DIMACS edge text longer than one default block, with comments,
    blank lines or one piece of damage placed anywhere in its body."""
    n = rng.randint(2, 40)
    lines = []
    while len(lines) <= rng.randint(_DEFAULT_BLOCK_LINES, 4 * _DEFAULT_BLOCK_LINES):
        u, v = rng.sample(range(1, n + 1), 2)
        lines.append(f"e {u} {v}")
    for _ in range(rng.randint(0, 3)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(_FILLERS[:6]))
    if rng.random() < 0.6:
        at = rng.randint(0, len(lines))
        lines[at:at] = _edge_lines(rng, n)
    head = [rng.choice(("c long", "", "c")) for _ in range(rng.randint(0, 2))]
    breaks = rng.choice((("\n",), _LINE_BREAKS))
    return "".join(line + rng.choice(breaks) for line in [*head, f"p edge {n} {len(lines)}", *lines])


def test_parse_long_texts_match_line_walker(monkeypatch):
    """Texts of several default blocks agree with the line walker, with the
    comments or damage landing mid-body, in a block the bulk step rejects
    between blocks it takes."""
    assert graphs._BLOCK_LINES == _DEFAULT_BLOCK_LINES
    rng = random.Random(28)
    rejected = _spy_on_blocks(monkeypatch)
    graphs_read = taken_around_a_walk = 0
    for _ in range(200):
        text = _long_edge_text(rng)
        rejected.clear()
        expected = _outcome(_reference_parse, text)
        assert _outcome(parse_graph, text) == expected, repr(text)
        graphs_read += isinstance(expected, Graph)
        taken_around_a_walk += True in rejected and False in rejected
    assert graphs_read > 100 and taken_around_a_walk > 50, (graphs_read, taken_around_a_walk)


def test_parse_memory_within_line_walker():
    """Reading the 3,689-vertex gadget graph's text peaks at no more than
    1.2 times the line walker's traced memory."""
    g = three_sat_to_coloring(TAIL_8_14).graph
    text = serialize_graph(g)
    peaks = {}
    for parse in (parse_graph, _reference_parse):
        tracemalloc.start()
        try:
            assert parse(text) == g
            peaks[parse.__name__] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["parse_graph"] <= 1.2 * peaks["_reference_parse"], peaks


def test_library_graphs_skip_the_pair_check(monkeypatch):
    """A graph is checked once, where it enters the library: building the
    3,689-vertex gadget graph, writing it, reading it back, coloring it
    and decoding the coloring runs the constructor's check on no graph.
    The public constructors and the reference parser still run it."""
    calls = count_calls(monkeypatch, Graph, "__post_init__")
    gg = three_sat_to_coloring(TAIL_8_14)
    g = parse_graph(serialize_graph(gg.graph))
    assert decode_coloring(gg, is_k_colorable(g, 3))
    assert calls == [0]
    _reference_parse("p edge 2 1\ne 1 2\n")
    assert calls == [1]
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, frozenset({(0, 2)}))
    assert Graph.from_edges(2, [(1, 0)]) == complete_graph(2)
    assert calls == [4]


def test_from_edges_edge_set_is_sized_like_a_copied_set():
    """from_edges collects its pairs into a set before freezing them, so
    the 3,689-vertex gadget graph's edge set takes no more memory than the
    builder's own (a frozenset grown from a generator takes twice as much)."""
    g = three_sat_to_coloring(TAIL_8_14).graph
    rebuilt = Graph.from_edges(g.n, sorted(g.edges))
    assert rebuilt == g
    assert sys.getsizeof(rebuilt.edges) == sys.getsizeof(g.edges)


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
        full = add_edges(g, non_edges(g))
        assert full == complete_graph(g.n)
        assert_graph_checked(full)


def test_apex_extension():
    assert apex_extension(Graph(1, frozenset())) == complete_graph(2)
    assert apex_extension(complete_graph(3)) == complete_graph(4)
    big = apex_extension(classic("petersen"))
    assert (big.n, len(big.edges)) == (11, 25)
    rng = random.Random(4)
    for _ in range(30):
        g = random_graph(rng)
        ext = apex_extension(g)
        assert_graph_checked(ext)
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
