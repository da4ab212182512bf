"""Simple undirected graphs on vertices 0..n-1, classic instances, and DIMACS I/O.

Graphs are immutable.  The set of (low, high) edge pairs answers edge
queries; each graph also caches an ascending tuple of neighbors per vertex,
which the coloring engine walks so a step costs the vertex's degree, not n.
A graph is checked once, where it enters the library: ``Graph(...)`` and
``Graph.from_edges`` check every pair, while the graphs the library makes
from pairs it has already checked (``parse_graph``, ``add_edges``,
``apex_extension`` and the reductions' gadget builder) skip that check.
``_read_dimacs`` holds the one DIMACS reading policy, which ``parse_graph``
here and ``rescol.sat.parse_cnf`` share: the lines up to the header one at
a time, then blocks of lines in bulk, walking line by line only a block the
format's bulk step rejects, so every error still names its line.
The package's two reported errors live here, where every module can import
them: InputError (exit 2 in the command line) and BudgetExceededError (exit 3).
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable


class InputError(ValueError):
    """An invalid argument or input text from the caller; any other
    ValueError raised by rescol is an internal error."""


class ParseError(InputError):
    """Malformed input text; the message names the offending line."""


class BudgetExceededError(RuntimeError):
    """An output would exceed the configured clause or vertex budget."""


# lines read in bulk at a time after the header
_BLOCK_LINES = 256


def _read_dimacs(
    text: str,
    kind: str,
    negative: tuple[str, str],
    read_block: Callable[[list[str], int, int], bool],
    read_line: Callable[[int, str, list[str], tuple[int, int] | None], bool | None],
) -> tuple[tuple[int, int], tuple[int, str]]:
    """Read DIMACS text in one pass and return the counts of its
    "p <kind> a b" header, and the number and stripped text of the last line
    read that is neither blank nor a comment; the format's own lines go to
    the two readers.

    Blank lines and lines starting with "c" are skipped.  Up to and
    including the header the lines are walked one at a time.  After it,
    each block of ``_BLOCK_LINES`` lines goes whole to
    ``read_block(lines, a, b)``, which takes it and returns True, or returns
    False having changed nothing.  A block it rejects is walked line by
    line, so every error names the offending line.  Each walked line other
    than a header goes to ``read_line(lineno, line, fields, counts)``, with
    counts None before the header; when it returns True the input ends
    there, and that line is not counted as read.  ``read_block`` takes no
    block that holds a comment, so a taken block's last non-blank line is
    the last line read.  A second header, a header of another kind or with
    counts that are no integers, and a negative count (reported with the
    matching message of ``negative``) raise ParseError, as does a missing
    header.
    """
    lines = text.splitlines()
    counts = last = None
    start, end = 0, len(lines)  # end drops to the line where read_line ends the input
    while start < end:
        stop = start + (1 if counts is None else _BLOCK_LINES)
        if counts is not None and read_block(lines[start:stop], *counts):
            last = next((i for i in range(min(stop, end), start, -1) if lines[i - 1].strip()), last)
            start = stop
            continue
        for lineno in range(start + 1, min(stop, end) + 1):
            line = lines[lineno - 1].strip()
            if not line or line.startswith("c"):
                continue
            fields = line.split()
            if fields[0] == "p":
                if counts is not None:
                    raise ParseError(f"line {lineno}: duplicate header {line!r}")
                if len(fields) != 4 or fields[1] != kind:
                    raise ParseError(f"line {lineno}: malformed header {line!r}")
                try:
                    counts = int(fields[2]), int(fields[3])
                except ValueError:
                    raise ParseError(f"line {lineno}: malformed header {line!r}") from None
                for count, message in zip(counts, negative):
                    if count < 0:
                        raise ParseError(f"line {lineno}: {message} {line!r}")
            elif read_line(lineno, line, fields, counts):
                end = lineno - 1
                break
            last = lineno
        start = stop
    if counts is None:
        raise ParseError(f"missing 'p {kind}' header")
    return counts, (last, lines[last - 1].strip())


def normalize_edge(u: int, v: int) -> tuple[int, int]:
    """Return the pair ordered (low, high). Self-loops are rejected."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph: vertex count plus a set of (u, v) pairs, u < v.

    A graph is checked once, where it enters the library: the constructor
    and ``from_edges`` reject a negative ``n`` and every pair that is not
    ordered or not in range.  The graphs ``parse_graph`` has range-checked
    itself, the gadget builder's graphs, and those ``add_edges`` and
    ``apex_extension`` derive from checked graphs are built by ``_built``,
    which skips that per-edge loop.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")

    @classmethod
    def _built(cls, n: int, edges: frozenset[tuple[int, int]]) -> Graph:
        """A graph whose pairs are already known to satisfy 0 <= u < v < n,
        made without the constructor's check."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", edges)
        return g

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
        """Build a graph, normalizing pair order and dropping duplicates."""
        return cls(n, frozenset({normalize_edge(u, v) for u, v in pairs}))

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Ascending tuple of neighbors per vertex."""
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        for vs in nbrs:
            vs.sort()
        return tuple(map(tuple, nbrs))

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.edges or (v, u) in self.edges

    def degree(self, v: int) -> int:
        """Number of neighbors of v; InputError unless 0 <= v < n."""
        if not 0 <= v < self.n:
            raise InputError(f"vertex {v} out of range for n={self.n}")
        return len(self.neighbors[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self.neighbors))

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)


def _read_block(lines: list[str], n: int) -> list[tuple[int, int]] | None:
    """The ordered 0-indexed pairs of a block of lines that are all edge
    lines "e u v" with 1 <= u, v <= n and u != v, or None.

    Every line but the first gets a " |" marker, so a line is read as its
    tokens "e" (or "|e"), u and v only if it has exactly those: a token of
    one line never pairs with a token of the next.
    """
    tokens = " |".join(lines).split()
    if len(tokens) != 3 * len(lines) or tokens[0] != "e" or tokens[3::3].count("|e") != len(lines) - 1:
        return None
    try:
        us = list(map(int, tokens[1::3]))
        vs = list(map(int, tokens[2::3]))
    except ValueError:
        return None
    if min(min(us), min(vs)) < 1 or max(max(us), max(vs)) > n or any(map(operator.eq, us, vs)):
        return None
    return [(u - 1, v - 1) if u < v else (v - 1, u - 1) for u, v in zip(us, vs)]


def parse_graph(text: str) -> Graph:
    """Read a DIMACS edge-format graph ("p edge n m" header, "e u v" lines, 1-indexed).

    Comment lines starting with "c" and blank lines are skipped.  Duplicate
    edges are deduplicated.  Malformed headers, negative counts, endpoints
    out of range, and self-loops raise ParseError naming the line.

    ``_read_dimacs`` reads the text, with ``_read_block`` as its bulk step
    and the "e"-line rule below for the lines it walks.  The graph is built
    without the constructor's check, which this reading has already made.
    """
    edges: set[tuple[int, int]] = set()

    def read_block(lines: list[str], n: int, _: int) -> bool:
        pairs = _read_block(lines, n)
        edges.update(pairs or ())
        return pairs is not None

    def read_line(lineno: int, line: str, fields: list[str], counts: tuple[int, int] | None) -> None:
        if fields[0] != "e":
            raise ParseError(f"line {lineno}: unrecognized line {line!r}")
        if counts is None:
            raise ParseError(f"line {lineno}: edge before header {line!r}")
        if len(fields) != 3:
            raise ParseError(f"line {lineno}: malformed edge line {line!r}")
        try:
            u, v = int(fields[1]), int(fields[2])
        except ValueError:
            raise ParseError(f"line {lineno}: malformed edge line {line!r}") from None
        if not (1 <= u <= counts[0] and 1 <= v <= counts[0]):
            raise ParseError(f"line {lineno}: endpoint out of range {line!r}")
        if u == v:
            raise ParseError(f"line {lineno}: self-loop {line!r}")
        edges.add((u - 1, v - 1) if u < v else (v - 1, u - 1))

    (n, _), _ = _read_dimacs(text, "edge", ("negative vertex count", "negative edge count"), read_block, read_line)
    return Graph._built(n, frozenset(edges))


def serialize_graph(g: Graph) -> str:
    """Write DIMACS edge format with edges sorted; parse(serialize(g)) == g."""
    lines = [f"p edge {g.n} {len(g.edges)}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def _petersen() -> Graph:
    # Vertices are the 2-element subsets of {0..4}; edges join disjoint subsets.
    pairs = list(itertools.combinations(range(5), 2))
    index = {p: i for i, p in enumerate(pairs)}
    edges = [
        (index[a], index[b])
        for a, b in itertools.combinations(pairs, 2)
        if not (set(a) & set(b))
    ]
    return Graph.from_edges(10, edges)


def _durer() -> Graph:
    # Generalized Petersen graph on (6, 2): outer hexagon 0..5, inner 6..11.
    edges = []
    for i in range(6):
        edges.append((i, (i + 1) % 6))
        edges.append((i, 6 + i))
        edges.append((6 + i, 6 + (i + 2) % 6))
    return Graph.from_edges(12, edges)


def _grotzsch() -> Graph:
    # Mycielski construction applied to the 5-cycle 0..4: shadows 5..9, hub 10.
    cycle = [(i, (i + 1) % 5) for i in range(5)]
    edges = list(cycle)
    for u, v in cycle:
        edges.append((5 + u, v))
        edges.append((u, 5 + v))
    edges.extend((5 + i, 10) for i in range(5))
    return Graph.from_edges(11, edges)


# Published adjacency list (upper triangle, 0-indexed): 12 vertices, 24 edges,
# 4-regular, triangle-free with girth 4.
_CHVATAL_EDGES = (
    (0, 1), (0, 4), (0, 6), (0, 9),
    (1, 2), (1, 5), (1, 7),
    (2, 3), (2, 6), (2, 8),
    (3, 4), (3, 7), (3, 9),
    (4, 5), (4, 8),
    (5, 10), (5, 11),
    (6, 10), (6, 11),
    (7, 8), (7, 11),
    (8, 10),
    (9, 10), (9, 11),
)


def _chvatal() -> Graph:
    return Graph.from_edges(12, _CHVATAL_EDGES)


def _clebsch() -> Graph:
    # The folded 5-cube: 4-bit words, adjacent when they differ in exactly one
    # bit or in all four.  16 vertices, 40 edges, 5-regular, triangle-free.
    pairs = itertools.combinations(range(16), 2)
    return Graph.from_edges(16, [(u, v) for u, v in pairs if u ^ v in (1, 2, 4, 8, 15)])


def complete_graph(k: int) -> Graph:
    if k < 1:
        raise InputError("complete(k) requires k >= 1")
    return Graph.from_edges(k, itertools.combinations(range(k), 2))


def complete_minus_matching(k: int) -> Graph:
    """The complete graph on k + 2 vertices with edges (0,1) and (2,3) removed."""
    if k < 2:
        raise InputError("complete_minus_matching(k) requires k >= 2")
    edges = set(itertools.combinations(range(k + 2), 2))
    edges -= {(0, 1), (2, 3)}
    return Graph.from_edges(k + 2, edges)


def complete_plus_isolated(k: int) -> Graph:
    """The complete graph on vertices 0..k-1 plus the isolated vertex k."""
    if k < 1:
        raise InputError("complete_plus_isolated(k) requires k >= 1")
    return Graph.from_edges(k + 1, itertools.combinations(range(k), 2))


_FIXED_CLASSICS = {
    "petersen": _petersen,
    "durer": _durer,
    "grotzsch": _grotzsch,
    "chvatal": _chvatal,
    "clebsch": _clebsch,
}

_PARAMETRIC_CLASSICS = {
    "complete": complete_graph,
    "complete_minus_matching": complete_minus_matching,
    "complete_plus_isolated": complete_plus_isolated,
}

CLASSIC_NAMES = tuple(sorted(_FIXED_CLASSICS)) + tuple(sorted(_PARAMETRIC_CLASSICS))


def classic(name: str, k: int | None = None) -> Graph:
    """Build a named graph; parametric families (complete*) require k."""
    if name in _FIXED_CLASSICS:
        if k is not None:
            raise InputError(f"{name} takes no parameter")
        return _FIXED_CLASSICS[name]()
    if name in _PARAMETRIC_CLASSICS:
        if k is None:
            raise InputError(f"{name} requires a parameter k")
        return _PARAMETRIC_CLASSICS[name](k)
    raise InputError(f"unknown classic graph {name!r}; choices: {', '.join(CLASSIC_NAMES)}")


def add_edges(g: Graph, pairs: Iterable[tuple[int, int]]) -> Graph:
    """Return g plus the given pairs; every pair must be a current non-edge."""
    new = set()
    for u, v in pairs:
        e = normalize_edge(u, v)
        if not (0 <= e[0] < e[1] < g.n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={g.n}")
        if e in g.edges or e in new:
            raise ValueError(f"({u}, {v}) is already an edge")
        new.add(e)
    return Graph._built(g.n, g.edges | new)


def apex_extension(g: Graph) -> Graph:
    """Return g plus one new vertex adjacent to every existing vertex."""
    return Graph._built(g.n + 1, g.edges | {(v, g.n) for v in range(g.n)})


def non_edges(g: Graph) -> tuple[tuple[int, int], ...]:
    """All unordered vertex pairs that are not edges, in sorted order."""
    return tuple(p for p in itertools.combinations(range(g.n), 2) if p not in g.edges)
