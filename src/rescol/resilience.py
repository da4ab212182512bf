"""Resilience of graph colorings under edge additions.

A graph is r-resiliently k-colorable when it stays k-colorable after any r
new edges are added.  The engine enumerates non-edge subsets in lexicographic
order over the sorted non-edge list and reports the first failing subset as
the witness, so verdicts are deterministic and independent of the optional
process parallelism.

The scan keeps a small cache of proper colorings found so far, each stored as
a bitmask over the non-edge list marking which candidate edges it already
colors properly.  A subset covered by a cached coloring needs no new search;
only cache misses run the exact solver.  Cache hits can never flip a verdict:
a cached coloring that covers a subset is itself a proper coloring of the
augmented graph.  The SAT restriction scan shares the same cache for its
satisfying models.
"""
from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import comb

from .coloring import _solve_masks
from .graphs import Graph, non_edges

SATURATED = "saturated"

_CACHE_LIMIT = 128
_MIN_CHUNK = 4096


@dataclass(frozen=True)
class GraphResilienceVerdict:
    resilient: bool
    witness: tuple[tuple[int, int], ...] | None
    r: int
    subsets_checked: int


class _CertificateCache:
    """Most-recently-hit list of certificate bitmasks, at most _CACHE_LIMIT.

    A certificate (a coloring, a satisfying model) is stored as the mask of
    the universe elements it covers; a query mask is covered when it is a
    subset of some stored mask.
    """

    def __init__(self) -> None:
        self.masks: list[int] = []

    def covers(self, subset_mask: int) -> bool:
        masks = self.masks
        for i, good in enumerate(masks):
            if subset_mask & ~good == 0:
                if i:
                    masks.insert(0, masks.pop(i))
                return True
        return False

    def add(self, mask: int) -> None:
        self.masks.insert(0, mask)
        del self.masks[_CACHE_LIMIT:]


def _solve_augmented(g: Graph, k: int, pairs: tuple[tuple[int, int], ...]) -> list[int] | None:
    adj = list(g.adjacency)
    for u, v in pairs:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return _solve_masks(g.n, adj, k)


def _scan_range(
    g: Graph,
    k: int,
    candidates: tuple[tuple[int, int], ...],
    size: int,
    start: int,
    stop: int,
    cache: _CertificateCache | None = None,
) -> tuple[int, tuple[tuple[int, int], ...]] | None:
    """Check subset ranks [start, stop); return (rank, subset) of the first
    non-k-colorable augmentation, or None if all pass."""
    if cache is None:
        cache = _CertificateCache()
    m = len(candidates)
    combos = _combinations_from(m, size, start)
    for rank in range(start, stop):
        subset = next(combos)
        mask = 0
        for i in subset:
            mask |= 1 << i
        if cache.covers(mask):
            continue
        chosen = tuple(candidates[i] for i in subset)
        colors = _solve_augmented(g, k, chosen)
        if colors is None:
            return rank, chosen
        good = 0
        for i, (u, v) in enumerate(candidates):
            if colors[u] != colors[v]:
                good |= 1 << i
        cache.add(good)
    return None


def _combinations_from(m: int, size: int, start: int):
    """Iterator over size-subsets of range(m) in lexicographic order,
    beginning at the given rank."""
    if start == 0:
        return iter(itertools.combinations(range(m), size))
    return _unranked_combinations(m, size, start)


def _unranked_combinations(m: int, size: int, rank: int):
    combo = _unrank_combination(m, size, rank)
    while True:
        yield tuple(combo)
        # advance to the lexicographic successor
        i = size - 1
        while i >= 0 and combo[i] == m - size + i:
            i -= 1
        if i < 0:
            return
        combo[i] += 1
        for j in range(i + 1, size):
            combo[j] = combo[j - 1] + 1


def _unrank_combination(m: int, size: int, rank: int) -> list[int]:
    combo = []
    x = 0
    for remaining in range(size, 0, -1):
        while comb(m - x - 1, remaining - 1) <= rank:
            rank -= comb(m - x - 1, remaining - 1)
            x += 1
        combo.append(x)
        x += 1
    return combo


def _scan_worker(args) -> tuple[int, tuple[tuple[int, int], ...]] | None:
    n, edges, k, candidates, size, start, stop = args
    g = Graph(n, frozenset(edges))
    return _scan_range(g, k, candidates, size, start, stop)


def _find_first_failure(
    g: Graph,
    k: int,
    candidates: tuple[tuple[int, int], ...],
    size: int,
    threads: int,
    cache: _CertificateCache | None,
) -> tuple[tuple[int, tuple[tuple[int, int], ...]] | None, int]:
    """Return ((rank, subset) of the lexicographically first failing subset or
    None, total subset count)."""
    total = comb(len(candidates), size)
    if threads <= 1 or total < 4 * _MIN_CHUNK:
        return _scan_range(g, k, candidates, size, 0, total, cache), total

    chunk = max(_MIN_CHUNK, total // (threads * 16))
    edges = tuple(sorted(g.edges))
    bounds = [(s, min(s + chunk, total)) for s in range(0, total, chunk)]
    first: tuple[int, tuple[tuple[int, int], ...]] | None = None
    with ProcessPoolExecutor(max_workers=threads) as pool:
        for lo in range(0, len(bounds), threads):
            wave = bounds[lo : lo + threads]
            args = [(g.n, edges, k, candidates, size, s, e) for s, e in wave]
            for got in pool.map(_scan_worker, args):
                if got is not None and first is None:
                    first = got
            if first is not None:
                break
    return first, total


def is_r_resiliently_k_colorable(
    g: Graph, r: int, k: int, *, threads: int = 1
) -> GraphResilienceVerdict:
    """Check every subset of exactly min(r, #non-edges) non-edges.

    The verdict's witness is the first failing subset in lexicographic order
    over the sorted non-edge list; subsets_checked counts subsets up to and
    including the witness (all of them when resilient).
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    candidates = non_edges(g)
    size = min(r, len(candidates))
    failure, total = _find_first_failure(g, k, candidates, size, threads, None)
    if failure is None:
        return GraphResilienceVerdict(True, None, size, total)
    rank, subset = failure
    return GraphResilienceVerdict(False, subset, size, rank + 1)


def max_graph_resilience(g: Graph, k: int, *, threads: int = 1) -> int | str:
    """Largest r for which g is r-resiliently k-colorable.

    Returns SATURATED when the complete graph on g's vertices is itself
    k-colorable (n <= k), in which case every r qualifies; raises when g is
    not k-colorable at all (not 0-resilient).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if g.n <= k:
        return SATURATED
    candidates = non_edges(g)
    cache = _CertificateCache()
    for r in range(len(candidates) + 1):
        failure, _ = _find_first_failure(g, k, candidates, r, threads, cache)
        if failure is not None:
            if r == 0:
                raise ValueError("graph is not even 0-resilient (not k-colorable)")
            return r - 1
    raise AssertionError("unreachable: completing to K_n must fail for n > k")
