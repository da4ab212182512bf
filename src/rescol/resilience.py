"""Resilience of graph colorings under edge additions, and the scan it shares
with formula resilience.

A graph is r-resiliently k-colorable when it stays k-colorable after any r
new edges are added.  A formula is r-resilient when it stays satisfiable
after any r of its variables are fixed.  Both ask for the first size-r
subset of a universe that no certificate covers: for coloring the universe
is the sorted non-edge list and a certificate is a proper coloring, covering
the non-edges it colors properly; for SAT the universe is the literals and a
certificate is a model, covering its true literals.

``_first_uncovered`` answers that question for both.  It walks subset
bitmasks in canonical order and keeps every certificate mask it has found,
the most recently hit first.  A subset inside a kept certificate needs no
search; only subsets no certificate covers run the exact solver.  Cache
hits can never flip a verdict: a certificate that covers a subset is itself
a coloring of the augmented graph, or a model of the restricted formula.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .coloring import _solve_masks
from .graphs import Graph, InputError, non_edges

SATURATED = "saturated"


@dataclass(frozen=True)
class GraphResilienceVerdict:
    resilient: bool
    witness: tuple[tuple[int, int], ...] | None
    r: int
    subsets_checked: int


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _first_uncovered(
    masks: Iterable[int], solve: Callable[[int], int | None], certs: list[int]
) -> tuple[int | None, int]:
    """Return the first mask no certificate covers (or None) and the number
    of masks checked.

    ``certs`` holds every certificate mask found so far, most recently hit
    first, and is updated in place so a caller can carry it across scans.
    A mask that is a subset of a kept certificate is survived; otherwise
    ``solve(mask)`` returns a covering certificate mask, which joins the
    front of ``certs``, or None, which ends the scan at that mask.
    """
    checked = 0
    for mask in masks:
        checked += 1
        for i, cert in enumerate(certs):
            if mask & ~cert == 0:
                if i:
                    certs.insert(0, certs.pop(i))
                break
        else:
            cert = solve(mask)
            if cert is None:
                return mask, checked
            certs.insert(0, cert)
    return None, checked


def _max_resilience(first_failure: Callable[..., object], limit: int, message: str) -> int | str:
    """The r-sweep of both ``max_*`` functions: r - 1 for the first r in
    0..limit where ``first_failure(r, certs)`` is not None, with one
    certificate list for every r; SATURATED when no r fails.  Raises
    ValueError(message) when r = 0 already fails."""
    certs: list[int] = []
    for r in range(limit + 1):
        if first_failure(r, certs) is not None:
            if r == 0:
                raise ValueError(message)
            return r - 1
    return SATURATED


def _first_failure(
    g: Graph, k: int, candidates: tuple[tuple[int, int], ...], size: int, certs: list[int]
) -> tuple[tuple[tuple[int, int], ...] | None, int]:
    """Scan the size-subsets of candidates in lexicographic order; return the
    first one whose addition leaves g not k-colorable (or None) and the
    number of subsets checked."""

    def solve(mask: int) -> int | None:
        adj = list(g.adjacency)
        for i in _bits(mask):
            u, v = candidates[i]
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        colors = _solve_masks(g.n, adj, k)
        if colors is None:
            return None
        return sum(1 << i for i, (u, v) in enumerate(candidates) if colors[u] != colors[v])

    masks = map(sum, itertools.combinations([1 << i for i in range(len(candidates))], size))
    failure, checked = _first_uncovered(masks, solve, certs)
    if failure is None:
        return None, checked
    return tuple(candidates[i] for i in _bits(failure)), checked


def is_r_resiliently_k_colorable(g: Graph, r: int, k: int) -> GraphResilienceVerdict:
    """Check every subset of exactly min(r, #non-edges) non-edges.

    The verdict's witness is the first failing subset in lexicographic order
    over the sorted non-edge list; subsets_checked counts subsets up to and
    including the witness (all of them when resilient).
    """
    if r < 0:
        raise InputError("r must be >= 0")
    if k < 1:
        raise InputError("k must be >= 1")
    candidates = non_edges(g)
    size = min(r, len(candidates))
    witness, checked = _first_failure(g, k, candidates, size, [])
    return GraphResilienceVerdict(witness is None, witness, size, checked)


def max_graph_resilience(g: Graph, k: int) -> int | str:
    """Largest r for which g is r-resiliently k-colorable.

    Returns SATURATED when the complete graph on g's vertices is itself
    k-colorable (n <= k), in which case every r qualifies; raises when g is
    not k-colorable at all (not 0-resilient).  One certificate store serves
    the whole sweep over r.
    """
    if k < 1:
        raise InputError("k must be >= 1")
    if g.n <= k:
        return SATURATED
    candidates = non_edges(g)
    return _max_resilience(
        lambda r, certs: _first_failure(g, k, candidates, r, certs)[0],
        len(candidates),
        "graph is not even 0-resilient (not k-colorable)",
    )
