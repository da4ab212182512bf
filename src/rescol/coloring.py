"""Exact and greedy vertex coloring.

The exact solver is deterministic: vertices are processed in order of
descending degree (ties broken by index), colors are tried in ascending
order, and when no vertex is pre-colored the first vertex in that order is
pinned to color 0 to cut the color-permutation symmetry.  Pre-colored
vertices are single-color frames at the bottom of the same search, below
every other vertex, so a pin conflict is found like any other.  Pruning is by
per-vertex masks of still-available colors plus conflict-directed
backjumping: every mask prune is tagged with the position that caused it, so
a dead end jumps straight back to the deepest assignment actually involved
instead of stepping through unrelated vertices.  Backjumping only skips
branches that provably contain no proper coloring, so the coloring returned
is still the first one in search order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .graphs import Graph, InputError

Coloring = tuple[int, ...]


@dataclass(frozen=True)
class DegreeWitness:
    """Evidence that the greedy degree bound failed: some vertex has degree >= k."""

    vertex: int
    degree: int


def _solve_masks(
    n: int,
    adj: tuple[int, ...] | list[int],
    k: int,
    fixed: Mapping[int, int] | None = None,
) -> list[int] | None:
    """Backtracking core over bitmask adjacency; returns a color list or None.

    Each pinned vertex of `fixed` is a frame at the bottom of the search, in
    `fixed`'s order, whose domain is its one color; a pin conflict is an
    ordinary wipe-out.  Pins disable the symmetry-breaking root assignment.
    """
    full = (1 << k) - 1
    color = [-1] * n
    avail = [full] * n
    fixed = fixed or {}
    for v, c in fixed.items():
        if not 0 <= v < n:
            raise ValueError(f"pinned vertex {v} out of range")
        if not 0 <= c < k:
            raise ValueError(f"pinned color {c} out of range for k={k}")
        avail[v] = 1 << c

    order = list(fixed) + sorted(
        (v for v in range(n) if v not in fixed),
        key=lambda v: (-(adj[v].bit_count()), v),
    )
    if not order:
        return color
    if not fixed:
        avail[order[0]] = 1  # root takes color 0; any coloring can be renamed to match

    depth = len(order)
    cand = [0] * depth
    jump = [0] * depth  # positions in conflict with the frame's vertex
    undo: list[tuple[int, list[int]]] = [(0, [])] * depth
    past = [0] * n  # per vertex: positions that pruned its mask
    pos = 0
    cand[0] = avail[order[0]]
    while True:
        v = order[pos]
        m = cand[pos]
        if m:
            c = (m & -m).bit_length() - 1
            cand[pos] = m & (m - 1)
            bit = 1 << c
            pbit = 1 << pos
            touched = []
            wiped = -1
            nb = adj[v]
            while nb:
                u = (nb & -nb).bit_length() - 1
                nb &= nb - 1
                if color[u] == -1 and avail[u] & bit:
                    avail[u] &= ~bit
                    past[u] |= pbit
                    touched.append(u)
                    if avail[u] == 0:
                        wiped = u
                        break
            if wiped >= 0:
                jump[pos] |= past[wiped] & ~pbit
                for u in touched:
                    avail[u] |= bit
                    past[u] &= ~pbit
                continue
            color[v] = c
            undo[pos] = (bit, touched)
            pos += 1
            if pos == depth:
                return color
            cand[pos] = avail[order[pos]]
            jump[pos] = past[order[pos]]
            continue
        # every color failed here; jump to the deepest conflicting position
        conf = jump[pos]
        if conf == 0:
            return None
        target = conf.bit_length() - 1
        jump[target] |= conf ^ (1 << target)
        for q in range(pos - 1, target - 1, -1):
            qbit, touched = undo[q]
            pb = 1 << q
            for u in touched:
                avail[u] |= qbit
                past[u] &= ~pb
            color[order[q]] = -1
        pos = target


def is_k_colorable(g: Graph, k: int) -> Coloring | None:
    """Return a proper k-coloring as a tuple, or None if none exists."""
    if k < 1:
        raise InputError("k must be >= 1")
    got = _solve_masks(g.n, g.adjacency, k)
    return tuple(got) if got is not None else None


def extend_coloring(g: Graph, k: int, fixed: Mapping[int, int]) -> Coloring | None:
    """Complete a partial coloring to a proper k-coloring, or return None."""
    if k < 1:
        raise InputError("k must be >= 1")
    got = _solve_masks(g.n, g.adjacency, k, fixed)
    return tuple(got) if got is not None else None


def chromatic_number(g: Graph) -> int:
    """Smallest k admitting a proper k-coloring, by linear search from 1;
    n when no k < n works, since every graph on n vertices is n-colorable."""
    if g.n == 0:
        raise ValueError("chromatic number of the empty graph is undefined")
    for k in range(1, g.n):
        if _solve_masks(g.n, g.adjacency, k) is not None:
            return k
    return g.n


def greedy_color_bounded_degree(g: Graph, k: int) -> Coloring | DegreeWitness:
    """Greedy k-coloring for graphs of max degree <= k - 1.

    A single pass in ascending vertex order gives each vertex the least color
    unused by its already-colored neighbors; with max degree <= k - 1 that
    color always exists.  Otherwise the least-index vertex of degree >= k is
    returned as a DegreeWitness instead.
    """
    if k < 1:
        raise InputError("k must be >= 1")
    adj = g.adjacency
    for v in range(g.n):
        if adj[v].bit_count() >= k:
            return DegreeWitness(vertex=v, degree=adj[v].bit_count())
    full = (1 << k) - 1
    colors = [0] * g.n
    for v in range(g.n):
        used = 0
        nb = adj[v]
        while nb:
            u = (nb & -nb).bit_length() - 1
            nb &= nb - 1
            if u < v:
                used |= 1 << colors[u]
        free = full & ~used
        colors[v] = (free & -free).bit_length() - 1
    return tuple(colors)


def validate_coloring(g: Graph, colors: Coloring, k: int) -> bool:
    """True iff colors assigns every vertex a color in 0..k-1 with no monochromatic edge."""
    if len(colors) != g.n:
        return False
    if any(not 0 <= c < k for c in colors):
        return False
    return all(colors[u] != colors[v] for u, v in g.edges)
