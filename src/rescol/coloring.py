"""Exact and greedy vertex coloring.

The exact solver is deterministic: vertices are processed in order of
descending degree (ties broken by index), colors are tried in ascending
order, and when no vertex is pre-colored the first vertex in that order is
pinned to color 0 to cut the color-permutation symmetry.  Pre-colored
vertices are single-color frames at the bottom of the same search, below
every other vertex, so a pin conflict is found like any other.  The search
walks each graph's neighbor lists, so a color try costs the vertex's
degree.  Pruning is forward checking on per-vertex masks of still-available
colors plus conflict-directed backjumping (Prosser's FC-CBJ): every removed
color records the positions whose assignments removed it, so a dead end
jumps straight back to the deepest assignment actually involved instead of
stepping through unrelated vertices.  Every removal goes on one trail, and
each frame marks the trail's length before its try (MiniSat's
``trail_lim``, as in ``sat._Solver``), so undoing back to any frame is one
retract to its mark.

At k = 3 each forward check is followed by a forced-color step run to a
fixpoint, a cheap form of maintaining consistency during search (Sabin &
Freuder's MAC) at the level of Hall sets of one and two vertices: a vertex
left with one color takes it away from its neighbors, and two adjacent
vertices left with the same two colors take both away from every common
neighbor.  In the reductions' clause gadgets such a pair forces its common
neighbor to the third color, which forward checking alone learns only by
retrying every combination of colors below it; with the step the gadget
graphs color with few or no backjumps.

Pruning and backjumping only skip branches that provably contain no proper
coloring, so the coloring returned is still the first one in search order,
whatever the order of the neighbor lists.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .graphs import Graph, InputError

Coloring = tuple[int, ...]


@dataclass(frozen=True)
class DegreeWitness:
    """Evidence that the greedy degree bound failed: some vertex has degree >= k."""

    vertex: int
    degree: int


def _removers(u: int, base: list[int], avail: list[int], why: list[list[int]]) -> int:
    """Mask of the positions that removed a color from u's mask."""
    gone = base[u] & ~avail[u]
    conf = 0
    while gone:
        c = (gone & -gone).bit_length() - 1
        gone &= gone - 1
        because = why[c][u]
        conf |= ~because if because < 0 else 1 << because
    return conf


# the colors of each 3-bit mask, so a removal writes why for its colors alone
_COLORS = tuple(tuple(c for c in range(3) if gone >> c & 1) for gone in range(8))


def _force(
    queue: list[int],
    nbrs: Sequence[Sequence[int]],
    color: list[int],
    base: list[int],
    avail: list[int],
    why: list[list[int]],
    trail: list[int],
) -> int:
    """The forced-color step of ``_solve_masks`` at k = 3, run to a fixpoint
    from the uncolored vertices in queue.

    A popped vertex u heads the Hall sets of one and two vertices that it is
    in: u alone when it has one color left, or else u with each uncolored
    neighbor w left with the same two colors.  A set's colors are removed
    from every uncolored vertex adjacent to all of it, explained by the
    removers of its vertices.  Each removal goes on the trail as two
    entries, vertex then colors, and its vertex is queued; returns a
    wiped-out vertex, or -1."""
    while queue:
        u = queue.pop()
        a = avail[u]  # never all three: a queued vertex has lost a color
        one = a & (a - 1) == 0
        for w in (u,) if one else nbrs[u]:
            if avail[w] == a and color[w] == -1:
                because = 0
                for x in nbrs[w]:
                    gone = avail[x] & a
                    if gone and color[x] == -1 and (one or x in nbrs[u]):
                        if not because:
                            because = ~(
                                _removers(u, base, avail, why)
                                if one
                                else _removers(u, base, avail, why) | _removers(w, base, avail, why)
                            )
                        avail[x] ^= gone
                        trail += x, gone
                        for c in _COLORS[gone]:
                            why[c][x] = because
                        if not avail[x]:
                            return x
                        queue.append(x)
    return -1


def _retract(trail: list[int], avail: list[int], cut: int) -> None:
    """Undo the trail's removals past its first cut entries."""
    while len(trail) > cut:
        gone = trail.pop()
        avail[trail.pop()] |= gone


def _solve_masks(
    nbrs: Sequence[Sequence[int]],
    k: int,
    fixed: Mapping[int, int] | None = None,
) -> Coloring | None:
    """Backtracking core over the neighbor lists of vertices 0..len(nbrs)-1;
    returns a coloring or None.

    Each pinned vertex of `fixed` is a frame at the bottom of the search, in
    `fixed`'s order, whose domain is its one color; a pin conflict is an
    ordinary wipe-out.  Pins disable the symmetry-breaking root assignment.
    Colors at or above max(n, highest pin + 1) are dropped first: an unpinned
    vertex has fewer than n neighbors, so it never wipes out and takes its
    least free color, which is below n; no search ever tries a higher color.

    ``why[c][u]`` explains the removal of color c from u's mask by the
    positions whose assignments imply it: a forward check at position pos
    stores pos, and the forced-color step stores ``~mask`` for a mask of
    positions.  The sign tells them apart, and the forward check, the only
    remover at k >= 4, stores a plain position.  ``_removers(u)`` is the
    mask of the positions that explain u's removed colors.  Only removed
    colors, ``base[u] & ~avail[u]``, are ever read, so undoing a prune
    restores the mask and leaves ``why`` alone.  A frame's conflict set is
    built only on a wipe-out or when its colors run out.

    At k = 3 a try that survives its forward check runs the forced-color
    step from the vertices it pruned, to a fixpoint, with one rule: a Hall
    set of uncolored vertices, either a vertex u left with one color or two
    adjacent vertices u and w left with the same two, removes its colors
    from every uncolored vertex adjacent to all of it, explained by
    ``_removers(u)`` for u alone and ``_removers(u) | _removers(w)`` for a
    pair.  The forward check is the same rule for the vertex just colored,
    kept inline in the search loop.

    An explanation holds the positions whose assignments alone imply the
    removal, all at or below the current one, so a wipe-out's conflict set,
    and with it every backjump target, stays exact.  Every color the step
    removes is in no coloring that extends the current prefix, so the
    search still meets the same first coloring, only sooner.

    Every removal, forward check and forced-color step alike, goes on one
    ``trail`` as two entries, vertex then colors, and ``marks[pos]`` is the
    trail's length before the try at pos.  A wipe-out takes its conflict,
    uncolors the vertex and retracts to its frame's mark; a backjump to
    target uncolors frames target..pos-1 and retracts to ``marks[target]``.
    The forced-color step starts from this try's prunes, the vertices on
    the trail past the mark.

    At k >= 4 the step is not run: a vertex needs k - 1 removals before it
    is a Hall set alone, and a pair needs k - 2 of them on both ends of an
    edge, so the rule seldom fires while the step still scans the
    neighbors of every pruned vertex on every try.
    """
    fixed = fixed or {}
    n = len(nbrs)
    k = min(k, max(n, max(fixed.values(), default=-1) + 1))
    base = [(1 << k) - 1] * n  # per vertex: its colors before any prune
    for v, c in fixed.items():
        base[v] = 1 << c
    degree = list(map(len, nbrs))
    # a reverse sort is stable, so ties keep ascending index
    order = list(fixed) + sorted(
        (v for v in range(n) if v not in fixed),
        key=degree.__getitem__,
        reverse=True,
    )
    if not order:
        return ()
    if not fixed:
        base[order[0]] = 1  # root takes color 0; any coloring can be renamed to match
    color = [-1] * n
    avail = base[:]
    why = [[0] * n for _ in range(k)]  # color first, so a try binds one row
    trail: list[int] = []  # every removal as vertex then colors, oldest first

    depth = len(order)
    cand = [0] * depth
    jump = [0] * depth  # conflicts from the frame's wipe-outs and from jumps back to it
    marks = [0] * depth  # per frame: the trail's length before its try
    pos = 0
    cand[0] = avail[order[0]]
    while True:
        v = order[pos]
        m = cand[pos]
        if m:
            c = (m & -m).bit_length() - 1
            cand[pos] = m & (m - 1)
            bit = 1 << c
            removed_by = why[c]
            cut = marks[pos] = len(trail)
            wiped = -1
            for u in nbrs[v]:
                if color[u] == -1 and avail[u] & bit:
                    avail[u] ^= bit
                    removed_by[u] = pos
                    trail += u, bit
                    if avail[u] == 0:
                        wiped = u
                        break
            color[v] = c  # colored, so the forced-color step never prunes v
            if k == 3 and wiped < 0 and len(trail) > cut:
                wiped = _force(trail[cut::2], nbrs, color, base, avail, why, trail)
            if wiped >= 0:
                # the conflict first: the retract gives wiped its colors back
                jump[pos] |= _removers(wiped, base, avail, why) & ~(1 << pos)
                color[v] = -1
                _retract(trail, avail, cut)
                continue
            pos += 1
            if pos == depth:
                return tuple(color)
            cand[pos] = avail[order[pos]]
            jump[pos] = 0
            continue
        # every color failed here; jump to the deepest conflicting position
        conf = jump[pos] | _removers(v, base, avail, why)
        if conf == 0:
            return None
        target = conf.bit_length() - 1
        jump[target] |= conf ^ (1 << target)
        for q in range(target, pos):
            color[order[q]] = -1
        _retract(trail, avail, marks[target])
        pos = target


def is_k_colorable(g: Graph, k: int) -> Coloring | None:
    """Return a proper k-coloring as a tuple, or None if none exists."""
    if k < 1:
        raise InputError("k must be >= 1")
    return _solve_masks(g.neighbors, k)


def extend_coloring(g: Graph, k: int, fixed: Mapping[int, int]) -> Coloring | None:
    """Complete a partial coloring to a proper k-coloring, or return None."""
    if k < 1:
        raise InputError("k must be >= 1")
    for v, c in fixed.items():
        if not 0 <= v < g.n:
            raise InputError(f"pinned vertex {v} out of range")
        if not 0 <= c < k:
            raise InputError(f"pinned color {c} out of range for k={k}")
    return _solve_masks(g.neighbors, k, fixed)


def chromatic_number(g: Graph) -> int:
    """Smallest k admitting a proper k-coloring, by linear search from 1;
    n when no k < n works, since every graph on n vertices is n-colorable."""
    if g.n == 0:
        raise InputError("chromatic number of the empty graph is undefined")
    for k in range(1, g.n):
        if _solve_masks(g.neighbors, k) is not None:
            return k
    return g.n


def greedy_color_bounded_degree(g: Graph, k: int) -> Coloring | DegreeWitness:
    """Greedy k-coloring for graphs of max degree <= k - 1.

    A single pass in ascending vertex order gives each vertex the least color
    unused by its already-colored neighbors; with max degree <= k - 1 that
    color always exists, and it is below n, so the colors are masks of
    min(k, n) bits whatever k is.  Otherwise the pass stops at the
    least-index vertex of degree >= k and returns it as a DegreeWitness.
    """
    if k < 1:
        raise InputError("k must be >= 1")
    nbrs = g.neighbors
    full = (1 << min(k, g.n)) - 1
    colors = [0] * g.n
    for v in range(g.n):
        if len(nbrs[v]) >= k:
            return DegreeWitness(vertex=v, degree=len(nbrs[v]))
        used = 0
        for u in nbrs[v]:
            if u > v:
                break  # neighbors ascend; the rest are not colored yet
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
