"""Resilience of graph colorings under edge additions, and the scan it shares
with formula resilience.

A graph is r-resiliently k-colorable when it stays k-colorable after any r
new edges are added.  A formula is r-resilient when it stays satisfiable
after any r of its variables are fixed.  Both ask for the first size-r
subset of a universe that no certificate covers.  The universe is split into
groups, and a subset takes one element from each of r groups: for coloring
each sorted non-edge is a group of one, and a certificate is a proper
coloring, covering the non-edges it colors properly; for SAT each variable
is a group of its two literals, and a certificate is a model, covering its
true literals.

``_first_uncovered`` answers that question for both, and keeps every
certificate it finds in a ``_CertificateStore`` that a caller can carry
across scans.  It searches lexicographic prefixes of groups depth first,
carrying for each prefix the certificates that contain it; a prefix that
one of them covers in every completion is dropped whole, and the last
element is picked in bulk from the elements no such certificate contains; a
prefix one short of full size is made only when such an element is left.
Only subsets no certificate covers run the exact solver.  Cache hits can
never flip a verdict: a certificate that covers a subset is itself a
coloring of the augmented graph, or a model of the restricted formula.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Iterator

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
    """Indices of the set bits of mask, ascending.

    They are read off ``bin(mask)`` from its end, in time linear in the
    mask's length; clearing the low bit one step at a time would copy the
    int at every step.  Each set bit costs one seek, which suits the sparse
    masks: subsets, witnesses and the edges a solve adds."""
    digits = bin(mask)
    top = len(digits) - 1
    i = digits.rfind("1")
    while i > 0:
        yield top - i
        i = digits.rfind("1", 0, i)


class _CertificateStore:
    """Every certificate found over one universe, indexed for the scan.

    The universe has ``groups`` groups of ``choices`` elements each; element
    g * choices + c is choice c of group g, and a certificate is the mask of
    the elements it covers.  Certificates are numbered in the order found:
    bit t of ``covers[e]`` is set when certificate t contains element e,
    ``complements[t]`` is the universe minus certificate t, and bit t of
    ``dead[s]`` is set when that complement has no element in group s or
    later.  An empty store is linear in the universe: one int per element
    and per group, each of one bit per certificate.
    """

    def __init__(self, groups: int, choices: int):
        self.groups = groups
        self.choices = choices
        self.universe = (1 << groups * choices) - 1
        self.covers = [0] * (groups * choices)
        self.complements: list[int] = []
        self.dead = [0] * (groups + 1)

    def add(self, cert: int) -> int:
        """Keep a certificate mask; return its bit."""
        bit = 1 << len(self.complements)
        complement = self.universe & ~cert
        self.complements.append(complement)
        # a certificate is dense (a coloring colors most non-edges properly,
        # a model holds half the literals), so one walk over all its digits
        # beats a _bits seek per set bit
        covers = self.covers
        for e, digit in enumerate(bin(cert)[:1:-1]):
            if digit == "1":
                covers[e] |= bit
        # the group after the complement's last element, 0 for an empty complement
        first_dead = -(-complement.bit_length() // self.choices)
        for s in range(first_dead, self.groups + 1):
            self.dead[s] |= bit
        return bit


def _first_uncovered(
    store: _CertificateStore, size: int, solve: Callable[[int], int | None]
) -> tuple[int | None, int]:
    """Return the first size-subset no certificate in store covers (or None)
    and the number of subsets checked.

    Canonical order takes group subsets lexicographically, then the choices
    within a group subset in product order, its first group most
    significant.  The search walks group prefixes depth first; each live
    prefix choice is a node [mask, cover, escape], cover holding the
    certificates that contain mask.  A node whose cover meets ``dead`` of
    the next group has every completion covered and is dropped.  At the
    last group only the node's escape set, the later elements outside every
    covering certificate, can be uncovered.  A last-level node (size - 1
    elements) is made with its escape set, and only when that set is not
    empty; inner nodes keep 0 there.  The subsets a last-level node's mask
    makes with the elements still in its escape set are solved in canonical
    order.  ``solve(mask)`` returns a certificate mask containing mask,
    which joins the store, the cover of every stacked node inside it and,
    through its complement, that node's escape set, or None, which ends the
    scan at that mask.  The count is the mask's canonical rank plus one, or
    every subset when none is uncovered, so it equals the count of a scan
    that visits every subset.  A size-0 scan must run on a fresh store: it
    solves the empty subset.
    """
    groups, choices = store.groups, store.choices
    covers, complements, dead = store.covers, store.complements, store.dead
    universe = store.universe
    total = comb(groups, size) * choices**size
    if size == 0:
        cert = solve(0)
        if cert is None:
            return 0, 1
        store.add(cert)
        return None, 1
    stack: list[list[list[int]]] = []

    def keep(cert: int) -> None:
        bit = store.add(cert)
        complement = complements[-1]
        for level in stack:
            for node in level:
                if node[0] & complement == 0:
                    node[1] |= bit
                    node[2] &= complement

    def last_pick(nodes: list[list[int]]) -> int | None:
        while True:
            pending = 0
            for node in nodes:
                pending |= node[2]
            if not pending:
                return None
            low = (pending & -pending).bit_length() - 1
            group = range(low - low % choices, low - low % choices + choices)
            for node in nodes:
                for e in group:
                    if node[2] >> e & 1:
                        mask = node[0] | 1 << e
                        cert = solve(mask)
                        if cert is None:
                            return mask
                        keep(cert)

    def escape(cover: int, later: int) -> int:
        """The elements of later outside every certificate in cover."""
        while cover and later:
            # newest certificate first: on random 4-colorable graphs this
            # ends the AND in about a fifth fewer steps than oldest first
            t = cover.bit_length() - 1
            later &= complements[t]
            cover ^= 1 << t
        return later

    def search(nodes: list[list[int]], start: int, depth: int) -> int | None:
        last = depth + 2 == size
        for g in range(start, groups - size + depth + 1):
            after = dead[g + 1]
            later = universe >> (g + 1) * choices << (g + 1) * choices
            live = []
            for mask, cover, _ in nodes:
                for e in range(g * choices, g * choices + choices):
                    both = cover & covers[e]
                    if not both & after:
                        if not last:
                            live.append([mask | 1 << e, both, 0])
                        elif free := escape(both, later):
                            live.append([mask | 1 << e, both, free])
            if live:
                stack.append(live)
                found = last_pick(live) if last else search(live, g + 1, depth + 1)
                stack.pop()
                if found is not None:
                    return found
        return None

    everything = (1 << len(complements)) - 1
    if size > 1:
        stack.append([[0, everything, 0]])
        found = search(stack[0], 0, 0)
    elif free := escape(everything, universe):
        stack.append([[0, everything, free]])
        found = last_pick(stack[0])
    else:
        found = None
    # search reaches itself through its closure; dropping it frees the
    # scan's nodes and solver now rather than at the next cycle collection
    del search
    if found is None:
        return None, total
    rank = comb(groups, size) - 1
    vector = 0
    for i, e in enumerate(_bits(found)):
        rank -= comb(groups - 1 - e // choices, size - i)
        vector = vector * choices + e % choices
    return found, rank * choices**size + vector + 1


def _max_resilience(
    store: _CertificateStore, solve: Callable[[int], int | None], message: str, upper: int
) -> int:
    """The r-sweep of both ``max_*`` functions over one certificate store.

    ``upper`` bounds the answer from above, so the sweep runs r = 0..upper
    and stops at the first r with an uncovered subset, returning r - 1, or
    returns upper when none has one: the bound spares the sweep its final
    failing scan, usually its largest.  Raises
    InputError(message) when r = 0 already fails.  Every certificate found
    at one r serves the later ones."""
    for r in range(upper + 1):
        if _first_uncovered(store, r, solve)[0] is not None:
            if r == 0:
                raise InputError(message)
            return r - 1
    return upper


def _missing_edge_bound(g: Graph, k: int) -> int:
    """The fewest missing edges m over n greedy (k+1)-vertex sets of g, one
    grown from each vertex; needs n > k.  Adding a set's missing edges
    completes a K_{k+1}, so g is not m-resiliently k-colorable.  A set grows
    by the vertex with the most neighbours already in it, least index on
    ties.  Those counts rise along each new vertex's neighbours, so the cost
    is n * k steps over neighbour lists, with no search over all
    (k+1)-sets."""
    full = comb(k + 1, 2)
    best = full
    for start in range(g.n):
        chosen = {start}
        count = dict.fromkeys(g.neighbors[start], 1)
        inside = 0
        for _ in range(k):
            if count:
                top = max(count.values())
                v = min(u for u, c in count.items() if c == top)
                inside += count.pop(v)
            else:
                v = next(u for u in range(g.n) if u not in chosen)
            chosen.add(v)
            for u in g.neighbors[v]:
                if u not in chosen:
                    count[u] = count.get(u, 0) + 1
        best = min(best, full - inside)
        if not best:
            break
    return best


def _coloring_certifier(
    g: Graph, k: int, candidates: tuple[tuple[int, int], ...]
) -> Callable[[int], int | None]:
    """The solve of a graph scan: a mask of candidates maps to the mask of
    the candidates that a k-coloring of g plus those edges colors properly,
    or to None when there is no such coloring."""

    def solve(mask: int) -> int | None:
        nbrs = list(g.neighbors)
        for i in _bits(mask):
            u, v = candidates[i]
            nbrs[u] += (v,)
            nbrs[v] += (u,)
        colors = _solve_masks(nbrs, k)
        if colors is None:
            return None
        # one digit per candidate, the last candidate first
        digits = ["1" if colors[u] != colors[v] else "0" for u, v in reversed(candidates)]
        return int("".join(digits) or "0", 2)

    return solve


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
    solve = _coloring_certifier(g, k, candidates)
    failure, checked = _first_uncovered(_CertificateStore(len(candidates), 1), size, solve)
    witness = None if failure is None else tuple(candidates[i] for i in _bits(failure))
    return GraphResilienceVerdict(failure is None, witness, size, checked)


def max_graph_resilience(g: Graph, k: int) -> int | str:
    """Largest r for which g is r-resiliently k-colorable.

    Returns SATURATED when the complete graph on g's vertices is itself
    k-colorable (n <= k), in which case every r qualifies; raises when g is
    not k-colorable at all (not 0-resilient).  One certificate store serves
    the whole sweep over r, which stops at the first failing r or at one
    less than the fewest missing edges of a greedy (k+1)-vertex set
    (``_missing_edge_bound``), whichever comes first.
    """
    if k < 1:
        raise InputError("k must be >= 1")
    if g.n <= k:
        return SATURATED
    candidates = non_edges(g)
    return _max_resilience(
        _CertificateStore(len(candidates), 1),
        _coloring_certifier(g, k, candidates),
        "graph is not even 0-resilient (not k-colorable)",
        # 0 missing edges: g contains K_{k+1}, and the r = 0 scan raises
        max(_missing_edge_bound(g, k) - 1, 0),
    )
