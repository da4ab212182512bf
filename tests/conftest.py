"""Seeded instance generators and brute-force oracles shared by the suite.

The oracles deliberately use a different algorithm family from the library
(vectorized truth/coloring tables with no pruning, no propagation, no
ordering heuristics) so agreement is meaningful evidence, not an echo.
"""
from __future__ import annotations

import itertools
import random

import numpy as np

from rescol.graphs import Graph, non_edges
from rescol.sat import CnfFormula


def random_graph(rng, max_n: int = 7, min_n: int = 1, density: float | None = None) -> Graph:
    n = rng.randint(min_n, max_n)
    if density is None:
        density = rng.random()
    edges = frozenset(
        pair for pair in itertools.combinations(range(n), 2) if rng.random() < density
    )
    return Graph(n, edges)


def random_cnf(
    rng,
    max_vars: int = 6,
    max_clauses: int = 4,
    max_width: int = 3,
    exact_width: bool = False,
) -> CnfFormula:
    n = rng.randint(1, max_vars)
    m = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(m):
        w = max_width if exact_width else rng.randint(1, max_width)
        clauses.append(tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(w)))
    return CnfFormula(n, tuple(clauses))


def assert_checked(phi: CnfFormula) -> None:
    """phi, built without the constructor's range check, equals the formula
    the checked constructor builds from its num_vars and its clauses, copied
    as tuples: every literal is in range."""
    assert phi == CnfFormula(phi.num_vars, tuple(map(tuple, phi.clauses)))


def assert_graph_checked(g: Graph) -> None:
    """g, built without the constructor's check, equals the graph the
    checked constructor builds from its n and its edges: every pair is
    ordered and in range."""
    assert g == Graph(g.n, frozenset(g.edges))


# one planted-true literal per clause over 8 variables, whose first
# 3-coloring took 2.87M color tries and 1.66M backjumps before the
# forced-color step; its gadget graph has 3,689 vertices and 6,756 edges
TAIL_8_14 = CnfFormula.make(
    8,
    [
        tuple(int(lit) for lit in clause.split())
        for clause in (
            "-7 4 -2 / 6 -8 1 / -5 -6 3 / -2 1 6 / -6 -1 -3 / -4 -7 1 / 5 6 4 / "
            "-5 4 8 / 3 8 -5 / -5 1 4 / -1 -6 -4 / 8 -2 -5 / 8 6 -3 / 2 5 6"
        ).split("/")
    ],
)


def uniform_six_cnf(rng: random.Random, clauses: int) -> CnfFormula:
    """Clauses over exactly six distinct variables each, random polarity."""
    made = []
    for _ in range(clauses):
        order = rng.sample(range(1, 7), 6)
        made.append(tuple(rng.choice((1, -1)) * v for v in order))
    return CnfFormula.make(6, made)


def sat_table(phi: CnfFormula) -> np.ndarray:
    """Truth table over all 2^num_vars assignments; bit v-1 of the index is
    the value of variable v."""
    n = phi.num_vars
    idx = np.arange(1 << n, dtype=np.uint32)
    ok = np.ones(1 << n, dtype=bool)
    for clause in phi.clauses:
        satisfied = np.zeros(1 << n, dtype=bool)
        for lit in clause:
            bit = (idx >> (abs(lit) - 1)) & 1
            satisfied |= bit == 1 if lit > 0 else bit == 0
        ok &= satisfied
    return ok


def brute_satisfiable(phi: CnfFormula) -> bool:
    return bool(sat_table(phi).any())


def oracle_sat_first_failure(phi: CnfFormula, r: int):
    """First restriction (canonical order) whose application kills phi, or
    None; subsets of all variables ascending, then value vectors in ascending
    binary with the first variable most significant."""
    n = phi.num_vars
    table = sat_table(phi)
    idx = np.arange(1 << n, dtype=np.uint32)
    size = min(r, n)
    for subset in itertools.combinations(range(1, n + 1), size):
        for values in itertools.product((False, True), repeat=size):
            consistent = np.ones(1 << n, dtype=bool)
            for var, value in zip(subset, values):
                bit = (idx >> (var - 1)) & 1
                consistent &= bit == 1 if value else bit == 0
            if not (table & consistent).any():
                return tuple(zip(subset, values))
    return None


def coloring_table(g: Graph, k: int):
    """Propriety vector over all k^n colorings (vertex v is digit v of the
    base-k index), plus per-vertex digit arrays."""
    total = k**g.n
    idx = np.arange(total, dtype=np.int64)
    digits = []
    div = 1
    for _ in range(g.n):
        digits.append((idx // div) % k)
        div *= k
    ok = np.ones(total, dtype=bool)
    for u, v in g.edges:
        ok &= digits[u] != digits[v]
    return ok, digits


def brute_colorable(g: Graph, k: int) -> bool:
    ok, _ = coloring_table(g, k)
    return bool(ok.any())


def oracle_graph_first_failure(g: Graph, r: int, k: int):
    """First lexicographic non-edge subset whose addition kills
    k-colorability, or None, with the count of subsets examined."""
    ok, digits = coloring_table(g, k)
    candidates = non_edges(g)
    size = min(r, len(candidates))
    differ = [digits[u] != digits[v] for u, v in candidates]
    checked = 0
    for picks in itertools.combinations(range(len(candidates)), size):
        checked += 1
        cur = ok
        for i in picks:
            cur = cur & differ[i]
        if not cur.any():
            return tuple(candidates[i] for i in picks), checked
    return None, checked


def canonical_masks(groups: int, choices: int, size: int):
    """Every size-subset of a grouped universe as a mask, in canonical order:
    group subsets lexicographically, then choice vectors in product order,
    the first group most significant.  Bit g * choices + c is choice c of
    group g."""
    for picked in itertools.combinations(range(groups), size):
        for vector in itertools.product(range(choices), repeat=size):
            yield sum(1 << (g * choices + c) for g, c in zip(picked, vector))


def reference_first_uncovered(masks, solve, certs: list[int]):
    """The plain certificate scan: check each mask against every kept
    certificate (most recently hit first), solve it when none contains it.
    Returns the first mask solve rejects (or None) and the masks checked."""
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


def counted(solve, calls: list[int], slot: int):
    """solve, counting its calls in calls[slot]."""

    def counting(*args):
        calls[slot] += 1
        return solve(*args)

    return counting


def logged(solve, log: list):
    """solve, appending each (mask, result) pair it gives to log."""

    def logging(mask):
        cert = solve(mask)
        log.append((mask, cert))
        return cert

    return logging


def count_calls(monkeypatch, owner, name: str) -> list[int]:
    """Patch owner.name to count its calls in the returned one-slot list;
    the solver-call pins read it."""
    calls = [0]
    monkeypatch.setattr(owner, name, counted(getattr(owner, name), calls, 0))
    return calls


def last_level_shapes(groups: int, choices: int, size: int, known: list[int], solved):
    """Replay a scan of size-subsets in canonical order and count two shapes
    of the prefix walk's last level, whose nodes hold size - 1 elements.

    known holds the certificates kept before the scan, and solved the
    (mask, certificate or None) pairs of its solves in order.  Returns
    whether two solved masks share their first size - 1 groups, so that a
    certificate kept mid-pick met a sibling, and the number of group
    prefixes whose last-level children all have every completion covered
    while at least one of them is not covered whole by a single certificate
    (so the dead-group test keeps it and only its escape set drops it).  A
    prefix is judged with the certificates kept before its first subset."""
    if size < 2:
        return False, 0
    heads = [
        tuple(e // choices for e in range(groups * choices) if mask >> e & 1)[: size - 1]
        for mask, _ in solved
    ]
    siblings = len(set(heads)) < len(heads)
    known = list(known)
    solves = iter(solved)
    pending = next(solves, None)
    universe = (1 << groups * choices) - 1
    covered = 0
    head = None
    for picked in itertools.combinations(range(groups), size):
        if picked[:-1] != head:
            head = picked[:-1]
            later = universe >> (head[-1] + 1) * choices << (head[-1] + 1) * choices
            kept = escaped = 0
            for vector in itertools.product(range(choices), repeat=size - 1):
                child = sum(1 << (g * choices + c) for g, c in zip(head, vector))
                cover = [cert for cert in known if child & ~cert == 0]
                if any(later & ~cert == 0 for cert in cover):
                    continue
                kept += 1
                escape = later
                for cert in cover:
                    escape &= ~cert
                escaped += escape != 0
            covered += kept > 0 and escaped == 0
        for vector in itertools.product(range(choices), repeat=size):
            mask = sum(1 << (g * choices + c) for g, c in zip(picked, vector))
            if pending is not None and mask == pending[0]:
                if pending[1] is None:
                    return siblings, covered
                known.append(pending[1])
                pending = next(solves, None)
    return siblings, covered


def carried_scans_match_reference(first_uncovered, store, solve, sizes) -> tuple[int, int]:
    """Carry store through a first_uncovered scan of each size, as the max
    sweeps do, asserting that each scan returns what the plain scan
    returns, solves the same masks in the same order, and leaves the store
    holding exactly the plain scan's certificates.  Returns the
    ``last_level_shapes`` counts summed over the scans: scans whose pick met
    a sibling, and fully covered prefixes."""
    certs: list[int] = []
    siblings = covered = 0
    for size in sizes:
        known = certs[:]
        got_log, want_log = [], []
        got = first_uncovered(store, size, logged(solve, got_log))
        masks = canonical_masks(store.groups, store.choices, size)
        want = reference_first_uncovered(masks, logged(solve, want_log), certs)
        assert got == want
        assert got_log == want_log
        assert sorted(store.complements) == sorted(store.universe & ~cert for cert in certs)
        shapes = last_level_shapes(store.groups, store.choices, size, known, got_log)
        siblings += shapes[0]
        covered += shapes[1]
    return siblings, covered
