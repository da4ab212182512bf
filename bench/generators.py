"""Seeded input generators for the benchmark.

Every generator takes a ``random.Random`` and returns plain Python data
(integers and tuples), so the program under test only ever sees the
generated inputs.  Nothing here imports rescol, the test suite or numpy.
"""
from __future__ import annotations

import itertools
import random

Clause = tuple[int, ...]


def planted_3cnf(
    rng: random.Random, num_vars: int, num_clauses: int, min_true: int = 1
) -> tuple[int, tuple[Clause, ...], dict[int, bool]]:
    """A 3-CNF over three distinct variables per clause, satisfied by a
    hidden random assignment.

    Each clause keeps at least ``min_true`` literals true under that
    assignment, so the formula is satisfiable by construction.  Returns
    (num_vars, clauses, planted assignment).
    """
    if not 1 <= min_true <= 3 or num_vars < 3:
        raise ValueError("need num_vars >= 3 and 1 <= min_true <= 3")
    truth = {v: rng.random() < 0.5 for v in range(1, num_vars + 1)}
    clauses: list[Clause] = []
    while len(clauses) < num_clauses:
        clause = tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 3))
        if sum((lit > 0) == truth[abs(lit)] for lit in clause) >= min_true:
            clauses.append(clause)
    return num_vars, tuple(clauses), truth


def colorable_graph(
    rng: random.Random, n: int, k: int, density: float
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """A graph with a planted balanced k-partition and exactly
    round(density * n(n-1)/2) edges, all between different parts, so it is
    k-colorable by construction.  Returns (n, sorted edge pairs)."""
    parts = [v % k for v in range(n)]
    rng.shuffle(parts)
    cross = [(u, v) for u, v in itertools.combinations(range(n), 2) if parts[u] != parts[v]]
    count = round(density * n * (n - 1) / 2)
    if count > len(cross):
        raise ValueError(f"density {density} is too high for a {k}-partite graph on {n} vertices")
    return n, tuple(sorted(rng.sample(cross, count)))


def unsat_decision_tree_3cnf(rng: random.Random, num_vars: int) -> tuple[int, tuple[Clause, ...]]:
    """An unsatisfiable 3-CNF with exactly 8 clauses over num_vars variables.

    The clauses are the negated root-to-leaf paths of a complete decision
    tree of depth 3 whose nodes query variables not already on their path.
    Every assignment follows exactly one path and falsifies that clause, so
    the formula is unsatisfiable, and every clause has three distinct
    variables, so its exact-3-CNF rewrite is itself.  The result is then
    varied by renaming variables, flipping signs and shuffling clause and
    literal order.
    """
    if not 3 <= num_vars <= 7:
        raise ValueError("a depth-3 decision tree uses between 3 and 7 variables")
    while True:
        clauses: list[Clause] = []

        def grow(path: tuple[int, ...]) -> None:
            if len(path) == 3:
                clauses.append(tuple(-lit for lit in path))
                return
            var = rng.choice([v for v in range(1, num_vars + 1) if v not in map(abs, path)])
            grow(path + (-var,))
            grow(path + (var,))

        grow(())
        if len({abs(lit) for clause in clauses for lit in clause}) == num_vars:
            break
    rename = list(range(1, num_vars + 1))
    rng.shuffle(rename)
    sign = [rng.choice((1, -1)) for _ in range(num_vars)]
    varied = [
        tuple(
            sign[abs(lit) - 1] * rename[abs(lit) - 1] * (1 if lit > 0 else -1)
            for lit in rng.sample(clause, 3)
        )
        for clause in clauses
    ]
    rng.shuffle(varied)
    return num_vars, tuple(varied)
