"""The benchmark's workloads: seeded passes of items, their runs and checks.

A workload builds one *pass* of cases at a time from a seeded generator.
Each case runs one or more timed *items* through rescol's public API and
is then checked outside the timed spans, independently of the engine being
timed wherever a theorem or a direct evaluation allows.  ``api`` is the
imported ``rescol`` package; functions are looked up on it at call time so
a tracer can wrap them.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Any, Callable

import generators

# graph, k, published max resilience, whether that value is exact (else a
# lower bound), and the graph's chromatic number
CLASSICS = (
    ("petersen", 3, 2, False, 3),
    ("durer", 3, 1, True, 3),
    ("durer", 4, 4, True, 3),
    ("grotzsch", 4, 4, True, 4),
    ("chvatal", 4, 3, True, 4),
)
# r=5 at k=4, one past each graph's published resilience: an early exit
R5_TARGETS = ("durer", "grotzsch", "chvatal")

GADGET_CONTRACT_CHECKS = 4573


@dataclass
class Case:
    id: str
    kind: str
    data: dict


@dataclass(frozen=True)
class Workload:
    name: str
    make_pass: Callable[[Any, random.Random, int], list[Case]]
    warm_up: Callable[[Any], None]
    # one in-process CLI call on an instance of the first pass, compared
    # with the library result
    cli_check: Callable[[Any, list[Case], Callable], bool]
    # nominal seconds per pass; sets how many passes a traced run makes
    pass_s: float


# ---------------------------------------------------------------- oracles


def k_colorable(n: int, edges, k: int) -> bool:
    """Plain backtracking in descending degree order, no learning; used
    only to confirm that early-exit witnesses really break colorability."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    order = sorted(range(n), key=lambda v: -len(adj[v]))
    colors = [-1] * n

    def place(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        used = {colors[u] for u in adj[v]}
        for c in range(k if i else 1):
            if c not in used:
                colors[v] = c
                if place(i + 1):
                    return True
        colors[v] = -1
        return False

    return place(0)


def satisfies(clauses, assignment: dict[int, bool], offset: int = 0) -> bool:
    return all(
        any(assignment[abs(lit) + offset] == (lit > 0) for lit in clause) for clause in clauses
    )


def unsatisfiable(num_vars: int, clauses) -> bool:
    for bits in range(1 << num_vars):
        assignment = {v: bool(bits >> (v - 1) & 1) for v in range(1, num_vars + 1)}
        if satisfies(clauses, assignment):
            return False
    return True


def breaks_coloring(n: int, edges, k: int, r: int, verdict) -> bool:
    """The verdict is an early exit whose witness is r distinct non-edges
    that leave the augmented graph not k-colorable."""
    if verdict.resilient or verdict.witness is None or verdict.r != r:
        return False
    witness = set(verdict.witness)
    if len(witness) != r or witness & set(edges):
        return False
    if any(not 0 <= u < v < n for u, v in witness):
        return False
    return 1 <= verdict.subsets_checked and not k_colorable(n, set(edges) | witness, k)


def stable_lines(text: str) -> list[tuple[str, str]]:
    """The ``key=value`` record of a CLI report, without ``#`` commentary."""
    pairs = []
    for line in text.splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            pairs.append((key, value))
    return pairs


# ------------------------------------------------------- graph_resilience


def _graph_pass(api, rng: random.Random, index: int) -> list[Case]:
    cases = [
        Case(f"p{index}.classic.{row[0]}.k{row[1]}", "classic", {"graph": api.classic(row[0]), "row": row})
        for row in CLASSICS
    ]
    cases += [
        Case(f"p{index}.r5.{name}", "r5", {"graph": api.classic(name)}) for name in R5_TARGETS
    ]
    for j in range(30):
        # three sizes, and densities stratified over [0.30, 0.35]; see README.md
        n, edges = generators.colorable_graph(rng, 10 + j % 3, 4, 0.30 + 0.05 * (j // 3 + rng.random()) / 10)
        graph = api.Graph.from_edges(n, edges)
        cases.append(Case(f"p{index}.g{j}", "graph", {"n": n, "edges": edges, "graph": graph}))
    rng.shuffle(cases)
    return cases


def _graph_warm_up(api) -> None:
    g = api.Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    api.max_graph_resilience(g, 3)
    api.is_r_resiliently_k_colorable(g, 1, 3)
    api.chromatic_number(g)


def _graph_cli_check(api, cases: list[Case], run_cli) -> bool:
    code, out, _ = run_cli(["classics"], "")
    pairs = stable_lines(out)
    rows = [value.split() for key, value in pairs if key == "row"]
    if code != 0 or ("all_match", "true") not in pairs or len(rows) != len(CLASSICS):
        return False
    for fields, (name, k, *_rest) in zip(rows, CLASSICS):
        got = dict(field.partition("=")[::2] for field in fields[1:])
        g = api.classic(name)
        expected = {
            "k": str(k),
            "chromatic": str(api.chromatic_number(g)),
            "resilience": str(api.max_graph_resilience(g, k)),
            "match": "true",
        }
        if fields[0] != name or any(got.get(key) != value for key, value in expected.items()):
            return False
    return True


# -------------------------------------------------------- gadget_coloring


def _gadget_pass(api, rng: random.Random, index: int) -> list[Case]:
    cases = []
    if index == 0:
        cases.append(Case("p0.verify", "verify", {}))
    for num_vars in (8, 9, 10):
        for num_clauses in (12, 13, 14):
            # every clause keeps two planted-true literals; see README.md
            n, clauses, _ = generators.planted_3cnf(rng, num_vars, num_clauses, min_true=2)
            cases.append(
                Case(
                    f"p{index}.v{n}c{num_clauses}",
                    "gadget",
                    {"n": n, "clauses": clauses, "phi": api.CnfFormula.make(n, clauses)},
                )
            )
    rng.shuffle(cases)
    return cases


def _gadget_pipeline(api, phi):
    gg = api.three_sat_to_coloring(phi)
    parsed = api.parse_graph(api.serialize_graph(gg.graph))
    colors = api.is_k_colorable(parsed, 3)
    return gg, parsed, colors, api.decode_coloring(gg, colors)


def _gadget_warm_up(api) -> None:
    _gadget_pipeline(api, api.CnfFormula.make(3, [(1, 2, 3)]))


def _first(cases: list[Case], kind: str) -> Case:
    return next(case for case in cases if case.kind == kind)


def _gadget_cli_check(api, cases: list[Case], run_cli) -> bool:
    phi = _first(cases, "gadget").data["phi"]
    text = api.serialize_graph(api.three_sat_to_coloring(phi).graph)
    code, out, _ = run_cli(["color", "--k", "3"], text)
    g = api.parse_graph(text)
    colors = api.is_k_colorable(g, 3)
    expected = [
        ("command", "color"),
        ("k", "3"),
        ("n", str(g.n)),
        ("edges", str(len(g.edges))),
        ("colorable", "true"),
        ("coloring", ",".join(map(str, colors))),
    ]
    return code == 0 and stable_lines(out) == expected


# --------------------------------------------------------- sat_resilience


def _sat_pass(api, rng: random.Random, index: int) -> list[Case]:
    cases = []
    for num_vars in (4, 5, 6):
        # at most 8 clauses (512 after the blow-up); see README.md
        for num_clauses in (6, 7, 8):
            n, clauses, _ = generators.planted_3cnf(rng, num_vars, num_clauses)
            cases.append(
                Case(
                    f"p{index}.v{n}c{num_clauses}",
                    "sat",
                    {"n": n, "phi": api.CnfFormula.make(n, clauses)},
                )
            )
    rng.shuffle(cases)
    return cases


def _sat_warm_up(api) -> None:
    api.is_r_resilient(api.blow_up(api.CnfFormula.make(3, [(1, 2, 3)]), 3), 2)


def _sat_cli_check(api, cases: list[Case], run_cli) -> bool:
    psi = api.blow_up(_first(cases, "sat").data["phi"], 3)
    code, out, _ = run_cli(["resilience", "--mode", "sat", "--r", "2"], api.serialize_cnf(psi))
    verdict = api.is_r_resilient(psi, 2)
    expected = [
        ("command", "resilience"),
        ("mode", "sat"),
        ("r", "2"),
        ("num_vars", str(psi.num_vars)),
        ("clauses", str(len(psi.clauses))),
        ("resilient", "true" if verdict.resilient else "false"),
        ("restrictions_checked", str(verdict.restrictions_checked)),
    ]
    return code == 0 and verdict.resilient and stable_lines(out) == expected


# ----------------------------------------------------------- chain_refute


def _chain_pass(api, rng: random.Random, index: int) -> list[Case]:
    cases = []
    # nineteen 3-variable inputs and one 4-variable input; see README.md
    for j, num_vars in enumerate((3,) * 19 + (4,)):
        n, clauses = generators.unsat_decision_tree_3cnf(rng, num_vars)
        cases.append(
            Case(
                f"p{index}.t{j}v{n}",
                "chain",
                {"n": n, "clauses": clauses, "phi": api.CnfFormula.make(n, clauses)},
            )
        )
    rng.shuffle(cases)
    return cases


def _chain_pipeline(api, phi):
    psi = api.hardness_chain(2, phi)
    parsed = api.parse_cnf(api.serialize_cnf(psi))
    return psi, parsed, api.is_satisfiable(parsed)


def _chain_warm_up(api) -> None:
    _chain_pipeline(api, api.CnfFormula.make(3, [(1, 2, 3)]))


def _chain_cli_check(api, cases: list[Case], run_cli) -> bool:
    phi = _first(cases, "chain").data["phi"]
    code, out, err = run_cli(["reduce", "--kind", "chain", "--r", "2"], api.serialize_cnf(phi))
    psi = api.hardness_chain(2, phi)
    report = dict(stable_lines(err))
    return (
        code == 0
        and out == api.serialize_cnf(psi)
        and report.get("output_clauses") == str(len(psi.clauses))
        and report.get("output_width") == str(psi.width)
        and report.get("output") == "-"
    )


# ------------------------------------------------------------ item kinds
#
# kind -> (item labels, run, check).  run(api, data, timed) makes every
# library call through timed(label, fn, *args), one timed item per label;
# check(data, outputs) returns label -> passed, outside the timed spans.


def _classic_run(api, data, timed):
    k = data["row"][1]
    g = data["graph"]
    return {"row": timed("row", lambda: (api.max_graph_resilience(g, k), api.chromatic_number(g)))}


def _classic_check(data, out):
    _, _, published, exact, chromatic = data["row"]
    value, chi = out["row"]
    match = value == published if exact else isinstance(value, int) and value >= published
    return {"row": match and chi == chromatic}


def _r5_run(api, data, timed):
    return {"check": timed("check", api.is_r_resiliently_k_colorable, data["graph"], 5, 4)}


def _r5_check(data, out):
    g = data["graph"]
    return {"check": breaks_coloring(g.n, g.edges, 4, 5, out["check"])}


def _graph_run(api, data, timed):
    g = data["graph"]
    r = timed("max", api.max_graph_resilience, g, 4)
    return {
        "max": r,
        "full": timed("full", api.is_r_resiliently_k_colorable, g, r, 4),
        "exit": timed("exit", api.is_r_resiliently_k_colorable, g, r + 1, 4),
    }


def _graph_check(data, out):
    n, edges, r = data["n"], data["edges"], out["max"]
    m = n * (n - 1) // 2 - len(edges)
    full = out["full"]
    return {
        # certified by the two scans below
        "max": isinstance(r, int) and 0 <= r < m,
        "full": full.resilient and full.witness is None and full.r == r
        and full.subsets_checked == comb(m, r),
        "exit": breaks_coloring(n, edges, 4, r + 1, out["exit"]),
    }


def _verify_run(api, data, timed):
    return {"verify": timed("verify", api.verify_gadget_contracts)}


def _verify_check(data, out):
    return {"verify": out["verify"].counts() == (GADGET_CONTRACT_CHECKS, 0)}


def _gadget_run(api, data, timed):
    return {"pipeline": timed("pipeline", _gadget_pipeline, api, data["phi"])}


def _gadget_check(data, out):
    gg, parsed, colors, assignment = out["pipeline"]
    n = data["n"]
    ok = (
        parsed == gg.graph
        and colors is not None
        and len(colors) == parsed.n
        and all(0 <= c < 3 for c in colors)
        and all(colors[u] != colors[v] for u, v in parsed.edges)
        # the gadget graph encodes blow_up(phi, 2): phi on x or phi on y
        and sorted(assignment) == list(range(1, 2 * n + 1))
        and (satisfies(data["clauses"], assignment) or satisfies(data["clauses"], assignment, n))
    )
    return {"pipeline": ok}


def _sat_run(api, data, timed):
    return {"scan": timed("scan", lambda: api.is_r_resilient(api.blow_up(data["phi"], 3), 2))}


def _sat_check(data, out):
    verdict = out["scan"]
    # blow-up lemma: three copies of a satisfiable formula survive any two fixes
    expected = comb(3 * data["n"], 2) * 4
    return {
        "scan": verdict.resilient and verdict.witness is None and verdict.r == 2
        and verdict.restrictions_checked == expected
    }


def _chain_run(api, data, timed):
    return {"refute": timed("refute", _chain_pipeline, api, data["phi"])}


def _chain_check(data, out):
    psi, parsed, model = out["refute"]
    # the chain maps UNSAT to UNSAT; 8 exact clauses blow up to 8^3 and
    # three halving rounds double that to 4096 clauses of width 3
    ok = (
        unsatisfiable(data["n"], data["clauses"])
        and model is None
        and parsed == psi
        and len(psi.clauses) == 4096
        and psi.width == 3
    )
    return {"refute": ok}


KINDS = {
    "classic": (("row",), _classic_run, _classic_check),
    "r5": (("check",), _r5_run, _r5_check),
    "graph": (("max", "full", "exit"), _graph_run, _graph_check),
    "verify": (("verify",), _verify_run, _verify_check),
    "gadget": (("pipeline",), _gadget_run, _gadget_check),
    "sat": (("scan",), _sat_run, _sat_check),
    "chain": (("refute",), _chain_run, _chain_check),
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("graph_resilience", _graph_pass, _graph_warm_up, _graph_cli_check, 1.2),
        Workload("gadget_coloring", _gadget_pass, _gadget_warm_up, _gadget_cli_check, 1.0),
        Workload("sat_resilience", _sat_pass, _sat_warm_up, _sat_cli_check, 2.5),
        Workload("chain_refute", _chain_pass, _chain_warm_up, _chain_cli_check, 4.0),
    )
}
