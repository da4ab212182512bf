"""Command-line front end.

Reports are line-oriented ``key=value`` records; lines starting with ``#``
carry commentary such as wall-clock time and are not part of the stable
record, so two runs of one command print the same stable lines.  Each
command returns its exit code, its report stream (stdout, stderr for
``reduce``, none when the output is an artifact: ``classics NAME``) and its
report as ``(key, value)`` pairs; commands write only their artifacts.
``main`` alone writes every report, after the command returns: it formats
the values, writes the pairs and the ``#`` line, and flushes stdout and
stderr inside its error boundary.  Exit codes: 0 for a positive verdict or
successful output, 1 for a negative verdict, 2 for an InputError (bad
arguments or input text; a ParseError is one), an unreadable file or an
output stream that cannot be written, 3 for an exceeded size budget.  An
exit of 2 or 3 leaves only one ``error:`` line on stderr: a command that
fails part-way has written nothing of its report.  An unwritable stdout or
stderr (a pipe whose reader left, a closed descriptor) never changes the
exit code: a failed run still exits 2 or 3 when its ``error:`` line cannot
be written, and a report that cannot be written exits 2.  Such a stream is
pointed at the null device, so the interpreter's flush at exit stays
silent; a descriptor closed before start-up, which leaves its stream None,
is unwritable like any closed one, and a command reading such a stdin exits
2 as for an unreadable file.  The library checks its own arguments;
any other ValueError is an internal error and is raised, not reported as
exit 2.

Graph witnesses are printed as comma-separated ``u-v`` pairs, 1-indexed to
match DIMACS files; formula witnesses as comma-separated ``x<var>=<0|1>``
fixings.  The RESILIENCE_BUDGET environment variable, when set to an
integer, overrides both the clause budget and the vertex budget of the
reduction commands.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from typing import TextIO

from .coloring import chromatic_number, is_k_colorable
from .graphs import BudgetExceededError, InputError, classic, parse_graph, serialize_graph
from .reductions import (
    blow_up,
    hardness_chain,
    provenance_json,
    shrink_down,
    six_cnf_to_graph,
    verify_gadget_contracts,
)
from .resilience import SATURATED, is_r_resiliently_k_colorable, max_graph_resilience
from .sat import is_r_resilient, parse_cnf, serialize_cnf

# Rows recomputed by the classics table: graph, k, published max resilience,
# and whether that value is exact or only a lower bound.
_CLASSICS_TABLE = (
    ("petersen", 3, 2, False),
    ("durer", 3, 1, True),
    ("durer", 4, 4, True),
    ("grotzsch", 4, 4, True),
    ("chvatal", 4, 3, True),
)


def _read_text(path: str | None) -> str:
    try:
        if path is None or path == "-":
            if sys.stdin is None:  # descriptor 0 closed before start-up
                raise InputError("stdin is closed")
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path or 'stdin'} is not UTF-8 text: {exc}") from None


def _edge_witness(pairs: tuple[tuple[int, int], ...]) -> str:
    return ",".join(f"{u + 1}-{v + 1}" for u, v in pairs)


def _fixes_witness(fixes: tuple[tuple[int, bool], ...]) -> str:
    return ",".join(f"x{var}={1 if value else 0}" for var, value in fixes)


def _budget() -> int | None:
    raw = os.environ.get("RESILIENCE_BUDGET")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"RESILIENCE_BUDGET must be an integer, got {raw!r}")
    if value < 0:
        raise InputError("RESILIENCE_BUDGET must be >= 0")
    return value


def _cmd_color(args) -> tuple[int, TextIO | None, list]:
    g = parse_graph(_read_text(args.file))
    colors = is_k_colorable(g, args.k)
    report = [("command", "color"), ("k", args.k), ("n", g.n), ("edges", len(g.edges))]
    report.append(("colorable", colors is not None))
    if colors is not None:
        report.append(("coloring", ",".join(map(str, colors))))
    return (0 if colors is not None else 1), sys.stdout, report


def _cmd_resilience(args) -> tuple[int, TextIO | None, list]:
    if args.mode == "graph":
        if args.k is None:
            raise InputError("graph mode requires --k")
        g = parse_graph(_read_text(args.file))
        sizes = [("k", args.k), ("n", g.n), ("edges", len(g.edges))]
        verdict = is_r_resiliently_k_colorable(g, args.r, args.k)
        counter = ("subsets_checked", verdict.subsets_checked)
        witness = None if verdict.witness is None else _edge_witness(verdict.witness)
    else:
        phi = parse_cnf(_read_text(args.file))
        sizes = [("num_vars", phi.num_vars), ("clauses", len(phi.clauses))]
        verdict = is_r_resilient(phi, args.r)
        counter = ("restrictions_checked", verdict.restrictions_checked)
        witness = None if verdict.witness is None else _fixes_witness(verdict.witness.fixes)
    report = [("command", "resilience"), ("mode", args.mode), ("r", args.r)] + sizes
    if verdict.r < args.r:
        # fewer candidates than r: the check saturates at the full set
        report.append(("effective_r", verdict.r))
        # in graph mode every non-edge was added, so surviving means K_n is k-colorable
        if args.mode == "graph" and verdict.resilient:
            report.append(("saturated", True))
    report.append(("resilient", verdict.resilient))
    if witness is not None:
        report.append(("witness", witness))
    report.append(counter)
    return (0 if verdict.resilient else 1), sys.stdout, report


def _cmd_reduce(args) -> tuple[int, TextIO | None, list]:
    budget = _budget()
    phi = parse_cnf(_read_text(args.file))
    sidecar = None
    report = [
        ("command", "reduce"),
        ("kind", args.kind),
        ("input_num_vars", phi.num_vars),
        ("input_clauses", len(phi.clauses)),
    ]
    if args.kind == "to-coloring":
        if args.output is None:
            raise InputError("to-coloring requires -o for the graph and sidecar files")
        gg = six_cnf_to_graph(phi, vertex_budget=budget)
        artifact = serialize_graph(gg.graph)
        sidecar = (args.output + ".gadgets.json", provenance_json(gg))
        report += [
            ("output_vertices", gg.graph.n),
            ("output_edges", len(gg.graph.edges)),
            ("sidecar", sidecar[0]),
        ]
    else:
        if args.kind == "blowup":
            if args.s is None:
                raise InputError("blowup requires --s")
            psi = blow_up(phi, args.s, clause_budget=budget)
        elif args.kind == "shrink":
            psi = shrink_down(phi)
        else:  # chain
            if args.r is None:
                raise InputError("chain requires --r")
            psi = hardness_chain(args.r, phi, clause_budget=budget)
        artifact = serialize_cnf(psi)
        report += [
            ("output_num_vars", psi.num_vars),
            ("output_clauses", len(psi.clauses)),
            ("output_width", psi.width),
        ]
    if args.output is None:
        sys.stdout.write(artifact)
        report.append(("output", "-"))
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(artifact)
        report.append(("output", args.output))
    # after the graph file, so a graph that cannot be written leaves no
    # sidecar; a sidecar that cannot be written takes the graph file with it
    if sidecar is not None:
        try:
            with open(sidecar[0], "w", encoding="utf-8") as fh:
                fh.write(sidecar[1])
        except OSError:
            os.unlink(args.output)
            raise
    return 0, sys.stderr, report


def _cmd_classics(args) -> tuple[int, TextIO | None, list]:
    if args.name is not None:
        sys.stdout.write(serialize_graph(classic(args.name.replace("-", "_"), args.param)))
        return 0, None, []
    if args.param is not None:
        raise InputError("--param requires a graph name")
    report = [("command", "classics")]
    all_match = True
    for name, k, published, exact in _CLASSICS_TABLE:
        g = classic(name)
        value = max_graph_resilience(g, k)
        chi = chromatic_number(g)
        match = value == published if exact else (value != SATURATED and value >= published)
        all_match = all_match and match
        stated = f"published={published}" if exact else f"published>={published}"
        report.append((
            "row",
            f"{name} k={k} chromatic={chi} resilience={value} {stated} "
            f"match={'true' if match else 'false'}",
        ))
    report.append(("all_match", all_match))
    return (0 if all_match else 1), sys.stdout, report


def _cmd_verify_gadgets(args) -> tuple[int, TextIO | None, list]:
    contracts = verify_gadget_contracts()
    passed, failed = contracts.counts()
    report = [("command", "verify-gadgets"), ("checks_passed", passed), ("checks_failed", failed)]
    for check in contracts.failures():
        report.append(("failure", f"{check.gadget} {check.contract} {check.pattern} {check.detail}"))
    report.append(("ok", contracts.ok))
    return (0 if contracts.ok else 1), sys.stdout, report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rescol",
        description="Resilient graph coloring and SAT: exact checks, reductions, gadget verification.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_color = sub.add_parser("color", help="decide k-colorability of a DIMACS edge file")
    p_color.add_argument("file", nargs="?", default=None, help="DIMACS edge file (default stdin)")
    p_color.add_argument("--k", type=int, required=True, help="number of colors")
    p_color.set_defaults(func=_cmd_color)

    p_res = sub.add_parser("resilience", help="exhaustive resilience check")
    p_res.add_argument("file", nargs="?", default=None, help="input file (default stdin)")
    p_res.add_argument("--mode", choices=("graph", "sat"), required=True)
    p_res.add_argument("--r", type=int, required=True, help="resilience level to test")
    p_res.add_argument("--k", type=int, default=None, help="colors (graph mode only)")
    p_res.set_defaults(func=_cmd_resilience)

    p_red = sub.add_parser("reduce", help="apply a formula or formula-to-graph reduction")
    p_red.add_argument("file", nargs="?", default=None, help="DIMACS CNF file (default stdin)")
    p_red.add_argument("--kind", choices=("blowup", "shrink", "chain", "to-coloring"), required=True)
    p_red.add_argument("--s", type=int, default=None, help="number of copies (blowup)")
    p_red.add_argument("--r", type=int, default=None, help="target resilience (chain)")
    p_red.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    p_red.set_defaults(func=_cmd_reduce)

    p_cls = sub.add_parser(
        "classics", help="recompute the classic-graph resilience table, or emit one classic graph"
    )
    p_cls.add_argument("name", nargs="?", default=None, help="emit this graph as DIMACS instead")
    p_cls.add_argument("--param", type=int, default=None, help="size parameter for complete-graph families")
    p_cls.set_defaults(func=_cmd_classics)

    p_ver = sub.add_parser("verify-gadgets", help="exhaustively certify the gadget library")
    p_ver.set_defaults(func=_cmd_verify_gadgets)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name in ("stdout", "stderr"):
        # a descriptor closed before start-up leaves its stream None; the
        # read-only null device fails every write as a closed stream does
        if getattr(sys, name) is None:
            setattr(sys, name, open(os.devnull, encoding="utf-8"))
    started = time.perf_counter()
    try:
        code, stream, report = args.func(args)
        if stream is not None:
            for key, value in report:
                if isinstance(value, bool):
                    value = "true" if value else "false"
                print(f"{key}={value}", file=stream)
            print(f"# wall_time_s={time.perf_counter() - started:.3f}", file=stream)
        # a reader that left shows up here, not in the shutdown flush
        sys.stdout.flush()
        sys.stderr.flush()
        return code
    except BudgetExceededError as exc:
        code, error = 3, exc
    except (InputError, OSError) as exc:
        code, error = 2, exc
    # stdout may still hold what a closed pipe refused.  A stream that fails
    # here is pointed at the null device, so the shutdown flush stays silent
    # and the exit code stays 2 or 3
    for stream, text in ((sys.stdout, ""), (sys.stderr, f"error: {error}\n")):
        try:
            stream.write(text)
            stream.flush()
        except OSError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            # a closed descriptor is free, so os.open may hand that very one back
            if devnull != stream.fileno():
                os.dup2(devnull, stream.fileno())
                os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
