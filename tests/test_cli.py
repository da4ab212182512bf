"""End-to-end checks of the command line surface.

Most tests drive ``main(argv)`` in process and inspect the key=value
report, the artifact stream, and the exit code; a few run the module in a
subprocess with its stdout or stderr closed or its pipe's reader gone.
Lines starting with '#' are commentary (wall time) and are excluded
whenever two reports are compared.
The error-boundary tests at the end also call the library directly: exit 2
is for InputError, and every other ValueError is raised.
"""

import errno
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rescol
from rescol.cli import main
from rescol.coloring import (
    chromatic_number,
    extend_coloring,
    greedy_color_bounded_degree,
    is_k_colorable,
    validate_coloring,
)
from rescol.graphs import (
    BudgetExceededError,
    Graph,
    InputError,
    ParseError,
    add_edges,
    classic,
    complete_graph,
    complete_minus_matching,
    complete_plus_isolated,
    normalize_edge,
    parse_graph,
    serialize_graph,
)
from rescol.reductions import (
    ContractCheck,
    ContractReport,
    blow_up,
    decode_coloring,
    hardness_chain,
    shrink_down,
    six_cnf_to_graph,
    three_sat_to_coloring,
)
from rescol.resilience import is_r_resiliently_k_colorable, max_graph_resilience
from rescol.sat import (
    CnfFormula,
    Restriction,
    is_r_resilient,
    max_sat_resilience,
    parse_cnf,
    restrict,
    serialize_cnf,
)


@pytest.fixture(autouse=True)
def _no_budget_env(monkeypatch):
    # tests that want RESILIENCE_BUDGET set it explicitly
    monkeypatch.delenv("RESILIENCE_BUDGET", raising=False)


def write_graph(tmp_path, g, name="input.col"):
    path = tmp_path / name
    path.write_text(serialize_graph(g))
    return str(path)


def write_cnf(tmp_path, phi, name="input.cnf"):
    path = tmp_path / name
    path.write_text(serialize_cnf(phi))
    return str(path)


def stable_lines(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


def report_dict(text):
    report = {}
    for line in stable_lines(text):
        key, _, value = line.partition("=")
        assert key not in report, f"duplicate report key {key}"
        report[key] = value
    return report


def test_color_reports_a_valid_coloring(tmp_path, capsys):
    g = classic("petersen")
    rc = main(["color", write_graph(tmp_path, g), "--k", "3"])
    out = report_dict(capsys.readouterr().out)
    assert rc == 0
    assert out["command"] == "color"
    assert out["k"] == "3"
    assert out["n"] == "10"
    assert out["edges"] == "15"
    assert out["colorable"] == "true"
    colors = tuple(int(c) for c in out["coloring"].split(","))
    assert len(colors) == 10
    assert validate_coloring(g, colors, 3)


def test_color_exit_code_one_when_uncolorable(tmp_path, capsys):
    rc = main(["color", write_graph(tmp_path, complete_graph(4)), "--k", "3"])
    out = report_dict(capsys.readouterr().out)
    assert rc == 1
    assert out["colorable"] == "false"
    assert "coloring" not in out


def test_color_empty_graph(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("p edge 0 0\n"))
    rc = main(["color", "--k", "1"])
    out = report_dict(capsys.readouterr().out)
    assert rc == 0
    assert out["colorable"] == "true"
    assert out["coloring"] == ""


def test_color_reads_stdin_by_default(monkeypatch, capsys):
    g = classic("petersen")
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize_graph(g)))
    rc = main(["color", "--k", "3"])
    out = report_dict(capsys.readouterr().out)
    assert rc == 0
    assert out["colorable"] == "true"


def test_resilience_graph_witness_matches_library(tmp_path, capsys):
    g = classic("durer")
    verdict = is_r_resiliently_k_colorable(g, 2, 3)
    rc = main(["resilience", write_graph(tmp_path, g), "--mode", "graph", "--r", "2", "--k", "3"])
    out = report_dict(capsys.readouterr().out)
    assert rc == 1
    assert out["mode"] == "graph"
    assert out["resilient"] == "false"
    assert out["witness"] == ",".join(f"{u + 1}-{v + 1}" for u, v in verdict.witness)
    assert out["subsets_checked"] == str(verdict.subsets_checked)
    assert "effective_r" not in out


def test_resilience_graph_positive_full_scan(tmp_path, capsys):
    g = classic("petersen")
    rc = main(["resilience", write_graph(tmp_path, g), "--mode", "graph", "--r", "2", "--k", "3"])
    out = report_dict(capsys.readouterr().out)
    assert rc == 0
    assert out["resilient"] == "true"
    assert "witness" not in out
    # all C(30, 2) pairs of absent edges were tried
    assert out["subsets_checked"] == "435"


def test_resilience_graph_saturates_on_complete_graph(tmp_path, capsys):
    rc = main([
        "resilience", write_graph(tmp_path, complete_graph(3)),
        "--mode", "graph", "--r", "5", "--k", "3",
    ])
    out = report_dict(capsys.readouterr().out)
    assert rc == 0
    assert out["effective_r"] == "0"
    assert out["saturated"] == "true"
    assert out["resilient"] == "true"


def test_resilience_graph_no_saturation_when_complete_graph_fails(tmp_path, capsys):
    g = Graph(4, complete_graph(4).edges - {(0, 1)})
    rc = main(["resilience", write_graph(tmp_path, g), "--mode", "graph", "--r", "5", "--k", "3"])
    out = report_dict(capsys.readouterr().out)
    assert rc == 1
    assert out["effective_r"] == "1"
    assert out["resilient"] == "false"
    assert "saturated" not in out


def test_resilience_graph_requires_k(tmp_path, capsys):
    path = write_graph(tmp_path, classic("petersen"))
    rc = main(["resilience", path, "--mode", "graph", "--r", "1"])
    assert rc == 2
    assert "requires --k" in capsys.readouterr().err


def test_resilience_sat_witness_format(tmp_path, capsys):
    phi = CnfFormula.make(1, ((1,),))
    verdict = is_r_resilient(phi, 1)
    rc = main(["resilience", write_cnf(tmp_path, phi), "--mode", "sat", "--r", "1"])
    out = report_dict(capsys.readouterr().out)
    assert rc == 1
    assert out["mode"] == "sat"
    assert out["num_vars"] == "1"
    assert out["clauses"] == "1"
    assert out["resilient"] == "false"
    assert out["witness"] == "x1=0"
    assert out["restrictions_checked"] == str(verdict.restrictions_checked) == "1"


def test_resilience_sat_positive(tmp_path, capsys):
    phi = blow_up(CnfFormula.make(2, ((1, 2),)), 2)
    verdict = is_r_resilient(phi, 1)
    assert verdict.resilient
    rc = main(["resilience", write_cnf(tmp_path, phi), "--mode", "sat", "--r", "1"])
    out = report_dict(capsys.readouterr().out)
    assert rc == 0
    assert out["resilient"] == "true"
    assert out["restrictions_checked"] == str(verdict.restrictions_checked)


def test_resilience_sat_caps_r_at_num_vars(tmp_path, capsys):
    phi = CnfFormula.make(2, ((1, 2), (-1, 2)))
    rc = main(["resilience", write_cnf(tmp_path, phi), "--mode", "sat", "--r", "9"])
    out = report_dict(capsys.readouterr().out)
    assert out["effective_r"] == "2"
    # fixing both variables can falsify a clause, so the formula is not
    # 2-resilient and the capped check must say so
    assert rc == 1
    assert out["resilient"] == "false"


def test_reduce_blowup_artifact_and_report(tmp_path, capsys):
    phi = CnfFormula.make(2, ((1, -2), (2,)))
    rc = main(["reduce", write_cnf(tmp_path, phi), "--kind", "blowup", "--s", "2"])
    captured = capsys.readouterr()
    assert rc == 0
    assert parse_cnf(captured.out) == blow_up(phi, 2)
    report = report_dict(captured.err)
    assert report["command"] == "reduce"
    assert report["kind"] == "blowup"
    assert report["input_num_vars"] == "2"
    assert report["input_clauses"] == "2"
    assert report["output_num_vars"] == "4"
    assert report["output_clauses"] == "4"
    assert report["output_width"] == "4"
    assert report["output"] == "-"


def test_reduce_blowup_requires_s(tmp_path, capsys):
    rc = main(["reduce", write_cnf(tmp_path, CnfFormula.make(1, ((1,),))), "--kind", "blowup"])
    assert rc == 2
    assert "requires --s" in capsys.readouterr().err


def test_reduce_shrink_to_file(tmp_path, capsys):
    phi = CnfFormula.make(6, ((1, 2, 3, 4, 5, 6), (-1, -2, -3, -4, -5, -6)))
    out_path = tmp_path / "shrunk.cnf"
    rc = main([
        "reduce", write_cnf(tmp_path, phi), "--kind", "shrink", "-o", str(out_path),
    ])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == ""
    assert parse_cnf(out_path.read_text()) == shrink_down(phi)
    report = report_dict(captured.err)
    assert report["output"] == str(out_path)
    assert report["output_width"] == "4"


@pytest.mark.parametrize(
    "argv, reduction",
    [
        (["--kind", "blowup", "--s", "2"], lambda phi: blow_up(phi, 2)),
        (["--kind", "shrink"], shrink_down),
        (["--kind", "chain", "--r", "2"], lambda phi: hardness_chain(2, phi)),
    ],
    ids=["blowup", "shrink", "chain"],
)
def test_reduce_output_dash_is_stdout(tmp_path, monkeypatch, capsys, argv, reduction):
    """-o - writes the artifact to stdout, as - names stdin for the input,
    and leaves no file named -."""
    phi = CnfFormula.make(3, ((1, 2, 3), (-1, -2, 3)))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize_cnf(phi)))
    rc = main(["reduce", "-", "-o", "-"] + argv)
    captured = capsys.readouterr()
    assert rc == 0
    assert parse_cnf(captured.out) == reduction(phi)
    assert report_dict(captured.err)["output"] == "-"
    assert list(tmp_path.iterdir()) == []


def test_reduce_shrink_rejects_narrow_input(tmp_path, capsys):
    rc = main(["reduce", write_cnf(tmp_path, CnfFormula.make(1, ((1,),))), "--kind", "shrink"])
    assert rc == 2
    assert "width" in capsys.readouterr().err


def test_reduce_chain_matches_library(tmp_path, capsys):
    phi = CnfFormula.make(3, ((1, 2, 3),))
    rc = main(["reduce", write_cnf(tmp_path, phi), "--kind", "chain", "--r", "2"])
    captured = capsys.readouterr()
    assert rc == 0
    assert parse_cnf(captured.out) == hardness_chain(2, phi)


def test_reduce_chain_requires_r(tmp_path, capsys):
    rc = main(["reduce", write_cnf(tmp_path, CnfFormula.make(1, ((1,),))), "--kind", "chain"])
    assert rc == 2
    assert "requires --r" in capsys.readouterr().err


def test_reduce_budget_env_exceeded(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RESILIENCE_BUDGET", "100")
    phi = CnfFormula.make(3, ((1, 2), (2, 3), (1, 3), (-1, -2)))
    rc = main(["reduce", write_cnf(tmp_path, phi), "--kind", "blowup", "--s", "4"])
    assert rc == 3
    assert "over the budget" in capsys.readouterr().err


@pytest.mark.parametrize(
    "clauses, argv",
    [
        (((1,), (2,), (3,)), ["--kind", "blowup", "--s", "10000"]),
        (((1, 2, 3), (-1, -2, -3)), ["--kind", "chain", "--r", "20000"]),
    ],
)
def test_budget_exceeded_exits_three(tmp_path, capsys, clauses, argv):
    rc = main(["reduce", write_cnf(tmp_path, CnfFormula.make(3, clauses))] + argv)
    assert rc == 3
    captured = capsys.readouterr()
    assert "over the budget" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, stdin, code, message",
    [
        (["--kind", "blowup"], "p cnf 3 1\n1 2 3 0\n", 2, "blowup requires --s"),
        (["--kind", "blowup", "--s", "400000"], "p cnf 3 1\n1 2 3 0\n", 3, "over the budget"),
        (["--kind", "chain"], "p cnf 3 1\n1 2 3 0\n", 2, "chain requires --r"),
        (["--kind", "chain", "--r", "20000"], "p cnf 3 2\n1 2 3 0\n-1 -2 -3 0\n", 3, "over the budget"),
        (["--kind", "shrink"], "p cnf 1 1\n1 0\n", 2, "width"),
        (["--kind", "to-coloring"], "p cnf 3 1\n1 2 3 0\n", 2, "requires -o"),
        (["--kind", "blowup", "--s", "2", "-o", "{missing}"], "p cnf 3 1\n1 2 3 0\n", 2, "No such file"),
        (["--kind", "to-coloring", "-o", "{missing}"], "p cnf 6 1\n1 2 3 4 5 6 0\n", 2, "No such file"),
        # the sidecar is named after the graph file, so the graph cannot go to stdout
        (["--kind", "to-coloring", "-o", "-"], "p cnf 6 1\n1 2 3 4 5 6 0\n", 2, "requires -o with a file path"),
    ],
)
def test_reduce_failure_leaves_only_the_error_line(tmp_path, monkeypatch, capsys, argv, stdin, code, message):
    """A reduce that exits 2 or 3 writes no partial report and no artifact."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    missing = str(tmp_path / "missing" / "out")
    rc = main(["reduce"] + [arg.format(missing=missing) for arg in argv])
    captured = capsys.readouterr()
    assert rc == code
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and message in captured.err
    assert list(tmp_path.iterdir()) == []


def test_reduce_to_coloring_unwritable_graph_leaves_no_sidecar(tmp_path, monkeypatch, capsys):
    """The graph file is written before its sidecar, so an -o that names a
    directory exits 2 with no .gadgets.json on disk."""
    monkeypatch.setattr("sys.stdin", io.StringIO("p cnf 6 1\n1 2 3 4 5 6 0\n"))
    out_dir = tmp_path / "outdir"
    out_dir.mkdir()
    rc = main(["reduce", "--kind", "to-coloring", "-o", str(out_dir)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["outdir"]
    assert list(out_dir.iterdir()) == []


def test_reduce_to_coloring_unwritable_sidecar_leaves_no_graph(tmp_path, monkeypatch, capsys):
    """A sidecar that cannot be written exits 2 and removes the graph file
    written just before it, so nothing but the error line is left."""
    monkeypatch.setattr("sys.stdin", io.StringIO("p cnf 6 1\n1 2 3 4 5 6 0\n"))
    out = tmp_path / "out.col"
    (tmp_path / "out.col.gadgets.json").mkdir()
    rc = main(["reduce", "--kind", "to-coloring", "-o", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.col.gadgets.json"]


def test_reduce_budget_env_must_be_integer(tmp_path, capsys, monkeypatch):
    path = write_cnf(tmp_path, CnfFormula.make(1, ((1,),)))
    for value, message in (("lots", "must be an integer"), ("-1", "must be >= 0")):
        monkeypatch.setenv("RESILIENCE_BUDGET", value)
        rc = main(["reduce", path, "--kind", "blowup", "--s", "2"])
        assert rc == 2
        assert message in capsys.readouterr().err


def test_reduce_to_coloring_requires_output(tmp_path, capsys):
    phi = blow_up(CnfFormula.make(2, ((1, 2),)), 2)
    rc = main(["reduce", write_cnf(tmp_path, phi), "--kind", "to-coloring"])
    assert rc == 2
    assert "requires -o" in capsys.readouterr().err


def test_reduce_to_coloring_writes_graph_and_sidecar(tmp_path, capsys):
    phi = blow_up(CnfFormula.make(2, ((1, 2), (-1, 2))), 2)
    out_path = tmp_path / "gadgets.col"
    rc = main([
        "reduce", write_cnf(tmp_path, phi), "--kind", "to-coloring", "-o", str(out_path),
    ])
    captured = capsys.readouterr()
    assert rc == 0
    gg = six_cnf_to_graph(phi)
    assert parse_graph(out_path.read_text()) == gg.graph
    sidecar_path = str(out_path) + ".gadgets.json"
    sidecar = json.loads((tmp_path / "gadgets.col.gadgets.json").read_text())
    assert sidecar["base"] == gg.base
    assert sidecar["vertex_count"] == gg.graph.n
    assert sidecar["source_num_vars"] == phi.num_vars
    report = report_dict(captured.err)
    assert report["output_vertices"] == str(gg.graph.n)
    assert report["output_edges"] == str(len(gg.graph.edges))
    assert report["sidecar"] == sidecar_path
    assert report["output"] == str(out_path)


def test_classics_table_rows_are_frozen(capsys):
    rc = main(["classics"])
    captured = capsys.readouterr().out
    rows = [line[len("row="):] for line in captured.splitlines() if line.startswith("row=")]
    assert rc == 0
    assert rows == [
        "petersen k=3 chromatic=3 resilience=2 published>=2 match=true",
        "durer k=3 chromatic=3 resilience=1 published=1 match=true",
        "durer k=4 chromatic=3 resilience=4 published=4 match=true",
        "grotzsch k=4 chromatic=4 resilience=4 published=4 match=true",
        "chvatal k=4 chromatic=4 resilience=3 published=3 match=true",
    ]
    assert "all_match=true" in captured.splitlines()


def test_classics_emits_named_graph_as_dimacs(capsys):
    for name in ("petersen", "clebsch"):
        rc = main(["classics", name])
        text = capsys.readouterr().out
        assert rc == 0
        assert parse_graph(text) == classic(name)


def test_classics_name_accepts_dashes_and_param(capsys):
    rc = main(["classics", "complete-minus-matching", "--param", "3"])
    text = capsys.readouterr().out
    assert rc == 0
    assert parse_graph(text) == classic("complete_minus_matching", 3)


def test_classics_unknown_name(capsys):
    rc = main(["classics", "mystery"])
    assert rc == 2
    assert "unknown classic graph" in capsys.readouterr().err


def test_verify_gadgets_reports_counts(capsys):
    rc = main(["verify-gadgets"])
    out = report_dict(capsys.readouterr().out)
    assert rc == 0
    assert out["command"] == "verify-gadgets"
    assert out["checks_passed"] == "4573"
    assert out["checks_failed"] == "0"
    assert out["ok"] == "true"


def test_verify_gadgets_reports_failures(monkeypatch, capsys):
    report = ContractReport((
        ContractCheck("literal", "survival", "00", True),
        ContractCheck("clause", "survival", "01", False, "edge (1, 2) kills it"),
    ))
    monkeypatch.setattr("rescol.cli.verify_gadget_contracts", lambda: report)
    rc = main(["verify-gadgets"])
    lines = stable_lines(capsys.readouterr().out)
    assert rc == 1
    assert lines == [
        "command=verify-gadgets",
        "checks_passed=1",
        "checks_failed=1",
        "failure=clause survival 01 edge (1, 2) kills it",
        "ok=false",
    ]


PETERSEN = serialize_graph(classic("petersen"))
K4 = serialize_graph(complete_graph(4))


@pytest.mark.parametrize(
    "argv, stdin, code, report",
    [
        (["color", "--k", "3"], PETERSEN, 0, "out"),
        (["color", "--k", "3"], K4, 1, "out"),
        (["resilience", "--mode", "graph", "--k", "3", "--r", "2"], PETERSEN, 0, "out"),
        (["resilience", "--mode", "graph", "--k", "3", "--r", "0"], K4, 1, "out"),
        (["resilience", "--mode", "sat", "--r", "1"], "p cnf 2 1\n1 2 0\n", 0, "out"),
        (["resilience", "--mode", "sat", "--r", "0"], "p cnf 1 2\n1 0\n-1 0\n", 1, "out"),
        (["classics"], "", 0, "out"),
        (["verify-gadgets"], "", 0, "out"),
        (["reduce", "--kind", "blowup", "--s", "2"], "p cnf 2 1\n1 2 0\n", 0, "err"),
        (["reduce", "--kind", "to-coloring", "-o", "{out}"], "p cnf 6 1\n1 2 3 4 5 6 0\n", 0, "err"),
        (["classics", "petersen"], "", 0, None),
        (["color", "--k", "0"], PETERSEN, 2, None),
        (["reduce", "--kind", "blowup", "--s", "10000"], "p cnf 3 3\n1 0\n2 0\n3 0\n", 3, None),
    ],
    ids=[
        "color-0", "color-1", "graph-0", "graph-1", "sat-0", "sat-1", "classics", "verify-gadgets",
        "blowup", "to-coloring", "classics-petersen", "exit-2", "exit-3",
    ],
)
def test_wall_time_commentary(tmp_path, monkeypatch, capsys, argv, stdin, code, report):
    """main ends the command's report stream with one wall-time line and
    writes no '#' line elsewhere: not on an artifact, not after an error."""
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    rc = main([arg.format(out=tmp_path / "out.col") for arg in argv])
    captured = capsys.readouterr()
    assert rc == code
    for name, text in (("out", captured.out), ("err", captured.err)):
        lines = text.splitlines()
        comments = [line for line in lines if line.startswith("#")]
        if name == report:
            assert comments == lines[-1:]
            assert re.fullmatch(r"# wall_time_s=\d+\.\d{3}", comments[0])
        else:
            assert comments == []


class _ReaderLeaves(io.StringIO):
    """A report stream over the descriptor fd whose reader closes the pipe
    once `lines` lines have been written."""

    def __init__(self, lines, fd):
        super().__init__()
        self.lines = lines
        self.fd = fd

    def write(self, text):
        if self.getvalue().count("\n") >= self.lines:
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
        return super().write(text)

    def fileno(self):
        return self.fd


@pytest.mark.parametrize(
    "argv, stdin, lines",
    [
        (["classics"], "", 7),
        (["classics"], "", 2),
        (["verify-gadgets"], "", 4),
        (["color", "--k", "3"], PETERSEN, 6),
        (["classics", "petersen"], "", 0),
    ],
    ids=["classics", "classics-mid-report", "verify-gadgets", "color", "classics-petersen"],
)
def test_closed_report_stream_exits_two(tmp_path, monkeypatch, capsys, argv, stdin, lines):
    """A reader that leaves after the report lines, before the wall-time
    line or the final flush, is an OSError like any other: exit 2 with one
    error line, and stdout is pointed at the null device so the
    interpreter's shutdown flush cannot fail again."""
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        out = _ReaderLeaves(lines, fd)
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        monkeypatch.setattr("sys.stdout", out)
        rc = main(argv)
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert rc == 2
    assert len(out.getvalue().splitlines()) == lines
    assert capsys.readouterr().err == f"error: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n"


def _cli_env(unbuffered=False):
    """The environment for running the module from this checkout's src."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_stdout_pipe_closed_before_the_report_exits_two(unbuffered):
    """The console entry point with its stdout pipe closed before it writes:
    with block buffering the failure surfaced only in the shutdown flush
    (exit 120, 'Exception ignored'), so main flushes inside its error
    boundary."""
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "rescol.cli", "classics"],
            stdout=write_end, stderr=subprocess.PIPE, env=_cli_env(unbuffered), text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"error: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}"]


def test_closed_report_stderr_exits_two(tmp_path, monkeypatch, capsys):
    """reduce reports on stderr, so a reader that leaves stderr after the
    first report line takes the error line with it: exit 2 all the same,
    stderr pointed at the null device, and the artifact intact on stdout."""
    phi = CnfFormula.make(3, ((1, 2, 3),))
    fd = os.open(tmp_path / "stderr", os.O_WRONLY | os.O_CREAT)
    try:
        err = _ReaderLeaves(1, fd)
        monkeypatch.setattr("sys.stdin", io.StringIO(serialize_cnf(phi)))
        monkeypatch.setattr("sys.stderr", err)
        rc = main(["reduce", "--kind", "blowup", "--s", "2"])
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert rc == 2
    assert err.getvalue() == "command=reduce\n"
    assert parse_cnf(capsys.readouterr().out) == blow_up(phi, 2)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_stderr_pipe_closed_before_the_report_exits_two(unbuffered):
    """reduce's report stream is stderr, where its error line goes too: with
    the reader gone, neither write may turn exit 2 into 1 or 120."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "rescol.cli", "reduce", "--kind", "blowup", "--s", "2"],
            input="p cnf 3 1\n1 2 3 0\n", stdout=subprocess.DEVNULL, stderr=write_end,
            env=_cli_env(unbuffered), text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "closed",
    [
        ["sh", "-c", 'exec "$@" 2>&-', "sh", sys.executable, "-m", "rescol.cli"],
        [sys.executable, "-c", "import os, sys; os.close(2); from rescol.cli import main; sys.exit(main())"],
    ],
    ids=["before-start-up", "after-start-up"],
)
@pytest.mark.parametrize(
    "argv, stdin, code",
    [
        (["reduce", "--kind", "blowup", "--s", "10000"], "p cnf 3 3\n1 0\n2 0\n3 0\n", 3),
        (["color", "--k", "0"], PETERSEN, 2),
    ],
    ids=["exit-3", "exit-2"],
)
def test_closed_stderr_keeps_the_exit_code(argv, stdin, code, closed):
    """With descriptor 2 closed the error line cannot be written, and the
    exit code is still 3 or 2, never 1, which would read as a verdict.
    Closed before start-up, sys.stderr is None; closed after, it is a stream
    over a free descriptor, which the null device then takes."""
    proc = subprocess.run(
        closed + argv, input=stdin, stdout=subprocess.PIPE, env=_cli_env(), text=True, timeout=60,
    )
    assert proc.returncode == code
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "redirect, argv, stdin",
    [
        (">&-", ["color", "--k", "3"], PETERSEN),
        (">&-", ["classics", "petersen"], ""),
        ("2>&- >/dev/null", ["reduce", "--kind", "blowup", "--s", "2"], "p cnf 3 1\n1 2 3 0\n"),
        ("<&-", ["color", "--k", "3"], None),
        ("<&-", ["resilience", "--mode", "sat", "--r", "0"], None),
        ("<&-", ["reduce", "--kind", "blowup", "--s", "2"], None),
    ],
    ids=["color-report", "classics-artifact", "reduce-report", "color-stdin", "resilience-stdin", "reduce-stdin"],
)
def test_stream_closed_before_start_up_exits_two(redirect, argv, stdin):
    """A report or artifact bound for a descriptor closed before start-up
    (its stream None) cannot be written, so the run exits 2 as it does for
    any closed stream, never 0 with the output dropped.  An input read from
    a stdin closed before start-up cannot be read, so that run exits 2 too,
    never 1 as for a negative verdict."""
    proc = subprocess.run(
        ["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m", "rescol.cli"] + argv,
        input=stdin, stderr=subprocess.PIPE, env=_cli_env(), text=True, timeout=60,
    )
    assert proc.returncode == 2
    if "2>&-" not in redirect:
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")


@pytest.mark.parametrize("encoding", [None, "latin-1"], ids=["locale", "latin-1"])
@pytest.mark.parametrize("source", ["pipe", "dash", "file"])
def test_input_that_is_not_utf8_exits_two(tmp_path, source, encoding):
    """Input bytes are decoded as strict UTF-8 whether they come from a file
    or from stdin.  Under the C locale the interpreter would decode stdin
    with surrogateescape, and under PYTHONIOENCODING=latin-1 it would take
    any byte, so a bad byte in a comment would go unnoticed."""
    data = b"c \xff\np edge 2 1\ne 1 2\n"
    path = tmp_path / "bad.col"
    path.write_bytes(data)
    env = {key: value for key, value in _cli_env().items() if key != "PYTHONIOENCODING"}
    env["LC_ALL"] = "C"
    if encoding is not None:
        env["PYTHONIOENCODING"] = encoding
    argv = {"pipe": [], "dash": ["-"], "file": [str(path)]}[source]
    proc = subprocess.run(
        [sys.executable, "-m", "rescol.cli", "color", "--k", "2"] + argv,
        input=None if source == "file" else data, capture_output=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == b""
    name = str(path) if source == "file" else "stdin"
    lines = proc.stderr.decode("utf-8").splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {name} is not UTF-8 text: ")


@pytest.mark.parametrize("error, code", [(InputError, 2), (BudgetExceededError, 3)])
def test_failure_part_way_leaves_no_partial_record(monkeypatch, capsys, error, code):
    """main writes the report only after the command returns, so a classics
    table that fails at its third row prints no row at all."""
    rows = []

    def third_row_fails(g):
        rows.append(g)
        if len(rows) == 3:
            raise error("third row failed")
        return chromatic_number(g)

    monkeypatch.setattr("rescol.cli.chromatic_number", third_row_fails)
    rc = main(["classics"])
    captured = capsys.readouterr()
    assert rc == code
    assert captured.out == ""
    assert captured.err == "error: third row failed\n"


def test_missing_file_is_a_usage_error(capsys):
    rc = main(["color", "/nonexistent/graph.col", "--k", "3"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_input_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("p edge oops\n"))
    rc = main(["color", "--k", "3"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# an option the parser does not define exits through argparse too
@pytest.mark.parametrize("argv", [[], ["--threads", "2", "classics"]])
def test_missing_subcommand_exits_via_argparse(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["color", "{graph}", "--k", "0"],
        ["resilience", "{graph}", "--mode", "graph", "--r", "-1", "--k", "3"],
        ["resilience", "{graph}", "--mode", "graph", "--r", "1", "--k", "0"],
        ["resilience", "{cnf}", "--mode", "sat", "--r", "-1"],
        ["reduce", "{cnf}", "--kind", "blowup", "--s", "0"],
        ["color", "{self_loop}", "--k", "3"],
        ["color", "{out_of_range}", "--k", "3"],
        ["color", "{binary}", "--k", "3"],
        ["resilience", "{binary}", "--mode", "sat", "--r", "1"],
        ["reduce", "{cnf}", "--kind", "chain", "--r", "1"],
        ["reduce", "{wide}", "--kind", "chain", "--r", "2"],
        ["reduce", "{narrow}", "--kind", "shrink"],
        ["reduce", "{wide}", "--kind", "to-coloring", "-o", "{out}"],
        ["classics", "--param", "3"],
        ["classics", "petersen", "--param", "3"],
        ["classics", "complete"],
        ["classics", "complete", "--param", "0"],
        ["classics", "complete-minus-matching", "--param", "1"],
        ["classics", "complete-plus-isolated", "--param", "0"],
    ],
)
def test_bad_input_exits_two(tmp_path, capsys, argv):
    files = {
        "graph": write_graph(tmp_path, classic("petersen")),
        "cnf": write_cnf(tmp_path, CnfFormula.make(2, [(1, 2)])),
        "narrow": write_cnf(tmp_path, CnfFormula.make(1, [(1,)]), "narrow.cnf"),
        "wide": write_cnf(tmp_path, CnfFormula.make(7, [tuple(range(1, 8))]), "wide.cnf"),
        "out": tmp_path / "out.col",
        "self_loop": tmp_path / "loop.col",
        "out_of_range": tmp_path / "range.col",
        "binary": tmp_path / "binary.bin",
    }
    files["self_loop"].write_text("p edge 3 1\ne 2 2\n")
    files["out_of_range"].write_text("p edge 3 1\ne 1 4\n")
    files["binary"].write_bytes(b"p edge 3 1\n\xff\xfe\x00\x81\n")
    rc = main([arg.format(**files) for arg in argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error:" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "target,argv",
    [
        ("is_k_colorable", ["color", "{graph}", "--k", "3"]),
        ("shrink_down", ["reduce", "{cnf}", "--kind", "shrink"]),
        ("hardness_chain", ["reduce", "{cnf}", "--kind", "chain", "--r", "2"]),
        ("six_cnf_to_graph", ["reduce", "{cnf}", "--kind", "to-coloring", "-o", "{out}"]),
        ("classic", ["classics", "petersen"]),
        (
            "is_r_resiliently_k_colorable",
            ["resilience", "{graph}", "--mode", "graph", "--r", "1", "--k", "3"],
        ),
        ("is_r_resilient", ["resilience", "{cnf}", "--mode", "sat", "--r", "1"]),
        ("blow_up", ["reduce", "{cnf}", "--kind", "blowup", "--s", "2"]),
        ("max_graph_resilience", ["classics"]),
        ("verify_gadget_contracts", ["verify-gadgets"]),
    ],
    ids=[
        "color", "shrink", "chain", "to-coloring", "classic",
        "resilience-graph", "resilience-sat", "blowup", "classics-table", "verify-gadgets",
    ],
)
def test_library_value_error_is_not_a_usage_error(tmp_path, monkeypatch, target, argv):
    def broken(*args, **kwargs):
        raise ValueError("internal failure")

    files = {
        "graph": write_graph(tmp_path, classic("petersen")),
        "cnf": write_cnf(tmp_path, CnfFormula.make(2, [(1, 2)])),
        "out": tmp_path / "out.col",
    }
    monkeypatch.setattr(f"rescol.cli.{target}", broken)
    with pytest.raises(ValueError, match="internal failure"):
        main([arg.format(**files) for arg in argv])


def test_input_errors_are_input_error():
    assert issubclass(InputError, ValueError)
    assert issubclass(ParseError, InputError)
    assert rescol.InputError is InputError
    # one budget class, re-exported where it was first defined
    assert rescol.BudgetExceededError is rescol.reductions.BudgetExceededError is BudgetExceededError
    assert issubclass(BudgetExceededError, RuntimeError)
    assert not issubclass(BudgetExceededError, InputError)
    g = classic("petersen")
    phi = CnfFormula.make(2, [(1, 2)])
    wide = CnfFormula.make(7, [tuple(range(1, 8))])
    gg = six_cnf_to_graph(CnfFormula.make(1, [(1,) * 6]))
    checks = [
        lambda: is_k_colorable(g, 0),
        lambda: extend_coloring(g, 0, {}),
        lambda: extend_coloring(Graph.from_edges(3, [(0, 1)]), 3, {5: 0}),
        lambda: extend_coloring(Graph.from_edges(3, [(0, 1)]), 3, {0: 3}),
        lambda: greedy_color_bounded_degree(g, 0),
        lambda: is_r_resiliently_k_colorable(g, -1, 3),
        lambda: is_r_resiliently_k_colorable(g, 1, 0),
        lambda: max_graph_resilience(g, 0),
        lambda: max_graph_resilience(complete_graph(4), 3),
        lambda: max_sat_resilience(CnfFormula.make(1, [(1,), (-1,)])),
        lambda: chromatic_number(Graph(0, frozenset())),
        lambda: is_r_resilient(phi, -1),
        lambda: blow_up(phi, 0),
        lambda: shrink_down(CnfFormula.make(1, [(1,)])),
        lambda: hardness_chain(1, phi),
        lambda: hardness_chain(2, wide),
        lambda: three_sat_to_coloring(wide),
        lambda: six_cnf_to_graph(wide),
        lambda: six_cnf_to_graph(CnfFormula(1, ((),))),
        lambda: restrict(phi, Restriction(((3, True),))),
        lambda: serialize_cnf(CnfFormula(1, ((),))),
        lambda: decode_coloring(gg, [0] * gg.graph.n),
        lambda: classic("moebius"),
        lambda: classic("petersen", 3),
        lambda: classic("complete"),
        lambda: complete_graph(0),
        lambda: complete_minus_matching(1),
        lambda: complete_plus_isolated(0),
    ]
    for check in checks:
        with pytest.raises(InputError):
            check()
    # constructor invariants and checks of values the library builds itself
    # stay plain ValueErrors: a failure there is an internal error
    internal = [
        lambda: Graph(-1, frozenset()),
        lambda: normalize_edge(1, 1),
        lambda: CnfFormula(1, ((2,),)),
        lambda: add_edges(complete_graph(3), [(0, 1)]),
        lambda: Restriction(((2, True), (1, False))),
    ]
    for check in internal:
        with pytest.raises(ValueError) as excinfo:
            check()
        assert not isinstance(excinfo.value, InputError)
