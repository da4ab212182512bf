"""rescol benchmark: seeded exact-search workloads, timed end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload graph_resilience --seed 1 --seconds 30 --trace 0

The program under test is imported from ``src/`` of the same checkout.  A run
repeats seeded passes of items until ``--seconds`` have elapsed, then prints
one metric per line and, as the last line, a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs a fixed number of passes untraced and
then again traced, and reports the per-layer metrics.  Item and set-up times
are scaled by a reference workload timed beside them (``reference.py``), so
that the host's changes of speed cancel.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from reference import HostClock
from tracing import Tracer
from workloads import KINDS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 12

UNITS = {
    "items_per_s": "items/s",
    "item_s_p50": "s",
    "item_s_p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "graphs.parse_s": "s",
    "graphs.serialize_s": "s",
    "graphs.bytes_parsed": "bytes",
    "coloring.solve_s": "s",
    "coloring.calls": "count",
    "coloring.vertices_per_s": "vertices/s",
    "coloring.chromatic_s": "s",
    "resilience.max_s": "s",
    "resilience.check_s": "s",
    "resilience.subsets_checked": "count",
    "resilience.subsets_per_s": "subsets/s",
    "resilience.witness_frac": "ratio",
    "sat.scan_s": "s",
    "sat.restrictions_checked": "count",
    "sat.restrictions_per_s": "restrictions/s",
    "sat.solve_s": "s",
    "sat.parse_s": "s",
    "sat.serialize_s": "s",
    "reductions.blowup_s": "s",
    "reductions.gadget_s": "s",
    "reductions.chain_s": "s",
    "reductions.decode_s": "s",
    "reductions.verify_s": "s",
    "reductions.clauses_out": "count",
    "reductions.vertices_out": "count",
    "cli.main_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tally:
    """Per-item wall times, the reference sample next to each, and check
    outcomes of one measured stretch."""

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock
        self.raw: list[float] = []
        self.marks: list[int] = []
        self.attempted = 0
        self.failed = 0

    def times(self) -> list[float]:
        """Item times in reference-host seconds; samples the reference once
        more so that the last item has a sample after it."""
        self.clock.sample()
        return [self.clock.scale(t, mark) for t, mark in zip(self.raw, self.marks)]


def load_rescol(workload):
    """Import rescol from this checkout and warm the workload up; return the
    package and the seconds from the start of the import until then."""
    sys.path.insert(0, str(ROOT / "src"))
    start = perf_counter()
    import rescol

    if not Path(rescol.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"rescol was imported from {rescol.__file__}, outside this checkout")
    workload.warm_up(rescol)
    return rescol, perf_counter() - start


def scaled_setup(seconds: float) -> float:
    """A set-up time in reference-host seconds, from reference samples taken
    right after it in the same process."""
    clock = HostClock()
    for _ in range(5):
        clock.sample()
    return clock.scale(seconds, 2)


def probe_setup(workload_name: str) -> float:
    """Set-up time measured in a fresh interpreter, in reference-host seconds."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload_name],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.split()[-1])


def pass_rng(workload_name: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload_name}/{seed}/{index}")


def run_pass(api, workload, seed: int, index: int, tally: Tally, tracer: Tracer | None) -> None:
    for case in workload.make_pass(api, pass_rng(workload.name, seed, index), index):
        labels, run, check = KINDS[case.kind]

        def timed(label, fn, *args):
            mark = tally.clock.mark()
            if tracer is not None:
                tracer.item = f"{case.id}.{label}"
            start = perf_counter()
            out = fn(*args)
            tally.raw.append(perf_counter() - start)
            tally.marks.append(mark)
            return out

        tally.attempted += len(labels)
        try:
            verdicts = check(case.data, run(api, case.data, timed))
        except Exception as exc:  # an item that raises counts as failed
            print(f"# item {case.id} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            tally.failed += len(labels)
            continue
        for label in labels:
            if not verdicts[label]:
                print(f"# item {case.id}.{label} failed its check", file=sys.stderr)
                tally.failed += 1


def run_cli(api, argv: list[str], stdin_text: str) -> tuple[int, str, str]:
    """One in-process ``rescol.cli.main`` call with the given stdin."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = api.cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def measure(api, workload, seed: int, seconds: float, setups: list[float]) -> tuple[Tally, dict]:
    """Passes until ``seconds`` have elapsed.  A set-up probe runs after
    each pass, so the probes sample the machine across the whole run."""
    tally = Tally(HostClock())
    start = perf_counter()
    index = 0
    while index == 0 or perf_counter() - start < seconds:
        run_pass(api, workload, seed, index, tally, None)
        index += 1
        if len(setups) <= SETUP_PROBES:
            setups.append(probe_setup(workload.name))
    while len(setups) <= SETUP_PROBES:
        setups.append(probe_setup(workload.name))
    times = tally.times()
    metrics = {
        "items_per_s": len(times) / sum(times),
        "item_s_p50": statistics.median(times),
        "item_s_p90": p90(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = tally.raw
    print(f"# passes={index} items={len(times)} failed={tally.failed} error_rate={tally.failed / tally.attempted}")
    print(
        f"# unscaled wall clock: items_per_s={len(raw) / sum(raw)!r} item_s_p50={statistics.median(raw)!r}"
        f" item_s_p90={p90(raw)!r}; reference median={tally.clock.ref_median()!r} s"
        f" over {len(tally.clock.samples)} samples"
    )
    return tally, metrics


def p90(times: list[float]) -> float:
    return statistics.quantiles(times, n=10, method="inclusive")[-1]


def measure_traced(api, workload, seed: int, seconds: float) -> tuple[Tally, dict]:
    """The same fixed passes untraced, then traced, then one CLI call."""
    import rescol.cli  # noqa: F401  (the tracer wraps cli.main)

    passes = max(1, round(seconds / 2 / workload.pass_s))
    clock = HostClock()
    plain, traced = Tally(clock), Tally(clock)
    for index in range(passes):
        run_pass(api, workload, seed, index, plain, None)
    with Tracer() as tracer:
        for index in range(passes):
            run_pass(api, workload, seed, index, traced, tracer)
        tracer.item = "cli"
        cases = workload.make_pass(api, pass_rng(workload.name, seed, 0), 0)
        traced.attempted += 1
        try:
            agrees = workload.cli_check(api, cases, lambda argv, text: run_cli(api, argv, text))
        except Exception as exc:  # a CLI call that raises counts as failed
            print(f"# the CLI check raised {type(exc).__name__}: {exc}", file=sys.stderr)
            agrees = False
        if not agrees:
            print("# the CLI report disagreed with the library result", file=sys.stderr)
            traced.failed += 1
    tracer.write(ROOT / ".bench_out" / f"trace-{workload.name}-seed{seed}.jsonl")
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_frac"] = sum(traced.times()) / sum(plain.times()) - 1
    plain.attempted += traced.attempted
    plain.failed += traced.failed
    print(f"# passes={passes} spans={len(tracer.spans)} failed={plain.failed} error_rate={plain.failed / plain.attempted}")
    return plain, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    try:
        api, setup = load_rescol(workload)
    except ImportError as exc:
        print(f"error: cannot import rescol from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(scaled_setup(setup)))
        return 0

    if args.trace:
        tally, metrics = measure_traced(api, workload, args.seed, args.seconds)
    else:
        tally, metrics = measure(api, workload, args.seed, args.seconds, [scaled_setup(setup)])

    for name, value in metrics.items():
        print(f"{name} {value!r} {UNITS[name]}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
