"""Spans around every call into rescol's layers, recorded from outside.

``Tracer`` wraps the public functions listed in ``TRACED`` and rebinds the
wrapper wherever rescol's modules hold the original, so calls from one
layer into another are spans too.  Spans stay in memory as (name, start,
end, parent span, item id, facts) and are written out once, at the end.
A layer's self time is its span's duration minus the child spans it covers.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

TRACED = {
    "graphs": ("parse_graph", "serialize_graph"),
    "coloring": ("is_k_colorable", "extend_coloring", "chromatic_number"),
    "resilience": ("is_r_resiliently_k_colorable", "max_graph_resilience"),
    "sat": ("parse_cnf", "serialize_cnf", "is_satisfiable", "is_r_resilient"),
    "reductions": (
        "blow_up",
        "three_sat_to_coloring",
        "six_cnf_to_graph",
        "hardness_chain",
        "decode_coloring",
        "verify_gadget_contracts",
    ),
    "cli": ("main",),
}


_REDUCTION_OUTPUT = {
    "reductions.blow_up": "clauses",
    "reductions.hardness_chain": "clauses",
    "reductions.three_sat_to_coloring": "vertices",
    "reductions.six_cnf_to_graph": "vertices",
}


# span name -> the numbers a layer metric needs, taken from (args, result)
# while the span closes, so no span keeps a large argument or result alive
def _facts(name: str, args, result):
    if name == "graphs.parse_graph":
        return len(args[0].encode())
    if name == "coloring.is_k_colorable":
        return args[0].n
    if name == "resilience.is_r_resiliently_k_colorable":
        return result.subsets_checked, result.witness is not None
    if name == "sat.is_r_resilient":
        return result.restrictions_checked
    if _REDUCTION_OUTPUT.get(name) == "clauses":
        return len(result.clauses)
    if _REDUCTION_OUTPUT.get(name) == "vertices":
        return result.graph.n
    return None


class Tracer:
    """Context manager that installs the wrappers on entry and removes them
    on exit.  Set ``item`` before each call to tag the spans it opens."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.item = ""
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            facts = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                facts = _facts(name, args, result)
                return result
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.item, facts)

        return traced

    def __enter__(self) -> Tracer:
        modules = [m for key, m in list(sys.modules.items()) if key == "rescol" or key.startswith("rescol.")]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"rescol.{layer}")
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, item, facts in self.spans:
                fh.write(json.dumps([name, start, end, parent, item, facts]) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics over the item spans; CLI spans count only
        toward ``cli.main_s``, the duration of the in-process CLI calls."""
        time_in: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        facts: dict[str, list] = defaultdict(list)
        reductions_out: dict[str, int] = defaultdict(int)
        cli_s = 0.0
        for span, own in zip(self.spans, self.self_times()):
            name, start, end, parent, item, fact = span
            if name == "cli.main":
                cli_s += end - start
            if item == "cli":
                continue
            time_in[name] += own
            calls[name] += 1
            if fact is not None:
                facts[name].append(fact)
            # outputs of outermost reductions only, not of their inner steps
            top = parent < 0 or not self.spans[parent][0].startswith("reductions.")
            if top and name in _REDUCTION_OUTPUT and fact is not None:
                reductions_out[_REDUCTION_OUTPUT[name]] += fact

        def per_s(count: float, seconds: float) -> float:
            return count / seconds if seconds > 0 else 0.0

        solve_s = time_in["coloring.is_k_colorable"] + time_in["coloring.extend_coloring"]
        checks = facts["resilience.is_r_resiliently_k_colorable"]
        subsets = sum(count for count, _ in checks)
        restrictions = sum(facts["sat.is_r_resilient"])
        return {
            "graphs.parse_s": time_in["graphs.parse_graph"],
            "graphs.serialize_s": time_in["graphs.serialize_graph"],
            "graphs.bytes_parsed": sum(facts["graphs.parse_graph"]),
            "coloring.solve_s": solve_s,
            "coloring.calls": calls["coloring.is_k_colorable"] + calls["coloring.extend_coloring"],
            "coloring.vertices_per_s": per_s(
                sum(facts["coloring.is_k_colorable"]), time_in["coloring.is_k_colorable"]
            ),
            "coloring.chromatic_s": time_in["coloring.chromatic_number"],
            "resilience.max_s": time_in["resilience.max_graph_resilience"],
            "resilience.check_s": time_in["resilience.is_r_resiliently_k_colorable"],
            "resilience.subsets_checked": subsets,
            "resilience.subsets_per_s": per_s(subsets, time_in["resilience.is_r_resiliently_k_colorable"]),
            "resilience.witness_frac": per_s(sum(found for _, found in checks), len(checks)),
            "sat.scan_s": time_in["sat.is_r_resilient"],
            "sat.restrictions_checked": restrictions,
            "sat.restrictions_per_s": per_s(restrictions, time_in["sat.is_r_resilient"]),
            "sat.solve_s": time_in["sat.is_satisfiable"],
            "sat.parse_s": time_in["sat.parse_cnf"],
            "sat.serialize_s": time_in["sat.serialize_cnf"],
            "reductions.blowup_s": time_in["reductions.blow_up"],
            "reductions.gadget_s": time_in["reductions.three_sat_to_coloring"]
            + time_in["reductions.six_cnf_to_graph"],
            "reductions.chain_s": time_in["reductions.hardness_chain"],
            "reductions.decode_s": time_in["reductions.decode_coloring"],
            "reductions.verify_s": time_in["reductions.verify_gadget_contracts"],
            "reductions.clauses_out": reductions_out["clauses"],
            "reductions.vertices_out": reductions_out["vertices"],
            "cli.main_s": cli_s,
        }
