"""Host speed, measured by a fixed pure-Python reference beside the items.

On a shared virtual machine the processor's speed changes under the
benchmark: the same refutation takes 75 ms in one second and 150 ms a few
seconds later, and the slow phases last from seconds to minutes.  A
30-second run cannot average that out, so ten runs of the same code spread
by 20-30%.

``HostClock`` therefore times a fixed reference workload between items, at
most every ``SAMPLE_EVERY_S`` seconds, and scales each item's wall time by
``REF_S / t_ref``, where ``t_ref`` is the median of the reference times
taken just before and just after it.  The scaled figure reads as seconds on
a host where the reference takes ``REF_S``.  The reference imports nothing
from rescol, so a change to the program moves the items and not the
reference.  It mixes the two kinds of work the workloads do: a set-based
backtracking search, like the solvers' inner loops, and sweeps over
3000-bit integer masks, like the coloring core's neighbour sets.  On the
host described in README.md, item time over reference time stayed within
+-2% across 7-second windows while the raw item time moved by +-20%.
"""
from __future__ import annotations

import random
import statistics
from time import perf_counter

# median reference time on the host described in README.md, in seconds
REF_S = 0.004
# often enough to follow the host's changes of speed, which last seconds;
# a sample costs about 4 ms, so at most 4% of a run
SAMPLE_EVERY_S = 0.1

_N = 12
_EDGES = [(i, (i + 1) % _N) for i in range(_N)] + [(i, (i + 5) % _N) for i in range(0, _N, 2)]
_ADJ: list[list[int]] = [[] for _ in range(_N)]
for _u, _v in _EDGES:
    _ADJ[_u].append(_v)
    _ADJ[_v].append(_u)
_MASKS = [random.Random(f"reference/{i}").getrandbits(3000) for i in range(64)]


def _count_colorings(colors: list[int], i: int) -> int:
    if i == _N:
        return 1
    used = {colors[u] for u in _ADJ[i]}
    total = 0
    for c in range(3):
        if c not in used:
            colors[i] = c
            total += _count_colorings(colors, i + 1)
    colors[i] = -1
    return total


def _mask_sweeps() -> int:
    acc = 0
    for a in _MASKS:
        for b in _MASKS[:40]:
            acc += ((a & b) >> 7 | a).bit_count()
    return acc


def reference() -> tuple[int, int]:
    """The fixed reference workload; its result never changes."""
    return _count_colorings([-1] * _N, 0), _mask_sweeps()


class HostClock:
    """Reference samples taken between items, and the scaling they give."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = float("-inf")
        self._expected = reference()

    def sample(self) -> None:
        start = perf_counter()
        got = reference()
        end = perf_counter()
        if got != self._expected:
            raise RuntimeError("the reference workload changed its result")
        self.samples.append(end - start)
        self._last = end

    def mark(self) -> int:
        """Call just before an item: samples the reference if the last
        sample is older than ``SAMPLE_EVERY_S``; returns the latest sample's
        index."""
        if perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()
        return len(self.samples) - 1

    def scale(self, seconds: float, mark: int) -> float:
        """An item's wall time in reference-host seconds, from the samples
        at ``mark - 1``, ``mark`` and ``mark + 1``.  Take one last sample
        after the final item before scaling."""
        near = self.samples[max(0, mark - 1) : mark + 2]
        return seconds * REF_S / statistics.median(near)

    def ref_median(self) -> float:
        return statistics.median(self.samples)
