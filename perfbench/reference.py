"""A fixed reference kernel that tracks how fast the host runs right now.

The benchmark runs on a shared host whose speed swings by about 1.5x in
phases of tens of seconds to minutes; a whole 40 s run can fall into a
fast or a slow phase.  Timing this kernel between the program's calls,
and reporting the program's stage times in units of the kernel's time
(``ref``), cancels most of that swing.  The kernel uses no arcroute code,
so no change to the program can move it.

Its mix follows the program's: a pure-Python breadth-first search with
numpy scalar access (the builder's walks and BFS guard), small n^2 numpy
passes (the intersection graph, APSP and verify kernel), a JSON round trip
(the scheme file) and dict, tuple and sort churn (the per-call Python work
of small models).  Of the mixes tried, this one cancelled the host's
swings best on both the dense and the small-model workloads.
"""

from __future__ import annotations

import json
import time
from collections import deque

import numpy as np

RING_N = 160
MATRIX_N = 100
MATRIX_PASSES = 3
JSON_ROWS = 600
DICT_ENTRIES = 1500
# a new sample is taken when this much time has passed since the last one
SAMPLE_SPACING_S = 0.05

_NEIGHBOURS = [np.array([(i + d) % RING_N for d in (-2, -1, 1, 2)])
               for i in range(RING_N)]
_rng = np.random.default_rng(20120219)
_INTS = _rng.integers(0, 1000, size=(MATRIX_N, MATRIX_N))
_FLOATS = _rng.random((MATRIX_N, MATRIX_N))
_ROWS = [{"src": i, "dst": (7 * i) % JSON_ROWS, "start": i % 13, "length": i % 5}
         for i in range(JSON_ROWS)]


def kernel() -> int:
    """One pass of the fixed mix; returns a checksum so nothing is skipped."""
    total = 0
    for source in range(0, RING_N, 40):
        dist = np.full(RING_N, -1, dtype=np.int64)
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            du = dist[u] + 1
            for v in _NEIGHBOURS[u]:
                if dist[v] == -1:
                    dist[v] = du
                    queue.append(int(v))
        total += int(dist.sum())
    for _ in range(MATRIX_PASSES):
        same = (_INTS[:, :, None] % 5 == _INTS[:, None, :8] % 5).sum()
        near = np.minimum(_FLOATS, _FLOATS.T).argsort(axis=1)
        total += int(same) + int(near[0, 0])
    text = json.dumps({"rows": _ROWS})
    total += len(json.loads(text)["rows"])
    table = {(i, i % 7): [i, str(i)] for i in range(DICT_ENTRIES)}
    total += sorted(table.items(), key=lambda kv: -kv[1][0])[0][1][0]
    return total


def measure() -> float:
    """Seconds one kernel pass takes now (the faster of two passes)."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class ReferenceClock:
    """Reference samples taken between the stages of one repetition.

    ``tick`` takes a sample when ``SAMPLE_SPACING_S`` has passed since the
    last one ended, so a stage of a large model is bracketed by its own two
    samples and a run of small models gets one every few models.  ``close`` takes a last sample and converts each stage time of
    the repetition into reference units: the time divided by the mean of
    the last sample before the stage and the first one after it.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []  # (start, end, s)
        self._sample()

    def _sample(self) -> None:
        start = time.perf_counter()
        seconds = measure()
        self.samples.append((start, time.perf_counter(), seconds))

    def tick(self) -> None:
        if time.perf_counter() - self.samples[-1][1] >= SAMPLE_SPACING_S:
            self._sample()

    def around(self, t0: float, t1: float) -> float:
        """Mean reference time of the samples bracketing [t0, t1]."""
        before = [s for start, end, s in self.samples if end <= t0]
        after = [s for start, end, s in self.samples if start >= t1]
        near = before[-1:] + after[:1]
        return sum(near) / len(near)

    def close(self, runs) -> None:
        """Fill ``ref`` of every run of the repetition."""
        self._sample()
        for run in runs:
            run.ref = {stage: run.times[stage] / self.around(*window)
                       for stage, window in run.windows.items()}

    @property
    def seconds(self) -> float:
        """Mean reference time over the repetition."""
        return sum(s for _, _, s in self.samples) / len(self.samples)
