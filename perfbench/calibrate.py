"""Machine-speed calibration interleaved with the measured work.

On a shared machine the speed of one core drifts by tens of percent over
seconds to minutes (other tenants' memory traffic, frequency changes, a busy
sibling thread), and interpreter-bound work swings more than memory-bound
numpy work. So the measure process runs a fixed calibration unit at
operation boundaries, spending about ``SHARE`` of the measured time on it,
and every timing metric is reported at reference speed: raw time divided by
the unit's slowness. Raw values are recorded alongside.

A unit has four timed parts: ``elementwise`` (masked softmax on an N = 300
square), ``matmul`` (attention-size products), ``small_numpy`` (many calls on
tiny arrays, like tape bookkeeping and input generation) and ``python``
(dicts, strings and sorting, like parsing). A unit's slowness is the mean
over its parts of part time / ``REFERENCE_S`` (1.0 = the reference machine;
the constants only scale the reported numbers). Weighting the parts to match
each workload tracked the workloads no better than this equal mix.

The unit is kept apart from the state of the program it runs inside: the
cyclic garbage collector is off while it runs (so a collection set off by the
program's live heap is not charged to the unit, and the unit's own objects,
all freed before it ends, leave the program's collection schedule as it was);
its numpy parts write into buffers allocated once (so no part's time depends
on how the program left the allocator); and it reads all its arrays once,
untimed, before the timed parts (so the cache misses caused by the program's
working set evicting the unit's data are not charged to the unit either).
Raw values stay in the record, and compare.py flags a metric whose raw and
reference-speed changes disagree in sign.
"""

from __future__ import annotations

import gc
import time

import numpy as np

REFERENCE_S = {"elementwise": 1.5e-3, "matmul": 0.4e-3, "small_numpy": 0.9e-3, "python": 0.5e-3}
SHARE = 0.05
WINDOW_S = 2.0  # an operation's local slowness averages the units this close to its end


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._square = rng.random((300, 300))
        self._x = rng.random((40, 140))
        self._w = rng.random((140, 140))
        self._v = rng.random(3)
        self._a = np.empty_like(self._square)
        self._mask = np.empty(self._square.shape, dtype=bool)
        self._rowsum = np.empty((300, 1))
        self._h = np.empty((40, 140))
        self.unit_value: list[float] = []  # slowness of each unit
        self.unit_end_ns: list[int] = []
        self.spent_ns = 0

    def _touch(self):
        for arr in (self._square, self._a, self._mask, self._x, self._w, self._h):
            arr.sum()

    def _elementwise(self):
        m, a = self._square, self._a
        np.less_equal(m, 0.5, out=self._mask)
        np.subtract(m, 1.0, out=a)
        np.copyto(a, -np.inf, where=self._mask)
        np.exp(a, out=a)
        np.sum(a, axis=1, keepdims=True, out=self._rowsum)
        np.divide(a, self._rowsum, out=a)
        return np.multiply(a, m, out=a)

    def _matmul(self):
        h = self._h
        for _ in range(12):
            np.matmul(self._x, self._w, out=h)
            np.maximum(h, 0.0, out=h)
        return h

    def _small_numpy(self):
        v = self._v
        for _ in range(300):
            u = v / np.linalg.norm(v)
            u = u * 1.5 + v
        return u

    def _python(self):
        for _ in range(4):
            table = {i: (str(i), float(i)) for i in range(400)}
            ranked = sorted(table.items(), key=lambda kv: -kv[1][1])
        return ranked

    def unit(self) -> None:
        parts = {"elementwise": self._elementwise, "matmul": self._matmul,
                 "small_numpy": self._small_numpy, "python": self._python}
        clock = time.perf_counter_ns
        start = clock()
        collecting = gc.isenabled()
        gc.disable()
        try:
            self._touch()
            value = 0.0
            for name, part in parts.items():
                t0 = clock()
                part()
                value += (clock() - t0) / 1e9 / REFERENCE_S[name]
        finally:
            if collecting:
                gc.enable()
        end = clock()
        self.unit_value.append(value / len(parts))
        self.unit_end_ns.append(end)
        self.spent_ns += end - start

    def sample(self, units: int = 8) -> list[float]:
        """Run ``units`` units now; returns their slowness values."""
        for _ in range(units):
            self.unit()
        return self.unit_value[-units:]

    def keep_share(self, work_ns: int) -> None:
        """Run units until calibration has taken SHARE of ``work_ns`` plus itself."""
        while self.spent_ns < SHARE * (work_ns + self.spent_ns):
            self.unit()

    def slowness(self) -> float:
        """Mean slowness over all units (1.0 = reference speed)."""
        return float(np.mean(self.unit_value)) if self.unit_value else 1.0

    def local_slowness(self, at_ns) -> np.ndarray:
        """Slowness around each time in ``at_ns``: the mean over the units that
        ended within WINDOW_S of it (the overall slowness where there are none)."""
        at = np.asarray(at_ns, dtype=np.int64)
        if not self.unit_value:
            return np.ones(len(at))
        ends = np.asarray(self.unit_end_ns, dtype=np.int64)
        csum = np.concatenate([[0.0], np.cumsum(self.unit_value)])
        lo = np.searchsorted(ends, at - int(WINDOW_S * 1e9), side="left")
        hi = np.searchsorted(ends, at + int(WINDOW_S * 1e9), side="right")
        count = hi - lo
        return np.where(count > 0, (csum[hi] - csum[lo]) / np.maximum(count, 1), self.slowness())
