"""Machine-speed calibration of the timed windows.

On the shared 2-vCPU VM this benchmark was written on, the machine's speed
drifts by up to half within minutes, and op latencies move with the time of
a fixed pure-Python loop (the reference): in four chain_collapse runs made
one after the other, collapse, glue and verify latencies and the reference
all rose by 40-70 %. Raw times therefore spread across runs by about as much
as any useful regression bound, whatever the program does.

So each timed window runs the reference between ops, after the first op
that ends CALIBRATE_EVERY_S or more after the last calibration, and reports
its times at reference speed. A calibration runs the reference once per
CALIBRATE_EVERY_S of ops since the last one (once after most in-process
stretches, three or four times after a CLI op), and the ops of each stretch between two calibrations are scaled by REF_MS
over the mean reference time of the calibrations from WINDOW before the
stretch to WINDOW after it: a single reference run catches the machine in a
fast or a slow phase, the mean of many follows the drift. Set-up is scaled
by the mean of SETUP_REFS reference runs just before the worker starts and
as many just after its set-up. Calibrations are left out of the wall time.
The raw times go to the result record beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

#: The reference's time at the speed all reported times are scaled to: about
#: its median on a 2-vCPU Xeon VM under Python 3.11.
REF_MS = 10.0
#: A calibration follows the first op that ends this long after the last
#: one, and runs the reference once per this much time since then.
CALIBRATE_EVERY_S = 0.25
#: Calibrations on each side of a stretch whose mean scales it.
WINDOW = 2
#: Reference runs on each side of a set-up.
SETUP_REFS = 5
_ITERATIONS = 40_000


def reference_ms() -> float:
    """Wall time of a fixed pure-Python loop (integer and float arithmetic,
    dict stores, list appends), in ms."""
    t0 = time.perf_counter()
    acc, table, xs = 0, {}, []
    for i in range(_ITERATIONS):
        acc += i * i % 7
        table[i & 63] = acc
        xs.append(acc * 0.5)
    return 1000.0 * (time.perf_counter() - t0)


def samples(n: int) -> list:
    return [reference_ms() for _ in range(n)]


def factor(refs_ms: list) -> float:
    """Factor that turns a time measured among these reference runs into one
    at reference speed."""
    return REF_MS / statistics.fmean(refs_ms)


class Clock:
    """Splits a timed window into stretches of ops between calibrations.

    Call `op_done()` after each op and `finish()` once after the window."""

    def __init__(self):
        self.refs_ms = [reference_ms()]
        self.stretch_s: list[float] = []
        self.stretch_ops: list[int] = []
        self._t = time.perf_counter()
        self._ops = 0

    def op_done(self):
        self._ops += 1
        if time.perf_counter() - self._t >= CALIBRATE_EVERY_S:
            self._calibrate()

    def finish(self):
        if self._ops:
            self._calibrate()

    def _calibrate(self):
        stretch = time.perf_counter() - self._t
        self.stretch_s.append(stretch)
        self.stretch_ops.append(self._ops)
        runs = max(1, int(stretch / CALIBRATE_EVERY_S))
        self.refs_ms.append(statistics.fmean(samples(runs)))
        self._ops = 0
        self._t = time.perf_counter()

    def scales(self) -> list[float]:
        """Stretch i lies between calibrations i and i + 1."""
        refs = self.refs_ms
        return [factor(refs[max(0, i - WINDOW):i + 2 + WINDOW])
                for i in range(len(self.stretch_s))]

    def raw_wall_s(self) -> float:
        """Wall time of the ops and their checks, calibrations left out."""
        return sum(self.stretch_s)

    def scaled_wall_s(self) -> float:
        return sum(s * f for s, f in zip(self.stretch_s, self.scales()))

    def scaled(self, lat_ms: list) -> list:
        """Each op's latency at reference speed, in window order."""
        per_op = [f for n, f in zip(self.stretch_ops, self.scales()) for _ in range(n)]
        return [x * f for x, f in zip(lat_ms, per_op)]
