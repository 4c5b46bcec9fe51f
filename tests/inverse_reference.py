"""The numeric inverse that ran Illinois from the sample cell's ends, kept as
the reference the inverse tests compare the library against.

join.NumericDiffeo.inverse now starts each solve from a bracket of a
thousandth of the cell around the secant of the samples, where that bracket
and the cell both straddle y, and walks the live points in Python floats,
with one rule call a pass on those points only; this one starts every solve
from the cell's ends and moves the live points by numpy gather and scatter. Both return the first float from the cell's left end
toward its right end whose image reaches y, so the two must agree bit for
bit.
"""

import numpy as np


def inverse(d):
    """The inverse rule of the NumericDiffeo d, as a function of a 1-D array."""
    xs, ys = np.array(d.xs), np.array(d.ys)
    if not d.increasing:
        xs, ys = xs[::-1], ys[::-1]
    fwd, last = d._rule, len(ys) - 1

    def inv(y):
        y = np.minimum(np.maximum(np.asarray(y, dtype=float), ys[0]), ys[-1])
        i = np.minimum(np.maximum(ys.searchsorted(y), 1), last)
        a, b = xs[i - 1], xs[i]
        fa, fb = np.asarray(fwd(np.concatenate((a, b))), dtype=float).reshape(2, -1) - y
        moved = np.zeros(len(y))  # -1: a moved last, +1: b did
        for _ in range(100):
            mid = 0.5 * (a + b)
            live = ((fa < 0.0) & (fb >= 0.0) & ((mid - a) * (mid - b) < 0.0)).nonzero()[0]
            if live.size == 0:
                break
            al, bl, fal, fbl = a[live], b[live], fa[live], fb[live]
            x = bl - fbl * (bl - al) / (fbl - fal)
            x = np.where((x - al) * (x - bl) < 0.0, x, mid[live])
            x = np.where(fbl == 0.0, np.nextafter(bl, al), x)
            fx = np.asarray(fwd(x), dtype=float) - y[live]
            low = fx < 0.0
            a[live] = np.where(low, x, al)
            b[live] = np.where(low, bl, x)
            fa[live] = np.where(low, fx, np.where(moved[live] > 0.0, 0.5 * fal, fal))
            fb[live] = np.where(low, np.where(moved[live] < 0.0, 0.5 * fbl, fbl), fx)
            moved[live] = np.where(low, -1.0, 1.0)
        return np.where(fa >= 0.0, a, b)

    return inv
