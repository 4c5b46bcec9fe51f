"""The Richardson tableau _numerics.one_sided replaced, kept as the
reference the numerics tests compare the library against.

It builds each tableau row in an indexed loop, computes 2.0**m and
2.0**m - 1.0 at every level and takes the disagreement with max() at every
entry. The library keeps the same operations in the same order, so the two
must give the same value, err and raw to the bit, NaN and infinities
included; extrapolate here is the tableau alone, as _numerics.extrapolate is.
"""

import math

from twoorigins._numerics import _WEIGHTS


def one_sided(rows, j: int, steps, sign: float) -> tuple:
    """(value, err, raw) exactly as _numerics.one_sided defines them."""
    raw = []
    for row, h in zip(rows, steps):
        acc = 0.0
        for w, v in zip(_WEIGHTS[j], row):
            acc += w * v
        raw.append(acc / (sign * h) ** j)
    return extrapolate(raw) + (raw,)


def extrapolate(raw) -> tuple:
    """(value, err) exactly as _numerics.extrapolate defines them."""
    tableau: list[list[float]] = []
    best_val, best_err = raw[0], math.inf
    for q in raw:
        row = [q]
        for m in range(1, len(tableau) + 1):
            fac = 2.0 ** m
            prev = tableau[-1][m - 1]
            row.append((fac * row[m - 1] - prev) / (fac - 1.0))
            errt = max(abs(row[m] - row[m - 1]), abs(row[m] - prev))
            if errt < best_err:
                best_err, best_val = errt, row[m]
        tableau.append(row)
    return best_val, best_err
