"""One-sided derivative estimates at a point, shared by germs and join.

A j-th derivative from one side of s is read off the forward (or backward)
difference quotients taken at a halving sequence of steps and extrapolated
in a Neville tableau. Callers evaluate the stencil nodes themselves (one at
a time, or all at once as an array), so this module only builds the nodes
and combines the values. It imports no numpy, which keeps germs numpy-free.
"""

from __future__ import annotations

import math

#: Numeric derivative estimates are trusted only through this order.
ORDER_CAP = 4

#: Binomial stencil weights: the j-th difference is sum_i w[j][i] f(s + i*h).
_WEIGHTS = tuple(tuple((-1) ** (j - i) * math.comb(j, i) for i in range(j + 1))
                 for j in range(ORDER_CAP + 1))


def halving(h0: float, levels: int) -> list:
    """The step sequence h0, h0/2, h0/4, ... that the tableau assumes."""
    return [h0 / 2.0 ** level for level in range(levels)]


def offsets(j: int, steps, sign: float) -> list:
    """Stencil node offsets from s: row l holds sign*i*steps[l] for i = 0..j."""
    return [[sign * i * h for i in range(j + 1)] for h in steps]


def one_sided(rows, j: int, steps, sign: float) -> tuple:
    """Extrapolated one-sided j-th derivative from stencil values.

    rows[l][i] is f at the node offsets(j, steps, sign)[l][i]; sign=+1 reads
    the derivative from the right, sign=-1 from the left. Returns
    (value, err, raw) where raw are the difference quotients per step. The
    base quotient has a full h, h^2, ... error series, so tableau level m
    divides out 2^m - 1; the entry with the smallest disagreement against its
    neighbours wins, so rounding noise at the finest steps cannot mask an
    earlier converged region.
    """
    raw = []
    for row, h in zip(rows, steps):
        acc = 0.0
        for w, v in zip(_WEIGHTS[j], row):
            acc += w * v
        raw.append(acc / (sign * h) ** j)
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
    return best_val, best_err, raw
