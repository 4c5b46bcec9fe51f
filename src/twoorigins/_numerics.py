"""One-sided derivative estimates at a point, shared by germs and join.

A j-th derivative from one side of s is read off the forward (or backward)
difference quotients taken at a halving sequence of steps and extrapolated
in a Neville tableau. Callers evaluate the stencil nodes themselves (one at
a time, or all at once as an array), so this module only builds the nodes
and combines the values: one_sided forms the quotients from stencil values
and extrapolates them, and extrapolate runs the tableau alone on quotients a
caller has formed with one_sided's operations (a join certificate forms all
of its quotients in one array pass). It imports no numpy, which keeps germs
numpy-free.
"""

from __future__ import annotations

import math

#: Numeric derivative estimates are trusted only through this order.
ORDER_CAP = 4

#: Binomial stencil weights: the j-th difference is sum_i w[j][i] f(s + i*h).
_WEIGHTS = tuple(tuple((-1) ** (j - i) * math.comb(j, i) for i in range(j + 1))
                 for j in range(ORDER_CAP + 1))

#: 2^m and 2^m - 1 for tableau levels m = 1..1023; 2.0**1024 overflows.
_LEVEL_FAC = tuple(2.0 ** m for m in range(1, 1024))
_LEVEL_DIV = tuple(fac - 1.0 for fac in _LEVEL_FAC)


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
    (value, err, raw) where raw are the difference quotients per step, each
    sum_i w[j][i] * rows[l][i] accumulated from 0.0 in order of i and divided
    by (sign * steps[l]) ** j, and (value, err) is extrapolate(raw).
    """
    weights = _WEIGHTS[j]
    raw = []
    for row, h in zip(rows, steps):
        acc = 0.0
        for w, v in zip(weights, row):
            acc += w * v
        raw.append(acc / (sign * h) ** j)
    best_val, best_err = extrapolate(raw)
    return best_val, best_err, raw


def extrapolate(raw) -> tuple:
    """(value, err) of the Neville tableau over the quotients raw, taken at
    halving steps.

    The base quotient has a full h, h^2, ... error series, so tableau level
    m divides out 2^m - 1; the entry with the smallest disagreement against
    its neighbours wins, so rounding noise at the finest steps cannot mask an
    earlier converged region. An entry's disagreement max(e1, e2) is at least
    e1, so e2 is only computed where e1 could still win; a NaN disagreement
    never wins.
    """
    best_val, best_err = raw[0], math.inf
    above: list = []
    for q in raw:
        row = [q]
        append = row.append
        for prev, fac, div in zip(above, _LEVEL_FAC, _LEVEL_DIV):
            val = (fac * q - prev) / div
            e1 = abs(val - q)
            if e1 < best_err:
                e2 = abs(val - prev)
                if e2 > e1:
                    e1 = e2
                if e1 < best_err:
                    best_err = e1
                    best_val = val
            append(val)
            q = val
        above = row
    return best_val, best_err
