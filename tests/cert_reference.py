"""The seam certificate that formed its difference quotients row by row, kept
as the reference the certificate tests compare the library against.

join.verify_ck_numeric, the one-map case of the pass join certifies several
maps with, forms the quotients of every seam, order and side in one array
pass, with one_sided's operations in its order and its denominators in
Python floats, extrapolates them in one array tableau, builds the grid's
stencil nodes in one broadcast and reads each distinct seam once. This one
certifies one map: it slices every stencil row out of a list of the map's
values and calls one_sided, with its scalar tableau, on it, and builds the
grid's nodes by concatenation. On maps whose seams are distinct and whose
steps neither underflow nor overflow, the two must give the same certificate,
bit for bit.
"""

import math

import numpy as np

from twoorigins import _numerics, join
from twoorigins.errors import DomainError

import numerics_reference


def slope_nodes(xs, lo, hi):
    span = hi - lo
    h = np.maximum(np.minimum(np.minimum(1e-5 * span, (xs - lo) / 2.5), (hi - xs) / 2.5),
                   1e-12 * span)
    return np.concatenate((xs + 2 * h, xs + h, xs - h, xs - 2 * h)), h


def verify_ck_numeric(map_obj, k, tol=None):
    tols = join._tolerances(k, tol)
    lo, hi = map_obj.domain
    span = hi - lo
    seams = sorted(s for s in getattr(map_obj, "seams", ()) if lo < s < hi)

    grid = lo + span * np.arange(1, join._SLOPE_GRID) / join._SLOPE_GRID
    if seams:
        near = (np.min(np.abs(grid[:, None] - np.array(seams)), axis=1)
                < span / (4 * join._SLOPE_GRID))
        grid = np.where(near, grid + span / (2 * join._SLOPE_GRID), grid)
    nodes_grid, h = slope_nodes(grid[(lo < grid) & (grid < hi)], lo, hi)

    bounds = [lo] + seams + [hi]
    plan = [(s, j, sign, _numerics.halving(0.8 * gap / j, 12))
            for idx, s in enumerate(seams) for j in range(1, k + 1)
            for sign, gap in ((-1.0, s - bounds[idx]), (1.0, bounds[idx + 2] - s))]
    nodes = [nodes_grid]
    if plan:
        s, j, sign, steps = (np.array(col) for col in zip(*plan))
        i = np.arange(k + 1)
        stencils = s[:, None, None] + (sign[:, None] * i)[:, None, :] * steps[:, :, None]
        nodes.append(stencils[np.broadcast_to((i <= j[:, None])[:, None, :], stencils.shape)])
    nodes = np.concatenate(nodes)
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.asarray(map_obj(nodes), dtype=float) if nodes.size else nodes
    if not np.isfinite(values).all():
        raise DomainError("map values too large: the map overflows")

    min_slope = math.inf
    if h.size:
        with np.errstate(over="ignore", invalid="ignore"):
            min_slope = float(np.min(join._slope_from(values[:nodes_grid.size], h)))
        if not math.isfinite(min_slope):
            raise DomainError("map values too large: the slope estimate overflows")
    seam_values, at, estimates = values[nodes_grid.size:].tolist(), 0, []
    for _, j, sign, steps in plan:
        end = at + len(steps) * (j + 1)
        rows = [seam_values[r:r + j + 1] for r in range(at, end, j + 1)]
        estimates.append(numerics_reference.one_sided(rows, j, steps, sign)[0])
        at = end

    residuals = [0.0] * k
    for n, (left, right) in enumerate(zip(estimates[::2], estimates[1::2])):
        j = n % k + 1
        scale = max(1.0, abs(left), abs(right))
        residuals[j - 1] = max(residuals[j - 1], abs(left - right) / scale)
        if j == 1:
            min_slope = min(min_slope, left, right)
    if min_slope is math.inf:
        min_slope = 0.0
    passed = all(r <= t for r, t in zip(residuals, tols)) and min_slope > -tols[0]
    return join.SmoothCert(order=k, residuals=tuple(residuals), passed=passed,
                           grid=tuple(seams), min_slope=float(min_slope), tolerances=tols)
