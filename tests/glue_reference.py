"""The glue's closed form in its plain version, kept as the reference the
glue tests compare the library against.

join.glue_id_and_diff takes S' from one cached table a cell count, writes
the ramps' samples straight from the table's sums, and reads a point of the
glued map as the table's value at the end of its cell nearer the seam plus
a partial sum. This one builds the sums afresh for every glue, with no
cache, finds a right-ramp point's cell its own way, and puts every sample
and every point through one routine a ramp, the closed form at a point a
distance delta from that end of its cell (delta = 0 at a sample). The glued
map goes through np.piecewise. The two must give the same samples, the same
report and the same values, bit for bit, and call g's rule on as many points
in each call.
"""

import math

import numpy as np

from twoorigins import join
from twoorigins.errors import DomainError, GlueInfeasible

OFFSETS = np.array([k / 8.0 for k in range(9)])
WEIGHTS = np.array([w / 24.0 for w in (1.0, 4.0, 2.0, 4.0, 2.0, 4.0, 2.0, 4.0, 1.0)])
#: The weights of the integral of S from a cell's start to its end, per
#: unit width: the node k/8 lies 1 - k/8 of the cell before the end.
TAIL = WEIGHTS * (1.0 - OFFSETS)


def smoothstep_slope(u):
    """S'(u) of S(u) = q(u)/(q(u) + q(1-u)), q(u) = exp(-1/u); 0 off (0, 1)."""
    out = np.zeros(u.shape)
    mid = (u > 0.0) & (u < 1.0)
    v = u[mid]
    w = 1.0 - v
    e = np.exp(-np.abs(1.0 / w - 1.0 / v))
    out[mid] = (e / v / v + e / w / w) / ((1.0 + e) * (1.0 + e))
    return out


def glue_id_and_diff(g, eps, n: int = 4096):
    join._check_transition(g, "the glued transition")
    b, c = g.domain
    span = c - b
    eps = float(eps)
    if not (0.0 < eps < span / 4.0):
        raise DomainError(f"eps must lie in (0, {span / 4.0}), got {eps}")
    lo_seam, hi_seam = b + eps, c - eps
    b2, c2 = b + 2 * eps, c - 2 * eps

    # C cells a ramp, and their sums S~ and J~ at every cell's start
    cells = math.ceil(max(int(n), 16) * (eps / span))
    h = 1.0 / cells
    d = smoothstep_slope((np.arange(cells)[:, None] + OFFSETS) / cells)
    S = np.concatenate(([0.0], np.cumsum(h * (d * WEIGHTS).sum(axis=1))))
    J = np.concatenate(([0.0], np.cumsum(h * (S[:-1] + h * (d * TAIL).sum(axis=1)))))

    # the ramps' nodes from their seams: the right one's from c - eps down
    ident = np.linspace(b, lo_seam, cells + 1)
    left = np.linspace(lo_seam, b2, cells + 1)
    middle = np.linspace(b2, c2, round((c2 - b2) * cells / eps) + 1)
    right = np.linspace(hi_seam, c2, cells + 1)
    ends = np.linspace(hi_seam, c, cells + 1)
    xs = np.concatenate((ident[:-1], left[:-1], middle, right[1:-1][::-1], ends))

    # g less the identity at the right ramp's Simpson nodes, and g past it
    nodes = np.append((right[:-1, None] + (right[1:] - right[:-1])[:, None]
                       * OFFSETS[:8]).ravel(), c2)
    values = g(np.concatenate((nodes, ends[1:])))
    ramp = values[:nodes.size]
    if np.any(np.diff(ramp) >= 0.0):
        raise DomainError("transition is not increasing on the glue's right ramp")
    off = ramp - nodes
    cell_sums = (d * WEIGHTS * h * off[np.arange(cells)[:, None] * 8 + np.arange(9)]).sum(axis=1)
    K = np.concatenate(([0.0], np.cumsum(cell_sums)))

    lam = float(1.0 + (off[-1] * (1.0 - S[-1]) + K[-1]) / (c2 - b2 + 2.0 * eps * J[-1]))
    if lam <= 0.0:
        raise GlueInfeasible(f"no positive bump mass at eps={eps}", eps=eps,
                             mass=lam * (span - 3.0 * eps))
    p_b2 = b2 + (lam - 1.0) * eps * J[-1]

    def sums(i, start, t):
        """delta = |t - start|/eps from the start of t's cell i (its end
        nearer the seam), S'(u) at the 9 nodes from u_i to u_i + delta,
        S~(t) and J~(t)."""
        delta = np.abs(t - start) / eps
        slopes = smoothstep_slope((i / cells)[:, None] + delta[:, None] * OFFSETS)
        s_t = S[i] + delta * (slopes * WEIGHTS).sum(axis=1)
        j_t = J[i] + delta * (S[i] + delta * (slopes * TAIL).sum(axis=1))
        return delta, slopes, s_t, j_t

    def on_left(t):
        i = np.searchsorted(left, t, side="right") - 1
        j_t = sums(i, left[i], t)[-1]
        return t + (lam - 1.0) * eps * j_t

    def on_right(t, offs):
        """p at points t of the right ramp, offs g less the identity at each
        point's 9 nodes, the last at t itself: its cell starts at the first
        node at or above t."""
        i = cells - np.searchsorted(right[::-1], t, side="left")
        delta, slopes, s_t, j_t = sums(i, right[i], t)
        k_t = K[i] + delta * (slopes * WEIGHTS * offs).sum(axis=1)
        return t + (1.0 - s_t) * offs[:, -1] - (lam - 1.0) * eps * j_t + k_t

    def between(t):
        right_side = t > c2
        out = np.piecewise(t, [t < b2, (t >= b2) & (t <= c2)],
                           [on_left, lambda m: p_b2 + lam * (m - b2)])
        if np.any(right_side):
            x = t[right_side]
            start = right[cells - np.searchsorted(right[::-1], x, side="left")]
            at = start[:, None] + (x - start)[:, None] * OFFSETS
            at[:, -1] = x
            out[right_side] = on_right(x, g(at.ravel()).reshape(-1, 9) - at)
        return out

    # every sample through the same routines, at delta = 0 on the ramps,
    # where a point's 9 nodes are the point itself
    inner = right[1:-1][::-1]
    ys = np.concatenate((ident[:-1], on_left(left[:-1]), p_b2 + lam * (middle - b2),
                         on_right(inner, np.tile(off[-9:0:-8][:, None], 9)),
                         values[:1], values[nodes.size:]))
    # the balance where the middle band's closed form meets the right ramp's
    balance = on_right(np.array([c2]), np.full((1, 9), off[-1]))[0] - (p_b2 + lam * (c2 - b2))
    presnap_g = abs(float(balance))
    report = join.GlueReport(eps=eps, lam=lam, integral_residual=presnap_g / span,
                             presnap_id=0.0, presnap_g=presnap_g, cells=len(xs) - 1)

    def p_call(x):
        return np.piecewise(x, [x >= hi_seam, (x > lo_seam) & (x < hi_seam)],
                            [g, between, lambda t: t])

    return join.NumericDiffeo(xs, ys, underlying=p_call,
                              seams=(lo_seam, hi_seam), glue=report)


def glue_auto(g, n: int = 4096, retries: int = 6):
    b, c = g.domain
    eps = (c - b) / 8.0
    for _ in range(retries):
        try:
            return glue_id_and_diff(g, eps, n=n)
        except GlueInfeasible:
            eps /= 2.0
    return glue_id_and_diff(g, eps, n=n)
