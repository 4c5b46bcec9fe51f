"""The glue that integrated alpha and beta on every cell, kept as the
reference the glue tests compare the library against.

join.glue_id_and_diff now evaluates alpha and beta only on the cells that a
ramp of F, R or beta crosses, each pair of smoothstep factors only on its own
ramp, and writes the exact plateau constants elsewhere; its glued map reads
gamma as lambda on the middle band. This one runs every cell and every point
through panel_integrals and evaluates the glued map through np.piecewise. The
two must give the same samples, the same report and the same values, bit for
bit.
"""

import numpy as np

from twoorigins import join
from twoorigins.errors import DomainError, GlueInfeasible


def panel_integrals(left, right, *fs) -> list:
    """Fixed 4-panel composite Simpson of each array rule in fs on each
    [left[i], right[i]], all on one set of nodes."""
    widths = right - left
    nodes = join._panel_nodes(left, widths)
    return [join._panel_sums(f(nodes), widths) for f in fs]


def glue_id_and_diff(g, eps, n: int = 4096):
    join._check_transition(g, "the glued transition")
    b, c = g.domain
    span = c - b
    eps = float(eps)
    if not (0.0 < eps < span / 4.0):
        raise DomainError(f"eps must lie in (0, {span / 4.0}), got {eps}")
    scale = max(1.0, abs(b), abs(c))

    lo_seam, hi_seam = b + eps, c - eps
    F = join.bump_plateau(b - eps, b, lo_seam, b + 2 * eps)
    R = join.bump_plateau(c - 2 * eps, hi_seam, c, c + eps)
    beta = join.bump_plateau(lo_seam, b + 2 * eps, c - 2 * eps, hi_seam)

    def alpha(t):
        r = R(t)
        out = F(t)
        live = np.flatnonzero(r)
        if live.size:
            gp = g.derivative_grid(t[live])
            if np.any(gp <= 0.0):
                raise DomainError("transition derivative is not positive on the grid")
            out[live] += r[live] * gp
        return out

    grid = np.linspace(b, c, max(int(n), 16) + 1)
    near = np.minimum(np.abs(grid - lo_seam), np.abs(grid - hi_seam)) <= 1e-12 * scale
    near[[0, -1]] = False
    xs = np.sort(np.concatenate((grid[~near], (lo_seam, hi_seam))))
    xs = xs[np.concatenate(([True], xs[1:] != xs[:-1]))]
    i_fit = int(np.searchsorted(xs, hi_seam))
    i_alpha, i_beta = (np.concatenate(([0.0], np.cumsum(cells)))
                       for cells in panel_integrals(xs[:i_fit], xs[1:i_fit + 1], alpha, beta))

    target = float(g(hi_seam))
    numerator = target - b - i_alpha[-1]
    lam = numerator / float(i_beta[-1])
    if lam <= 0.0:
        raise GlueInfeasible(f"no positive bump mass at eps={eps}", eps=eps, mass=numerator)

    ys = np.empty_like(xs)
    ys[:i_fit + 1] = b + i_alpha + lam * i_beta
    left = xs <= lo_seam
    presnap_id = float(np.max(np.abs(ys[left] - xs[left])))
    presnap_g = abs(float(ys[i_fit]) - target)
    ys[left] = xs[left]
    ys[i_fit:] = g(xs[i_fit:])

    report = join.GlueReport(eps=eps, lam=float(lam), integral_residual=presnap_g / span,
                             presnap_id=presnap_id, presnap_g=presnap_g, cells=len(xs) - 1)

    def gamma(t):
        return alpha(t) + lam * beta(t)

    def between(t):
        i = np.searchsorted(xs, t, side="right") - 1
        return ys[i] + panel_integrals(xs[i], t, gamma)[0]

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
