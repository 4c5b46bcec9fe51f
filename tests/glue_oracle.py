"""The glue by quadrature of gamma on every cell, an oracle independent of
the library's closed form, and the quadrature carried on past the right seam.

join.glue_id_and_diff writes the glued map p in closed form: the ramps are
complementary, R g' is integrated by parts, and the sums run over one cached
table of S' a cell count. This oracle is the glue the library had before it:
the 4-panel composite Simpson quadrature of gamma = F + R g' + lambda beta
on every cell of a uniform grid, with the plateaus F, R and beta evaluated
as smoothstep products and g' read by its 4th-order central stencil. It
shares no arithmetic with the closed form, so the two agreeing within a
stated bound checks the closed form's algebra.

carried_residual carries the quadrature on over the cells from c - eps to c,
where gamma is g' itself, and compares the end with c: that measures the
error of the quadrature and of g's derivative stencil.
"""

import numpy as np

from twoorigins import join
from twoorigins.errors import DomainError, GlueInfeasible

#: The offsets of a cell's 9 panel nodes, as fractions of its width, and
#: their 4-panel composite Simpson weights.
OFFSETS = np.array([i / 8.0 for i in range(9)])
WEIGHTS = np.array([w / 24.0 for w in (1.0, 4.0, 2.0, 4.0, 2.0, 4.0, 2.0, 4.0, 1.0)])


def panel_integrals(left, right, *fs) -> list:
    """Fixed 4-panel composite Simpson of each array rule in fs on each
    [left[i], right[i]], all on one set of nodes."""
    widths = right - left
    nodes = (left[:, None] + widths[:, None] * OFFSETS).ravel()
    return [(f(nodes).reshape(-1, 9) @ WEIGHTS) * widths for f in fs]


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
    presnap_g = abs(float(ys[i_fit]) - target)
    ys[left] = xs[left]
    ys[i_fit:] = g(xs[i_fit:])

    report = join.GlueReport(eps=eps, lam=float(lam), integral_residual=presnap_g / span,
                             presnap_id=0.0, presnap_g=presnap_g, cells=len(xs) - 1)

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


def carried_residual(g, p) -> float:
    """|g(c - eps) + the integral of g' over p's cells in [c - eps, c] - c|
    over the span c - b."""
    b, c = g.domain
    xs = np.array(p.xs)
    tail = xs[xs >= p.seams[1]]
    (cells,) = panel_integrals(tail[:-1], tail[1:], g.derivative_grid)
    return abs(float(g(tail[0])) + float(np.sum(cells)) - c) / (c - b)
