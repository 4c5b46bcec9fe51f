"""The quadrature of a glue carried on from its right seam to the end.

glue_id_and_diff integrates gamma only up to c - eps and fits lambda so the
sum lands on g(c - eps) there, so the balance in its report reads rounding
alone. On the cells from c - eps to c, gamma is g' itself: carrying the
quadrature on over them and comparing the end with c measures the error of
the quadrature and of g's derivative stencil, as the glue's residual did
when it integrated up to c.
"""

import numpy as np

from glue_reference import panel_integrals


def carried_residual(g, p) -> float:
    """|g(c - eps) + the integral of g' over p's cells in [c - eps, c] - c|
    over the span c - b."""
    b, c = g.domain
    xs = np.array(p.xs)
    tail = xs[xs >= p.seams[1]]
    (cells,) = panel_integrals(tail[:-1], tail[1:], g.derivative_grid)
    return abs(float(g(tail[0])) + float(np.sum(cells)) - c) / (c - b)
