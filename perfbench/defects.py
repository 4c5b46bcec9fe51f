"""Known-defect witnesses, run once in every traced run.

The timed workloads draw only inputs the program handles today, so that any
failing operation in them is a regression. Input classes that fail today
are kept here instead, each as a witness with the answer its
construction implies; the traced run reports how many still fail as
`bench.known_defect_errors`, so the defects stay visible until fixed.
"""

from fractions import Fraction

import gen


def _roadmap_witness() -> bool:
    """p = x + x^2 + x^3/3, q = x + x^2: (q o p) o p^-1 = q is smooth, so P_p
    and P_{q o p} are the same C^3 structure."""
    from twoorigins import dline, germs
    p = germs.poly_germ({1: 1, 2: 1, 3: Fraction(1, 3)})
    q = germs.poly_germ({1: 1, 2: 1})
    return dline.same_structure(p, germs.compose(q, p), 3) is germs.Tri.TRUE


def _glue_seam_next_to_grid_node() -> bool:
    """A gentle transition on an overlap whose ends are not dyadic: b + eps
    lands one ulp from a node of the 4096-cell glue grid. The two charts
    must still join into one certified chart."""
    from twoorigins import join
    images = [(0.014659640964973297, 2.0146596409649735),
              (1.4484742195058764, 3.4484742195058766)]
    lo, hi = images[1][0], images[0][1]
    g = join.NumericDiffeo.from_function(
        gen.bent_map(lo, hi, -0.01727386910829687, -0.006983259853746482), (lo, hi), n=256)
    charts = tuple(join.IntervalChart(f"c{i}", img) for i, img in enumerate(images))
    return join.collapse_chain(join.ChainAtlas(charts, (g,)), k=2, tol=1e-3).passed


def _order_two_chain() -> bool:
    """Four charts joined along smooth transitions: the collapsed chart is
    C-infinity, so its order-2 certificate must pass at tol 1e-3 (the
    standalone joins of these transitions leave residuals near 1e-7)."""
    from twoorigins import join
    images = [(0.171875, 2.171875), (1.71875, 3.71875), (3.28125, 5.28125), (4.796875, 6.796875)]
    params = [(0.13013423684567865, 0.21724588882098722),
              (0.42750764456058393, 0.2382420470682582),
              (-0.3499727697114822, -0.030023174456312418)]
    charts = tuple(join.IntervalChart(f"c{i}", img) for i, img in enumerate(images))
    transitions = []
    for i, (lam, mu) in enumerate(params):
        lo, hi = images[i + 1][0], images[i][1]
        transitions.append(join.NumericDiffeo.from_function(gen.bent_map(lo, hi, lam, mu),
                                                            (lo, hi), n=256))
    return join.collapse_chain(join.ChainAtlas(charts, tuple(transitions)), k=2, tol=1e-3).passed


def _order_three_smooth_map() -> bool:
    """x + c (x - lo)^2 with a seam inside: smooth, so its order-3
    certificate must pass (its third residual is 1.35 times the tolerance)."""
    from twoorigins import join
    lo, hi, seam = 1.1588512264438267, 1.9304729500755178, 1.6269488248749568
    d = join.NumericDiffeo.from_function(gen.smooth_map(lo, 0.2364852221491761), (lo, hi),
                                         n=256, seams=(seam,))
    return join.verify_ck_numeric(d, 3).passed


CASES = {"same_structure_fold_witness": _roadmap_witness,
         "glue_seam_next_to_grid_node": _glue_seam_next_to_grid_node,
         "order_two_certificate_of_smooth_chain": _order_two_chain,
         "order_three_certificate_of_smooth_map": _order_three_smooth_map}


def witnesses() -> dict:
    """{"errors": how many witnesses still fail, "cases": {name: outcome}}."""
    cases = {}
    for name, case in CASES.items():
        try:
            cases[name] = "ok" if case() else "wrong answer"
        except Exception as exc:  # a witness reports any failure, it never stops the run
            cases[name] = f"{type(exc).__name__}: {exc}"
    return {"errors": sum(v != "ok" for v in cases.values()), "cases": cases}
