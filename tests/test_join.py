"""Chart joining: quadrature, glue construction, certification, collapse."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import twoorigins.join as join_mod
from twoorigins.errors import DomainError, GlueInfeasible, NotJoinable
from twoorigins.join import (
    AffineMap,
    ChainAtlas,
    ComposedMap,
    IdentityMap,
    IntervalChart,
    NumericDiffeo,
    PiecewiseMonotone,
    TOL_SCHEDULE,
    bump_plateau,
    chain_from_json,
    collapse_chain,
    collapse_to_json,
    glue_auto,
    glue_id_and_diff,
    join_charts,
    verify_ck_numeric,
)


def adaptive_simpson(f, a, b, tol=1e-10, depth=20):
    """Reference integral of f over [a, b]: adaptive composite Simpson with
    the Richardson correction term, down to 2**depth cells at the deepest."""
    a, b = float(a), float(b)
    if a == b:
        return 0.0
    if a > b:
        return -adaptive_simpson(f, b, a, tol, depth)

    def simp(l, r, fl, fm, fr):
        return (r - l) / 6.0 * (fl + 4.0 * fm + fr)

    def rec(l, r, fl, fm, fr, whole, budget, depth):
        m = 0.5 * (l + r)
        flm = f(0.5 * (l + m))
        frm = f(0.5 * (m + r))
        left = simp(l, m, fl, flm, fm)
        right = simp(m, r, fm, frm, fr)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * budget:
            return left + right + (left + right - whole) / 15.0
        return (rec(l, m, fl, flm, fm, left, budget / 2.0, depth - 1)
                + rec(m, r, fm, frm, fr, right, budget / 2.0, depth - 1))

    fa, fm_, fb = f(a), f(0.5 * (a + b)), f(b)
    return rec(a, b, fa, fm_, fb, simp(a, b, fa, fm_, fb), tol, depth)


def quad_transition(a, b, lam):
    """Increasing self-map of [a, b] fixing both ends, curvature lam."""
    span = b - a

    def g(x):
        t = (x - a) / span
        return a + span * (t + lam * t * (1.0 - t))

    return g


def x2_diffeo(n=256):
    return NumericDiffeo.from_function(lambda x: x * x, (0.0, 1.0), n=n)


# -- quadrature ---------------------------------------------------------------


def test_adaptive_simpson_known_integrals():
    assert abs(adaptive_simpson(lambda x: x * x, 0.0, 1.0) - 1.0 / 3.0) < 1e-12
    assert abs(adaptive_simpson(math.sin, 0.0, math.pi) - 2.0) < 1e-10
    assert abs(adaptive_simpson(abs, -1.0, 1.0) - 1.0) < 1e-10


def test_adaptive_simpson_orientation_and_degenerate():
    forward = adaptive_simpson(math.exp, 0.0, 1.0)
    assert abs(adaptive_simpson(math.exp, 1.0, 0.0) + forward) < 1e-12
    assert adaptive_simpson(math.exp, 0.5, 0.5) == 0.0


# -- bumps --------------------------------------------------------------------


def test_bump_plateau_shape():
    f = bump_plateau(0.0, 1.0, 2.0, 3.0)
    assert f(-0.5) == 0.0 and f(3.5) == 0.0
    assert f(1.0) == 1.0 and f(1.7) == 1.0 and f(2.0) == 1.0
    assert 0.0 < f(0.5) < 1.0
    rising = [f(t) for t in np.linspace(0.0, 1.0, 9)]
    assert all(x <= y for x, y in zip(rising, rising[1:]))
    arr = f.arr(np.array([-0.5, 1.7, 3.5]))
    assert list(arr) == [0.0, 1.0, 0.0]


def test_bump_plateau_mass_is_two():
    f = bump_plateau(0.0, 1.0, 2.0, 3.0)
    mass = adaptive_simpson(f, 0.0, 3.0)
    # the ramps are complementary, so they contribute exactly one unit
    assert abs(mass - 2.0) < 1e-9
    assert 1.0 < mass < 3.0


def test_bump_plateau_complementary_ramps():
    f = bump_plateau(0.0, 1.0, 1.0, 2.0)
    for t in np.linspace(0.01, 0.99, 23):
        assert abs(f(t) + f(1.0 + t) - 1.0) < 1e-12


def test_bump_plateau_validates_knots():
    with pytest.raises(DomainError):
        bump_plateau(0.0, 0.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        bump_plateau(0.0, 2.0, 1.0, 3.0)


# -- elementary maps ----------------------------------------------------------


def test_affine_map_inverse():
    m = AffineMap(2.0, -3.0)
    assert m(5.0) == 7.0
    assert m.inverse()(7.0) == 5.0
    with pytest.raises(DomainError):
        AffineMap(0.0, 1.0)


def test_identity_map():
    i = IdentityMap((0.0, 1.0))
    assert i(0.3) == 0.3
    assert i.seams == ()


def test_composed_map_applies_outer_after_inner():
    c = ComposedMap(AffineMap(2.0, 0.0), AffineMap(1.0, 1.0, domain=(0.0, 1.0)))
    assert c(0.25) == 2.5
    assert c.domain == (0.0, 1.0)


def test_piecewise_monotone_routing_and_checks():
    p = PiecewiseMonotone(
        (0.0, 1.0, 2.0),
        (IdentityMap((0.0, 1.0)), AffineMap(2.0, -1.0, domain=(1.0, 2.0))),
    )
    assert p(0.5) == 0.5
    assert p(1.5) == 2.0
    assert p.seams == (1.0,)
    with pytest.raises(DomainError):
        PiecewiseMonotone(
            (0.0, 1.0, 2.0),
            (IdentityMap((0.0, 1.0)), AffineMap(2.0, 5.0, domain=(1.0, 2.0))),
        )
    with pytest.raises(DomainError):
        PiecewiseMonotone((0.0, 1.0), (AffineMap(-1.0, 1.0, domain=(0.0, 1.0)),))


# -- sampled diffeomorphisms ----------------------------------------------------


def test_numeric_diffeo_validation():
    with pytest.raises(DomainError):
        NumericDiffeo((0.0, 1.0), (0.0, 1.0))  # too few samples
    xs = (0.0, 0.5, 0.5, 1.0)
    with pytest.raises(DomainError):
        NumericDiffeo(xs, (0.0, 0.2, 0.4, 1.0))
    with pytest.raises(DomainError):
        NumericDiffeo((0.0, 0.25, 0.5, 1.0), (0.0, 0.4, 0.2, 1.0))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="finite"):
            NumericDiffeo((0.0, bad, 0.5, 1.0), (0.0, 0.4, 0.6, 1.0))
        with pytest.raises(DomainError, match="finite"):
            NumericDiffeo((0.0, 0.25, 0.5, 1.0), (0.0, 0.4, bad, 1.0))
        with pytest.raises(DomainError, match="finite"):
            NumericDiffeo((0.0, 0.25, 0.5, 1.0), (0.0, 0.4, 0.6, 1.0), seams=(bad,))
    big = (-1e308, -5e307, 0.0, 5e307, 1e308)  # finite, but the slopes overflow
    with pytest.raises(DomainError, match="overflows"):
        NumericDiffeo(big, big)


def test_sampled_map_is_the_monotone_cubic():
    # hand-checked: secants 1, 4, 1; interior slopes are the weighted harmonic
    # mean 1.6, and both one-sided end slopes (3*1 - 4)/2 turn against their
    # secant, so they are clamped to 0
    d = NumericDiffeo((0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 5.0, 6.0))
    assert d(np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])) == pytest.approx(
        [0.0, 0.3, 1.0, 3.0, 5.0, 6.0], abs=1e-15)
    assert d.derivative_grid(np.array([0.0, 0.5, 1.0, 2.0, 3.0])) == pytest.approx(
        [0.0, 1.1, 1.6, 1.6, 0.0], abs=1e-15)


@st.composite
def monotone_samples(draw):
    n = draw(st.integers(4, 600))
    steps = st.floats(1e-3, 10.0)
    dx = draw(arrays(np.float64, n - 1, elements=steps))
    dy = draw(arrays(np.float64, n - 1, elements=steps))
    x0, y0 = draw(st.floats(-100.0, 100.0)), draw(st.floats(-100.0, 100.0))
    sign = draw(st.sampled_from((1.0, -1.0)))
    xs = x0 + np.concatenate(([0.0], np.cumsum(dx)))
    ys = y0 + sign * np.concatenate(([0.0], np.cumsum(dy)))
    return xs, ys


@settings(max_examples=60, deadline=None)
@given(monotone_samples())
@example((np.array([0.0, 3.0, 6.0, 9.0]), np.array([0.0, 5e-324, 1e-323, 1.5e-323])))
def test_sampled_map_matches_scipy_pchip_bit_for_bit(samples):
    # the example's secants underflow to 0
    interpolate = pytest.importorskip("scipy.interpolate")
    xs, ys = samples
    d = NumericDiffeo(xs, ys)
    pad = 0.01 * (xs[-1] - xs[0])
    q = np.concatenate((xs, 0.5 * (xs[1:] + xs[:-1]),
                        [xs[0] - pad, np.nextafter(xs[0], -np.inf),
                         np.nextafter(xs[-1], np.inf), xs[-1] + pad]))
    ref = interpolate.PchipInterpolator(xs, ys)
    assert np.array_equal(d(q), ref(q))
    assert np.array_equal(d.derivative_grid(q), ref.derivative()(q))


def test_numeric_diffeo_decreasing_samples_allowed():
    d = NumericDiffeo.from_function(lambda x: 1.0 - x, (0.0, 1.0), n=16)
    assert not d.increasing
    assert abs(d(0.25) - 0.75) < 1e-12


def test_numeric_diffeo_calls_underlying_exactly():
    d = x2_diffeo()
    assert d(0.333) == 0.333**2
    assert d.domain == (0.0, 1.0)
    assert d.increasing


def test_numeric_diffeo_derivatives():
    d = x2_diffeo()
    assert abs(d.derivative_at(0.5) - 1.0) < 1e-9
    grid = d.derivative_grid(np.array([0.25, 0.5, 0.75]))
    assert np.allclose(grid, [0.5, 1.0, 1.5], atol=1e-8)


def test_numeric_diffeo_inverse_roundtrip():
    d = x2_diffeo()
    inv = d.inverse()
    for y in (0.04, 0.33, 0.91):
        assert abs(d(inv(y)) - y) < 1e-12
        assert abs(inv(d(math.sqrt(y))) - math.sqrt(y)) < 1e-12


def test_numeric_diffeo_inverse_rounds_one_way():
    # the inverse returns the least float whose image reaches y, so it is
    # monotone at the last bit and seam certificates see no ulp jitter
    fn = quad_transition(4.796875, 5.28125, -0.35)
    d = NumericDiffeo.from_function(fn, (4.796875, 5.28125), n=256)
    ys = np.linspace(4.8, 5.28, 997)
    xs = d.inverse()(ys)
    assert np.all(fn(xs) >= ys)
    assert np.all(fn(np.nextafter(xs, -np.inf)) < ys)


def test_numeric_diffeo_identity_detection():
    d = NumericDiffeo.from_function(lambda x: x, (2.0, 3.0), n=8)
    assert d.is_identity()
    assert not x2_diffeo().is_identity()


def test_numeric_diffeo_json_roundtrip():
    d = NumericDiffeo.from_function(lambda x: x * x, (0.0, 1.0), n=16, seams=(0.5,))
    back = NumericDiffeo.from_json(d.to_json())
    assert back.seams == (0.5,)
    # sample points survive exactly; between them only the interpolant is left
    assert back(0.25) == 0.0625
    assert abs(back(0.3) - d(0.3)) < 1e-3
    with pytest.raises(DomainError):
        NumericDiffeo.from_json({"samples": [[0, 0]]})
    with pytest.raises(DomainError):
        NumericDiffeo.from_json({})


# -- glue construction ----------------------------------------------------------


def test_glue_x2_pinned_values():
    p = glue_id_and_diff(x2_diffeo(), 0.1, n=4096)
    assert p(0.05) == 0.05
    assert p(0.95) == 0.95**2
    assert p.seams == (0.1, 0.9)
    rep = p.glue
    assert rep.lam > 0.0
    assert rep.integral_residual < 1e-8
    ys = [p(x) for x in np.linspace(0.01, 0.99, 57)]
    assert all(a < b for a, b in zip(ys, ys[1:]))


def test_glue_snap_is_exact_on_the_outer_zones():
    g = x2_diffeo()
    p = glue_id_and_diff(g, 0.1, n=512)
    for x in (0.02, 0.08, 0.1):
        assert p(x) == x
    for x in (0.9, 0.93, 0.99):
        assert p(x) == g(x)


def test_glue_of_identity_is_identity():
    g = NumericDiffeo.from_function(lambda x: x, (0.0, 1.0), n=64)
    p = glue_id_and_diff(g, 0.125, n=512)
    xs = np.linspace(0.0, 1.0, 501)
    assert max(abs(p(x) - x) for x in xs) < 1e-12


def test_glue_certifies_order_two():
    p = glue_id_and_diff(x2_diffeo(), 0.1, n=4096)
    cert = verify_ck_numeric(p, 2, tol=1e-4)
    assert cert.passed
    assert cert.min_slope > 0.0


def test_glue_rejects_bad_input():
    g = x2_diffeo()
    with pytest.raises(DomainError):
        glue_id_and_diff(g, 0.3)  # eps too wide for the span
    with pytest.raises(DomainError):
        glue_id_and_diff(g, 0.0)
    moved = NumericDiffeo.from_function(lambda x: x * x + 0.05, (0.0, 1.0), n=32)
    with pytest.raises(DomainError):
        glue_id_and_diff(moved, 0.1)
    dec = NumericDiffeo.from_function(lambda x: 1.0 - x, (0.0, 1.0), n=32)
    with pytest.raises(DomainError):
        glue_id_and_diff(dec, 0.1)


def test_glue_infeasible_carries_diagnostics():
    g = NumericDiffeo.from_function(lambda x: x**20, (0.0, 1.0), n=512)
    with pytest.raises(GlueInfeasible) as exc:
        glue_id_and_diff(g, 0.125, n=512)
    assert exc.value.eps == 0.125
    assert exc.value.mass < 0.0


def test_glue_auto_narrows_eps_until_feasible():
    g = NumericDiffeo.from_function(lambda x: x**20, (0.0, 1.0), n=512)
    p = glue_auto(g, n=512)
    assert p.glue.eps < 0.125
    assert p.glue.lam > 0.0
    with pytest.raises(GlueInfeasible):
        glue_auto(g, n=512, retries=0)


@settings(max_examples=10, deadline=None)
@given(st.floats(min_value=-0.8, max_value=0.8))
def test_glue_matches_zones_for_quadratic_family(lam):
    fn = quad_transition(2.0, 3.0, lam)
    g = NumericDiffeo.from_function(fn, (2.0, 3.0), n=256)
    p = glue_auto(g, n=512)
    eps = p.glue.eps
    assert p(2.0 + 0.5 * eps) == 2.0 + 0.5 * eps
    assert p(3.0 - 0.5 * eps) == g(3.0 - 0.5 * eps)
    xs = np.linspace(2.001, 2.999, 101)
    ys = [p(x) for x in xs]
    assert all(a < b for a, b in zip(ys, ys[1:]))


def test_glue_seam_one_ulp_from_a_grid_node():
    # c - eps lands one ulp from a node of the 4096-cell glue grid; that node
    # must give way to the seam, or the snapped samples stop increasing
    images = [(0.014659640964973297, 2.0146596409649735),
              (1.4484742195058764, 3.4484742195058766)]
    lo, hi = images[1][0], images[0][1]
    lam, mu = -0.01727386910829687, -0.006983259853746482
    span = hi - lo

    def bent(x):
        t = (x - lo) / span
        return lo + span * (t + t * (1.0 - t) * (lam + mu * (1.0 - 2.0 * t)))

    g = NumericDiffeo.from_function(bent, (lo, hi), n=256)
    p = glue_auto(g)
    assert np.min(np.diff(p.xs)) > 1e-6 * span
    charts = tuple(IntervalChart(f"c{i}", img) for i, img in enumerate(images))
    assert collapse_chain(ChainAtlas(charts, (g,)), k=2, tol=1e-3).passed


# -- certification --------------------------------------------------------------


def test_verify_smooth_map_passes_all_orders():
    d = NumericDiffeo.from_function(
        lambda x: x + 0.1 * x * x, (0.0, 1.0), n=256, seams=(0.5,)
    )
    cert = verify_ck_numeric(d, 4)
    assert cert.passed
    assert cert.order == 4
    assert len(cert.residuals) == 4
    assert cert.tolerances == TOL_SCHEDULE[:4]


def test_verify_c1_but_not_c2_map():
    d = NumericDiffeo.from_function(
        lambda x: x + x * abs(x), (-1.0, 1.0), n=512, seams=(0.0,)
    )
    assert verify_ck_numeric(d, 1).passed
    cert = verify_ck_numeric(d, 2)
    assert not cert.passed
    # second derivative jumps from -2 to 2 across the seam
    assert cert.residuals[1] > 1.0


def test_verify_corner_fails_at_order_one():
    d = NumericDiffeo.from_function(
        lambda x: x + 0.5 * abs(x), (-1.0, 1.0), n=512, seams=(0.0,)
    )
    cert = verify_ck_numeric(d, 1)
    assert not cert.passed


def test_verify_tolerance_forms():
    d = x2_diffeo()
    assert verify_ck_numeric(d, 2, tol=1e-3).tolerances == (1e-3, 1e-3)
    assert verify_ck_numeric(d, 2, tol=(1e-6, 1e-2)).tolerances == (1e-6, 1e-2)
    with pytest.raises(DomainError):
        verify_ck_numeric(d, 2, tol=(1e-6,))
    with pytest.raises(DomainError):
        verify_ck_numeric(d, 2, tol=-1.0)
    with pytest.raises(DomainError):
        verify_ck_numeric(d, 5)
    with pytest.raises(DomainError):
        verify_ck_numeric(d, 0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_rejects_a_grid_slope_that_overflows():
    # increasing and finite, but the stencil's 8 * f overflows near the float range
    d = NumericDiffeo(tuple(float(i) for i in range(5)),
                      tuple(-1e308 + 4e307 * i for i in range(5)))
    with pytest.raises(DomainError, match="overflows"):
        verify_ck_numeric(d, 1)


def test_cert_json_shape():
    cert = verify_ck_numeric(x2_diffeo(), 2)
    d = cert.to_json()
    assert set(d) >= {"order", "residuals", "passed", "min_slope", "tolerances"}
    assert d["order"] == 2
    assert len(d["residuals"]) == 2


# -- joining two charts ----------------------------------------------------------


def overlap_transition(a, b, lam, n=256):
    return NumericDiffeo.from_function(quad_transition(a, b, lam), (a, b), n=n)


def test_join_identity_transition_short_circuits():
    g = NumericDiffeo.from_function(lambda x: x, (1.0, 2.0), n=64)
    res = join_charts(
        IntervalChart("U", (0.0, 2.0)), IntervalChart("V", (1.0, 3.0)), g
    )
    assert isinstance(res.trans_u, IdentityMap)
    assert isinstance(res.trans_v, IdentityMap)
    assert res.glue is None
    assert res.passed
    assert res.chart.image == (0.0, 3.0)


def test_join_quadratic_transition():
    g = overlap_transition(1.0, 2.0, 0.4)
    res = join_charts(
        IntervalChart("U", (0.0, 2.0)), IntervalChart("V", (1.0, 3.0)), g, k=2
    )
    assert res.passed
    assert res.cert_u.passed and res.cert_v.passed
    assert res.chart.image == (0.0, 3.0)
    # cocycle: the two inclusions agree through the transition
    for x in np.linspace(1.05, 1.95, 19):
        assert abs(res.trans_u(x) - res.trans_v(g(x))) < 1e-10
    # far from the overlap both inclusions are untouched
    assert res.trans_u(0.3) == 0.3
    assert res.trans_v(2.8) == 2.8


def test_join_rejects_bad_geometry():
    g = overlap_transition(1.0, 2.0, 0.4)
    with pytest.raises(NotJoinable):
        join_charts(IntervalChart("U", (0.0, 1.0)), IntervalChart("V", (2.0, 3.0)), g)
    with pytest.raises(NotJoinable):
        join_charts(IntervalChart("U", (0.0, 4.0)), IntervalChart("V", (1.0, 3.0)), g)
    with pytest.raises(NotJoinable):
        join_charts(IntervalChart("U", (0.0, 2.5)), IntervalChart("V", (1.0, 3.0)), g)


def test_join_rejects_bad_transition():
    drift = NumericDiffeo.from_function(
        lambda x: x + 0.05 * (x - 1.0), (1.0, 2.0), n=64
    )
    with pytest.raises(NotJoinable):
        join_charts(IntervalChart("U", (0.0, 2.0)), IntervalChart("V", (1.0, 3.0)), drift)
    dec = NumericDiffeo.from_function(lambda x: 3.0 - x, (1.0, 2.0), n=64)
    with pytest.raises(NotJoinable):
        join_charts(IntervalChart("U", (0.0, 2.0)), IntervalChart("V", (1.0, 3.0)), dec)


# -- chains and collapse -----------------------------------------------------------


def four_chart_atlas(n=256):
    images = [(0.0, 2.0), (1.5, 3.5), (3.0, 5.0), (4.5, 6.5)]
    lams = [0.4, -0.3, 0.25]
    charts = tuple(IntervalChart(f"c{i}", img) for i, img in enumerate(images))
    transitions = tuple(
        overlap_transition(images[i + 1][0], images[i][1], lams[i], n=n)
        for i in range(3)
    )
    return ChainAtlas(charts, transitions)


def test_chain_atlas_validation():
    charts = (IntervalChart("a", (0.0, 2.0)), IntervalChart("b", (1.0, 3.0)))
    good = overlap_transition(1.0, 2.0, 0.1)
    with pytest.raises(NotJoinable):
        ChainAtlas((charts[0],), ())
    with pytest.raises(NotJoinable):
        ChainAtlas(charts, ())
    with pytest.raises(NotJoinable):
        ChainAtlas(charts, (overlap_transition(1.0, 1.5, 0.1),))
    ChainAtlas(charts, (good,))  # sane chain passes


def test_chain_atlas_rejects_triple_overlap():
    charts = (
        IntervalChart("a", (0.0, 3.0)),
        IntervalChart("b", (1.0, 4.0)),
        IntervalChart("c", (2.5, 6.0)),  # starts inside chart a
    )
    transitions = (
        overlap_transition(1.0, 3.0, 0.1),
        overlap_transition(2.5, 4.0, 0.1),
    )
    with pytest.raises(NotJoinable):
        ChainAtlas(charts, transitions)


def test_collapse_identity_chain_is_exact():
    charts = (
        IntervalChart("a", (0.0, 2.0)),
        IntervalChart("b", (1.0, 3.0)),
        IntervalChart("c", (2.5, 4.5)),
    )
    transitions = (
        NumericDiffeo.from_function(lambda x: x, (1.0, 2.0), n=32),
        NumericDiffeo.from_function(lambda x: x, (2.5, 3.0), n=32),
    )
    res = collapse_chain(ChainAtlas(charts, transitions))
    assert res.passed
    assert res.steps == ((1, 2), (0, 1))
    assert res.chart.image == (0.0, 4.5)
    for r, chart in zip(res.transitions, charts):
        lo, hi = chart.image
        for x in np.linspace(lo + 0.01, hi - 0.01, 11):
            assert abs(r(x) - x) < 1e-12


def test_collapse_four_chart_chain():
    atlas = four_chart_atlas()
    res = collapse_chain(atlas, k=2, tol=1e-4)
    assert res.passed
    assert res.steps == ((1, 2), (2, 3), (0, 1))
    assert res.chart.image == (0.0, 6.5)
    assert len(res.certs) == 4
    # cocycle on every overlap after the collapse
    for i, g in enumerate(atlas.transitions):
        lo, hi = g.domain
        for x in np.linspace(lo + 0.02, hi - 0.02, 9):
            assert abs(res.transitions[i](x) - res.transitions[i + 1](g(x))) < 1e-9


def test_collapse_smooth_chain_certifies_order_two():
    # smooth transitions, so the collapsed chart must pass at order 2; with
    # an inverse that jittered by an ulp the last seam's residual was 2.5e-3
    images = [(0.171875, 2.171875), (1.71875, 3.71875), (3.28125, 5.28125),
              (4.796875, 6.796875)]
    params = [(0.13013423684567865, 0.21724588882098722),
              (0.42750764456058393, 0.2382420470682582),
              (-0.3499727697114822, -0.030023174456312418)]
    charts = tuple(IntervalChart(f"c{i}", img) for i, img in enumerate(images))
    transitions = []
    for i, (lam, mu) in enumerate(params):
        lo, hi = images[i + 1][0], images[i][1]
        span = hi - lo

        def bent(x, lo=lo, span=span, lam=lam, mu=mu):
            t = (x - lo) / span
            return lo + span * (t + t * (1.0 - t) * (lam + mu * (1.0 - 2.0 * t)))

        transitions.append(NumericDiffeo.from_function(bent, (lo, hi), n=256))
    res = collapse_chain(ChainAtlas(charts, tuple(transitions)), k=2, tol=1e-3)
    assert res.passed
    assert res.cert.residuals[1] < 1e-5


def test_collapse_prefixes_failures_with_the_pair(monkeypatch):
    def boom(*args, **kwargs):
        raise GlueInfeasible("forced failure", eps=0.1, mass=-1.0)

    monkeypatch.setattr(join_mod, "glue_auto", boom)
    charts = (IntervalChart("a", (0.0, 2.0)), IntervalChart("b", (1.0, 3.0)))
    atlas = ChainAtlas(charts, (overlap_transition(1.0, 2.0, 0.3),))
    with pytest.raises(GlueInfeasible) as exc:
        collapse_chain(atlas)
    assert str(exc.value).startswith("joining charts 0 and 1:")


def test_collapse_certifies_each_chart_once(monkeypatch):
    # one certificate per input chart's final transition, none per join
    certified = []
    verify = join_mod.verify_ck_numeric

    def counted(map_obj, k, tol=None):
        certified.append(map_obj)
        return verify(map_obj, k, tol)

    monkeypatch.setattr(join_mod, "verify_ck_numeric", counted)
    res = collapse_chain(four_chart_atlas(), k=2, tol=1e-4)
    assert res.passed
    assert len(certified) == 4
    assert certified == list(res.transitions)


@pytest.mark.parametrize("k, tol", [(5, None), (0, None), (2, -1.0), (2, (1e-3,))])
def test_collapse_rejects_order_and_tolerance_before_gluing(monkeypatch, k, tol):
    def boom(*args, **kwargs):
        raise AssertionError("glued before k and tol were checked")

    monkeypatch.setattr(join_mod, "glue_auto", boom)
    with pytest.raises(DomainError):
        collapse_chain(four_chart_atlas(), k=k, tol=tol)


def test_scalar_only_transition_rule():
    # math.sin rejects arrays, so NumericDiffeo loops the rule point by point
    g = NumericDiffeo.from_function(
        lambda x: x + 0.3 * math.sin(math.pi * (x - 1.0)) ** 2, (1.0, 2.0), n=256
    )
    atlas = ChainAtlas(
        (IntervalChart("u", (0.0, 2.0)), IntervalChart("v", (1.0, 3.0))), (g,)
    )
    res = collapse_chain(atlas, k=2, tol=1e-4)
    assert res.passed
    xs = np.linspace(1.1, 1.9, 9)
    assert list(g(xs)) == [g(float(x)) for x in xs]


# -- the map protocol: a float gives a float, a 1-D array an array --------------


@pytest.fixture(scope="module")
def protocol_maps():
    """Every map kind, each with an interval inside its domain."""
    g = overlap_transition(1.0, 2.0, 0.4)
    atlas = four_chart_atlas()
    res = collapse_chain(atlas, k=1)
    maps = {
        "identity": (IdentityMap((0.0, 1.0)), (0.0, 1.0)),
        "affine": (AffineMap(2.0, -3.0), (-1.0, 1.0)),
        "composed": (
            ComposedMap(AffineMap(2.0, 0.0), AffineMap(1.0, 1.0, domain=(0.0, 1.0))),
            (0.0, 1.0),
        ),
        "piecewise": (
            PiecewiseMonotone(
                (0.0, 1.0, 2.0),
                (IdentityMap((0.0, 1.0)), AffineMap(2.0, -1.0, domain=(1.0, 2.0))),
            ),
            (0.0, 2.0),
        ),
        "numeric": (g, g.domain),
        "interpolant": (NumericDiffeo.from_json(g.to_json()), g.domain),
        "inverse": (g.inverse(), g.domain),
        "glued": (glue_id_and_diff(g, 0.1, n=512), g.domain),
        "plateau": (bump_plateau(0.0, 1.0, 2.0, 3.0), (-0.5, 3.5)),
    }
    for i, (r, chart) in enumerate(zip(res.transitions, atlas.charts)):
        maps[f"collapsed_{i}"] = (r, chart.image)
    return maps


MAP_KINDS = ["identity", "affine", "composed", "piecewise", "numeric", "interpolant",
             "inverse", "glued", "plateau"] + [f"collapsed_{i}" for i in range(4)]


@pytest.mark.parametrize("kind", MAP_KINDS)
def test_map_protocol_array_matches_pointwise(protocol_maps, kind):
    m, (lo, hi) = protocol_maps[kind]
    xs = np.linspace(lo, hi, 103)[1:-1]
    got = m(xs)
    assert isinstance(got, np.ndarray) and got.shape == xs.shape
    singles = [m(float(x)) for x in xs]
    assert all(type(v) is float for v in singles)
    assert np.allclose(got, singles, rtol=1e-14, atol=0.0)


def test_map_protocol_keeps_snapped_regions_exact():
    g = x2_diffeo()
    p = glue_id_and_diff(g, 0.1, n=512)
    left = np.linspace(0.0, 0.1, 21)
    right = np.linspace(0.9, 1.0, 21)
    assert np.array_equal(p(left), left)
    assert np.array_equal(p(right), right * right)
    both = np.concatenate((left, np.linspace(0.2, 0.8, 7), right))
    out = p(both)
    assert np.array_equal(out[:21], left) and np.array_equal(out[-21:], right * right)

    res = join_charts(
        IntervalChart("U", (0.0, 2.0)), IntervalChart("V", (1.0, 3.0)),
        overlap_transition(1.0, 2.0, 0.4), k=2,
    )
    far_u = np.linspace(0.05, 0.95, 19)
    far_v = np.linspace(2.05, 2.95, 19)
    assert np.array_equal(res.trans_u(far_u), far_u)
    assert np.array_equal(res.trans_v(far_v), far_v)


# -- JSON round trips ---------------------------------------------------------------


def chain_spec():
    g = overlap_transition(1.0, 2.0, 0.4, n=128)
    entry = g.to_json()
    entry["between"] = [0, 1]
    return {
        "charts": [
            {"label": "left", "image": [0.0, 2.0]},
            {"label": "right", "image": [1.0, 3.0]},
        ],
        "transitions": [entry],
        "k": 1,
    }


def test_chain_from_json_reads_charts_and_overrides():
    atlas, k, tol = chain_from_json(chain_spec())
    assert k == 1
    assert tol is None
    assert [c.label for c in atlas.charts] == ["left", "right"]
    assert atlas.transitions[0].domain == (1.0, 2.0)

    spec = chain_spec()
    spec["tol"] = 1e-3
    _, _, tol = chain_from_json(spec)
    assert tol == 1e-3
    spec["tol"] = -1.0
    with pytest.raises(DomainError):
        chain_from_json(spec)


def test_chain_from_json_derives_missing_transitions():
    spec = {
        "charts": [
            {"label": "u", "image": [0.0, 2.0], "map": "identity"},
            {"label": "v", "image": [1.0, 3.0], "map": {"affine": [1.0, 0.0]}},
        ],
        "k": 1,
    }
    atlas, _, _ = chain_from_json(spec)
    g = atlas.transitions[0]
    assert g.domain == (1.0, 2.0)
    assert abs(g(1.5) - 1.5) < 1e-9

    # charts without maps cannot produce a transition implicitly
    with pytest.raises(DomainError):
        chain_from_json({"charts": [
            {"label": "u", "image": [0.0, 2.0]},
            {"label": "v", "image": [1.0, 3.0]},
        ]})


def test_chain_from_json_rejects_nonconsecutive_links():
    spec = chain_spec()
    spec["transitions"][0]["between"] = [0, 2]
    with pytest.raises(DomainError):
        chain_from_json(spec)
    with pytest.raises(DomainError):
        chain_from_json({"k": 2})


def test_collapse_to_json_shape():
    spec = chain_spec()
    atlas, k, _ = chain_from_json(spec)
    res = collapse_chain(atlas, k=k)
    out = collapse_to_json(res, atlas, n_samples=17)
    assert out["chart"]["image"] == [0.0, 3.0]
    assert [t["chart"] for t in out["transitions"]] == [0, 1]
    assert len(out["transitions"][0]["samples"]) == 17
    assert out["cert"]["passed"] is True
