"""Chart joining: quadrature, glue construction, certification, collapse."""

import math
import random
import sys
from pathlib import Path

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

import glue_oracle
import glue_reference
import inverse_reference
from glue_oracle import carried_residual
from record_fields import record_fields

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402  (read only: the benchmark's map builders)


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
    arr = f(np.array([-0.5, 1.7, 3.5]))
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


@pytest.mark.parametrize("knots", [(-1.0, 0.5, 2.0, 3.25), (-1.0, 0.5, 0.5, 2.0),
                                   (2.9375, 3.0, 3.0625, 3.125),
                                   (-7.0, -7.0 + 2.0 ** -40, 1e3, 1e6)])
def test_banded_plateau_is_the_smoothstep_product_bit_for_bit(knots):
    f = bump_plateau(*knots)
    l0, l1, r1, r0 = knots
    rng = np.random.default_rng(20)
    width = r0 - l0
    xs = np.concatenate((
        rng.uniform(l0 - 0.5 * width, r0 + 0.5 * width, 4000),
        rng.uniform(l0, l1, 500), rng.uniform(r1, r0, 500),
        [np.nextafter(k, d) for k in knots for d in (-np.inf, np.inf)], knots,
        [-np.inf, np.inf]))
    product = (join_mod._smoothstep_arr((xs - l0) / (l1 - l0))
               * join_mod._smoothstep_arr((r0 - xs) / (r0 - r1)))
    assert np.array_equal(f(xs).view(np.int64), product.view(np.int64))
    assert [f(float(x)) for x in xs[-10:]] == product[-10:].tolist()


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


class Counted:
    """A map that counts its calls; domain and seams are the wrapped map's."""

    def __init__(self, fn, domain=None, seams=()):
        self.fn, self.calls, self.domain, self.seams = fn, 0, domain, seams

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_verify_calls_its_map_once_per_certificate(k):
    g = overlap_transition(1.0, 2.0, 0.4)
    glued = glue_id_and_diff(g, 0.1, n=512)
    smooth = NumericDiffeo.from_function(lambda x: x + 0.1 * x * x, (0.0, 1.0), n=256,
                                         seams=(0.3, 0.5))
    for m in (g, glued, smooth):
        counted = Counted(m, m.domain, m.seams)
        cert = verify_ck_numeric(counted, k, tol=1e-3)
        assert counted.calls == 1
        assert cert == verify_ck_numeric(m, k, tol=1e-3)


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


def test_numeric_diffeo_inverse_meets_its_contract_on_a_rule_not_monotone_in_floats():
    # near x = 0 this rule's floats are far finer than its values, so it
    # crosses some y at several floats and equals others at runs of floats:
    # the answer need not be the first float from the cell's end a, but it
    # is a float reaching y whose neighbour toward a falls short. Stepping
    # from a root gallops along such a run, so the call ends in few passes.
    # The map decreases, so a is the cell's larger end
    fn = lambda x: 2.0 - x - 0.3 * x * (1.0 - x)  # noqa: E731
    calls = []
    d = NumericDiffeo.from_function(lambda x: (calls.append(x.size), fn(x))[1], (0.0, 1.0))
    ys = np.linspace(1.0, 2.0, 5003)[1:-1]
    calls.clear()
    xs = d.inverse()(ys)
    assert len(calls) < 40
    assert np.all(fn(xs) >= ys)
    assert np.all(fn(np.nextafter(xs, np.inf)) < ys)


def test_numeric_diffeo_inverse_matches_the_cell_end_reference_bit_for_bit():
    # the inverse starts from a bracket around the samples' secant; the
    # reference starts every solve from the cell's ends. Each rule here is
    # monotone in floats: where rounding makes a rule cross y at several
    # floats (2 - x - 0.3 x (1 - x) near x = 0, whose floats are far finer
    # than its values'), the two solves may stop at different crossings
    maps = []
    for seed in range(10):
        spec = gen.chain_spec(random.Random(seed), 4)
        for i, (lam, mu) in enumerate(spec["params"]):
            maps.append(bent_diffeo(spec["images"][i + 1][0], spec["images"][i][1], lam, mu))
    maps += [NumericDiffeo.from_function(quad_transition(4.796875, 5.28125, -0.35),
                                         (4.796875, 5.28125), n=256),
             NumericDiffeo.from_function(lambda x: 3.0 - x - 0.3 * (x - 1.0) * (2.0 - x),
                                         (1.0, 2.0)),
             NumericDiffeo.from_function(gen.steep_map(0.25, 1.5, 20, 0.01), (0.25, 1.5), n=512),
             NumericDiffeo.from_json(maps[0].to_json())]
    r = np.random.default_rng(25)
    for d in maps:
        lo, hi = sorted((d.ys[0], d.ys[-1]))
        ys = np.array(d.ys)
        points = np.concatenate((ys, np.nextafter(ys, -np.inf), np.nextafter(ys, np.inf),
                                 0.5 * (ys[1:] + ys[:-1]), r.uniform(lo, hi, 500),
                                 [lo, hi, lo - 1.0, hi + 1.0, lo - 1e-300, hi + 1e-9]))
        assert d.inverse()(points).tolist() == inverse_reference.inverse(d)(points).tolist()


def test_numeric_diffeo_inverse_of_one_point_matches_the_array_solve_bit_for_bit():
    # one loop solves every call, and each rule here works point by point, so
    # a point's iterates do not depend on the other points of its call: its
    # answer alone and within a call of over a thousand points is the same
    # bits, galloping along a run of roots (2 - x - 0.3 x (1 - x) near
    # x = 0) included
    xs = np.linspace(1.0, 2.0, 33)
    maps = [NumericDiffeo.from_function(lambda x: 2.0 - x - 0.3 * x * (1.0 - x), (0.0, 1.0)),
            bent_diffeo(4.796875, 5.28125, 0.3, -0.1),
            NumericDiffeo.from_function(gen.steep_map(0.25, 1.5, 20, 0.01), (0.25, 1.5), n=512),
            NumericDiffeo(xs, 1.0 + (xs - 1.0) ** 2)]
    for d in maps:
        lo, hi = sorted((d.ys[0], d.ys[-1]))
        ys = np.array(d.ys)
        points = np.concatenate((np.linspace(lo, hi, 1201), 0.5 * (ys[1:] + ys[:-1]),
                                 np.nextafter(ys, np.inf), [lo - 1.0, hi + 1.0]))
        inv = d.inverse()
        assert [inv(np.array([y]))[0] for y in points.tolist()] == inv(points).tolist()


def test_numeric_diffeo_inverse_evaluates_only_live_points_once_a_pass():
    # after the seed's call on the cells' ends and the seed's bracket, four
    # points per y, each pass calls the rule once, on the points still live:
    # a point that takes j passes alone is evaluated on passes 1 to j
    fn = gen.bent_map(4.796875, 5.28125, 0.3, -0.1)
    sizes = []
    d = NumericDiffeo.from_function(lambda x: (sizes.append(len(x)), fn(x))[1],
                                    (4.796875, 5.28125))
    inv = d.inverse()
    ys = np.linspace(4.8, 5.28, 300)
    passes = []
    for y in ys.tolist():
        sizes.clear()
        inv(np.array([y]))
        passes.append(len(sizes) - 1)
    assert len(set(passes)) > 2
    sizes.clear()
    inv(ys)
    assert sizes == [4 * len(ys)] + [sum(p >= j for p in passes)
                                     for j in range(1, max(passes) + 1)]


def test_numeric_diffeo_keeps_its_own_samples():
    xs = np.linspace(0.0, 1.0, 17)
    ys = xs + 0.3 * xs * (1.0 - xs)
    want = (tuple(xs.tolist()), tuple(ys.tolist()))
    q = np.linspace(-0.1, 1.1, 57)
    maps = (NumericDiffeo(xs, ys),
            NumericDiffeo(xs, ys, underlying=lambda t: t + 0.3 * t * (1.0 - t)))
    values = [(m(q).tolist(), m.inverse()(q).tolist()) for m in maps]
    xs[:] = np.linspace(5.0, 6.0, 17)
    ys[::-1] = ys.copy()
    for m, before in zip(maps, values):
        assert (m.xs, m.ys) == want and m.domain == (0.0, 1.0)
        assert (m(q).tolist(), m.inverse()(q).tolist()) == before


def test_collapse_builds_no_sample_tuples(monkeypatch):
    glued = []

    def recorded(g, *args, **kwargs):
        glued.append(glue_auto(g, *args, **kwargs))
        return glued[-1]

    monkeypatch.setattr(join_mod, "glue_auto", recorded)
    spec = gen.chain_spec(random.Random(16), 16)
    images = spec["images"]
    charts = tuple(IntervalChart(f"c{i}", img) for i, img in enumerate(images))
    transitions = tuple(bent_diffeo(images[i + 1][0], images[i][1], lam, mu)
                        for i, (lam, mu) in enumerate(spec["params"]))
    assert collapse_chain(ChainAtlas(charts, transitions), k=1).passed
    assert len(glued) == 15
    for m in glued + list(transitions):
        assert "xs" not in vars(m) and "ys" not in vars(m)


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
    g = x2_diffeo()
    p = glue_id_and_diff(g, 0.1, n=4096)
    assert p(0.05) == 0.05
    assert p(0.95) == 0.95**2
    assert p.seams == (0.1, 0.9)
    rep = p.glue
    assert rep.lam > 0.0
    assert rep.integral_residual < 1e-8
    assert carried_residual(g, p) < 1e-8
    ys = [p(x) for x in np.linspace(0.01, 0.99, 57)]
    assert all(a < b for a, b in zip(ys, ys[1:]))


def test_glue_reads_g_past_the_right_seam_only_at_its_snapped_nodes():
    seen = []

    def square(x):
        seen.append(np.array(x, dtype=float).ravel())
        return x * x

    g = NumericDiffeo.from_function(square, (0.0, 1.0), n=256)
    seen.clear()
    p = glue_id_and_diff(g, 0.1, n=4096)
    hi_seam = 1.0 - 0.1
    # one call: the right ramp's 8C + 1 Simpson nodes from c - eps down to
    # c - 2 eps, then past c - eps only the samples snapped to g, each once,
    # with no stencil margin
    (points,) = seen
    xs = np.array(p.xs)
    assert np.array_equal(points[points > hi_seam], xs[xs > hi_seam])
    ramp = points[points <= hi_seam]
    cells = math.ceil(4096 * 0.1)
    assert ramp.size == 8 * cells + 1 and ramp[0] == hi_seam and ramp[-1] == 1.0 - 2 * 0.1
    assert np.all(np.diff(ramp) < 0.0)
    # the ramp's sums run from c - eps, where p's closed form is g's own
    # value up to rounding; lambda is fitted where the middle band's closed
    # form meets the right ramp's, at c - 2 eps, and the report holds the
    # balance left there, which reads rounding only
    rep = p.glue
    below = math.nextafter(hi_seam, 0.0)
    assert abs(p(below) - g(below)) <= 2 * 2.0 ** -52
    assert rep.presnap_g <= 4 * 2.0 ** -52
    assert rep.integral_residual == rep.presnap_g / 1.0
    assert rep.presnap_id == 0.0
    c2 = 1.0 - 2 * 0.1
    assert abs(p(math.nextafter(c2, 1.0)) - p(c2)) <= rep.presnap_g + 4 * 2.0 ** -52


def test_glue_snap_is_exact_on_the_outer_zones():
    g = x2_diffeo()
    p = glue_id_and_diff(g, 0.1, n=512)
    for x in (0.02, 0.08, 0.1):
        assert p(x) == x
    for x in (0.9, 0.93, 0.99):
        assert p(x) == g(x)
    # a join uses the glue alone on a wider interval, so both branches hold
    # past (b, c) = (0, 1) as well
    below = np.linspace(-2.0, 0.1, 43)
    above = np.linspace(0.9, 3.0, 43)
    assert np.array_equal(p(below), below)
    assert np.array_equal(p(above), g(above))


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
    with pytest.raises(DomainError):
        glue_id_and_diff(AffineMap(2.0, 0.0, domain=(0.0, 1.0)), 0.1)


def test_glue_infeasible_carries_diagnostics():
    g = NumericDiffeo.from_function(lambda x: x**20, (0.0, 1.0), n=512)
    with pytest.raises(GlueInfeasible) as exc:
        glue_id_and_diff(g, 0.125, n=512)
    assert exc.value.eps == 0.125
    assert exc.value.mass < 0.0


def test_glue_auto_narrows_eps_until_feasible(monkeypatch):
    g = NumericDiffeo.from_function(lambda x: x**20, (0.0, 1.0), n=512)
    p = glue_auto(g, n=512)
    assert p.glue.eps < 0.125
    assert p.glue.lam > 0.0
    # where no eps is feasible it tries an eighth of the span and then each
    # halving in turn, and raises the last failure
    tried = []

    def infeasible(g, eps, n):
        tried.append(eps)
        raise GlueInfeasible("no room", eps=eps, mass=-1.0)

    monkeypatch.setattr(join_mod, "glue_id_and_diff", infeasible)
    with pytest.raises(GlueInfeasible) as exc:
        glue_auto(g, n=512)
    assert tried == [0.125 / 2**i for i in range(join_mod._GLUE_RETRIES + 1)]
    assert exc.value.eps == tried[-1]


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


#: Two chart images whose overlap (b, c) puts c - eps one ulp from a node
#: of the 4096-cell glue grid, and the bent transition's (lam, mu) on it.
ONE_ULP_IMAGES = ((0.014659640964973297, 2.0146596409649735),
                  (1.4484742195058764, 3.4484742195058766))
ONE_ULP_BEND = (-0.01727386910829687, -0.006983259853746482)


def bent_diffeo(lo, hi, lam, mu):
    return NumericDiffeo.from_function(gen.bent_map(lo, hi, lam, mu), (lo, hi), n=256)


def test_glue_seam_one_ulp_from_a_grid_node():
    # that node must give way to the seam, or the snapped samples stop
    # increasing
    lo, hi = ONE_ULP_IMAGES[1][0], ONE_ULP_IMAGES[0][1]
    g = bent_diffeo(lo, hi, *ONE_ULP_BEND)
    p = glue_auto(g)
    assert np.min(np.diff(p.xs)) > 1e-6 * (hi - lo)
    charts = tuple(IntervalChart(f"c{i}", img) for i, img in enumerate(ONE_ULP_IMAGES))
    assert collapse_chain(ChainAtlas(charts, (g,)), k=2, tol=1e-3).passed


def glue_cases() -> list:
    """(g, eps or None for glue_auto, n) of the glue comparisons: eps near
    span/4, where the middle band holds a cell or none; coarse grids, where a
    cell spans a good part of a ramp; the 2-chart chains of the benchmark;
    ends off the dyadic grid and cell counts that are not powers of two;
    steep maps, where glue_auto halves eps; and the one-ulp bend."""
    cases = [(x2_diffeo(), 0.1, 4096), (x2_diffeo(), 0.2, 1001), (x2_diffeo(), None, 4096)]
    r = random.Random(27)
    for frac in (0.24, 0.2499):
        for n in (4096, 4093, 1001, 16, 21):
            lo = r.uniform(-1.0, 1.0)
            hi = lo + r.uniform(0.3, 0.6)
            cases.append((bent_diffeo(lo, hi, *gen.transition_params(r)), frac * (hi - lo), n))
    for frac, n in ((0.1, 16), (0.15, 21), (0.2, 40)):
        cases.append((bent_diffeo(0.25, 0.875, 0.3, -0.1), frac * 0.625, n))
    for seed in range(10):
        spec = gen.chain_spec(random.Random(seed), 2)
        overlap = (spec["images"][1][0], spec["images"][0][1])
        cases.append((bent_diffeo(*overlap, *spec["params"][0]), None, 4096))
    r = random.Random(7)
    for n in (4093, 4094, 4095, 4097, 1001):
        lo = r.uniform(-1.0, 1.0)
        hi = lo + r.uniform(0.3, 0.6)
        cases.append((bent_diffeo(lo, hi, *gen.transition_params(r)), None, n))
    for power, w in ((14, 0.05), (20, 0.01), (40, 0.02)):
        steep = NumericDiffeo.from_function(gen.steep_map(0.25, 1.5, power, w), (0.25, 1.5),
                                            n=512)
        cases.append((steep, None, 4096))
    cases.append((bent_diffeo(ONE_ULP_IMAGES[1][0], ONE_ULP_IMAGES[0][1], *ONE_ULP_BEND),
                   None, 4096))
    return cases


def test_glue_matches_the_all_cells_reference_bit_for_bit():
    # the glue reads the ramps' samples straight off its cached table, and a
    # point as the table's value at the end of its cell nearer the seam plus
    # a partial sum; the reference builds its sums afresh and puts every
    # sample and point through one routine
    halved, bare_middle = 0, 0
    for g, eps, n in glue_cases():
        b, c = g.domain
        t = np.linspace(b - 0.1 * (c - b), c + 0.1 * (c - b), 301)
        glued, calls = [], []
        for lib in (join_mod, glue_reference):
            seen = []  # the size of each call of g's rule, while gluing and evaluating
            counted = NumericDiffeo(g.xs, g.ys, underlying=lambda x: (
                seen.append(x.size), g.underlying(x))[1])
            p = lib.glue_auto(counted, n=n) if eps is None else \
                lib.glue_id_and_diff(counted, eps, n=n)
            # the middle band's ends and samples, and points of each band
            e = p.glue.eps
            b2, c2 = b + 2 * e, c - 2 * e
            band = np.array([b2, c2] + [x for x in p.xs if b2 <= x <= c2])
            ends = [b - e, b, b + e, b2, c2, c - e, c, c + e]
            scalars = [float(x) for lo, hi in zip(ends, ends[1:]) for x in np.linspace(lo, hi, 5)]
            # t[:20] lies below b, so only the identity branch holds points
            glued.append((p.xs, p.ys, record_fields(p.glue), p(t).tolist(), p(t[:20]).tolist(),
                          p(band).tolist(), [p(x) for x in scalars]))
            calls.append(seen)
        assert glued[0] == glued[1]
        assert calls[0] == calls[1]
        halved += p.glue.eps < (c - b) / 8.0
        bare_middle += c2 not in p.xs
    # eps was halved at least three times, and some middle bands are too
    # narrow for a cell of their own
    assert halved >= 3
    assert bare_middle >= 3


def test_glue_agrees_with_the_all_cells_quadrature_oracle():
    # the oracle integrates gamma = F + R g' + lambda beta on every cell, with
    # g' from its stencil: the closed form differs from it by the two rules'
    # quadrature errors, at most 1.1e-12 of max(1, |x|) where n >= 1001 and
    # 6.2e-6 on the coarse grids (two cells a ramp at n = 16), lambda by
    # 1.5e-11 and 1.8e-5, and glue_auto picks the same eps
    for g, eps, n in glue_cases():
        b, c = g.domain
        t = np.linspace(b - 0.1 * (c - b), c + 0.1 * (c - b), 301)
        p, q = (lib.glue_auto(g, n=n) if eps is None else lib.glue_id_and_diff(g, eps, n=n)
                for lib in (join_mod, glue_oracle))
        assert p.glue.eps == q.glue.eps
        bound = 1e-11 if n >= 1001 else 2e-5
        assert np.max(np.abs(p(t) - q(t)) / np.maximum(1.0, np.abs(t))) <= bound
        assert abs(p.glue.lam / q.glue.lam - 1.0) <= 10 * bound


def test_glue_of_the_identity_is_the_identity_to_the_bit():
    # the ramps' sums run over g less the identity, so the identity's part
    # is exact: lambda is 1 and p is x
    for lo, hi in ((0.0, 1.0), (-3.0, -1.5)):
        g = NumericDiffeo.from_function(lambda x: x, (lo, hi), n=64)
        t = np.concatenate((np.linspace(lo - 0.5, hi + 0.5, 2001),
                            np.linspace(lo, hi, 4097)[1:-1]))
        for n in (16, 21, 512, 4096):
            p = glue_auto(g, n=n)
            assert p.glue.lam == 1.0
            assert np.max(np.abs(p(t) - t)) <= 1e-15 * max(1.0, abs(lo), abs(hi))
            assert np.max(np.abs(np.array(p.ys) - np.array(p.xs))) <= 1e-15 * max(1.0, abs(lo))


def test_glue_of_a_transition_that_is_the_identity_on_the_right_ramp_fits_lambda_one():
    # g bends on (0, 3/4) and is x on [3/4, 1], which holds the right ramp
    # [c - 2 eps, c - eps] and the part past it at eps = 1/8: the discrete
    # sums are exact for it, so lambda is 1 and the glue is the identity
    def bend(x):
        return np.where(x < 0.75, x + x * x * (0.75 - x) ** 2, x)

    g = NumericDiffeo.from_function(bend, (0.0, 1.0), n=256)
    for n in (16, 21, 1001, 4096):
        p = glue_id_and_diff(g, 0.125, n=n)
        assert p.glue.lam == 1.0
        t = np.linspace(0.0, 1.0, 1001)
        assert np.array_equal(p(t), t)


def test_glue_meets_x_and_g_at_its_seams_to_every_order_on_any_grid():
    # each ramp's sums run from its seam, where S' vanishes to every order,
    # so p - x and p - g are flat at b + eps and c - eps however coarse the
    # cells: the seam residuals of 16 cells are those of 4096
    g = bent_diffeo(0.25, 0.875, 0.3, -0.1)
    for frac in (0.1, 0.15, 0.2):
        certs = [verify_ck_numeric(glue_id_and_diff(g, frac * 0.625, n=n), 2,
                                   tol=(1e-9, 1e-7)) for n in (16, 21, 40, 4096)]
        assert all(cert.passed for cert in certs)
        assert max(cert.residuals[1] for cert in certs) <= 1.1 * certs[-1].residuals[1]


def test_glue_rejects_a_transition_that_dips_between_its_samples():
    # increasing at its 257 samples, but falling on a stretch inside
    # (c - 2 eps, c - eps) between two of them: the ramp's reads see it
    centre, width = 0.849609375, 0.0015

    def dip(x):
        s = np.clip((x - centre) / width, -1.0, 1.0)
        with np.errstate(divide="ignore"):
            bump = np.where(np.abs(s) < 1.0, np.exp(-1.0 / (1.0 - s * s)), 0.0)
        return x - 0.01 * bump

    g = NumericDiffeo.from_function(dip, (0.0, 1.0), n=256)
    assert np.all(np.diff(g.ys) > 0.0)
    assert np.any(np.diff(dip(np.linspace(0.84, 0.86, 2001))) < 0.0)
    with pytest.raises(DomainError):
        glue_id_and_diff(g, 0.1)


def test_glue_auto_builds_one_ramp_table_per_cell_count():
    steep = NumericDiffeo.from_function(gen.steep_map(0.25, 1.5, 40, 0.02), (0.25, 1.5), n=512)
    glue_auto(steep, n=4096)
    before = join_mod._ramp_table.cache_info()
    again = NumericDiffeo.from_function(gen.steep_map(0.25, 1.5, 20, 0.01), (0.25, 1.5), n=512)
    p = glue_auto(again, n=4096)
    after = join_mod._ramp_table.cache_info()
    assert p.glue.eps < (1.5 - 0.25) / 8  # eps was halved
    assert after.misses == before.misses
    assert after.hits > before.hits
    assert after.maxsize >= 7


def test_glued_map_on_its_middle_band_evaluates_no_factor(monkeypatch):
    # on [b + 2 eps, c - 2 eps] gamma is lam: p reads it without g's rule
    # or any smoothstep slope
    g = bent_diffeo(0.3, 0.75, 0.3, -0.1)
    seen = []
    counted = NumericDiffeo(g.xs, g.ys, underlying=lambda x: (seen.append(x.size),
                                                              g.underlying(x))[1])
    p = glue_id_and_diff(counted, 0.05, n=1001)
    b2, c2 = 0.3 + 2 * 0.05, 0.75 - 2 * 0.05
    band = np.array([x for x in p.xs if b2 <= x <= c2])
    points = np.concatenate((band, 0.5 * (band[1:] + band[:-1])))

    def no_slope(t):
        raise AssertionError("a smoothstep slope was evaluated")

    monkeypatch.setattr(join_mod, "_smoothstep_slope", no_slope)
    seen.clear()
    values = p(points)
    assert [p(x) for x in points[::50].tolist()] == values[::50].tolist()
    assert seen == []
    assert np.all(np.diff(values[:band.size]) > 0.0)


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


def test_verify_rejects_seam_steps_past_the_float_range():
    # the squared step of the order-2 quotient overflows; a seam one float
    # from another leaves a step that underflows to 0
    wide = NumericDiffeo.from_function(lambda x: x, (0.0, 1e200), seams=(5e199,))
    with pytest.raises(DomainError, match="too large"):
        verify_ck_numeric(wide, 2)
    close = NumericDiffeo.from_function(lambda x: x, (-1.0, 1.0), seams=(0.0, 5e-324))
    with pytest.raises(DomainError, match="too close"):
        verify_ck_numeric(close, 1)


def cert_maps():
    """Maps with 1-3 distinct seams, some near the domain's ends: smooth and
    cornered rules, the monotone cubic of sampled ones, a glue and the
    transitions of a collapsed 4-chart chain."""
    r = random.Random(28)
    maps = []
    for n in range(12):
        lo = r.uniform(-3.0, 3.0)
        span = r.uniform(0.25, 4.0)
        hi = lo + span
        seams = sorted({lo + span * r.uniform(0.1, 0.9) for _ in range(r.randint(1, 3))})
        if n % 3 == 1:
            seams[0] = lo + span * 10.0 ** -r.randint(3, 9)
        if n % 3 == 2:
            seams[-1] = hi - span * 10.0 ** -r.randint(3, 9)
        c = r.uniform(0.05, 0.3)
        smooth = gen.smooth_map(lo, c)
        corner = gen.corner_map(seams[len(seams) // 2], c)
        maps += [NumericDiffeo.from_function(smooth, (lo, hi), n=256, seams=tuple(seams)),
                 NumericDiffeo.from_function(corner, (lo, hi), n=256, seams=tuple(seams))]
        xs = np.linspace(lo, hi, 129)
        maps.append(NumericDiffeo(xs, smooth(xs), seams=tuple(seams)))
    g = overlap_transition(1.0, 2.0, 0.4)
    maps.append(glue_id_and_diff(g, 0.1, n=512))
    maps += collapse_chain(bent_chain(7, 4), k=1).transitions
    return maps


def test_verify_matches_the_row_by_row_reference_bit_for_bit():
    # repr tells -0.0 from 0.0 and writes every float to the bit
    import cert_reference

    for m in cert_maps():
        for k in (1, 2, 3, 4):
            cert = verify_ck_numeric(m, k)
            assert repr(record_fields(cert)) == repr(record_fields(
                cert_reference.verify_ck_numeric(m, k)))


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


def test_chain_atlas_measures_transition_ends_as_the_glue_does():
    # the domain starts 1.9e-9 above the overlap and the first value 1.9e-9
    # below it: each is within the 2e-9 tolerance of the overlap, but the
    # value is 3.8e-9 from the domain, which the glue compares it with
    charts = (IntervalChart("a", (0.0, 2.0)), IntervalChart("b", (1.0, 3.0)))
    lo = 1.0 + 1.9e-9
    xs = tuple(np.linspace(lo, 2.0, 17))
    g = NumericDiffeo(xs, (1.0 - 1.9e-9,) + xs[1:])
    with pytest.raises(NotJoinable, match="does not fix the overlap ends"):
        ChainAtlas(charts, (g,))
    with pytest.raises(NotJoinable, match="does not fix the overlap ends"):
        glue_auto(g)


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


def test_probe_identity_is_exact():
    join_mod._probe_identity(IdentityMap((0.0, 1.0)), (0.0, 1.0), "charts 0/1")
    with pytest.raises(NotJoinable, match="charts 0/1"):
        join_mod._probe_identity(AffineMap(1.0, 1e-12), (0.0, 1.0), "charts 0/1")


@pytest.mark.parametrize("m, order", [
    (2, [0]), (3, [1, 0]), (4, [1, 2, 0]), (5, [2, 3, 1, 0]), (6, [2, 3, 1, 4, 0]),
    (7, [3, 4, 2, 5, 1, 0]), (8, [3, 4, 2, 5, 1, 6, 0]), (9, [4, 5, 3, 6, 2, 7, 1, 0]),
])
def test_collapse_joins_middle_out(m, order):
    # the middle pair first, then one join to the right and one to the left
    images = [(1.5 * i, 1.5 * i + 2.0) for i in range(m)]
    charts = tuple(IntervalChart(f"c{i}", img) for i, img in enumerate(images))
    transitions = tuple(
        NumericDiffeo.from_function(lambda x: x, (images[i + 1][0], images[i][1]), n=16)
        for i in range(m - 1)
    )
    res = collapse_chain(ChainAtlas(charts, transitions), k=1)
    assert res.steps == tuple((i, i + 1) for i in order)
    assert res.chart.image == (0.0, images[-1][1])


def test_two_chart_collapse_reads_the_glue_on_the_left_chart():
    # P is the glue itself on (a, c): the identity left of the overlap, g right of it
    g = overlap_transition(1.0, 2.0, 0.4)
    atlas = ChainAtlas((IntervalChart("u", (0.0, 2.0)), IntervalChart("v", (1.0, 3.0))), (g,))
    xs = np.linspace(0.0, 2.0, 201)[1:-1]
    r = collapse_chain(atlas, k=1).transitions[0]
    p = glue_auto(g)
    assert np.array_equal(r(xs), p(xs))
    assert [r(float(x)) for x in xs] == [p(float(x)) for x in xs]
    assert r.domain == (0.0, 2.0)
    assert r.seams == p.seams


def test_join_maps_read_the_glue_once_before_certifying(monkeypatch):
    # building P and Q calls neither map: Q is p o g^-1 below y2 = g(c - eps)
    # and exactly y from y2 on, and only the caller's certificate samples it
    g = overlap_transition(1.0, 2.0, 0.4)
    calls = []

    def counted(g, n=4096):
        p = glue_auto(g, n=n)

        def rule(x):
            calls.append(x.size)
            return p.underlying(x)
        return NumericDiffeo(p.xs, p.ys, underlying=rule, seams=p.seams, glue=p.glue)

    monkeypatch.setattr(join_mod, "glue_auto", counted)
    P, Q, report = join_mod._join_maps((0.0, 2.0), (1.0, 3.0), g)
    assert calls == []
    assert P.domain == (0.0, 2.0) and Q.domain == (1.0, 3.0)
    assert P.seams == (1.0 + report.eps, 2.0 - report.eps)
    y1, y2 = g(1.0 + report.eps), g(2.0 - report.eps)
    assert Q.seams == (y1, y2)
    above = np.concatenate(([y2, np.nextafter(y2, np.inf)], np.linspace(y2, 3.0, 65)))
    assert np.array_equal(Q(above), above) and Q(y2) == y2
    below = np.concatenate((np.linspace(1.0, y2, 65)[:-1], [np.nextafter(y2, -np.inf)]))
    assert np.array_equal(Q(below), glue_auto(g)(g.inverse()(below)))
    assert math.isnan(Q(math.nan))


def bent_chain(seed, m, shift=0.0):
    """The atlas of gen.chain_spec(seed, m), its images moved by shift, each
    transition sampled from its bent map."""
    spec = gen.chain_spec(random.Random(seed), m)
    images = [(lo + shift, hi + shift) for lo, hi in spec["images"]]
    transitions = tuple(bent_diffeo(images[i + 1][0], images[i][1], lam, mu)
                        for i, (lam, mu) in enumerate(spec["params"]))
    return ChainAtlas(tuple(IntervalChart(f"c{i}", img) for i, img in enumerate(images)),
                      transitions)


def test_collapse_certificate_catches_q_off_the_identity_at_its_cut(monkeypatch):
    # nothing checks at construction that Q's pieces meet at y2: a Q
    # lowered by 1e-8 of the scale below y2 must fail the certificate
    join_maps = join_mod._join_maps

    def lowered(u_image, v_image, g, n=4096):
        P, Q, glue = join_maps(u_image, v_image, g, n)
        y2 = Q.seams[-1]
        delta = 1e-8 * max(1.0, abs(Q.domain[0]), abs(Q.domain[1]))
        return P, ComposedMap(lambda y: Q(y) - delta * (y < y2), IdentityMap(Q.domain),
                              seams=Q.seams), glue

    atlases = [bent_chain(seed, 4) for seed in range(10)]
    assert all(collapse_chain(atlas, k=1).passed for atlas in atlases)
    monkeypatch.setattr(join_mod, "_join_maps", lowered)
    assert not any(collapse_chain(atlas, k=1).passed for atlas in atlases)


def test_collapse_certifies_each_chart_once(monkeypatch):
    # one certificate pass over the input charts' final transitions, which
    # calls each of them once; no join's P or Q is certified alone
    passes = []
    certify = join_mod._certify

    def counted(maps, k, tols):
        wrapped = [Counted(m, m.domain, m.seams) for m in maps]
        passes.append((list(maps), wrapped))
        return certify(wrapped, k, tols)

    monkeypatch.setattr(join_mod, "_certify", counted)
    res = collapse_chain(four_chart_atlas(), k=2, tol=1e-4)
    assert res.passed
    assert len(passes) == 1
    maps, wrapped = passes[0]
    assert maps == list(res.transitions)
    assert [w.calls for w in wrapped] == [1, 1, 1, 1]


@pytest.mark.parametrize("m", [2, 4, 8, 16])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_collapse_certificates_match_the_per_chart_reference_bit_for_bit(k, m):
    # the one pass over every final transition gives each the certificate
    # the row-by-row reference gives it alone; images moved off [0, 4] too
    import cert_reference

    shift = (0.0, -16.0, 16.0, 32.0)[(k + m // 2) % 4]
    res = collapse_chain(bent_chain(k * m, m, shift), k=k, tol=1e-3)
    assert len(res.certs) == m
    for cert, r in zip(res.certs, res.transitions):
        assert repr(record_fields(cert)) == repr(record_fields(
            cert_reference.verify_ck_numeric(r, k, 1e-3)))


@pytest.mark.parametrize("shift", [0.0, -16.0, 16.0, 32.0])
def test_join_certificates_match_the_per_chart_reference_bit_for_bit(shift):
    import cert_reference

    atlas = bent_chain(3, 2, shift)
    for k in (1, 2, 3, 4):
        res = join_charts(*atlas.charts, atlas.transitions[0], k=k)
        for cert, r in ((res.cert_u, res.trans_u), (res.cert_v, res.trans_v)):
            assert repr(record_fields(cert)) == repr(record_fields(
                cert_reference.verify_ck_numeric(r, k)))


def test_certificate_pass_raises_the_first_maps_first_error():
    # per map: its values, then its grid slope, then its step powers, each
    # map's before the next map is called; the nodes of a later map past the
    # float range raise nothing ahead of them
    close = NumericDiffeo.from_function(lambda x: x, (-1.0, 1.0), seams=(0.0, 5e-324))
    tols = join_mod._tolerances(2, None)
    for first, message in (("close", "seams too close"), ("huge", "map values too large"),
                           ("far", "seam steps too large")):
        maps = {"close": Counted(close, close.domain, close.seams),
                "huge": Counted(lambda x: x * 1e308 * 10.0, (0.0, 1.0), (0.5,)),
                "far": Counted(lambda x: x, (0.0, 1.7e308), (1.6e308,))}
        order = [first] + [name for name in maps if name != first]
        with pytest.raises(DomainError) as looped:
            for name in order:
                verify_ck_numeric(maps[name], 2)
        with pytest.raises(DomainError, match=message) as passed:
            join_mod._certify([maps[name] for name in order], 2, tols)
        assert str(passed.value) == str(looped.value)
        assert [maps[name].calls for name in order] == [2, 0, 0]


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
        # a join's Q: p o g^-1 cut to the identity at y2
        "piecewise": (join_charts(IntervalChart("U", (0.0, 2.0)), IntervalChart("V", (1.0, 3.0)),
                                  g, k=1).trans_v, (1.0, 3.0)),
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
    # a map answers each point alone, so splitting a call changes no bit
    m, (lo, hi) = protocol_maps[kind]
    xs = np.concatenate((np.linspace(lo, hi, 103)[1:-1],
                         np.random.default_rng(29).uniform(lo, hi, 300)))
    got = m(xs)
    assert isinstance(got, np.ndarray) and got.shape == xs.shape
    singles = [m(float(x)) for x in xs]
    assert all(type(v) is float for v in singles)
    assert np.array_equal(got, singles)
    batches = np.concatenate([m(part) for part in np.split(xs, [1, 3, 6, 13])])
    assert np.array_equal(got, batches)


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
    out = collapse_to_json(res, atlas)
    assert out["chart"]["image"] == [0.0, 3.0]
    assert [t["chart"] for t in out["transitions"]] == [0, 1]
    assert len(out["transitions"][0]["samples"]) == 65
    assert out["cert"]["passed"] is True
