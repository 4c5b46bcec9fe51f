"""Exact germ algebra: construction, composition, jets, smoothness tests."""

import functools
import math
import operator
import sys
import time
from fractions import Fraction as F
from unittest import mock

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twoorigins import germs
from twoorigins.errors import DomainError
from twoorigins.germs import (
    K_MAX,
    NONEXISTENT,
    Germ,
    Jet,
    NumericGerm,
    Obstruction,
    SideExpansion,
    SmoothnessReport,
    Tri,
    compose,
    evaluate,
    fixed_near_zero,
    flip_germ,
    germ_equal,
    germ_from_json,
    germ_match,
    germ_to_json,
    identity_germ,
    in_diff,
    in_jdiff,
    invert,
    jet_of,
    make_wa,
    one_sided_jet,
    poly_germ,
    sandwich_smoothness,
    smoothness_at_zero,
)
from twoorigins.realnum import real_eq, real_json, real_pow, real_sqrt, to_real

import composition_reference
import term_rules_reference

# Dyadic rationals survive the float round trip in JSON exactly.
dyadics = st.integers(-64, 64).flatmap(
    lambda n: st.integers(0, 4).map(lambda k: F(n, 2**k))
)
pos_dyadics = dyadics.filter(lambda q: q > 0)

# Tail coefficients are kept small relative to the leading slope so the sign
# routing of the composed map is settled well before |x| = 1/128, where the
# pointwise tests sample.
_lead_mags = st.sampled_from([F(1, 2), F(1), F(3, 2), F(2)])
_tail_coeffs = st.sampled_from([F(-1, 4), F(-1, 8), F(1, 8), F(1, 4)])


@st.composite
def tame_germs(draw):
    """Germ with a bounded leading slope and a short integer-exponent tail."""
    rev = draw(st.booleans())
    neg_sign, pos_sign = (1, -1) if rev else (-1, 1)

    def side(sign):
        lead = sign * draw(_lead_mags)
        exps = sorted(draw(st.lists(st.integers(2, 5), unique=True, max_size=2)))
        return [(lead, 1)] + [(draw(_tail_coeffs), e) for e in exps]

    return Germ.from_sides(side(neg_sign), side(pos_sign))


SMALL_XS = [F(-1, 256), F(-1, 128), F(1, 128), F(1, 256)]


def test_make_wa_values():
    w = make_wa(F(5, 2))
    assert evaluate(w, F(-3)) == F(-3)
    assert evaluate(w, F(3)) == F(15, 2)
    assert evaluate(w, F(0)) == 0


@pytest.mark.parametrize("bad", [0, -1, F(-3, 2)])
def test_make_wa_rejects_nonpositive(bad):
    with pytest.raises(DomainError):
        make_wa(bad)


def test_identity_and_flip():
    assert identity_germ().is_identity()
    f = flip_germ()
    assert f.orientation == "reversing"
    for x in SMALL_XS:
        assert evaluate(f, x) == -x
    assert not f.is_identity()


def test_poly_germ_rejects_even_leading_power():
    with pytest.raises(DomainError):
        poly_germ({2: 1})
    with pytest.raises(DomainError):
        poly_germ({})
    # odd leading power with negative coefficient is a reversing germ
    assert poly_germ({1: -1, 2: 1}).orientation == "reversing"


def test_poly_germ_is_two_sided_polynomial():
    h = poly_germ({1: 1, 3: F(-1, 2)})
    for x in SMALL_XS:
        assert evaluate(h, x) == x + F(-1, 2) * x**3


# zero, negative, float, string and repeated values, so equal and decreasing
# exponent pairs come up often
_term_values = st.one_of(
    st.sampled_from([0, 0.0, F(0), 1, -1, 2, F(1, 2), F(-1, 3), 0.5, -2.5, "3/2", "-1"]),
    st.integers(-3, 5),
    st.fractions(min_value=-2, max_value=4, max_denominator=6),
    st.floats(min_value=-4, max_value=4, allow_nan=False, allow_infinity=False),
)


@given(st.lists(st.tuples(_term_values, _term_values), max_size=5))
@settings(max_examples=400)
def test_side_checks_match_the_fraction_comparison_rules(terms):
    try:
        want = term_rules_reference.side_terms(terms)
    except DomainError as exc:
        with pytest.raises(DomainError) as got:
            SideExpansion(terms)
        assert str(got.value) == str(exc)
        return
    side = SideExpansion(terms)
    got = [(t.coeff, t.exponent) for t in side.terms]
    assert got == want
    assert [tuple(map(type, pair)) for pair in got] == [tuple(map(type, pair)) for pair in want]


@given(tame_germs(), tame_germs())
def test_compose_is_pointwise_composition(g, h):
    c = compose(g, h)
    # integer-exponent outer germs always compose in closed form
    assert isinstance(c, Germ)
    for x in SMALL_XS:
        assert evaluate(c, x) == evaluate(g, evaluate(h, x))


@given(tame_germs())
def test_compose_identity_neutral(g):
    assert germ_equal(compose(g, identity_germ()), g)
    assert germ_equal(compose(identity_germ(), g), g)


@given(
    pos_dyadics.filter(lambda q: F(1, 8) <= q <= 8),
    pos_dyadics.filter(lambda q: F(1, 8) <= q <= 8),
)
def test_compose_wa_multiplies_slopes(a, b):
    assert germ_equal(compose(make_wa(a), make_wa(b)), make_wa(a * b))


@given(pos_dyadics.filter(lambda q: F(1, 8) <= q <= 8))
def test_invert_wa(a):
    assert germ_equal(invert(make_wa(a)), make_wa(1 / a))


@pytest.mark.parametrize(
    "neg,pos",
    [
        ([(-1, 1)], [(4, 1)]),
        ([(F(-9, 4), 1)], [(1, 3)]),
        ([(-1, 2)], [(F(1, 4), 1)]),
        ([(2, 1)], [(-1, 2)]),
    ],
)
def test_invert_monomial_roundtrip(neg, pos):
    h = Germ.from_sides(neg, pos)
    inv = invert(h)
    assert isinstance(inv, Germ)
    assert compose(invert(h), h).is_identity()
    assert compose(h, invert(h)).is_identity()


def test_invert_polynomial_falls_back_to_numeric():
    h = poly_germ({1: 1, 3: 1})
    inv = invert(h)
    assert isinstance(inv, NumericGerm)
    for x0 in (0.25, -0.3, 0.01):
        y = evaluate(h, x0)
        assert abs(inv.fn(float(y)) - x0) < 1e-9


def test_compose_open_form_falls_back_to_numeric():
    g = Germ.from_sides([(-1, 1)], [(1, F(3, 2))])
    h = poly_germ({1: 1, 2: F(1, 4)})
    c = compose(g, h)
    assert isinstance(c, NumericGerm)
    x = 0.01
    assert abs(c.fn(x) - float(evaluate(g, evaluate(h, x)))) < 1e-15


# -- exact composition against the Fraction loop it replaced --------------------

_sub_exps = st.builds(F, st.integers(1, 9), st.sampled_from([1, 2, 3]))
_sub_coeffs = st.one_of(
    st.builds(F, st.integers(-9, 9).filter(bool), st.sampled_from([1, 2, 3, 5, 7])),
    st.sampled_from([0.1, 0.3, -0.75, 2.0]))
# mostly integers 1..6, which close the substitution; now and then not
_outer_exps = st.sampled_from([F(f) for f in range(1, 7)] * 2 + [F(3, 2)])


@st.composite
def substitutions(draw):
    """(outer, inner) term pairs as compose passes them: inner exponents with
    denominators 1, 2 and 3 and a positive leading coefficient, Fraction or
    float coefficients of either sign."""
    exps = sorted(draw(st.lists(_sub_exps, min_size=1, max_size=4, unique=True)))
    inner = [(abs(draw(_sub_coeffs)), exps[0])] + [(draw(_sub_coeffs), e) for e in exps[1:]]
    fs = sorted(draw(st.lists(_outer_exps, min_size=1, max_size=3, unique=True)))
    return [(draw(_sub_coeffs), f) for f in fs], inner


def _terms(expanded):
    # repr tells a Fraction from a float and shows every bit of a float
    return None if expanded is None else [(repr(c), repr(e)) for c, e in expanded]


@given(substitutions())
@example(([(F(1), F(1)), (F(1), F(2))], [(F(1), F(1)), (F(-1), F(2))]))  # x + x^2 after x - x^2
@example(([(F(1), F(2))], [(F(1), F(1)), (F(2), F(2)), (F(-2), F(3))]))  # P^2 loses t^4
@example(([(0.1, F(1)), (0.3, F(2))], [(0.1, F(1)), (0.3, F(2))]))
@settings(max_examples=300, deadline=None)
def test_exact_composition_matches_the_fraction_loop(sub):
    # caps 1..16 put None at every step of both loops on these small sums
    outer, inner = sub
    for cap in (*range(1, 17), germs._TERM_CAP):
        with mock.patch.object(germs, "_TERM_CAP", cap):
            assert _terms(germs._expand_composition(outer, inner)) == \
                _terms(composition_reference.expand_composition(outer, inner)), cap


_SMALL = Germ.from_sides([(-0.1, 1), (0.3, 2)], [(0.1, 1), (0.3, 2)])


@pytest.mark.parametrize("outer", [poly_germ({511: 1}), poly_germ({513: 1})])
def test_float_composition_that_underflows_is_refused(outer):
    # (0.1t + 0.3t^2)^n has coefficients near 0.1^n: products of nonzero
    # floats reach 0.0 long before the term cap, and are not cancellations
    with pytest.raises(DomainError, match="out of float range"):
        compose(outer, _SMALL)


def test_float_monomial_composition_that_underflows_is_refused():
    tiny = Germ.from_sides([(-1e-200, 1)], [(1e-200, 1)])
    with pytest.raises(DomainError, match="out of float range"):
        compose(poly_germ({3: 1}), tiny)


def test_exact_composition_past_the_cap_that_underflows_is_refused():
    # (x + x^2)^513 passes the term cap, and the numeric fallback's values
    # underflow to 0.0 at the validation samples
    with pytest.raises(DomainError, match="underflows to 0.0 .* out of float range"):
        compose(poly_germ({513: 1}), poly_germ({1: 1, 2: 1}))
    # here the inner germ itself is 0.0 at every validation sample
    with pytest.raises(DomainError, match="underflows to 0.0 .* out of float range"):
        compose(poly_germ({513: 1}), poly_germ({1101: 1, 1102: 1}))
    # a user callable keeps the validation's own message
    user = NumericGerm(fn=lambda x: x + x * x, orientation="preserving")
    with pytest.raises(DomainError, match="sign pattern inconsistent"):
        compose(poly_germ({513: 1}), user)


def test_float_composition_that_cancels_drops_the_term():
    # (x - x^2) after (x + x^2) = x - 2x^3 - x^4: the t^2 term cancels to 0.0
    g = Germ.from_sides([(-1.0, 1), (-1.0, 2)], [(1.0, 1), (-1.0, 2)])
    h = Germ.from_sides([(-1.0, 1), (1.0, 2)], [(1.0, 1), (1.0, 2)])
    c = compose(g, h)
    assert [(t.coeff, t.exponent) for t in c.pos.terms] == [(1.0, 1), (-2.0, 3), (-1.0, 4)]


@pytest.mark.parametrize("base, exp, want", [
    (F(3), F(9012), F(3 ** 9012)), (F(1, 3), F(9012), F(1, 3 ** 9012)),
    (F(10), F(4299), F(10 ** 4299)), (F(2, 3), F(-9012), F(3 ** 9012, 2 ** 9012)),
    (F(8), F(14284, 3), F(2 ** 14284)), (F(10 ** 20 - 1), F(215), F((10 ** 20 - 1) ** 215))])
def test_exact_power_up_to_the_digit_limit_is_computed_exactly(base, exp, want):
    # each has 4300 digits, the default sys.get_int_max_str_digits();
    # 215 * log10(10^20 - 1) falls short of 4300 by about 1e-18
    p = real_pow(base, exp)
    assert type(p) is F and p == want
    assert max(len(str(abs(p.numerator))), len(str(p.denominator))) == \
        sys.get_int_max_str_digits() == 4300


@pytest.mark.parametrize("base, exp", [
    (F(3), F(9013)), (F(1, 3), F(9013)), (F(10), F(4300)), (F(3, 2), F(-9013)),
    (F(8), F(14285, 3)), (F(10 ** 20 + 1), F(215)), (F(3), F(10 ** 9 + 1))])
def test_exact_power_past_the_digit_limit_is_refused_unbuilt(base, exp):
    start = time.perf_counter()
    with pytest.raises(DomainError, match="more than 4300 digits"):
        real_pow(base, exp)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "coeffs",
    [
        {1: 1, 2: 1},
        {1: 1, 3: 2, 5: 5},
        {1: -1, 2: 1},
        {1: 2, 4: -1},
        {3: 1},
    ],
)
def test_jets_match_symbolic_derivatives(coeffs):
    h = poly_germ(coeffs)
    x = sympy.symbols("x")
    expr = sum(sympy.Rational(c) * x**m for m, c in coeffs.items())
    jet = jet_of(h, 6)
    for j in range(1, 7):
        d = sympy.diff(expr, x, j).subs(x, 0)
        want = F(int(d.p), int(d.q))
        assert jet.pos[j - 1] == want, f"pos side order {j}"
        assert jet.neg[j - 1] == want, f"neg side order {j}"


def test_fractional_exponent_jet_has_nonexistent_gap():
    g = Germ.from_sides([(-1, 1)], [(1, F(3, 2))])
    jet = jet_of(g, 3)
    assert jet.pos[0] == 0
    assert jet.pos[1] is NONEXISTENT
    assert jet.pos[2] is NONEXISTENT
    assert jet.neg == (F(1), F(0), F(0))


def test_one_sided_jet_matches_jet_of():
    h = poly_germ({1: 1, 2: -1, 3: F(1, 2)})
    jet = jet_of(h, 4)
    assert one_sided_jet(h, 4, "neg") == jet.neg
    assert one_sided_jet(h, 4, "pos") == jet.pos
    with pytest.raises(DomainError):
        one_sided_jet(h, 4, "both")


def test_jet_rejects_entries_after_gap():
    with pytest.raises(DomainError):
        Jet(3, (F(1), NONEXISTENT, F(0)), (F(1), F(0), F(0)))


def test_smoothness_of_wa():
    r = smoothness_at_zero(make_wa(2), 3)
    assert r.max_order == 0
    assert r.obstruction == Obstruction(1, F(1), F(2))
    assert not r.is_diffeo_ck
    assert r.conclusive


def test_smoothness_order_cap():
    r = smoothness_at_zero(identity_germ(), math.inf)
    assert r.capped
    assert r.order_checked == K_MAX
    assert r.is_diffeo_ck
    with pytest.raises(DomainError):
        smoothness_at_zero(identity_germ(), 0)


def test_in_diff_and_in_jdiff():
    h = poly_germ({1: 1, 3: 1})
    assert in_diff(h, 3)
    assert in_jdiff(h, 2)
    # third derivative is 6, so h is not 3-flat against the identity
    assert not in_jdiff(h, 3)
    assert not in_jdiff(make_wa(2), 1)
    assert in_jdiff(identity_germ(), K_MAX)


def test_in_diff_follows_the_inverse_function_theorem():
    # x + |x|^(5/2) sign(x) is C^2 with slope 1, so its inverse is C^2 too
    q = Germ.from_sides([(-1, 1), (-1, F(5, 2))], [(1, 1), (1, F(5, 2))])
    assert in_diff(q, 2)
    assert smoothness_at_zero(q, 2).verdict is Tri.TRUE
    r = smoothness_at_zero(q, 3)
    assert not in_diff(q, 3)
    assert r.verdict is Tri.FALSE and r.obstruction.order == 3


def test_in_diff_of_an_exact_germ_stays_exact(monkeypatch):
    def no_numeric_inverse(h):
        raise AssertionError("in_diff inverted the germ it decides")

    monkeypatch.setattr(germs, "_numeric_invert", no_numeric_inverse)
    assert in_diff(poly_germ({1: 1, 2: 1, 3: 1}), 3)


def test_numeric_report_makes_one_richardson_run_per_side_and_order(monkeypatch):
    calls = []
    richardson = germs._richardson

    def counting(fn, j, side):
        calls.append((j, side))
        return richardson(fn, j, side)

    monkeypatch.setattr(germs, "_richardson", counting)
    ng = NumericGerm(lambda x: x + x ** 3, "preserving")
    for k in (1, 2, 3):
        calls.clear()
        assert smoothness_at_zero(ng, k).is_diffeo_ck
        assert sorted(calls) == [(j, side) for j in range(1, k + 1) for side in ("neg", "pos")]


def test_in_jdiff_reads_each_numeric_jet_once(monkeypatch):
    calls = []
    richardson = germs._richardson

    def counting(fn, j, side):
        calls.append((j, side))
        return richardson(fn, j, side)

    monkeypatch.setattr(germs, "_richardson", counting)
    ng = NumericGerm(lambda x: x + x ** 3, "preserving")
    assert in_jdiff(ng, 2)
    calls.clear()
    # the third derivative is 6: in D, but not 3-flat
    assert not in_jdiff(ng, 3)
    assert sorted(calls) == [(j, side) for j in range(1, 4) for side in ("neg", "pos")]


# -- the numeric inverse against its fixed-length reference ------------------


def _float_fn_reference(h):
    """germs._float_fn converting each Fraction on every call."""
    if isinstance(h, NumericGerm):
        return h.fn

    def fn(x):
        if x == 0.0:
            return 0.0
        if x < 0.0:
            return sum(float(t.coeff) * (-x) ** float(t.exponent) for t in h.neg.terms)
        return sum(float(t.coeff) * x ** float(t.exponent) for t in h.pos.terms)
    return fn


def _invert_reference(hf, preserving):
    """germs._numeric_invert's solve with all 200 bisection steps."""
    def solve(y):
        if y == 0.0:
            return 0.0
        x_positive = (y > 0) == preserving
        sgn = 1.0 if x_positive else -1.0
        up = y > 0
        lo, hi = 0.0, 2.0 ** -30
        prev_mag = 0.0
        while True:
            v = hf(sgn * hi)
            if (v >= y) if up else (v <= y):
                break
            if math.copysign(1.0, v) != math.copysign(1.0, y) or abs(v) < prev_mag:
                raise DomainError(f"value {y} is not reached by the monotone branch")
            prev_mag = abs(v)
            lo, hi = hi, hi * 2.0
            if hi > 2.0 ** 60:
                raise DomainError("inverse bracket search escaped to infinity")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            v = hf(sgn * mid)
            if (v < y) if up else (v > y):
                lo = mid
            else:
                hi = mid
        return sgn * 0.5 * (lo + hi)
    return solve


# |y| from 2^-40 to 1, both signs
_targets = st.tuples(st.sampled_from([1.0, -1.0]), st.floats(-40, 0)).map(
    lambda t: t[0] * 2.0 ** t[1])


@st.composite
def monotone_cubics(draw):
    """a x + b x^2 + c x^3 with b^2 < 3ac, increasing on R, or its negative."""
    a = draw(st.sampled_from([F(1, 2), F(1), F(3, 2), F(2)]))
    c = draw(st.sampled_from([F(1, 4), F(1, 2), F(1), F(2)]))
    b = draw(st.integers(-8, 8).map(lambda n: F(n, 4)).filter(lambda b: b * b < 3 * a * c))
    s = draw(st.sampled_from([1, -1]))
    return poly_germ({m: s * v for m, v in {1: a, 2: b, 3: c}.items() if v != 0})


@st.composite
def sine_germs(draw):
    """s (x + c sin x) with |c| < 1: a numeric germ of either orientation."""
    c = draw(st.floats(-0.9, 0.9))
    s = draw(st.sampled_from([1.0, -1.0]))
    return NumericGerm(lambda x: s * (x + c * math.sin(x)),
                       "preserving" if s > 0 else "reversing")


def _same_float(f, ref, y):
    try:
        want = ref(y)
    except DomainError:
        with pytest.raises(DomainError):
            f(y)
        return
    assert f(y) == want


@given(monotone_cubics(), st.lists(_targets, min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_numeric_inverse_of_cubics_matches_fixed_length_reference(h, ys):
    fn, ref = germs._float_fn(h), _float_fn_reference(h)
    solve = invert(h).fn
    ref_solve = _invert_reference(ref, h.orientation == "preserving")
    for y in ys:
        assert fn(y) == ref(y)
        _same_float(solve, ref_solve, y)


@given(sine_germs(), st.lists(_targets, min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_numeric_inverse_of_callables_matches_fixed_length_reference(h, ys):
    solve = invert(h).fn
    ref_solve = _invert_reference(h.fn, h.orientation == "preserving")
    for y in ys:
        _same_float(solve, ref_solve, y)


@given(sine_germs(), _targets)
@settings(max_examples=20, deadline=None)
def test_nested_numeric_inverse_matches_fixed_length_reference(h, y):
    preserving = h.orientation == "preserving"
    ref_solve = _invert_reference(_invert_reference(h.fn, preserving), preserving)
    _same_float(invert(invert(h)).fn, ref_solve, y)


def _left_to_right(h, x):
    """h at x as float, each side's terms added one by one from 0.0."""
    if x == 0.0:
        return 0.0
    side, t = (h.neg, -x) if x < 0.0 else (h.pos, x)
    return functools.reduce(
        operator.add, (float(term.coeff) * t ** float(term.exponent) for term in side.terms), 0.0)


_fn_coeffs = st.one_of(
    st.builds(F, st.integers(-99, 99).filter(bool), st.integers(1, 60)),
    st.floats(-1e3, 1e3, allow_nan=False).filter(bool))
_fn_points = st.one_of(
    st.builds(lambda s, k: s * 2.0 ** -k, st.sampled_from([-1.0, 1.0]), st.integers(0, 1074)),
    st.just(-0.0))


@st.composite
def float_fn_germs(draw):
    """Germs of 1-8 terms a side, exponents with denominators 1, 2 and 3,
    Fraction and float coefficients of both signs, either orientation."""
    sign = draw(st.sampled_from([1, -1]))
    sides = []
    for lead in (-sign, sign):
        exps = sorted(draw(st.lists(st.builds(F, st.integers(1, 24), st.sampled_from([1, 2, 3])),
                                    min_size=1, max_size=8, unique=True)))
        c = abs(draw(_fn_coeffs)) * lead
        sides.append([(c, exps[0])] + [(draw(_fn_coeffs), e) for e in exps[1:]])
    return Germ.from_sides(*sides)


@given(float_fn_germs(), st.lists(_fn_points, min_size=1, max_size=8))
@example(Germ.from_sides([(F(-1, 3), 1), (0.1, F(3, 2)), (F(2, 7), F(7, 3))],
                         [(0.1, 1), (F(-2, 3), F(4, 3)), (0.3, 2)]), [-0.0, 2.0 ** -1074, -0.5])
@settings(max_examples=100, deadline=None)
def test_float_fn_adds_terms_left_to_right(h, xs):
    fn = germs._float_fn(h)
    for x in xs:
        assert fn(x).hex() == _left_to_right(h, x).hex()


def test_numeric_inverse_stops_once_lo_and_hi_are_adjacent(monkeypatch):
    args = []
    float_fn = germs._float_fn

    def counting(h):
        fn = float_fn(h)

        def counted(x):
            args.append(x)
            return fn(x)
        return counted

    monkeypatch.setattr(germs, "_float_fn", counting)
    # the bracket climb's arguments, sgn * 2^(m-30) up to the 2^60 escape
    climb = {s * 2.0 ** (m - 30) for m in range(91) for s in (1.0, -1.0)}
    h = poly_germ({1: 1, 3: 1})
    solve = invert(h).fn
    built = len(args)
    y = 3 * 2.0 ** -12  # not a sample; h^-1(y) lies in [2^-11, 2^-10]
    x = solve(y)
    # bisection from [2^-11, 2^-10] meets adjacent floats after about 52
    # halvings
    bisection = [a for a in args[built:] if a not in climb]
    assert 0 < len(bisection) <= 64
    assert x == _invert_reference(_float_fn_reference(h), True)(y)
    # past 2^-2, the largest validation sample, the climb goes on
    for y in (2.5, -2.5, 5.0, -5.0):
        assert solve(y) == _invert_reference(_float_fn_reference(h), True)(y)


@given(st.one_of(monotone_cubics(), sine_germs()),
       st.lists(_targets, min_size=1, max_size=6), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_numeric_inverse_answers_in_any_order_as_a_fresh_one(h, ys, rnd):
    queries = ys + ys[:3]
    rnd.shuffle(queries)
    solve = invert(h).fn
    for y in queries:
        _same_float(solve, invert(h).fn, y)


def test_numeric_inverse_raises_on_every_call():
    # x - x^3 folds back at 1/sqrt(3), where it reaches 2/(3 sqrt(3)) < 1/2
    solve = invert(poly_germ({1: 1, 3: -1})).fn
    bounded = invert(NumericGerm(lambda x: x / (1.0 + abs(x)), "preserving")).fn
    for _ in range(3):
        with pytest.raises(DomainError, match="^value 0.5 is not reached by the monotone branch$"):
            solve(0.5)
        with pytest.raises(DomainError, match="^inverse bracket search escaped to infinity$"):
            bounded(2.0)


# -- the one row producer and side rule against the routing they replaced ----


def _compose_routing_reference(g, h):
    """compose routing each result side through four orientation cases."""
    sides = {}
    for result_side in ("neg", "pos"):
        inner_side = h.neg if result_side == "neg" else h.pos
        if h.orientation == "preserving":
            outer_side = g.neg if result_side == "neg" else g.pos
        else:
            outer_side = g.pos if result_side == "neg" else g.neg
        pairs = [(t.coeff, t.exponent) for t in inner_side.terms]
        negated = [(-t.coeff, t.exponent) for t in inner_side.terms]
        if result_side == "neg":
            inner_positive = negated if h.orientation == "preserving" else pairs
        else:
            inner_positive = pairs if h.orientation == "preserving" else negated
        expanded = germs._expand_composition(
            [(t.coeff, t.exponent) for t in outer_side.terms], inner_positive)
        if expanded is None:
            return germs._numeric_compose(g, h)
        sides[result_side] = expanded
    orientation = "preserving" if g.orientation == h.orientation else "reversing"
    return Germ(SideExpansion(sides["neg"]), SideExpansion(sides["pos"]), orientation)


def _invert_routing_reference(h):
    """invert with one branch per orientation for per-side monomials."""
    if not (h.neg.is_monomial() and h.pos.is_monomial()):
        return germs._numeric_invert(h)
    nc, ne = h.neg.leading.coeff, h.neg.leading.exponent
    pc, pe = h.pos.leading.coeff, h.pos.leading.exponent
    rn, rp = F(1) / ne, F(1) / pe
    if h.orientation == "preserving":
        neg = [(-real_pow(-nc, -rn), rn)]
        pos = [(real_pow(pc, -rp), rp)]
    else:
        pos = [(-real_pow(nc, -rn), rn)]
        neg = [(real_pow(-pc, -rp), rp)]
    return Germ(SideExpansion(neg), SideExpansion(pos), h.orientation)


def _side_jet_reference(side, order, negate_odd):
    """Derivatives 1..order of one exact side, built as jet entries."""
    coeffs = []
    frac_exps = [t.exponent for t in side.terms if t.exponent.denominator != 1]
    min_frac = min(frac_exps) if frac_exps else None
    by_int_exp = {int(t.exponent): t.coeff for t in side.terms if t.exponent.denominator == 1}
    for j in range(1, order + 1):
        if min_frac is not None and min_frac < j:
            coeffs.append(NONEXISTENT)
            continue
        c = by_int_exp.get(j)
        if c is None:
            coeffs.append(F(0))
            continue
        val = c * math.factorial(j)
        if negate_odd and j % 2 == 1:
            val = -val
        coeffs.append(val)
    return tuple(coeffs)


def _report_reference(h, k):
    """smoothness_at_zero of an exact germ with its own order walk, and the
    in_jdiff answer read from the same jets."""
    keff, capped = (K_MAX, True) if k is None else (min(k, K_MAX), k > K_MAX)
    dn = _side_jet_reference(h.neg, keff, True)
    dp = _side_jet_reference(h.pos, keff, False)
    max_order, obstruction = 0, None
    for j, (vn, vp) in enumerate(zip(dn, dp), 1):
        if vn is NONEXISTENT or vp is NONEXISTENT or not real_eq(vn, vp):
            obstruction = Obstruction(j, vn, vp)
            break
        max_order = j
    ck = max_order == keff and not real_eq(dp[0], F(0))
    report = SmoothnessReport(max_order, obstruction, ck, keff, capped, True)
    return report, ck and all(real_eq(c, F(0)) for c in dn[1:] + dp[1:])


def _sandwich_reference(f, a, b, n):
    """sandwich_smoothness with its own order loop."""
    a, b = to_real(a), to_real(b)
    if a <= 0 or b <= 0:
        raise DomainError("sandwich parameters must be positive")
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"order must be a positive integer, got {n!r}")
    if n > f.order:
        raise DomainError(f"order {n} exceeds the jet's order {f.order}")
    for j in range(n):
        if f.neg[j] is NONEXISTENT or f.pos[j] is NONEXISTENT:
            raise DomainError("jet has NONEXISTENT entries within the requested order")
        if not real_eq(f.neg[j], f.pos[j]):
            raise DomainError("jet is not two-sided-equal; not a diffeomorphism jet")
    d = list(f.pos[:n])
    if real_eq(d[0], F(0)):
        raise DomainError("f'(0) = 0: not a diffeomorphism jet")
    max_order, obstruction = 0, None
    for j in range(1, n + 1):
        dj = d[j - 1]
        if d[0] > 0:
            qn, qp = dj, b * real_pow(a, F(j)) * dj
        else:
            qn, qp = b * dj, real_pow(a, F(j)) * dj
        if not real_eq(qn, qp):
            obstruction = Obstruction(j, qn, qp)
            break
        max_order = j
    return SmoothnessReport(max_order, obstruction, max_order == n, n)


def _outcome(fn, *args):
    """What fn returns, down to the types of every coefficient and exponent
    (repr shows Fraction(1, 1) apart from 1.0), or the error it raises. A
    numeric germ shows its orientation and provenance."""
    try:
        out = fn(*args)
    except (DomainError, ValueError, ZeroDivisionError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, NumericGerm):
        return "numeric", out.orientation, out.provenance
    return repr(out)


_exps = st.sampled_from([F(1, 3), F(1), F(4, 3), F(3, 2), F(2), F(5, 2), F(3), F(5)])
# perfect squares and cubes keep inverses exact, the others turn them to floats
_mags = st.sampled_from([F(1, 2), F(1), F(9, 4), F(8), F(27, 8), 0.5, 1.25])
_coeffs = st.one_of(dyadics.filter(lambda q: q != 0), st.sampled_from([-0.75, 0.5, 3.0]))


@st.composite
def exact_germs(draw):
    """Germ of either orientation whose sides are monomials or short sums
    with integer and fractional exponents and Fraction or float coefficients."""
    rev = draw(st.booleans())

    def side(sign):
        exps = sorted(draw(st.lists(_exps, min_size=1, max_size=3, unique=True)))
        return [(sign * draw(_mags), exps[0])] + [(draw(_coeffs), e) for e in exps[1:]]

    return Germ.from_sides(side(1 if rev else -1), side(-1 if rev else 1))


@given(exact_germs(), exact_germs())
@settings(max_examples=150, deadline=None)
def test_compose_and_invert_match_the_reference_routing(g, h):
    assert _outcome(compose, g, h) == _outcome(_compose_routing_reference, g, h)
    assert _outcome(invert, h) == _outcome(_invert_routing_reference, h)


@given(exact_germs())
@settings(max_examples=150, deadline=None)
def test_jets_and_reports_match_the_reference_walk(h):
    for k in (1, 2, 3, 4, 5, 6, None):
        if k is not None:
            neg, pos = _side_jet_reference(h.neg, k, True), _side_jet_reference(h.pos, k, False)
            assert repr(jet_of(h, k)) == repr(Jet(k, neg, pos))
            assert repr(one_sided_jet(h, k, "neg")) == repr(neg)
        report, flat = _report_reference(h, k)
        assert repr(smoothness_at_zero(h, k)) == repr(report)
        assert in_jdiff(h, k) is flat
    # most of these jets are one-sided or singular, so sandwich rejects them
    jet = jet_of(h, 3)
    assert _outcome(sandwich_smoothness, jet, 2, F(1, 2), 3) == \
        _outcome(_sandwich_reference, jet, 2, F(1, 2), 3)


_params = st.sampled_from([F(1, 3), F(1, 2), F(1), F(2), F(3), 0.5, 2.0])


@st.composite
def polynomial_germs(draw):
    """A two-sided polynomial of either orientation whose coefficients may
    stay floats (poly_germ would make them Fractions)."""
    lead = draw(st.sampled_from([1, -1])) * draw(_mags)
    tail = draw(st.dictionaries(st.integers(2, 6), _coeffs, max_size=3))
    terms = [(lead, 1)] + [(c, m) for m, c in sorted(tail.items())]
    return Germ.from_sides([(c * (-1) ** m, m) for c, m in terms], terms)


@given(polynomial_germs(), _params, _params, st.integers(1, 6), st.booleans())
@settings(max_examples=200, deadline=None)
def test_sandwich_matches_the_reference_loop(f, a, b, n, reciprocal):
    # b = 1/a (or a) meets the order-1 condition, so later orders are reached
    if reciprocal:
        b = 1 / a if f.orientation == "preserving" else a
    jet = jet_of(f, 6)
    assert _outcome(sandwich_smoothness, jet, a, b, n) == _outcome(_sandwich_reference, jet, a, b, n)


def test_real_sqrt_is_exact_past_float_range():
    assert real_sqrt(F(10**400)) == 10**200
    assert real_pow(F(8 * 10**600, 27), F(2, 3)) == F(4 * 10**400, 9)
    assert isinstance(real_pow(F(2 * 10**300), F(1, 2)), float)


def test_fixed_near_zero_exact_and_numeric():
    assert fixed_near_zero(identity_germ(), F(1, 10))
    assert not fixed_near_zero(make_wa(2), F(1, 10))

    def bent(x):
        if abs(x) <= 0.5:
            return x
        return x + math.copysign((abs(x) - 0.5) ** 2, x)

    ng = NumericGerm(bent, "preserving")
    assert fixed_near_zero(ng, 0.5)
    assert not fixed_near_zero(ng, 4.0)
    with pytest.raises(DomainError):
        fixed_near_zero(ng, 0)


def test_numeric_germ_validates_samples():
    with pytest.raises(DomainError):
        NumericGerm(lambda x: -x, "preserving")
    with pytest.raises(DomainError):
        NumericGerm(lambda x: x + 0.5, "preserving")
    for jump in (0.5, 1e-3):
        with pytest.raises(DomainError, match="approach 0"):
            NumericGerm(lambda x: math.copysign(jump + math.sqrt(abs(x)), x), "preserving")
    with pytest.raises(DomainError, match="approach 0"):
        NumericGerm(lambda x: math.copysign(0.5 + abs(x), x), "preserving")
    # The known limit: a jump below about half the 2^-40 sample hides under
    # the part that still vanishes there (samples 0.126, 0.0049, 0.0011)
    NumericGerm(lambda x: math.copysign(1e-3 + abs(x) ** 0.2, x), "preserving")


def test_steep_numeric_inverse_resolves_its_limit_samples():
    # x^(1/7) + x inverts to a germ like x^7: its 2^-40 and 2^-65 samples
    # have preimages near 2^-280 and 2^-455, below any fixed bisection budget
    h = Germ.from_sides([(-1, F(1, 7)), (-1, 1)], [(1, F(1, 7)), (1, 1)])
    inv = invert(h)
    assert isinstance(inv, NumericGerm)
    assert inv(2.0 ** -40) == pytest.approx(2.0 ** -280, rel=1e-9)
    assert smoothness_at_zero(inv, 1).verdict is Tri.FALSE


def test_numeric_germ_tends_to_zero_at_any_rate_and_scale():
    # x^(1/3) after the inverse of x + x^2: no first derivative at 0
    root3 = Germ.from_sides([(-1, F(1, 3))], [(1, F(1, 3))])
    q = compose(root3, invert(poly_germ({1: 1, 2: 1})))
    assert isinstance(q, NumericGerm)
    r = smoothness_at_zero(q, 1)
    assert r.obstruction == Obstruction(1, NONEXISTENT, NONEXISTENT)
    assert r.verdict is Tri.FALSE
    root = NumericGerm(lambda x: math.copysign(2.0 * math.sqrt(abs(x)), x), "preserving")
    assert smoothness_at_zero(root, 1).verdict is Tri.FALSE
    steep = NumericGerm(lambda x: 1e10 * x, "preserving")
    assert smoothness_at_zero(steep, 2).verdict is Tri.TRUE


def test_sandwich_pinned_case():
    f = poly_germ({1: 1, 2: 1})
    r = sandwich_smoothness(jet_of(f, 2), 2, F(1, 2), 2)
    assert r.max_order == 1
    assert r.obstruction == Obstruction(2, F(2), F(4))
    assert not r.is_diffeo_ck


def test_sandwich_cubic_passes_order_two():
    f = poly_germ({1: 1, 3: 1})
    r = sandwich_smoothness(jet_of(f, 2), 2, F(1, 2), 2)
    assert r.max_order == 2
    assert r.obstruction is None
    assert r.is_diffeo_ck


def test_sandwich_order_one_criteria():
    f = poly_germ({1: 1})
    # preserving germ: order 1 needs a*b = 1
    assert sandwich_smoothness(jet_of(f, 1), 3, F(1, 3), 1).is_diffeo_ck
    assert not sandwich_smoothness(jet_of(f, 1), 3, 3, 1).is_diffeo_ck
    g = poly_germ({1: -1})
    # reversing germ: order 1 needs a = b
    assert sandwich_smoothness(jet_of(g, 1), 3, 3, 1).is_diffeo_ck
    assert not sandwich_smoothness(jet_of(g, 1), 3, F(1, 3), 1).is_diffeo_ck


def test_sandwich_rejects_bad_jets():
    with pytest.raises(DomainError):
        sandwich_smoothness(jet_of(make_wa(2), 2), 2, F(1, 2), 2)
    frac = Germ.from_sides([(-1, 1)], [(1, F(3, 2))])
    with pytest.raises(DomainError):
        sandwich_smoothness(jet_of(frac, 2), 2, F(1, 2), 2)
    flat = Jet(2, (F(0), F(2)), (F(0), F(2)))
    with pytest.raises(DomainError):
        sandwich_smoothness(flat, 2, F(1, 2), 2)
    with pytest.raises(DomainError):
        sandwich_smoothness(jet_of(poly_germ({1: 1}), 1), 2, F(1, 2), 5)


@pytest.mark.parametrize(
    "coeffs,a,b",
    [
        ({1: 1, 2: 1}, 2, F(1, 2)),
        ({1: 1, 3: 1}, F(5, 2), F(2, 5)),
        ({1: -1, 2: 1}, 3, 3),
        ({1: 1, 2: -1, 3: 2}, 2, 2),
    ],
)
def test_sandwich_agrees_with_germ_composition(coeffs, a, b):
    f = poly_germ(coeffs)
    n = 2
    via_jets = sandwich_smoothness(jet_of(f, n), a, b, n)
    q = compose(make_wa(b), compose(f, make_wa(a)))
    assert isinstance(q, Germ)
    via_germs = smoothness_at_zero(q, n)
    assert via_jets.max_order == via_germs.max_order
    assert via_jets.is_diffeo_ck == via_germs.is_diffeo_ck
    assert (via_jets.obstruction is None) == (via_germs.obstruction is None)
    if via_jets.obstruction is not None:
        assert via_jets.obstruction.order == via_germs.obstruction.order


@given(tame_germs())
def test_germ_json_roundtrip(g):
    back = germ_from_json(germ_to_json(g))
    assert back.orientation == g.orientation
    assert germ_equal(back, g)


@given(st.integers(1, 10**6), st.sampled_from([1, 2, 1024, 3, 7, 10]),
       st.integers(-400, 400), st.booleans())
def test_real_json_is_the_float_when_one_holds_the_value_else_exact(n, d, k, negative):
    # c = n/d is dyadic for d = 1, 2, 1024 and not for 3, 7, 10
    x = (-1 if negative else 1) * F(n, d) * F(10) ** k
    try:
        holds = float(x) != 0.0
    except OverflowError:
        holds = False
    written = real_json(x)
    g = germ_from_json(germ_to_json(Germ.from_sides([(-abs(x), 1)], [(abs(x), 1), (x, 2)])))
    if holds:
        assert isinstance(written, float) and written == float(x)
        assert g.pos.terms[1].coeff == F(float(x))
    else:
        assert isinstance(written, str) and to_real(written) == x
        assert [t.coeff for t in g.neg.terms + g.pos.terms] == [-abs(x), abs(x), x]


def test_germ_json_rejects_numeric_and_malformed():
    ng = NumericGerm(lambda x: x, "preserving")
    with pytest.raises(DomainError):
        germ_to_json(ng)
    with pytest.raises(DomainError):
        germ_from_json({"neg": [{"c": -1}], "pos": [], "orientation": "preserving"})


def test_germ_match_tri_states():
    assert germ_match(make_wa(2), make_wa(2)) is Tri.TRUE
    assert germ_match(make_wa(2), make_wa(3)) is Tri.FALSE
    exact_double = NumericGerm(lambda x: x if x < 0 else 2.0 * x, "preserving")
    assert germ_match(exact_double, make_wa(2)) is Tri.TRUE
    # relative gap of 3e-7 sits inside the inconclusive band
    near = NumericGerm(lambda x: x if x < 0 else 2.0000006 * x, "preserving")
    assert germ_match(near, make_wa(2)) is Tri.INDETERMINATE


def test_evaluate_keeps_rationals_exact():
    assert evaluate(make_wa(F(1, 3)), F(3, 7)) == F(1, 7)
    v = evaluate(poly_germ({1: 1, 2: 1}), F(1, 3))
    assert isinstance(v, F) and v == F(4, 9)


def test_tri_from_bool():
    assert Tri.from_bool(True) is Tri.TRUE
    assert Tri.from_bool(False) is Tri.FALSE
