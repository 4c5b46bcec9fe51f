"""The line with two origins: points, atlases, structures, diffeomorphisms."""

import random
from fractions import Fraction as F
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from twoorigins import dline, germs
from twoorigins.dline import (
    EXCHANGE,
    FIX,
    ORIGIN,
    ORIGIN_TILDE,
    ChartL,
    DiffeoL,
    MinimalAtlas,
    PointL,
    SpecialMinimalAtlas,
    apply_diffeo,
    build_diffeo,
    classification_to_json,
    compose_diffeo,
    diffeo_classes,
    hausdorff_closure,
    identity_diffeo,
    is_orientable,
    phi_ex,
    phi_fix,
    psi,
    same_structure,
    transition_extension,
)
from twoorigins.errors import DomainError, IncompatiblePresentations
from twoorigins.germs import (
    Germ,
    NumericGerm,
    Tri,
    compose,
    flip_germ,
    germ_equal,
    identity_germ,
    in_diff,
    make_wa,
    poly_germ,
)
from twoorigins.realnum import real_sqrt

W2 = SpecialMinimalAtlas(make_wa(2))


# -- points and topology ------------------------------------------------------


def test_tilde_only_at_zero():
    assert ORIGIN_TILDE.tilde and ORIGIN_TILDE.x == 0
    with pytest.raises(DomainError):
        PointL(1, tilde=True)


def test_origin_predicates():
    assert ORIGIN.is_origin() and ORIGIN_TILDE.is_origin()
    assert ORIGIN != ORIGIN_TILDE
    assert not PointL(F(1, 3)).is_origin()


def test_hausdorff_closure_separates_only_origins():
    pair = frozenset((ORIGIN, ORIGIN_TILDE))
    assert hausdorff_closure(ORIGIN) == pair
    assert hausdorff_closure(ORIGIN_TILDE) == pair
    p = PointL(F(-7, 2))
    assert hausdorff_closure(p) == frozenset((p,))


# -- atlases ------------------------------------------------------------------


def test_chart_domain_and_orientation_checks():
    c = ChartL("U", make_wa(2))
    assert c.orientation == "preserving"
    with pytest.raises(DomainError):
        ChartL("W", make_wa(2))
    with pytest.raises(DomainError):
        ChartL("U", make_wa(2), orientation="reversing")


def test_special_atlas_charts():
    assert W2.u_chart.map.is_identity()
    assert germ_equal(W2.v_chart.map, make_wa(2))
    m = W2.as_minimal()
    assert isinstance(m, MinimalAtlas)
    with pytest.raises(DomainError):
        MinimalAtlas(W2.v_chart, W2.v_chart)


def test_transition_extension():
    # special atlas: the transition is h itself, the same object
    assert transition_extension(W2) is W2.h
    m = MinimalAtlas(ChartL("U", make_wa(2)), ChartL("V", make_wa(4)))
    assert germ_equal(transition_extension(m), make_wa(2))
    with pytest.raises(DomainError):
        transition_extension("not an atlas")


def test_orientability():
    assert is_orientable(W2)
    assert not is_orientable(SpecialMinimalAtlas(flip_germ()))


def test_atlas_json_roundtrip():
    d = W2.to_json(k=3)
    atlas, k = SpecialMinimalAtlas.from_json(d)
    assert k == 3
    assert germ_equal(atlas.h, W2.h)
    with pytest.raises(DomainError):
        SpecialMinimalAtlas.from_json({"special_atlas": {}})


# -- structure comparison -----------------------------------------------------


def test_same_structure_reflexive_and_exact():
    assert same_structure(make_wa(2), make_wa(2), 4) is Tri.TRUE
    assert same_structure(make_wa(2), identity_germ(), 1) is Tri.FALSE
    # w_3 o w_2^-1 = w_{3/2}, conclusively not C^1
    assert same_structure(make_wa(2), make_wa(3), 1) is Tri.FALSE


def test_same_structure_inconclusive_numeric_band():
    # a 1e-4 slope gap is too wide to equate and too narrow to condemn
    ng = NumericGerm(lambda x: x if x < 0 else 1.0001 * x, "preserving")
    assert same_structure(ng, identity_germ(), 1) is Tri.INDETERMINATE


def test_smoothly_related_structures_match():
    assert same_structure(identity_germ(), poly_germ({1: 1, 3: 1}), 1) is Tri.TRUE


def test_same_structure_from_the_jet_of_the_transition():
    # g o h^-1 = x + |x|^(5/2) sign(x): C^2 with slope 1, so the same C^2
    # structure although the inverse's numeric jet cannot show it
    w52 = Germ.from_sides([(-1, 1), (-1, F(5, 2))], [(1, 1), (1, F(5, 2))])
    assert same_structure(identity_germ(), w52, 2) is Tri.TRUE
    assert same_structure(identity_germ(), w52, 3) is Tri.FALSE


def test_same_structure_fold_witness():
    # q = x + x^2 folds back at x = -1/2, but (q o p) o p^-1 = q is smooth
    p = poly_germ({1: 1, 2: 1, 3: F(1, 3)})
    q = poly_germ({1: 1, 2: 1})
    assert same_structure(p, compose(q, p), 3) is Tri.TRUE


def test_same_structure_on_a_fold_is_true():
    # x + 10x^2 folds back at -1/20, so no inverse reaches its sample at
    # -1/4; the fold is in D, and so is q = h o h^-1
    fold = poly_germ({1: 1, 2: 10})
    for k in (1, 2, 3):
        assert same_structure(fold, fold, k) is Tri.TRUE
    # at every order too: both germs are in D
    h = poly_germ({1: 1, 2: 1})
    assert same_structure(h, h, None) is Tri.TRUE


def _signed_poly(draw, lead_sign, exps, K):
    """Terms of one side: exps with nonzero rational coefficients, the
    first carrying lead_sign, and maybe one fractional exponent past them
    and past K."""
    coeff = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 5))
    terms = [(draw(coeff), F(e)) for e in exps]
    if draw(st.booleans()):
        terms.append((draw(coeff), max(K, *exps) + F(1, draw(st.sampled_from([2, 3])))))
    terms[0] = (lead_sign * abs(terms[0][0]), terms[0][1])
    return terms


@st.composite
def transition_cases(draw):
    """(h, g, K): h with a t^1 term on each side, integer exponents through
    K and either orientation; g likewise, with or without a t^1 term."""
    K = draw(st.integers(1, 12))
    sides = {}
    for name, need_slope in (("h", True), ("g", False)):
        sign = draw(st.sampled_from([1, -1]))  # 1: preserving
        pair = []
        for lead_sign in (-sign, sign):
            lows = draw(st.lists(st.integers(2, K), max_size=2, unique=True)) if K > 1 else []
            if not need_slope and not draw(st.booleans()):
                exps = sorted(lows) or [K + 1]
            else:
                exps = [1] + sorted(lows)
            pair.append(_signed_poly(draw, lead_sign, exps, K))
        sides[name] = Germ.from_sides(*pair)
    return sides["h"], sides["g"], K


def _reversion_reference(h_side, g_side, K):
    """b_1..b_K with sum b_j |h_side(t)|^j = g_side(t) + O(t^(K+1)), solved
    for the b_j by sympy from the coefficients of t^1..t^K."""
    t = sympy.Symbol("t")
    bs = sympy.symbols(f"b1:{K + 1}")
    sign = 1 if h_side.leading.coeff > 0 else -1

    def poly(side, scale):
        return sum(scale * sympy.Rational(c.coeff) * t ** int(c.exponent)
                   for c in side.terms if c.exponent <= K)

    p, g = poly(h_side, sign), poly(g_side, 1)
    lhs = sympy.expand(sum(b * p ** j for j, b in enumerate(bs, 1)) - g)
    (solution,) = sympy.solve([lhs.coeff(t, n) for n in range(1, K + 1)], bs, dict=True)
    return [F(str(solution[b])) for b in bs]


@given(transition_cases())
@settings(max_examples=40, deadline=None)
def test_transition_jets_match_sympy_reversion(case):
    h, g, K = case
    q = dline._transition(h, g, K)
    assert isinstance(q, Germ)
    assert q.orientation == ("preserving" if h.orientation == g.orientation else "reversing")
    for h_side, g_side in ((h.neg, g.neg), (h.pos, g.pos)):
        # a side of h that lands below 0 is where q's neg side is read
        q_side = q.neg if h_side.leading.coeff < 0 else q.pos
        want = {j: b for j, b in enumerate(_reversion_reference(h_side, g_side, K), 1) if b}
        assert {int(t.exponent): t.coeff for t in q_side.terms if t.exponent <= K} == want
        if not want:
            assert q_side.terms == (g_side.leading,)


@st.composite
def polynomial_germs(draw, slope=True):
    """w_a o p for a polynomial p with a nonzero slope, or with none."""
    lead = 1 if slope else 3
    p = {lead: draw(st.sampled_from([F(-2), F(-1, 3), F(1, 2), F(3)]))}
    p.update({m: F(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
              for m in draw(st.lists(st.integers(lead + 1, 6), max_size=3))})
    return compose(make_wa(draw(st.sampled_from([F(1), F(2), F(1, 3)]))), poly_germ(p))


@given(polynomial_germs(), st.one_of(polynomial_germs(), polynomial_germs(slope=False)),
       st.sampled_from([1, 2, 3, 5, None]))
@settings(max_examples=60, deadline=None)
def test_same_structure_on_exact_polynomials_never_inverts_numerically(h, g, k):
    # q = g o h^-1 has exact jets whenever h has a slope; h o g^-1 needs the
    # series of a fractional power when g has none
    with mock.patch.object(germs, "_numeric_invert",
                           side_effect=AssertionError("a numeric inverse was built")):
        assert same_structure(h, g, k) is not Tri.INDETERMINATE
        if g.pos.leading.exponent == 1:
            assert same_structure(g, h, k) is not Tri.INDETERMINATE


# -- building diffeomorphisms -------------------------------------------------


def test_build_diffeo_derives_compatible_b():
    a = poly_germ({1: 1, 3: 1})
    d = build_diffeo(a, None, W2, W2, FIX, k=1)
    # b = h o a o h^-1: the cubic term shrinks by the square of the slope
    want = Germ.from_sides([(-1, 1), (-1, 3)], [(1, 1), (F(1, 4), 3)])
    assert germ_equal(d.pres_b, want)
    assert d.certificate is Tri.TRUE
    same = build_diffeo(a, want, W2, W2, FIX, k=1)
    assert germ_equal(same.pres_b, d.pres_b)


def test_build_diffeo_rejects_incompatible_b():
    with pytest.raises(IncompatiblePresentations) as exc:
        build_diffeo(identity_germ(), poly_germ({1: 1, 2: 1}), W2, W2, FIX, k=1)
    residual = exc.value.residual
    assert isinstance(residual, Germ)
    assert not residual.is_identity()


def test_build_diffeo_rejects_cells_emptied_by_the_classification():
    # no fix+ map between W_2 and W_8: the derived b would be w_4
    w8 = SpecialMinimalAtlas(make_wa(8))
    with pytest.raises(DomainError):
        build_diffeo(identity_germ(), None, W2, w8, FIX, k=1)


def test_build_diffeo_rejects_non_diffeo_presentation():
    flat = SpecialMinimalAtlas(identity_germ())
    with pytest.raises(DomainError):
        build_diffeo(make_wa(2), None, flat, flat, FIX, k=1)
    with pytest.raises(DomainError):
        build_diffeo(identity_germ(), None, flat, flat, "swap", k=1)
    with pytest.raises(DomainError):
        build_diffeo(identity_germ(), None, flat, flat, FIX, k=0)


def test_identity_diffeo():
    d = identity_diffeo(W2, k=4)
    assert d.is_identity()
    assert d.origin_action == FIX
    assert d.sign == 1
    assert apply_diffeo(d, ORIGIN) == ORIGIN
    assert apply_diffeo(d, ORIGIN_TILDE) == ORIGIN_TILDE
    assert apply_diffeo(d, PointL(F(5, 3))) == PointL(F(5, 3))


# -- psi ----------------------------------------------------------------------


@pytest.mark.parametrize("a,root", [(1, 1), (4, 2), (9, 3), (F(1, 4), F(1, 2))])
def test_psi_exact_presentations(a, root):
    d = psi(a)
    assert d.origin_action == EXCHANGE
    assert d.orientation == "reversing"
    want_restriction = Germ.from_sides([(F(1, 1) / root, 1)], [(-root, 1)])
    assert germ_equal(d.restriction, want_restriction)
    inv_root = F(1, 1) / root
    assert germ_equal(d.pres_a, Germ.from_sides([(inv_root, 1)], [(-inv_root, 1)]))
    assert germ_equal(d.pres_b, Germ.from_sides([(root, 1)], [(-root, 1)]))
    assert d.certificate is Tri.TRUE


def test_psi_restriction_is_its_closed_form_for_irrational_roots():
    # most of these a have no rational root, so root is a float and a
    # coefficient computed any other way can land an ulp off
    rng = random.Random(2406)
    for _ in range(200):
        a = F(rng.randint(1, 200), rng.randint(1, 50))
        root = real_sqrt(a)
        assert psi(a).restriction == Germ.from_sides([(1 / root, 1)], [(-root, 1)]), a


def test_psi_swaps_origins_and_squares_to_identity():
    d = psi(4)
    assert apply_diffeo(d, ORIGIN) == ORIGIN_TILDE
    assert apply_diffeo(d, ORIGIN_TILDE) == ORIGIN
    assert apply_diffeo(d, PointL(1)) == PointL(-2)
    assert apply_diffeo(d, PointL(-4)) == PointL(2)
    assert compose_diffeo(d, d).is_identity()


def test_psi_rejects_nonpositive():
    with pytest.raises(DomainError):
        psi(0)
    with pytest.raises(DomainError):
        psi(-2)


def test_psi_presentation_is_smooth():
    assert in_diff(phi_ex(psi(9)), 2)


# -- composition --------------------------------------------------------------


def test_compose_diffeo_action_bookkeeping():
    w4 = SpecialMinimalAtlas(make_wa(4))
    d = psi(4)
    i = identity_diffeo(w4)
    assert compose_diffeo(d, i).origin_action == EXCHANGE
    assert compose_diffeo(i, d).origin_action == EXCHANGE
    assert compose_diffeo(d, d).origin_action == FIX


def test_compose_diffeo_requires_matching_structures():
    with pytest.raises(DomainError):
        compose_diffeo(psi(4), psi(9))


# -- chart presentation accessors ----------------------------------------------


def test_phi_accessors_route_by_action():
    fix_map = identity_diffeo(W2)
    ex_map = psi(4)
    assert germ_equal(phi_fix(fix_map), fix_map.pres_b)
    assert germ_equal(phi_ex(ex_map), ex_map.pres_a)
    with pytest.raises(DomainError):
        phi_fix(ex_map)
    with pytest.raises(DomainError):
        phi_ex(fix_map)


# -- classification with witnesses ----------------------------------------------


def _check_witness(cell, d):
    assert d.origin_action == (FIX if cell.startswith("fix") else EXCHANGE)
    assert d.sign == (1 if cell.endswith("+") else -1)
    assert d.certificate is Tri.TRUE


@pytest.mark.parametrize(
    "a,b,cells",
    [
        (2, 2, {"fix+", "ex-"}),
        (2, F(1, 2), {"fix-", "ex+"}),
        (2, 3, set()),
        (1, 1, {"fix+", "fix-", "ex+", "ex-"}),
    ],
)
def test_diffeo_classes_witnesses(a, b, cells):
    cls_, wit = diffeo_classes(a, b)
    assert {c for c, v in cls_.nonempty.items() if v} == cells
    assert set(wit) == cells
    for cell, d in wit.items():
        _check_witness(cell, d)


def test_classification_json_includes_witnesses():
    cls_, wit = diffeo_classes(2, 2)
    d = classification_to_json(cls_, wit)
    assert set(d["cells"]) == {"fix+", "fix-", "ex+", "ex-"}
    got = {w["cell"] for w in d["witnesses"]}
    assert got == {"fix+", "ex-"}
    for w in d["witnesses"]:
        assert set(w) == {"cell", "restriction", "origin_action"}
