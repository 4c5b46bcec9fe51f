"""The line with two origins: points, atlases, structures, diffeomorphisms."""

import random
from fractions import Fraction as F

import pytest

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
