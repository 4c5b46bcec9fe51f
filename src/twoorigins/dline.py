"""The line with two origins: points, atlases, and structure maps.

The space is the real line with the origin doubled. A minimal atlas is a
pair of charts, one per origin; a special minimal atlas keeps the first
chart literally the identity so the whole structure is carried by the
single transition germ h. Diffeomorphisms between such structures are
stored as a germ on the punctured line plus an origin-action flag, with
both chart presentations certified smooth at construction time.
"""

from __future__ import annotations

from ._record import Record, setfield
from .errors import DomainError, IncompatiblePresentations, InvalidAtlas
from .germs import (
    Germ,
    GermLike,
    NumericGerm,
    PRESERVING,
    Tri,
    _normalize_order,
    compose,
    evaluate,
    flip_germ,
    germ_from_json,
    germ_match,
    germ_to_json,
    identity_germ,
    invert,
    make_wa,
    smoothness_at_zero,
)
from .realnum import is_integral, real_sqrt, to_real

FIX = "fix"
EXCHANGE = "exchange"


# ---------------------------------------------------------------------------
# points

class PointL(Record):
    """A point of the doubled line: a real number, or the second origin.

    tilde marks the added origin; it forces x = 0. Ordinary reals, including
    the first origin, carry tilde = False.
    """

    x: object
    tilde: bool = False

    def __init__(self, x, tilde=False):
        x = to_real(x)
        if tilde and x != 0:
            raise DomainError("only the origin is doubled")
        setfield(self, "x", x)
        setfield(self, "tilde", tilde)

    def is_origin(self) -> bool:
        return self.x == 0

    def __repr__(self):
        if self.tilde:
            return "PointL(0~)"
        return f"PointL({self.x})"


ORIGIN = PointL(0)
ORIGIN_TILDE = PointL(0, tilde=True)


def hausdorff_closure(p: PointL) -> frozenset:
    """Intersection of closures of all neighborhoods of p.

    Every neighborhood of one origin meets every neighborhood of the other,
    so either origin closes up to the pair; all other points are Hausdorff.
    """
    if p.is_origin():
        return frozenset((ORIGIN, ORIGIN_TILDE))
    return frozenset((p,))


# ---------------------------------------------------------------------------
# charts and atlases

class ChartL(Record):
    """One chart of a minimal atlas.

    domain "U" covers the line through the first origin, "V" through the
    second. The map is a germ sending the domain's origin to 0 and strictly
    monotone off 0; the stored orientation must agree with the map's.
    """

    domain: str
    map: GermLike
    orientation: str = ""

    def __init__(self, domain, map, orientation=""):
        if domain not in ("U", "V"):
            raise DomainError(f"chart domain must be U or V, got {domain!r}")
        if not isinstance(map, (Germ, NumericGerm)):
            raise DomainError("chart map must be a germ")
        if orientation == "":
            orientation = map.orientation
        elif orientation != map.orientation:
            raise DomainError(
                f"chart orientation flag {orientation!r} contradicts the map"
            )
        setfield(self, "domain", domain)
        setfield(self, "map", map)
        setfield(self, "orientation", orientation)


class MinimalAtlas(Record):
    """Two charts, one per origin; the structure they generate."""

    u_chart: ChartL
    v_chart: ChartL

    def __post_init__(self):
        if self.u_chart.domain != "U" or self.v_chart.domain != "V":
            raise DomainError("atlas needs a U chart and a V chart, in that order")


class SpecialMinimalAtlas(Record):
    """Minimal atlas whose U chart is the identity; h is the whole structure.

    Denotes the atlas {(U, id), (V, h)}, so the transition extension is h
    itself. Different h with smoothly related germs give the same structure
    (see same_structure).
    """

    h: GermLike

    def __post_init__(self):
        if not isinstance(self.h, (Germ, NumericGerm)):
            raise DomainError("special atlas needs a germ")

    @property
    def u_chart(self) -> ChartL:
        return ChartL("U", identity_germ())

    @property
    def v_chart(self) -> ChartL:
        return ChartL("V", self.h)

    def as_minimal(self) -> MinimalAtlas:
        return MinimalAtlas(self.u_chart, self.v_chart)

    def to_json(self, k: int = 1) -> dict:
        return {"special_atlas": {"h": germ_to_json(self.h)}, "k": k}

    @classmethod
    def from_json(cls, d: dict) -> tuple["SpecialMinimalAtlas", int]:
        try:
            h = germ_from_json(d["special_atlas"]["h"])
            k = int(d.get("k", 1))
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed structure JSON: {exc}") from exc
        return cls(h), k


def transition_extension(atlas) -> GermLike:
    """The 0-extension of v o u^-1, the atlas's one transition map.

    For a special minimal atlas this is h on the nose (the same object).
    """
    if isinstance(atlas, SpecialMinimalAtlas):
        return atlas.h
    if not isinstance(atlas, MinimalAtlas):
        raise DomainError("expected a minimal atlas")
    try:
        return compose(atlas.v_chart.map, invert(atlas.u_chart.map))
    except DomainError as exc:
        raise InvalidAtlas(f"transition map is not a germ: {exc}") from exc


def is_orientable(atlas) -> bool:
    """True when the transition extension preserves orientation."""
    return transition_extension(atlas).orientation == PRESERVING


# ---------------------------------------------------------------------------
# structure equivalence

def same_structure(h: GermLike, g: GermLike, k) -> Tri:
    """Whether the structures of P_h and P_g agree at order k.

    They agree exactly when q = g o h^-1 lies in the subgroup D: when h is in D the answer
    is whether g is, and vice versa. Only when neither settles it is q built (_transition)
    and its order-k jet read; numeric jets that cannot settle the order give INDETERMINATE.
    """
    vh, vg = smoothness_at_zero(h, k).verdict, smoothness_at_zero(g, k).verdict
    if Tri.TRUE in (vh, vg) and Tri.INDETERMINATE not in (vh, vg):
        return vg if vh is Tri.TRUE else vh
    return smoothness_at_zero(_transition(h, g, k), k).verdict


def _transition(h: GermLike, g: GermLike, k) -> GermLike:
    """q = g o h^-1, exact through order K = _normalize_order(k)[0] where the jets allow.

    They do when h and g have rational terms through t^K of at most 2^14/K bits each (so
    the jets take under a second) and each side of h has a t^1 term. Each side of q then
    solves Q(|h_side(t)|) = g_side(t) through t^K, routed as in compose, by undetermined
    coefficients (series reversion: Brent & Kung, J. ACM 25(4), 1978). Powers past K are
    dropped; a side whose jet vanishes keeps g's leading term. Else compose(g, invert(h)).
    """
    K = _normalize_order(k)[0]
    if not (isinstance(h, Germ) and isinstance(g, Germ)
            and h.neg.leading.exponent == 1 == h.pos.leading.exponent
            and all(is_integral(t.exponent) and not isinstance(t.coeff, float)
                    and K * (t.coeff.numerator * t.coeff.denominator).bit_length() <= 2 ** 14
                    for s in (h.neg, h.pos, g.neg, g.pos) for t in s.terms if t.exponent <= K)):
        return compose(g, invert(h))
    sides = {}
    for hs, gs in ((h.neg, g.neg), (h.pos, g.pos)):
        below = (hs is h.neg) == (h.orientation == PRESERVING)  # h_side < 0: q's neg side
        hc, gc = ({t.exponent: t.coeff for t in side.terms} for side in (hs, gs))
        p = [(-1 if below else 1) * hc.get(n, 0) for n in range(K + 1)]
        rest = [gc.get(n, 0) for n in range(K + 1)]
        power, terms = p, []  # power = |h_side|^n through t^K, from a_1^n t^n
        for n in range(1, K + 1):
            b = rest[n] / power[n]
            if b:
                terms.append((b, n))
                rest = [r - b * c for r, c in zip(rest, power)]
            power = [sum(power[i] * p[j - i] for i in range(j)) for j in range(K + 1)]
        sides[below] = terms or [gs.leading]  # past t^K, with q's sign there
    return Germ.from_sides(sides[True], sides[False])


# ---------------------------------------------------------------------------
# diffeomorphisms of the doubled line

class DiffeoL(Record):
    """A certified order-k diffeomorphism between doubled-line structures.

    The map is its restriction germ on the punctured line plus the origin
    action (the branch pair {0, 0~} always maps to itself, so fix or
    exchange is the only freedom). pres_a and pres_b are the two chart
    presentations, read off the restriction:

      fix:      pres_a = F read U -> U  (= restriction),
                pres_b = F read V -> V  (= h_t o restriction o h_s^-1)
      exchange: pres_a = F read V -> U  (= restriction o h_s^-1),
                pres_b = F read U -> V  (= h_t o restriction)

    certificate records how firmly the presentations were verified: TRUE for
    exact or conclusive numeric checks, INDETERMINATE when a numeric check
    could not certify either way. Construct through build_diffeo.
    """

    restriction: GermLike
    origin_action: str
    source: SpecialMinimalAtlas
    target: SpecialMinimalAtlas
    pres_a: GermLike
    pres_b: GermLike
    k: int
    certificate: Tri = Tri.TRUE

    def __post_init__(self):
        if self.origin_action not in (FIX, EXCHANGE):
            raise DomainError(f"unknown origin action {self.origin_action!r}")
        if not isinstance(self.k, int) or self.k < 1:
            raise DomainError(f"k must be a positive integer, got {self.k!r}")

    @property
    def orientation(self) -> str:
        return self.restriction.orientation

    @property
    def sign(self) -> int:
        return 1 if self.orientation == PRESERVING else -1

    def is_identity(self) -> bool:
        return (self.origin_action == FIX
                and isinstance(self.restriction, Germ)
                and self.restriction.is_identity())

    def __call__(self, p: PointL) -> PointL:
        return apply_diffeo(self, p)


def apply_diffeo(d: DiffeoL, p: PointL) -> PointL:
    """Evaluate d at a point, routing the origins by the action flag."""
    if p.is_origin():
        swap = d.origin_action == EXCHANGE
        return PointL(0, tilde=p.tilde != swap)
    return PointL(evaluate(d.restriction, p.x))


def build_diffeo(a: GermLike, b, source: SpecialMinimalAtlas,
                 target: SpecialMinimalAtlas, origin_action: str,
                 k: int = 1) -> DiffeoL:
    """Assemble a diffeomorphism from its chart presentation(s).

    a is the presentation into the target U chart. It fixes the restriction:
    a itself for fix, a o h_s for exchange. b, if given, must satisfy the
    compatibility identity (b = h_t o a o h_s^-1 for fix, b = h_t o
    restriction for exchange) and is derived from it when None. Both
    presentations are certified as order-k diffeomorphism germs; a
    definitely-incompatible b raises IncompatiblePresentations carrying the
    residual germ b o expected^-1 (identity iff compatible).
    """
    restriction = compose(a, source.h) if origin_action == EXCHANGE else a
    return _diffeo(restriction, a, b, source, target, origin_action, k)


def _diffeo(restriction: GermLike, a: GermLike, b, source: SpecialMinimalAtlas,
            target: SpecialMinimalAtlas, origin_action: str, k: int) -> DiffeoL:
    """The diffeomorphism with this restriction and U-chart presentation a;
    b is derived, or checked against the derivation when given."""
    if origin_action not in (FIX, EXCHANGE):
        raise DomainError(f"unknown origin action {origin_action!r}")
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"k must be a positive integer, got {k!r}")
    if origin_action == FIX:
        expected = compose(target.h, compose(a, invert(source.h)))
    else:
        expected = compose(target.h, restriction)
    certificate = Tri.TRUE
    if b is None:
        b = expected
    else:
        match = germ_match(b, expected)
        if match is Tri.FALSE:
            try:
                residual = compose(b, invert(expected))
            except DomainError:
                residual = None
            raise IncompatiblePresentations(
                "presentation b does not satisfy the compatibility identity",
                residual=residual,
            )
        if match is Tri.INDETERMINATE:
            certificate = Tri.INDETERMINATE
    for label, q in (("a", a), ("b", b)):
        tri = smoothness_at_zero(q, k).verdict
        if tri is Tri.FALSE:
            raise DomainError(
                f"presentation {label} is not an order-{k} diffeomorphism germ"
            )
        if tri is Tri.INDETERMINATE:
            certificate = Tri.INDETERMINATE
    return DiffeoL(restriction, origin_action, source, target, a, b, k, certificate)


def phi_fix(d: DiffeoL) -> GermLike:
    """V-chart presentation of an origin-fixing diffeomorphism."""
    if d.origin_action != FIX:
        raise DomainError("phi_fix needs an origin-fixing diffeomorphism")
    return d.pres_b


def phi_ex(d: DiffeoL) -> GermLike:
    """Source-V-chart presentation of an origin-exchanging diffeomorphism."""
    if d.origin_action != EXCHANGE:
        raise DomainError("phi_ex needs an origin-exchanging diffeomorphism")
    return d.pres_a


def identity_diffeo(atlas: SpecialMinimalAtlas, k: int = 1) -> DiffeoL:
    return build_diffeo(identity_germ(), None, atlas, atlas, FIX, k)


def psi(a) -> DiffeoL:
    """The order-two origin swap of the structure P_{w_a}.

    Restriction x -> -x/sqrt(a) on the left, x -> -x*sqrt(a) on the right;
    exchanges origins, reverses orientation, and both chart presentations
    come out linear (x -> -sqrt(a)*x and x -> -x/sqrt(a)). Composing it with
    itself gives the identity exactly.
    """
    av = to_real(a)
    if av <= 0:
        raise DomainError(f"psi needs a > 0, got {a!r}")
    atlas = SpecialMinimalAtlas(make_wa(av))
    return _origin_swap(av, -1, atlas, atlas, 1)


def _origin_swap(a, sign: int, source, target, k: int) -> DiffeoL:
    """The origin-exchanging map from the structure of w_a whose restriction
    is x -> sign*x/sqrt(a) on the left and x -> sign*x*sqrt(a) on the right;
    sign = 1 preserves orientation, sign = -1 reverses it."""
    root = real_sqrt(a)
    restriction = Germ.from_sides([(-sign / root, 1)], [(sign * root, 1)])
    pres_a = compose(restriction, invert(source.h))
    return _diffeo(restriction, pres_a, None, source, target, EXCHANGE, k)


def compose_diffeo(d2: DiffeoL, d1: DiffeoL) -> DiffeoL:
    """d2 after d1; the structures must match where they meet."""
    if germ_match(d2.source.h, d1.target.h) is not Tri.TRUE:
        raise DomainError(
            "cannot compose: source structure of the outer map does not "
            "verifiably equal the target structure of the inner map"
        )
    action = FIX if d1.origin_action == d2.origin_action else EXCHANGE
    restriction = compose(d2.restriction, d1.restriction)
    pres_a = restriction if action == FIX else compose(restriction, invert(d1.source.h))
    return _diffeo(restriction, pres_a, None, d1.source, d2.target, action, min(d1.k, d2.k))


# ---------------------------------------------------------------------------
# classification with witnesses

def _wa_witnesses(cls_, k: int) -> dict[str, DiffeoL]:
    """Concrete maps populating each nonempty cell between W_a and W_b."""
    av, bv = cls_.a, cls_.b
    source = SpecialMinimalAtlas(make_wa(av))
    target = SpecialMinimalAtlas(make_wa(bv))
    out: dict[str, DiffeoL] = {}
    if cls_.nonempty["fix+"]:
        out["fix+"] = build_diffeo(identity_germ(), None, source, target, FIX, k)
    if cls_.nonempty["fix-"]:
        out["fix-"] = build_diffeo(flip_germ(), None, source, target, FIX, k)
    if cls_.nonempty["ex+"]:
        out["ex+"] = _origin_swap(av, 1, source, target, k)
    if cls_.nonempty["ex-"]:
        out["ex-"] = _origin_swap(av, -1, source, target, k)
    return out


def diffeo_classes(a, b, k: int = 1):
    """Emptiness pattern of the four cells plus a witness for each nonempty one.

    Returns (classification, witnesses) where witnesses maps cell names to
    DiffeoL objects certified at order k. cosets is imported here and in
    classification_to_json, its only users, so that the psi and structure
    subcommands do not load it.
    """
    from .cosets import classify_wa_pair

    cls_ = classify_wa_pair(a, b, k)
    return cls_, _wa_witnesses(cls_, k)


def classification_to_json(cls_, witnesses: dict[str, DiffeoL]) -> dict:
    """The cells and the witnesses' restrictions (see germ_to_json)."""
    from .cosets import CELLS

    wit = []
    for cell in CELLS:
        if cell in witnesses:
            d = witnesses[cell]
            wit.append({
                "cell": cell,
                "restriction": germ_to_json(d.restriction),
                "origin_action": d.origin_action,
            })
    return {"cells": {c: cls_.nonempty[c] for c in CELLS}, "witnesses": wit}
