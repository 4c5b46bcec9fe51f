"""Germ algebra for homeomorphisms of the real line fixing 0.

A germ here is a homeomorphism h of R with h(0) = 0 that is smooth away
from 0, represented exactly as a finite signed power sum on each side:

    h(x) = sum_i c_i * (-x)**e_i   for x < 0        (the "neg" side)
    h(x) = sum_i c_i * x**e_i      for x > 0        (the "pos" side)

with all exponents strictly positive. The two one-sided expansions are
independent; whether h is differentiable at 0, and to what order, is a
computed property (one-sided jets), not a representation constraint.

Orientation is stored explicitly and validated: an increasing h has a
negative leading coefficient on the neg side and a positive one on the pos
side, a decreasing h has both flipped. Composition stays exact whenever the
substitution is closed under finite power sums (inner side a monomial, or
all outer exponents positive integers); otherwise it degrades to a
NumericGerm wrapping the composed callable, and every numeric answer
downstream is reported with its certification status rather than as a bare
claim.

Coefficients and exponents are Fractions whenever the inputs allow
(see realnum); exponents stay Fractions always.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Callable, Union

from . import _numerics
from ._record import Record, setfield
from .errors import DomainError
from .realnum import Real, is_integral, real_eq, real_json, real_pow, to_real

#: Hard cap on jet orders; "infinite" smoothness requests are evaluated here
#: and the report carries capped=True.
K_MAX = 12

#: Exact composition falls back to numeric beyond this many expansion terms.
_TERM_CAP = 512

#: |x| at NumericGerm's validation samples on each side: 2^-2 .. 2^-15.
_SAMPLE_STEPS = tuple(2.0 ** -j for j in range(2, 16))

#: Richardson step schedule for one-sided numeric derivatives: 2^-4 .. 2^-16.
_RICH_STEPS = _numerics.halving(2.0 ** -4, 13)

#: Relative Cauchy threshold deciding numeric derivative existence.
_RICH_REL = 1e-3


class _Nonexistent:
    """Marker for a one-sided derivative that does not exist at 0."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NONEXISTENT"


NONEXISTENT = _Nonexistent()

JetEntry = Union[Fraction, float, _Nonexistent]


class Tri(enum.Enum):
    """Three-valued certification result: numeric paths cannot always decide."""

    TRUE = "true"
    FALSE = "false"
    INDETERMINATE = "indeterminate"

    @classmethod
    def from_bool(cls, b: bool) -> "Tri":
        return cls.TRUE if b else cls.FALSE


PRESERVING = "preserving"
REVERSING = "reversing"


class PowerTerm(Record):
    """One term c * t**e of a one-sided expansion; c != 0, e > 0.

    A float coefficient stays a float (it marks a computed, inexact value
    and must keep comparing by tolerance); ints, strings, and Fractions
    become exact Fractions. Exponents are always exact Fractions.
    """

    coeff: Real
    exponent: Fraction

    def __init__(self, coeff, exponent):
        c = coeff if isinstance(coeff, (float, Fraction)) else to_real(coeff)
        e = exponent if isinstance(exponent, Fraction) else to_real(exponent)
        if c == 0:
            raise DomainError("power term with zero coefficient")
        if e.numerator <= 0:  # a Fraction's denominator is positive
            raise DomainError(f"power term exponent must be positive, got {e}")
        setfield(self, "coeff", c)
        setfield(self, "exponent", e)


class SideExpansion(Record):
    """Finite power sum for one side, exponents strictly increasing.

    The evaluated side map is strictly monotone on a punctured one-sided
    neighborhood of 0; with positive exponents and nonzero coefficients the
    leading term dominates there, so construction only has to check term
    ordering.
    """

    terms: tuple[PowerTerm, ...]

    def __init__(self, terms):
        terms = tuple(
            t if isinstance(t, PowerTerm) else PowerTerm(t[0], t[1])
            for t in terms
        )
        if not terms:
            raise DomainError("side expansion needs at least one term")
        exps = [t.exponent for t in terms]
        # e2 <= e1 on integers, without Fraction's comparison dispatch
        if any(e2.numerator * e1.denominator <= e1.numerator * e2.denominator
               for e1, e2 in zip(exps, exps[1:])):
            raise DomainError(f"exponents must strictly increase, got {exps}")
        setfield(self, "terms", terms)

    @property
    def leading(self) -> PowerTerm:
        return self.terms[0]

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __call__(self, t: Real) -> Real:
        # t is the positive side variable (|x|), t > 0
        return sum(term.coeff * real_pow(t, term.exponent) for term in self.terms)


class Germ(Record):
    """Exact germ: per-side power sums plus an orientation flag.

    neg is evaluated as x -> sum c*(-x)**e for x < 0, pos as
    x -> sum c*x**e for x > 0, and the germ fixes 0. The orientation flag
    must cohere with the leading signs (that coherence is what makes the
    assembled map a bijection near 0).
    """

    neg: SideExpansion
    pos: SideExpansion
    orientation: str

    # every exact germ operation builds one: an own __init__ is the cheaper
    def __init__(self, neg: SideExpansion, pos: SideExpansion, orientation: str):
        if orientation not in (PRESERVING, REVERSING):
            raise DomainError(f"unknown orientation {orientation!r}")
        ln = neg.leading.coeff
        lp = pos.leading.coeff
        if orientation == PRESERVING:
            ok = ln < 0 and lp > 0
        else:
            ok = ln > 0 and lp < 0
        if not ok:
            raise DomainError(
                f"leading coefficients ({ln}, {lp}) do not match orientation "
                f"{orientation!r}; the assembled map would not be a bijection"
            )
        setfield(self, "neg", neg)
        setfield(self, "pos", pos)
        setfield(self, "orientation", orientation)

    @classmethod
    def from_sides(cls, neg_terms, pos_terms) -> "Germ":
        """Build a germ inferring orientation from the leading signs."""
        neg = SideExpansion(neg_terms)
        pos = SideExpansion(pos_terms)
        if neg.leading.coeff < 0 and pos.leading.coeff > 0:
            return cls(neg, pos, PRESERVING)
        if neg.leading.coeff > 0 and pos.leading.coeff < 0:
            return cls(neg, pos, REVERSING)
        raise DomainError(
            "leading coefficient signs admit no orientation; not a homeomorphism germ"
        )

    def __call__(self, x):
        return evaluate(self, x)

    def is_identity(self) -> bool:
        return (
            self.orientation == PRESERVING
            and self.neg.is_monomial() and self.pos.is_monomial()
            and self.neg.leading.exponent == 1 and self.pos.leading.exponent == 1
            and real_eq(self.neg.leading.coeff, Fraction(-1))
            and real_eq(self.pos.leading.coeff, Fraction(1))
        )


class NumericGerm(Record):
    """Fallback germ carrying the composed callable on R minus 0.

    Produced when exact composition or inversion is not closed under finite
    power sums. The callable is the primary representation (it is an exact
    pointwise composition of closed forms); construction samples both sides
    to validate monotonicity and the limit-to-0 invariant. provenance records
    how the object arose.
    """

    fn: Callable[[float], float]
    orientation: str
    provenance: str = "numeric"

    def __post_init__(self):
        if self.orientation not in (PRESERVING, REVERSING):
            raise DomainError(f"unknown orientation {self.orientation!r}")
        self._validate_samples()

    def _validate_samples(self):
        sgn = 1.0 if self.orientation == PRESERVING else -1.0
        for side in (-1.0, 1.0):
            xs = [side * t for t in _SAMPLE_STEPS]
            ys = [self.fn(x) for x in xs]
            expected = sgn * side
            if any(math.copysign(1.0, y) != expected for y in ys):
                raise DomainError(
                    f"numeric germ sign pattern inconsistent with {self.orientation}"
                )
            # xs shrink toward 0, so |y| must shrink too (strict monotonicity)
            mags = [abs(y) for y in ys]
            if any(m2 >= m1 for m1, m2 in zip(mags, mags[1:])):
                raise DomainError("numeric germ samples are not strictly monotone")
            # Scale-free: from x = 2^-15 to 2^-40 and on to 2^-65 a germ like
            # c*|x|^e shrinks by 2^(-25e) each time, at least half for every
            # e >= 1/25 whatever c is. A jump J at 0 is caught only when it is
            # above about half the 2^-40 sample: a smaller J hides under the
            # part that still vanishes there.
            mag = mags[-1]
            for j in (40, 65):
                finer = abs(self.fn(side * 2.0 ** -j))
                if finer > 0.5 * mag:
                    raise DomainError("numeric germ does not approach 0 at 0")
                mag = finer

    def __call__(self, x):
        return evaluate(self, x)


GermLike = Union[Germ, NumericGerm]


class Jet(Record):
    """Two one-sided derivative tuples at 0, entries f^(j)(0-) / f^(j)(0+).

    Entry j-1 holds the j-th derivative (no 0th entry; germs fix 0). Once an
    entry is NONEXISTENT all later entries on that side are NONEXISTENT too.
    """

    order: int
    neg: tuple[JetEntry, ...]
    pos: tuple[JetEntry, ...]

    def __post_init__(self):
        if not (1 <= self.order <= K_MAX):
            raise DomainError(f"jet order must be in 1..{K_MAX}, got {self.order}")
        for name, side in (("neg", self.neg), ("pos", self.pos)):
            if len(side) != self.order:
                raise DomainError(f"{name} side has {len(side)} entries for order {self.order}")
            seen_gap = False
            for entry in side:
                if entry is NONEXISTENT:
                    seen_gap = True
                elif seen_gap:
                    raise DomainError("an existing derivative follows a NONEXISTENT one")


class Obstruction(Record):
    """First failing order of a smoothness test with the mismatched pair."""

    order: int
    neg: JetEntry
    pos: JetEntry


class SmoothnessReport(Record):
    max_order: int
    obstruction: Obstruction | None
    is_diffeo_ck: bool
    order_checked: int = 0
    capped: bool = False
    #: False when a numeric path could not certify the failing order either way.
    conclusive: bool = True

    # every smoothness question builds one, by keyword: the generic
    # Record __init__ binds keywords at about twice the cost
    def __init__(self, max_order, obstruction, is_diffeo_ck, order_checked=0,
                 capped=False, conclusive=True):
        setfield(self, "max_order", max_order)
        setfield(self, "obstruction", obstruction)
        setfield(self, "is_diffeo_ck", is_diffeo_ck)
        setfield(self, "order_checked", order_checked)
        setfield(self, "capped", capped)
        setfield(self, "conclusive", conclusive)

    @property
    def verdict(self) -> Tri:
        """Three-valued membership in D at order_checked.

        A germ that is C^k at 0 with a nonzero slope has a C^k inverse by the
        inverse function theorem, so is_diffeo_ck alone decides membership:
        TRUE when it holds, FALSE when the report settled that it fails,
        INDETERMINATE when a numeric path could not settle it.
        """
        if self.is_diffeo_ck:
            return Tri.TRUE
        return Tri.FALSE if self.conclusive else Tri.INDETERMINATE


# ---------------------------------------------------------------------------
# constructors

def make_wa(a) -> Germ:
    """The one-parameter family w_a: identity for x <= 0, x -> a*x for x > 0."""
    a = to_real(a)
    if a <= 0:
        raise DomainError(f"w_a needs a > 0, got {a}")
    return Germ(SideExpansion([(-1, 1)]), SideExpansion([(a, 1)]), PRESERVING)


def identity_germ() -> Germ:
    return make_wa(1)


def flip_germ() -> Germ:
    """The orientation-reversing involution x -> -x."""
    return Germ(SideExpansion([(1, 1)]), SideExpansion([(-1, 1)]), REVERSING)


def poly_germ(coeffs: dict[int, object]) -> Germ:
    """Germ of a polynomial f(x) = sum c_m x**m applied on both sides.

    coeffs maps power -> coefficient. The lowest nonzero power must be odd
    (an even leading power cannot be a local bijection).
    """
    items = sorted((int(m), to_real(c)) for m, c in coeffs.items() if to_real(c) != 0)
    if not items:
        raise DomainError("polynomial germ needs a nonzero coefficient")
    lead_m, lead_c = items[0]
    if lead_m % 2 == 0:
        raise DomainError(f"leading power {lead_m} is even; not a bijection near 0")
    pos = [(c, m) for m, c in items]
    neg = [(c * (-1) ** m, m) for m, c in items]
    orientation = PRESERVING if lead_c > 0 else REVERSING
    return Germ(SideExpansion(neg), SideExpansion(pos), orientation)


# ---------------------------------------------------------------------------
# evaluation

def evaluate(h: GermLike, x):
    """Apply the germ; exact when x and the germ data are rational."""
    if isinstance(h, NumericGerm):
        if x == 0:
            return 0.0
        return h.fn(float(x))
    if not isinstance(h, Germ):
        raise DomainError(f"cannot evaluate {type(h).__name__}")
    xr = to_real(x) if not isinstance(x, (Fraction, float)) else x
    if xr == 0:
        return Fraction(0) if isinstance(xr, Fraction) else 0.0
    if xr < 0:
        return h.neg(-xr)
    return h.pos(xr)


def _float_fn(h: GermLike) -> Callable[[float], float]:
    if isinstance(h, NumericGerm):
        return h.fn
    try:
        neg = [(float(t.coeff), float(t.exponent)) for t in h.neg.terms]
        pos = [(float(t.coeff), float(t.exponent)) for t in h.pos.terms]
    except OverflowError as exc:
        raise DomainError(f"{exc}; a value is out of float range") from exc
    # a plain left-to-right loop: sum() adds floats in the same order on
    # CPython 3.11 but switched to compensated summation in 3.12
    def fn(x: float) -> float:
        if x == 0.0:
            return 0.0
        if x < 0.0:
            x, terms = -x, neg
        else:
            terms = pos
        s = 0.0
        for c, e in terms:
            s += c * x ** e
        return s
    return fn


# ---------------------------------------------------------------------------
# composition and inversion

def _orientation_product(o1: str, o2: str) -> str:
    return PRESERVING if (o1 == o2) else REVERSING


def _expand_composition(outer, inner) -> list | None:
    """Terms of sum_j d_j * (P(t))**f_j where P = sum_i a_i t**e_i, P > 0 near 0.

    None when the substitution is not closed under finite power sums (closure
    needs a monomial inner side, positive by sign routing, or every outer
    exponent a positive integer) or passes _TERM_CAP terms; callers then fall
    back to the numeric representation. P**n is multiplied out on ints, with
    exponents over m and coefficients over den**n, the lcms of the inner
    exponents' and coefficients' denominators; only the powers that the outer
    exponents name are kept, and the outer sum is over sden * den**maxf,
    formed once every P**n has passed the cap. A float coefficient anywhere
    leaves every coefficient as it is, over 1; a product of nonzero floats
    that underflows to 0.0 is refused rather than dropped as if it cancelled.
    """
    if len(inner) == 1:
        a, e = inner[0]
        out: dict = {}
        for d, f in outer:
            key = e * f
            v = d * real_pow(a, f)
            if not v:
                _underflow()
            out[key] = out.get(key, 0) + v
        terms = [(c, e) for e, c in out.items() if c != 0]
        return sorted(terms, key=lambda t: t[1])
    if not all(is_integral(f) and f > 0 for _, f in outer):
        return None
    exact = all(isinstance(c, Fraction) for c, _ in (*inner, *outer))
    den, sden = (math.lcm(*(c.denominator for c, _ in side)) if exact else 1
                 for side in (inner, outer))
    m = math.lcm(*(e.denominator for _, e in inner))
    base = {e.numerator * (m // e.denominator):
            c.numerator * (den // c.denominator) if exact else c for c, e in inner}
    named = {int(f) for _, f in outer}
    maxf = max(named)
    power, powers = base, {1: base}
    for n in range(2, maxf + 1):
        out = {}
        for e1, c1 in power.items():
            for e2, c2 in base.items():
                v = c1 * c2
                if not v:
                    _underflow()
                out[e1 + e2] = out.get(e1 + e2, 0) + v
        power = {e: c for e, c in out.items() if c != 0}
        if len(power) > _TERM_CAP:
            return None
        if n in named:
            powers[n] = power
    acc: dict = {}
    for d, f in outer:
        scale = (d.numerator * (sden // d.denominator) if exact else d) * den ** (maxf - int(f))
        for e, c in powers[int(f)].items():
            v = scale * c
            if not v:
                _underflow()
            acc[e] = acc.get(e, 0) + v
        if len(acc) > _TERM_CAP:
            return None
    total = sden * den ** maxf
    return [(Fraction(c, total) if exact else c, Fraction(e, m))
            for e, c in sorted(acc.items()) if c != 0]


def _underflow(what: str = "a composed coefficient"):
    raise DomainError(f"{what} underflows to 0.0 although its factors "
                      "are nonzero, out of float range")


def _term_pairs(side: SideExpansion):
    return [(t.coeff, t.exponent) for t in side.terms]


def compose(g: GermLike, h: GermLike) -> GermLike:
    """g after h: compose(g, h)(x) = g(h(x)).

    Exact when the per-side substitution is closed (see _expand_composition);
    otherwise returns a NumericGerm wrapping the composed callables, with
    provenance recording the fallback.
    """
    if isinstance(g, NumericGerm) or isinstance(h, NumericGerm):
        return _numeric_compose(g, h)
    sides = []
    for on_neg, inner in ((True, h.neg), (False, h.pos)):
        # A side of h lands below 0 when it is the neg side of a preserving
        # h or the pos side of a reversing one. g's side there consumes
        # |h(x)|, so the inner terms are negated to be positive near 0.
        below = on_neg == (h.orientation == PRESERVING)
        outer = g.neg if below else g.pos
        inner_positive = [(-c, e) if below else (c, e) for c, e in _term_pairs(inner)]
        expanded = _expand_composition(_term_pairs(outer), inner_positive)
        if expanded is None:
            return _numeric_compose(g, h)
        sides.append(SideExpansion(expanded))
    return Germ(*sides, _orientation_product(g.orientation, h.orientation))


def _prov(h: GermLike) -> str:
    if isinstance(h, NumericGerm):
        return h.provenance
    return "exact"


def _numeric_compose(g: GermLike, h: GermLike) -> NumericGerm:
    gf, hf = _float_fn(g), _float_fn(h)
    try:
        return NumericGerm(fn=lambda x: gf(hf(x)),
                           orientation=_orientation_product(g.orientation, h.orientation),
                           provenance=f"compose({_prov(g)},{_prov(h)})")
    except DomainError:
        # an exact composite is nonzero near 0: a 0.0 at the finest
        # validation sample, where underflow sets in first, is underflow
        if isinstance(g, Germ) and isinstance(h, Germ):
            if any(gf(hf(side * _SAMPLE_STEPS[-1])) == 0.0 for side in (-1.0, 1.0)):
                _underflow("the composite at a validation sample")
        raise


def invert(h: GermLike) -> GermLike:
    """Group inverse; exact for per-side monomials, numeric root-finding otherwise."""
    if isinstance(h, NumericGerm):
        return _numeric_invert(h)
    if h.neg.is_monomial() and h.pos.is_monomial():
        # c t^e inverts to |c|^(-1/e) t^(1/e), negative for h's neg side;
        # a reversing h sends each side across 0, so the inverse's sides swap
        sides = []
        for negative, side in ((True, h.neg), (False, h.pos)):
            r = Fraction(1) / side.leading.exponent
            c = real_pow(abs(side.leading.coeff), -r)
            sides.append(SideExpansion([(-c if negative else c, r)]))
        if h.orientation == REVERSING:
            sides.reverse()
        return Germ(*sides, h.orientation)
    return _numeric_invert(h)


def _numeric_invert(h: GermLike) -> NumericGerm:
    hf = _float_fn(h)
    preserving = h.orientation == PRESERVING

    def solve(y: float) -> float:
        if y == 0.0:
            return 0.0
        # x lives on the side forced by orientation, and along that side
        # |h| grows with |x| while keeping the sign of y, so the value
        # v(m) = h(sgn*m) travels monotonically toward y: upward iff y > 0.
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
                # the side folded back before reaching y: y is outside the
                # germ branch of this expansion
                raise DomainError(f"value {y} is not reached by the monotone branch")
            prev_mag = abs(v)
            lo, hi = hi, hi * 2.0
            if hi > 2.0 ** 60:
                raise DomainError("inverse bracket search escaped to infinity")
        # Bisect until lo and hi are adjacent floats, when mid is one of
        # them: at most about 1100 steps from [0, 2^60], so a steep inverse
        # resolves a value whose preimage lies far below 2^-230.
        while True:
            mid = 0.5 * (lo + hi)
            v = hf(sgn * mid)
            if (v < y) if up else (v > y):
                if mid == lo:
                    break
                lo = mid
            else:
                if mid == hi:
                    break
                hi = mid
        return sgn * 0.5 * (lo + hi)

    return NumericGerm(fn=solve, orientation=h.orientation,
                       provenance=f"invert({_prov(h)})")


# ---------------------------------------------------------------------------
# jets

def _richardson(fn: Callable[[float], float], j: int, side: str):
    """Extrapolated one-sided derivative estimate at 0.

    Returns a (status, value, err) row with status in "ok" / "nonexistent" /
    "indeterminate". The stencil node at 0 is the germ's fixed point, so it
    is 0.0 without a call. Existence is the fixed relative 1e-3 Cauchy
    criterion; a quotient sequence that keeps growing at the finest steps
    marks a derivative that does not exist.
    """
    sign = 1.0 if side == "pos" else -1.0
    rows = [[0.0] + [fn(x) for x in row[1:]]
            for row in _numerics.offsets(j, _RICH_STEPS, sign)]
    best_val, best_err, raw = _numerics.one_sided(rows, j, _RICH_STEPS, sign)
    if best_err <= _RICH_REL * max(1.0, abs(best_val)):
        return "ok", best_val, best_err
    mags = [abs(v) for v in raw]
    growing = all(m2 > 1.15 * m1 for m1, m2 in zip(mags[-6:], mags[-5:]))
    if growing and mags[-1] > 5.0 * max(1.0, mags[0]):
        return "nonexistent", best_val, best_err
    return "indeterminate", best_val, best_err


def _side_rows(h: GermLike, order: int, side: str) -> list:
    """The derivatives 1..order of h at 0 from one side, one (status, value,
    err) row per order, status as in _richardson. Once a status is not "ok",
    every later row repeats it with no value.

    Exact germs follow one_sided_jet's rule with err None (on the neg side
    t = -x, so odd orders change sign). Numeric germs are Richardson
    estimates, indeterminate past the numeric order cap.
    """
    exact = isinstance(h, Germ)
    if exact:
        terms = (h.neg if side == "neg" else h.pos).terms
        min_frac = min((t.exponent for t in terms if not is_integral(t.exponent)), default=None)
        by_int_exp = {int(t.exponent): t.coeff for t in terms if is_integral(t.exponent)}
    else:
        fn = _float_fn(h)
    rows = []
    status = "ok"
    for j in range(1, order + 1):
        if status != "ok":
            row = (status, None, None)
        elif not exact:
            row = _richardson(fn, j, side) if j <= _numerics.ORDER_CAP \
                else ("indeterminate", None, None)
        elif min_frac is not None and min_frac < j:
            row = ("nonexistent", None, None)
        elif j not in by_int_exp:
            row = ("ok", Fraction(0), None)
        else:
            val = by_int_exp[j] * math.factorial(j)
            row = ("ok", -val if side == "neg" and j % 2 == 1 else val, None)
        status = row[0]
        rows.append(row)
    return rows


def one_sided_jet(h: GermLike, order: int, side: str) -> tuple[JetEntry, ...]:
    """Derivatives 1..order of h at 0 from one side.

    For exact germs an integer exponent equal to j contributes j! times its
    coefficient (sign-adjusted on the neg side), fractional exponents below j
    make the j-th derivative NONEXISTENT, everything else contributes 0. On
    the numeric path NONEXISTENT means "not certified to exist by the
    convergence test"; smoothness_at_zero keeps the finer ok/indeterminate
    distinction.
    """
    if not isinstance(order, int) or order <= 0:
        raise DomainError(f"jet order must be a positive integer, got {order!r}")
    if order > K_MAX:
        raise DomainError(f"jet order {order} exceeds K_MAX={K_MAX}")
    if side not in ("neg", "pos"):
        raise DomainError(f"side must be 'neg' or 'pos', got {side!r}")
    return tuple(v if s == "ok" else NONEXISTENT for s, v, _ in _side_rows(h, order, side))


def jet_of(h: GermLike, order: int) -> Jet:
    """Both one-sided jets assembled into a Jet value."""
    return Jet(order=order,
               neg=one_sided_jet(h, order, "neg"),
               pos=one_sided_jet(h, order, "pos"))


# ---------------------------------------------------------------------------
# smoothness tests

def _normalize_order(k) -> tuple[int, bool]:
    """Map an order request (int or an infinity marker) to (order, capped)."""
    if k is None or (isinstance(k, float) and math.isinf(k)):
        return K_MAX, True
    if not isinstance(k, int) or isinstance(k, bool):
        raise DomainError(f"order must be a positive integer or an infinity marker, got {k!r}")
    if k < 1:
        raise DomainError(f"order must be >= 1, got {k}")
    if k > K_MAX:
        return K_MAX, True
    return k, False


def smoothness_at_zero(h: GermLike, k) -> SmoothnessReport:
    """Largest order through which the two one-sided jets exist and agree.

    is_diffeo_ck additionally requires a nonzero first derivative, read from
    the order-1 entry of the same jets; by the inverse function theorem it
    then certifies membership in D, with no look at the inverse (see
    SmoothnessReport.verdict). On the numeric path the report is marked
    inconclusive when the failing order could not be certified either way
    (estimates neither converged nor cleanly diverged, or the order exceeds
    the numeric cap).
    """
    return _smoothness(h, k)[0]


def _smoothness(h: GermLike, k) -> tuple[SmoothnessReport, list, list]:
    """smoothness_at_zero's report with the neg and pos rows it read."""
    keff, capped = _normalize_order(k)
    exact = isinstance(h, Germ)
    dn, dp = _side_rows(h, keff, "neg"), _side_rows(h, keff, "pos")
    max_order, obstruction = _match_orders(dn, dp, exact)
    conclusive = True
    if not exact and max_order < keff:
        j = max_order  # index of the failing order j+1
        sn, sp = dn[j][0], dp[j][0]
        if sn == "indeterminate" or sp == "indeterminate":
            conclusive = False
        elif sn == "ok" and sp == "ok" and obstruction is not None:
            # both converged: mismatch is conclusive only when it clears
            # the combined error band comfortably
            en = dn[j][2] or 0.0
            ep = dp[j][2] or 0.0
            gap = abs(dn[j][1] - dp[j][1])
            scale = max(1.0, abs(dn[j][1]), abs(dp[j][1]))
            if gap < max(10.0 * (en + ep), 1e-3 * scale):
                conclusive = False
    _, slope, err = dp[0]  # read only once order 1 has passed
    return SmoothnessReport(
        max_order=max_order,
        obstruction=obstruction,
        is_diffeo_ck=max_order == keff and (
            not real_eq(slope, Fraction(0)) if exact
            else abs(slope) > max(1e-6, 3.0 * (err or 0.0))),
        order_checked=keff,
        capped=capped,
        conclusive=conclusive,
    ), dn, dp


def _match_orders(dn, dp, exact: bool):
    """Walk detailed per-order status/value pairs; first failure wins."""
    max_order = 0
    for j0, ((sn, vn, en), (sp, vp, ep)) in enumerate(zip(dn, dp)):
        j = j0 + 1
        if sn != "ok" or sp != "ok":
            return max_order, Obstruction(
                j,
                vn if sn == "ok" else NONEXISTENT,
                vp if sp == "ok" else NONEXISTENT,
            )
        if exact:
            equal = real_eq(vn, vp)
        else:
            band = max(3.0 * ((en or 0.0) + (ep or 0.0)),
                       1e-6 * max(1.0, abs(vn), abs(vp)))
            equal = abs(vn - vp) <= band
        if not equal:
            return max_order, Obstruction(j, vn, vp)
        max_order = j
    return max_order, None


def sandwich_smoothness(f: Jet, a, b, n: int) -> SmoothnessReport:
    """Smoothness of q = w_b o f o w_a from the jet of f alone.

    With d_j = f^(j)(0) and d_1 > 0 the two sides of q carry jets
    (d_j | b*a^j*d_j); with d_1 < 0 they carry (b*d_j | a^j*d_j). The first
    order is the two-slope matching condition (a*b = 1, resp. a = b), and
    past it each order j fails exactly when d_j does not vanish (for a != 1).
    """
    a = to_real(a)
    b = to_real(b)
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
    if real_eq(d[0], Fraction(0)):
        raise DomainError("f'(0) = 0: not a diffeomorphism jet")
    # lazy, so that no product past the first failing order is formed
    powers = (real_pow(a, Fraction(j)) for j in range(1, n + 1))
    if d[0] > 0:
        qn, qp = d, (b * aj * dj for aj, dj in zip(powers, d))
    else:
        qn, qp = (b * dj for dj in d), (aj * dj for aj, dj in zip(powers, d))
    max_order, obstruction = _match_orders(
        (("ok", v, None) for v in qn), (("ok", v, None) for v in qp), exact=True)
    return SmoothnessReport(
        max_order=max_order,
        obstruction=obstruction,
        is_diffeo_ck=(max_order == n),
        order_checked=n,
    )


# ---------------------------------------------------------------------------
# membership predicates

def in_diff(h: GermLike, k) -> bool:
    """Certified membership in D, the C^k diffeomorphism germs fixing 0.

    h is in D exactly when it is C^k at 0 with a nonzero slope: the inverse
    function theorem then makes h^-1 C^k too, so the inverse is never built.
    False means "not certified"; SmoothnessReport.verdict keeps the
    inconclusive case apart.
    """
    return smoothness_at_zero(h, k).is_diffeo_ck


def in_jdiff(h: GermLike, k) -> bool:
    """Membership in the subgroup with vanishing derivatives 2..k at 0, read
    from the jets of the membership report in D (all exist there)."""
    report, dn, dp = _smoothness(h, k)
    exact = isinstance(h, Germ)
    return report.is_diffeo_ck and all(
        real_eq(c, Fraction(0)) if exact else abs(float(c)) <= 1e-6 for _, c, _ in dn[1:] + dp[1:])


def fixed_near_zero(h: GermLike, radius) -> bool:
    """True when h is the identity on (-radius, radius) minus 0.

    Exact germs are finite power sums, so agreeing with the identity on any
    interval forces the representation to be the identity itself. Numeric
    germs are sampled geometrically inside the radius.
    """
    r = float(radius)
    if r <= 0:
        raise DomainError(f"radius must be positive, got {radius!r}")
    if isinstance(h, Germ):
        return h.is_identity()
    for side in (-1.0, 1.0):
        for j in range(1, 22):
            x = side * r * 2.0 ** -j
            if abs(h.fn(x) - x) > 1e-12 * max(1.0, abs(x)):
                return False
    return True


# ---------------------------------------------------------------------------
# structural comparison and serialization

def germ_equal(g: Germ, h: Germ) -> bool:
    """Term-list equality of exact germs; absent terms count as coefficient 0."""
    if g.orientation != h.orientation:
        return False
    for gs, hs in ((g.neg, h.neg), (g.pos, h.pos)):
        gmap = {t.exponent: t.coeff for t in gs.terms}
        hmap = {t.exponent: t.coeff for t in hs.terms}
        for e in set(gmap) | set(hmap):
            if not real_eq(gmap.get(e, Fraction(0)), hmap.get(e, Fraction(0))):
                return False
    return True


def germ_match(g: GermLike, h: GermLike) -> Tri:
    """Equality up to the active certainty: exact term lists when possible,
    sampled comparison with an inconclusive band otherwise."""
    if isinstance(g, Germ) and isinstance(h, Germ):
        return Tri.from_bool(germ_equal(g, h))
    if g.orientation != h.orientation:
        return Tri.FALSE
    gf, hf = _float_fn(g), _float_fn(h)
    worst = 0.0
    for side in (-1.0, 1.0):
        for j in range(0, 15):
            x = side * 2.0 ** -j
            gy, hy = gf(x), hf(x)
            scale = max(abs(gy), abs(hy), 1e-30)
            worst = max(worst, abs(gy - hy) / scale)
    if worst <= 1e-8:
        return Tri.TRUE
    if worst >= 1e-5:
        return Tri.FALSE
    return Tri.INDETERMINATE


def germ_to_json(g: Germ) -> dict:
    """JSON form: {"neg": [{"c": ..., "e": ...}], "pos": [...], "orientation": ...},
    with each coefficient and exponent written by realnum.real_json, which
    germ_from_json reads back."""
    if not isinstance(g, Germ):
        raise DomainError("numeric germs are in-memory only and are not serialized")
    def side(s: SideExpansion):
        return [{"c": real_json(t.coeff), "e": real_json(t.exponent)} for t in s.terms]
    return {"neg": side(g.neg), "pos": side(g.pos), "orientation": g.orientation}


def germ_from_json(d: dict) -> Germ:
    """Read germ_to_json's form. A side of more than _TERM_CAP terms, more
    than any exact composite has, is refused before any number is read."""
    try:
        sides = d["neg"], d["pos"]
        if max(len(side) for side in sides) > _TERM_CAP:
            raise ValueError(f"a side has more than {_TERM_CAP} terms")
        neg, pos = ([(to_real(t["c"]), to_real(t["e"])) for t in side] for side in sides)
        orientation = d["orientation"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed germ JSON: {exc}") from exc
    return Germ(SideExpansion(neg), SideExpansion(pos), orientation)
