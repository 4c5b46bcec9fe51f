"""Numeric gluing of interval charts on the real line.

The pipeline: a smooth plateau bump built from complementary smoothsteps, a
glue of the identity into a given transition diffeomorphism in closed form,
the join of two overlapping charts, and the collapse of a finite chain-like
atlas to a single chart with one recorded reparametrization per original
chart. Certification is by one-sided Richardson derivative estimates at the
seam points.

Every map here takes a float or a 1-D array and returns the same kind, so a
certificate or a glue evaluates its points in a few array calls. A
transition rule that only takes floats still works: NumericDiffeo loops it.

Everything here is floating point; exactness claims are therefore about
construction (snapped grid values, identity short-circuits), and smoothness
claims are certificates with stated tolerances, not proofs.

numpy is imported on the first use of ``np``, not with this module, so a
process that never glues or certifies never loads it.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Optional

from . import _numerics
from ._record import Record, setfield
from .errors import DomainError, GlueInfeasible, NotJoinable


class _LazyNumpy:
    """Stands in for numpy until its first attribute read, which imports
    numpy and rebinds this module's ``np`` to it; later reads are plain
    global lookups of the real module."""

    def __getattr__(self, name: str):
        global np
        import numpy
        np = numpy
        return getattr(numpy, name)


np = _LazyNumpy()

#: Flat per-order tolerances used when the caller does not override them.
TOL_SCHEDULE = (1e-6, 1e-5, 1e-3, 1e-2)

_IDENTITY_TOL = 1e-12
_ENDPOINT_TOL = 1e-9
#: Cells of the interior grid on which verify_ck_numeric reads the slope.
_SLOPE_GRID = 32
#: How many times glue_auto halves eps before it gives up.
_GLUE_RETRIES = 6
#: Interior points at which collapse_to_json samples each transition.
_JSON_SAMPLES = 65
#: Passes in a row from a root on which the inverse steps one float before
#: its steps double: short runs of roots, the common case, cost what they
#: cost with one-float steps, and long ones a logarithmic number of passes.
_ROOT_WALK = 4
#: Levels of the halving steps, and so of the tableau, of each seam estimate.
_CERT_LEVELS = 12
#: Ramp tables kept, one a cell count; glue_auto reaches 7 counts for one n.
_RAMP_TABLES = 16


# ---------------------------------------------------------------------------
# the map protocol: a float in gives a float out, a 1-D array an array

def _pointwise(call):
    """Let an array-in, array-out __call__ also take a float."""
    @functools.wraps(call)
    def lifted(self, x):
        xs = np.asarray(x, dtype=float)
        if xs.ndim == 0:
            return float(call(self, xs.reshape(1))[0])
        return call(self, xs)
    return lifted


def _array_rule(fn: Callable, probe: np.ndarray) -> Callable:
    """fn as a rule on 1-D arrays: a callable that rejects arrays (math.sin,
    say) or answers one with the wrong shape is looped point by point."""
    try:
        if np.shape(fn(probe)) == probe.shape:
            return fn
    except (TypeError, ValueError):
        pass
    return lambda xs: np.array([float(fn(x)) for x in xs])


@functools.cache
def _slope_offsets() -> np.ndarray:
    """The central stencil's node offsets in steps, one row per node (x + 2h,
    x + h, x - h, x - 2h); an array, built on first use."""
    return np.array([[2.0], [1.0], [-1.0], [-2.0]])


def _slope_nodes(xs: np.ndarray, lo, hi) -> tuple:
    """The nodes of the 4th-order central first-derivative stencil at xs
    inside (lo, hi), four per point, row by row, and the steps, which shrink
    near the ends of the interval; lo and hi are floats or one per point."""
    span = hi - lo
    h = np.maximum(np.minimum(np.minimum(1e-5 * span, (xs - lo) / 2.5), (hi - xs) / 2.5),
                   1e-12 * span)
    return (xs + _slope_offsets() * h).ravel(), h


def _slope_from(values: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The central first derivatives from the values at _slope_nodes."""
    f2, f1, m1, m2 = np.asarray(values, dtype=float).reshape(4, -1)
    return (-f2 + 8 * f1 - 8 * m1 + m2) / (12 * h)


def _central_slope(f: Callable, xs: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """4th-order central first derivative of the array rule f at xs inside
    (lo, hi)."""
    nodes, h = _slope_nodes(xs, lo, hi)
    return _slope_from(f(nodes), h)


# ---------------------------------------------------------------------------
# the monotone cubic

def _monotone_cubic(xs: np.ndarray, ys: np.ndarray) -> tuple:
    """Value and slope rules of the Fritsch-Butland monotone cubic through
    strictly monotone samples (Fritsch & Carlson 1980, Fritsch & Butland
    1984), computed in scipy's PchipInterpolator order so both agree to the
    bit. Strict monotonicity leaves out PCHIP's flat and sign-change cases.
    Samples whose steps overflow the float range raise DomainError."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        h = np.diff(xs)
        m = np.diff(ys) / h
        d = np.empty_like(ys)
        # interior: the weighted harmonic mean of the neighbouring secants; a
        # secant that underflows to 0 makes it 0, as PCHIP's flat case does
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        d[1:-1] = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
        # ends: the one-sided three-point slope, 0 where it turns against the secant
        h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
        ends = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        d[[0, -1]] = np.where(np.sign(ends) == np.sign(m0), ends, 0.0)
        t = (d[:-1] + d[1:] - 2 * m) / h
        coef = np.array([t / h, (m - d[:-1]) / h - t, d[:-1], ys[:-1]])
        slope_coef = coef[:-1] * np.array([[3.0], [2.0], [1.0]])
    # the samples are finite, so this covers every coefficient
    if not np.all(np.isfinite(slope_coef)):
        raise DomainError("sample steps too large: the interpolant overflows")
    return (functools.partial(_piecewise_poly, xs, coef),
            functools.partial(_piecewise_poly, xs, slope_coef))


def _piecewise_poly(xs: np.ndarray, coef: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Evaluate the cubic pieces coef (highest power first, one column per
    cell of xs) at q, extending the end pieces outside; the terms are summed
    lowest power first with a running power of s, as scipy's PPoly does."""
    i = np.searchsorted(xs[1:-1], q, side="right")  # the cell; the end cells extend
    s = q - xs[i]
    out, z = 0.0 + coef[-1][i], np.ones_like(s)
    for c in coef[-2::-1]:
        z = z * s
        out += c[i] * z
    return out


# ---------------------------------------------------------------------------
# the glue's ramps

@functools.cache
def _panel() -> tuple:
    """The offsets k/8 of a cell's 9 Simpson nodes, as fractions of its
    width, their 4-panel composite Simpson weights omega_k, and omega_k times
    1 - k/8; arrays, built on first use."""
    offsets = np.array([k / 8.0 for k in range(9)])
    weights = np.array([w / 24.0 for w in (1.0, 4.0, 2.0, 4.0, 2.0, 4.0, 2.0, 4.0, 1.0)])
    return offsets, weights, weights * (1.0 - offsets)


def _smoothstep_slope(u: np.ndarray) -> np.ndarray:
    """S'(u) of the smoothstep S(u) = q(u)/(q(u) + q(1-u)), q(u) = exp(-1/u),
    0 off (0, 1): (1/u^2 + 1/(1-u)^2) e/(1+e)^2 with e = exp(-|1/(1-u) - 1/u|),
    which is q(u)/q(1-u) or its inverse, so nothing overflows."""
    out = np.zeros(u.shape)
    mid = (u > 0.0) & (u < 1.0)
    v = u[mid]
    w = 1.0 - v
    e = np.exp(-np.abs(1.0 / w - 1.0 / v))
    out[mid] = (e / v / v + e / w / w) / ((1.0 + e) * (1.0 + e))
    return out


@functools.lru_cache(maxsize=_RAMP_TABLES)
def _ramp_table(cells: int) -> tuple:
    """The universal ramp [0, 1] in `cells` equal cells, each with its 9
    Simpson nodes u_{i,k} = (i + k/8)/cells: the weights omega_k
    S'(u_{i,k})/cells (a row a cell), and S~_i = sum_{j<i} Q_j[1] and
    J~_i = u_i S~_i - sum_{j<i} Q_j[u] at the cell starts u_i = i/cells,
    Q_j[f] = sum_k omega_k S'(u_{j,k}) f(u_{j,k})/cells. J~ is summed cell
    by cell as the integral of S, as a glued map reads it inside a cell."""
    offsets, weights, tail = _panel()
    h = 1.0 / cells
    slopes = _smoothstep_slope((np.arange(cells)[:, None] + offsets) / cells)
    S = np.concatenate(([0.0], np.cumsum(h * (slopes * weights).sum(axis=1))))
    J = np.concatenate(([0.0], np.cumsum(h * (S[:-1] + h * (slopes * tail).sum(axis=1)))))
    table = slopes * weights * h, S, J
    for a in table:  # every glue with this cell count shares them
        a.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# bumps

def _smoothstep_arr(t: np.ndarray) -> np.ndarray:
    out = (t >= 1.0).astype(float)
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    qa = np.exp(-1.0 / tm)
    qb = np.exp(-1.0 / (1.0 - tm))
    out[mid] = qa / (qa + qb)
    return out


class _Plateau:
    """Smooth plateau: 0 outside (l0, r0), exactly 1 on [l1, r1].

    Built from the complementary smoothstep s(t) = q(t)/(q(t)+q(1-t)),
    q(t) = exp(-1/t), which satisfies s(t) + s(1-t) = 1. That identity makes
    cross-fades of two plateaus sum to exactly 1, so gluing the identity to
    itself reproduces the identity with no quadrature wobble.
    """

    __slots__ = ("l0", "l1", "r1", "r0")

    def __init__(self, l0, l1, r1, r0):
        l0, l1, r1, r0 = float(l0), float(l1), float(r1), float(r0)
        if not (l0 < l1 <= r1 < r0):
            raise DomainError(
                f"plateau needs l0 < l1 <= r1 < r0, got ({l0}, {l1}, {r1}, {r0})"
            )
        self.l0, self.l1, self.r1, self.r0 = l0, l1, r1, r0

    @_pointwise
    def __call__(self, xs: np.ndarray) -> np.ndarray:
        return (_smoothstep_arr((xs - self.l0) / (self.l1 - self.l0))
                * _smoothstep_arr((self.r0 - xs) / (self.r0 - self.r1)))


def bump_plateau(l0, l1, r1, r0) -> _Plateau:
    """A C-infinity function that is 1 on [l1, r1] and 0 outside (l0, r0)."""
    return _Plateau(l0, l1, r1, r0)


# ---------------------------------------------------------------------------
# map-like objects: callable on floats and 1-D arrays, .domain, .seams

class IdentityMap(Record):
    """The identity on an open interval."""

    domain: tuple

    @property
    def seams(self) -> tuple:
        return ()

    @_pointwise
    def __call__(self, xs: np.ndarray) -> np.ndarray:
        return xs.copy()


class AffineMap(Record):
    """x -> a*x + b with a != 0; exact up to float arithmetic."""

    a: float
    b: float
    domain: tuple = (-math.inf, math.inf)

    def __init__(self, a, b, domain=(-math.inf, math.inf)):
        a = float(a)
        if a == 0.0:
            raise DomainError("affine map needs a nonzero slope")
        setfield(self, "a", a)
        setfield(self, "b", float(b))
        setfield(self, "domain", domain)

    @property
    def seams(self) -> tuple:
        return ()

    @_pointwise
    def __call__(self, xs: np.ndarray) -> np.ndarray:
        return self.a * xs + self.b

    def inverse(self) -> "AffineMap":
        lo, hi = self.domain
        img = sorted((self(lo), self(hi))) if math.isfinite(lo) and math.isfinite(hi) \
            else (-math.inf, math.inf)
        return AffineMap(1.0 / self.a, -self.b / self.a, tuple(img))


class ComposedMap(Record, eq=False):
    """outer after inner, with an explicit seam list on inner's domain."""

    outer: Callable
    inner: Callable
    seams: tuple = ()

    @property
    def domain(self) -> tuple:
        return self.inner.domain

    @_pointwise
    def __call__(self, xs: np.ndarray) -> np.ndarray:
        return self.outer(self.inner(xs))


def _piecewise(out: np.ndarray, xs: np.ndarray, masks: list, fns) -> np.ndarray:
    """np.piecewise's rule without its wrappers: out takes fns[i] of the
    points of masks[i], a later mask winning, and a function is called only
    on a non-empty mask. Points no mask holds keep out's values: zeros, or
    a copy of xs where np.piecewise's last function is the identity."""
    for mask, fn in zip(masks, fns):
        if np.count_nonzero(mask):
            out[mask] = fn(xs[mask])
    return out


# ---------------------------------------------------------------------------
# numeric diffeomorphisms

class GlueReport(Record):
    """Construction record of one glue: the fitted bump mass and residuals.

    presnap_id is the largest gap to x of p's closed form at the samples at
    and below b + eps, 0.0 by construction. presnap_g is the balance where
    lambda is fitted, |p(c2+) - p(c2)| at c2 = c - 2 eps, the right ramp's
    closed form against the middle band's, and integral_residual is that
    balance over the span c - b; both read rounding only.
    """

    eps: float
    lam: float
    integral_residual: float
    presnap_id: float
    presnap_g: float
    cells: int


class NumericDiffeo(Record, eq=False):
    """Monotone map on an open interval, carried by samples.

    When the exact rule behind the samples is known it rides along as
    `underlying` and is the evaluator (the samples then only document the
    map); otherwise the monotone piecewise-cubic interpolant of the samples,
    the Fritsch-Butland monotone cubic, is. The evaluator is chosen once,
    here. underlying must take a 1-D array of points and answer with their
    images; from_function makes such a rule of any callable. seams lists
    interior points where smoothness is merely piecewise. Samples and seams
    must be finite.

    The samples are kept as read-only float64 copies of what the caller
    passed; xs and ys read them as tuples of Python floats, built on the
    first read, which a glue or a collapse never makes.
    """

    xs: tuple
    ys: tuple
    underlying: Optional[Callable] = None
    seams: tuple = ()
    glue: Optional[GlueReport] = None

    def __init__(self, xs, ys, underlying=None, seams=(), glue=None):
        xs, ys = np.array(xs, dtype=float), np.array(ys, dtype=float)
        if len(xs) != len(ys) or len(xs) < 4:
            raise DomainError("need at least 4 samples")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise DomainError("samples must be finite")
        if not all(math.isfinite(s) for s in seams):
            raise DomainError(f"seams must be finite, got {list(seams)}")
        # on finite floats b - a <= 0 exactly when b <= a
        if (xs[1:] <= xs[:-1]).any():
            raise DomainError("x samples must strictly increase")
        up = bool(ys[1] > ys[0])
        if (ys[1:] <= ys[:-1] if up else ys[1:] >= ys[:-1]).any():
            raise DomainError("y samples must be strictly monotone")
        xs.flags.writeable = ys.flags.writeable = False
        setfield(self, "_x", xs)
        setfield(self, "_y", ys)
        setfield(self, "underlying", underlying)
        setfield(self, "seams", seams)
        setfield(self, "glue", glue)
        setfield(self, "_increasing", up)
        if underlying is None:
            rule, slope = _monotone_cubic(xs, ys)
        else:
            rule = underlying
            slope = functools.partial(_central_slope, rule, lo=float(xs[0]), hi=float(xs[-1]))
        setfield(self, "_rule", rule)
        setfield(self, "_slope", slope)

    def __getattr__(self, name: str):
        # only reads of a name not yet set arrive here: xs and ys are set on
        # their first read
        if name not in ("xs", "ys"):
            raise AttributeError(name)
        value = tuple((self._x if name == "xs" else self._y).tolist())
        setfield(self, name, value)
        return value

    @classmethod
    def from_function(cls, fn: Callable, domain, n: int = 256,
                      seams: tuple = ()) -> "NumericDiffeo":
        a, b = float(domain[0]), float(domain[1])
        if not (a < b and math.isfinite(a) and math.isfinite(b)):
            raise DomainError(f"domain must be a finite interval, got ({a}, {b})")
        xs = np.linspace(a, b, max(int(n), 4) + 1)
        rule = _array_rule(fn, xs[:2])
        return cls(xs, rule(xs), underlying=rule, seams=tuple(seams))

    @property
    def domain(self) -> tuple:
        return (float(self._x[0]), float(self._x[-1]))

    @property
    def increasing(self) -> bool:
        return self._increasing

    @_pointwise
    def __call__(self, xs: np.ndarray) -> np.ndarray:
        return np.asarray(self._rule(xs), dtype=float)

    def derivative_at(self, x: float) -> float:
        """First derivative at x; see derivative_grid."""
        return float(self.derivative_grid(np.array([float(x)]))[0])

    def derivative_grid(self, xs) -> np.ndarray:
        """First derivative at each of xs: 4th-order central stencil on the
        exact rule, interpolant derivative otherwise."""
        return np.asarray(self._slope(np.asarray(xs, dtype=float)), dtype=float)

    def inverse(self) -> "NumericDiffeo":
        """Functional inverse: sample swap plus root-finding on the forward map.

        y is clipped to the samples' range and solved in the cell [a, b] of
        the swapped samples that holds it. Where the rule puts the cell's
        ends on both sides of y, fwd(a) < y <= fwd(b), the answer is a float
        x with fwd(x) >= y whose neighbouring float toward a has fwd < y: on
        a rule monotone in floats, the first float from a toward b with
        fwd(x) >= y, so the inverse rounds one way everywhere and seam
        certificates see no ulp jitter; where fwd equals y on a run of
        floats, the steps from a root gallop, so the run costs a logarithmic
        number of passes. Elsewhere the rule and the samples disagree about
        y's cell, and the end the rule puts on y's side stands: a where
        fwd(a) >= y, else b.

        A call evaluates the rule once on the cells' ends and a seed bracket
        of every y, then once a pass on the points still live; see _illinois.
        """
        up = self.increasing
        xs, ys = (self._x, self._y) if up else (self._x[::-1], self._y[::-1])
        fwd, inner = self._rule, ys[1:-1]
        # one column per cell: its ends a and b, fwd's sample at a, the
        # secant factor of the samples and the seed's half-width, a
        # thousandth of the cell (samples past the float range overflow here)
        with np.errstate(over="ignore", invalid="ignore"):
            width = xs[1:] - xs[:-1]
            cells = np.array((xs[:-1], xs[1:], ys[:-1], width / (ys[1:] - ys[:-1]), 1e-3 * width))
        lo, hi = (0, 1) if up else (1, 0)  # the rows of the cell's smaller and larger end

        def inv(y: np.ndarray) -> np.ndarray:
            y = np.minimum(np.maximum(y, ys[0]), ys[-1])
            cell = cells[:, inner.searchsorted(y)]  # the end cells hold the clipped ends
            ya, secant, half = cell[2:]
            # the seed: the half-width on either side of the secant, clipped
            # to the cell (fmax and fmin clip a NaN from samples past the
            # float range to an end)
            with np.errstate(over="ignore", invalid="ignore"):
                x = cell[0] + (y - ya) * secant
                sa = np.fmin(np.fmax(x - half, cell[lo]), cell[hi])
                sb = np.fmin(np.fmax(x + half, cell[lo]), cell[hi])
            a, b = cell[:2]
            fa, fb, fsa, fsb = np.asarray(fwd(np.concatenate((a, b, sa, sb))),
                                          dtype=float).reshape(4, -1) - y
            # the seed replaces the cell only where both straddle y
            seed = (fa < 0.0) & (fb >= 0.0) & (fsa < 0.0) & (fsb >= 0.0)
            a, b = np.where(seed, sa, a), np.where(seed, sb, b)
            fa, fb = np.where(seed, fsa, fa), np.where(seed, fsb, fb)
            return np.array(_illinois(fwd, y.tolist(), a.tolist(), b.tolist(),
                                      fa.tolist(), fb.tolist()))

        inv_seams = tuple(sorted(float(self(s)) for s in self.seams))
        return NumericDiffeo(ys, xs, underlying=inv, seams=inv_seams)

    def is_identity(self) -> bool:
        scale = max(1.0, abs(float(self._x[0])), abs(float(self._x[-1])))
        return bool((np.abs(self._y - self._x) <= _IDENTITY_TOL * scale).all())

    def to_json(self) -> dict:
        return {"samples": np.column_stack((self._x, self._y)).tolist(),
                "seams": list(self.seams)}

    @classmethod
    def from_json(cls, d: dict) -> "NumericDiffeo":
        try:
            pts = [(float(x), float(y)) for x, y in d["samples"]]
            seams = tuple(float(s) for s in d.get("seams", ()))
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed samples JSON: {exc}") from exc
        return cls(tuple(x for x, _ in pts), tuple(y for _, y in pts), seams=seams)


def _illinois(fwd: Callable, y: list, a: list, b: list, fa: list, fb: list) -> list:
    """The answers of NumericDiffeo.inverse from the brackets [a, b] of the
    points y, with fa and fb = fwd(a) - y and fwd(b) - y, all Python floats;
    a, b, fa and fb are updated in place.

    Illinois regula falsi (Dowell & Jarratt 1971) while fwd(a) < y <= fwd(b)
    and a and b are not neighbouring floats: an end kept twice in a row has
    its residual halved, so both ends close in. Each pass walks the live
    points in Python floats and calls fwd once, on their new x only; on a
    rule that works point by point, each point's iterates are those it would
    have alone."""
    moved = [0] * len(y)  # -1 where a moved last, 1 where b did
    streak = [0] * len(y)  # passes in a row on which b was a root
    live = range(len(y))
    for _ in range(100):  # cells shrink to adjacent floats well before
        moving, xs = [], []
        for i in live:
            ai, bi, fai, fbi = a[i], b[i], fa[i], fb[i]
            mid = 0.5 * (ai + bi)
            if not (fai < 0.0 and fbi >= 0.0 and (mid - ai) * (mid - bi) < 0.0):
                continue
            x = bi - fbi * (bi - ai) / (fbi - fai)
            if not (x - ai) * (x - bi) < 0.0:
                x = mid
            if fbi == 0.0:
                # from a root b step toward a: one float on each of the
                # first _ROOT_WALK passes in a row from a root, then twice as
                # far on each further one, or to mid where that leaves
                # (a, b), so a long run of roots costs a logarithmic number
                # of passes
                streak[i] += 1
                x = math.nextafter(bi, ai)
                if streak[i] > _ROOT_WALK:
                    far = bi + (x - bi) * 2.0 ** (streak[i] - _ROOT_WALK)
                    x = far if (far - ai) * (far - bi) < 0.0 else mid
            else:
                streak[i] = 0
            moving.append(i)
            xs.append(x)
        if not moving:
            break
        for i, x, fx in zip(moving, xs, np.asarray(fwd(np.array(xs)), dtype=float).tolist()):
            fx -= y[i]
            if fx < 0.0:
                a[i], fa[i] = x, fx
                if moved[i] < 0:
                    fb[i] *= 0.5
                moved[i] = -1
            else:
                b[i], fb[i] = x, fx
                if moved[i] > 0:
                    fa[i] *= 0.5
                moved[i] = 1
        live = moving
    return [ai if fai >= 0.0 else bi for ai, bi, fai in zip(a, b, fa)]


# ---------------------------------------------------------------------------
# the glue

def glue_id_and_diff(g: NumericDiffeo, eps, n: int = 4096) -> NumericDiffeo:
    """Glue the identity into g across the interval (b, c) g lives on.

    Returns p, strictly increasing: b + the integral of gamma = F + R g' +
    lambda beta, F, R and beta plateaus equal to 1 near b, near c and in
    between, lambda fitted so p lands on g(c - eps), GlueInfeasible where
    lambda <= 0. As S(1 - u) = 1 - S(u) and R g' integrates by parts, p is
    in closed form: with u running over [0, 1] from each seam inward, J(u)
    and K(u) the integrals of S and of S'(w) d(c - eps - eps w) from 0, and
    d = g - x, p is

    - t + (lambda - 1) eps J(u) on the left ramp,
    - p(b2) + lambda (t - b2) on the middle band [b2, c2] = [b + 2 eps, c - 2 eps],
    - g(t) - S(u) d(t) - (lambda - 1) eps J(u) + K(u) on the right ramp,

    with lambda = 1 + (d(c2)(1 - S(1)) + K(1))/(c2 - b2 + 2 eps J(1)) so that
    the last two meet. S, J and K are Simpson sums on C = ceil(n eps / span)
    cells a ramp, S' from the cached _ramp_table(C), g read once at each of
    the right ramp's 8C + 1 nodes, where it must increase (DomainError if
    not). Summed from the seams, where S' vanishes to every order, they make
    p meet x and g there to every order on any grid; they are exact for
    d = 0. The samples, about n cells of width eps/C, cover the identity
    part, the ramps, the middle band and the g part, both seams nodes.

    p's rule is x itself at and below b + eps and g(x) itself at and above
    c - eps, on all of R and not just on (b, c); a join relies on that to use
    p alone on a wider interval.
    """
    _check_transition(g, "the glued transition")
    b, c = g.domain
    span = c - b
    eps = float(eps)
    if not (0.0 < eps < span / 4.0):
        raise DomainError(f"eps must lie in (0, {span / 4.0}), got {eps}")

    lo_seam, hi_seam, b2, c2 = b + eps, c - eps, b + 2 * eps, c - 2 * eps
    cells = math.ceil(max(int(n), 16) * (eps / span))
    weights, S, J = _ramp_table(cells)
    offsets, omega, tail = _panel()
    # each ramp's nodes run from its seam: the right ramp's from c - eps down
    left = np.linspace(lo_seam, b2, cells + 1)
    right = np.linspace(hi_seam, c2, cells + 1)
    # the middle band gets cells of its own only where it is at least half a
    # cell wide; elsewhere it is the node b2 alone, and c2 is no node
    middle = np.linspace(b2, c2, round((c2 - b2) * cells / eps) + 1)
    ends = np.linspace(hi_seam, c, cells + 1)
    # g at the right ramp's Simpson nodes, flat, c2 the last, and past
    # c - eps at the samples, in one call; K sums d = g - x at the nodes
    nodes = np.append(right[:-1, None] + (right[1:] - right[:-1])[:, None] * offsets[:8], c2)
    values = g(np.concatenate((nodes, ends[1:])))
    ramp = values[:nodes.size]
    if np.count_nonzero(ramp[1:] >= ramp[:-1]):
        raise DomainError("transition is not increasing on the glue's right ramp")
    d = ramp - nodes
    K = np.concatenate(([0.0], np.cumsum(
        (weights * np.lib.stride_tricks.sliding_window_view(d, 9)[::8]).sum(axis=1))))

    # p's closed forms on the middle band and the right ramp meet at c2
    lam = float(1.0 + (d[-1] * (1.0 - S[-1]) + K[-1]) / (c2 - b2 + 2.0 * eps * J[-1]))
    if lam <= 0.0:
        raise GlueInfeasible(f"no positive bump mass at eps={eps}: the transition leaves "
                             "too little room", eps=eps, mass=lam * (span - 3.0 * eps))
    p_b2 = b2 + (lam - 1.0) * eps * J[-1]

    def on_right(t, s_t, j_t, k_t, d_t):
        return t + (1.0 - s_t) * d_t - (lam - 1.0) * eps * j_t + k_t

    xs = np.concatenate((np.linspace(b, lo_seam, cells + 1)[:-1], left[:-1], middle,
                         right[-2:0:-1], ends))
    ys = np.concatenate((xs[:cells], left[:-1] + (lam - 1.0) * eps * J[:-1],
                         p_b2 + lam * (middle - b2),
                         on_right(right[-2:0:-1], S[-2:0:-1], J[-2:0:-1], K[-2:0:-1],
                                  d[-9:0:-8]),
                         ramp[:1], values[nodes.size:]))
    presnap_g = abs(float(on_right(c2, S[-1], J[-1], K[-1], d[-1]) - (p_b2 + lam * (c2 - b2))))
    report = GlueReport(eps=eps, lam=lam, integral_residual=presnap_g / span,
                        presnap_id=0.0, presnap_g=presnap_g, cells=len(xs) - 1)

    def between(t: np.ndarray) -> np.ndarray:
        """p on (lo_seam, hi_seam): on a ramp, S~, J~ and K at t are the
        table's at the end of t's cell nearer the seam plus 9-node sums from
        there; the middle band reads no S' and no g; the right ramp wins
        where c2 < b2."""
        out = p_b2 + lam * (t - b2)
        for sign, ramp_nodes, on in ((1.0, left, t < b2), (-1.0, right, t > c2)):
            if not np.count_nonzero(on):
                continue
            x = t[on]
            i = (sign * ramp_nodes).searchsorted(sign * x, side="right") - 1
            start = ramp_nodes[i]
            delta = np.abs(x - start) / eps
            slopes = _smoothstep_slope((i / cells)[:, None] + delta[:, None] * offsets)
            j_t = J[i] + delta * (S[i] + delta * (slopes * tail).sum(axis=1))
            if sign > 0.0:
                out[on] = x + (lam - 1.0) * eps * j_t
                continue
            at = start[:, None] + (x - start)[:, None] * offsets
            at[:, -1] = x
            d_at = np.asarray(g(at.ravel()), dtype=float).reshape(-1, 9) - at
            slopes *= omega
            out[on] = on_right(x, S[i] + delta * slopes.sum(axis=1), j_t,
                               K[i] + delta * (slopes * d_at).sum(axis=1), d_at[:, -1])
        return out

    def p_call(x: np.ndarray) -> np.ndarray:
        return _piecewise(x.copy(), x, [x >= hi_seam, (x > lo_seam) & (x < hi_seam)],
                          [g, between])

    return NumericDiffeo(xs, ys, underlying=p_call,
                         seams=(lo_seam, hi_seam), glue=report)


def glue_auto(g: NumericDiffeo, n: int = 4096) -> NumericDiffeo:
    """Glue with automatic eps: start at an eighth of the span, halve on
    infeasibility, give up after _GLUE_RETRIES halvings."""
    b, c = g.domain
    eps = (c - b) / 8.0
    last = None
    for _ in range(_GLUE_RETRIES + 1):
        try:
            return glue_id_and_diff(g, eps, n=n)
        except GlueInfeasible as exc:
            last = exc
            eps /= 2.0
    raise last


# ---------------------------------------------------------------------------
# charts and chains

class IntervalChart(Record):
    """A chart with an abstract domain and an open bounded image interval."""

    label: str
    image: tuple

    def __init__(self, label: str, image):
        a, c = float(image[0]), float(image[1])
        if not (math.isfinite(a) and math.isfinite(c) and a < c):
            raise DomainError(f"image must be a bounded interval, got ({a}, {c})")
        setfield(self, "label", label)
        setfield(self, "image", (a, c))


class ChainAtlas(Record):
    """Finite chain of interval charts with explicit overlap transitions.

    transitions[i] is the change of coordinates between charts i and i+1 on
    the shared numeric overlap (a_{i+1}, b_i): an increasing self-map of that
    interval fixing its ends. Validation covers the combinatorial conditions:
    consecutive images overlap, non-consecutive images are disjoint
    (endpoints interleave a_i < b_{i-1} < a_{i+1} < b_i), and each transition
    lives exactly on its overlap.
    """

    charts: tuple
    transitions: tuple

    def __init__(self, charts, transitions):
        charts = tuple(charts)
        transitions = tuple(transitions)
        m = len(charts)
        if m < 2:
            raise NotJoinable("a chain needs at least two charts")
        if len(transitions) != m - 1:
            raise NotJoinable(f"{m} charts need {m - 1} transitions")
        imgs = [ch.image for ch in charts]
        for i in range(m - 1):
            a2, b2 = imgs[i + 1]
            a1, b1 = imgs[i]
            if not (a1 < a2 < b1 < b2):
                raise NotJoinable(
                    f"images of charts {i} and {i + 1} do not interleave: "
                    f"({a1}, {b1}) then ({a2}, {b2})"
                )
        for i in range(1, m - 1):
            if not (imgs[i - 1][1] < imgs[i + 1][0]):
                raise NotJoinable(
                    f"charts {i - 1} and {i + 1} overlap; triple overlaps "
                    "are not allowed"
                )
        for i, g in enumerate(transitions):
            _check_transition(g, f"transition {i}", (imgs[i + 1][0], imgs[i][1]))
        setfield(self, "charts", charts)
        setfield(self, "transitions", transitions)


def _check_transition(g, name: str, overlap: Optional[tuple] = None) -> None:
    """NotJoinable unless g is an increasing numeric self-map of its domain
    fixing the domain's ends, with the domain on the overlap when one is
    given. The ends are measured against the domain in every call, so a map
    the atlas accepts passes the same test again in the glue."""
    if not isinstance(g, NumericDiffeo):
        raise NotJoinable(f"{name} is not a numeric map")
    lo, hi = g.domain
    if overlap is not None:
        scale = max(1.0, abs(overlap[0]), abs(overlap[1]))
        if abs(lo - overlap[0]) > _ENDPOINT_TOL * scale \
                or abs(hi - overlap[1]) > _ENDPOINT_TOL * scale:
            raise NotJoinable(f"{name} lives on {g.domain}, expected the overlap {overlap}")
    if not g.increasing:
        raise NotJoinable(f"{name} must preserve orientation")
    scale = max(1.0, abs(lo), abs(hi))
    first, last = float(g._y[0]), float(g._y[-1])
    if abs(first - lo) > _ENDPOINT_TOL * scale or abs(last - hi) > _ENDPOINT_TOL * scale:
        raise NotJoinable(f"{name} does not fix the overlap ends")


# ---------------------------------------------------------------------------
# certification

class SmoothCert(Record):
    """Certificate from verify_ck_numeric.

    residuals[j-1] is the worst scaled mismatch of one-sided order-j
    derivative estimates across the seams (0.0 when there are none);
    min_slope the smallest first-derivative estimate seen anywhere.
    """

    order: int
    residuals: tuple
    passed: bool
    grid: tuple
    min_slope: float
    tolerances: tuple

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "residuals": list(self.residuals),
            "passed": bool(self.passed),
            "min_slope": self.min_slope,
            "tolerances": list(self.tolerances),
            "seams": [x for x in self.grid],
        }


def _tolerances(k: int, tol) -> tuple:
    """Per-order tolerances of an order-k certificate from None (the default
    schedule), one flat value or one value per order; DomainError unless each
    is finite and positive."""
    cap = _numerics.ORDER_CAP
    if not isinstance(k, int) or not (1 <= k <= cap):
        raise DomainError(f"numeric certification is capped at order {cap}, got {k!r}")
    if tol is None:
        tols = TOL_SCHEDULE[:k]
    elif isinstance(tol, (int, float)):
        tols = tuple(float(tol) for _ in range(k))
    else:
        tols = tuple(float(t) for t in tol)
        if len(tols) != k:
            raise DomainError(f"need {k} tolerances, got {len(tols)}")
    if not all(0.0 < t < math.inf for t in tols):  # NaN fails both tests
        raise DomainError(f"tolerances must be finite and positive, got {tols}")
    return tols


@functools.cache
def _halvings() -> np.ndarray:
    """2.0 ** level for the tableau levels, the divisors of
    _numerics.halving; an array, built on first use."""
    return np.array([2.0 ** level for level in range(_CERT_LEVELS)])


@functools.cache
def _weight_table() -> np.ndarray:
    """_numerics' stencil weights, row j padded with zeros to ORDER_CAP + 1;
    an array, built on first use."""
    cap = _numerics.ORDER_CAP
    return np.array([w + (0,) * (cap - j) for j, w in enumerate(_numerics._WEIGHTS)],
                    dtype=float)


def _tableau(raw: np.ndarray) -> tuple:
    """(values, errs) of _numerics.extrapolate on every row of raw, bit for
    bit, from one tableau built column by column, C_m = (2^m C_{m-1}[1:] -
    C_{m-1}[:-1]) / (2^m - 1). An entry's error is the larger of its two
    disagreements, NaN read as inf: where the first is NaN the second is NaN
    or inf, so extrapolate never picks it either. A row keeps its first least
    finite error in extrapolate's order, else raw[:, 0]."""
    rows, levels = raw.shape
    # tab[m, l] is column m at level l, for every row; NaN above the diagonal
    tab = np.full((levels, levels, rows), np.nan)
    tab[0] = raw.T
    with np.errstate(over="ignore", invalid="ignore"):
        for m, fac, div in zip(range(1, levels), _numerics._LEVEL_FAC, _numerics._LEVEL_DIV):
            col = tab[m, m:]
            np.multiply(fac, tab[m - 1, m:], out=col)
            np.subtract(col, tab[m - 1, m - 1:-1], out=col)
            np.divide(col, div, out=col)
        entries = tab[1:, 1:]
        errs = np.fmax(abs(entries - tab[:-1, 1:]), abs(entries - tab[:-1, :-1]))
    # a row's entries level by level, then by column
    errs = np.fmin(errs, np.inf).transpose(2, 1, 0).reshape(rows, -1)
    at, best = np.arange(rows), errs.argmin(axis=1)
    err = errs[at, best]
    value = entries.transpose(2, 1, 0).reshape(rows, -1)[at, best]
    return np.where(err < np.inf, value, raw[:, 0]), err


def _certify(maps, k: int, tols: tuple) -> list:
    """verify_ck_numeric's certificate of each of maps, in one pass: the
    nodes of every map in one broadcast, each map called once on its own
    nodes in turn, its values, grid slope and step powers checked before the
    next is called (so the error raised is the first map's first), then the
    quotients of every seam in one array pass and one _tableau.
    """
    doms = [m.domain for m in maps]
    seams = [sorted({s for s in getattr(m, "seams", ()) if lo < s < hi})
             for m, (lo, hi) in zip(maps, doms)]
    counts = [len(ss) for ss in seams]
    width = max(counts)
    # a row a map: lo, its seams, then hi to the common width
    bounds = np.array([[lo, *ss] + [hi] * (width + 1 - len(ss))
                       for (lo, hi), ss in zip(doms, seams)], dtype=float)
    lo, hi = bounds[:, :1], bounds[:, -1:]
    live = np.arange(width) < np.array(counts)[:, None]

    # a node past the float range is inf or NaN, silently, as a span is in
    # Python floats; its map's values report it after every earlier map's
    with np.errstate(over="ignore", invalid="ignore"):
        # grid slopes, nudged off any seam; the padding, +inf, is near none
        span = hi - lo
        grid = lo + span * np.arange(1, _SLOPE_GRID) / _SLOPE_GRID
        dist = np.abs(grid[:, :, None] - np.where(live, bounds[:, 1:-1], np.inf)[:, None, :])
        near = dist.min(axis=2, initial=np.inf) < span / (4 * _SLOPE_GRID)
        grid = np.where(near, grid + span / (2 * _SLOPE_GRID), grid)
        inside = (lo < grid) & (grid < hi)
        points = inside.sum(axis=1)
        slope_nodes, h = _slope_nodes(grid[inside], lo.repeat(points), hi.repeat(points))
        slope_nodes = slope_nodes.reshape(4, -1)

        seam_nodes, entries = np.empty(0), []
        if width:
            # one-sided estimates of orders 1..k on both sides of every seam:
            # entry e is (seam, order j, side) in that order, the left side
            # first, with the steps of _numerics.halving(0.8 * gap / j)
            s = bounds[:, 1:-1][live]
            gaps = (s - bounds[:, :-2][live], bounds[:, 2:][live] - s)
            h0 = 0.8 * np.array(gaps).T[:, None, :] / np.arange(1, k + 1)[:, None]
            steps = h0.reshape(-1, 1) / _halvings()
            e = np.arange(len(steps))
            s, j, sign = s.repeat(2 * k), e // 2 % k + 1, e % 2 * 2.0 - 1.0
            # the nodes s + (sign * i) * h of every entry's stencil rows, in
            # the operations of _numerics.offsets; rows of order j < k drop i > j
            i = np.arange(k + 1)
            stencils = s[:, None, None] + (sign[:, None] * i)[:, None, :] * steps[:, :, None]
            used = np.empty(stencils.shape, dtype=bool)
            used[:] = (i <= j[:, None])[:, None, :]
            seam_nodes = stencils[used]
            entries = list(zip(sign.tolist(), j.tolist(), steps.tolist()))
    per_seam = _CERT_LEVELS * k * (k + 3)  # the stencil nodes of one seam

    mins, dens, seam_values, at, at_seam = [], [], [], 0, 0
    for map_obj, n, count in zip(maps, points.tolist(), counts):
        nodes = np.concatenate((*slope_nodes[:, at:at + n],
                                seam_nodes[at_seam * per_seam:(at_seam + count) * per_seam]))
        # a map past the float range overflows here, and is reported as such
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.asarray(map_obj(nodes), dtype=float) if nodes.size else nodes
        if not np.isfinite(values).all():
            raise DomainError("map values too large: the map overflows")
        min_slope = math.inf
        if n:
            with np.errstate(over="ignore", invalid="ignore"):
                min_slope = float(_slope_from(values[:4 * n], h[at:at + n]).min())
            if not math.isfinite(min_slope):
                raise DomainError("map values too large: the slope estimate overflows")
        # one_sided's denominators (sign * h) ** j, in Python floats; a step
        # that underflows to 0 or overflows leaves no quotient
        try:
            powers = [[(sg * step) ** jj for step in row]
                      for sg, jj, row in entries[2 * k * at_seam:2 * k * (at_seam + count)]]
        except OverflowError:
            raise DomainError("seam steps too large: a difference quotient overflows") from None
        if any(0.0 in row for row in powers):
            raise DomainError("seams too close: a difference quotient's step underflows")
        dens += powers
        mins.append(min_slope)
        seam_values.append(values[4 * n:])
        at, at_seam = at + n, at_seam + count

    estimates = []
    if width:
        # each quotient is 0.0 + w_0 v_0 + ... + w_j v_j, left to right, over
        # its denominator: one_sided's sum. The padded terms add 0.0 to a sum
        # that is never -0.0, so they change no bit, and numpy's overflow
        # and invalid results are what Python's floats give
        rows = np.zeros(stencils.shape)
        rows[used] = np.concatenate(seam_values)
        weights = _weight_table()[j]
        with np.errstate(over="ignore", invalid="ignore"):
            acc = 0.0 + weights[:, None, 0] * rows[:, :, 0]
            for col in range(1, k + 1):
                acc = acc + weights[:, None, col] * rows[:, :, col]
            raw = acc / np.array(dens)
        estimates = _tableau(raw)[0].tolist()

    certs, at = [], 0
    for ss, min_slope in zip(seams, mins):
        residuals = [0.0] * k
        own = estimates[at:at + 2 * k * len(ss)]
        for n, (left, right) in enumerate(zip(own[::2], own[1::2])):
            j = n % k + 1
            scale = max(1.0, abs(left), abs(right))
            residuals[j - 1] = max(residuals[j - 1], abs(left - right) / scale)
            if j == 1:
                min_slope = min(min_slope, left, right)
        passed = all(r <= t for r, t in zip(residuals, tols)) and min_slope > -tols[0]
        certs.append(SmoothCert(order=k, residuals=tuple(residuals), passed=passed,
                                grid=tuple(ss), tolerances=tols,
                                min_slope=0.0 if min_slope is math.inf else float(min_slope)))
        at += len(own)
    return certs


def verify_ck_numeric(map_obj, k: int, tol=None) -> SmoothCert:
    """Numeric order-k certificate for a monotone map with seams.

    At every interior seam the one-sided derivative estimates of orders 1..k
    must agree within the per-order tolerance (relative to max(1, |value|)),
    and no first-derivative estimate anywhere (seams or the dyadic interior
    grid) may be significantly negative: slope > -tol_1, which deliberately
    admits maps with a vanishing one-sided slope at a seam. A seam listed
    twice is read once. Failures are reported, never raised; a seam step
    whose power in a quotient underflows to 0 (seams a few floats apart) or
    overflows, values that overflow (a node past the float range reaches the
    map as inf or NaN, without a warning), or values so large that the grid
    slope overflows, raise DomainError.

    The map is called once: on the four central-stencil nodes of each of the
    31 interior grid points and on the one-sided stencil nodes of every
    order at both sides of every seam, together. The estimates are
    _numerics.one_sided's: the quotients of every seam, order and side are
    formed in one array pass, in one_sided's operations and order, and one
    array tableau gives each row's _numerics.extrapolate value. This is the
    one-map case of the pass collapse_chain and join_charts run on several.
    """
    return _certify([map_obj], k, _tolerances(k, tol))[0]


# ---------------------------------------------------------------------------
# joining

class JoinResult(Record, eq=False):
    """A join of two charts: the covering chart and both reparametrizations.

    trans_u is the new chart read against the left chart's coordinates
    (identity off the overlap's right part), trans_v against the right
    chart's (identity off the overlap's left part).
    """

    chart: IntervalChart
    trans_u: object
    trans_v: object
    cert_u: SmoothCert
    cert_v: SmoothCert
    glue: Optional[GlueReport]

    @property
    def passed(self) -> bool:
        return self.cert_u.passed and self.cert_v.passed


def _join_maps(u_image: tuple, v_image: tuple, g: NumericDiffeo, n: int = 4096) -> tuple:
    """P, Q and the glue report (None for an identity g) of the join of images
    (a, c) and (b, d) along g; the caller checks the inputs and certifies.

    P is the glue p read on (a, c). Q is p o g^-1 below y2 = g(c - eps) and
    the identity from y2 on: p is g from c - eps on, so the two pieces meet
    at y2 by construction, within rounding. Nothing here samples them; the
    caller's certificate reads Q's derivatives on both sides of y2."""
    a, c = u_image
    b, d = v_image
    if g.is_identity():
        return IdentityMap((a, c)), IdentityMap((b, d)), None

    p = glue_auto(g, n=n)
    eps = p.glue.eps
    # p o g^-1 is not bitwise x past y2, so Q cuts to the identity there;
    # a NaN fails y < y2 and is copied, as the identity piece would
    P = ComposedMap(p, IdentityMap((a, c)), seams=p.seams)
    y1 = float(g(b + eps))
    y2 = float(g(c - eps))
    q_mid = ComposedMap(p, g.inverse())

    def cut(y):
        return _piecewise(y.copy(), y, [y < y2], [q_mid])
    Q = ComposedMap(cut, IdentityMap((b, d)), seams=tuple(sorted({y1, y2})))
    return P, Q, p.glue


def join_charts(U: IntervalChart, V: IntervalChart, g: NumericDiffeo,
                k: int = 2, tol=None) -> JoinResult:
    """Join two overlapping charts along the transition g.

    Interleaving a < b < c < d of the images is required; g must be an
    increasing self-map of the overlap (b, c) fixing its ends. The result
    covers (a, d) and agrees with U off the right part of the overlap and
    with V off the left part; both reparametrizations carry seam lists and
    order-k certificates, from one certificate pass over the two.
    """
    ChainAtlas((U, V), (g,))  # the interleaving and g, checked as a two-chart chain
    tols = _tolerances(k, tol)

    P, Q, glue = _join_maps(U.image, V.image, g)
    return JoinResult(IntervalChart(f"{U.label}|{V.label}", (U.image[0], V.image[1])), P, Q,
                      *_certify([P, Q], k, tols), glue)


# ---------------------------------------------------------------------------
# chain collapse

class CollapseResult(Record, eq=False):
    """Outcome of collapsing a chain: one chart, one transition per input
    chart (r_i reads the collapsed chart against chart i's coordinates), an
    aggregated certificate plus the per-chart ones, and the join order."""

    chart: IntervalChart
    transitions: tuple
    cert: SmoothCert
    certs: tuple
    steps: tuple

    @property
    def passed(self) -> bool:
        return self.cert.passed


def _probe_identity(r, interval, label: str) -> None:
    """NotJoinable unless r is exactly x at five points inside interval; a
    transition probed here is an identity piece there by construction."""
    ts = np.linspace(interval[0], interval[1], 7)[1:-1]
    if not np.array_equal(r(ts), ts):
        raise NotJoinable(
            f"stabilization violated at {label}: expected the already-"
            f"joined chart to be the identity on the overlap"
        )


def collapse_chain(atlas: ChainAtlas, k: int = 2, n: int = 4096,
                   tol=None) -> CollapseResult:
    """Collapse a chain-like atlas to a single chart, middle-out.

    Join i joins charts i and i+1. With mid = (m - 1) // 2 the joins run
    mid, mid + 1, mid - 1, mid + 2, mid - 2, ... (skipping indices outside
    0..m-2): the middle pair first, then one chart on the right and one on
    the left in turn. Each join adds one chart to the block joined so far:
    the block supplies its image, the block's end chart has its transition
    composed with the join's map, and the new chart's transition starts as
    the join's other map. Already-joined regions are never touched again
    (the strict no-triple-overlap condition keeps each join's modification
    strip clear of earlier charts), so the end chart is exactly the identity
    on the next overlap, which a probe checks. The atlas has checked the
    overlaps and transitions; the final r_i are certified at the end, in one
    certificate pass that calls each of them once.
    """
    tols = _tolerances(k, tol)
    transitions = atlas.transitions
    imgs = [ch.image for ch in atlas.charts]
    m = len(imgs)
    mid = (m - 1) // 2
    # join mid + d sorts as 2d - 1 and join mid - d as 2d
    steps = tuple((i, i + 1) for i in sorted(range(m - 1),
                                             key=lambda i: 2 * abs(i - mid) - (i > mid)))

    r, block = {}, imgs[mid]
    for i, j in steps:
        right = i >= mid  # chart i is in the block and chart j is new, or the reverse
        old, new = (i, j) if right else (j, i)
        if old in r:
            _probe_identity(r[old], (imgs[j][0], imgs[i][1]), f"charts {i}/{j}")
        try:
            P, Q, _ = _join_maps(block if right else imgs[i], imgs[j] if right else block,
                                 transitions[i], n)
        except (GlueInfeasible, DomainError) as exc:
            exc.args = (f"joining charts {i} and {j}: {exc.args[0]}",) + exc.args[1:]
            raise
        outer, r[new] = (P, Q) if right else (Q, P)
        if old in r:
            seams = tuple(sorted(set(r[old].seams) | set(outer.seams)))
            outer = ComposedMap(outer, r[old], seams=seams)
        r[old] = outer
        block = (block[0], imgs[j][1]) if right else (imgs[i][0], block[1])

    certs = tuple(_certify([r[i] for i in range(m)], k, tols))
    agg = SmoothCert(
        order=k,
        residuals=tuple(max(c.residuals[j] for c in certs) for j in range(k)),
        passed=all(c.passed for c in certs),
        grid=tuple(x for c in certs for x in c.grid),
        min_slope=min(c.min_slope for c in certs),
        tolerances=tols,
    )
    chart = IntervalChart("collapsed", (imgs[0][0], imgs[-1][1]))
    return CollapseResult(chart, tuple(r[i] for i in range(m)), agg, certs, steps)


# ---------------------------------------------------------------------------
# JSON plumbing

def _map_from_json(spec):
    if spec is None or spec == "identity":
        return "identity" if spec == "identity" else None
    if isinstance(spec, dict) and "affine" in spec:
        ab = spec["affine"]  # [a, b]: exactly two finite numbers
        if not (isinstance(ab, list) and len(ab) == 2 and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
                for v in ab)):
            raise DomainError(f"unrecognized map spec: {spec!r}")
        return AffineMap(ab[0], ab[1])
    if isinstance(spec, dict) and "samples" in spec:
        return NumericDiffeo.from_json(spec)
    raise DomainError(f"unrecognized map spec: {spec!r}")


def _derive_transition(overlap: tuple, u, v) -> NumericDiffeo:
    """The transition v o u^-1 on overlap, sampled from the charts' maps."""
    if u is None or v is None:
        raise DomainError(
            "cannot derive a transition without concrete chart maps; "
            "provide it explicitly"
        )
    u_inv = IdentityMap(overlap) if u == "identity" else u.inverse()
    fn = u_inv if v == "identity" else ComposedMap(v, u_inv)
    return NumericDiffeo.from_function(fn, overlap, n=128)


def chain_from_json(d: dict) -> tuple[ChainAtlas, int, Optional[float]]:
    """Parse {"charts": [...], "transitions": [...], "k": int, "tol": float?}.

    tol is an optional flat per-order tolerance; when absent the default
    schedule applies. Sampled transitions are only piecewise-cubic smooth, so
    high orders at tight tolerances genuinely fail on them; the tol knob is
    how callers state what their data density supports.
    """
    try:
        chart_specs = list(d["charts"])
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed join spec: {exc}") from exc
    charts, maps = [], []
    for i, spec in enumerate(chart_specs):
        try:
            image = (float(spec["image"][0]), float(spec["image"][1]))
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise DomainError(f"malformed chart {i}: {exc}") from exc
        maps.append(_map_from_json(spec.get("map")))
        charts.append(IntervalChart(str(spec.get("label", f"chart{i}")), image))
    try:
        transition_specs = list(d.get("transitions", ()))
    except TypeError as exc:
        raise DomainError(f"malformed join spec: {exc}") from exc
    given = {}
    for t in transition_specs:
        try:
            i, j = int(t["between"][0]), int(t["between"][1])
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise DomainError(f"malformed transition entry: {exc}") from exc
        if j != i + 1:
            raise DomainError(f"transitions must link consecutive charts, got {i},{j}")
        given[i] = NumericDiffeo.from_json(t)
    transitions = []
    for i in range(len(charts) - 1):
        if i in given:
            transitions.append(given[i])
        else:
            overlap = (charts[i + 1].image[0], charts[i].image[1])
            transitions.append(_derive_transition(overlap, maps[i], maps[i + 1]))
    try:
        k = int(d.get("k", 2))
        tol = d.get("tol")
        tol = None if tol is None else float(tol)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed join spec: {exc}") from exc
    if tol is not None and not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be finite and positive, got {tol}")
    return ChainAtlas(tuple(charts), tuple(transitions)), k, tol


def _sample_map(r, domain) -> list:
    lo, hi = domain
    xs = np.linspace(lo, hi, _JSON_SAMPLES + 2)[1:-1]
    return np.column_stack((xs, r(xs))).tolist()


def collapse_to_json(result: CollapseResult, atlas: ChainAtlas) -> dict:
    return {
        "chart": {"label": result.chart.label,
                  "image": [result.chart.image[0], result.chart.image[1]]},
        "transitions": [
            {"chart": i, "samples": _sample_map(r, atlas.charts[i].image)}
            for i, r in enumerate(result.transitions)
        ],
        "cert": result.cert.to_json(),
    }
