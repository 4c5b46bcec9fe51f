"""Numeric gluing of interval charts on the real line.

The pipeline: a smooth plateau bump built from complementary smoothsteps, an
explicit glue of the identity into a given transition diffeomorphism via
quadrature of gamma = alpha + lambda*beta, the join of two overlapping
charts, and the collapse of a finite chain-like atlas to a single chart with
one recorded reparametrization per original chart. Certification is by
one-sided Richardson derivative estimates at the seam points.

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
from dataclasses import dataclass
from typing import Callable, Optional

from . import _numerics
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


def _central_slope(f: Callable, xs: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """4th-order central first derivative of the array rule f at xs inside
    (lo, hi); the step shrinks near the ends of the interval."""
    span = hi - lo
    h = np.maximum(np.minimum(np.minimum(1e-5 * span, (xs - lo) / 2.5), (hi - xs) / 2.5),
                   1e-12 * span)
    nodes = np.concatenate((xs + 2 * h, xs + h, xs - h, xs - 2 * h))
    f2, f1, m1, m2 = np.asarray(f(nodes), dtype=float).reshape(4, -1)
    return (-f2 + 8 * f1 - 8 * m1 + m2) / (12 * h)


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
# quadrature

_PANEL_OFFSETS = tuple(i / 8.0 for i in range(9))
_PANEL_WEIGHTS = tuple(w / 24.0 for w in (1.0, 4.0, 2.0, 4.0, 2.0, 4.0, 2.0, 4.0, 1.0))


def _panel_integrals(f: Callable, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Fixed 4-panel composite Simpson of the array rule f on each
    [left[i], right[i]]."""
    widths = right - left
    nodes = (left[:, None] + widths[:, None] * np.array(_PANEL_OFFSETS)).ravel()
    return (f(nodes).reshape(-1, 9) @ np.array(_PANEL_WEIGHTS)) * widths


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

    #: The call under its older array-only name.
    arr = __call__


def bump_plateau(l0, l1, r1, r0) -> _Plateau:
    """A C-infinity function that is 1 on [l1, r1] and 0 outside (l0, r0)."""
    return _Plateau(l0, l1, r1, r0)


# ---------------------------------------------------------------------------
# map-like objects: callable on floats and 1-D arrays, .domain, .seams

@dataclass(frozen=True)
class IdentityMap:
    """The identity on an open interval."""

    domain: tuple

    @property
    def seams(self) -> tuple:
        return ()

    @_pointwise
    def __call__(self, xs: np.ndarray) -> np.ndarray:
        return xs.copy()


@dataclass(frozen=True)
class AffineMap:
    """x -> a*x + b with a != 0; exact up to float arithmetic."""

    a: float
    b: float
    domain: tuple = (-math.inf, math.inf)

    def __post_init__(self):
        if float(self.a) == 0.0:
            raise DomainError("affine map needs a nonzero slope")
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))

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


@dataclass(frozen=True, eq=False)
class ComposedMap:
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


@dataclass(frozen=True, eq=False)
class PiecewiseMonotone:
    """Strictly increasing map assembled from pieces on a breakpoint grid.

    pieces[i] covers [breakpoints[i], breakpoints[i+1]]; continuity at the
    interior breakpoints is validated at construction, strict monotonicity is
    spot-checked on a sample grid. The seams are the interior breakpoints
    plus any extras the builder knows about (e.g. images of seams of an
    ingredient map).
    """

    breakpoints: tuple
    pieces: tuple
    extra_seams: tuple = ()

    def __post_init__(self):
        bps = tuple(float(b) for b in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        if len(bps) < 2 or len(self.pieces) != len(bps) - 1:
            raise DomainError("need n+1 breakpoints for n pieces")
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise DomainError("breakpoints must strictly increase")
        scale = max(1.0, abs(bps[0]), abs(bps[-1]))
        for i in range(1, len(bps) - 1):
            left = self.pieces[i - 1](bps[i])
            right = self.pieces[i](bps[i])
            if abs(left - right) > 1e-8 * scale:
                raise DomainError(
                    f"pieces disagree at breakpoint {bps[i]}: {left} vs {right}"
                )
        prev = None
        for i, piece in enumerate(self.pieces):
            for val in piece(np.linspace(bps[i], bps[i + 1], 9)).tolist():
                if prev is not None and val <= prev - 1e-12 * scale:
                    raise DomainError("assembled map is not increasing")
                prev = max(val, prev) if prev is not None else val

    @property
    def domain(self) -> tuple:
        return (self.breakpoints[0], self.breakpoints[-1])

    @property
    def seams(self) -> tuple:
        interior = self.breakpoints[1:-1]
        return tuple(sorted(set(interior) | set(self.extra_seams)))

    @_pointwise
    def __call__(self, xs: np.ndarray) -> np.ndarray:
        which = np.searchsorted(self.breakpoints, xs, side="right") - 1
        which = np.clip(which, 0, len(self.pieces) - 1)
        return np.piecewise(xs, [which == i for i in range(len(self.pieces))], self.pieces)


# ---------------------------------------------------------------------------
# numeric diffeomorphisms

@dataclass(frozen=True)
class GlueReport:
    """Construction record of one glue: the fitted bump mass and residuals."""

    eps: float
    lam: float
    integral_residual: float
    presnap_id: float
    presnap_g: float
    cells: int

    def to_json(self) -> dict:
        return {
            "eps": self.eps, "lambda": self.lam,
            "integral_residual": self.integral_residual,
            "presnap_id": self.presnap_id, "presnap_g": self.presnap_g,
            "cells": self.cells,
        }


@dataclass(frozen=True, eq=False)
class NumericDiffeo:
    """Monotone map on an open interval, carried by samples.

    When the exact rule behind the samples is known it rides along as
    `underlying` and is the evaluator (the samples then only document the
    map); otherwise the monotone piecewise-cubic interpolant of the samples,
    the Fritsch-Butland monotone cubic, is. The evaluator is chosen once,
    here. seams lists interior points where smoothness is merely piecewise.
    Samples and seams must be finite.
    """

    xs: tuple
    ys: tuple
    underlying: Optional[Callable] = None
    seams: tuple = ()
    glue: Optional[GlueReport] = None

    def __post_init__(self):
        xs = np.array(self.xs, dtype=float)  # the interpolant keeps it: a copy
        ys = np.asarray(self.ys, dtype=float)
        if len(xs) != len(ys) or len(xs) < 4:
            raise DomainError("need at least 4 samples")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise DomainError("samples must be finite")
        if not all(math.isfinite(s) for s in self.seams):
            raise DomainError(f"seams must be finite, got {list(self.seams)}")
        if np.any(np.diff(xs) <= 0.0):
            raise DomainError("x samples must strictly increase")
        up = bool(ys[1] > ys[0])
        if np.any(np.diff(ys) <= 0.0 if up else np.diff(ys) >= 0.0):
            raise DomainError("y samples must be strictly monotone")
        object.__setattr__(self, "xs", tuple(xs.tolist()))
        object.__setattr__(self, "ys", tuple(ys.tolist()))
        object.__setattr__(self, "_increasing", up)
        if self.underlying is None:
            rule, slope = _monotone_cubic(xs, ys)
        else:
            rule = _array_rule(self.underlying, xs[:2])
            slope = functools.partial(_central_slope, rule, lo=self.xs[0], hi=self.xs[-1])
        object.__setattr__(self, "_rule", rule)
        object.__setattr__(self, "_slope", slope)

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
        return (self.xs[0], self.xs[-1])

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
        """Functional inverse: sample swap plus root-finding on the forward map."""
        xs, ys = np.array(self.xs), np.array(self.ys)
        if not self.increasing:
            xs, ys = xs[::-1], ys[::-1]
        fwd, last = self._rule, len(ys) - 1

        def inv(y: np.ndarray) -> np.ndarray:
            y = np.clip(y, ys[0], ys[-1])
            i = np.clip(np.searchsorted(ys, y), 1, last)
            a, b = xs[i - 1], xs[i]
            fa, fb = np.asarray(fwd(np.concatenate((a, b))), dtype=float).reshape(2, -1) - y
            # Illinois regula falsi while fwd(a) < y <= fwd(b): an end kept twice
            # in a row has its residual halved, so both ends close in. The
            # answer is the first float from a toward b with fwd(x) >= y, so
            # the inverse rounds one way everywhere and seam certificates see
            # no ulp jitter. Where the rule and the samples disagree, the
            # nearer cell end stands.
            moved = np.zeros(len(y))  # -1: a moved last, +1: b did
            for _ in range(100):  # cells shrink to adjacent floats well before
                mid = 0.5 * (a + b)
                live = np.flatnonzero((fa < 0.0) & (fb >= 0.0) & ((mid - a) * (mid - b) < 0.0))
                if live.size == 0:
                    break
                al, bl, fal, fbl = a[live], b[live], fa[live], fb[live]
                x = bl - fbl * (bl - al) / (fbl - fal)
                x = np.where((x - al) * (x - bl) < 0.0, x, mid[live])
                x = np.where(fbl == 0.0, np.nextafter(bl, al), x)  # b is a root: step down
                fx = np.asarray(fwd(x), dtype=float) - y[live]
                low = fx < 0.0
                a[live] = np.where(low, x, al)
                b[live] = np.where(low, bl, x)
                fa[live] = np.where(low, fx, np.where(moved[live] > 0.0, 0.5 * fal, fal))
                fb[live] = np.where(low, np.where(moved[live] < 0.0, 0.5 * fbl, fbl), fx)
                moved[live] = np.where(low, -1.0, 1.0)
            return np.where(fa >= 0.0, a, b)

        inv_seams = tuple(sorted(float(self(s)) for s in self.seams))
        return NumericDiffeo(tuple(ys), tuple(xs), underlying=inv, seams=inv_seams)

    def is_identity(self) -> bool:
        scale = max(1.0, abs(self.xs[0]), abs(self.xs[-1]))
        return all(abs(y - x) <= _IDENTITY_TOL * scale for x, y in zip(self.xs, self.ys))

    def to_json(self) -> dict:
        return {"samples": [[x, y] for x, y in zip(self.xs, self.ys)],
                "seams": list(self.seams)}

    @classmethod
    def from_json(cls, d: dict) -> "NumericDiffeo":
        try:
            pts = [(float(x), float(y)) for x, y in d["samples"]]
            seams = tuple(float(s) for s in d.get("seams", ()))
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed samples JSON: {exc}") from exc
        return cls(tuple(x for x, _ in pts), tuple(y for _, y in pts), seams=seams)


# ---------------------------------------------------------------------------
# the glue

def glue_id_and_diff(g: NumericDiffeo, eps, n: int = 4096) -> NumericDiffeo:
    """Glue the identity into g across the interval g lives on.

    Returns p with p(x) = x on (b, b+eps], p(x) = g(x) on [c-eps, c), strictly
    increasing throughout, built as b + integral of gamma where
    gamma = F + R*g' + lambda*beta: F is a plateau equal to 1 near b, R a
    plateau equal to 1 near c, beta bridges the middle, and lambda is fitted
    so the cumulative quadrature lands exactly on g(c-eps) at the right seam.
    lambda <= 0 means eps is too large for this g: GlueInfeasible.
    """
    if not isinstance(g, NumericDiffeo):
        raise DomainError("glue needs a NumericDiffeo transition")
    if not g.increasing:
        raise DomainError("glue needs an orientation-preserving transition")
    b, c = g.domain
    span = c - b
    eps = float(eps)
    if not (0.0 < eps < span / 4.0):
        raise DomainError(f"eps must lie in (0, {span / 4.0}), got {eps}")
    scale = max(1.0, abs(b), abs(c))
    if abs(g.ys[0] - b) > _ENDPOINT_TOL * scale or abs(g.ys[-1] - c) > _ENDPOINT_TOL * scale:
        raise DomainError("transition must map the interval onto itself")

    lo_seam, hi_seam = b + eps, c - eps
    F = bump_plateau(b - eps, b, lo_seam, b + 2 * eps)
    R = bump_plateau(c - 2 * eps, hi_seam, c, c + eps)
    beta = bump_plateau(lo_seam, b + 2 * eps, c - 2 * eps, hi_seam)

    def alpha(t: np.ndarray) -> np.ndarray:
        """F + R*g', reading g' only where R is nonzero."""
        r = R(t)
        gp = np.zeros_like(t)
        mask = r > 0.0
        if mask.any():
            gp[mask] = g.derivative_grid(t[mask])
            if np.any(gp[mask] <= 0.0):
                raise DomainError("transition derivative is not positive on the grid")
        return F(t) + r * gp

    # a grid node within rounding (1e-12 of the scale) of a seam would leave
    # a cell too thin to stay increasing once the samples are snapped: the
    # seam replaces it
    grid = np.linspace(b, c, max(int(n), 16) + 1)
    near = np.minimum(np.abs(grid - lo_seam), np.abs(grid - hi_seam)) <= 1e-12 * scale
    near[[0, -1]] = False
    # sorted and deduplicated as np.union1d would, without the numpy.ma
    # import that np.unique makes on its first call
    xs = np.sort(np.concatenate((grid[~near], (lo_seam, hi_seam))))
    xs = xs[np.concatenate(([True], xs[1:] != xs[:-1]))]
    i_alpha = np.concatenate(([0.0], np.cumsum(_panel_integrals(alpha, xs[:-1], xs[1:]))))
    i_beta = np.concatenate(([0.0], np.cumsum(_panel_integrals(beta, xs[:-1], xs[1:]))))

    i_fit = int(np.searchsorted(xs, hi_seam))
    target = float(g(hi_seam))
    numerator = target - b - i_alpha[i_fit]
    mass = float(i_beta[i_fit])
    lam = numerator / mass
    if lam <= 0.0:
        raise GlueInfeasible(
            f"no positive bump mass at eps={eps}: the transition leaves "
            f"too little room ({numerator:.3e})", eps=eps, mass=numerator)

    ys = b + i_alpha + lam * i_beta
    left = xs <= lo_seam
    right = xs >= hi_seam
    g_right = g(xs[right])
    presnap_id = float(np.max(np.abs(ys[left] - xs[left])))
    presnap_g = float(np.max(np.abs(ys[right] - g_right)))
    ys[left] = xs[left]
    ys[right] = g_right
    integral_residual = abs((b + i_alpha[-1] + lam * i_beta[-1]) - c) / span

    report = GlueReport(eps=eps, lam=float(lam), integral_residual=float(integral_residual),
                        presnap_id=presnap_id, presnap_g=presnap_g, cells=len(xs) - 1)

    def gamma(t: np.ndarray) -> np.ndarray:
        return alpha(t) + lam * beta(t)

    def between(t: np.ndarray) -> np.ndarray:
        i = np.searchsorted(xs, t, side="right") - 1
        return ys[i] + _panel_integrals(gamma, xs[i], t)

    def p_call(x: np.ndarray) -> np.ndarray:
        return np.piecewise(x, [x >= hi_seam, (x > lo_seam) & (x < hi_seam)],
                            [g, between, lambda t: t])

    return NumericDiffeo(xs, ys, underlying=p_call,
                         seams=(lo_seam, hi_seam), glue=report)


def glue_auto(g: NumericDiffeo, n: int = 4096, retries: int = 6) -> NumericDiffeo:
    """Glue with automatic eps: start at an eighth of the span, halve on
    infeasibility, give up after the retry budget."""
    b, c = g.domain
    eps = (c - b) / 8.0
    last = None
    for _ in range(retries + 1):
        try:
            return glue_id_and_diff(g, eps, n=n)
        except GlueInfeasible as exc:
            last = exc
            eps /= 2.0
    raise last


# ---------------------------------------------------------------------------
# charts and chains

@dataclass(frozen=True)
class IntervalChart:
    """A chart with an abstract domain and an open bounded image interval.

    The optional map records a concrete coordinate rule when the abstract
    domain is realized inside R ("identity", an AffineMap, or a
    NumericDiffeo); transitions can be derived from concrete maps, but are
    usually supplied explicitly.
    """

    label: str
    image: tuple
    map: object = None

    def __post_init__(self):
        a, c = float(self.image[0]), float(self.image[1])
        if not (math.isfinite(a) and math.isfinite(c) and a < c):
            raise DomainError(f"image must be a bounded interval, got ({a}, {c})")
        object.__setattr__(self, "image", (a, c))
        if self.map is not None and self.map != "identity" \
                and not isinstance(self.map, (AffineMap, NumericDiffeo)):
            raise DomainError("chart map must be 'identity', affine, or numeric")


@dataclass(frozen=True)
class ChainAtlas:
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

    def __post_init__(self):
        charts = tuple(self.charts)
        transitions = tuple(self.transitions)
        object.__setattr__(self, "charts", charts)
        object.__setattr__(self, "transitions", transitions)
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
            _check_transition(g, (imgs[i + 1][0], imgs[i][1]), f"transition {i}")


def _check_transition(g, overlap: tuple, name: str) -> None:
    """NotJoinable unless g is an increasing numeric self-map of the overlap
    fixing its ends."""
    lo, hi = overlap
    if not isinstance(g, NumericDiffeo):
        raise NotJoinable(f"{name} is not a numeric map")
    scale = max(1.0, abs(lo), abs(hi))
    if abs(g.domain[0] - lo) > _ENDPOINT_TOL * scale \
            or abs(g.domain[1] - hi) > _ENDPOINT_TOL * scale:
        raise NotJoinable(f"{name} lives on {g.domain}, expected the overlap {overlap}")
    if not g.increasing:
        raise NotJoinable(f"{name} must preserve orientation")
    if abs(g.ys[0] - lo) > _ENDPOINT_TOL * scale or abs(g.ys[-1] - hi) > _ENDPOINT_TOL * scale:
        raise NotJoinable(f"{name} does not fix the overlap ends")


# ---------------------------------------------------------------------------
# certification

@dataclass(frozen=True)
class SmoothCert:
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
    schedule), one flat value or one value per order; DomainError if bad."""
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
    if any(t <= 0.0 for t in tols):
        raise DomainError(f"tolerances must be positive, got {tols}")
    return tols


def verify_ck_numeric(map_obj, k: int, tol=None) -> SmoothCert:
    """Numeric order-k certificate for a monotone map with seams.

    At every interior seam the one-sided derivative estimates of orders 1..k
    must agree within the per-order tolerance (relative to max(1, |value|)),
    and no first-derivative estimate anywhere (seams or the dyadic interior
    grid) may be significantly negative: slope > -tol_1, which deliberately
    admits maps with a vanishing one-sided slope at a seam. Failures are
    reported, never raised; values so large that the grid slope overflows
    raise DomainError.
    """
    tols = _tolerances(k, tol)
    lo, hi = map_obj.domain
    span = hi - lo
    seams = sorted(s for s in getattr(map_obj, "seams", ()) if lo < s < hi)

    min_slope = math.inf
    # grid slopes, nudged off any seam
    grid = lo + span * np.arange(1, _SLOPE_GRID) / _SLOPE_GRID
    if seams:
        near = np.min(np.abs(grid[:, None] - np.array(seams)), axis=1) < span / (4 * _SLOPE_GRID)
        grid = np.where(near, grid + span / (2 * _SLOPE_GRID), grid)
    grid = grid[(lo < grid) & (grid < hi)]
    if grid.size:
        with np.errstate(over="ignore", invalid="ignore"):
            min_slope = float(np.min(_central_slope(map_obj, grid, lo, hi)))
        if not math.isfinite(min_slope):
            raise DomainError("map values too large: the slope estimate overflows")

    # one-sided estimates of orders 1..k on both sides of every seam, from
    # one call on all their stencil nodes; plan holds (left, right) pairs
    bounds = [lo] + seams + [hi]
    plan = [(s, j, sign, _numerics.halving(0.8 * gap / j, 12))
            for idx, s in enumerate(seams) for j in range(1, k + 1)
            for sign, gap in ((-1.0, s - bounds[idx]), (1.0, bounds[idx + 2] - s))]
    nodes = [s + o for s, j, sign, steps in plan
             for row in _numerics.offsets(j, steps, sign) for o in row]
    values = iter(map_obj(np.array(nodes)).tolist() if nodes else ())
    estimates = [_numerics.one_sided([[next(values) for _ in range(j + 1)] for _ in steps],
                                     j, steps, sign)[0]
                 for s, j, sign, steps in plan]

    residuals = [0.0] * k
    for n, (left, right) in enumerate(zip(estimates[::2], estimates[1::2])):
        j = n % k + 1
        scale = max(1.0, abs(left), abs(right))
        residuals[j - 1] = max(residuals[j - 1], abs(left - right) / scale)
        if j == 1:
            min_slope = min(min_slope, left, right)

    if min_slope is math.inf:
        min_slope = 0.0

    passed = all(r <= t for r, t in zip(residuals, tols)) and min_slope > -tols[0]
    return SmoothCert(order=k, residuals=tuple(residuals), passed=passed,
                      grid=tuple(seams), min_slope=float(min_slope),
                      tolerances=tols)


# ---------------------------------------------------------------------------
# joining

@dataclass(frozen=True, eq=False)
class JoinResult:
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
    (a, c) and (b, d) along g; the caller checks the inputs and certifies."""
    a, c = u_image
    b, d = v_image
    if g.is_identity():
        return IdentityMap((a, c)), IdentityMap((b, d)), None

    p = glue_auto(g, n=n)
    eps = p.glue.eps
    P = PiecewiseMonotone((a, b + eps, c - eps, c),
                          (IdentityMap((a, b + eps)), p, g))
    y1 = float(g(b + eps))
    y2 = float(g(c - eps))
    q_mid = ComposedMap(p, g.inverse(), seams=(y1, y2))
    Q = PiecewiseMonotone((b, y2, d), (q_mid, IdentityMap((y2, d))),
                          extra_seams=(y1,))
    return P, Q, p.glue


def join_charts(U: IntervalChart, V: IntervalChart, g: NumericDiffeo,
                k: int = 2, tol=None) -> JoinResult:
    """Join two overlapping charts along the transition g.

    Interleaving a < b < c < d of the images is required; g must be an
    increasing self-map of the overlap (b, c) fixing its ends. The result
    covers (a, d) and agrees with U off the right part of the overlap and
    with V off the left part; both reparametrizations carry seam lists and
    order-k certificates.
    """
    a, c = U.image
    b, d = V.image
    if not (a < b < c < d):
        raise NotJoinable(
            f"images must interleave a < b < c < d, got a={a}, b={b}, c={c}, d={d}"
        )
    _check_transition(g, (b, c), "transition")
    tols = _tolerances(k, tol)

    P, Q, glue = _join_maps(U.image, V.image, g)
    return JoinResult(IntervalChart(f"{U.label}|{V.label}", (a, d)), P, Q,
                      verify_ck_numeric(P, k, tols), verify_ck_numeric(Q, k, tols), glue)


# ---------------------------------------------------------------------------
# chain collapse

@dataclass(frozen=True, eq=False)
class CollapseResult:
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
    lo, hi = interval
    scale = max(1.0, abs(lo), abs(hi))
    ts = np.linspace(lo, hi, 7)[1:-1]
    if np.max(np.abs(r(ts) - ts)) > 1e-9 * scale:
        raise NotJoinable(
            f"stabilization violated at {label}: expected the already-"
            f"joined chart to be the identity on the overlap"
        )


def collapse_chain(atlas: ChainAtlas, k: int = 2, n: int = 4096,
                   tol=None) -> CollapseResult:
    """Collapse a chain-like atlas to a single chart, middle-out.

    Starts at the middle pair and alternates joining one chart on the right
    and one on the left, so already-joined regions are never touched again
    (the strict no-triple-overlap condition guarantees each join's
    modification strip stays clear of earlier charts). Per-chart transitions
    r_i into the final chart are accumulated; each r_i is wrapped at most
    once per neighbor and then stays bit-stable. The atlas has checked the
    overlaps and transitions; each final r_i is certified once, at the end.
    """
    tols = _tolerances(k, tol)
    transitions = atlas.transitions
    imgs = [ch.image for ch in atlas.charts]
    m = len(imgs)

    lo = (m - 1) // 2
    hi = lo + 1
    steps = []

    def attempt(i, u_image, v_image):
        try:
            return _join_maps(u_image, v_image, transitions[i], n)
        except (GlueInfeasible, DomainError) as exc:
            exc.args = (f"joining charts {i} and {i + 1}: {exc.args[0]}",) + exc.args[1:]
            raise

    P, Q, _ = attempt(lo, imgs[lo], imgs[hi])
    r = {lo: P, hi: Q}
    block = (imgs[lo][0], imgs[hi][1])
    steps.append((lo, hi))

    while lo > 0 or hi < m - 1:
        if hi < m - 1:
            j = hi + 1
            _probe_identity(r[hi], (imgs[j][0], imgs[hi][1]), f"charts {hi}/{j}")
            P, r[j], _ = attempt(hi, block, imgs[j])
            r[hi] = ComposedMap(P, r[hi], seams=tuple(sorted(set(r[hi].seams) | set(P.seams))))
            block = (block[0], imgs[j][1])
            hi = j
            steps.append((hi - 1, hi))
        if lo > 0:
            j = lo - 1
            _probe_identity(r[lo], (imgs[lo][0], imgs[j][1]), f"charts {j}/{lo}")
            r[j], Q, _ = attempt(j, imgs[j], block)
            r[lo] = ComposedMap(Q, r[lo], seams=tuple(sorted(set(r[lo].seams) | set(Q.seams))))
            block = (imgs[j][0], block[1])
            lo = j
            steps.append((lo, lo + 1))

    certs = tuple(verify_ck_numeric(r[i], k, tols) for i in range(m))
    agg = SmoothCert(
        order=k,
        residuals=tuple(max(c.residuals[j] for c in certs) for j in range(k)),
        passed=all(c.passed for c in certs),
        grid=tuple(x for c in certs for x in c.grid),
        min_slope=min(c.min_slope for c in certs),
        tolerances=tols,
    )
    chart = IntervalChart("collapsed", (imgs[0][0], imgs[-1][1]))
    return CollapseResult(chart, tuple(r[i] for i in range(m)), agg, certs,
                          tuple(steps))


# ---------------------------------------------------------------------------
# JSON plumbing

def _map_from_json(spec):
    if spec is None or spec == "identity":
        return "identity" if spec == "identity" else None
    if isinstance(spec, dict) and "affine" in spec:
        pq = spec["affine"]
        return AffineMap(float(pq[0]), float(pq[1]))
    if isinstance(spec, dict) and "samples" in spec:
        return NumericDiffeo.from_json(spec)
    raise DomainError(f"unrecognized map spec: {spec!r}")


def _derive_transition(u_chart: IntervalChart, v_chart: IntervalChart,
                       n: int = 128) -> NumericDiffeo:
    overlap = (v_chart.image[0], u_chart.image[1])
    u, v = u_chart.map, v_chart.map
    if u is None or v is None:
        raise DomainError(
            "cannot derive a transition without concrete chart maps; "
            "provide it explicitly"
        )
    u_inv = IdentityMap(overlap) if u == "identity" else u.inverse()
    fn = u_inv if v == "identity" else ComposedMap(v, u_inv)
    return NumericDiffeo.from_function(fn, overlap, n=n)


def chain_from_json(d: dict) -> tuple[ChainAtlas, int, Optional[float]]:
    """Parse {"charts": [...], "transitions": [...], "k": int, "tol": float?}.

    tol is an optional flat per-order tolerance; when absent the default
    schedule applies. Sampled transitions are only piecewise-cubic smooth, so
    high orders at tight tolerances genuinely fail on them; the tol knob is
    how callers state what their data density supports.
    """
    try:
        chart_specs = d["charts"]
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed join spec: {exc}") from exc
    charts = []
    for i, spec in enumerate(chart_specs):
        try:
            image = (float(spec["image"][0]), float(spec["image"][1]))
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise DomainError(f"malformed chart {i}: {exc}") from exc
        charts.append(IntervalChart(str(spec.get("label", f"chart{i}")), image,
                                    _map_from_json(spec.get("map"))))
    given = {}
    for t in d.get("transitions", ()):
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
            transitions.append(_derive_transition(charts[i], charts[i + 1]))
    k = int(d.get("k", 2))
    tol = d.get("tol")
    if tol is not None:
        tol = float(tol)
        if tol <= 0.0:
            raise DomainError(f"tol must be positive, got {tol}")
    return ChainAtlas(tuple(charts), tuple(transitions)), k, tol


def _sample_map(r, domain, n: int = 65) -> list:
    lo, hi = domain
    xs = np.linspace(lo, hi, n + 2)[1:-1]
    return np.column_stack((xs, r(xs))).tolist()


def collapse_to_json(result: CollapseResult, atlas: ChainAtlas,
                     n_samples: int = 65) -> dict:
    return {
        "chart": {"label": result.chart.label,
                  "image": [result.chart.image[0], result.chart.image[1]]},
        "transitions": [
            {"chart": i, "samples": _sample_map(r, atlas.charts[i].image, n_samples)}
            for i, r in enumerate(result.transitions)
        ],
        "cert": result.cert.to_json(),
    }
