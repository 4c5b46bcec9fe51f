"""Exact-rational-first real arithmetic helpers.

Coefficients and exponents throughout the package are Fractions whenever the
input allows it and plain floats otherwise. Every float is a dyadic rational,
so Fraction(float) is lossless; decimal strings ("0.1", "1/3") go through
Fraction(str) and stay exact. Comparisons use exact equality when both sides
are Fractions and an absolute 1e-9 tolerance otherwise, which is the
package-wide policy for decimal CLI input.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Union

from .errors import DomainError

Real = Union[Fraction, float]

#: Absolute tolerance for real comparisons that cannot be settled exactly.
REAL_TOL = 1e-9

#: A decimal string's exponent, in Fraction's grammar, and what precedes it.
_EXPONENT = re.compile(r"(?P<mantissa>.*)[eE](?P<exp>[-+]?\d+(?:_\d+)*)\s*\Z", re.DOTALL)


def parse_fraction(text: str) -> Fraction:
    """Fraction(text), refusing at once an exponent too large for the value
    to print within sys.get_int_max_str_digits().

    Fraction multiplies out 10**exp before any size check can run, which
    takes seconds for an exponent of ten million. With n mantissa digits a
    nonzero value needs more than |exp| - n digits, so |exp| past the limit
    plus n is refused unparsed; a zero mantissa is 0 at any exponent.
    """
    m = _EXPONENT.match(text)
    limit = sys.get_int_max_str_digits()
    if m and limit and abs(int(m["exp"])) > limit + sum(c.isdigit() for c in m["mantissa"]):
        mantissa = Fraction(m["mantissa"] + "e0")  # the same grammar as text
        if mantissa != 0:
            raise ValueError(f"exponent of {text[:40]!r} too large: the value has more "
                             f"than {limit} digits")
        return mantissa
    return Fraction(text)


def to_real(x) -> Real:
    """Coerce ints, floats, strings, and Fractions to the package Real type.

    ints and strings become exact Fractions; floats become the exact Fraction
    with the same value (floats are dyadic). Anything already a Fraction
    passes through.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a real number here")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"non-finite real: {x!r}")
        return Fraction(x)
    if isinstance(x, str):
        return parse_fraction(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a real number")


def real_json(x: Real):
    """x as a float when one holds it (no overflow, no nonzero x turned to
    0), else as the exact rational string that to_real reads back."""
    try:
        f = float(x)
        if f != 0.0 or x == 0:
            return f
    except OverflowError:
        pass
    try:
        return str(x)
    except ValueError as exc:  # past sys.get_int_max_str_digits()
        raise DomainError("a value is out of float range and too long to write") from exc


def real_eq(x: Real, y: Real) -> bool:
    """Equality with exact fast-path for Fraction pairs, REAL_TOL otherwise."""
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return x == y
    return abs(float(x) - float(y)) <= REAL_TOL


def is_integral(e: Real) -> bool:
    """True when e is an integer-valued Fraction or an integer-valued float."""
    if isinstance(e, Fraction):
        return e.denominator == 1
    return float(e).is_integer()


def real_pow(base: Real, exp: Real) -> Real:
    """base ** exp, staying exact when the result is rational-representable.

    Fraction ** integral Fraction is exact. A rational raised to p/q is exact
    exactly when numerator and denominator are perfect q-th powers; otherwise
    the result degrades to float. base must be positive unless exp is
    integral (odd-root conventions are not needed anywhere in the package).
    An exact power too long to print, or a float one that underflows, is refused.
    """
    if isinstance(base, Fraction) and isinstance(exp, Fraction):
        if exp.denominator == 1:
            return _exact_pow(base, exp.numerator)
        if base <= 0:
            raise ValueError("fractional power of a non-positive base")
        root = _fraction_root(base, exp.denominator)
        if root is not None:
            return _exact_pow(root, exp.numerator)
    b, e = _in_float_range(base), _in_float_range(exp)
    if b <= 0 and not float(e).is_integer():
        raise ValueError("fractional power of a non-positive base")
    power = b ** e
    if power == 0.0 and b != 0.0:
        raise DomainError("a nonzero power is too small for a float; a value is out of float range")
    return power


def _in_float_range(x: Real) -> float:
    """float(x), refused for a nonzero x whose float is 0.0: a power of it
    would come out 0 or divide by zero. Past the other end of the range,
    float() itself raises OverflowError."""
    f = float(x)
    if f == 0.0 and x != 0:
        raise DomainError("a nonzero value is too small for a float; "
                          "a value is out of float range")
    return f


def _exact_pow(base: Fraction, k: int) -> Fraction:
    """base ** k, refused before it is computed when its numerator or
    denominator would have more than sys.get_int_max_str_digits() digits,
    the rule parse_fraction applies to number text."""
    limit, k_abs = sys.get_int_max_str_digits(), abs(k)
    if limit and k_abs > 1 and any(_too_long(abs(n), k_abs, limit)
                                   for n in (base.numerator, base.denominator)):
        raise DomainError(f"exact power too large: its numerator or denominator would "
                          f"have more than {limit} digits, out of float range")
    return base ** k


def _too_long(n: int, k: int, limit: int) -> bool:
    """Whether n ** k, n >= 0, has more than limit digits, that is whether
    k * log10(n) >= limit. Below 2 ** (3 * limit) it has not (2 ** 3 < 10).
    Within a relative 1e-9 of the limit, where the float logarithm could
    round across it, the power is compared exactly; it has at most
    limit + 1 digits there."""
    if n < 2 or k * n.bit_length() <= 3 * limit:
        return False
    x = k * math.log10(n)
    if abs(x - limit) > 1e-9 * limit:
        return x > limit
    return n ** k >= 10 ** limit


def _fraction_root(f: Fraction, q: int) -> Fraction | None:
    """Exact q-th root of a positive Fraction, or None when irrational."""
    num = _int_root(f.numerator, q)
    den = _int_root(f.denominator, q)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _int_root(n: int, q: int) -> int | None:
    """Exact q-th root of an integer, or None; integer Newton from above."""
    if n < 2:
        return n if n >= 0 else None
    if q >= n.bit_length():
        return None  # 1 < root < 2
    x = 1 << -(-n.bit_length() // q)  # a power of two past the root
    while True:
        y = ((q - 1) * x + n // x ** (q - 1)) // q
        if y >= x:
            return x if x ** q == n else None
        x = y


def real_sqrt(x: Real) -> Real:
    """Square root, exact for perfect-square rationals."""
    return real_pow(to_real(x), Fraction(1, 2))
