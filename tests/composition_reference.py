"""The Fraction loop germs._expand_composition replaced, kept as the
reference the composition tests compare the library against.

Every sum and product here is a Fraction (or float) operation that
normalises through a gcd, which is why the library now multiplies integer
numerators over one denominator instead. Term for term, the two must give
the same values of the same types in the same order, and None at the same
_TERM_CAP step.
"""

from twoorigins import germs
from twoorigins.realnum import is_integral, real_pow


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = e1 + e2
            out[key] = out.get(key, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def expand_composition(outer, inner) -> list | None:
    """Terms of sum_j d_j * (P(t))**f_j where P = sum_i a_i t**e_i, P > 0 near 0,
    or None when the substitution is not closed or passes germs._TERM_CAP
    terms (read at each call, so that a test may lower it)."""
    if len(inner) == 1:
        a, e = inner[0]
        out: dict = {}
        for d, f in outer:
            key = e * f
            out[key] = out.get(key, 0) + d * real_pow(a, f)
        terms = [(c, e) for e, c in out.items() if c != 0]
        return sorted(terms, key=lambda t: t[1])
    if not all(is_integral(f) and f > 0 for _, f in outer):
        return None
    base = {e: c for c, e in inner}
    acc: dict = {}
    powers: dict[int, dict] = {}
    cur = dict(base)
    n = 1
    maxf = max(int(f) for _, f in outer)
    while n <= maxf:
        powers[n] = cur
        if n < maxf:
            cur = _poly_mul(cur, base)
            if len(cur) > germs._TERM_CAP:
                return None
        n += 1
    for d, f in outer:
        for e, c in powers[int(f)].items():
            acc[e] = acc.get(e, 0) + d * c
        if len(acc) > germs._TERM_CAP:
            return None
    terms = [(c, e) for e, c in acc.items() if c != 0]
    return sorted(terms, key=lambda t: t[1])
