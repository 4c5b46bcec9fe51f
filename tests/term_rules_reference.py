"""The checks germs.SideExpansion made, through germs.PowerTerm, with
Fraction comparisons, kept as the reference for the integer comparisons
that replaced them.

For every term list, the two must accept the same lists, keeping the same
values of the same types, and reject the rest with the same exception and
message.
"""

from fractions import Fraction

from twoorigins.errors import DomainError
from twoorigins.realnum import to_real


def side_terms(terms) -> list:
    """The (coeff, exponent) pairs SideExpansion(terms) keeps, or what it raises."""
    out = []
    for coeff, exponent in terms:
        c = coeff if isinstance(coeff, (float, Fraction)) else to_real(coeff)
        e = to_real(exponent)
        if c == 0:
            raise DomainError("power term with zero coefficient")
        if e <= 0:
            raise DomainError(f"power term exponent must be positive, got {e}")
        out.append((c, e))
    if not out:
        raise DomainError("side expansion needs at least one term")
    exps = [e for _, e in out]
    if any(e2 <= e1 for e1, e2 in zip(exps, exps[1:])):
        raise DomainError(f"exponents must strictly increase, got {exps}")
    return out
