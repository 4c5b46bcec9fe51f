"""Named finite groups for the tests, built as twoorigins.cosets.FiniteGroup.

Only tests build these; the library reads groups from JSON.
"""

import itertools

from twoorigins.cosets import FiniteGroup
from twoorigins.errors import DomainError


def from_table(elements, table, name="group") -> FiniteGroup:
    return FiniteGroup(tuple(elements), tuple(tuple(row) for row in table), name)


def cyclic(n: int) -> FiniteGroup:
    names = tuple(str(i) for i in range(n))
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return FiniteGroup(names, table, f"Z{n}")


def dihedral(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, elements s^j r^i.

    Convention: r*s = s*r^(n-1), so (j,i)*(l,m) = (j+l, m + (-1)^l i).
    Names: e, r, r2, ... and s, sr, sr2, ...
    """
    if n < 1:
        raise DomainError("dihedral needs n >= 1")
    def nm(j, i):
        if j == 0:
            return "e" if i == 0 else ("r" if i == 1 else f"r{i}")
        return "s" if i == 0 else ("sr" if i == 1 else f"sr{i}")
    elems = [(j, i) for j in (0, 1) for i in range(n)]
    names = tuple(nm(j, i) for j, i in elems)
    idx = {v: k for k, v in enumerate(elems)}
    table = tuple(
        tuple(idx[((j + l) % 2, (m + (-1) ** l * i) % n)] for (l, m) in elems)
        for (j, i) in elems
    )
    return FiniteGroup(names, table, f"D{n}")


def quaternion8() -> FiniteGroup:
    names = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    # encode q = (sign, axis) with axis in {1,i,j,k}
    def mul(a, b):
        sa, xa = a; sb, xb = b
        rules = {
            ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
            ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
            ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
            ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
            ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
        }
        s, x = rules[(xa, xb)]
        return (sa * sb * s, x)
    def decode(name):
        return (-1 if name.startswith("-") else 1, name.lstrip("-"))
    def encode(q):
        s, x = q
        return x if s == 1 else f"-{x}"
    table = tuple(
        tuple(names.index(encode(mul(decode(a), decode(b)))) for b in names)
        for a in names
    )
    return FiniteGroup(names, table, "Q8")


def _parity(p) -> int:
    inv = sum(1 for a, b in itertools.combinations(range(len(p)), 2) if p[a] > p[b])
    return inv % 2


def alternating4() -> FiniteGroup:
    perms = [p for p in itertools.permutations(range(4)) if _parity(p) == 0]
    names = tuple("".join(str(v) for v in p) for p in perms)
    idx = {p: k for k, p in enumerate(perms)}
    table = tuple(
        tuple(idx[tuple(p[q[t]] for t in range(4))] for q in perms)
        for p in perms
    )
    return FiniteGroup(names, table, "A4")


def dicyclic3() -> FiniteGroup:
    """Order-12 dicyclic group: a^6 = 1, b^2 = a^3, b a b^-1 = a^-1."""
    elems = [(i, j) for j in (0, 1) for i in range(6)]
    def nm(i, j):
        base = "e" if i == 0 else ("a" if i == 1 else f"a{i}")
        return base if j == 0 else ("b" if i == 0 else f"{base}b")
    names = tuple(nm(i, j) for i, j in elems)
    idx = {v: k for k, v in enumerate(elems)}
    table = tuple(
        tuple(idx[(((i + (-1) ** j * i2 + 3 * (j & j2)) % 6), (j + j2) % 2)]
              for (i2, j2) in elems)
        for (i, j) in elems
    )
    return FiniteGroup(names, table, "Dic3")


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    pairs = [(i, j) for i in range(len(g)) for j in range(len(h))]
    names = tuple(f"({g.elements[i]},{h.elements[j]})" for i, j in pairs)
    idx = {p: k for k, p in enumerate(pairs)}
    table = tuple(
        tuple(idx[(g.mul(i1, i2), h.mul(j1, j2))] for (i2, j2) in pairs)
        for (i1, j1) in pairs
    )
    return FiniteGroup(names, table, f"{g.name}x{h.name}")
