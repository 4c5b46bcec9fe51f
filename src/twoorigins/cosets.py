"""Exact double cosets on finite multiplication-table groups.

Groups live as Cayley tables over named elements, capped at 64 elements.
Construction checks the three facts that make a table a group: a two-sided
identity, associativity (proved from the rows of a generating set, one row
of the table at a time in C; a failure names the triple a scan of every row
would name first) and the identity in every row. On top of the tables:
plain (C,D)-double cosets, the symmetrized variant that also folds h into
h^-1 (by the union formula alone; the tests check it against the wreath-square
orbits), the wreath-product action behind that symmetrization, and the
closed-form classification of the piecewise-linear one-parameter family w_a.
"""

from __future__ import annotations

from ._record import Record, setfield
from .errors import DomainError
from .realnum import real_json, to_real

#: Associativity is proved from a generating set's rows, up to n^3 triples
#: read when every element is a generator; keep inputs desk-scale. The cap
#: also keeps every table entry below 256, which that check relies on.
MAX_GROUP_ORDER = 64


class FiniteGroup(Record):
    """A group given by element names and a Cayley table of indices.

    table[i][j] is the index of elements[i] * elements[j]. Construction
    verifies a two-sided identity, associativity, and that every row holds
    the identity, i.e. every element has a right inverse. Associativity is
    checked on the rows of a generating set only (for each such i, all
    (ij)k against i(jk) in one bytes comparison), which proves it for every
    row; the first row that fails is always a generator's, so a failure
    names the lexicographically first failing triple, as a scan of every row
    would. Those facts make a group, so the table is a Latin square without
    a check of its own; the inverses found are kept so inv() is a table
    lookup.
    """

    elements: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    name: str = "group"

    def __post_init__(self):
        n = len(self.elements)
        if n == 0:
            raise DomainError("empty group")
        if n > MAX_GROUP_ORDER:
            raise DomainError(f"group order {n} exceeds cap {MAX_GROUP_ORDER}")
        if len(set(self.elements)) != n:
            raise DomainError("duplicate element names")
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise DomainError("table shape does not match element count")
        try:
            rows = [bytes(row) for row in self.table]
        except TypeError:  # a float would pass every check below
            raise DomainError("table entries must be integers") from None
        except ValueError:
            raise DomainError("table entry out of range") from None
        flat = b"".join(rows)
        if flat.translate(None, bytes(range(n))):
            raise DomainError("table entry out of range")
        ident = bytes(range(n))
        e = next((e for e in range(n) if rows[e] == ident and flat[e::n] == ident), None)
        if e is None:
            raise DomainError("no identity element")
        # Light's test: the rows that pass, {a : (ay)z = a(yz) for all y, z},
        # are closed under the product, and the identity's row passes, so it
        # is enough that the rows of a generating set pass. Generators are
        # picked in index order among the elements not yet reached; reached
        # holds every left-nested product of them, closed under right
        # multiplication by each generator, each element times each
        # generator read once. Every row before a generator's is reached or
        # a generator's and passes, so the first row that fails is a
        # generator's, and its first mismatch is the lexicographically first
        # failing triple.
        # For row g, (gj)k = g(jk) for all j, k at once: left lays the rows
        # of the products gj end to end, right reads every row j through
        # row g. Entries are below n <= 64, so translate does the reads in C.
        pad = bytes(256 - n)
        reached, gens = {e}, bytearray()
        for g in range(n):
            if g in reached:
                continue
            left = b"".join(map(rows.__getitem__, rows[g]))
            right = flat.translate(rows[g] + pad)
            if left != right:
                at = next(p for p in range(n * n) if left[p] != right[p])
                j, k = divmod(at, n)
                raise DomainError(
                    f"associativity fails at ({self.elements[g]}, "
                    f"{self.elements[j]}, {self.elements[k]})"
                )
            gens.append(g)
            # the reached elements times g are column g read at them
            frontier = set(bytes(reached).translate(flat[g::n] + pad)) - reached
            while frontier:
                reached |= frontier
                new = set()
                for x in frontier:
                    new.update(gens.translate(rows[x] + pad))
                frontier = new - reached
        # the identity's place in row i is i's right inverse, which in a
        # group is also its left inverse
        inv = tuple(row.find(e) for row in rows)
        if -1 in inv:
            raise DomainError(f"{self.elements[inv.index(-1)]} has no inverse")
        setfield(self, "_identity", e)
        setfield(self, "_inv", inv)

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> int:
        return self._identity

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        return self._inv[i]

    def index_of(self, name: str) -> int:
        try:
            return self.elements.index(name)
        except ValueError:
            raise DomainError(f"no element named {name!r}") from None

    @classmethod
    def from_json(cls, d: dict) -> tuple["FiniteGroup", dict[str, "Subgroup"]]:
        """Parse {"elements": [...], "table": [[...]], "subgroups": {...}}.

        Table entries may be indices or element names. Returns the group and
        its named subgroups.
        """
        try:
            elements, raw = d["elements"], d["table"]
        except (KeyError, TypeError) as exc:
            raise DomainError(f"malformed group JSON: {exc}") from exc
        subgroups = d.get("subgroups", {})
        if not (isinstance(elements, list) and isinstance(raw, list)
                and all(isinstance(row, list) for row in raw)
                and isinstance(subgroups, dict)
                and all(isinstance(m, list) for m in subgroups.values())):
            raise DomainError("malformed group JSON: elements, table, table rows and "
                              "subgroup members must be arrays, subgroups an object")
        elements = tuple(str(e) for e in elements)
        # a repeated name makes the constructor reject the group anyway
        index = {e: k for k, e in enumerate(elements)}
        table = []
        for row in raw:
            # a row of indices passes as it is; names resolve entry by entry
            if set(map(type, row)) != {int}:
                for v in row:
                    if isinstance(v, bool):
                        raise DomainError("table entries must be indices or names")
                    if not isinstance(v, int) and str(v) not in index:
                        raise DomainError(f"table references unknown element: {str(v)!r}")
                row = [v if isinstance(v, int) else index[str(v)] for v in row]
            table.append(tuple(row))
        group = cls(elements, tuple(table), str(d.get("name", "group")))
        subs = {}
        for name, members in subgroups.items():
            subs[name] = Subgroup.from_names(group, members)
        return group, subs


def _element_index(group: FiniteGroup, i) -> int:
    """i itself if it is an int, not a bool, indexing an element of group."""
    if isinstance(i, bool) or not isinstance(i, int):
        raise DomainError(f"subgroup member {i!r} is not an element index")
    if not 0 <= i < len(group):
        raise DomainError("subgroup member out of range")
    return i


class Subgroup(Record):
    """A sorted, non-empty index set, verified closed under product.

    In a finite group that is enough: the identity and every inverse are
    powers of a member.
    """

    group: FiniteGroup
    members: tuple[int, ...]

    def __init__(self, group: FiniteGroup, members):
        mem = tuple(sorted(set(_element_index(group, i) for i in members)))
        if not mem:
            raise DomainError("empty subgroup")
        ms = set(mem)
        for i in mem:
            row = group.table[i]
            for j in mem:
                if row[j] not in ms:
                    raise DomainError(
                        f"subgroup not closed under product at "
                        f"({group.elements[i]}, {group.elements[j]})"
                    )
        setfield(self, "group", group)
        setfield(self, "members", mem)

    @classmethod
    def from_names(cls, group: FiniteGroup, names) -> "Subgroup":
        return cls(group, tuple(group.index_of(str(n)) for n in names))

    @classmethod
    def generated(cls, group: FiniteGroup, gens) -> "Subgroup":
        seen = {group.identity}
        frontier = [group.index_of(n) if isinstance(n, str) else _element_index(group, n)
                    for n in gens]
        seen.update(frontier)
        while frontier:
            nxt = []
            for a in seen.copy():
                for b in frontier:
                    for c in (group.mul(a, b), group.mul(b, a), group.inv(b)):
                        if c not in seen:
                            seen.add(c)
                            nxt.append(c)
            frontier = nxt
        return cls(group, tuple(seen))

    def is_normal(self) -> bool:
        g = self.group
        ms = set(self.members)
        return all(g.mul(g.mul(a, m), g.inv(a)) in ms
                   for a in range(len(g)) for m in self.members)


class CosetPartition(Record):
    """Disjoint blocks of element indices covering the whole group."""

    group: FiniteGroup
    blocks: tuple[tuple[int, ...], ...]
    kind: str  # "double" | "pm_double"

    def __init__(self, group: FiniteGroup, blocks, kind: str):
        if kind not in ("double", "pm_double"):
            raise DomainError(f"unknown partition kind {kind!r}")
        blocks = tuple(tuple(sorted(set(b))) for b in blocks)
        blocks = tuple(sorted(blocks, key=lambda b: b[0]))
        flat = [i for b in blocks for i in b]
        if sorted(flat) != list(range(len(group))) or len(flat) != len(set(flat)):
            raise DomainError("blocks do not partition the group")
        setfield(self, "group", group)
        setfield(self, "blocks", blocks)
        setfield(self, "kind", kind)

    def block_of(self, i: int) -> tuple[int, ...]:
        for b in self.blocks:
            if i in b:
                return b
        raise DomainError(f"index {i} not in any block")

    def named_blocks(self) -> list[list[str]]:
        return [[self.group.elements[i] for i in b] for b in self.blocks]

    def to_json(self) -> dict:
        return {"kind": self.kind, "blocks": self.named_blocks()}


class WreathElement(Record):
    """Element (a, b, delta) of the wreath square of a subgroup's table."""

    a: int
    b: int
    delta: int

    def __post_init__(self):
        if self.delta not in (1, -1):
            raise DomainError(f"delta must be +-1, got {self.delta}")


def wreath_mul(x: WreathElement, y: WreathElement, group: FiniteGroup) -> WreathElement:
    """(a,b,delta)(c,d,eps) = (ac, bd, delta*eps) when delta = +1,
    (ad, bc, delta*eps) when delta = -1."""
    if x.delta == 1:
        return WreathElement(group.mul(x.a, y.a), group.mul(x.b, y.b), x.delta * y.delta)
    return WreathElement(group.mul(x.a, y.b), group.mul(x.b, y.a), x.delta * y.delta)


def wreath_act(x: WreathElement, h: int, group: FiniteGroup) -> int:
    """The twisted two-sided action (a,b,delta).h = a h^delta b^-1."""
    core = h if x.delta == 1 else group.inv(h)
    return group.mul(group.mul(x.a, core), group.inv(x.b))


def _check_subgroup(group: FiniteGroup, s: Subgroup, label: str) -> None:
    if s.group is not group and s.group.table != group.table:
        raise DomainError(f"{label} is a subgroup of a different group")


def _double_coset(table, C, h: int, D) -> set[int]:
    """C h D read off the table rows: the entries t[c][h] give C h, and row
    x of that set at the columns of D gives x D."""
    return {table[x][d] for x in {table[c][h] for c in C} for d in D}


def double_cosets(H: FiniteGroup, C: Subgroup, D: Subgroup) -> CosetPartition:
    """Partition of H into blocks {c h d : c in C, d in D}."""
    _check_subgroup(H, C, "C")
    _check_subgroup(H, D, "D")
    unassigned = set(range(len(H)))
    blocks = []
    while unassigned:
        block = _double_coset(H.table, C.members, min(unassigned), D.members)
        blocks.append(block)
        unassigned -= block
    return CosetPartition(H, tuple(blocks), "double")


def pm_double_cosets(H: FiniteGroup, D: Subgroup) -> CosetPartition:
    """Blocks DhD united with Dh^-1D, by that union formula alone: each block
    of D\\H/D merges with the block holding the inverse of its least element.
    The tests check the result block for block against the wreath-square orbits.
    """
    _check_subgroup(H, D, "D")
    blocks = double_cosets(H, D, D).blocks
    block_of = {i: b for b in blocks for i in b}
    merged = {frozenset(b + block_of[H.inv(b[0])]) for b in blocks}
    return CosetPartition(H, tuple(merged), "pm_double")


def coset_membership_equiv(H: FiniteGroup, C: Subgroup, D: Subgroup,
                           g: int, h: int) -> bool:
    """Whether g lies in the double coset C h D, by the finite intersection
    test: C meets g D h^-1."""
    _check_subgroup(H, C, "C")
    _check_subgroup(H, D, "D")
    for x in (g, h):
        if not 0 <= x < len(H):
            raise DomainError(f"index {x} not in any block")
    hinv = H.inv(h)
    cs = set(C.members)
    return any(H.mul(H.mul(g, d), hinv) in cs for d in D.members)


# ---------------------------------------------------------------------------
# the w_a family

CELLS = ("fix+", "fix-", "ex+", "ex-")
#: The construction that populates each cell when it is nonempty.
_WITNESS_KINDS = {"fix+": "identity", "fix-": "reflection",
                  "ex+": "origin swap after the scaling map",
                  "ex-": "origin swap after the scaling reflection"}


class PairClassification(Record):
    """Emptiness pattern of the four symmetry cells between two structures.

    Cells are keyed fix+/fix-/ex+/ex- (origin action crossed with
    orientation). cells pairs each key with whether the cell is nonempty,
    and kinds with the construction that populates it ("" when empty), both
    in CELLS order; nonempty and witness_kind read them as dicts.
    """

    a: object
    b: object
    k: int
    cells: tuple
    kinds: tuple

    @property
    def nonempty(self) -> dict:
        return dict(self.cells)

    @property
    def witness_kind(self) -> dict:
        return dict(self.kinds)

    def any_nonempty(self) -> bool:
        return any(on for _, on in self.cells)

    def to_json(self) -> dict:
        return {"a": real_json(self.a), "b": real_json(self.b), "k": self.k,
                "cells": dict(self.cells),
                "witness_kind": {c: kind for c, kind in self.kinds if kind}}


class IntersectionType:
    EMPTY = "Empty"
    J_PLUS = "JPlus"
    J_MINUS = "JMinus"
    FULL_D = "FullD"


def _positive_real(x, label: str):
    v = to_real(x)
    if v <= 0:
        raise DomainError(f"{label} must be positive, got {x!r}")
    return v


def classify_wa_pair(a, b, k: int = 1) -> PairClassification:
    """Which of the four cells admit a structure map between W_a and W_b.

    Closed form: a=b=1 gives all four; a=b != 1 exactly fix+ and ex-;
    ab=1 with a != 1 exactly fix- and ex+; anything else is empty.
    Parameters become exact Fractions, so every decision is exact. k is the
    order asked for; the pattern is the same at every order.
    """
    av = _positive_real(a, "a")
    bv = _positive_real(b, "b")
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"k must be a positive integer, got {k!r}")
    same, inverse = av == bv, av * bv == 1
    cells = (("fix+", same), ("fix-", inverse), ("ex+", inverse), ("ex-", same))
    kinds = tuple((c, _WITNESS_KINDS[c] if on else "") for c, on in cells)
    return PairClassification(av, bv, k, cells, kinds)


def intersection_type(a, b, k: int = 1) -> str:
    """Type of the overlap between the smooth germs and their w_b-w_a twist.

    Read off the cells of classify_wa_pair: all four give the whole
    diffeomorphism group, fix-/ex+ (ab = 1) give JPlus, fix+/ex- (a = b)
    give JMinus, and no cell gives Empty.
    """
    cells = classify_wa_pair(a, b, k).nonempty
    if all(cells.values()):
        return IntersectionType.FULL_D
    if cells["fix-"]:
        return IntersectionType.J_PLUS
    if cells["fix+"]:
        return IntersectionType.J_MINUS
    return IntersectionType.EMPTY
