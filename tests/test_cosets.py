"""Finite group double cosets, signed double cosets, and the w_a pair cells."""

import itertools
import re
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoorigins.cosets import (
    CELLS,
    CosetPartition,
    FiniteGroup,
    IntersectionType,
    MAX_GROUP_ORDER,
    Subgroup,
    WreathElement,
    classify_wa_pair,
    coset_membership_equiv,
    double_cosets,
    intersection_type,
    pm_double_cosets,
    wreath_act,
    wreath_mul,
)
from twoorigins.errors import DomainError

import groups
from coset_oracles import (corpus_groups, double_coset_blocks, is_group, is_subgroup,
                           wreath_orbits)


def d3():
    return groups.dihedral(3)


def as_sets(partition):
    return {frozenset(b) for b in partition.named_blocks()}


# -- construction -----------------------------------------------------------


@pytest.mark.parametrize(
    "group,order",
    [
        (groups.cyclic(1), 1),
        (groups.cyclic(7), 7),
        (groups.dihedral(4), 8),
        (groups.quaternion8(), 8),
        (groups.alternating4(), 12),
        (groups.dicyclic3(), 12),
    ],
)
def test_standard_groups_have_expected_order(group, order):
    assert len(group) == order
    e = group.identity
    for i in range(len(group)):
        assert group.mul(e, i) == i
        assert group.mul(i, group.inv(i)) == e


def test_direct_product_order_and_commuting_factors():
    g = groups.direct_product(groups.cyclic(2), groups.cyclic(3))
    assert len(g) == 6
    # Z2 x Z3 is cyclic of order 6: some element has order 6
    orders = set()
    for i in range(len(g)):
        p, n = i, 1
        while p != g.identity:
            p = g.mul(p, i)
            n += 1
        orders.add(n)
    assert 6 in orders


def test_from_table_rejects_non_latin_square():
    with pytest.raises(DomainError):
        groups.from_table(["e", "a"], [[0, 0], [1, 1]])
    # a float equal to an index would pass the identity, associativity and
    # inverse checks
    with pytest.raises(DomainError, match="must be integers"):
        groups.from_table(["e", "a"], [[0, 1.0], [1, 0]])


@pytest.mark.parametrize("entry", [-1, 3, 255, 256])
def test_from_table_rejects_entries_outside_the_group(entry):
    with pytest.raises(DomainError, match="table entry out of range"):
        groups.from_table(["e", "a", "b"], [[0, 1, 2], [1, 2, entry], [2, 0, 1]])


def _accepted(names, table) -> bool:
    try:
        groups.from_table(names, table)
    except DomainError:
        return False
    return True


@pytest.mark.parametrize("n,groups", [(2, 2), (3, 3)])
def test_every_table_on_two_and_three_elements_is_a_group_exactly_when_accepted(n, groups):
    names = [f"x{v}" for v in range(n)]
    accepted = 0
    for flat in itertools.product(range(n), repeat=n * n):
        table = [flat[i:i + n] for i in range(0, n * n, n)]
        ok = _accepted(names, table)
        assert ok == is_group(table), table
        accepted += ok
    # one labelled group per choice of identity for n = 2, and the three
    # labellings of Z3 for n = 3
    assert accepted == groups


@pytest.mark.parametrize("group", [
    groups.cyclic(4),
    groups.direct_product(groups.cyclic(2), groups.cyclic(2)),
])
def test_tables_one_entry_from_a_group_are_accepted_exactly_when_groups(group):
    n = len(group)
    assert _accepted(group.elements, group.table) and is_group(group.table)
    for i, j in itertools.product(range(n), repeat=2):
        for v in range(n):
            if v != group.table[i][j]:
                table = [list(row) for row in group.table]
                table[i][j] = v
                assert _accepted(group.elements, table) == is_group(table), (i, j, v)


@pytest.mark.parametrize("group,subgroups", [
    (groups.dihedral(3), 6),
    (groups.quaternion8(), 6),
    (groups.alternating4(), 10),
])
def test_every_subset_is_a_subgroup_exactly_when_accepted(group, subgroups):
    n = len(group)
    accepted = 0
    for mask in range(1, 1 << n):
        subset = [i for i in range(n) if mask >> i & 1]
        try:
            Subgroup(group, tuple(subset))
            ok = True
        except DomainError:
            ok = False
        assert ok == is_subgroup(group, set(subset)), subset
        accepted += ok
    assert accepted == subgroups


def test_group_order_cap():
    with pytest.raises(DomainError):
        groups.cyclic(MAX_GROUP_ORDER + 1)


def test_from_json_accepts_names_and_indices():
    d_names = {
        "elements": ["e", "a"],
        "table": [["e", "a"], ["a", "e"]],
        "subgroups": {"T": ["e"]},
    }
    d_idx = {
        "elements": ["e", "a"],
        "table": [[0, 1], [1, 0]],
        "subgroups": {"T": ["e"]},
    }
    g1, subs1 = FiniteGroup.from_json(d_names)
    g2, subs2 = FiniteGroup.from_json(d_idx)
    assert g1.table == g2.table
    assert subs1["T"].members == subs2["T"].members
    with pytest.raises(DomainError):
        FiniteGroup.from_json({"elements": ["e"], "table": [["x"]]})
    with pytest.raises(DomainError):
        FiniteGroup.from_json({"elements": ["e"], "table": [[True]]})


def test_from_json_named_and_index_tables_build_equal_groups():
    g = groups.direct_product(groups.dihedral(4), groups.quaternion8())
    named = {"elements": list(g.elements), "name": g.name,
             "table": [[g.elements[v] for v in row] for row in g.table]}
    indexed = {"elements": list(g.elements), "name": g.name,
               "table": [list(row) for row in g.table]}
    assert FiniteGroup.from_json(named)[0] == FiniteGroup.from_json(indexed)[0] == g


# -- associativity against the triple loop ----------------------------------


def _first_nonassociative(table):
    """The lexicographically first (i, j, k) with (ij)k != i(jk), or None."""
    n = len(table)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    return i, j, k
    return None


def _assert_checked_like_triple_loop(table, names):
    first = _first_nonassociative(table)
    if first is None:
        groups.from_table(names, table)
        return
    i, j, k = (names[v] for v in first)
    with pytest.raises(DomainError, match=re.escape(f"associativity fails at ({i}, {j}, {k})")):
        groups.from_table(names, table)


def _reduced_latin_squares(n):
    """Every Latin square on 0..n-1 whose first row and column read 0..n-1."""
    def extend(rows):
        if len(rows) == n:
            yield tuple(rows)
            return
        for p in itertools.permutations(range(n)):
            if p[0] == len(rows) and all(p[c] != row[c] for row in rows for c in range(n)):
                yield from extend(rows + [p])
    yield from extend([tuple(range(n))])


def _doubled_loop(m, twist):
    """(h, s)(k, t) = (h + f(k), s xor t) on Z_m x {0, 1}, where f = twist
    when s = t = 1 and the identity otherwise. The rows with s = 0 never
    fail associativity, and a loop's rows that never fail form a subloop,
    so half the rows is the most that can pass in a non-associative loop."""
    def mul(a, b):
        s, h = divmod(a, m)
        t, k = divmod(b, m)
        f = twist[k] if s and t else k
        return (s ^ t) * m + (h + f) % m
    return tuple(tuple(mul(a, b) for b in range(2 * m)) for a in range(2 * m))


@pytest.mark.parametrize(
    "group",
    [
        groups.cyclic(MAX_GROUP_ORDER),
        groups.dihedral(MAX_GROUP_ORDER // 2),
        groups.direct_product(groups.dihedral(4), groups.quaternion8()),
        groups.alternating4(),
        groups.quaternion8(),
    ],
)
def test_builtin_tables_are_associative(group):
    # each was accepted when the parameters were built
    assert _first_nonassociative(group.table) is None


def test_order_5_loops_name_the_first_failing_triple():
    squares = list(_reduced_latin_squares(5))
    assert len(squares) == 56
    verdicts = [_first_nonassociative(t) is None for t in squares]
    # the six labellings of Z5 that fix 0 as identity
    assert sum(verdicts) == 6
    for table in squares:
        _assert_checked_like_triple_loop(table, ["e", "a", "b", "c", "d"])


def test_64_element_loop_failing_only_in_its_second_half_is_rejected():
    # Z_32 doubled, with 1 and 2 swapped in the (s, t) = (1, 1) quarter
    twist = list(range(32))
    twist[1], twist[2] = 2, 1
    table = _doubled_loop(32, twist)
    first = _first_nonassociative(table)
    assert first is not None and first[0] == 32
    _assert_checked_like_triple_loop(table, [f"x{v}" for v in range(64)])


@given(st.integers(1, 16), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_relabelled_loops_name_the_first_failing_triple(m, rnd):
    twist = [0] + rnd.sample(range(1, m), m - 1)
    table = _doubled_loop(m, twist)
    n = 2 * m
    sigma = rnd.sample(range(n), n)
    relabelled = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            relabelled[sigma[a]][sigma[b]] = sigma[table[a][b]]
    _assert_checked_like_triple_loop(relabelled, [f"x{v}" for v in range(n)])


def _full_scan_verdict(table, names):
    """The error the construction's full check gives, or None: the first
    two-sided identity, then the first failing triple, then the first row
    without the identity."""
    n = len(table)
    ident = list(range(n))
    e = next((e for e in range(n)
              if list(table[e]) == ident and [row[e] for row in table] == ident), None)
    if e is None:
        return "no identity element"
    first = _first_nonassociative(table)
    if first is not None:
        i, j, k = (names[v] for v in first)
        return f"associativity fails at ({i}, {j}, {k})"
    missing = next((i for i in range(n) if e not in table[i]), None)
    return None if missing is None else f"{names[missing]} has no inverse"


def _product(*factors):
    g = factors[-1]
    for f in reversed(factors[:-1]):
        g = groups.direct_product(f, g)
    return g


_C = groups.cyclic
_GROUP_TABLES = [g.table for g in (
    _C(1), _C(2), _C(7), _C(12), _C(40), _C(64),
    groups.dihedral(3), groups.dihedral(8), groups.dihedral(24), groups.dihedral(32),
    _product(_C(2), _C(2)), _product(_C(3), _C(4)), _product(_C(2), groups.dihedral(4)),
    _product(_C(4), _C(4), _C(4)), _product(_C(2), _C(2), _C(2), _C(2), _C(2), _C(2)),
    _product(_C(2), _C(2), groups.dihedral(8)))]


@given(st.sampled_from(_GROUP_TABLES), st.integers(0, 3), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_group_check_accepts_groups_and_names_the_full_scans_error(base, changes, rnd):
    n = len(base)
    sigma = rnd.sample(range(n), n)
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[sigma[a]][sigma[b]] = sigma[base[a][b]]
    for _ in range(changes):
        table[rnd.randrange(n)][rnd.randrange(n)] = rnd.randrange(n)
    names = [f"x{v}" for v in range(n)]
    want = _full_scan_verdict(table, names)
    assert (want is None) == is_group(table)
    if want is None:
        groups.from_table(names, table)
    else:
        with pytest.raises(DomainError, match=f"^{re.escape(want)}$"):
            groups.from_table(names, table)


def _best_of(fn, repeat=5):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("fill, message", [
    # x * y = e for x, y != e: (x1 x1) x2 = x2 but x1 (x1 x2) = x1
    (0, "associativity fails at (x1, x1, x2)"),
    # x * y = x1 for x, y != e: associative, every non-identity element
    # is a generator, and no row but e's holds e
    (1, "x1 has no inverse"),
])
def test_64_element_degenerate_tables_are_rejected_quickly(fill, message):
    n = 64
    table = [[j if i == 0 else i if j == 0 else fill for j in range(n)] for i in range(n)]
    names = [f"x{v}" for v in range(n)]
    assert _full_scan_verdict(table, names) == message

    def build():
        with pytest.raises(DomainError, match=re.escape(message)):
            groups.from_table(names, table)
    assert _best_of(build) < 2e-3


def test_subgroup_validation():
    g = d3()
    assert Subgroup.from_names(g, ["e", "s"]).members == Subgroup.generated(
        g, [g.index_of("s")]
    ).members
    with pytest.raises(DomainError):
        Subgroup.from_names(g, ["e", "r"])  # not closed
    with pytest.raises(DomainError):
        Subgroup.from_names(g, ["s"])  # missing identity


@pytest.mark.parametrize("index, message", [(5, "out of range"), (-1, "out of range"),
                                            (1.5, "not an element index"),
                                            (True, "not an element index")],
                         ids=["past-the-end", "negative", "float", "bool"])
@pytest.mark.parametrize("build", [Subgroup.generated, Subgroup], ids=["generated", "init"])
def test_subgroup_rejects_what_is_not_an_element_index(build, index, message):
    # a bool or a float is not read as index 1, and an index past the table
    # is no IndexError
    g = groups.cyclic(2)
    members = [index] if build is Subgroup.generated else [0, index]
    with pytest.raises(DomainError, match=message):
        build(g, members)


def test_subgroup_normality():
    g = d3()
    assert Subgroup.generated(g, [g.index_of("r")]).is_normal()
    assert not Subgroup.generated(g, [g.index_of("s")]).is_normal()


# -- double cosets ----------------------------------------------------------


def test_d3_double_cosets_frozen():
    g = d3()
    a = Subgroup.from_names(g, ["e", "s"])
    b = Subgroup.from_names(g, ["e", "sr"])
    part = double_cosets(g, a, b)
    assert as_sets(part) == {
        frozenset({"e", "r", "s", "sr"}),
        frozenset({"r2", "sr2"}),
    }
    assert part.kind == "double"


def test_d3_pm_double_cosets_frozen():
    g = d3()
    a = Subgroup.from_names(g, ["e", "s"])
    part = pm_double_cosets(g, a)
    assert as_sets(part) == {
        frozenset({"e", "s"}),
        frozenset({"r", "r2", "sr", "sr2"}),
    }
    assert part.kind == "pm_double"


def test_trivial_subgroups_give_extreme_partitions():
    g = d3()
    triv = Subgroup.from_names(g, ["e"])
    full = Subgroup.from_names(g, g.elements)
    assert len(double_cosets(g, triv, triv).blocks) == len(g)
    assert len(double_cosets(g, full, triv).blocks) == 1
    pm = pm_double_cosets(g, triv)
    # trivial D: blocks are {h, h^-1}
    for block in pm.blocks:
        assert set(block) == {block[0], g.inv(block[0])}


def test_coset_membership_equiv_matches_partition():
    g = d3()
    a = Subgroup.from_names(g, ["e", "s"])
    b = Subgroup.from_names(g, ["e", "sr"])
    part = double_cosets(g, a, b)
    for x in range(len(g)):
        for h in range(len(g)):
            assert coset_membership_equiv(g, a, b, x, h) == (x in part.block_of(h))


def test_coset_membership_equiv_rejects_indices_outside_the_group():
    # both g and h range over -1..n; only 0..n-1 name elements
    for grp in corpus_groups():
        n = len(grp)
        c, d = Subgroup.generated(grp, [n - 1]), Subgroup.generated(grp, [n // 2])
        part = double_cosets(grp, c, d)
        for x in range(-1, n + 1):
            for h in range(-1, n + 1):
                if 0 <= x < n and 0 <= h < n:
                    assert coset_membership_equiv(grp, c, d, x, h) == (x in part.block_of(h))
                else:
                    with pytest.raises(DomainError, match="not in any block"):
                        coset_membership_equiv(grp, c, d, x, h)


def test_partition_validation():
    g = d3()
    with pytest.raises(DomainError):
        CosetPartition(g, ((0, 1),), "double")  # misses elements
    with pytest.raises(DomainError):
        CosetPartition(g, ((0, 1, 2, 3, 4, 5),), "nonsense")


def test_subgroup_from_wrong_group_rejected():
    g = d3()
    other = groups.cyclic(6)
    s = Subgroup.from_names(other, [other.elements[0]])
    with pytest.raises(DomainError):
        double_cosets(g, s, s)


# -- wreath square ----------------------------------------------------------


_groups = st.sampled_from(
    [
        groups.cyclic(5),
        groups.cyclic(6),
        d3(),
        groups.dihedral(4),
        groups.quaternion8(),
    ]
)


@st.composite
def group_and_wreath_elems(draw, count):
    g = draw(_groups)
    n = len(g)
    elems = [
        WreathElement(
            draw(st.integers(0, n - 1)),
            draw(st.integers(0, n - 1)),
            draw(st.sampled_from([1, -1])),
        )
        for _ in range(count)
    ]
    return g, elems


@given(group_and_wreath_elems(3))
def test_wreath_mul_associative(gw):
    g, (x, y, z) = gw
    assert wreath_mul(wreath_mul(x, y, g), z, g) == wreath_mul(x, wreath_mul(y, z, g), g)


@given(group_and_wreath_elems(2), st.integers(0, 7))
def test_wreath_action_is_an_action(gw, h_seed):
    g, (x, y) = gw
    h = h_seed % len(g)
    assert wreath_act(wreath_mul(x, y, g), h, g) == wreath_act(x, wreath_act(y, h, g), g)


def test_wreath_element_delta_validated():
    with pytest.raises(DomainError):
        WreathElement(0, 0, 2)


@given(_groups, st.data())
@settings(max_examples=40, deadline=None)
def test_pm_union_and_orbit_computations_agree(g, data):
    # the library computes the union formula only; the wreath orbits and the
    # set definition of C h D are the independent references
    d = Subgroup.generated(g, [data.draw(st.integers(0, len(g) - 1))])
    c = Subgroup.generated(g, [data.draw(st.integers(0, len(g) - 1))])
    assert double_cosets(g, c, d).blocks == double_coset_blocks(g, c, d)
    part = pm_double_cosets(g, d)
    assert part.blocks == wreath_orbits(g, d)
    # blocks are closed under inversion by construction
    for block in part.blocks:
        assert {g.inv(i) for i in block} == set(block)


def test_pm_blocks_refine_to_plain_double_cosets():
    g = groups.dihedral(5)
    d = Subgroup.generated(g, [g.index_of("s")])
    plain = double_cosets(g, d, d)
    pm = pm_double_cosets(g, d)
    for block in pm.blocks:
        covered = set()
        for i in block:
            covered |= set(plain.block_of(i))
        assert covered == set(block)


# -- w_a pair classification ------------------------------------------------


def _expected_cells(a, b):
    if a == b == 1:
        return {"fix+", "fix-", "ex+", "ex-"}
    if a == b:
        return {"fix+", "ex-"}
    if a * b == 1:
        return {"fix-", "ex+"}
    return set()


def test_classify_pinned_cases():
    c = classify_wa_pair(2, 2)
    assert {k for k, v in c.nonempty.items() if v} == {"fix+", "ex-"}
    c = classify_wa_pair(2, F(1, 2))
    assert {k for k, v in c.nonempty.items() if v} == {"fix-", "ex+"}
    c = classify_wa_pair(2, 3)
    assert not c.any_nonempty()
    c = classify_wa_pair(1, 1)
    assert all(c.nonempty.values())
    assert set(c.nonempty) == set(CELLS)


@given(
    st.fractions(min_value=F(1, 9), max_value=9, max_denominator=40).filter(bool),
    st.fractions(min_value=F(1, 9), max_value=9, max_denominator=40).filter(bool),
)
def test_classify_matches_closed_form(a, b):
    c = classify_wa_pair(a, b)
    assert {k for k, v in c.nonempty.items() if v} == _expected_cells(a, b)
    for cell in CELLS:
        assert bool(c.witness_kind[cell]) == c.nonempty[cell]


@given(st.fractions(min_value=F(1, 9), max_value=9, max_denominator=40))
def test_classify_reciprocal_and_equal_pairs(a):
    assert classify_wa_pair(a, a).nonempty["fix+"]
    assert classify_wa_pair(a, 1 / a).nonempty["ex+"]


def test_classify_rejects_bad_arguments():
    with pytest.raises(DomainError):
        classify_wa_pair(0, 1)
    with pytest.raises(DomainError):
        classify_wa_pair(2, -3)
    with pytest.raises(DomainError):
        classify_wa_pair(2, 2, k=0)


def test_intersection_type_table():
    assert intersection_type(1, 1) == IntersectionType.FULL_D
    assert intersection_type(1, 2) == IntersectionType.EMPTY
    assert intersection_type(2, 1) == IntersectionType.EMPTY
    assert intersection_type(2, F(1, 2)) == IntersectionType.J_PLUS
    assert intersection_type(2, 2) == IntersectionType.J_MINUS
    assert intersection_type(2, 3) == IntersectionType.EMPTY


def test_equal_classifications_hash_equal():
    a, b = classify_wa_pair(2, 2), classify_wa_pair(F(4, 2), 2)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, classify_wa_pair(2, 3), classify_wa_pair(2, 3)}) == 2
    assert a.nonempty == {"fix+": True, "fix-": False, "ex+": False, "ex-": True}
    assert list(a.witness_kind) == list(CELLS)


def test_classification_json_shape():
    c = classify_wa_pair(2, 2)
    d = c.to_json()
    assert set(d["cells"]) == set(CELLS)
    assert d["cells"]["fix+"] is True
    assert d["cells"]["fix-"] is False
    assert set(d["witness_kind"]) == {"fix+", "ex-"}
    assert d["a"] == 2.0 and d["b"] == 2.0 and d["k"] == 1
