"""Reference partitions the coset tests compare the library against, and the
corpus of small groups they sweep.

pm_double_cosets computes the union formula DhD u Dh^-1D only. These build
the same partitions a second, independent way: as orbits of the wreath square
of D acting by (a, b, delta).h = a h^delta b^-1, and as plain double cosets
straight from the set definition through FiniteGroup.mul. The axiom oracles
decide by brute force over every element and triple whether a table is a
group and a subset a subgroup.
"""

from twoorigins.cosets import WreathElement, wreath_act

from groups import alternating4, cyclic, dicyclic3, dihedral, direct_product, quaternion8


def wreath_orbits(g, d):
    """Orbits of D wr Z2 on g, as sorted blocks in order of least element."""
    elems = [WreathElement(a, b, s) for a in d.members for b in d.members for s in (1, -1)]
    unassigned = set(range(len(g)))
    blocks = []
    while unassigned:
        orbit = {wreath_act(w, min(unassigned), g) for w in elems}
        blocks.append(tuple(sorted(orbit)))
        unassigned -= orbit
    return tuple(blocks)


def double_coset_blocks(g, c, d):
    """The distinct sets {c h d : c in C, d in D}, sorted, in order of least
    element."""
    blocks = {frozenset(g.mul(g.mul(x, h), y) for x in c.members for y in d.members)
              for h in range(len(g))}
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def is_group(table):
    """A two-sided identity, associativity on every triple, and a two-sided
    inverse for every element."""
    r = range(len(table))
    ids = [e for e in r if all(table[e][x] == x == table[x][e] for x in r)]
    return (bool(ids)
            and all(table[table[a][b]][c] == table[a][table[b][c]]
                    for a in r for b in r for c in r)
            and all(any(table[a][b] == ids[0] == table[b][a] for b in r) for a in r))


def is_subgroup(g, subset):
    """The subset holds the identity and is closed under product and
    inverse, all read straight from g's table."""
    t, r = g.table, range(len(g))
    e = next(e for e in r if all(t[e][x] == x for x in r))
    return (e in subset
            and all(t[a][b] in subset for a in subset for b in subset)
            and all(any(t[a][b] == e for b in subset) for a in subset))


def corpus_groups():
    """The groups of order at most 12 that criterion 2 sweeps."""
    groups = [cyclic(n) for n in range(1, 13)]
    groups += [dihedral(n) for n in range(2, 7)]
    groups += [
        quaternion8(),
        alternating4(),
        dicyclic3(),
        direct_product(cyclic(2), cyclic(2)),
        direct_product(cyclic(2), cyclic(3)),
        direct_product(cyclic(2), cyclic(4)),
        direct_product(cyclic(3), cyclic(3)),
        direct_product(cyclic(2), cyclic(6)),
        direct_product(
            cyclic(2),
            direct_product(cyclic(2), cyclic(2)),
        ),
    ]
    assert all(len(g) <= 12 for g in groups)
    return groups
