"""Reference partitions the coset tests compare the library against.

pm_double_cosets computes the union formula DhD u Dh^-1D only. These build
the same partitions a second, independent way: as orbits of the wreath square
of D acting by (a, b, delta).h = a h^delta b^-1, and as plain double cosets
straight from the set definition through FiniteGroup.mul.
"""

from twoorigins.cosets import WreathElement, wreath_act


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
