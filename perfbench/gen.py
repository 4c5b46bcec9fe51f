"""Seeded benchmark inputs, each paired with the answer its construction implies.

This module never imports twoorigins. Every expected answer follows from how
the input was built: closed forms for the w_a family, polynomial arithmetic on
exact rationals, group constructions with known coset counts, and maps that
are smooth, steep or cornered by construction. Ops are plain data (numbers,
Fractions, dicts, tuples); the workers turn them into library objects.

`stream(workload, seed)` yields an endless op sequence; the same seed always
gives the same sequence.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

WORKLOADS = ("cli_oneshot", "structure_queries", "chain_collapse")

#: Verdicts of the answer checks.
OK, UNDECIDED, WRONG = "ok", "undecided", "wrong"


def close(x, y) -> bool:
    """Exact equality for two Fractions, else agreement to 1e-9 relative."""
    if isinstance(x, F) and isinstance(y, F):
        return x == y
    return abs(float(x) - float(y)) <= 1e-9 * max(1.0, abs(float(y)))


def _rng(tag: str, seed: int) -> random.Random:
    return random.Random(f"twoorigins-bench/{tag}/{seed}")


def _rat(r: random.Random, lo, hi, dens=(1, 2, 3, 4, 5, 6, 8)) -> F:
    """A rational in [lo, hi] with a small denominator, never 0."""
    while True:
        d = r.choice(dens)
        n_lo, n_hi = math.ceil(lo * d), math.floor(hi * d)
        if n_lo <= n_hi:
            n = r.randint(n_lo, n_hi)
            if n != 0:
                return F(n, d)


def _rat_not_one(r: random.Random, lo, hi) -> F:
    while True:
        v = _rat(r, lo, hi)
        if v != 1:
            return v


# ---------------------------------------------------------------------------
# polynomials on exact rationals: {power: coefficient}

def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def poly_compose(f: dict, g: dict) -> dict:
    """Coefficients of f(g(x))."""
    out: dict = {}
    power = {0: F(1)}
    for m in range(1, max(f) + 1):
        power = poly_mul(power, g)
        if m in f:
            for e, c in power.items():
                out[e] = out.get(e, 0) + f[m] * c
    return {e: c for e, c in out.items() if c != 0}


def poly_sides(p: dict) -> dict:
    """The two side expansions a polynomial germ carries: the pos side is the
    polynomial itself, the neg side is read in t = -x."""
    return {"neg": {e: c * (-1) ** e for e, c in p.items()},
            "pos": dict(p)}


def monotone_cubic(r: random.Random, terms: int = 3) -> dict:
    """c1 x + c2 x^2 + c3 x^3 with c2^2 < 3 c1 c3: increasing on all of R,
    so a diffeomorphism germ whose inverse is smooth too. terms=2 drops c2."""
    c1 = _rat(r, F(1, 2), 3)
    c3 = _rat(r, F(1, 4), 2)
    p = {1: c1, 3: c3}
    if terms == 3:
        bound = math.sqrt(3 * c1 * c3)
        c2 = _rat(r, -0.8 * bound, 0.8 * bound)
        p[2] = c2
    return p


def sparse_poly(r: random.Random) -> dict:
    """c1 x + c_m x^m with c1 > 0 and m in 2..4: the first order past one at
    which the jet is nonzero is m."""
    m = r.choice((2, 3, 4))
    return {1: _rat(r, F(1, 2), 3), m: _rat(r, -2, 2)}


# ---------------------------------------------------------------------------
# the w_a family (closed forms)

def wa_pair(r: random.Random, populated: bool = False) -> tuple[F, F]:
    """A pair (a, b) that is equal, reciprocal, both one, or (unless
    populated) generic, which leaves every symmetry cell empty."""
    kinds = ("same", "recip", "ones") if populated else \
        ("same", "recip", "generic", "same", "recip", "generic", "ones")
    kind = r.choice(kinds)
    if kind == "ones":
        return F(1), F(1)
    a = _rat_not_one(r, F(1, 4), 6)
    if kind == "same":
        return a, a
    if kind == "recip":
        return a, 1 / a
    while True:
        b = _rat_not_one(r, F(1, 4), 6)
        if b != a and a * b != 1:
            return a, b


def wa_cells(a: F, b: F) -> dict:
    """Populated symmetry cells between w_a and w_b."""
    same, recip = a == b, a * b == 1
    return {"fix+": same, "ex-": same, "fix-": recip, "ex+": recip}


def wa_intersection(a: F, b: F) -> str:
    if a == 1 and b == 1:
        return "FullD"
    if a == 1 or b == 1:
        return "Empty"
    if a * b == 1:
        return "JPlus"
    if a == b:
        return "JMinus"
    return "Empty"


def sandwich_order(p: dict, a: F, b: F, n: int) -> int:
    """Smoothness order of w_b o p o w_a for p'(0) > 0: order 1 needs ab = 1,
    and past it order j fails exactly when p has an x^j term (a != 1)."""
    if a * b != 1:
        return 0
    for j in range(2, n + 1):
        if p.get(j, 0) != 0 and a != 1:
            return j - 1
    return n


# ---------------------------------------------------------------------------
# groups with known double-coset counts

def cyclic_group(n: int, c: int, d: int) -> dict:
    """Z_n with C = <c>, D = <d> (c, d divide n). C\\Z_n/D has gcd(c, d)
    blocks; the signed double cosets of D are the orbits of x -> -x on
    Z_n/D = Z_d."""
    names = [f"z{i}" for i in range(n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    subs = {"C": [names[k] for k in range(0, n, c)],
            "D": [names[k] for k in range(0, n, d)]}
    return {"group": {"name": f"Z{n}", "elements": names, "table": table, "subgroups": subs},
            "double": math.gcd(c, d), "pm_sub": "D", "pm": d // 2 + 1}


def dihedral_group(n: int, m: int) -> dict:
    """D_n (order 2n) as s^j r^i with (j,i)(l,k) = (j+l, (-1)^l i + k).

    C = <r^m> is normal of index 2m and D = <s> has order 2, so C\\D_n/D has
    m blocks. The signed double cosets of C are the inversion orbits of
    D_n/C = D_m: m//2 + 1 rotation classes plus m involutions.
    """
    elems = [(j, i) for j in (0, 1) for i in range(n)]
    names = [("r" if j == 0 else "s") + str(i) for j, i in elems]
    idx = {v: k for k, v in enumerate(elems)}
    table = [[idx[((j + l) % 2, ((-1) ** l * i + k) % n)] for (l, k) in elems]
             for (j, i) in elems]
    subs = {"C": [f"r{k}" for k in range(0, n, m)], "D": ["r0", "s0"]}
    return {"group": {"name": f"D{n}", "elements": names, "table": table, "subgroups": subs},
            "double": m, "pm_sub": "C", "pm": m // 2 + 1 + m}


def _divisor(r: random.Random, n: int) -> int:
    return r.choice([k for k in range(1, n + 1) if n % k == 0])


#: Group orders cycled by the group ops, so the cost mix is the same per seed.
GROUP_SPECS = (("Z", 64), ("D", 24), ("Z", 40), ("D", 32), ("Z", 48), ("D", 16))


def group_case(r: random.Random, i: int) -> dict:
    fam, n = GROUP_SPECS[i % len(GROUP_SPECS)]
    if fam == "Z":
        return cyclic_group(n, _divisor(r, n), _divisor(r, n))
    return dihedral_group(n, _divisor(r, n))


# ---------------------------------------------------------------------------
# benchmark-owned callables, described by data

def callable_spec(r: random.Random, corner: bool) -> tuple:
    """('corner', c): x + c x|x|, C^1 but not C^2 at 0 (second derivatives
    -2c and 2c). ('sin', c): x + c sin x, smooth, slope 1 + c at 0."""
    c = float(_rat(r, F(1, 8), F(3, 4)))
    return ("corner", c) if corner else ("sin", c)


def transition_params(r: random.Random) -> tuple[float, float]:
    """(lam, mu) with |lam| + |mu| < 1, so t + lam t(1-t) + mu t(1-t)(1-2t) is
    an increasing self-map of [0, 1] fixing both ends (its slope is at least
    1 - |lam| - |mu|)."""
    lam = r.uniform(-0.45, 0.45)
    mu = r.uniform(-0.3, 0.3)
    return lam, mu


def chain_spec(r: random.Random, m: int) -> dict:
    """m interleaving chart images of length 2 with overlaps of 26/64 to
    32/64 and no triple overlaps, plus one transition per overlap.

    Every endpoint is a multiple of 1/64, so the glue's seams b + eps and
    c - eps fall exactly on nodes of its 4096-cell grid; off such a node, a
    seam one ulp from a node makes the glued samples fail their monotonicity
    check (defects.py keeps that case)."""
    images, lo = [], r.randint(-64, 64) / 64
    for _ in range(m):
        images.append((lo, lo + 2.0))
        lo += 2.0 - r.randint(26, 32) / 64
    return {"images": images, "params": [transition_params(r) for _ in range(m - 1)]}


# ---------------------------------------------------------------------------
# op streams

#: One round of structure_queries: 15 exact slots and 5 numeric ones. Sorted
#: by cost, eight cheap slots (up to psi), then three compose_poly and
#: diffeo_classes (about 1 ms each), then eight slow ones (groups and the
#: numeric questions), so the median op sits mid-band among the four.
SQ_ROUND = ("compose_wa", "psi", "compose_poly", "classify", "same_false",
            "invert_linear", "group", "jet", "diffeo_classes", "in_diff",
            "compose_poly", "sandwich", "same_false_callable", "invert_wa",
            "group", "compose_poly", "smooth_callable", "group", "same_false_callable",
            "group")

#: One round of chain_collapse and the chart counts of its collapse slots.
#: Sorted by cost, four slots (the verifies, the glue and the 2-chart chain)
#: sit below the four 4-chart chains and four (8 and 16 charts) above them,
#: so the median op is a 4-chart collapse and stays one however many ops a
#: window holds.
CC_ROUND = ("collapse", "verify_smooth", "collapse", "collapse", "glue_steep", "collapse",
            "collapse", "verify_corner", "collapse", "collapse", "collapse", "collapse")
CC_SIZES = (4, 8, 4, 16, 4, 8, 2, 4, 8)

#: One round of cli_oneshot; every subcommand appears.
CLI_ROUND = ("classify", "psi", "germ_compose", "cosets", "structure_wa",
             "germ_invert", "join", "germ_jet", "cosets_pm", "verify")

#: Pool size for the polynomial h of numeric structure questions.
H_POOL = 6


def _sq_op(r, kind, pool, state) -> dict:
    if kind == "compose_wa":
        a, b = _rat(r, F(1, 4), 6), _rat(r, F(1, 4), 6)
        return {"a": a, "b": b, "expect": {"neg": {1: F(-1)}, "pos": {1: a * b}}}
    if kind == "compose_poly":
        f, g = monotone_cubic(r), monotone_cubic(r)
        return {"f": f, "g": g, "expect": poly_sides(poly_compose(f, g))}
    if kind == "invert_wa":
        a = _rat_not_one(r, F(1, 4), 6)
        return {"a": a, "expect": {"neg": {1: F(-1)}, "pos": {1: 1 / a}}}
    if kind == "invert_linear":
        p, q = _rat(r, F(1, 4), 6), _rat(r, F(1, 4), 6)
        return {"p": p, "q": q, "expect": {"neg": {1: -1 / p}, "pos": {1: 1 / q}}}
    if kind == "jet":
        p = monotone_cubic(r)
        n = r.randint(1, 5)
        d = [math.factorial(j) * p.get(j, F(0)) for j in range(1, n + 1)]
        return {"p": p, "order": n, "expect": d}
    if kind == "sandwich":
        p = sparse_poly(r)
        a = _rat_not_one(r, F(1, 4), 6)
        b = 1 / a if r.random() < 0.7 else _rat_not_one(r, F(1, 4), 6)
        n = r.randint(2, 5)
        return {"p": p, "a": a, "b": b, "n": n, "expect": sandwich_order(p, a, b, n)}
    if kind in ("classify", "diffeo_classes"):
        # diffeo_classes builds a witness per populated cell; populated pairs
        # keep its cost from depending on the draw
        a, b = wa_pair(r, populated=kind == "diffeo_classes")
        k = r.randint(1, 3)
        return {"a": a, "b": b, "k": k, "expect": wa_cells(a, b),
                "intersection": wa_intersection(a, b)}
    if kind == "psi":
        return {"a": _rat(r, F(1, 4), 9)}
    if kind == "group":
        state["groups"] = state.get("groups", 0) + 1
        return group_case(r, state["groups"] - 1)
    if kind == "same_false":
        h = r.randrange(len(pool))
        return {"h": h, "poly": pool[h], "a": _rat_not_one(r, F(1, 4), 6),
                "k": r.choice((1, 2)), "expect": False}
    if kind == "same_false_callable":
        return {"fn": callable_spec(r, corner=False), "a": _rat_not_one(r, F(1, 4), 6),
                "expect": False}
    if kind == "in_diff":
        h = r.randrange(len(pool))
        return {"h": h, "poly": pool[h], "k": r.choice((1, 2)), "expect": True}
    if kind == "smooth_callable":
        corner = r.random() < 0.5
        k = 2 if corner else r.choice((2, 3))
        return {"fn": callable_spec(r, corner), "k": k, "expect": 1 if corner else k}
    raise ValueError(kind)


def _cc_op(r, kind, state) -> dict:
    if kind == "collapse":
        state["chains"] = state.get("chains", 0) + 1
        m = CC_SIZES[(state["chains"] - 1) % len(CC_SIZES)]
        # order 1: order-2 certificates of smooth chains fail on a few chains
        # in a thousand (defects.py keeps one)
        return dict(chain_spec(r, m), m=m, k=1, expect=True)
    if kind == "glue_steep":
        # dyadic ends, as in chain_spec
        lo = r.randint(-128, 192) / 64
        return {"lo": lo, "hi": lo + r.randint(32, 128) / 64, "p": r.randint(14, 32),
                "w": r.uniform(0.01, 0.05)}
    if kind == "verify_smooth":
        lo = r.uniform(-2.0, 2.0)
        hi = lo + r.uniform(0.5, 2.0)
        return {"lo": lo, "hi": hi, "seam": r.uniform(lo + 0.3 * (hi - lo), lo + 0.7 * (hi - lo)),
                # order 2: the order-3 certificate of this smooth map fails on
                # a few maps in ten thousand (defects.py keeps one)
                "c": r.uniform(0.05, 0.3), "k": 2, "expect": True}
    if kind == "verify_corner":
        lo = r.uniform(-2.0, 2.0)
        hi = lo + r.uniform(0.5, 2.0)
        return {"lo": lo, "hi": hi, "seam": r.uniform(lo + 0.3 * (hi - lo), lo + 0.7 * (hi - lo)),
                "c": r.uniform(0.2, 0.8), "k": 1, "expect": False}
    raise ValueError(kind)


def _germ_json(sides: dict, orientation: str = "preserving") -> dict:
    def side(terms):
        return [{"c": str(c), "e": str(e)} for e, c in sorted(terms.items())]
    return {"neg": side(sides["neg"]), "pos": side(sides["pos"]), "orientation": orientation}


def _wa_json(a: F) -> dict:
    return _germ_json({"neg": {1: F(-1)}, "pos": {1: a}})


def sampled(fn, lo: float, hi: float, n: int = 257, seams=()) -> dict:
    xs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    return {"samples": [[x, fn(x)] for x in xs], "seams": list(seams)}


def bent_map(lo: float, hi: float, lam: float, mu: float):
    """The transition_params map moved onto [lo, hi]; plain arithmetic, so it
    takes floats and numpy arrays alike."""
    span = hi - lo

    def fn(x):
        t = (x - lo) / span
        return lo + span * (t + t * (1.0 - t) * (lam + mu * (1.0 - 2.0 * t)))
    return fn


def steep_map(lo: float, hi: float, p: int, w: float):
    """lo + span ((1-w) t^p + w t) with p >= 14 and w <= 0.05: at the first
    eps = span/8 the map has risen less than the identity plateau's integral
    (about 1.5 eps), so that glue has no positive bump mass and glue_auto has
    to halve eps at least once."""
    span = hi - lo

    def fn(x):
        t = (x - lo) / span
        return lo + span * ((1.0 - w) * t ** p + w * t)
    return fn


def smooth_map(lo: float, c: float):
    return lambda x: x + c * (x - lo) ** 2


def corner_map(seam: float, c: float):
    return lambda x: x + c * abs(x - seam)


def _cli_op(r, kind, state) -> dict:
    """argv with {name} placeholders for input files, the files' JSON, and
    the expected exit code plus payload facts."""
    if kind == "classify":
        a, b = wa_pair(r)
        cells = wa_cells(a, b)
        return {"argv": ["classify", "--a", str(a), "--b", str(b), "--k", str(r.randint(1, 3)), "--json"],
                "files": {}, "exit": 0 if any(cells.values()) else 1,
                "expect": {"cells": cells, "intersection": wa_intersection(a, b)}}
    if kind == "psi":
        return {"argv": ["psi", "--a", str(_rat(r, F(1, 4), 9)), "--selfcheck", "--json"],
                "files": {}, "exit": 0, "expect": {"origin_action": "exchange"}}
    if kind == "germ_compose":
        if r.random() < 0.5:
            a, b = _rat(r, F(1, 4), 6), _rat(r, F(1, 4), 6)
            g, h = {"neg": {1: F(-1)}, "pos": {1: a}}, {"neg": {1: F(-1)}, "pos": {1: b}}
            want = {"neg": {1: F(-1)}, "pos": {1: a * b}}
        else:
            f, p = monotone_cubic(r), monotone_cubic(r)
            g, h, want = poly_sides(f), poly_sides(p), poly_sides(poly_compose(f, p))
        return {"argv": ["germ", "compose", "--g", "{g}", "--h", "{h}", "--json"],
                "files": {"g": _germ_json(g), "h": _germ_json(h)}, "exit": 0, "expect": want}
    if kind == "germ_invert":
        p, q = _rat(r, F(1, 4), 6), _rat(r, F(1, 4), 6)
        return {"argv": ["germ", "invert", "--h", "{h}", "--json"],
                "files": {"h": _germ_json({"neg": {1: -p}, "pos": {1: q}})}, "exit": 0,
                "expect": {"neg": {1: -1 / p}, "pos": {1: 1 / q}}}
    if kind == "germ_jet":
        p = monotone_cubic(r)
        n = r.randint(1, 5)
        d = [math.factorial(j) * p.get(j, F(0)) for j in range(1, n + 1)]
        return {"argv": ["germ", "jet", "--h", "{h}", "--order", str(n), "--json"],
                "files": {"h": _germ_json(poly_sides(p))}, "exit": 0, "expect": d}
    if kind in ("cosets", "cosets_pm"):
        state["groups"] = state.get("groups", 0) + 1
        case = group_case(r, state["groups"] - 1)
        if kind == "cosets":
            argv, want = ["cosets", "{group}", "--C", "C", "--D", "D", "--json"], case["double"]
        else:
            argv, want = ["cosets", "{group}", "--pm", "--D", case["pm_sub"], "--json"], case["pm"]
        return {"argv": argv, "files": {"group": case["group"]}, "exit": 0,
                "expect": {"blocks": want}}
    if kind == "structure_wa":
        a, b = wa_pair(r)
        same = a == b
        return {"argv": ["structure", "same", "--h", "{h}", "--g", "{g}", "--k", str(r.randint(1, 3)), "--json"],
                "files": {"h": _wa_json(a), "g": _wa_json(b)}, "exit": 0 if same else 1,
                "expect": {"same": "true" if same else "false"}}
    if kind == "structure_poly":
        # g o h^-1 = w_a o h^-1 has one-sided slopes 1/h'(0) and a/h'(0)
        h = monotone_cubic(r, terms=2)
        a = _rat_not_one(r, F(1, 4), 6)
        return {"argv": ["structure", "same", "--h", "{h}", "--g", "{g}", "--k", "1", "--json"],
                "files": {"h": _germ_json(poly_sides(h)), "g": _wa_json(a)}, "exit": 1,
                "expect": {"same": "false"}}
    if kind == "join":
        charts = chain_spec(r, r.choice((2, 3)))
        images = charts["images"]
        spec_charts = [{"label": f"c{i}", "image": list(img)} for i, img in enumerate(images)]
        transitions = []
        for i, (lam, mu) in enumerate(charts["params"]):
            lo, hi = images[i + 1][0], images[i][1]
            fn = bent_map(lo, hi, lam, mu)
            if i == 0:
                # derived from chart maps: identity on chart 0, the bent map
                # sampled on the overlap for chart 1
                spec_charts[0]["map"] = "identity"
                spec_charts[1]["map"] = sampled(fn, lo, hi)
            else:
                transitions.append(dict(sampled(fn, lo, hi), between=[i, i + 1]))
        spec = {"charts": spec_charts, "transitions": transitions, "k": 1, "tol": 1e-3}
        return {"argv": ["join", "{spec}", "--json"], "files": {"spec": spec}, "exit": 0,
                "expect": {"image": [images[0][0], images[-1][1]]}}
    if kind == "verify":
        # Only smooth maps here: the CLI certifies the C^1 PCHIP interpolant of
        # the samples, which rounds a sampled corner off, so no sampled corner
        # has a verdict implied by its construction (chain_collapse verifies
        # real corners through callables).
        lo = r.uniform(-2.0, 2.0)
        hi = lo + r.uniform(0.5, 2.0)
        seam = r.uniform(lo + 0.3 * (hi - lo), lo + 0.7 * (hi - lo))
        lam, mu = transition_params(r)
        doc = sampled(bent_map(lo, hi, lam, mu), lo, hi, n=513, seams=(seam,))
        # PCHIP through 513 samples gets slopes right to about 1e-5, not to
        # the default 1e-6
        return {"argv": ["verify", "{map}", "--k", "1", "--tol", "1e-3", "--json"],
                "files": {"map": doc}, "exit": 0, "expect": {"passed": True}}
    raise ValueError(kind)


def stream(workload: str, seed: int):
    """Endless op stream: dicts with 'id', 'kind' and the kind's data."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    r = _rng(workload, seed)
    state: dict = {}
    i = 0
    if workload == "structure_queries":
        pool = [monotone_cubic(r) for _ in range(H_POOL)]
        while True:
            for kind in SQ_ROUND:
                yield dict(_sq_op(r, kind, pool, state), id=i, kind=kind)
                i += 1
    elif workload == "chain_collapse":
        while True:
            for kind in CC_ROUND:
                yield dict(_cc_op(r, kind, state), id=i, kind=kind)
                i += 1
    else:
        while True:
            for kind in CLI_ROUND:
                yield dict(_cli_op(r, kind, state), id=i, kind=kind)
                i += 1


def same_true_op(seed: int) -> dict:
    """A TRUE structure question on two polynomial diffeomorphism germs: g o
    h^-1 and its inverse are smooth. It takes seconds today (nested numeric
    inversion), so it runs in the traced pass of structure_queries, not in
    the timed window, where one such op swung ops_per_s by a third."""
    r = _rng("same_true", seed)
    return {"id": -1, "kind": "same_true", "h": monotone_cubic(r, terms=2),
            "g": monotone_cubic(r, terms=2), "k": 1, "expect": True}


def cli_probe_ops(seed: int) -> list:
    """The traced runs' CLI probe: one op per subcommand kind plus one
    polynomial `structure same`, which takes seconds where the others take
    milliseconds. It stays out of the timed cli_oneshot window: one such op
    in a 30 s window of 1 s processes swung ops_per_s by 17 % across seeds."""
    r = _rng("cli_probe", seed)
    state: dict = {}
    kinds = CLI_ROUND + ("structure_poly",)
    return [dict(_cli_op(r, kind, state), id=i, kind=kind) for i, kind in enumerate(kinds)]


ROUNDS = {"structure_queries": SQ_ROUND, "chain_collapse": CC_ROUND, "cli_oneshot": CLI_ROUND}


def take(workload: str, seed: int, n: int) -> list:
    it = stream(workload, seed)
    return [next(it) for _ in range(n)]


def warmup_ops(workload: str, seed: int) -> list:
    """One op of each regular kind, from a stream of its own (never timed)."""
    kinds = set(ROUNDS[workload])
    it = stream(workload, seed + 10_000_019)
    out: dict = {}
    while len(out) < len(kinds):
        op = next(it)
        out.setdefault(op["kind"], op)
    return list(out.values())
