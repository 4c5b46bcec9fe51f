"""Runners and checkers for the in-process workloads.

`run_*` makes the program calls of one op through the tracer and returns the
raw answer; `check_*` compares it with the answer the generator derived from
the op's construction and returns "ok", "undecided" or "wrong". Only the run
part is timed.
"""

from __future__ import annotations

import math

from twoorigins import cosets, dline, germs, join
from twoorigins.germs import Tri

import gen
from gen import OK, UNDECIDED, WRONG, close


def _sides_match(germ, want: dict) -> bool:
    """An exact germ's two side expansions against {"neg": {e: c}, "pos": ...}."""
    if not isinstance(germ, germs.Germ):
        return False
    for side in ("neg", "pos"):
        got = {t.exponent: t.coeff for t in getattr(germ, side).terms}
        exp = want[side]
        if set(got) != set(exp) or not all(close(got[e], exp[e]) for e in exp):
            return False
    return True


def _tri(answer: Tri, want: bool) -> str:
    if answer is Tri.INDETERMINATE:
        return UNDECIDED
    return OK if (answer is Tri.TRUE) == want else WRONG


def _counted(fn, T, key: str):
    """The benchmark-owned callable fn; when tracing, its calls are counted."""
    if not T.enabled:
        return fn

    def counted(x):
        T.count(key)
        return fn(x)
    return counted


# ---------------------------------------------------------------------------
# structure_queries

def _poly(T, p):
    return T.call("germs.poly_germ", germs.poly_germ, p)


def _wa(T, a):
    return T.call("germs.make_wa", germs.make_wa, a)


def _germ_callable(spec):
    kind, c = spec
    if kind == "corner":
        return lambda x: x + c * x * abs(x)
    return lambda x: x + c * math.sin(x)


def _numeric_germ(T, spec):
    fn = _counted(_germ_callable(spec), T, "germs.callable_evals")
    return T.call("germs.NumericGerm", germs.NumericGerm, fn, "preserving", "bench callable")


def run_structure(op, T):
    k = op["kind"]
    if k == "compose_wa":
        return T.call("germs.compose", germs.compose, _wa(T, op["a"]), _wa(T, op["b"]))
    if k == "compose_poly":
        return T.call("germs.compose", germs.compose, _poly(T, op["f"]), _poly(T, op["g"]))
    if k == "invert_wa":
        return T.call("germs.invert", germs.invert, _wa(T, op["a"]))
    if k == "invert_linear":
        h = T.call("germs.Germ.from_sides", germs.Germ.from_sides, [(-op["p"], 1)], [(op["q"], 1)])
        return T.call("germs.invert", germs.invert, h)
    if k == "jet":
        return T.call("germs.jet_of", germs.jet_of, _poly(T, op["p"]), op["order"])
    if k == "sandwich":
        jet = T.call("germs.jet_of", germs.jet_of, _poly(T, op["p"]), op["n"])
        return T.call("germs.sandwich_smoothness", germs.sandwich_smoothness,
                      jet, op["a"], op["b"], op["n"])
    if k == "classify":
        return (T.call("cosets.classify_wa_pair", cosets.classify_wa_pair, op["a"], op["b"], op["k"]),
                T.call("cosets.intersection_type", cosets.intersection_type, op["a"], op["b"], op["k"]))
    if k == "diffeo_classes":
        return T.call("dline.diffeo_classes", dline.diffeo_classes, op["a"], op["b"], op["k"])
    if k == "psi":
        d = T.call("dline.psi", dline.psi, op["a"])
        return d, T.call("dline.compose_diffeo", dline.compose_diffeo, d, d)
    if k == "group":
        group, subs = T.call("cosets.group_build", cosets.FiniteGroup.from_json, op["group"])
        dc = T.call("cosets.double_cosets", cosets.double_cosets, group, subs["C"], subs["D"])
        pm = T.call("cosets.pm_double_cosets", cosets.pm_double_cosets, group, subs[op["pm_sub"]])
        return dc, pm
    if k in ("same_true", "same_false"):
        h = _poly(T, op["h"] if k == "same_true" else op["poly"])
        g = _poly(T, op["g"]) if k == "same_true" else _wa(T, op["a"])
        return T.call("dline.same_structure", dline.same_structure, h, g, op["k"])
    if k == "same_false_callable":
        h = _numeric_germ(T, op["fn"])
        return T.call("dline.same_structure", dline.same_structure, h, _wa(T, op["a"]), 1)
    if k == "in_diff":
        return T.call("germs.in_diff", germs.in_diff, _poly(T, op["poly"]), op["k"])
    if k == "smooth_callable":
        return T.call("germs.smoothness_at_zero", germs.smoothness_at_zero,
                      _numeric_germ(T, op["fn"]), op["k"])
    raise ValueError(k)


def check_structure(op, out) -> str:
    k = op["kind"]
    if k in ("compose_wa", "compose_poly", "invert_wa", "invert_linear"):
        return OK if _sides_match(out, op["expect"]) else WRONG
    if k == "jet":
        want = op["expect"]
        good = all(close(a, b) for a, b in zip(out.pos, want)) and \
            all(close(a, b) for a, b in zip(out.neg, want)) and len(out.pos) == len(want)
        return OK if good else WRONG
    if k == "sandwich":
        return OK if out.max_order == op["expect"] else WRONG
    if k == "classify":
        cls_, itype = out
        return OK if cls_.nonempty == op["expect"] and itype == op["intersection"] else WRONG
    if k == "diffeo_classes":
        cls_, witnesses = out
        nonempty = {c for c, v in op["expect"].items() if v}
        return OK if cls_.nonempty == op["expect"] and set(witnesses) == nonempty else WRONG
    if k == "psi":
        d, square = out
        good = d.origin_action == dline.EXCHANGE and d.orientation == "reversing" and square.is_identity()
        return OK if good else WRONG
    if k == "group":
        dc, pm = out
        return OK if (len(dc.blocks), len(pm.blocks)) == (op["double"], op["pm"]) else WRONG
    if k in ("same_true", "same_false", "same_false_callable"):
        return _tri(out, op["expect"])
    if k == "in_diff":
        return OK if out is op["expect"] else WRONG
    if k == "smooth_callable":
        if out.max_order == op["expect"]:
            return OK
        return UNDECIDED if not out.conclusive else WRONG
    raise ValueError(k)


# ---------------------------------------------------------------------------
# chain_collapse

def _diffeo(T, fn, domain, n, seams=()):
    return T.call("join.NumericDiffeo.from_function", join.NumericDiffeo.from_function,
                  fn, domain, n=n, seams=seams)


def run_chain(op, T):
    k = op["kind"]
    if k == "collapse":
        images = op["images"]
        charts = tuple(join.IntervalChart(f"c{i}", img) for i, img in enumerate(images))
        maps, transitions = [], []
        for i, (lam, mu) in enumerate(op["params"]):
            lo, hi = images[i + 1][0], images[i][1]
            fn = gen.bent_map(lo, hi, lam, mu)
            maps.append(fn)
            transitions.append(_diffeo(T, _counted(fn, T, "join.transition_evals"), (lo, hi), 256))
        atlas = T.call("join.ChainAtlas", join.ChainAtlas, charts, tuple(transitions))
        res = T.call("join.collapse_chain", join.collapse_chain, atlas, k=op["k"])
        return res, maps
    if k == "glue_steep":
        fn = gen.steep_map(op["lo"], op["hi"], op["p"], op["w"])
        g = _diffeo(T, _counted(fn, T, "join.transition_evals"), (op["lo"], op["hi"]), 512)
        # no T.call: traced runs wrap join.glue_auto itself (see worker._trace)
        return join.glue_auto(g), fn
    if k in ("verify_smooth", "verify_corner"):
        fn = (gen.smooth_map(op["lo"], op["c"]) if k == "verify_smooth"
              else gen.corner_map(op["seam"], op["c"]))
        d = _diffeo(T, _counted(fn, T, "join.transition_evals"), (op["lo"], op["hi"]), 256,
                    seams=(op["seam"],))
        return T.call("join.verify_ck_numeric", join.verify_ck_numeric, d, op["k"])
    raise ValueError(k)


def check_chain(op, out) -> str:
    k = op["kind"]
    if k == "collapse":
        res, maps = out
        if not res.passed:
            return WRONG
        # the collapsed chart is one coordinate: r_i = r_{i+1} o g_i on overlaps
        images = op["images"]
        for i, g in enumerate(maps):
            lo, hi = images[i + 1][0], images[i][1]
            for t in (0.25, 0.5, 0.75):
                x = lo + t * (hi - lo)
                if abs(res.transitions[i](x) - res.transitions[i + 1](g(x))) > 1e-9:
                    return WRONG
        return OK
    if k == "glue_steep":
        p, g = out
        lo, hi = op["lo"], op["hi"]
        eps = p.glue.eps
        good = (eps < (hi - lo) / 8.0 and p.glue.lam > 0.0
                and p(lo + 0.5 * eps) == lo + 0.5 * eps
                and abs(p(hi - 0.5 * eps) - g(hi - 0.5 * eps)) <= 1e-12 * max(1.0, abs(hi)))
        return OK if good else WRONG
    return OK if out.passed == op["expect"] else WRONG
