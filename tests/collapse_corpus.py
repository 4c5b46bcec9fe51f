"""Dump a fixed corpus of chain collapses and two-chart joins to JSON.

Usage: python tests/collapse_corpus.py OUT.json
       python tests/collapse_corpus.py --diff A.json B.json

The corpus is 80 collapses and 40 two-chart joins built from
perfbench/gen.chain_spec (read only): seeds 0-39 with m = 2, 4, 8 charts by
seed mod 3, each collapsed at k = 1 and k = 2 with tol 1e-3, and for each
seed a two-chart spec joined with join_charts at k = 2. For every case the
dump holds the certificates, the steps and chart, the glue reports, the
collapse_to_json payload, and every transition's domain, seams and values at
31 interior points of its chart. Each two-chart join also holds trans_v at
the points where its pieces meet, y1 = g(b + eps) and y2 = g(c - eps), and
at y2's two neighbouring floats, one float at a time and in one array call. Each collapse also holds the workload's
check, evaluated a float at a time: r_i(x) and r_{i+1}(g_i(x)) at 0.25, 0.5
and 0.75 of every overlap. For each seed's chain, every transition's inverse
is evaluated at 1,201 points of its domain in one call and at 31 interior
points one float at a time, so large, small and scalar solves are covered.

It also holds the other op kinds of the chain_collapse workload, taken from
the first 120 ops of perfbench/gen.stream("chain_collapse", s) for
s = 0-9 and built as the workload builds them: 100 glue_steep glues, whose
steep transitions make glue_auto halve eps at least once (the thinnest
plateau bands), each with its glue report, a digest of its samples and its
values at 31 interior points; and 100 verify_smooth and 100 verify_corner
certificates, each at the op's order and again at orders 3 and 4, so that
every order a certificate reaches is covered.

Floats are written by repr, so two trees that compute the same bits write
the same bytes: run it on both and cmp. When they differ, --diff prints
every differing leaf of the two dumps, grouped by its field name (the last
key on its path) with a count per field, then every bool leaf that flips
(a certificate's "passed", say), the total, and last one line per field:
its count and its largest absolute and relative change, relative to the
larger magnitude of the two values. It exits 1 if any leaf differs and 0
when every leaf agrees.
"""

import hashlib
import json
import math
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import gen  # noqa: E402
from twoorigins import join  # noqa: E402

from record_fields import record_fields  # noqa: E402


def chain(seed: int, m: int) -> tuple:
    """The atlas of gen.chain_spec(seed, m) and its transitions' rules."""
    spec = gen.chain_spec(random.Random(seed), m)
    images = spec["images"]
    charts = tuple(join.IntervalChart(f"c{i}", img) for i, img in enumerate(images))
    fns, transitions = [], []
    for i, (lam, mu) in enumerate(spec["params"]):
        lo, hi = images[i + 1][0], images[i][1]
        fns.append(gen.bent_map(lo, hi, lam, mu))
        transitions.append(join.NumericDiffeo.from_function(fns[-1], (lo, hi), n=256))
    return join.ChainAtlas(charts, tuple(transitions)), fns


def overlap_checks(rs, atlas, fns) -> list:
    """[r_i(x), r_{i+1}(g_i(x))] as floats at 0.25, 0.5 and 0.75 of each
    overlap (a_{i+1}, b_i), one float at a time: the workload's own check."""
    out = []
    for i, fn in enumerate(fns):
        lo, hi = atlas.transitions[i].domain
        for t in (0.25, 0.5, 0.75):
            x = lo + t * (hi - lo)
            out.append([float(rs[i](x)), float(rs[i + 1](fn(x)))])
    return out


def maps(rs, charts) -> list:
    out = []
    for r, chart in zip(rs, charts):
        lo, hi = chart.image
        xs = np.linspace(lo, hi, 33)[1:-1]
        out.append({"domain": list(r.domain), "seams": list(r.seams),
                    "values": r(xs).tolist()})
    return out


def inverses(atlas) -> list:
    """Each transition's inverse at 1,201 points of its domain in one call,
    ends included, and at 31 interior points one float at a time."""
    out = []
    for g in atlas.transitions:
        inv = g.inverse()
        lo, hi = inv.domain
        out.append({"array": inv(np.linspace(lo, hi, 1201)).tolist(),
                    "floats": [inv(y) for y in np.linspace(lo, hi, 33)[1:-1].tolist()]})
    return out


def cut_points(res, g):
    """trans_v of a join along g at y1 = g(b + eps), y2's lower neighbouring
    float, y2 = g(c - eps) and its upper one; None for an identity g."""
    if res.glue is None:
        return None
    b, c = g.domain
    y2 = g(c - res.glue.eps)
    ys = [g(b + res.glue.eps), math.nextafter(y2, -math.inf), y2, math.nextafter(y2, math.inf)]
    return {"points": ys, "floats": [res.trans_v(y) for y in ys],
            "array": res.trans_v(np.array(ys)).tolist()}


def main(path: str) -> None:
    glues = []
    glue_auto = join.glue_auto

    def recorded(g, *args, **kwargs):
        p = glue_auto(g, *args, **kwargs)
        glues.append(record_fields(p.glue))
        return p

    join.glue_auto = recorded  # join calls it through the module global
    cases = []
    for seed in range(40):
        atlas, fns = chain(seed, (2, 4, 8)[seed % 3])
        for k in (1, 2):
            glues.clear()
            res = join.collapse_chain(atlas, k=k, tol=1e-3)
            cases.append({"collapse": [seed, k], "steps": [list(s) for s in res.steps],
                          "chart": [res.chart.label, list(res.chart.image)],
                          "cert": res.cert.to_json(),
                          "certs": [c.to_json() for c in res.certs],
                          "glues": list(glues), "json": join.collapse_to_json(res, atlas),
                          "maps": maps(res.transitions, atlas.charts),
                          "overlaps": overlap_checks(res.transitions, atlas, fns)})
        cases.append({"inverses": seed, "transitions": inverses(atlas)})
    for seed in range(40):
        atlas, _ = chain(seed, 2)
        res = join.join_charts(*atlas.charts, atlas.transitions[0], k=2)
        glue = None if res.glue is None else record_fields(res.glue)
        cases.append({"join": seed, "chart": [res.chart.label, list(res.chart.image)],
                      "passed": res.passed, "glue": glue,
                      "certs": [res.cert_u.to_json(), res.cert_v.to_json()],
                      "cut": cut_points(res, atlas.transitions[0]),
                      "maps": maps((res.trans_u, res.trans_v), atlas.charts)})
    for seed in range(10):
        for op in gen.take("chain_collapse", seed, 120):
            lo, hi = op.get("lo"), op.get("hi")
            if op["kind"] == "glue_steep":
                g = join.NumericDiffeo.from_function(
                    gen.steep_map(lo, hi, op["p"], op["w"]), (lo, hi), n=512)
                p = join.glue_auto(g)
                samples = np.array((p.xs, p.ys)).tobytes()
                cases.append({"glue_steep": [seed, op["id"]],
                              "glue": record_fields(p.glue),
                              "samples": hashlib.sha256(samples).hexdigest(),
                              "maps": maps((p,), (join.IntervalChart("g", (lo, hi)),))})
            elif op["kind"] in ("verify_smooth", "verify_corner"):
                fn = (gen.smooth_map(lo, op["c"]) if op["kind"] == "verify_smooth"
                      else gen.corner_map(op["seam"], op["c"]))
                d = join.NumericDiffeo.from_function(fn, (lo, hi), n=256, seams=(op["seam"],))
                cases.append({op["kind"]: [seed, op["id"]],
                              "cert": join.verify_ck_numeric(d, op["k"]).to_json(),
                              "higher": [join.verify_ck_numeric(d, k).to_json()
                                         for k in (3, 4)]})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cases, fh, sort_keys=True)
        fh.write("\n")


_MISSING = object()


def _differing(a, b, path=()):
    """(path, a leaf, b leaf) for every leaf where the two dumps differ; a
    key or list entry that only one side has is a leaf _MISSING on the other."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            yield from _differing(a.get(key, _MISSING), b.get(key, _MISSING), path + (key,))
    elif isinstance(a, list) and isinstance(b, list):
        for i in range(max(len(a), len(b))):
            yield from _differing(a[i] if i < len(a) else _MISSING,
                                  b[i] if i < len(b) else _MISSING, path + (i,))
    elif _leaf(a) != _leaf(b):
        yield path, a, b


def _leaf(value) -> str:
    return "<missing>" if value is _MISSING else json.dumps(value, sort_keys=True)


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _change(leaves) -> str:
    """The largest absolute and relative change among the numeric leaves,
    relative to the larger magnitude of the two."""
    pairs = [(x, y) for _, x, y in leaves if _number(x) and _number(y)]
    if not pairs:
        return "no numeric change"
    absolute = max(abs(y - x) for x, y in pairs)
    relative = max(abs(y - x) / max(abs(x), abs(y)) for x, y in pairs)
    return f"max abs change {absolute:.3g}, max rel change {relative:.3g}"


def diff(path_a: str, path_b: str) -> int:
    """Print the leaves where two dumps differ, grouped by field name, every
    bool leaf that flips, the total, and last one line per field with its
    count and its largest absolute and relative change; the exit code is 1
    if any leaf differs."""
    with open(path_a, encoding="utf-8") as fa, open(path_b, encoding="utf-8") as fb:
        a, b = json.load(fa), json.load(fb)
    fields: dict = {}
    for path, x, y in _differing(a, b):
        field = next((p for p in reversed(path) if isinstance(p, str)), "<top>")
        fields.setdefault(field, []).append((path, x, y))
    flips = []
    for field, leaves in sorted(fields.items()):
        print(f"{field}: {len(leaves)} differing")
        for path, x, y in leaves:
            where = "".join(f"[{p!r}]" for p in path)
            print(f"  {where}: {_leaf(x)} -> {_leaf(y)}")
            if isinstance(x, bool) or isinstance(y, bool):
                flips.append(f"flip {where}: {_leaf(x)} -> {_leaf(y)}")
    print("\n".join(flips) if flips else "no bool leaf flips")
    total = sum(map(len, fields.values()))
    print(f"{total} differing leaves in {len(fields)} fields")
    for field, leaves in sorted(fields.items()):
        print(f"{field}: {len(leaves)} differing, {_change(leaves)}")
    return 1 if total else 0


if __name__ == "__main__":
    if sys.argv[1] == "--diff":
        sys.exit(diff(sys.argv[2], sys.argv[3]))
    main(sys.argv[1])
