"""Dump a fixed corpus of exact-layer results and CLI runs to JSON.

Usage: python tests/structure_corpus.py OUT.json

The corpus is the 600 ops of perfbench/gen.take("structure_queries", s, 200)
for s = 1, 2, 3, run in process through perfbench/ops.run_structure (read
only), and the first 100 ops of gen.stream("cli_oneshot", s) for s = 20-25,
run through twoorigins.cli.run, and the fixed boundary PROBES below. Each
structure result is written as a stable repr: value types field by field,
floats by repr, and a NumericGerm, whose callable has no stable repr, as its
orientation and provenance plus its values at 16 fixed dyadic points. Each
CLI run is written as its exit code, stdout and stderr, with the input
files' directory shown as <dir>, or as the exception it raised. The
numeric-inverse block inverts the six pool cubics of each of those seeds
and 20 fixed s (x + c sin x) callables, and reads each inverse at
INVERSE_POINTS in order and then reversed, and a fresh one reversed; it
ends with a germ that folds: the error text of its inverse and the
outcome of dline.same_structure of the fold with itself at k = 1, 2, 3
(the verdict, or the error text). The composition block
composes every ordered pair of COMPOSED, germs the benchmark never draws.
The rejected-group block records the error text of one-entry changes of
the benchmark's groups and of two degenerate 64-element tables.
Two trees that compute the same bits write the same bytes: run it on both
and cmp.
"""

import contextlib
import enum
import io
import json
import math
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402
import oneshot  # noqa: E402
import ops  # noqa: E402
import spans  # noqa: E402
from twoorigins import cli, cosets, dline, germs  # noqa: E402
from twoorigins.germs import NumericGerm  # noqa: E402

from record_fields import record_fields  # noqa: E402

#: Where numeric germs are read: +-2^-4, 2^-8, ..., 2^-32.
POINTS = tuple(s * 2.0 ** -k for k in range(4, 36, 4) for s in (-1.0, 1.0))


#: Where numeric inverses are read: NumericGerm's validation samples
#: +-2^-2 .. +-2^-15, +-2^-40, +-2^-65, then the Richardson stencil nodes
#: +-i*h, i = 1..4, h in germs._RICH_STEPS, each point once.
INVERSE_POINTS = tuple(dict.fromkeys(
    [s * 2.0 ** -j for s in (-1.0, 1.0) for j in (*range(2, 16), 40, 65)]
    + [s * i * h for s in (-1.0, 1.0) for h in germs._RICH_STEPS for i in range(1, 5)]))


def stable(obj):
    if isinstance(obj, NumericGerm):
        return {"NumericGerm": [obj.orientation, obj.provenance,
                                [repr(obj.fn(x)) for x in POINTS]]}
    fields = record_fields(obj)
    if fields is not None:
        return {type(obj).__name__: {name: stable(v) for name, v in fields.items()}}
    if isinstance(obj, enum.Enum):
        return repr(obj)
    if isinstance(obj, (tuple, list)):
        return [stable(v) for v in obj]
    if isinstance(obj, dict):
        return {repr(k): stable(v) for k, v in obj.items()}
    return repr(obj)


def structure_cases() -> list:
    cases = []
    for seed in (1, 2, 3):
        for op in gen.take("structure_queries", seed, 200):
            try:
                out = stable(ops.run_structure(op, spans.NullTracer()))
            except Exception as exc:  # a raise is a result too
                out = {"raised": f"{type(exc).__name__}: {exc}"}
            cases.append({"structure": [seed, op["id"], op["kind"]], "result": out})
    return cases


def _sine(s: float, c: float):
    return NumericGerm(lambda x: s * (x + c * math.sin(x)),
                       germs.PRESERVING if s > 0 else germs.REVERSING, "corpus callable")


def _raised(fn, *args, shown=lambda out: "returned") -> str:
    try:
        out = fn(*args)
    except Exception as exc:  # the error text is the result
        return f"{type(exc).__name__}: {exc}"
    return shown(out)


def _pool(seed: int) -> list:
    """The six cubics gen.stream("structure_queries", seed) draws first."""
    r = gen._rng("structure_queries", seed)
    return [gen.monotone_cubic(r) for _ in range(gen.H_POOL)]


def inverse_cases() -> list:
    germs_ = [(f"cubic {seed}.{i}", germs.poly_germ(p))
              for seed in (1, 2, 3) for i, p in enumerate(_pool(seed))]
    germs_ += [(f"sine {(-1) ** i} {i}/11-0.9", _sine((-1.0) ** i, i / 11 - 0.9))
               for i in range(20)]
    cases = []
    for name, h in germs_:
        inverse = germs.invert(h)
        reads = [inverse.fn(y) for y in INVERSE_POINTS + INVERSE_POINTS[::-1]]
        fresh = germs.invert(h)
        reads += [fresh.fn(y) for y in INVERSE_POINTS[::-1]]
        cases.append({"inverse": name, "orientation": inverse.orientation,
                      "values": [repr(v) for v in reads]})
    fold = germs.poly_germ({1: 1, 2: 10})
    cases.append({"inverse": "fold", "raised": _raised(germs.invert, fold), "same_structure": [
        _raised(dline.same_structure, fold, fold, k, shown=repr) for k in (1, 2, 3)]})
    return cases


#: Fractional exponents with denominators 2 and 3, float coefficients (which
#: no germ file carries), the pair whose composite loses its t^2 term, and
#: outer powers whose expansion reaches germs._TERM_CAP terms (x^511 after
#: x + x^2) or passes it (x^513 after x + x^2).
COMPOSED = {
    "x + x^2": germs.poly_germ({1: 1, 2: 1}),
    "x - x^2": germs.poly_germ({1: 1, 2: -1}),
    "0.1x + 0.3x^2": germs.Germ.from_sides([(-0.1, 1), (0.3, 2)], [(0.1, 1), (0.3, 2)]),
    "mixed floats": germs.Germ.from_sides([(F(-1, 3), 1), (0.3, 2)],
                                          [(F(1, 3), 1), (0.1, F(5, 2)), (F(-2, 7), 3)]),
    "fractional": germs.Germ.from_sides([(-2, 1), (F(1, 3), F(4, 3)), (F(-5, 2), F(5, 2))],
                                        [(F(3, 2), 1), (F(-1, 2), F(3, 2)), (F(2, 3), F(7, 3))]),
    "fractional monomials": germs.Germ.from_sides([(F(-9, 4), F(3, 2))], [(F(8, 27), F(1, 3))]),
    "reversing": germs.Germ.from_sides([(F(1, 2), 1), (F(1, 5), 3)],
                                       [(-2, 1), (F(-3, 7), F(5, 3))]),
    "x^511": germs.poly_germ({511: 1}),
    "x^513": germs.poly_germ({513: 1}),
    "x + x^512/2": germs.poly_germ({1: 1, 512: F(1, 2)}),
}


def composition_cases() -> list:
    cases = []
    for gname, g in COMPOSED.items():
        for hname, h in COMPOSED.items():
            try:
                out = stable(germs.compose(g, h))
            except Exception as exc:  # a raise is a result too
                out = {"raised": f"{type(exc).__name__}: {exc}"}
            cases.append({"compose": [gname, hname], "result": out})
    return cases


def _degenerate(fill: int) -> dict:
    """64 elements, x0 the identity and x * y = x<fill> for x, y != x0."""
    names = [f"x{v}" for v in range(64)]
    return {"name": f"degenerate {fill}", "elements": names,
            "table": [[j if i == 0 else i if j == 0 else fill for j in range(64)]
                      for i in range(64)]}


def rejected_group_cases() -> list:
    """Each group of gen.GROUP_SPECS with one entry changed per row, at
    column (7i + 3) mod n and to (v + 1 + i mod (n - 1)) mod n, never v, and
    the two degenerate 64-element tables, with the error each raises."""
    tables = [gen.group_case(gen._rng("structure_queries", 0), i)["group"]
              for i in range(len(gen.GROUP_SPECS))]
    cases = []
    for spec in tables:
        n = len(spec["elements"])
        for i in range(n):
            j = (7 * i + 3) % n
            table = [list(row) for row in spec["table"]]
            table[i][j] = (table[i][j] + 1 + i % (n - 1)) % n
            changed = {**spec, "table": table, "subgroups": {}}
            cases.append({"group": [spec["name"], i, j, table[i][j]],
                          "raised": _raised(cosets.FiniteGroup.from_json, changed)})
    for fill in (0, 1):
        cases.append({"group": [f"degenerate {fill}"],
                      "raised": _raised(cosets.FiniteGroup.from_json, _degenerate(fill))})
    return cases


def run_cli(argv: list, workdir: Path) -> dict:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except Exception as exc:  # a traceback is a result too
        return {"raised": f"{type(exc).__name__}: {exc}".replace(str(workdir), "<dir>")}
    return {"exit": code, "stdout": out.getvalue().replace(str(workdir), "<dir>"),
            "stderr": err.getvalue().replace(str(workdir), "<dir>")}


def cli_cases(workdir: Path) -> list:
    cases = []
    for seed in range(20, 26):
        it = gen.stream("cli_oneshot", seed)
        for _ in range(100):
            op = next(it)
            argv = oneshot.prepare(op, workdir)
            cases.append({"cli": [seed, op["id"], op["kind"]], **run_cli(argv, workdir)})
    return cases


def _germ(neg: list, pos: list) -> bytes:
    return json.dumps({"neg": [{"c": c, "e": e} for c, e in neg],
                       "pos": [{"c": c, "e": e} for c, e in pos],
                       "orientation": "preserving"}).encode()


def _wa(a) -> bytes:
    return _germ([(-1, 1)], [(a, 1)])


def _join(chart_map) -> bytes:
    return json.dumps({"charts": [{"image": [0, 2], "map": chart_map},
                                  {"image": [1, 3], "map": "identity"}]}).encode()


#: CLI runs at the float range and Python's digit limit: name -> (argv with
#: {name} placeholders, the input files' bytes). Exact strings such as
#: "1e400" are germ coefficients that no float holds.
PROBES = {
    "psi_1e400": (["psi", "--a", "1e400"], {}),
    "psi_1e400_json": (["psi", "--a", "1e400", "--selfcheck", "--json"], {}),
    "psi_2e400": (["psi", "--a", "2e400", "--json"], {}),
    "psi_1e4400": (["psi", "--a", "1e4400"], {}),
    "psi_1e4400_json": (["psi", "--a", "1e4400", "--json"], {}),
    "classify_1e4400": (["classify", "--a", "1e4400", "--b", "2"], {}),
    "classify_1e4400_json": (["classify", "--a", "1e4400", "--b", "2", "--json"], {}),
    "invert_1e400_json": (["germ", "invert", "--h", "{h}", "--json"], {"h": _wa("1e400")}),
    "invert_1e-400": (["germ", "invert", "--h", "{h}"], {"h": _wa("1e-400")}),
    "jet_1e400_json": (["germ", "jet", "--h", "{h}", "--order", "1", "--json"],
                       {"h": _wa("1e400")}),
    "compose_1e400_w2": (["germ", "compose", "--g", "{g}", "--h", "{h}"],
                         {"g": _wa("1e400"), "h": _wa(2)}),
    "same_w2_w1e400_json": (["structure", "same", "--h", "{h}", "--g", "{g}", "--json"],
                            {"h": _wa(2), "g": _wa("1e400")}),
    "same_w2_poly_json": (["structure", "same", "--k", "2", "--h", "{h}", "--g", "{g}", "--json"],
                          {"h": _wa(2), "g": _germ([(-1, 1), ("1e400", 2)], [(1, 1), ("1e400", 2)])}),
    "germ_5001_digits": (["germ", "invert", "--h", "{h}"],
                         {"h": b'{"neg": [{"c": -1, "e": 1}], "pos": [{"c": ' + b"1" * 5001
                               + b', "e": 1}], "orientation": "preserving"}'}),
    "germ_bad_utf8": (["germ", "invert", "--h", "{h}"], {"h": b'{"neg": "\xff"}'}),
    "join_affine_int": (["join", "{s}"], {"s": _join({"affine": 5})}),
    "join_affine_str": (["join", "{s}"], {"s": _join({"affine": ["x", 1]})}),
    "join_affine_short": (["join", "{s}"], {"s": _join({"affine": [1]})}),
}


def probe_cases(workdir: Path) -> list:
    cases = []
    for name, (argv, files) in PROBES.items():
        paths = {}
        for fname, data in files.items():
            paths[fname] = workdir / f"probe_{name}_{fname}.json"
            paths[fname].write_bytes(data)
        argv = [a.format(**paths) if a.startswith("{") else a for a in argv]
        cases.append({"probe": name, **run_cli(argv, workdir)})
    return cases


def main(path: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cases = (structure_cases() + inverse_cases() + composition_cases()
                 + rejected_group_cases() + cli_cases(Path(tmp)) + probe_cases(Path(tmp)))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cases, fh, sort_keys=True, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1])
