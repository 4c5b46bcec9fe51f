"""Command line front end.

Subcommands mirror the library: `cosets`, `classify`, `germ`, `structure`,
`psi`, `join`, `verify`. Every command accepts --json for canonical
machine-readable output (sorted keys, compact separators, one line), which
round-trips byte-identically through json.loads/dumps.

Numbers are read exactly ('2', '0.5', '1/3', '1e400') and written as a float
where a float holds the value, as the exact rational string otherwise
(realnum.real_json), which every command reads back.

Exit codes are part of the interface:

* 0 - success / affirmative answer
* 1 - a definite negative mathematical answer (the report is still valid)
* 2 - input error: malformed JSON, unknown names, bad arguments
* 3 - numeric indeterminacy: the computation could not settle the question,
  or an internal error, reported as one line with no traceback

A reader that closes stdout early changes no exit code: the report is
written once the command is done, and a closed pipe then only discards it.

Each subcommand first imports the layers among cosets, dline and germs that
it calls (`_bind`), so a process compiles only those; errors, realnum and
join are imported here.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import sys
from fractions import Fraction

from .errors import (DomainError, GlueInfeasible, IncompatiblePresentations,
                     NotJoinable, TwoOriginsError)
from .join import (NumericDiffeo, chain_from_json, collapse_chain,
                   collapse_to_json, verify_ck_numeric)
from .realnum import parse_fraction, real_json, real_sqrt

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3
#: Largest input file read, in characters; json.loads holds a germ this long in about 25 MB.
_MAX_FILE_CHARS = 4 * 2 ** 20

#: The names the subcommands read from the layers they load on demand, by
#: module. classify_wa_pair is here for the benchmark's traced run, which
#: wraps it by name on this module, though no subcommand calls it.
_LAYER_NAMES = {
    "cosets": ("CELLS", "FiniteGroup", "classify_wa_pair", "double_cosets", "intersection_type",
               "pm_double_cosets"),
    "dline": ("_transition", "classification_to_json", "compose_diffeo", "diffeo_classes", "psi",
              "same_structure"),
    "germs": ("NONEXISTENT", "Germ", "NumericGerm", "Tri", "compose", "germ_from_json",
              "germ_match", "germ_to_json", "invert", "jet_of", "smoothness_at_zero"),
}


def _bind(*modules) -> None:
    """Import these layers and bind their _LAYER_NAMES here; a name already
    bound, by an earlier call or by a wrapper set on this module, stays."""
    for module in modules:
        layer = importlib.import_module(f".{module}", __package__)
        for name in _LAYER_NAMES[module]:
            globals().setdefault(name, getattr(layer, name))


def __getattr__(name):
    # getattr(cli, name) and hasattr see the _LAYER_NAMES before any subcommand ran
    for module, names in _LAYER_NAMES.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _print_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _rational(text: str) -> Fraction:
    """Exact parse of CLI numbers: '2', '0.5' and '1/3' all stay rational.
    The commands echo the number, so Python must be able to print it."""
    try:
        x = parse_fraction(text)
        str(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a number, or too many digits: {text!r}") from exc
    return x


def _entry_json(v):
    if v is NONEXISTENT:
        return "nonexistent"
    if v is None:
        return None
    return real_json(v)


def _parse_file(path: str, parse):
    """parse applied to the JSON in path; a DomainError it raises, of
    whatever subclass, names the file, as does the refusal of a long file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # 64 KiB at a time: one read of the whole bound would allocate all of it
            text = "".join(fh.read(2 ** 16) for _ in range(_MAX_FILE_CHARS // 2 ** 16 + 1))
        if len(text) <= _MAX_FILE_CHARS:
            data = json.loads(text)
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # also bad UTF-8 and an integer past Python's digit limit
        raise DomainError(f"{path}: invalid JSON: {exc}") from exc
    if len(text) > _MAX_FILE_CHARS:
        raise DomainError(f"{path}: more than {_MAX_FILE_CHARS} characters")
    try:
        return parse(data)
    except DomainError as exc:
        exc.args = (f"{path}: {exc}",) + exc.args[1:]
        raise


def _germ_text(g: Germ) -> str:
    d = germ_to_json(g)

    def num(x):
        return f"{x:g}" if isinstance(x, float) else x

    def side(terms, var):  # a side has at least one term
        return " + ".join(f"{num(t['c'])}*{var}^{num(t['e'])}" for t in terms)

    return (f"neg: {side(d['neg'], '(-x)')}   pos: {side(d['pos'], 'x')}   "
            f"[{d['orientation']}]")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_cosets(args) -> int:
    _bind("cosets")
    group, subgroups = _parse_file(args.group, FiniteGroup.from_json)

    def sub(name):
        if name not in subgroups:
            raise DomainError(
                f"unknown subgroup {name!r}; the file defines {sorted(subgroups)}")
        return subgroups[name]

    if args.pm:
        part = pm_double_cosets(group, sub(args.D))
        title = f"({args.D}, +/-) double cosets of {group.name}"
    else:
        if args.C is None:
            raise DomainError("--C is required unless --pm is given")
        part = double_cosets(group, sub(args.C), sub(args.D))
        title = f"{args.C}\\{group.name}/{args.D} double cosets"

    if args.json:
        _print_json(part.to_json())
    else:
        print(title)
        for block in part.named_blocks():
            print("  {" + ", ".join(block) + "}")
    return EXIT_OK


def _cmd_classify(args) -> int:
    _bind("cosets", "dline")
    cls_, witnesses = diffeo_classes(args.a, args.b, args.k)
    itype = intersection_type(args.a, args.b, args.k)
    if args.json:
        payload = classification_to_json(cls_, witnesses)
        payload["a"] = real_json(args.a)
        payload["b"] = real_json(args.b)
        payload["k"] = args.k
        payload["intersection"] = itype
        _print_json(payload)
    else:
        print(f"structures w_a, w_b with a={args.a}, b={args.b} (order {args.k})")
        width = max(len(cls_.witness_kind.get(c, "")) for c in CELLS)
        width = max(width, len("(empty)"))

        def cell(c):
            return (cls_.witness_kind[c] if cls_.nonempty[c] else "(empty)").ljust(width)

        print(f"  {'':10s} {'preserving':<{width}s} {'reversing':<{width}s}")
        print(f"  {'fix':10s} {cell('fix+')} {cell('fix-')}")
        print(f"  {'exchange':10s} {cell('ex+')} {cell('ex-')}")
        print(f"  intersection_type: {itype}")
    return EXIT_OK if cls_.any_nonempty() else EXIT_NEGATIVE


def _cmd_germ(args) -> int:
    _bind("germs")
    if args.germ_op != "jet":
        if args.germ_op == "compose":
            g, h = _parse_file(args.g, germ_from_json), _parse_file(args.h, germ_from_json)
            out, what = compose(g, h), "composite"
        else:
            out, what = invert(_parse_file(args.h, germ_from_json)), "inverse"
        if isinstance(out, NumericGerm):
            print(f"the {what} is not closed-form representable; its jets "
                  "are only available numerically", file=sys.stderr)
            return EXIT_NUMERIC
        if args.json:
            _print_json(germ_to_json(out))
        else:
            print(_germ_text(out))
        return EXIT_OK
    jet = jet_of(_parse_file(args.h, germ_from_json), args.order)
    if args.json:
        _print_json({"order": jet.order,
                     "neg": [_entry_json(v) for v in jet.neg],
                     "pos": [_entry_json(v) for v in jet.pos]})
    else:
        for j in range(jet.order):
            print(f"  f^({j + 1})(0-) = {_entry_json(jet.neg[j])}    "
                  f"f^({j + 1})(0+) = {_entry_json(jet.pos[j])}")
    return EXIT_OK


def _obstruction_payload(rep):
    if rep.obstruction is None:
        return None
    o = rep.obstruction
    return {"order": o.order, "neg": _entry_json(o.neg), "pos": _entry_json(o.pos)}


def _transition_report(h, g, k):
    """max_order and obstruction payload of g o h^-1 at order k; Nones where either raises."""
    try:
        rep = smoothness_at_zero(_transition(h, g, k), k)
        return rep.max_order, _obstruction_payload(rep)
    except DomainError:
        return None, None


def _cmd_structure(args) -> int:
    """same_structure's verdict, with dline._transition's reports of g o h^-1 and h o g^-1."""
    _bind("dline", "germs")
    h = _parse_file(args.h, germ_from_json)
    g = _parse_file(args.g, germ_from_json)
    verdict = same_structure(h, g, args.k)
    max_order, obstruction = _transition_report(h, g, args.k)
    payload = {
        "same": verdict.value,
        "k": args.k,
        "max_order": max_order,
        "obstruction": obstruction,
        # same structures make q^-1 C^k by the inverse function theorem
        "inverse_obstruction": None if verdict is Tri.TRUE else _transition_report(g, h, args.k)[1],
    }

    if args.json:
        _print_json(payload)
    else:
        print(f"same C^{args.k} structure: {payload['same']}")
        for key in ("obstruction", "inverse_obstruction"):
            o = payload[key]
            if o is not None:
                print(f"  {key} at order {o['order']}: "
                      f"{o['neg']} vs {o['pos']}")
    if verdict is Tri.TRUE:
        return EXIT_OK
    if verdict is Tri.FALSE:
        return EXIT_NEGATIVE
    return EXIT_NUMERIC


def _cmd_psi(args) -> int:
    _bind("dline", "germs")
    d = psi(args.a)
    payload = {
        "a": real_json(args.a),
        "origin_action": d.origin_action,
        "restriction": germ_to_json(d.restriction),
        "presentations": {"a": germ_to_json(d.pres_a), "b": germ_to_json(d.pres_b)},
    }
    ok = True
    if args.selfcheck:
        root = real_sqrt(args.a)
        inv_root = 1 / root
        # pres_a is x -> -x/sqrt(a); its inverse is x -> -sqrt(a)*x, i.e. pres_b
        want_a = Germ.from_sides([(inv_root, 1)], [(-inv_root, 1)])
        square = compose_diffeo(d, d)
        checks = {
            "square_is_identity": square.is_identity(),
            "pres_a_closed_form": germ_match(d.pres_a, want_a) is Tri.TRUE,
            "pres_b_closed_form": germ_match(
                d.pres_b, invert(want_a)) is Tri.TRUE,
            "certificate": d.certificate is Tri.TRUE,
        }
        ok = all(checks.values())
        payload["selfcheck"] = checks
    if args.json:
        _print_json(payload)
    else:
        print(f"psi({args.a}): exchanges the origins, reverses orientation")
        print(f"  restriction: {_germ_text(d.restriction)}")
        print(f"  presentation a: {_germ_text(d.pres_a)}")
        print(f"  presentation b: {_germ_text(d.pres_b)}")
        if args.selfcheck:
            for name, val in payload["selfcheck"].items():
                print(f"  {name}: {'ok' if val else 'FAILED'}")
    return EXIT_OK if ok else EXIT_NEGATIVE


def _print_cert(cert, indent: str) -> None:
    print(f"{indent}C^{cert.order} certificate: {'passed' if cert.passed else 'FAILED'}")
    print(f"  residuals: {', '.join(f'{r:.3e}' for r in cert.residuals)}"
          f"  (tolerances {', '.join(f'{t:.0e}' for t in cert.tolerances)})")
    print(f"  min slope: {cert.min_slope:.6f}")


def _cmd_join(args) -> int:
    atlas, k, tol = _parse_file(args.spec, chain_from_json)
    if args.k is not None:
        k = args.k
    if args.tol is not None:
        tol = args.tol
    result = collapse_chain(atlas, k=k, tol=tol)
    payload = collapse_to_json(result, atlas)
    if args.json:
        _print_json(payload)
    else:
        a, b = result.chart.image
        print(f"joined {len(atlas.charts)} charts onto ({a}, {b})")
        _print_cert(result.cert, "  ")
    return EXIT_OK if result.passed else EXIT_NEGATIVE


def _cmd_verify(args) -> int:
    nd = _parse_file(args.map, NumericDiffeo.from_json)
    cert = verify_ck_numeric(nd, args.k, args.tol)
    if args.json:
        _print_json(cert.to_json())
    else:
        _print_cert(cert, "")
    return EXIT_OK if cert.passed else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoorigins",
        description="Differentiable structures on the line with two origins.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true",
                       help="canonical machine-readable output")

    p = sub.add_parser("cosets", help="double cosets in a finite group")
    p.add_argument("group", help="group JSON (elements, table, subgroups)")
    p.add_argument("--C", help="left subgroup name")
    p.add_argument("--D", required=True, help="right subgroup name")
    p.add_argument("--pm", action="store_true",
                   help="signed double cosets DhD u Dh^-1D instead of C\\H/D")
    add_json(p)
    p.set_defaults(func=_cmd_cosets)

    p = sub.add_parser("classify", help="symmetry cells between w_a and w_b")
    p.add_argument("--a", type=_rational, required=True)
    p.add_argument("--b", type=_rational, required=True)
    p.add_argument("--k", type=int, default=1)
    add_json(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("germ", help="germ algebra on JSON germs")
    gsub = p.add_subparsers(dest="germ_op", required=True)
    pc = gsub.add_parser("compose", help="g after h")
    pc.add_argument("--g", required=True)
    pc.add_argument("--h", required=True)
    add_json(pc)
    pc.set_defaults(func=_cmd_germ)
    pi = gsub.add_parser("invert", help="inverse germ")
    pi.add_argument("--h", required=True)
    add_json(pi)
    pi.set_defaults(func=_cmd_germ)
    pj = gsub.add_parser("jet", help="one-sided derivatives at 0")
    pj.add_argument("--h", required=True)
    pj.add_argument("--order", type=int, default=1)
    add_json(pj)
    pj.set_defaults(func=_cmd_germ)

    p = sub.add_parser("structure", help="compare differentiable structures")
    ssub = p.add_subparsers(dest="structure_op", required=True)
    ps = ssub.add_parser("same", help="do h and g induce the same structure?")
    ps.add_argument("--h", required=True, help="transition germ JSON")
    ps.add_argument("--g", required=True, help="transition germ JSON")
    ps.add_argument("--k", type=int, default=1)
    add_json(ps)
    ps.set_defaults(func=_cmd_structure)

    p = sub.add_parser("psi", help="the canonical origin-exchanging involution")
    p.add_argument("--a", type=_rational, required=True)
    p.add_argument("--selfcheck", action="store_true",
                   help="verify the involution and its closed forms")
    add_json(p)
    p.set_defaults(func=_cmd_psi)

    p = sub.add_parser("join", help="collapse a chain-of-charts JSON spec")
    p.add_argument("spec", help="join spec JSON (charts, transitions, k)")
    p.add_argument("--k", type=int, default=None, help="override the spec's order")
    p.add_argument("--tol", type=float, default=None,
                   help="flat per-order tolerance override")
    add_json(p)
    p.set_defaults(func=_cmd_join)

    p = sub.add_parser("verify", help="certify a sampled map at order k")
    p.add_argument("map", help="map JSON: {samples: [[x, y], ...], seams: [...]}")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--tol", type=float, default=None)
    add_json(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def _write_stdout(text: str) -> None:
    """Write text to stdout and flush it. When the reader has closed the
    pipe, stdout's descriptor is pointed at os.devnull instead, as the note
    on SIGPIPE in the signal module's documentation advises, so that the
    flush at exit raises nothing."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def run(argv) -> int:
    """Parse argv and execute; returns the exit code instead of raising.
    What the command prints to stdout is held until it returns, so that a
    closed pipe cannot interrupt it: the exit code is the command's."""
    stdout, sys.stdout = sys.stdout, io.StringIO()
    try:
        return _run(argv)
    finally:
        text, sys.stdout = sys.stdout.getvalue(), stdout
        _write_stdout(text)


def _run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NotJoinable as exc:
        print(f"not joinable: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except GlueInfeasible as exc:
        print(f"glue infeasible: {exc} (eps={exc.eps}, mass={exc.mass:.3e})",
              file=sys.stderr)
        return EXIT_NUMERIC
    except IncompatiblePresentations as exc:
        print(f"incompatible presentations: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except DomainError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OverflowError as exc:
        # here only a float conversion overflows: the input is too large
        print(f"input error: {exc}; a value is out of float range", file=sys.stderr)
        return EXIT_INPUT
    except TwoOriginsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a fault of the program, not an answer: never exit 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
