"""Dump a fixed corpus of exact-layer results and CLI runs to JSON.

Usage: python tests/structure_corpus.py OUT.json

The corpus is the 600 ops of perfbench/gen.take("structure_queries", s, 200)
for s = 1, 2, 3, run in process through perfbench/ops.run_structure (read
only), and the first 100 ops of gen.stream("cli_oneshot", s) for s = 20-25,
run through twoorigins.cli.run. Each structure result is written as a
stable repr: dataclasses field by field, floats by repr, and a NumericGerm,
whose callable has no stable repr, as its orientation and provenance plus
its values at 16 fixed dyadic points. Each CLI run is written as its exit
code, stdout and stderr, with the input files' directory shown as <dir>.
Two trees that compute the same bits write the same bytes: run it on both
and cmp.
"""

import contextlib
import dataclasses
import enum
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402
import oneshot  # noqa: E402
import ops  # noqa: E402
import spans  # noqa: E402
from twoorigins import cli  # noqa: E402
from twoorigins.germs import NumericGerm  # noqa: E402

#: Where numeric germs are read: +-2^-4, 2^-8, ..., 2^-32.
POINTS = tuple(s * 2.0 ** -k for k in range(4, 36, 4) for s in (-1.0, 1.0))


def stable(obj):
    if isinstance(obj, NumericGerm):
        return {"NumericGerm": [obj.orientation, obj.provenance,
                                [repr(obj.fn(x)) for x in POINTS]]}
    if dataclasses.is_dataclass(obj):
        return {type(obj).__name__: {f.name: stable(getattr(obj, f.name))
                                     for f in dataclasses.fields(obj)}}
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


def cli_cases(workdir: Path) -> list:
    cases = []
    for seed in range(20, 26):
        it = gen.stream("cli_oneshot", seed)
        for _ in range(100):
            op = next(it)
            argv = oneshot.prepare(op, workdir)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
            cases.append({"cli": [seed, op["id"], op["kind"]], "exit": code,
                          "stdout": out.getvalue().replace(str(workdir), "<dir>"),
                          "stderr": err.getvalue().replace(str(workdir), "<dir>")})
    return cases


def main(path: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cases = structure_cases() + cli_cases(Path(tmp))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cases, fh, sort_keys=True, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1])
