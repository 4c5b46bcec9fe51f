"""The cli_oneshot workload: one fresh `twoorigins` process per operation.

Ops come from gen.stream("cli_oneshot", seed). Each op's input files are
written under a work directory before its clock starts; the child is
`python -m twoorigins.cli <argv>` (the console script's entry point), or, in
the traced pass, traced_cli.py, which runs the same `cli.run(argv)` with
spans around the layer functions the CLI module calls.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from gen import OK, UNDECIDED, WRONG, close

HERE = Path(__file__).resolve().parent

#: Longest a single child may run before it counts as failed.
CHILD_TIMEOUT_S = 90.0

COMMAND_OF = {"classify": "classify", "psi": "psi", "germ_compose": "germ",
              "germ_invert": "germ", "germ_jet": "germ", "cosets": "cosets",
              "cosets_pm": "cosets", "structure_wa": "structure",
              "structure_poly": "structure", "join": "join", "verify": "verify"}


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env.pop("PYTHONSTARTUP", None)
    return env


def prepare(op: dict, workdir: Path) -> list[str]:
    """Write the op's input files and return its argv with paths filled in."""
    paths = {}
    for name, doc in op["files"].items():
        path = workdir / f"op{op['id']}_{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return [a.format(**paths) if a.startswith("{") else a for a in op["argv"]]


def run_child(argv: list[str], env: dict, spans_path: Path | None = None):
    """Run one CLI process; returns (exit code, stdout, wall seconds)."""
    if spans_path is None:
        cmd = [sys.executable, "-m", "twoorigins.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *argv]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    return proc.returncode, proc.stdout, time.perf_counter() - t0


def check(op: dict, code: int, stdout: str) -> str:
    """Exit code first, then the facts the JSON payload must state."""
    if code == 3:
        return UNDECIDED
    if code != op["exit"]:
        return WRONG
    try:
        payload = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return WRONG
    want, k = op["expect"], op["kind"]
    if k == "classify":
        good = payload["cells"] == want["cells"] and payload["intersection"] == want["intersection"]
    elif k == "psi":
        good = payload["origin_action"] == want["origin_action"] and all(payload["selfcheck"].values())
    elif k in ("germ_compose", "germ_invert"):
        good = all(
            {float(t["e"]): float(t["c"]) for t in payload[side]}
            == {float(e): float(c) for e, c in want[side].items()}
            for side in ("neg", "pos"))
    elif k == "germ_jet":
        good = all(len(payload[side]) == len(want)
                   and all(close(a, b) for a, b in zip(payload[side], want))
                   for side in ("neg", "pos"))
    elif k in ("cosets", "cosets_pm"):
        good = len(payload["blocks"]) == want["blocks"]
    elif k in ("structure_wa", "structure_poly"):
        good = payload["same"] == want["same"]
    elif k == "join":
        good = payload["cert"]["passed"] is True and payload["chart"]["image"] == want["image"]
    elif k == "verify":
        good = payload["passed"] is want["passed"]
    else:
        raise ValueError(k)
    return OK if good else WRONG


def traced_pass(ops, workdir: Path, env: dict):
    """Run ops through traced_cli.py; returns (verdicts, wall seconds, span
    lists, per-child records {command, import_ms, run_ms})."""
    verdicts, span_lists, records = [], [], []
    t0 = time.perf_counter()
    for op in ops:
        argv = prepare(op, workdir)
        spans_path = workdir / f"spans{op['id']}.json"
        try:
            code, out, _ = run_child(argv, env, spans_path)
        except subprocess.TimeoutExpired:
            verdicts.append("error")
            continue
        verdicts.append(check(op, code, out))
        doc = json.loads(spans_path.read_text())
        span_lists.append(doc["spans"])
        records.append({"command": COMMAND_OF[op["kind"]], "import_ms": doc["import_ms"],
                        "run_ms": doc["run_ms"]})
    return verdicts, time.perf_counter() - t0, span_lists, records


def process_probes(env: dict, repeats: int = 3) -> dict:
    """Interpreter start (`python -c pass`), the cumulative import time of
    twoorigins.join from -X importtime, and the number of modules importing
    the CLI loads."""
    starts = []
    for _ in range(2 * repeats - 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        starts.append(1000.0 * (time.perf_counter() - t0))
    code = ("import sys; n = len(sys.modules); import twoorigins.cli; "
            "print(len(sys.modules) - n)")
    join_ms, modules = [], None
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        modules = int(proc.stdout.strip())
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] == "twoorigins.join":
                join_ms.append(int(parts[1]) / 1000.0)
    return {"starts_ms": starts, "import_join_ms": join_ms, "modules_loaded": modules}
