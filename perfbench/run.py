"""Benchmark for twoorigins: end-to-end metrics, or per-layer ones when traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

* cli_oneshot        one fresh `twoorigins` process per op, all seven subcommands
* structure_queries  in-process germs, dline and cosets questions
* chain_collapse     in-process collapse_chain, glue_auto and verify_ck_numeric

Each run starts a worker process that sets up (import, input generation,
warm-up) and then runs seeded ops one at a time for S seconds, checking every
answer against the one implied by how its input was built. Two more workers
only set up, so setup_s is a median of three. Times are reported at the
speed of a fixed reference loop run between ops (calib.py), because the
machine's own speed drifts; the raw times are in the record. With --trace 1
the worker also replays the same ops with spans around every layer call and
reports per-layer metrics and the tracing overhead instead.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}. The line before it holds the environment record; the full
record, with every latency, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import calib
from gen import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_SAMPLES = 3
#: A worker that runs far past its window is stopped and the run fails.
WORKER_GRACE_S = 150.0


def _worker(workload, seed, seconds, trace, setup_only=False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds),
           "1" if trace else "0"]
    refs_before = calib.samples(calib.SETUP_REFS)
    spawned_at = time.monotonic()
    cmd.append(repr(spawned_at))
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=seconds + WORKER_GRACE_S, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {workload} exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_refs_ms"] = refs_before + out["setup_refs_ms"]
    out["scaled_setup_s"] = out["setup_s"] * calib.factor(out["setup_refs_ms"])
    return out


def tail(lat_ms: list) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten ops beyond it:
    (value, percentile, ops beyond). With ten ops or fewer it is the maximum."""
    xs = sorted(lat_ms)
    k = max(len(xs) - 11, 0) if len(xs) > 10 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - k - 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
    except OSError:  # no git on this machine
        return "unknown (no git)"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "not installed"


def environment(args, ops: int, tail_pct: float, tail_beyond: int, refs_ms: list) -> dict:
    return {"python": platform.python_version(), "numpy": _version("numpy"),
            "scipy": _version("scipy"), "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(), "commit": _commit(),
            "ref_nominal_ms": calib.REF_MS, "ref_median_ms": statistics.median(refs_ms),
            "ref_min_ms": min(refs_ms), "ref_max_ms": max(refs_ms), "calibrations": len(refs_ms),
            "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "ops": ops,
            "tail_percentile": tail_pct, "tail_ops_beyond": tail_beyond}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "twoorigins" / "__init__.py").is_file():
        print(f"no twoorigins sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    run = _worker(args.workload, args.seed, args.seconds, args.trace)
    setup_runs = [run] + [_worker(args.workload, args.seed, args.seconds, False, setup_only=True)
                          for _ in range(SETUP_SAMPLES - 1)]
    setups = [r["scaled_setup_s"] for r in setup_runs]

    lat = run["scaled_lat_ms"]
    verdicts = run["verdicts"]
    attempted = len(lat)
    failed = verdicts.get("wrong", 0) + verdicts.get("error", 0)
    undecided = verdicts.get("undecided", 0)
    tail_ms, tail_pct, beyond = tail(lat)
    if args.trace:
        traced = run["trace"]
        failed += traced["verdicts"].get("wrong", 0) + traced["verdicts"].get("error", 0)
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in traced["layers"].items()}
    else:
        values = {
            "p50_ms": statistics.median(lat),
            "tail_ms": tail_ms,
            "ops_per_s": attempted / run["scaled_wall_s"],
            "peak_rss_mb": run["rss_mb"],
            "ok_ratio": (attempted - failed) / attempted,
            "decided_ratio": (attempted - undecided) / attempted,
            "setup_s": statistics.median(setups),
        }
        metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}

    env = environment(args, attempted, tail_pct, beyond, run["ref_ms"])
    raw_lat = run["lat_ms"]
    raw = {"p50_ms": statistics.median(raw_lat), "tail_ms": tail(raw_lat)[0],
           "ops_per_s": attempted / run["wall_s"],
           "setup_s": statistics.median(r["setup_s"] for r in setup_runs)}
    record = {"env": env, "setup_samples_s": setups, "verdicts": verdicts,
              "errors": run["errors"], "kinds": run["kinds"], "lat_ms": lat,
              "raw_lat_ms": raw_lat, "raw": raw, "ref_ms": run["ref_ms"],
              "stretch_ops": run["stretch_ops"], "stretch_s": run["stretch_s"],
              "setup_refs_ms": [r["setup_refs_ms"] for r in setup_runs],
              "h_reuse_share": run["h_reused"] / run["h_questions"] if run["h_questions"] else 0.0,
              "metrics": metrics}
    if args.trace:
        record["trace"] = {k: run["trace"][k] for k in ("defects", "untraced_wall_s", "traced_wall_s")}
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1))

    print(json.dumps({"env": env}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
