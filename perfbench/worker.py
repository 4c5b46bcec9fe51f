"""One measured pass of a workload, in a process of its own.

Usage: python worker.py WORKLOAD SEED SECONDS TRACE SPAWNED_AT [--setup-only]

SPAWNED_AT is time.monotonic() just before the parent started this process,
so the reported setup time runs from process start through importing the
program, generating inputs and warming up, to the first timed operation.
With --setup-only the worker stops there. Otherwise it runs ops from the
seeded stream, one at a time (a closed loop with one client), until SECONDS
have passed, calibrating the machine's speed between ops (see calib.py);
with TRACE=1 it then replays exactly those ops with spans on. Prints one
JSON line.
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

import calib  # noqa: E402
import gen  # noqa: E402
import oneshot  # noqa: E402
import spans  # noqa: E402


def _in_process_window(ops_iter, seconds, run, check, tracer, clock=None):
    """Run ops until `seconds` have passed (all of them when None); returns
    (kinds, latencies ms, verdicts, wall s, errors). With a calib.Clock the
    window calibrates between ops, and the wall time leaves the calibrations
    out. Ops are not kept, so memory does not grow with the op count."""
    kinds, lat, verdicts, errors = [], [], [], []
    t0 = time.perf_counter()
    deadline = None if seconds is None else t0 + seconds
    for op in ops_iter:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        with tracer.op(op["id"], op["kind"]):
            s = time.perf_counter()
            try:
                out, err = run(op, tracer), None
            except Exception as exc:  # a failing op is counted, the run goes on
                out, err = None, exc
            e = time.perf_counter()
        kinds.append(op["kind"])
        lat.append(1000.0 * (e - s))
        if err is not None:
            verdicts.append("error")
            errors.append(f"op {op['id']} {op['kind']}: {type(err).__name__}: {err}")
        else:
            verdicts.append(check(op, out))
        if clock is not None:
            clock.op_done()
    if clock is None:
        return kinds, lat, verdicts, time.perf_counter() - t0, errors
    clock.finish()
    return kinds, lat, verdicts, clock.raw_wall_s(), errors


def _cli_window(ops_iter, seconds, workdir, env, clock):
    kinds, lat, verdicts, errors = [], [], [], []
    t0 = time.perf_counter()
    deadline = t0 + seconds
    for op in ops_iter:
        if time.perf_counter() >= deadline:
            break
        argv = oneshot.prepare(op, workdir)
        kinds.append(op["kind"])
        try:
            code, out, wall = oneshot.run_child(argv, env)
        except subprocess.TimeoutExpired:
            lat.append(1000.0 * oneshot.CHILD_TIMEOUT_S)
            verdicts.append("error")
            errors.append(f"op {op['id']} {op['kind']}: timed out")
        else:
            lat.append(1000.0 * wall)
            verdict = oneshot.check(op, code, out)
            verdicts.append(verdict)
            if verdict == "wrong":
                errors.append(f"op {op['id']} {op['kind']}: exit {code}")
        clock.op_done()
    clock.finish()
    return kinds, lat, verdicts, clock.raw_wall_s(), errors


def _cli_metrics(records, probes) -> dict:
    out = {"cli.interp_start_ms": statistics.median(probes["starts_ms"]),
           "cli.import_ms": statistics.median(r["import_ms"] for r in records),
           "cli.import_join_ms": statistics.median(probes["import_join_ms"]),
           "cli.modules_loaded": probes["modules_loaded"]}
    for cmd in ("cosets", "classify", "germ", "structure", "psi", "join", "verify"):
        runs = [r["run_ms"] for r in records if r["command"] == cmd]
        out[f"cli.run_ms.{cmd}"] = statistics.fmean(runs) if runs else 0.0
    return out


def _trace(workload, seed, n_ops, wall, run, check, workdir, env):
    """Replay the window's n_ops ops with spans on (plus, for structure_queries, the TRUE
    polynomial question), then run the traced CLI probe, the process probes
    and the defect witnesses."""
    import defects

    replay = itertools.islice(gen.stream(workload, seed), n_ops)
    if workload == "cli_oneshot":
        verdicts, traced_wall, span_lists, records = oneshot.traced_pass(replay, workdir, env)
    else:
        import twoorigins.join
        tracer = spans.Tracer()
        # glue_auto is also called inside collapse_chain; wrapping the module
        # function gives both calls a span
        spans.wrap_names(tracer, twoorigins.join, "join", ("glue_auto",))
        _, _, verdicts, traced_wall, _ = _in_process_window(replay, None, run, check, tracer)
        if workload == "structure_queries":
            verdicts += _in_process_window(iter([gen.same_true_op(seed)]), None, run, check,
                                           tracer)[2]
        span_lists, records = [tracer.spans], []
    probe_verdicts, _, probe_spans, probe_records = oneshot.traced_pass(
        gen.cli_probe_ops(seed), workdir, env)
    layers = spans.layer_metrics(spans.merge(span_lists + probe_spans))
    layers.update(_cli_metrics(records + probe_records, oneshot.process_probes(env)))
    layers["trace.overhead_ratio"] = traced_wall / wall - 1.0
    found = defects.witnesses()
    layers["bench.known_defect_errors"] = found["errors"]
    return {"layers": layers, "verdicts": Counter(verdicts + probe_verdicts),
            "defects": found["cases"], "untraced_wall_s": wall, "traced_wall_s": traced_wall}


def main(argv) -> int:
    workload, seed, seconds, trace, spawned_at = argv[:5]
    seed, seconds, trace, spawned_at = int(seed), float(seconds), trace == "1", float(spawned_at)
    setup_only = "--setup-only" in argv[5:]
    sys.path.insert(0, str(SRC))
    env = oneshot.child_env(SRC)
    workdir = HERE / "work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        warm = gen.warmup_ops(workload, seed)
        run = check = None
        if workload == "cli_oneshot":
            # one child warms the page cache and the bytecode cache
            oneshot.run_child(oneshot.prepare(warm[0], workdir), env)
        else:
            import ops
            run, check = ((ops.run_structure, ops.check_structure) if workload == "structure_queries"
                          else (ops.run_chain, ops.check_chain))
            for op in warm:
                check(op, run(op, spans.NullTracer()))
        setup_s = time.monotonic() - spawned_at
        # the parent ran the reference just before starting this process
        setup_refs_ms = calib.samples(calib.SETUP_REFS)
        if setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_refs_ms": setup_refs_ms}))
            return 0

        stream = gen.stream(workload, seed)
        clock = calib.Clock()
        if workload == "cli_oneshot":
            kinds, lat, verdicts, wall, errors = _cli_window(stream, seconds, workdir, env, clock)
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            kinds, lat, verdicts, wall, errors = _in_process_window(
                stream, seconds, run, check, spans.NullTracer(), clock)
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        h_pool = [op["h"] for op in itertools.islice(gen.stream(workload, seed), len(kinds))
                  if "h" in op]
        result = {"setup_s": setup_s, "setup_refs_ms": setup_refs_ms, "lat_ms": lat,
                  "scaled_lat_ms": clock.scaled(lat), "kinds": kinds,
                  "verdicts": Counter(verdicts), "wall_s": wall,
                  "scaled_wall_s": clock.scaled_wall_s(), "ref_ms": clock.refs_ms,
                  "stretch_ops": clock.stretch_ops, "stretch_s": clock.stretch_s,
                  "rss_mb": rss_kb / 1024.0, "errors": errors[:20], "h_questions": len(h_pool),
                  "h_reused": len(h_pool) - len(set(h_pool))}
        if trace:
            result["trace"] = _trace(workload, seed, len(kinds), wall, run, check, workdir, env)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
