"""Tests of the benchmark itself (about a minute):

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gen

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600, check=False)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_one_seed_gives_one_stream(workload):
    assert gen.take(workload, 5, 80) == gen.take(workload, 5, 80)
    assert gen.take(workload, 5, 80) != gen.take(workload, 6, 80)
    assert gen.warmup_ops(workload, 5) == gen.warmup_ops(workload, 5)


def _brute_double_cosets(case, left, right):
    """Blocks of {c h d} (or, when left is None, of D h D u D h^-1 D) from the
    generated table alone."""
    g = case["group"]
    names = g["elements"]
    table = g["table"]
    ident = next(e for e in range(len(names)) if all(table[e][j] == j for j in range(len(names))))
    inv = [next(j for j in range(len(names)) if table[i][j] == ident) for i in range(len(names))]
    idx = {n: i for i, n in enumerate(names)}
    D = [idx[n] for n in g["subgroups"][right]]
    C = D if left is None else [idx[n] for n in g["subgroups"][left]]
    blocks, todo = 0, set(range(len(names)))
    while todo:
        h = min(todo)
        block = {table[table[c][h]][d] for c in C for d in D}
        if left is None:
            block |= {table[table[c][inv[h]]][d] for c in C for d in D}
        todo -= block
        blocks += 1
    return blocks


def test_group_closed_forms_match_brute_force():
    r = gen._rng("test", 0)
    for i in range(3 * len(gen.GROUP_SPECS)):
        case = gen.group_case(r, i)
        assert _brute_double_cosets(case, "C", "D") == case["double"]
        assert _brute_double_cosets(case, None, case["pm_sub"]) == case["pm"]


def test_polynomial_closed_forms():
    r = gen._rng("test", 1)
    for _ in range(20):
        f, g = gen.monotone_cubic(r), gen.monotone_cubic(r)
        fg = gen.poly_compose(f, g)
        x = Fraction(3, 7)
        assert sum(c * x ** e for e, c in fg.items()) == \
            sum(c * sum(d * x ** k for k, d in g.items()) ** e for e, c in f.items())
        # globally increasing: the derivative's discriminant is negative
        assert f[2] ** 2 < 3 * f[1] * f[3]


def test_transition_maps_fix_their_ends_and_increase():
    r = gen._rng("test", 2)
    for _ in range(20):
        lo, hi = sorted((r.uniform(0, 3), r.uniform(3.5, 6)))
        fn = gen.bent_map(lo, hi, *gen.transition_params(r))
        assert abs(fn(lo) - lo) < 1e-12 and abs(fn(hi) - hi) < 1e-12
        ys = [fn(lo + (hi - lo) * i / 200) for i in range(201)]
        assert all(a < b for a, b in zip(ys, ys[1:]))


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_checks_answers_and_emits_every_end_to_end_metric(workload):
    res = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0


def test_traced_run_emits_every_per_layer_metric():
    res = _result(_bench("--workload", "chain_collapse", "--seed", "3", "--seconds", "1",
                         "--trace", "1"))
    assert res["correct"] is True
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert res["metrics"]["cli.modules_loaded"]["value"] > 0
    assert res["metrics"]["join.collapse_calls"]["value"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    proc = _bench("--workload", "chain_collapse", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith('{"correct"') for line in proc.stdout.splitlines())


def test_tail_is_the_highest_percentile_with_ten_beyond():
    import run
    value, pct, beyond = run.tail(list(range(100)))
    assert (value, beyond) == (89, 10) and pct == 90.0
    assert run.tail([5.0, 1.0]) == (5.0, 100.0, 0)
    assert gen.same_true_op(1)["expect"] is True
    assert gen.cli_probe_ops(1)[-1]["kind"] == "structure_poly"


def test_chain_round_puts_four_chart_collapses_in_the_middle():
    """By cost, verifies and the glue < 2 < 4 < 8 < 16 charts: as many slots
    of a chain_collapse round sit below the 4-chart collapses as above them."""
    assert len(gen.CC_SIZES) == gen.CC_ROUND.count("collapse")
    below = len(gen.CC_ROUND) - len(gen.CC_SIZES) + sum(m < 4 for m in gen.CC_SIZES)
    above = sum(m > 4 for m in gen.CC_SIZES)
    assert below == above and gen.CC_SIZES.count(4) >= 3


def test_clock_scales_each_stretch_by_the_references_around_it(monkeypatch):
    import calib
    ref = calib.REF_MS
    clock = calib.Clock()
    clock.refs_ms = [ref, 2 * ref, 4 * ref, 4 * ref]
    clock.stretch_ops, clock.stretch_s = [2, 1, 1], [1.0, 3.0, 1.0]
    monkeypatch.setattr(calib, "WINDOW", 0)
    assert clock.scales() == pytest.approx([2 / 3, 1 / 3, 1 / 4])
    assert clock.scaled([3.0, 6.0, 6.0, 8.0]) == pytest.approx([2.0, 4.0, 2.0, 2.0])
    assert clock.raw_wall_s() == 5.0
    assert clock.scaled_wall_s() == pytest.approx(2 / 3 + 1.0 + 1 / 4)
    monkeypatch.setattr(calib, "WINDOW", 1)
    assert clock.scales() == pytest.approx([3 / 7, 4 / 11, 3 / 10])
