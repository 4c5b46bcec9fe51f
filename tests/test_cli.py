"""End-to-end CLI tests through run(); exit codes are part of the contract."""

import ast
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from twoorigins import cli, join
from twoorigins.cli import EXIT_INPUT, EXIT_NEGATIVE, EXIT_NUMERIC, EXIT_OK, run
from twoorigins.cosets import FiniteGroup
from twoorigins.germs import compose, germ_to_json, poly_germ
from twoorigins.join import NumericDiffeo


def wa_json(a):
    return {
        "neg": [{"c": -1, "e": 1}],
        "pos": [{"c": a, "e": 1}],
        "orientation": "preserving",
    }


CUBIC = {
    "neg": [{"c": -1, "e": 1}, {"c": -1, "e": 3}],
    "pos": [{"c": 1, "e": 1}, {"c": 1, "e": 3}],
    "orientation": "preserving",
}

ROOT32 = {
    "neg": [{"c": -1, "e": 1}],
    "pos": [{"c": 1, "e": 1.5}],
    "orientation": "preserving",
}


@pytest.fixture
def write(tmp_path):
    def _write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    return _write


@pytest.fixture
def d3_file(write):
    g = FiniteGroup.dihedral(3)
    return write(
        "d3.json",
        {
            "name": "D3",
            "elements": list(g.elements),
            "table": [list(row) for row in g.table],
            "subgroups": {"A": ["e", "s"], "B": ["e", "sr"]},
        },
    )


def canonical(text):
    return json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))


def assert_canonical_json(out):
    line = out.strip()
    assert canonical(line) == line
    return json.loads(line)


# -- cosets -------------------------------------------------------------------


def test_cosets_human_output(d3_file, capsys):
    assert run(["cosets", d3_file, "--C", "A", "--D", "B"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "A\\D3/B" in out
    assert "{e, r, s, sr}" in out
    assert "{r2, sr2}" in out


def test_cosets_json_blocks(d3_file, capsys):
    assert run(["cosets", d3_file, "--C", "A", "--D", "B", "--json"]) == EXIT_OK
    payload = assert_canonical_json(capsys.readouterr().out)
    assert payload["kind"] == "double"
    blocks = {frozenset(b) for b in payload["blocks"]}
    assert blocks == {frozenset({"e", "r", "s", "sr"}), frozenset({"r2", "sr2"})}


def test_cosets_pm_mode(d3_file, capsys):
    assert run(["cosets", d3_file, "--pm", "--D", "A", "--json"]) == EXIT_OK
    payload = assert_canonical_json(capsys.readouterr().out)
    assert payload["kind"] == "pm_double"
    blocks = {frozenset(b) for b in payload["blocks"]}
    assert blocks == {frozenset({"e", "s"}), frozenset({"r", "r2", "sr", "sr2"})}


def test_cosets_requires_C_without_pm(d3_file, capsys):
    assert run(["cosets", d3_file, "--D", "A"]) == EXIT_INPUT
    assert "--C" in capsys.readouterr().err


def test_cosets_unknown_subgroup(d3_file, capsys):
    assert run(["cosets", d3_file, "--C", "A", "--D", "Z"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "Z" in err and "A" in err


# -- classify -----------------------------------------------------------------


def test_classify_nonempty_pair(capsys):
    assert run(["classify", "--a", "2", "--b", "2", "--json"]) == EXIT_OK
    payload = assert_canonical_json(capsys.readouterr().out)
    assert payload["intersection"] == "JMinus"
    assert payload["cells"] == {"fix+": True, "fix-": False, "ex+": False, "ex-": True}


def test_classify_empty_pair_is_negative(capsys):
    assert run(["classify", "--a", "2", "--b", "3"]) == EXIT_NEGATIVE
    out = capsys.readouterr().out
    assert "intersection_type: Empty" in out
    assert out.count("(empty)") == 4


def test_classify_parses_rationals_exactly(capsys):
    assert run(["classify", "--a", "1/3", "--b", "3", "--json"]) == EXIT_OK
    payload = assert_canonical_json(capsys.readouterr().out)
    assert payload["cells"]["ex+"] is True
    assert payload["intersection"] == "JPlus"


def test_classify_rejects_garbage_number(capsys):
    assert run(["classify", "--a", "two", "--b", "3"]) == EXIT_INPUT


def test_classify_takes_numbers_past_float_range(capsys):
    # w_a cells need only exact rationals, so 1e400 is no input error
    assert run(["classify", "--a", "1e400", "--b", "1e-400"]) == EXIT_OK
    assert "intersection_type" in capsys.readouterr().out


# -- germ algebra ---------------------------------------------------------------


def test_germ_compose_closed_form(write, capsys):
    g2, g3 = write("w2.json", wa_json(2)), write("w3.json", wa_json(3))
    assert run(["germ", "compose", "--g", g2, "--h", g3, "--json"]) == EXIT_OK
    payload = assert_canonical_json(capsys.readouterr().out)
    assert payload["pos"] == [{"c": 6.0, "e": 1.0}]
    assert payload["neg"] == [{"c": -1.0, "e": 1.0}]


def test_germ_compose_open_form_is_numeric_exit(write, capsys):
    g = write("root.json", ROOT32)
    h = write("cubic.json", CUBIC)
    assert run(["germ", "compose", "--g", g, "--h", h]) == EXIT_NUMERIC
    assert "numerically" in capsys.readouterr().err


def test_germ_invert(write, capsys):
    g2 = write("w2.json", wa_json(2))
    assert run(["germ", "invert", "--h", g2, "--json"]) == EXIT_OK
    payload = assert_canonical_json(capsys.readouterr().out)
    assert payload["pos"] == [{"c": 0.5, "e": 1.0}]

    cubic = write("cubic.json", CUBIC)
    assert run(["germ", "invert", "--h", cubic]) == EXIT_NUMERIC


def test_germ_compose_past_float_range_is_input_error(write, capsys):
    # 3^1000000 is an exact coefficient of the composite, but no float
    g = write("big.json", {
        "neg": [{"c": -1, "e": 1}, {"c": -1, "e": 1000000}],
        "pos": [{"c": 1, "e": 1}, {"c": 1, "e": 1000000}],
        "orientation": "preserving",
    })
    h = write("w3.json", {"neg": [{"c": -3, "e": 1}], "pos": [{"c": 3, "e": 1}],
                          "orientation": "preserving"})
    assert run(["germ", "compose", "--g", g, "--h", h]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "out of float range" in err


def test_germ_jet(write, capsys):
    cubic = write("cubic.json", CUBIC)
    assert run(["germ", "jet", "--h", cubic, "--order", "3", "--json"]) == EXIT_OK
    payload = assert_canonical_json(capsys.readouterr().out)
    assert payload == {"order": 3, "neg": [1.0, 0.0, 6.0], "pos": [1.0, 0.0, 6.0]}

    frac = write("root.json", ROOT32)
    assert run(["germ", "jet", "--h", frac, "--order", "2", "--json"]) == EXIT_OK
    payload = assert_canonical_json(capsys.readouterr().out)
    assert payload["pos"] == [0.0, "nonexistent"]


# -- structure comparison ---------------------------------------------------------


def test_structure_same_positive(write, capsys):
    g2 = write("w2.json", wa_json(2))
    assert run(["structure", "same", "--h", g2, "--g", g2, "--k", "4", "--json"]) == EXIT_OK
    payload = assert_canonical_json(capsys.readouterr().out)
    assert payload["same"] == "true"
    assert payload["obstruction"] is None


def test_structure_same_negative_cites_slopes(write, capsys):
    g2 = write("w2.json", wa_json(2))
    gid = write("id.json", wa_json(1))
    code = run(["structure", "same", "--h", g2, "--g", gid, "--k", "1", "--json"])
    assert code == EXIT_NEGATIVE
    payload = assert_canonical_json(capsys.readouterr().out)
    assert payload["same"] == "false"
    assert payload["obstruction"] == {"order": 1, "neg": 1.0, "pos": 0.5}
    assert payload["inverse_obstruction"] == {"order": 1, "neg": 1.0, "pos": 2.0}


def test_structure_same_reads_the_forward_jet(write, capsys):
    # g o h^-1 = x + |x|^(5/2) sign(x) is C^2 with slope 1: the same C^2
    # structure, so the inverse has no obstruction to report
    gid = write("id.json", wa_json(1))
    w52 = write("w52.json", {
        "neg": [{"c": -1, "e": 1}, {"c": -1, "e": 2.5}],
        "pos": [{"c": 1, "e": 1}, {"c": 1, "e": 2.5}],
        "orientation": "preserving",
    })
    assert run(["structure", "same", "--h", gid, "--g", w52, "--k", "2", "--json"]) == EXIT_OK
    payload = assert_canonical_json(capsys.readouterr().out)
    assert payload["same"] == "true"
    assert payload["max_order"] == 2
    assert payload["inverse_obstruction"] is None


def test_structure_same_fold_witness(write, capsys):
    # q = x + x^2 folds back at x = -1/2, but (q o p) o p^-1 = q is smooth
    p = poly_germ({1: 1, 2: 1, 3: Fraction(1, 3)})
    qp = compose(poly_germ({1: 1, 2: 1}), p)
    hp = write("p.json", germ_to_json(p))
    gqp = write("qp.json", germ_to_json(qp))
    assert run(["structure", "same", "--h", hp, "--g", gqp, "--k", "3"]) == EXIT_OK
    assert "same C^3 structure: true" in capsys.readouterr().out


def test_structure_same_human_readout(write, capsys):
    g2 = write("w2.json", wa_json(2))
    gid = write("id.json", wa_json(1))
    assert run(["structure", "same", "--h", g2, "--g", gid]) == EXIT_NEGATIVE
    out = capsys.readouterr().out
    assert "same C^1 structure: false" in out
    assert "obstruction at order 1" in out


# -- psi ---------------------------------------------------------------------------


def test_psi_selfcheck_passes(capsys):
    assert run(["psi", "--a", "4", "--selfcheck", "--json"]) == EXIT_OK
    payload = assert_canonical_json(capsys.readouterr().out)
    assert payload["origin_action"] == "exchange"
    assert all(payload["selfcheck"].values())
    assert payload["presentations"]["a"]["pos"] == [{"c": -0.5, "e": 1.0}]
    assert payload["presentations"]["b"]["pos"] == [{"c": -2.0, "e": 1.0}]


def test_psi_rejects_nonpositive(capsys):
    assert run(["psi", "--a", "0"]) == EXIT_INPUT


@pytest.mark.parametrize("a", ["2e400", "1e400"])
def test_psi_past_float_range_is_input_error(a, capsys):
    # 1e400 has an exact square root, but the payload holds float(a)
    assert run(["psi", "--a", a]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "out of float range" in err


# -- join and verify -----------------------------------------------------------------


def sampled(fn, lo, hi, n=257, seams=()):
    xs = np.linspace(lo, hi, n)
    return {"samples": [[float(x), float(fn(x))] for x in xs],
            "seams": list(seams)}


def join_spec(fn, k=2, tol=None, n=257):
    entry = sampled(fn, 1.0, 2.0, n=n)
    entry["between"] = [0, 1]
    spec = {
        "charts": [
            {"label": "u", "image": [0.0, 2.0]},
            {"label": "v", "image": [1.0, 3.0]},
        ],
        "transitions": [entry],
        "k": k,
    }
    if tol is not None:
        spec["tol"] = tol
    return spec


def bent(x):
    t = x - 1.0
    return 1.0 + t + 0.4 * t * (1.0 - t)


def test_join_identity_spec(write, capsys):
    path = write("join_id.json", join_spec(lambda x: x, k=2))
    assert run(["join", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "joined 2 charts onto (0.0, 3.0)" in out
    assert "passed" in out


def test_join_sampled_data_fails_strict_schedule(write, capsys):
    path = write("join_bent.json", join_spec(bent, k=2))
    assert run(["join", path]) == EXIT_NEGATIVE
    assert "FAILED" in capsys.readouterr().out


def test_join_sampled_data_passes_at_supported_tolerance(write, capsys):
    path = write("join_tol.json", join_spec(bent, k=1, tol=1e-3))
    assert run(["join", path, "--json"]) == EXIT_OK
    payload = assert_canonical_json(capsys.readouterr().out)
    assert payload["cert"]["passed"] is True
    assert payload["chart"]["image"] == [0.0, 3.0]


def test_join_cli_overrides_spec(write, capsys):
    path = write("join_bent.json", join_spec(bent, k=2))
    assert run(["join", path, "--k", "1", "--tol", "1e-3"]) == EXIT_OK


def test_join_rejects_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run(["join", str(bad)]) == EXIT_INPUT
    assert "invalid JSON" in capsys.readouterr().err

    missing = tmp_path / "absent.json"
    assert run(["join", str(missing)]) == EXIT_INPUT
    assert "cannot read" in capsys.readouterr().err


def test_join_disjoint_charts_not_joinable(write, capsys):
    spec = join_spec(lambda x: x)
    spec["charts"][1]["image"] = [2.5, 4.0]
    path = write("disjoint.json", spec)
    assert run(["join", path]) == EXIT_NEGATIVE
    assert "not joinable" in capsys.readouterr().err


def test_verify_seam_map(write, capsys):
    entry = sampled(lambda x: x + x * abs(x), -1.0, 1.0, n=513, seams=(0.0,))
    path = write("xabsx.json", entry)
    assert run(["verify", path, "--k", "1"]) == EXIT_OK
    assert run(["verify", path, "--k", "2"]) == EXIT_NEGATIVE
    out = capsys.readouterr().out
    assert "FAILED" in out


def test_verify_json_payload(write, capsys):
    entry = sampled(lambda x: x, 0.0, 1.0, n=65, seams=(0.5,))
    path = write("idmap.json", entry)
    assert run(["verify", path, "--k", "2", "--json"]) == EXIT_OK
    payload = assert_canonical_json(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["order"] == 2


def test_verify_slope_overflow_is_input_error(write, capsys):
    path = write("huge.json", {"samples": [[i, -1e308 + 4e307 * i] for i in range(5)]})
    assert run(["verify", path, "--k", "1", "--json"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "overflows" in captured.err
    assert "NaN" not in captured.out
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("where", ["x", "y", "seam"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
def test_non_finite_samples_are_input_errors(write, capsys, where, bad):
    entry = sampled(bent, 1.0, 2.0, n=33, seams=(1.5,))
    if where == "seam":
        entry["seams"] = [bad]
    else:
        entry["samples"][-1][0 if where == "x" else 1] = bad
    spec = join_spec(bent, k=1, tol=1e-3)
    spec["transitions"][0].update(entry)
    for argv in (["verify", write("map.json", entry)], ["join", write("spec.json", spec)]):
        assert run(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "must be finite" in captured.err
        assert "Traceback" not in captured.err + captured.out


# -- parser plumbing ------------------------------------------------------------------


def test_help_exits_zero(capsys):
    assert run(["--help"]) == EXIT_OK
    assert "twoorigins" in capsys.readouterr().out


def test_unknown_command_is_input_error(capsys):
    assert run(["frobnicate"]) == EXIT_INPUT


def test_missing_required_flag_is_input_error(capsys):
    assert run(["classify", "--a", "2"]) == EXIT_INPUT


# -- the benchmark's import surface ---------------------------------------------------

TRACED_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"


def test_benchmark_wraps_names_the_cli_still_has():
    # the traced benchmark run wraps these names on the CLI module; read them
    # from its source so no benchmark code is imported here
    if not TRACED_CLI.exists():
        pytest.skip("perfbench/ is not present")
    tree = ast.parse(TRACED_CLI.read_text(encoding="utf-8"))
    wrapped = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "WRAPPED" for t in node.targets))
    names = [name for layer in wrapped.values() for name in layer]
    assert names
    assert [n for n in names if not hasattr(cli, n)] == []
    assert "glue_auto" in vars(join)
