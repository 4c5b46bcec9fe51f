"""End-to-end CLI tests through run(); exit codes are part of the contract."""

import ast
import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twoorigins import cli, join
from twoorigins.cli import EXIT_INPUT, EXIT_NEGATIVE, EXIT_NUMERIC, EXIT_OK, run
from twoorigins.germs import compose, germ_from_json, germ_to_json, poly_germ
from twoorigins.join import NumericDiffeo
from twoorigins.realnum import to_real

import groups

SRC = Path(__file__).resolve().parents[1] / "src"


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
    g = groups.dihedral(3)
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


@pytest.mark.parametrize(
    "change",
    [
        {"subgroups": []},
        {"subgroups": {"A": 5}},
        {"table": 5},
        {"table": [0, 1]},
        {"elements": "es"},
    ],
    ids=["subgroups-array", "members-int", "table-int", "row-int", "elements-string"],
)
def test_cosets_malformed_group_json_exits_input(write, change, capsys):
    g = groups.cyclic(2)
    doc = {"elements": ["e", "s"], "table": [list(row) for row in g.table],
           "subgroups": {"A": ["e", "s"]}}
    path = write("bad_group.json", {**doc, **change})
    assert run(["cosets", path, "--D", "A", "--pm"]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"input error: {path}: malformed group JSON")


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
    # the payload writes a value no float holds as its exact rational string
    assert run(["classify", "--a", "1e400", "--b", "1e-400", "--json"]) == EXIT_OK
    payload = assert_canonical_json(capsys.readouterr().out)
    assert payload["a"] == str(10 ** 400)
    assert payload["b"] == f"1/{10 ** 400}"
    assert payload["cells"] == {"fix+": False, "fix-": True, "ex+": True, "ex-": False}
    # the witnesses fit: the exchanging one scales by 10^200
    ex = [w for w in payload["witnesses"] if w["cell"] == "ex+"]
    assert ex[0]["restriction"]["pos"] == [{"c": 1e200, "e": 1.0}]
    # a witness past the float range is written exactly and reads back
    assert run(["classify", "--a", "1e700", "--b", "1e-700"]) == EXIT_OK
    capsys.readouterr()
    assert run(["classify", "--a", "1e700", "--b", "1e-700", "--json"]) == EXIT_OK
    payload = assert_canonical_json(capsys.readouterr().out)
    ex = [w for w in payload["witnesses"] if w["cell"] == "ex+"]
    assert ex[0]["restriction"]["pos"] == [{"c": str(10 ** 350), "e": 1.0}]
    assert germ_from_json(ex[0]["restriction"]).pos.terms[0].coeff == Fraction(10) ** 350


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("argv", [["classify", "--a", "1e4400", "--b", "2"],
                                  ["psi", "--a", "1e4400"]], ids=["classify", "psi"])
def test_number_past_the_digit_limit_is_input_error(argv, flags, capsys):
    # Python prints no integer past sys.get_int_max_str_digits(), and every
    # command echoes or writes its numbers
    assert run(argv + flags) == EXIT_INPUT
    assert "digits" in capsys.readouterr().err


def test_huge_exponent_is_refused_at_once(write, capsys):
    # Fraction alone would spend seconds multiplying out 10**10000000
    start = time.perf_counter()
    assert run(["psi", "--a", "1e10000000"]) == EXIT_INPUT
    assert "digits" in capsys.readouterr().err
    assert run(["germ", "invert", "--h", write("h.json", wa_json("1e-10000000"))]) == EXIT_INPUT
    assert "digits" in capsys.readouterr().err
    assert time.perf_counter() - start < 1.0


def test_oversized_exact_power_is_refused_at_once(write, capsys):
    # x^(10^9 + 1) after 3x asks for 3^(10^9 + 1), about 4.8e8 digits
    g = write("g.json", {"neg": [{"c": -1, "e": 10 ** 9 + 1}],
                         "pos": [{"c": 1, "e": 10 ** 9 + 1}], "orientation": "preserving"})
    h = write("h.json", {"neg": [{"c": -3, "e": 1}], "pos": [{"c": 3, "e": 1}],
                         "orientation": "preserving"})
    start = time.perf_counter()
    assert run(["germ", "compose", "--g", g, "--h", h]) == EXIT_INPUT
    assert time.perf_counter() - start < 1.0
    assert "digits" in capsys.readouterr().err


def test_composition_past_the_term_cap_answers_in_bounded_time(write, capsys):
    # (3x + x^200000) after itself: the inner side's powers pass the term
    # cap at the 512th, and the composite is numeric
    h = write("h.json", {"neg": [{"c": -3, "e": 1}, {"c": 1, "e": 200000}],
                         "pos": [{"c": 3, "e": 1}, {"c": 1, "e": 200000}],
                         "orientation": "preserving"})
    start = time.perf_counter()
    assert run(["germ", "compose", "--g", h, "--h", h]) == EXIT_NUMERIC
    assert time.perf_counter() - start < 2.0
    assert "numerically" in capsys.readouterr().err


def _long_germ_text(n):
    return ('{"neg": [{"c": -1, "e": 1}], "orientation": "preserving", "pos": ['
            + ", ".join(f'{{"c": 1, "e": {k}}}' for k in range(1, n + 1)) + "]}")


def test_germ_side_past_the_term_cap_is_refused_before_its_numbers(tmp_path, capsys):
    # refused by its term count, before 10^5 numbers are read
    path = tmp_path / "h.json"
    path.write_text(_long_germ_text(10 ** 5))
    assert path.stat().st_size <= cli._MAX_FILE_CHARS
    start = time.perf_counter()
    assert run(["germ", "compose", "--g", str(path), "--h", str(path)]) == EXIT_INPUT
    assert time.perf_counter() - start < 5.0
    assert "more than 512 terms" in capsys.readouterr().err


def test_file_past_the_size_bound_is_refused_before_it_is_parsed(tmp_path, monkeypatch, capsys):
    # a germ of 10^6 terms is 23 MB of text, which json.loads would hold in
    # about 140 MB of objects
    path = tmp_path / "h.json"
    path.write_text(_long_germ_text(10 ** 6))
    assert path.stat().st_size > cli._MAX_FILE_CHARS

    parsed = []  # the length of each text json.loads is given
    loads = cli.json.loads

    def recorded(text):
        parsed.append(len(text))
        return loads(text)

    monkeypatch.setattr(cli.json, "loads", recorded)
    assert run(["germ", "invert", "--h", str(path)]) == EXIT_INPUT
    assert f"more than {cli._MAX_FILE_CHARS} characters" in capsys.readouterr().err
    assert parsed == []
    # the bound counts characters: a file of exactly that many is parsed
    path.write_text(" " * (cli._MAX_FILE_CHARS - 2) + "{}")
    run(["germ", "invert", "--h", str(path)])
    assert parsed == [cli._MAX_FILE_CHARS]


@pytest.mark.parametrize("text", ["2", "0.5", "1/3", "1e3", " -1_0.5E+1_0 ", "1e4299"])
def test_numbers_parse_as_fraction_reads_them(text):
    assert cli._rational(text) == Fraction(text)
    assert to_real(text) == Fraction(text)


@pytest.mark.parametrize("text", ["0e10000000", "-0.000E-10000000"])
def test_zero_mantissa_parses_at_any_exponent(text):
    assert cli._rational(text) == to_real(text) == 0


@pytest.mark.parametrize("text", [b'{"c": ' + b"1" * 5001 + b"}", b'{"c": "\xff"}'],
                         ids=["5001_digits", "bad_utf8"])
def test_unreadable_json_is_input_error(tmp_path, text, capsys):
    path = tmp_path / "h.json"
    path.write_bytes(text)
    assert run(["germ", "invert", "--h", str(path)]) == EXIT_INPUT
    assert "invalid JSON" in capsys.readouterr().err


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


def test_germs_past_float_range_are_written_exactly(write, capsys):
    big, w2 = write("big.json", wa_json("1e400")), write("w2.json", wa_json(2))
    assert run(["germ", "invert", "--h", big, "--json"]) == EXIT_OK
    payload = assert_canonical_json(capsys.readouterr().out)
    assert payload["pos"] == [{"c": f"1/{10 ** 400}", "e": 1.0}]
    assert germ_from_json(payload).pos.terms[0].coeff == Fraction(1, 10 ** 400)
    assert run(["germ", "invert", "--h", write("tiny.json", wa_json("1e-400"))]) == EXIT_OK
    assert f"pos: {10 ** 400}*x^1 " in capsys.readouterr().out
    assert run(["germ", "jet", "--h", big, "--order", "1", "--json"]) == EXIT_OK
    assert assert_canonical_json(capsys.readouterr().out)["pos"] == [str(10 ** 400)]
    assert run(["germ", "compose", "--g", big, "--h", w2]) == EXIT_OK
    assert f"pos: {2 * 10 ** 400}*x^1 " in capsys.readouterr().out
    # q = w_(10^400) o w_2^-1 has the slopes 1 and 5 * 10^399 at 0
    assert run(["structure", "same", "--h", w2, "--g", big, "--json"]) == EXIT_NEGATIVE
    payload = assert_canonical_json(capsys.readouterr().out)
    assert payload["obstruction"] == {"order": 1, "neg": 1.0, "pos": str(5 * 10 ** 399)}
    assert payload["inverse_obstruction"] == {"order": 1, "neg": 1.0,
                                              "pos": f"1/{5 * 10 ** 399}"}


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


@pytest.mark.parametrize("k", ["1", "2", "3"])
def test_structure_same_on_a_fold_is_true(write, k, capsys):
    # x + 10x^2 folds back at -1/20, so it has no inverse on [-1/4, 0]; it is
    # in D, and so is q = h o h^-1, read from exact jets
    fold = write("fold.json", germ_to_json(poly_germ({1: 1, 2: 10})))
    assert run(["structure", "same", "--h", fold, "--g", fold, "--k", k, "--json"]) == EXIT_OK
    payload = assert_canonical_json(capsys.readouterr().out)
    assert payload["same"] == "true" and payload["max_order"] == int(k)
    assert payload["obstruction"] is None


def test_structure_same_at_a_small_scale_is_true(write, capsys):
    # g = 10^-7 h: both in D, so the structures agree at any scale
    h = write("h.json", germ_to_json(poly_germ({1: 1, 2: 1})))
    g = write("g.json", germ_to_json(poly_germ({1: "1e-7", 2: "1e-7"})))
    assert run(["structure", "same", "--h", h, "--g", g, "--k", "2"]) == EXIT_OK
    assert "same C^2 structure: true" in capsys.readouterr().out


def test_structure_same_decided_by_the_group_answers_without_q(write, capsys):
    # the fold is in D and g = x + |x|^(3/2) sign(x) is not C^2, so the answer
    # is FALSE either way round; neither q nor q^-1 can be built, as the fold
    # has no inverse and turns back under g^-1, so their reports are null
    fold = write("fold.json", germ_to_json(poly_germ({1: 1, 2: 10})))
    g = write("g.json", {
        "neg": [{"c": -1, "e": 1}, {"c": -1, "e": "3/2"}],
        "pos": [{"c": 1, "e": 1}, {"c": 1, "e": "3/2"}],
        "orientation": "preserving",
    })
    for h, g in ((fold, g), (g, fold)):
        assert run(["structure", "same", "--h", h, "--g", g, "--k", "2", "--json"]) == EXIT_NEGATIVE
        payload = assert_canonical_json(capsys.readouterr().out)
        assert payload == {"same": "false", "k": 2, "max_order": None, "obstruction": None,
                           "inverse_obstruction": None}


def test_structure_same_answers_when_a_report_is_too_long_to_write(write, capsys):
    # h is in D and g is not C^2, so the answer is FALSE; q's second
    # derivatives are near 10^7200, beyond floats and Python's digit limit,
    # so its report is left out
    tiny = "1/1" + "0" * 2400
    h = write("h.json", {"neg": [{"c": "-" + tiny, "e": 1}, {"c": 1, "e": 2}],
                         "pos": [{"c": tiny, "e": 1}, {"c": 1, "e": 2}],
                         "orientation": "preserving"})
    g = write("g.json", {"neg": [{"c": -1, "e": 1}, {"c": 1, "e": 2}],
                         "pos": [{"c": 1, "e": 1}, {"c": 2, "e": 2}], "orientation": "preserving"})
    assert run(["structure", "same", "--h", h, "--g", g, "--k", "2", "--json"]) == EXIT_NEGATIVE
    payload = assert_canonical_json(capsys.readouterr().out)
    assert payload["same"] == "false"
    assert payload["max_order"] is None and payload["obstruction"] is None


def test_structure_same_with_long_coefficients_answers_in_bounded_time(write, capsys):
    # twelve terms a side with 4000-digit numerators and denominators: exact
    # jets of q through order 12 would take minutes, so q is numeric
    rnd = random.Random(5)

    def side(sign):
        return [{"c": f"{sign * rnd.randrange(10 ** 3999, 10 ** 4000)}/"
                      f"{rnd.randrange(10 ** 3999, 10 ** 4000)}", "e": m} for m in range(1, 13)]

    h, g = (write(f"{name}.json", {"neg": side(-1), "pos": side(1), "orientation": "preserving"})
            for name in "hg")
    start = time.perf_counter()
    code = run(["structure", "same", "--h", h, "--g", g, "--k", "12", "--json"])
    assert time.perf_counter() - start < 5.0
    assert code in (EXIT_NEGATIVE, EXIT_NUMERIC)
    assert assert_canonical_json(capsys.readouterr().out)["same"] in ("false", "indeterminate")


def test_structure_same_with_a_cube_root_is_false(write, capsys):
    # g o h^-1 behaves like x^(1/3) at 0: a numeric germ with no first
    # derivative there, a real negative answer and not an input error
    h = write("h.json", germ_to_json(poly_germ({1: 1, 2: 1})))
    g = write("g.json", {
        "neg": [{"c": -1, "e": "1/3"}],
        "pos": [{"c": 1, "e": "1/3"}],
        "orientation": "preserving",
    })
    assert run(["structure", "same", "--h", h, "--g", g, "--json"]) == EXIT_NEGATIVE
    payload = assert_canonical_json(capsys.readouterr().out)
    assert payload["same"] == "false"
    assert payload["obstruction"] == {"order": 1, "neg": "nonexistent", "pos": "nonexistent"}


def test_structure_same_with_a_steep_inverse_answers(write, capsys):
    # h = x^(1/7) + x inverts to a germ like x^7, whose 2^-65 sample has a
    # preimage near 2^-455: the inverse must resolve it, not reject h
    h = write("h.json", {
        "neg": [{"c": -1, "e": "1/7"}, {"c": -1, "e": 1}],
        "pos": [{"c": 1, "e": "1/7"}, {"c": 1, "e": 1}],
        "orientation": "preserving",
    })
    g = write("g.json", germ_to_json(poly_germ({1: 1})))
    assert run(["structure", "same", "--h", h, "--g", g, "--json"]) == EXIT_NEGATIVE
    payload = assert_canonical_json(capsys.readouterr().out)
    assert payload["same"] == "false"


def test_structure_same_decided_with_a_coefficient_no_float_holds(write, capsys):
    # FALSE at order 1, as w_2 is not in D and g is; q^-1 = w_2 o g^-1 is
    # read from exact jets, so its slopes are reported although g has a
    # coefficient no float holds
    g = write("g.json", {
        "neg": [{"c": -1, "e": 1}, {"c": "1e400", "e": 2}],
        "pos": [{"c": 1, "e": 1}, {"c": "1e400", "e": 2}],
        "orientation": "preserving",
    })
    h = write("w2.json", wa_json(2))
    assert run(["structure", "same", "--k", "2", "--h", h, "--g", g, "--json"]) == EXIT_NEGATIVE
    payload = assert_canonical_json(capsys.readouterr().out)
    assert payload["same"] == "false" and payload["max_order"] == 0
    assert payload["inverse_obstruction"] == {"order": 1, "neg": 1.0, "pos": 2.0}


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


@pytest.mark.parametrize("a, code", [("2e400", EXIT_INPUT), ("1e400", EXIT_OK)],
                         ids=["2e400", "1e400"])
def test_psi_past_float_range_is_input_error(a, code, capsys):
    # only for 2e400, whose square root is computed in floats: 1e400 has an
    # exact square root, and the payload writes a exactly
    for flags in ([], ["--json"]):
        assert run(["psi", "--a", a, *flags]) == code
    out, err = capsys.readouterr()
    if code == EXIT_INPUT:
        assert err.startswith("input error:") and "out of float range" in err
    else:
        payload = assert_canonical_json(out.splitlines()[-1])
        assert payload["a"] == str(10 ** 400)
        assert payload["restriction"]["pos"] == [{"c": -1e200, "e": 1.0}]


#: A germ whose coefficients no float holds: |c| of 1e4000 and of 1e-4000.
TINY_GERM = {"neg": [{"c": "-1e4000", "e": 1}], "pos": [{"c": "1e-4000", "e": 3}],
             "orientation": "preserving"}
#: A germ whose inverse has the coefficient (3e300)^(-5/3), about 1e-500,
#: which no float holds.
UNDERFLOW_GERM = {"neg": [{"c": "-1", "e": 1}], "pos": [{"c": "3e300", "e": "3/5"}],
                  "orientation": "preserving"}


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("argv", [
    ["psi", "--a", "2e-400"],
    ["psi", "--a", "3e-330"],
    ["classify", "--a", "2e-400", "--b", "5e399"],
    ["germ", "invert", "--h", "GERM"],
    ["structure", "same", "--h", "GERM", "--g", "GERM", "--k", "2"],
    ["germ", "invert", "--h", "UNDERFLOW"],
], ids=["psi-2e-400", "psi-3e-330", "classify", "germ-invert", "structure-same",
        "germ-invert-underflow"])
def test_values_past_the_small_end_of_float_range_are_input_errors(write, argv, flags,
                                                                   capsys):
    # a nonzero value whose float is 0.0 is refused where a root or a
    # negative power of it would be taken in floats, and so is a float power
    # of a nonzero value that comes out 0.0
    paths = {"GERM": write("tiny.json", TINY_GERM),
             "UNDERFLOW": write("underflow.json", UNDERFLOW_GERM)}
    assert run([paths.get(a, a) for a in argv] + flags) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("input error:") and "out of float range" in err
    assert err.count("\n") == 1


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


@pytest.mark.parametrize("chart_map", [
    {"affine": 5}, {"affine": ["x", 1]}, {"affine": [1]}, {"affine": "12"},
    {"affine": [1, 2, 3]}, {"affine": ["1", 2]}, {"affine": [True, 0]},
    {"affine": [float("inf"), 0]}],
    ids=["number", "string", "short", "text", "three", "quoted", "bool", "infinite"])
def test_join_malformed_chart_map_is_input_error(write, chart_map, capsys):
    spec = {"charts": [{"image": [0.0, 2.0], "map": chart_map},
                       {"image": [1.0, 3.0], "map": "identity"}]}
    assert run(["join", write("spec.json", spec)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "unrecognized map spec" in err


@pytest.mark.parametrize("change", [{"charts": 5}, {"transitions": 5}, {"k": "x"}, {"k": [1]},
                                    {"tol": "a"}, {"tol": {}}],
                         ids=["charts", "transitions", "k", "k-list", "tol", "tol-object"])
def test_join_malformed_spec_field_is_input_error(write, change, capsys):
    spec = dict(join_spec(bent, k=1, tol=1e-3), **change)
    assert run(["join", write("spec.json", spec)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "malformed join spec" in err


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("where", ["join", "verify", "spec"])
def test_non_finite_tolerance_is_input_error(write, where, bad, capsys):
    # NaN would pass a test of t <= 0 and fail every certificate; inf would
    # pass every one
    if where == "verify":
        argv = ["verify", write("map.json", sampled(bent, 1.0, 2.0, n=65)), "--tol", bad]
    elif where == "join":
        argv = ["join", write("spec.json", join_spec(bent, k=1)), "--tol", bad]
    else:
        argv = ["join", write("spec.json", dict(join_spec(bent, k=1), tol=bad))]
    assert run(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ") and "finite and positive" in captured.err


@pytest.mark.parametrize("k, code", [(1, EXIT_OK), (2, EXIT_NEGATIVE)])
def test_closed_stdout_keeps_the_exit_code(write, tmp_path, k, code):
    # the reader closes the pipe before the command writes: no traceback, no
    # internal error, and the code the same run gives into a file
    argv = [sys.executable, "-m", "twoorigins.cli", "join",
            write("spec.json", join_spec(bent, k=k, tol=1e-3)), "--json"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    with open(tmp_path / "out.json", "w", encoding="utf-8") as out:
        assert subprocess.run(argv, stdout=out, env=env, check=False).returncode == code
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == code
    assert err == b""


def test_join_disjoint_charts_not_joinable(write, capsys):
    spec = join_spec(lambda x: x)
    spec["charts"][1]["image"] = [2.5, 4.0]
    path = write("disjoint.json", spec)
    assert run(["join", path]) == EXIT_NEGATIVE
    assert capsys.readouterr().err.startswith(f"not joinable: {path}: images of charts")


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


def test_verify_reads_a_repeated_seam_once(write, capsys):
    fn = lambda x: x + 0.1 * x * x  # noqa: E731
    outs = []
    for seams in ((0.5, 0.5), (0.5,)):
        assert run(["verify", write("map.json", sampled(fn, 0.0, 1.0, n=65, seams=seams)),
                    "--k", "1", "--json"]) == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_verify_seams_one_float_apart_are_one_input_error_line(write, capsys):
    # the halved step between 0.0 and the least subnormal underflows to 0
    entry = sampled(lambda x: x + 0.1 * x * x, -1.0, 1.0, n=65, seams=(0.0, 5e-324))
    assert run(["verify", write("map.json", entry), "--k", "1"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: seams too close")
    assert captured.err.count("\n") == 1


def test_verify_slope_overflow_is_input_error(write, capsys):
    path = write("huge.json", {"samples": [[i, -1e308 + 4e307 * i] for i in range(5)]})
    assert run(["verify", path, "--k", "1", "--json"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "overflows" in captured.err
    assert "NaN" not in captured.out
    assert "Traceback" not in captured.err + captured.out


def test_verify_map_past_the_float_range_is_one_input_error_line(write, capsys):
    # the interpolant overflows between these samples
    path = write("huger.json", {"samples": [[i * 1e300, i * 1e300] for i in range(4)]})
    assert run(["verify", path, "--k", "1"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: map values too large")
    assert captured.err.count("\n") == 1


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


# -- join and verify on hostile input -------------------------------------------------

ODD_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e308, -1e308])
FLOATS = st.one_of(st.floats(-4.0, 4.0), ODD_FLOATS)


@st.composite
def spoiled_samples(draw, lo, hi):
    """The samples of a monotone map of [lo, hi], each [x, y], with up to
    three spoils: a value replaced by an odd float, a sample repeated, two
    samples swapped."""
    n = draw(st.integers(4, 33))
    lam = draw(st.floats(-0.9, 0.9))
    t = np.linspace(0.0, 1.0, n)
    ys = lo + (hi - lo) * (t + lam * t * (1.0 - t))
    if draw(st.booleans()):
        ys = ys[::-1]
    pts = [[x, y] for x, y in zip(np.linspace(lo, hi, n).tolist(), ys.tolist())]
    for _ in range(draw(st.integers(0, 3))):
        spoil, i = draw(st.sampled_from(["value", "repeat", "swap"])), draw(st.integers(0, n - 1))
        if spoil == "value":
            pts[i][draw(st.integers(0, 1))] = draw(FLOATS)
        elif spoil == "repeat":
            pts.insert(i, list(pts[i]))
        else:
            j = draw(st.integers(0, n - 1))
            pts[i], pts[j] = pts[j], pts[i]
    return pts


@st.composite
def map_entry(draw, lo, hi):
    seams = draw(st.lists(st.one_of(st.floats(lo, hi), FLOATS), max_size=3))
    return {"samples": draw(spoiled_samples(lo, hi)), "seams": seams}


@st.composite
def join_entry(draw):
    """A spec of two or three charts, chart i on (i, i + 2) unless spoiled;
    each consecutive pair is linked by a sampled transition on the overlap or
    through the two charts' maps."""
    m = draw(st.integers(2, 3))
    charts = []
    for i in range(m):
        image = [float(i), float(i + 2)]
        if draw(st.integers(0, 4)) == 0:
            image[draw(st.integers(0, 1))] = draw(FLOATS)
        chart = {"label": f"c{i}", "image": image}
        chart_map = draw(st.one_of(st.none(), st.just("identity"),
                                   st.builds(lambda a, b: {"affine": [a, b]}, FLOATS, FLOATS)))
        if chart_map is not None:
            chart["map"] = chart_map
        charts.append(chart)
    transitions = []
    for i in range(m - 1):
        if draw(st.booleans()):
            entry = draw(map_entry(i + 1.0, i + 2.0))
            transitions.append(dict(entry, between=[i, i + 1]))
    spec = {"charts": charts, "transitions": transitions, "k": draw(st.integers(-1, 4))}
    if draw(st.booleans()):
        spec["tol"] = draw(st.one_of(st.floats(1e-6, 1e-1), FLOATS))
    return spec


def run_on_files(argv, files):
    """run(argv) with each doc of files written as JSON to a temporary
    directory and its name in argv replaced by the file's path; the exit
    code and what the command printed to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in files.items():
            paths[name] = str(Path(tmp) / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(doc), encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([paths.get(a, a) for a in argv])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(["join", "verify"]), data=st.data())
def test_join_and_verify_keep_the_exit_code_contract_on_hostile_input(command, data):
    # whatever the samples, seams, orders and tolerances: an exit code of the
    # contract, no traceback, and exit 1 only as an answer, a failed
    # certificate's report or one not-joinable line
    doc = data.draw(join_entry() if command == "join" else map_entry(1.0, 2.0))
    flags = []
    if data.draw(st.booleans()):
        flags.append(f"--k={data.draw(st.integers(-1, 4))}")
    if data.draw(st.booleans()):
        flags.append(f"--tol={data.draw(st.one_of(st.floats(1e-6, 1e-1), FLOATS))!r}")
    if data.draw(st.booleans()):
        flags.append("--json")
    code, out, err = run_on_files([command, "input", *flags], {"input": doc})
    assert code in (EXIT_OK, EXIT_NEGATIVE, EXIT_INPUT, EXIT_NUMERIC)
    assert "Traceback" not in err
    if code == EXIT_NEGATIVE:
        assert out.strip() or (err.startswith("not joinable: ") and err.count("\n") == 1)


# -- the exact subcommands on hostile input -------------------------------------------

#: Number text at both ends of the float range and past them, and spoiled.
EDGE_TEXT = st.one_of(
    st.builds("{}e{}".format, st.integers(-99, 99),
              st.sampled_from([-4000, -400, -330, -324, -308, 0, 308, 309, 400, 4000])),
    st.sampled_from(["5e-324", "2.2e-308", "1.7976931348623157e308", "1/3", "-3/2", "0",
                     "-0.0", "NaN", "inf", "-inf", "abc", ""]),
)
#: A germ's coefficient or exponent that is not a small positive integer.
SPOILED_VALUES = st.one_of(
    st.integers(-3, 0), EDGE_TEXT,
    st.sampled_from([0.5, 1.5, -0.5, 1e308, 5e-324, math.nan, math.inf, None, True, [1], {}]),
)


@st.composite
def spoiled_germ(draw):
    """A germ's JSON with up to three of its coefficients and exponents
    spoiled: zero, negative, fractional, huge, tiny, NaN text or of the
    wrong type; maybe also a key dropped or a side that is not a list."""
    orientation = draw(st.sampled_from(["preserving", "preserving", "reversing", "sideways"]))
    flip = 1 if orientation == "reversing" else -1
    germ = {"orientation": orientation}
    for name, sign in (("neg", flip), ("pos", -flip)):
        exponents = sorted(draw(st.sets(st.sampled_from([1, 1.5, 2, 3]), min_size=1, max_size=3)))
        germ[name] = [{"c": sign * draw(st.sampled_from([1, 2, 0.5])), "e": e}
                      for e in exponents]
    for _ in range(draw(st.integers(0, 3))):
        side = germ[draw(st.sampled_from(["neg", "pos"]))]
        term = side[draw(st.integers(0, len(side) - 1))]
        term[draw(st.sampled_from(["c", "e"]))] = draw(SPOILED_VALUES)
    spoil = draw(st.sampled_from([None] * 8 + ["drop", "side"]))
    if spoil == "drop":
        del germ[draw(st.sampled_from(sorted(germ)))]
    elif spoil == "side":
        germ[draw(st.sampled_from(["neg", "pos"]))] = draw(st.sampled_from([5, "x", None, {}]))
    return germ


@st.composite
def spoiled_group(draw):
    """D3's group JSON with subgroups A and B, with up to three spoils of
    its table, elements or subgroups, and maybe a top-level field replaced."""
    g = groups.dihedral(3)
    table = [list(row) for row in g.table]
    elements, subgroups = list(g.elements), {"A": ["e", "s"], "B": ["e", "sr"]}
    for _ in range(draw(st.integers(0, 3))):
        spoil = draw(st.sampled_from(["entry", "row", "element", "subgroup"]))
        if spoil == "entry" and table:
            row = table[draw(st.integers(0, len(table) - 1))]
            row[draw(st.integers(0, len(row) - 1))] = draw(
                st.sampled_from([-1, len(g), 1.5, True, "a", None, math.inf, 2 ** 70]))
        elif spoil == "row" and table:
            table.pop(draw(st.integers(0, len(table) - 1)))
        elif spoil == "element":
            elements[draw(st.integers(0, len(g) - 1))] = draw(st.sampled_from(["e", "zz", 3]))
        elif spoil == "subgroup":
            subgroups[draw(st.sampled_from(["A", "B"]))] = draw(
                st.sampled_from([["e", "r"], ["zz"], [], "e", [0, 1], None]))
    doc = {"name": "D3", "elements": elements, "table": table, "subgroups": subgroups}
    if draw(st.integers(0, 4)) == 0:
        doc[draw(st.sampled_from(sorted(doc)))] = draw(st.sampled_from([None, 5, [], {}]))
    return doc


@st.composite
def exact_command(draw):
    """argv for germ jet/compose/invert, structure same, classify, psi or
    cosets, and the docs of the files it names."""
    command = draw(st.sampled_from(["jet", "compose", "invert", "same", "classify", "psi",
                                    "cosets"]))
    order = str(draw(st.integers(-1, 4)))
    # --a=TEXT, since argparse reads a separate "-1e400" as an option
    a, b = (draw(st.one_of(EDGE_TEXT, st.integers(-2, 9).map(str))) for _ in "ab")
    argv = {"jet": ["germ", "jet", "--h", "h", "--order", order],
            "compose": ["germ", "compose", "--g", "g", "--h", "h"],
            "invert": ["germ", "invert", "--h", "h"],
            "same": ["structure", "same", "--h", "h", "--g", "g", "--k", order],
            "classify": ["classify", f"--a={a}", f"--b={b}", "--k", order],
            "psi": ["psi", f"--a={a}"] + draw(st.sampled_from([[], ["--selfcheck"]])),
            "cosets": ["cosets", "group", "--D", "B"]
            + draw(st.sampled_from([["--C", "A"], ["--C", "C"], ["--pm"], []]))}[command]
    if draw(st.booleans()):
        argv.append("--json")
    files = {"h": draw(spoiled_germ()), "g": draw(spoiled_germ())}
    if command == "cosets":
        files = {"group": draw(spoiled_group())}
    return argv, files


def _tiny_germ_command(*argv):
    return list(argv), {"h": TINY_GERM, "g": TINY_GERM}


@settings(max_examples=100, deadline=None)
@given(exact_command())
@example(_tiny_germ_command("psi", "--a", "2e-400"))
@example(_tiny_germ_command("psi", "--a", "3e-330"))
@example(_tiny_germ_command("classify", "--a", "2e-400", "--b", "5e399"))
@example(_tiny_germ_command("classify", "--a", "2e-400", "--b", "5e399", "--json"))
@example(_tiny_germ_command("germ", "invert", "--h", "h"))
@example(_tiny_germ_command("structure", "same", "--h", "h", "--g", "g", "--k", "2"))
def test_exact_subcommands_keep_the_exit_code_contract_on_hostile_input(command):
    # whatever the germs, numbers and tables: an exit code of the contract,
    # no traceback, and exit 1 only as an answer with its report. These
    # subcommands also have no fault left to report: 20,000 exploratory
    # examples printed no internal error
    code, out, err = run_on_files(*command)
    assert code in (EXIT_OK, EXIT_NEGATIVE, EXIT_INPUT, EXIT_NUMERIC)
    assert "Traceback" not in err and not err.startswith("internal error:")
    if code == EXIT_NEGATIVE:
        assert out.strip()


# -- parser plumbing ------------------------------------------------------------------


def test_help_exits_zero(capsys):
    assert run(["--help"]) == EXIT_OK
    assert "twoorigins" in capsys.readouterr().out


def test_unknown_command_is_input_error(capsys):
    assert run(["frobnicate"]) == EXIT_INPUT


def test_unexpected_exception_is_one_line_internal_error(monkeypatch, capsys):
    def fault(args):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(cli, "_cmd_psi", fault)
    assert run(["psi", "--a", "2"]) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: ZeroDivisionError: division by zero\n"


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
