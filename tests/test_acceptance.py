"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every criterion states its own tolerance; nothing here loosens a bound to
make a run green. Timing criteria use best-of-N wall clock on the measured
call alone.
"""

import json
import random
import time
from fractions import Fraction as F

import numpy as np

from twoorigins.cli import run
from twoorigins.cosets import (
    CELLS,
    Subgroup,
    classify_wa_pair,
    double_cosets,
    intersection_type,
    pm_double_cosets,
)
from twoorigins.dline import compose_diffeo, phi_ex, psi
from twoorigins.germs import (
    Germ,
    compose,
    germ_equal,
    in_diff,
    jet_of,
    make_wa,
    poly_germ,
    real_eq,
    sandwich_smoothness,
    smoothness_at_zero,
)
from twoorigins.join import (
    ChainAtlas,
    IntervalChart,
    NumericDiffeo,
    collapse_chain,
    glue_id_and_diff,
)

import groups
from coset_oracles import corpus_groups, wreath_orbits
from glue_oracle import carried_residual


def _report(n, desc, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {desc}{tail}")
    assert ok, f"criterion {n} failed: {desc}{tail}"


def _best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# -- criterion 1 -----------------------------------------------------------------


def test_criterion_1_d3_double_cosets_exact_and_fast():
    g = groups.dihedral(3)
    a = Subgroup.from_names(g, ["e", "s"])
    b = Subgroup.from_names(g, ["e", "sr"])

    part = double_cosets(g, a, b)
    blocks = {frozenset(blk) for blk in part.named_blocks()}
    exact = blocks == {frozenset({"e", "r", "s", "sr"}), frozenset({"r2", "sr2"})}

    pm = pm_double_cosets(g, a)
    pm_blocks = {frozenset(blk) for blk in pm.named_blocks()}
    pm_exact = pm_blocks == {frozenset({"e", "s"}), frozenset({"r", "r2", "sr", "sr2"})}

    best = _best_of(lambda: double_cosets(g, a, b), 200)
    _report(
        1,
        "D3 double cosets match the hand computation and finish under 1 ms",
        exact and pm_exact and best < 1e-3,
        f"best time {best * 1e6:.0f} us",
    )


# -- criterion 2 -----------------------------------------------------------------


def _representative_subgroups(g):
    subs = {Subgroup.generated(g, []).members: Subgroup.generated(g, [])}
    for i in range(len(g)):
        s = Subgroup.generated(g, [i])
        subs.setdefault(s.members, s)
    for i in range(min(len(g), 4)):
        for j in range(i + 1, min(len(g), 4)):
            s = Subgroup.generated(g, [i, j])
            subs.setdefault(s.members, s)
    return list(subs.values())


def test_criterion_2_union_formula_agrees_with_wreath_orbits():
    # pm_double_cosets computes the union formula only; the wreath orbits
    # are the independent reference it must match block for block
    checked, disagree = 0, []
    for g in corpus_groups():
        for d in _representative_subgroups(g):
            part = pm_double_cosets(g, d)
            if part.blocks != wreath_orbits(g, d):
                disagree.append((g.name, d.members))
            for block in part.blocks:
                assert {g.inv(i) for i in block} == set(block)
            checked += 1
    _report(
        2,
        "union formula and wreath orbit sweep agree on every corpus group",
        checked >= 100 and not disagree,
        f"{checked} (group, subgroup) pairs, {len(disagree)} disagree: {disagree[:3]}",
    )


# -- criterion 3 -----------------------------------------------------------------


def _expected_cells(a, b):
    if a == b == 1:
        return {"fix+", "fix-", "ex+", "ex-"}
    if a == b:
        return {"fix+", "ex-"}
    if a * b == 1:
        return {"fix-", "ex+"}
    return set()


def _random_fraction(rng):
    while True:
        q = F(rng.randint(1, 1000), rng.randint(1, 1000))
        if F(1, 10) < q < 10:
            return q


def test_criterion_3_classification_closed_form():
    pinned = (
        (F(2), F(2), {"fix+", "ex-"}, "JMinus"),
        (F(2), F(1, 2), {"fix-", "ex+"}, "JPlus"),
        (F(2), F(3), set(), "Empty"),
        (F(1), F(1), set(CELLS), "FullD"),
    )
    ok = True
    for a, b, cells, itype in pinned:
        c = classify_wa_pair(a, b)
        ok &= {k for k, v in c.nonempty.items() if v} == cells
        ok &= intersection_type(a, b) == itype

    rng = random.Random(20260816)
    for i in range(50):
        a = _random_fraction(rng)
        if i % 3 == 0:
            b = a
        elif i % 3 == 1:
            b = 1 / a
        else:
            b = _random_fraction(rng)
            while b == a or a * b == 1:
                b = _random_fraction(rng)
        c = classify_wa_pair(a, b)
        ok &= {k for k, v in c.nonempty.items() if v} == _expected_cells(a, b)

    # distinct parameters >= 1 always give distinct structures
    for _ in range(20):
        a = F(rng.randint(100, 1000), 100)
        b = F(rng.randint(100, 1000), 100)
        if a == b:
            continue
        ok &= not classify_wa_pair(a, b).any_nonempty()

    _report(3, "w_a pair cells match the closed form on pinned and random input", ok)


# -- criterion 4 -----------------------------------------------------------------


def test_criterion_4_sandwich_smoothness_and_cross_check():
    f = poly_germ({1: 1, 2: 1})
    rep = sandwich_smoothness(jet_of(f, 2), 2, F(1, 2), 2)
    pinned = (
        rep.max_order == 1
        and rep.obstruction is not None
        and rep.obstruction.order == 2
        and rep.obstruction.neg == 2
        and rep.obstruction.pos == 4
    )
    cubic = poly_germ({1: 1, 3: 1})
    pinned &= sandwich_smoothness(jet_of(cubic, 2), 2, F(1, 2), 2).is_diffeo_ck

    germs = [
        poly_germ({1: 1, 2: 1}),
        poly_germ({1: 1, 3: 1}),
        poly_germ({1: 1, 2: -1, 3: 2}),
        poly_germ({1: -1, 2: 1}),
        poly_germ({1: -1, 3: 1}),
    ]
    pairs = [(F(2), F(1, 2)), (F(5, 2), F(2, 5)), (F(2), F(2)), (F(3), F(3))]
    mismatches = 0
    for f in germs:
        for a, b in pairs:
            n = 2
            via_jets = sandwich_smoothness(jet_of(f, n), a, b, n)
            q = compose(make_wa(b), compose(f, make_wa(a)))
            assert isinstance(q, Germ)
            via_germs = smoothness_at_zero(q, n)
            same = (
                via_jets.max_order == via_germs.max_order
                and via_jets.is_diffeo_ck == via_germs.is_diffeo_ck
            )
            if via_jets.obstruction is None or via_germs.obstruction is None:
                same &= via_jets.obstruction is None and via_germs.obstruction is None
            else:
                same &= (
                    via_jets.obstruction.order == via_germs.obstruction.order
                    and real_eq(via_jets.obstruction.neg, via_germs.obstruction.neg)
                    and real_eq(via_jets.obstruction.pos, via_germs.obstruction.pos)
                )
            mismatches += 0 if same else 1
    _report(
        4,
        "jet formula equals germ-composition smoothness on all 20 probes",
        pinned and mismatches == 0,
        f"{mismatches} mismatches",
    )


# -- criterion 5 -----------------------------------------------------------------


def test_criterion_5_psi_is_an_exact_involution():
    ok = True
    for a, root in ((1, F(1)), (4, F(2)), (9, F(3))):
        d = psi(a)
        ok &= compose_diffeo(d, d).is_identity()
        inv_root = 1 / root
        ok &= germ_equal(d.pres_a, Germ.from_sides([(inv_root, 1)], [(-inv_root, 1)]))
        ok &= germ_equal(d.pres_b, Germ.from_sides([(root, 1)], [(-root, 1)]))
        ok &= d.origin_action == "exchange"
        ok &= d.orientation == "reversing"
        ok &= in_diff(phi_ex(d), 2)
    _report(5, "psi squares to the identity with exact linear presentations", ok)


# -- criterion 6 -----------------------------------------------------------------


def test_criterion_6_glue_with_x_squared():
    g = NumericDiffeo.from_function(lambda x: x * x, (0.0, 1.0), n=256)
    elapsed = _best_of(lambda: glue_id_and_diff(g, 0.1, n=4096), 3)
    p = glue_id_and_diff(g, 0.1, n=4096)

    snap_ok = p(0.05) == 0.05 and p(0.95) == 0.95**2
    snap_ok &= all(p(float(x)) == float(x) for x in np.linspace(0.0, 0.1, 21))
    snap_ok &= all(
        p(float(x)) == float(x) * float(x) for x in np.linspace(0.9, 1.0, 21)
    )

    slopes = p.derivative_grid(np.linspace(0.005, 0.995, 397))
    positive = float(np.min(slopes)) > 0.0

    # the balance at c - eps plus the quadrature carried on to c bounds the
    # whole quadrature's residual at c
    residual = p.glue.integral_residual + carried_residual(g, p)
    _report(
        6,
        "glue of id and x^2 snaps exactly, stays monotone, balances within 1e-8",
        snap_ok and positive and residual <= 1e-8 and elapsed < 1.0,
        f"residual {residual:.2e}, {elapsed * 1e3:.1f} ms",
    )


# -- criterion 7 -----------------------------------------------------------------


def _four_chart_atlas():
    images = [(0.0, 2.0), (1.5, 3.5), (3.0, 5.0), (4.5, 6.5)]
    lams = [0.4, -0.3, 0.25]
    charts = tuple(IntervalChart(f"c{i}", img) for i, img in enumerate(images))

    def transition(a, b, lam):
        span = b - a

        def fn(x):
            t = (x - a) / span
            return a + span * (t + lam * t * (1.0 - t))

        return NumericDiffeo.from_function(fn, (a, b), n=256)

    transitions = tuple(
        transition(images[i + 1][0], images[i][1], lams[i]) for i in range(3)
    )
    return ChainAtlas(charts, transitions)


def test_criterion_7_four_chart_collapse_certifies_c2():
    atlas = _four_chart_atlas()
    t0 = time.perf_counter()
    res = collapse_chain(atlas, k=2, n=4096, tol=1e-4)
    elapsed = time.perf_counter() - t0

    refined = collapse_chain(atlas, k=2, n=8192, tol=1e-4)
    drift = max(
        abs(r1 - r2) for r1, r2 in zip(res.cert.residuals, refined.cert.residuals)
    )
    stable = refined.passed and drift <= 1e-4

    _report(
        7,
        "four-chart collapse passes C^2 at 1e-4, refinement-stable, under 10 s",
        res.passed and stable and elapsed < 10.0,
        f"residuals {[f'{r:.1e}' for r in res.cert.residuals]}, {elapsed:.2f} s",
    )


# -- criterion 8 -----------------------------------------------------------------


def test_criterion_8_cli_exit_codes(tmp_path, capsys):
    wa = lambda a: {
        "neg": [{"c": -1, "e": 1}],
        "pos": [{"c": a, "e": 1}],
        "orientation": "preserving",
    }
    w2 = tmp_path / "w2.json"
    w2.write_text(json.dumps(wa(2)))
    gid = tmp_path / "id.json"
    gid.write_text(json.dumps(wa(1)))

    ok = True

    # definite negative: no structure map between w_2 and w_3
    code = run(["classify", "--a", "2", "--b", "3"])
    out = capsys.readouterr().out
    ok &= code == 1 and "Empty" in out

    # definite negative with the slope pair 1 vs 2 in the report
    code = run(["structure", "same", "--h", str(w2), "--g", str(gid), "--json"])
    payload = json.loads(capsys.readouterr().out)
    ok &= code == 1
    ok &= payload["inverse_obstruction"] == {"order": 1, "neg": 1.0, "pos": 2.0}
    ok &= payload["obstruction"] == {"order": 1, "neg": 1.0, "pos": 0.5}

    # affirmative answer
    code = run(["classify", "--a", "2", "--b", "2"])
    capsys.readouterr()
    ok &= code == 0

    # input problem
    code = run(["cosets", str(tmp_path / "missing.json"), "--D", "A"])
    capsys.readouterr()
    ok &= code == 2

    # numeric indeterminacy: open-form composite has no exact representation
    root = tmp_path / "root.json"
    root.write_text(
        json.dumps(
            {
                "neg": [{"c": -1, "e": 1}],
                "pos": [{"c": 1, "e": 1.5}],
                "orientation": "preserving",
            }
        )
    )
    cubic = tmp_path / "cubic.json"
    cubic.write_text(
        json.dumps(
            {
                "neg": [{"c": -1, "e": 1}, {"c": -1, "e": 3}],
                "pos": [{"c": 1, "e": 1}, {"c": 1, "e": 3}],
                "orientation": "preserving",
            }
        )
    )
    code = run(["germ", "compose", "--g", str(root), "--h", str(cubic)])
    capsys.readouterr()
    ok &= code == 3

    _report(8, "CLI exit codes separate yes/no/input/numeric outcomes", ok)
