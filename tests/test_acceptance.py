"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything is exact (discrete data, no tolerances); runtime bounds
are asserted where stated.
"""

import json
import time
from pathlib import Path

import pytest

from gpdkit.cli import main
from gpdkit.core import compose_functors
from gpdkit.equivariant import PROPERTY_NAMES, property_report, decompose
from gpdkit.localization import Anafunctor, identity_two_cell, vertical_compose_ana
from gpdkit.morita import weak_equivalence_report
from gpdkit.workbench import InstanceBudget, generate_weak_equivalences, run_law_suite


@pytest.fixture(scope="module")
def default_budget():
    return InstanceBudget()


@pytest.fixture(scope="module")
def suite_report(default_budget):
    return run_law_suite(default_budget)


def _announce(number: int, title: str, ok: bool) -> bool:
    print(f"criterion {number} ({title}): {'PASS' if ok else 'FAIL'}")
    return ok


def _law(suite_report, name: str):
    return next(law for law in suite_report.laws if law.name == name)


def test_criterion_1_klein_golden(tmp_path):
    started = time.monotonic()
    out = tmp_path / "demo.json"
    code = main(["demo-klein", "--out", str(out)])
    elapsed = time.monotonic() - started
    report = json.loads(out.read_text())
    facts = report["facts"]
    ok = (
        code == 0
        and facts["original_effective"] is True
        and facts["subgroup_acts_freely"] is True
        and facts["decomposition_kernel"] == ["(e,e)", "(t,t)"]
        and facts["quotient_objects"] == 2
        and facts["quotient_isotropy_orders"] == [2, 2]
        and facts["quotient_effective"] is False
        and elapsed < 1.0
    )
    assert _announce(1, "Klein golden test", ok), (facts, elapsed)


def test_criterion_2_decomposition_theorem(default_budget):
    started = time.monotonic()
    failures = []
    generated = generate_weak_equivalences(default_budget)
    for w in generated:
        dec = decompose(w.functor)
        if compose_functors(dec.inclusion.functor, dec.projection.functor) != w.functor.functor:
            failures.append((w.kind, "stages"))
            continue
        if not weak_equivalence_report(dec.projection.functor).is_ssw:
            failures.append((w.kind, "projection"))
            continue
        if not weak_equivalence_report(dec.inclusion.functor).is_weak_equivalence:
            failures.append((w.kind, "inclusion"))
            continue
        rep_dom = property_report(w.functor.dom_action)
        rep_mid = property_report(dec.middle)
        for name in PROPERTY_NAMES:
            if name != "effective" and rep_dom.verdict(name).value != rep_mid.verdict(name).value:
                failures.append((w.kind, name))
    elapsed = time.monotonic() - started
    ok = not failures and generated and elapsed < 300.0
    print(f"  ({len(generated)} weak equivalences decomposed in {elapsed:.1f}s)")
    assert _announce(2, "decomposition theorem suite", ok), failures[:5]


def test_criterion_3_three_for_two_and_pullbacks(suite_report):
    laws = [
        _law(suite_report, "morita: three-for-two"),
        _law(suite_report, "morita: pullback projections keep their class"),
        _law(suite_report, "equivariant: pullbacks realize as action groupoids"),
    ]
    ok = all(law.ok for law in laws)
    assert _announce(3, "3-for-2 and pullback laws", ok), [l.witness for l in laws if not l.ok]


def test_criterion_4_two_cell_calculus(suite_report, swap_action, loop_action, collapse_swap, swap_to_loop):
    laws = [
        _law(suite_report, "localization: normalization idempotent and stable"),
        _law(suite_report, "localization: 2-cell equality is an equivalence"),
        _law(suite_report, "localization: vertical composition unital and associative"),
    ]
    # a nontrivial stacked triple, exact pointwise
    span = Anafunctor(collapse_swap, swap_to_loop)
    iota = identity_two_cell(span)
    loop_arrow = loop_action.arrow_id("r1", "p")
    from gpdkit.core import validate_nat_trans
    from gpdkit.localization import AnaTwoCell

    flipped = AnaTwoCell(
        span, span, {o: loop_action.induced.compose[(loop_arrow, c)] for o, c in iota.component.items()}
    )
    assert validate_nat_trans(flipped.transformation).ok
    stacked_l = vertical_compose_ana(vertical_compose_ana(flipped, flipped), flipped)
    stacked_r = vertical_compose_ana(flipped, vertical_compose_ana(flipped, flipped))
    pointwise = stacked_l.transformation == stacked_r.transformation == flipped.transformation
    ok = all(law.ok for law in laws) and pointwise
    assert _announce(4, "2-cell calculus", ok), [l.witness for l in laws if not l.ok]


def test_criterion_5_localization_evidence(suite_report):
    laws = [
        _law(suite_report, "localization: strictification and span replacement"),
        _law(suite_report, "equivariant: spans replace by action-groupoid spans"),
    ]
    ok = all(law.ok for law in laws)
    assert _announce(5, "localization equivalence evidence", ok), [l.witness for l in laws if not l.ok]


def test_criterion_6_oracle_consistency(suite_report, default_budget):
    laws = [
        _law(suite_report, "morita: skeleton invariant preserved"),
        _law(suite_report, "equivariant: invariant verdicts agree, effectiveness may differ"),
    ]
    # the expected divergence: some generated projection loses effectiveness
    divergent = []
    for w in generate_weak_equivalences(default_budget):
        dom_eff = property_report(w.functor.dom_action).effective.value
        cod_eff = property_report(w.functor.cod_action).effective.value
        if dom_eff != cod_eff:
            divergent.append(w.kind)
    ok = all(law.ok for law in laws) and bool(divergent)
    assert _announce(6, "oracle consistency", ok), (divergent[:3], [l.witness for l in laws if not l.ok])


def test_criterion_7_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code_a = main(["suite", "--budget", "group=8,carrier=4,objects=6", "--seed", "0", "--out", str(a)])
    code_b = main(["suite", "--budget", "group=8,carrier=4,objects=6", "--seed", "0", "--out", str(b)])
    golden = Path(__file__).parent / "golden" / "suite_group8_carrier4_objects6_seed0.json"
    ok = code_a == 0 and code_b == 0 and a.read_bytes() == b.read_bytes() == golden.read_bytes()
    assert _announce(7, "suite determinism", ok)
