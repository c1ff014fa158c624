import dataclasses
from collections import Counter
from pathlib import Path

import pytest

from gpdkit import workbench
from gpdkit import equivariant, localization, morita
from gpdkit.catalog import cyclic_group, klein_four_group
from gpdkit.catalog import group_catalog
from gpdkit.cli import main
from gpdkit.core import FiniteGroupoid, groupoid_iso_search, trivial_group, validate_groupoid
from gpdkit.core import all_subgroups, subgroup
from gpdkit.morita import weak_equivalence_report
from gpdkit.workbench import (
    InstanceBudget,
    actions_of_group,
    build_instances,
    enumerate_actions,
    generate_weak_equivalences,
    run_law_suite,
    shrink_groupoid,
)
from oracles import oracle_actions_of_group


@pytest.fixture(scope="module")
def small_budget():
    return InstanceBudget(max_group_order=4, max_carrier_size=3)


@pytest.fixture(scope="module")
def small_suite(small_budget):
    return run_law_suite(small_budget)


class TestEnumeration:
    def test_trivial_group_has_one_action_per_size(self):
        acts = actions_of_group(trivial_group(), 1)
        assert len(acts) == 1

    def test_z2_on_two_points_has_two_actions(self):
        acts = [a for a in actions_of_group(cyclic_group(2), 2) if len(a.carrier) == 2]
        assert len(acts) == 2  # trivial and the swap, up to relabeling

    def test_klein_enumeration_includes_the_compass_action(self, klein_action):
        acts = [a for a in actions_of_group(klein_four_group(), 4) if len(a.carrier) == 4]
        assert any(groupoid_iso_search(a.induced, klein_action.induced) is not None for a in acts)

    def test_every_enumerated_action_is_valid(self, small_budget):
        for a in enumerate_actions(small_budget):
            assert validate_groupoid(a.induced).ok

    def test_deterministic_order(self, small_budget):
        first = [a.act for a in enumerate_actions(small_budget)]
        second = [a.act for a in enumerate_actions(small_budget)]
        assert first == second

    def test_orbit_types_match_the_brute_force_search(self):
        # every catalog group and every subgroup of one (the groups the
        # generator enumerates) at carrier 4, the smallest groups at carrier 5
        cases = []
        for _, big in group_catalog():
            cases += [(big, 4)] + [(subgroup(big, sub), 4) for sub in all_subgroups(big)]
            if big.order <= 4:
                cases.append((big, 5))
        for group, size in cases:
            tables = [a.act for a in actions_of_group(group, size)]
            assert tables == oracle_actions_of_group(group, size), (group.elements, size)

    def test_build_instances_enumerates_the_population_once(self, monkeypatch):
        calls = []
        original = workbench.enumerate_actions

        def counting(budget):
            calls.append(budget)
            return original(budget)

        monkeypatch.setattr(workbench, "enumerate_actions", counting)
        build_instances(InstanceBudget())
        assert len(calls) == 1

    def test_build_instances_enumerates_each_group_once(self, monkeypatch):
        # a whole group and C2..C8's trivial subgroup (equal to C1) reuse the earlier list
        groups = []
        original = workbench.actions_of_group

        def recording(group, max_size):
            groups.append(group)
            return original(group, max_size)

        monkeypatch.setattr(workbench, "actions_of_group", recording)
        build_instances(InstanceBudget())
        assert not [(g, h) for i, g in enumerate(groups) for h in groups[:i] if g == h]


class TestGenerator:
    def test_soundness(self, small_budget):
        for w in generate_weak_equivalences(small_budget):
            assert weak_equivalence_report(w.functor.functor).is_weak_equivalence, w.kind

    def test_kinds_present(self, small_budget):
        kinds = {w.kind for w in generate_weak_equivalences(small_budget)}
        assert {"identity", "projection", "inclusion", "composite"} <= kinds

    def test_composites_record_their_stages(self, small_budget):
        composites = [w for w in generate_weak_equivalences(small_budget) if w.kind == "composite"]
        assert composites
        for w in composites:
            projection, inclusion = w.stages
            assert projection.cod_action == inclusion.dom_action

    def test_reused_action_lists_give_the_inclusions_of_a_fresh_enumeration(self, small_budget):
        # the inclusions read an earlier equal group's actions in place of enumerating the subgroup
        groups = [g for _, g in group_catalog() if g.order <= small_budget.max_group_order]
        fresh = [
            equivariant.balanced_product(big, inner).inclusion
            for big in groups
            for sub in all_subgroups(big)
            for inner in actions_of_group(subgroup(big, sub), small_budget.max_carrier_size)
        ]
        wes = generate_weak_equivalences(small_budget)
        assert [w.functor for w in wes if w.kind == "inclusion"] == fresh

    def test_klein_projection_emitted_at_default(self):
        wes = generate_weak_equivalences(InstanceBudget())
        hits = [
            w
            for w in wes
            if w.kind == "projection"
            and w.functor.dom_action.group.order == 4
            and len(w.functor.dom_action.carrier) == 4
            and len(w.functor.cod_action.carrier) == 2
        ]
        assert hits

    def test_each_catalogue_group_gets_one_subgroup_list(self, monkeypatch):
        # once inside actions_of_group, once for the generator's two loops
        passed = []
        original = workbench.all_subgroups

        def counting(group):
            passed.append(group)
            return original(group)

        monkeypatch.setattr(workbench, "all_subgroups", counting)
        generate_weak_equivalences(InstanceBudget())
        assert max(Counter(map(id, passed)).values()) <= 2


class TestLawSuite:
    def test_each_weak_pullback_is_built_once(self, monkeypatch):
        budget = InstanceBudget(max_group_order=4, max_carrier_size=3, max_objects=7, sample_seed=1)
        # built first: the round-trip spans compose through pullbacks of their own
        instances = build_instances(budget)
        pairs = []
        original = morita.weak_pullback

        def recording(phi, psi):
            pairs.append((phi, psi))  # held, so no id is reused during the run
            return original(phi, psi)

        for module in (morita, workbench, equivariant, localization):
            monkeypatch.setattr(module, "weak_pullback", recording)
        run_law_suite(budget, instances)
        ids = [(id(phi), id(psi)) for phi, psi in pairs]
        assert pairs
        assert len(set(ids)) == len(ids)

    def test_the_self_pullback_pass_runs_calls_with_only_equivariant_checks(self, monkeypatch):
        # neither benchmark budget reaches an index past PULLBACK_PLAIN_WES
        # with equivariant pullbacks still owed; group=8,carrier=1 does
        weak_equivalences = build_instances(InstanceBudget(8, 1, 6)).weak_equivalences
        calls = []
        original = workbench._self_pullback_checks

        def recording(w, rep, equivariant, plain, *checks):
            calls.append((equivariant, plain))
            return original(w, rep, equivariant, plain, *checks)

        monkeypatch.setattr(workbench, "_self_pullback_checks", recording)
        checks = workbench._self_pullback_pass(weak_equivalences)
        assert len(calls) == 59
        assert sum(not plain for _, plain in calls) == 19
        assert sum(equivariant for equivariant, _ in calls) == 24
        assert [len(kind) for kind in checks] == [200, 61, 144]  # comparison, projection, equivariant
        assert all(ok for kind in checks for _, ok in kind)

    def test_all_laws_pass_at_small_budget(self, small_suite):
        failing = [law for law in small_suite.laws if not law.ok]
        assert not failing, failing

    def test_report_bytes_deterministic(self, small_budget, small_suite):
        again = run_law_suite(small_budget)
        assert again.to_bytes() == small_suite.to_bytes()

    def test_corrupted_table_fails_with_shrunk_witness(self, small_budget):
        base = build_instances(small_budget)
        klein = next(a for a in base.actions if a.group.order == 4 and len(a.carrier) >= 2)
        g = klein.induced
        compose = dict(g.compose)
        key = next(iter(compose))
        compose[key] = next(
            a for a in g.arrows
            if a != compose[key] and g.src[a] == g.src[compose[key]] and g.tgt[a] == g.tgt[compose[key]]
        )
        corrupted = FiniteGroupoid(g.objects, g.arrows, g.src, g.tgt, compose, g.unit, g.inv)
        assert not validate_groupoid(corrupted).ok
        # the only action: the iso law searches between actions, and
        # element_order may never stop on a corrupted isotropy table
        instances = dataclasses.replace(base, actions=(dataclasses.replace(klein, induced=corrupted),))
        report = run_law_suite(small_budget, instances)
        law = next(l for l in report.laws if l.name == "core: action groupoids validate")
        assert not law.ok
        assert law.witness and "violates" in law.witness

    def test_shrinker_reduces_a_corrupted_groupoid(self, klein_action):
        g = klein_action.induced
        compose = dict(g.compose)
        key = next(iter(compose))
        compose[key] = next(
            a for a in g.arrows
            if a != compose[key] and g.src[a] == g.src[compose[key]] and g.tgt[a] == g.tgt[compose[key]]
        )
        corrupted = FiniteGroupoid(g.objects, g.arrows, g.src, g.tgt, compose, g.unit, g.inv)
        small = shrink_groupoid(corrupted)
        assert not validate_groupoid(small).ok
        assert len(small.objects) <= len(corrupted.objects)
        assert len(small.arrows) < len(corrupted.arrows)

    def test_seed_does_not_flip_verdicts_in_sampled_regime(self):
        a = run_law_suite(InstanceBudget(max_group_order=4, max_carrier_size=3, max_objects=7, sample_seed=1))
        b = run_law_suite(InstanceBudget(max_group_order=4, max_carrier_size=3, max_objects=7, sample_seed=2))
        assert a.all_ok and b.all_ok
        assert {l.name: l.ok for l in a.laws} == {l.name: l.ok for l in b.laws}

    def test_exhaustive_flag(self):
        assert InstanceBudget().exhaustive
        assert not InstanceBudget(max_objects=7).exhaustive

    def test_sampled_report_matches_its_golden_bytes(self, tmp_path):
        # report bytes of `gpdkit suite --budget group=4,carrier=3,objects=7 --seed 1`
        golden = Path(__file__).parent / "golden" / "suite_group4_carrier3_objects7_seed1.json"
        out = tmp_path / "suite.json"
        assert main(["suite", "--budget", "group=4,carrier=3,objects=7", "--seed", "1", "--out", str(out)]) == 0
        assert out.read_bytes() == golden.read_bytes()
