"""``validate_nat_trans`` agrees with ``oracle_validate_nat_trans``.

Reports are compared violation by violation, in order, on the comparisons of
the weak self-pullbacks of the sampled build's weak equivalences, on every
transformation from a conftest functor to itself, and on every one-entry
mutant of each of their component tables: one object's component moved to
each other codomain arrow; and on a plain codomain table whose entry at a pair
that does not compose closes a square the rows cannot read.
"""

from dataclasses import replace

import pytest

from gpdkit.core import GroupoidFunctor, NaturalTransformation, identity_functor, validate_nat_trans
from gpdkit.morita import weak_pullback
from gpdkit.workbench import InstanceBudget, build_instances

from oracles import oracle_all_transformations, oracle_validate_nat_trans

SAMPLED = InstanceBudget(max_group_order=4, max_carrier_size=3, max_objects=7, sample_seed=1)


def _assert_agrees(eta: NaturalTransformation) -> set[str]:
    """Check ``eta``'s report against the oracle; return the report's axioms."""
    report = validate_nat_trans(eta)
    assert [(v.axiom, v.witness) for v in report.violations] == oracle_validate_nat_trans(eta)
    return {v.axiom for v in report.violations}


def _component_mutants(eta: NaturalTransformation):
    """``eta`` with one object's component moved to each other codomain arrow."""
    for z, c in eta.component.items():
        for other in eta.source.cod.arrows:
            if other != c:
                yield NaturalTransformation(eta.source, eta.target, {**eta.component, z: other})


def test_sampled_weak_pullback_comparisons_and_their_mutants():
    axioms = set()
    for w in build_instances(SAMPLED).weak_equivalences:
        f = w.functor.functor
        comparison = weak_pullback(f, f).comparison
        assert _assert_agrees(comparison) == set()
        for mutant in _component_mutants(comparison):
            axioms |= _assert_agrees(mutant)
    assert axioms == {"endpoints", "naturality"}


@pytest.fixture
def conftest_functors(collapse_swap, swap_to_loop, swap_action, point_action, loop_action, klein_action):
    actions = (swap_action, point_action, loop_action, klein_action)
    return [collapse_swap, swap_to_loop, *(identity_functor(a.induced) for a in actions)]


def test_conftest_transformations_and_their_mutants(conftest_functors):
    natural = unnatural = only_naturality = 0
    for f in conftest_functors:
        for component in oracle_all_transformations(f, f):
            eta = NaturalTransformation(f, f, component)
            if _assert_agrees(eta):
                unnatural += 1
            else:
                natural += 1
            for mutant in _component_mutants(eta):
                only_naturality += _assert_agrees(mutant) == {"naturality"}
    # every functor has its identity; the Klein action's nontrivial
    # stabilizers also give assignments that fail a square
    assert natural >= len(conftest_functors) and unnatural > 0 and only_naturality > 0


def test_non_parallel_functors_are_one_violation(collapse_swap, swap_to_loop):
    eta = NaturalTransformation(collapse_swap, swap_to_loop, {})
    assert oracle_validate_nat_trans(eta) == [("parallelism", ())]
    assert _assert_agrees(eta) == {"parallelism"}


def test_a_codomain_entry_at_a_pair_that_does_not_compose_is_read_by_the_scan(swap_action):
    """A component with the wrong endpoints makes the square at a unit read a
    pair that does not compose.  A plain codomain table holds an entry there
    that closes the square, so the scan, and the oracle, find that square
    natural; the rows cannot see the entry."""
    g = swap_action.induced
    z = g.objects[0]
    unit = g.unit[z]
    c = next(a for a in g.arrows if g.src[a] != z and g.tgt[a] == z)
    cod = replace(g, compose={**dict(g.compose), (c, unit): c})
    ident = GroupoidFunctor(g, cod, {x: x for x in g.objects}, {a: a for a in g.arrows})
    eta = NaturalTransformation(ident, ident, {**{x: g.unit[x] for x in g.objects}, z: c})
    report = validate_nat_trans(eta)
    assert _assert_agrees(eta) == {"endpoints", "naturality"}
    assert ("endpoints", (z, c)) in [(v.axiom, v.witness) for v in report.violations]
    assert ("naturality", (unit,)) not in [(v.axiom, v.witness) for v in report.violations]
