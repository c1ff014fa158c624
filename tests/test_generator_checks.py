"""Functors and groups checked on generators agree with the full scans.

``validate_functor`` checks composition only on the pairs ``(a, s)`` with
``s`` a generating arrow kept on a domain proven valid, and ``validate_group``
checks associativity only against a generating sequence; each scans every
entry when a fast check fails.  Here both reports are compared with
``oracle_validate_functor`` and ``oracle_validate_group`` on every table shape,
on one-entry mutants of ``arr_map`` and ``mul``, and on a plain domain table
with an entry at a pair that does not compose; which values keep
generating arrows is pinned; and the strict pullback's table, read off its
factor rows, is compared with the one filled a pair at a time on the
workbench's generated functors.
"""

from dataclasses import replace

import pytest

from gpdkit import documents as docs
from gpdkit.catalog import cyclic_group, group_catalog, symmetric_group_3
from gpdkit.cli import build_klein_example
from gpdkit.core import (
    FiniteGroup,
    GroupoidFunctor,
    _generating_sequence,
    _generators,
    action_groupoid,
    closure,
    direct_product,
    fibers,
    identity_functor,
    subgroup,
    trivial_group,
    validate_functor,
    validate_group,
    validate_groupoid,
)
from gpdkit.equivariant import equivariant_strict_pullback, quotient_action
from gpdkit.morita import strict_pullback, weak_pullback
from gpdkit.workbench import InstanceBudget, build_instances, shrink_groupoid

from oracles import oracle_strict_pullback_compose, oracle_validate_functor, oracle_validate_group
from test_associativity import CountingDict, _composites_of

BUDGET = InstanceBudget(max_group_order=4, max_carrier_size=3)


def _actions():
    c2 = cyclic_group(2)
    swap = action_groupoid(c2, ("0", "1"), {("r0", "0"): "0", ("r0", "1"): "1", ("r1", "0"): "1", ("r1", "1"): "0"})
    loop = action_groupoid(c2, ("p",), {("r0", "p"): "p", ("r1", "p"): "p"})
    s3 = symmetric_group_3()
    on_points = action_groupoid(s3, "012", {(p, x): p[int(x)] for p in s3.elements for x in "012"})
    klein, half_turn = build_klein_example()
    return swap, loop, on_points, klein, half_turn


def _shapes() -> dict[str, GroupoidFunctor]:
    """Functors whose two ends keep generating arrows: between action
    groupoids, and out of a pullback apex once it has validated."""
    swap, loop, on_points, klein, half_turn = _actions()
    to_loop = GroupoidFunctor(
        swap.induced, loop.induced, {x: "p" for x in swap.carrier},
        {a: loop.arrow_id(swap.arrow_pairs[a][0], "p") for a in swap.induced.arrows},
    )
    proj = quotient_action(klein, half_turn).projection.functor
    pb = strict_pullback(proj, proj)
    assert validate_groupoid(pb.apex).ok
    return {
        "identity S3 on 3 points": identity_functor(on_points.induced),
        "swap to loop": to_loop,
        "klein quotient": proj,
        "validated strict apex to klein": pb.pr1,
    }


SHAPES = _shapes()


def _arr_map_mutants(f: GroupoidFunctor, limit: int = 8):
    """``f`` with the image of one arrow, for at most ``limit`` arrows spread
    over the domain, moved to each other arrow with its endpoints, then to the
    first arrow without them."""
    dom, cod = f.dom, f.cod
    for a in dom.arrows[:: max(1, len(dom.arrows) // limit)]:
        b = f.arr_map[a]
        ends = (cod.src[b], cod.tgt[b])
        parallel = [c for c in cod.arrows if c != b and (cod.src[c], cod.tgt[c]) == ends]
        elsewhere = [c for c in cod.arrows if (cod.src[c], cod.tgt[c]) != ends][:1]
        for other in parallel + elsewhere:
            yield GroupoidFunctor(dom, cod, f.obj_map, {**f.arr_map, a: other})


def _assert_functor_agrees(f: GroupoidFunctor) -> set[str]:
    """Check ``f``'s report against the oracle; return the report's axioms."""
    report = validate_functor(f)
    assert [(v.axiom, v.witness) for v in report.violations] == oracle_validate_functor(f)
    return {v.axiom for v in report.violations}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_every_shape_validates_on_its_kept_generators(name):
    f = SHAPES[name]
    assert f.dom._kept_generators is not None and f.cod._kept_generators is not None
    assert _assert_functor_agrees(f) == set()


def test_arr_map_mutants_get_the_oracle_violations():
    only_composition = 0
    for f in SHAPES.values():
        for mutant in _arr_map_mutants(f):
            axioms = _assert_functor_agrees(mutant)
            only_composition += axioms == {"composition preservation"}
    # an involution sent to a parallel involution keeps endpoints, units and
    # inverses, so only the check on generators can reject it
    assert only_composition > 0


def test_generated_functors_and_their_mutants_get_the_oracle_violations():
    for w in build_instances(BUDGET).weak_equivalences:
        f = w.functor.functor
        assert _assert_functor_agrees(f) == set()
        for mutant in _arr_map_mutants(f, limit=2):
            _assert_functor_agrees(mutant)


def test_functors_out_of_unvalidated_apexes_get_the_full_scan():
    f = SHAPES["klein quotient"]
    pb = strict_pullback(f, f)
    assert pb.apex._kept_generators is None
    assert _assert_functor_agrees(pb.pr1) == set()
    for mutant in _arr_map_mutants(pb.pr1):
        _assert_functor_agrees(mutant)


def test_composition_is_checked_on_the_pairs_of_generators_only():
    """C8 acting freely on 8 points: 512 composable pairs, 8 kept generators
    with 8 arrows out of each target, so 64 composites are looked up."""
    c8 = cyclic_group(8)
    points = [str(i) for i in range(8)]
    free = action_groupoid(c8, points, {(g, x): str((int(g[1:]) + int(x)) % 8) for g in c8.elements for x in points})
    g = free.induced
    counted = replace(g, compose=CountingDict(g.compose))
    object.__setattr__(counted, "_kept_generators", g._kept_generators)
    f = GroupoidFunctor(g, counted, {x: x for x in g.objects}, {a: a for a in g.arrows})
    assert (len(g.compose), len(g._kept_generators)) == (512, 8)
    assert validate_functor(f).ok
    assert counted.compose.lookups == 64


def _groups() -> dict[str, FiniteGroup]:
    groups = dict(group_catalog())
    v4 = groups["V4"]
    groups["V4 x C2"] = direct_product(v4, cyclic_group(2))[0]
    groups["trivial"] = trivial_group()
    s3 = groups["S3"]
    groups["S3 subgroup"] = subgroup(s3, closure(s3, s3.elements[-1:]))
    return groups


GROUPS = _groups()


def _mul_mutants(g: FiniteGroup, limit: int = 24):
    """One ``mul`` entry, at most ``limit`` spread over the table, pointed at each other element."""
    keys = list(g.mul)
    for key in keys[:: max(1, len(keys) // limit)]:
        for other in g.elements:
            if other != g.mul[key]:
                yield FiniteGroup(g.elements, {**g.mul, key: other}, g.unit, g.inv)


def _assert_group_agrees(g: FiniteGroup) -> set[str]:
    report = validate_group(g)
    assert [(v.axiom, v.witness) for v in report.violations] == oracle_validate_group(g)
    return {v.axiom for v in report.violations}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_every_group_validates_on_its_generating_sequence(name):
    assert _assert_group_agrees(GROUPS[name]) == set()


def test_mul_mutants_get_the_oracle_violations():
    only_associativity = 0
    for g in GROUPS.values():
        for mutant in _mul_mutants(g):
            axioms = _assert_group_agrees(mutant)
            only_associativity += axioms == {"associativity"}
    assert only_associativity > 0


def test_a_non_associative_loop_with_units_and_inverses_is_caught():
    """The order-5 Latin square of ``test_associativity`` as a group table."""
    rows = ("01234", "10342", "24013", "32401", "43120")
    elements = tuple("01234")
    mul = {(a, b): row[int(b)] for a, row in zip(elements, rows) for b in elements}
    assert _assert_group_agrees(FiniteGroup(elements, mul, "0", {a: a for a in elements})) == {"associativity"}


def test_associativity_is_checked_against_the_generating_sequence_only():
    c8 = cyclic_group(8)
    counted = FiniteGroup(c8.elements, CountingDict(c8.mul), c8.unit, c8.inv)
    _generating_sequence(counted)
    counted.mul.lookups = 0
    assert validate_group(counted).ok
    # the declaration check reads each entry twice, units and inverses take 4
    # lookups an element, and each generator 4 a pair
    assert len(_generating_sequence(c8)) == 1
    assert counted.mul.lookups == 2 * 64 + 4 * 8 + 4 * 64


def test_action_groupoids_keep_each_generator_at_every_point():
    swap, loop, on_points, klein, _ = _actions()
    point = action_groupoid(trivial_group(), ("x", "y"), {("e", "x"): "x", ("e", "y"): "y"})
    for a in (swap, loop, on_points, klein, point):
        gens = _generating_sequence(a.group) or (a.group.unit,)
        kept = a.induced._kept_generators
        assert kept == tuple(a.arrow_id(s, x) for s in gens for x in a.carrier)
        assert _composites_of(a.induced, list(kept)) == set(a.induced.arrows)


def test_a_groupoid_keeps_the_generators_of_its_light_test_once_it_validates():
    f = SHAPES["klein quotient"]
    apex = strict_pullback(f, f).apex
    assert apex._kept_generators is None
    broken = replace(apex, compose={**apex.compose, next(iter(apex.compose)): apex.arrows[-1]})
    assert not validate_groupoid(broken).ok
    assert broken._kept_generators is None
    assert validate_groupoid(apex).ok
    assert apex._kept_generators == tuple(_generators(apex, apex.composites(), apex.positions()))


def test_pullback_apexes_shrunk_and_parsed_groupoids_keep_nothing():
    swap, _, _, klein, half_turn = _actions()
    proj = quotient_action(klein, half_turn).projection
    f = proj.functor
    apexes = [
        strict_pullback(f, f).apex,
        weak_pullback(f, f).apex,
        equivariant_strict_pullback(proj, proj).plain.apex,
        shrink_groupoid(klein.induced),
    ]
    assert all(g._kept_generators is None for g in apexes)
    bundle = docs.parse_bundle(docs.loads(docs.dumps({
        "kind": "bundle",
        "documents": {"plain": docs.groupoid_doc(swap.induced), "action": docs.action_doc(klein)},
    })))
    plain = bundle.groupoid("plain")
    assert plain._kept_generators is None
    assert bundle.groupoid("action")._kept_generators is not None  # verified when read
    bundle.require_groupoids(plain)
    assert plain._kept_generators == tuple(_generators(plain, plain.composites(), plain.positions()))


def test_strict_pullback_rows_equal_the_per_pair_oracle_on_generated_tables():
    functors = [w.functor.functor for w in build_instances(BUDGET).weak_equivalences]
    by_cod = fibers(functors, lambda f: (f.cod.objects, f.cod.arrows))
    pairs = [(phi, psi) for fs in by_cod.values() for phi in fs for psi in fs if phi.cod == psi.cod]
    assert len(pairs) > 100
    for phi, psi in pairs:
        pb = strict_pullback(phi, psi)
        assert list(pb.apex.compose.items()) == list(oracle_strict_pullback_compose(phi, psi, pb).items())


def test_a_domain_entry_at_a_pair_that_does_not_compose_is_scanned():
    """The rows hold only composable pairs, so an extra entry of a plain
    domain table is missed by them; the full scan still reads it, and the
    report is the oracle's."""
    g = _actions()[0].induced
    a2, a1 = next((a2, a1) for a1 in g.arrows for a2 in g.arrows if g.src[a2] != g.tgt[a1])
    extra = replace(g, compose={**dict(g.compose), (a2, a1): a1})
    f = GroupoidFunctor(extra, g, {x: x for x in g.objects}, {a: a for a in g.arrows})
    assert extra._kept_generators is None and g._kept_generators is not None
    assert _assert_functor_agrees(f) == {"composition preservation"}
    assert validate_functor(f).violations[0].witness == (a2, a1)
