"""Associativity decided from a generating set agrees with the full triple scan.

``validate_groupoid`` checks the law only for first arrows in
``core._generators``, and scans every composable triple only to list the
violations.  Here its report is compared with ``oracle_associativity`` on
every table shape ``tuple_groupoid`` builds, on one-entry mutants of each, and
on hand-built bad tables; and the work on a large weak-pullback apex is
counted, not timed.  Each shape's table is also compared, key order included,
with the one filled a pair at a time (``oracle_tuple_compose``).
"""

from dataclasses import replace
from pathlib import Path

import pytest

from gpdkit import documents as docs
from gpdkit.catalog import cyclic_group, symmetric_group_3
from gpdkit.cli import build_klein_example
from gpdkit.core import (
    FiniteGroupoid,
    GroupoidFunctor,
    _generators,
    action_groupoid,
    identity_functor,
    validate_groupoid,
)
from gpdkit.equivariant import quotient_action
from gpdkit.morita import strict_pullback, weak_pullback

from oracles import (
    oracle_action_compose,
    oracle_associativity,
    oracle_strict_pullback_compose,
    oracle_weak_pullback_compose,
)

STRUCTURE = {"unit-endpoints", "composability", "totality", "composite-endpoints"}
BAD_TABLES = Path(__file__).parent / "golden" / "validate" / "bundle.json"


def _shapes() -> dict[str, tuple[FiniteGroupoid, dict]]:
    """Each shape's groupoid and its compose table filled one pair at a time."""
    c2 = cyclic_group(2)
    swap = action_groupoid(c2, ("0", "1"), {("r0", "0"): "0", ("r0", "1"): "1", ("r1", "0"): "1", ("r1", "1"): "0"})
    loop = action_groupoid(c2, ("p",), {("r0", "p"): "p", ("r1", "p"): "p"})
    to_loop = GroupoidFunctor(
        swap.induced, loop.induced, {x: "p" for x in swap.carrier},
        {a: loop.arrow_id(swap.arrow_pairs[a][0], "p") for a in swap.induced.arrows},
    )
    s3 = symmetric_group_3()
    on_points = action_groupoid(s3, "012", {(p, x): p[int(x)] for p in s3.elements for x in "012"})
    klein, half_turn = build_klein_example()
    proj = quotient_action(klein, half_turn).projection.functor
    loop_id = identity_functor(loop.induced)
    shapes = {}
    for name, a in (("S3 on 3 points", on_points), ("klein", klein)):
        shapes[f"action {name}"] = (a.induced, oracle_action_compose(a))
    for name, f in (("to_loop", to_loop), ("klein quotient", proj)):
        pb = strict_pullback(f, f)
        shapes[f"strict {name}"] = (pb.apex, oracle_strict_pullback_compose(f, f, pb))
    for name, f in (("to_loop", to_loop), ("loop", loop_id)):
        pb = weak_pullback(f, f)
        shapes[f"weak {name}"] = (pb.apex, oracle_weak_pullback_compose(f, f, pb))
    return shapes


_BUILT = _shapes()
SHAPES = {name: g for name, (g, _) in _BUILT.items()}
PER_PAIR = {name: table for name, (_, table) in _BUILT.items()}


def _mutants(g: FiniteGroupoid, limit: int = 48):
    """One ``compose`` entry, at most ``limit`` spread over the table, pointed
    at each other arrow with its endpoints, at the first arrow without them,
    or deleted."""
    keys = list(g.compose)
    for key in keys[:: max(1, len(keys) // limit)]:
        value = g.compose[key]
        ends = (g.src[value], g.tgt[value])
        parallel = [a for a in g.arrows if a != value and (g.src[a], g.tgt[a]) == ends]
        elsewhere = next(a for a in g.arrows if (g.src[a], g.tgt[a]) != ends)
        for other in [*parallel, elsewhere, None]:
            compose = dict(g.compose)
            if other is None:
                del compose[key]
            else:
                compose[key] = other
            yield replace(g, compose=compose)


def _assert_agrees(g: FiniteGroupoid) -> set[str]:
    """Check ``g``'s associativity violations against the oracle; return the report's axioms."""
    report = validate_groupoid(g)
    expected = oracle_associativity(g)
    assert [v.witness for v in report.violations if v.axiom == "associativity"] == expected
    axioms = {v.axiom for v in report.violations}
    assert ("associativity" in axioms) == bool(expected)
    return axioms


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_every_shape_has_the_per_pair_table(name):
    assert list(SHAPES[name].compose.items()) == list(PER_PAIR[name].items())


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_every_shape_is_associative(name):
    assert validate_groupoid(SHAPES[name]).ok
    assert oracle_associativity(SHAPES[name]) == []


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_mutants_get_the_oracle_associativity_violations(name):
    decided_by_generators = 0
    for mutant in _mutants(SHAPES[name]):
        axioms = _assert_agrees(mutant)
        decided_by_generators += "associativity" in axioms and not axioms & STRUCTURE
    # the action groupoids and the klein pullback have parallel arrows, so some
    # mutants keep every structural check and fail only on generators
    if name in {"action S3 on 3 points", "action klein", "strict klein quotient", "weak loop"}:
        assert decided_by_generators > 0


def test_hand_built_bad_tables_get_the_oracle_violations():
    bundle = docs.parse_bundle(docs.loads(BAD_TABLES.read_bytes()))
    names = [n for n, d in bundle.docs.items() if d["kind"] in ("groupoid", "action_groupoid")]
    assert "bad_groupoid" in names
    for name in names:
        _assert_agrees(bundle.groupoid(name))


def test_a_non_associative_loop_with_units_and_inverses_is_caught():
    """An order-5 Latin square with unit 0 and every element its own inverse,
    as a one-object table: every check but associativity passes."""
    rows = ("01234", "10342", "24013", "32401", "43120")
    elements = tuple("01234")
    g = FiniteGroupoid(
        objects=("*",),
        arrows=elements,
        src={a: "*" for a in elements},
        tgt={a: "*" for a in elements},
        compose={(a, b): row[int(b)] for a, row in zip(elements, rows) for b in elements},
        unit={"*": "0"},
        inv={a: a for a in elements},
    )
    assert _assert_agrees(g) == {"associativity"}


def _composites_of(g: FiniteGroupoid, gens: list[str]) -> set[str]:
    """Every ``s_k ∘ (… ∘ s_1)`` over ``gens``, by rounds of composing."""
    reached = set(gens)
    while True:
        new = {g.compose[(s, r)] for r in reached for s in gens if g.src[s] == g.tgt[r]} - reached
        if not new:
            return reached
        reached |= new


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_generators_compose_to_every_arrow(name):
    g = SHAPES[name]
    assert _composites_of(g, _generators(g, g.composites(), g.positions())) == set(g.arrows)


class CountingDict(dict):
    """A ``compose`` table that counts its lookups."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)


def test_validating_a_large_weak_pullback_apex_does_not_check_every_triple():
    """C8 acting freely on 8 points, pulled back weakly along its identity:
    4,096 arrows and 262,144 compose entries in one component."""
    c8 = cyclic_group(8)
    points = [str(i) for i in range(8)]
    free = action_groupoid(c8, points, {(g, x): str((int(g[1:]) + int(x)) % 8) for g in c8.elements for x in points})
    ident = identity_functor(free.induced)
    apex = weak_pullback(ident, ident).apex
    assert (len(apex.arrows), len(apex.compose)) == (4096, 262144)

    by_src = apex.arrows_from()
    out = {a: len(by_src[apex.tgt[a]]) for a in apex.arrows}
    every_triple = sum(out[a2] for a1 in apex.arrows for a2 in by_src[apex.tgt[a1]])
    gens = _generators(apex, apex.composites(), apex.positions())
    checked = sum(out[a2] for a1 in gens for a2 in by_src[apex.tgt[a1]])
    assert every_triple == 4096 * 64 * 64
    assert checked * 20 < every_triple

    counted = replace(apex, compose=CountingDict(apex.compose))
    assert validate_groupoid(counted).ok
    assert counted.compose.lookups * 20 < every_triple
