"""``validate_groupoid`` agrees with ``oracle_validate_groupoid``.

``validate_groupoid`` makes one decision on the rows of the compose table
and, when it fails, lists every violation in one scan of the pairs.  Here
its whole report, axiom, witness and order, is compared with a plain
per-pair scan on every table shape ``tuple_groupoid`` builds, on one-entry
mutants of each, built as row tables and as plain dicts (a changed entry, a
dropped one, and an extra entry at a pair that does not compose), on
mutants that break one inverse law at one arrow, on one-entry mutants of
the inverse and unit tables, on two-fault mutants (a plain dict with an
extra entry and a dropped one, and a row table with entries changed in two
rows), and on the sampled build's action groupoids.  A table keeps its
generating set exactly when its report is ok.
"""

from dataclasses import replace

import pytest

from gpdkit.core import FiniteGroupoid, RowTable, _generators, validate_groupoid
from gpdkit.workbench import InstanceBudget, build_instances

from oracles import oracle_validate_groupoid
from test_associativity import SHAPES

SAMPLED = InstanceBudget(max_group_order=4, max_carrier_size=3, max_objects=7, sample_seed=1)


def _assert_agrees(g: FiniteGroupoid) -> set[str]:
    """Check ``g``'s report against the oracle; return the report's axioms."""
    report = validate_groupoid(g)
    assert [(v.axiom, v.witness) for v in report.violations] == oracle_validate_groupoid(g)
    return {v.axiom for v in report.violations}


def _spread(items: list, limit: int) -> list:
    return items[:: max(1, len(items) // limit)]


def _row_mutants(g: FiniteGroupoid, limit: int = 24):
    """``g`` as a row table with one entry, at most ``limit`` spread over the
    table, pointed at up to two other arrows with its endpoints and at the
    first arrow without them."""
    table, src, tgt = g.compose, g.src, g.tgt
    for first, i in _spread([(a, i) for a, row in table.rows.items() for i in range(len(row))], limit):
        value = table.rows[first][i]
        parallel = [a for a in g.arrows if a != value and (src[a], tgt[a]) == (src[value], tgt[value])]
        elsewhere = [a for a in g.arrows if (src[a], tgt[a]) != (src[value], tgt[value])]
        for other in parallel[:2] + elsewhere[:1]:
            row = list(table.rows[first])
            row[i] = other
            yield replace(g, compose=RowTable({**table.rows, first: row}, table.out, src, tgt))


def _inverse_entry_mutants(g: FiniteGroupoid, limit: int = 8):
    """``g`` as a row table with the entry ``a⁻¹ ∘ a``, or ``a ∘ a⁻¹``, of one
    arrow ``a``, for at most ``limit`` arrows that are not their own inverse,
    pointed at another loop at its object: only associativity fails, and
    the inverse laws at ``a`` and ``a⁻¹`` that read that entry."""
    table, src, tgt, pos = g.compose, g.src, g.tgt, g.positions()
    for a in _spread([a for a in g.arrows if g.inv[a] != a], limit):
        for first, after in ((a, g.inv[a]), (g.inv[a], a)):
            x = src[first]
            for other in [b for b in g.arrows if b != g.unit[x] and src[b] == tgt[b] == x][:2]:
                row = list(table.rows[first])
                row[pos[after]] = other
                yield replace(g, compose=RowTable({**table.rows, first: row}, table.out, src, tgt))


def _dict_mutants(g: FiniteGroupoid, limit: int = 24):
    """``g`` as a plain dict with one entry, at most ``limit`` spread over the
    table, pointed at another arrow or dropped, and with one extra entry at
    each of at most ``limit`` pairs that do not compose."""
    plain = dict(g.compose)
    for key in _spread(list(plain), limit):
        for other in [a for a in g.arrows if a != plain[key]][:3] + [None]:
            compose = dict(plain)
            if other is None:
                del compose[key]
            else:
                compose[key] = other
            yield replace(g, compose=compose)
    apart = [(a2, a1) for a1 in g.arrows for a2 in g.arrows if g.src[a2] != g.tgt[a1]]
    for a2, a1 in _spread(apart, limit):
        for value in (a1, a2):
            yield replace(g, compose={**plain, (a2, a1): value})


def _inverse_and_unit_mutants(g: FiniteGroupoid):
    """``g`` with one arrow's inverse, or one object's unit, moved to each of three other arrows."""
    for a in _spread(list(g.arrows), 8):
        for other in [b for b in g.arrows if b != g.inv[a]][:3]:
            yield replace(g, inv={**g.inv, a: other})
    for x in g.objects[:2]:
        for other in [b for b in g.arrows if b != g.unit[x]][:3]:
            yield replace(g, unit={**g.unit, x: other})


def _two_fault_mutants(g: FiniteGroupoid, limit: int = 8):
    """``g`` with two faults at once, for at most ``limit`` choices of each: as
    a plain dict with one extra entry at a pair that does not compose and one
    entry dropped, and as a row table with the last entry of each of two
    different rows pointed at the first other arrow."""
    plain = dict(g.compose)
    apart = [(a2, a1) for a1 in g.arrows for a2 in g.arrows if g.src[a2] != g.tgt[a1]]
    for (a2, a1), key in zip(_spread(apart, limit), _spread(list(plain)[::-1], limit)):
        compose = {**plain, (a2, a1): a1}
        del compose[key]
        yield replace(g, compose=compose)
    table = g.compose
    firsts = _spread(list(table.rows), limit)
    for first, second in zip(firsts, firsts[1:]):
        rows = dict(table.rows)
        for a in (first, second):
            rows[a] = rows[a][:-1] + [next(b for b in g.arrows if b != rows[a][-1])]
        yield replace(g, compose=RowTable(rows, table.out, g.src, g.tgt))


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_every_shape_gets_the_oracle_report(name):
    g = SHAPES[name]
    assert _assert_agrees(replace(g)) == set()
    assert _assert_agrees(replace(g, compose=dict(g.compose))) == set()


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_row_table_mutants_get_the_oracle_report(name):
    axioms = set()
    for mutant in _row_mutants(SHAPES[name]):
        axioms |= _assert_agrees(mutant)
    assert "associativity" in axioms


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_inverse_entry_mutants_get_the_oracle_report(name):
    reports = [_assert_agrees(mutant) for mutant in _inverse_entry_mutants(SHAPES[name])]
    if reports:
        assert set().union(*reports) == {"associativity", "left-inverse", "right-inverse"}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_dict_mutants_get_the_oracle_report(name):
    axioms = set()
    for mutant in _dict_mutants(SHAPES[name]):
        axioms |= _assert_agrees(mutant)
    assert {"totality", "associativity"} <= axioms
    if len(SHAPES[name].objects) > 1:
        assert "composability" in axioms


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_inverse_and_unit_mutants_get_the_oracle_report(name):
    axioms = set()
    for mutant in _inverse_and_unit_mutants(SHAPES[name]):
        axioms |= _assert_agrees(mutant)
    assert {"left-inverse", "right-inverse", "right-unit", "left-unit"} <= axioms


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_two_fault_mutants_get_the_oracle_report(name):
    """Every listing runs together in the one scan of a failing table."""
    mutants = list(_two_fault_mutants(SHAPES[name]))
    assert mutants
    for mutant in mutants:
        axioms = _assert_agrees(mutant)
        if isinstance(mutant.compose, RowTable):
            assert axioms
        else:
            assert {"composability", "totality", "associativity"} <= axioms


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_generators_are_kept_exactly_when_the_report_is_ok(name):
    g = SHAPES[name]
    tables = [replace(g), replace(g, compose=dict(g.compose)), *_two_fault_mutants(g)]
    for mutants in (_row_mutants, _inverse_entry_mutants, _dict_mutants, _inverse_and_unit_mutants):
        tables += mutants(g)
    oks = []
    for t in tables:
        assert t._kept_generators is None
        oks.append(validate_groupoid(t).ok)
        kept = tuple(_generators(t, t.composites(), t.positions())) if oks[-1] else None
        assert t._kept_generators == kept
    assert oks[:2] == [True, True] and not all(oks)


def test_an_entry_at_a_pair_that_does_not_compose_is_listed_from_the_table():
    """The rows hold only composable pairs, so they cannot see this entry;
    the report is still the scan's, entry included."""
    g = SHAPES["strict klein quotient"]
    a2, a1 = next((a2, a1) for a1 in g.arrows for a2 in g.arrows if g.src[a2] != g.tgt[a1])
    extra = replace(g, compose={**dict(g.compose), (a2, a1): a1})
    axioms = _assert_agrees(extra)
    assert "composability" in axioms
    assert validate_groupoid(extra).violations[0].witness == (a2, a1)


def test_the_sampled_action_groupoids_get_the_oracle_report():
    actions = build_instances(SAMPLED).actions
    assert len(actions) > 20
    for action in actions:
        assert _assert_agrees(replace(action.induced)) == set()
