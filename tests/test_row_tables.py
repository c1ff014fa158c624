"""Compose tables kept as rows read as the plain dicts they stand for.

``tuple_groupoid`` keeps each product table as rows in a ``core.RowTable``, a
read-only mapping that answers every read from its rows and stores no pair.
Here each shape's pairs are compared, key order included, with the table
filled one pair at a time; each lookup with the same lookup on a plain dict;
equality in every order between plain dicts and row tables; plain copies
with the table; and building both pullbacks, reading their rows, writing them
as a document, walking them and comparing them leave each a row table, not a
dict, that refuses writes.  A row of the wrong length is refused when the
table is built, and the validators and the weak pullback decide valid inputs
without looking up a single pair.
"""

import pytest

from gpdkit import documents as docs
from gpdkit.core import RowTable
from gpdkit.morita import strict_pullback, weak_pullback
from gpdkit.workbench import InstanceBudget, generate_weak_equivalences

from oracles import oracle_action_compose, oracle_strict_pullback_compose, oracle_weak_pullback_compose
from test_associativity import _shapes

SHAPE_NAMES = list(_shapes())


def _fresh(name: str):
    """A newly built shape's groupoid, with its row table, and that table filled one pair at a time."""
    g, per_pair = _shapes()[name]
    assert type(g.compose) is RowTable
    return g, per_pair


@pytest.mark.parametrize("name", SHAPE_NAMES)
def test_a_kept_table_fills_as_the_per_pair_table(name):
    g, per_pair = _fresh(name)
    assert list(g.compose.items()) == list(per_pair.items())


def test_the_pullbacks_of_the_generated_weak_equivalences_fill_as_their_per_pair_tables():
    wes = generate_weak_equivalences(InstanceBudget(4, 3))
    assert len(wes) > 100
    for w in wes:
        f = w.functor.functor
        for action in (w.functor.dom_action, w.functor.cod_action):
            assert list(action.induced.compose.items()) == list(oracle_action_compose(action).items())
        strict, weak = strict_pullback(f, f), weak_pullback(f, f)
        assert list(strict.apex.compose.items()) == list(oracle_strict_pullback_compose(f, f, strict).items())
        assert list(weak.apex.compose.items()) == list(oracle_weak_pullback_compose(f, f, weak).items())


def _outcome(lookup):
    try:
        return ("value", lookup())
    except Exception as exc:
        return (type(exc), exc.args)


@pytest.mark.parametrize("name", SHAPE_NAMES)
def test_lookups_agree_with_a_plain_dict_and_fill_nothing(name):
    g, plain = _fresh(name)
    table = g.compose
    composable = list(plain)
    not_composable = [(a2, a1) for a2 in g.arrows for a1 in g.arrows if g.src[a2] != g.tgt[a1]]
    a2, a1 = composable[-1]
    unknown = [("nope", a1), (a2, "nope"), ("nope", "nope"), (a1, None)]
    not_pairs = [a1, (a1,), (a2, a1, a1), (a2, a1, "x"), None, 0, "", (), [a2, a1], ([a2], a1), (a2, [a1]), {a2: a1}]
    assert not_composable
    for key in composable + not_composable + unknown + not_pairs:
        for lookup in (
            lambda t: t[key],
            lambda t: t.get(key),
            lambda t: t.get(key, "default"),
            lambda t: key in t,
        ):
            assert _outcome(lambda: lookup(table)) == _outcome(lambda: lookup(plain)), key
    assert len(table) == len(plain)
    assert bool(table)
    assert type(table) is RowTable


def _tables():
    """Builds fresh row tables of one strict apex; the table filled one pair
    at a time; and that table with one entry pointed elsewhere."""
    shapes = _shapes()
    name = "strict klein quotient"
    _, plain = shapes[name]
    key = next(iter(plain))
    other = next(c for c in plain.values() if c != plain[key])

    def rows():
        return _fresh(name)[0].compose

    return rows, plain, {**plain, key: other}


def test_equality_holds_in_every_order():
    rows, plain, changed = _tables()
    makers = {"plain": lambda: dict(plain), "rows": rows}
    for left_kind, left in makers.items():
        for right_kind, right in makers.items():
            kinds = (left_kind, right_kind)
            assert left() == right(), kinds
            assert not left() != right(), kinds
            assert right() != changed and changed != right() and not right() == changed, kinds


def test_copies_and_merges_are_the_table():
    rows, plain, _ = _tables()
    for copy in (dict(rows()), {**rows()}):
        assert type(copy) is dict
        assert list(copy.items()) == list(plain.items())
    assert list(rows()) == list(plain)
    assert list(rows().values()) == list(plain.values())


def test_building_reading_rows_and_writing_fill_nothing(klein_action, klein_half_turn):
    from gpdkit.equivariant import quotient_action

    proj = quotient_action(klein_action, klein_half_turn).projection.functor
    strict = strict_pullback(proj, proj)
    # the last apex's factor rows are read off an apex's kept rows
    apexes = [strict.apex, weak_pullback(proj, proj).apex, strict_pullback(strict.pr1, strict.pr1).apex]
    for apex in apexes:
        rows = apex.composites()
        assert rows is apex.compose.rows and list(rows) == list(apex.arrows)
        assert docs.dumps(docs.groupoid_doc(apex))
        table = apex.compose
        assert list(table.items()) and table == dict(table)
        assert type(table) is RowTable and not isinstance(table, dict)
        key, value = next(iter(table.items()))
        with pytest.raises(TypeError):
            table[key] = value
        assert table[key] == value


def _one_object_c2(rows: dict) -> RowTable:
    """C2 on one object ``x``, arrows ``u`` and ``f`` out of it, with ``rows``."""
    ends = {"u": "x", "f": "x"}
    return RowTable(rows, {"x": ["u", "f"]}, ends, ends)


def test_a_row_table_takes_rows_of_the_right_length():
    table = _one_object_c2({"u": ["u", "f"], "f": ["f", "u"]})
    assert dict(table) == {("u", "u"): "u", ("f", "u"): "f", ("u", "f"): "f", ("f", "f"): "u"}


@pytest.mark.parametrize(
    "row, message",
    [(["f"], "the row of 'f' has 1 composites, not 2"), (["f", "u", "u"], "the row of 'f' has 3 composites, not 2")],
    ids=["short", "long"],
)
def test_a_row_of_the_wrong_length_is_refused_when_the_table_is_built(row, message):
    """A short row would make a read past its end raise ``IndexError``, and a
    long one would count pairs that iteration never yields."""
    with pytest.raises(ValueError, match=message):
        _one_object_c2({"u": ["u", "f"], "f": row})


def test_valid_suite_shaped_inputs_are_decided_without_a_pair_lookup(monkeypatch):
    """Every validator and the weak pullback read whole rows: on an action
    groupoid, both self-pullbacks of a generated weak equivalence and the weak
    pullback's comparison, no pair is looked up through the table."""
    from gpdkit.core import (
        identity_functor,
        identity_transformation,
        isotropy_group,
        validate_functor,
        validate_groupoid,
        validate_nat_trans,
    )

    w = next(w for w in generate_weak_equivalences(InstanceBudget(4, 3)) if w.kind == "projection")
    f, action = w.functor.functor, w.functor.dom_action.induced
    lookups = []

    def counted(name):
        real = getattr(RowTable, name)

        def lookup(self, *args):
            lookups.append(name)
            return real(self, *args)

        return lookup

    for name in ("get", "__getitem__"):
        monkeypatch.setattr(RowTable, name, counted(name))
    strict, weak = strict_pullback(f, f), weak_pullback(f, f)
    projections = (strict.pr1, strict.pr2, weak.pr1, weak.pr3)
    # out of apexes that keep no generators: every pair is decided on rows
    reports = [validate_functor(p) for p in projections]
    reports += [validate_functor(identity_functor(apex)) for apex in (strict.apex, weak.apex)]
    reports += [validate_groupoid(g) for g in (action, strict.apex, weak.apex)]
    # now each apex keeps generators, so composition is decided on them
    reports += [validate_functor(p) for p in (f, *projections)]
    reports += [validate_nat_trans(weak.comparison), validate_nat_trans(identity_transformation(f))]
    groups = [isotropy_group(g, g.objects[0]) for g in (action, strict.apex, weak.apex)]
    assert all(r.ok for r in reports) and all(gr.order > 0 for gr in groups)
    assert strict.apex._kept_generators is not None
    assert lookups == []
