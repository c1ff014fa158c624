"""The canonical writer and the groupoid document against their literal definitions."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpdkit import documents as docs
from gpdkit.catalog import cyclic_group
from gpdkit.cli import build_klein_example
from gpdkit.core import (
    FiniteGroupoid,
    PreconditionError,
    action_groupoid,
    empty_groupoid,
    subgroup,
    terminal_groupoid,
)
from gpdkit.equivariant import (
    balanced_product,
    equivariant_functor,
    equivariant_strict_pullback,
    equivariant_weak_pullback,
)
from gpdkit.morita import strict_pullback, weak_pullback
from gpdkit.workbench import InstanceBudget, LawResult, SuiteReport

from oracles import oracle_arrow_rows, oracle_compose_rows


def reference_dumps(doc) -> bytes:
    """The definition of canonical bytes: the standard library's indented encoder."""
    return (json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


# quotes, backslashes, control characters, line separators, non-ASCII and
# astral characters, next to whatever else hypothesis draws
_TRICKY = st.sampled_from(['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "中", " ", "😀"])
_text = st.text(_TRICKY | st.characters(exclude_categories=("Cs",)), max_size=8)
_scalars = st.none() | st.booleans() | st.integers() | st.floats() | _text
_values = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=5) | st.dictionaries(_text, children, max_size=5),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None)
@given(doc=_values)
def test_dumps_equals_the_indented_json_reference(doc):
    assert docs.dumps(doc) == reference_dumps(doc)


def test_dumps_on_empty_and_string_only_containers():
    """Rows of strings are written in one join each and string-valued dicts in one segment;
    whatever is not such a row or dict must still be written as the encoder would."""
    cases = (
        {},
        [],
        "",
        {"a": [], "b": {}, "c": ["x", "y"], "d": [[], ["z"], [1, "w"]]},
        [None, True, 1.5, -0.0],
        [["a", "b"], "cd"],
        ["cd", ["a", "b"]],
        [["a", "b"], {"k": "v", "j": "w"}],
        [{"k": "v"}, ["a"]],
        [("a", "b"), ["c"]],
        [["a"], [], ["b"]],
        [["a"], ["b", 1]],
        [["a", ["b", "c"]], ["d"]],
        [["é", "\n"], ['"', "\\"]],
        {'"q': "x", "\\": "y", "é\n": "z", "\x00": "w"},
        {"a": "x", "b": 1},
    )
    for doc in cases:
        assert docs.dumps(doc) == reference_dumps(doc), doc


# ids from characters the encoder escapes (quote, backslash, a control
# character), non-ASCII and astral ones, and the writer's own separators
_id_text = st.text('a"\\\x07é😀,()', min_size=1, max_size=2)


def _ids(draw, size: int):
    """A pool of ``size`` distinct ids to draw from, so that drawn pairs meet drawn arrows."""
    return st.sampled_from(draw(st.lists(_id_text, min_size=size, max_size=size, unique=True)))


@st.composite
def _groupoids(draw):
    """Arbitrary tables: duplicate arrow ids, stray and non-composable compose entries."""
    ids = _ids(draw, 5)
    objects = draw(st.lists(_ids(draw, 3), min_size=1, max_size=3, unique=True))
    arrows = draw(st.lists(ids, max_size=6))
    ends = st.sampled_from(objects)
    src = {a: draw(ends) for a in arrows}
    tgt = {a: draw(ends) for a in arrows}
    compose = draw(st.dictionaries(st.tuples(ids, ids), ids, max_size=12))
    unit = {x: draw(ids) for x in objects}
    inv = {a: draw(ids) for a in arrows}
    return FiniteGroupoid(tuple(objects), tuple(arrows), src, tgt, compose, unit, inv)


@st.composite
def _well_formed_tables(draw):
    """Tables of distinct ids whose entries are exactly the composable pairs, each
    with a declared composite, inserted in a drawn order; not necessarily associative."""
    ids = _ids(draw, 5)
    objects = draw(st.lists(_ids(draw, 3), min_size=1, max_size=3, unique=True))
    arrows = draw(st.lists(ids, max_size=5, unique=True))
    ends = st.sampled_from(objects)
    src = {a: draw(ends) for a in arrows}
    tgt = {a: draw(ends) for a in arrows}
    pairs = draw(st.permutations([(b, a) for a in arrows for b in arrows if src[b] == tgt[a]]))
    compose = {pair: draw(st.sampled_from(arrows)) for pair in pairs}
    unit = {x: draw(ids) for x in objects}
    inv = {a: draw(ids) for a in arrows}
    return FiniteGroupoid(tuple(objects), tuple(arrows), src, tgt, compose, unit, inv)


def is_well_formed(g) -> bool:
    """Distinct ids, an entry for exactly the composable pairs, and declared composites."""
    pairs = {(b, a) for a in g.arrows for b in g.arrows if g.src[b] == g.tgt[a]}
    return (
        len(set(g.arrows)) == len(g.arrows)
        and set(g.compose) == pairs
        and all(c in g.arrows for c in g.compose.values())
    )


def assert_compose_rows_match_the_oracle(g):
    """The canonical bytes of the document of ``g`` equal its plain-list form, with the oracles' rows."""
    doc = docs.groupoid_doc(g)
    plain = {**doc, "arrows": oracle_arrow_rows(g), "compose": oracle_compose_rows(g)}
    assert docs.dumps(doc) == reference_dumps(plain)


def assert_refused(g):
    with pytest.raises(PreconditionError, match="not exactly the composable pairs"):
        docs.dumps(docs.groupoid_doc(g))


@settings(max_examples=150, deadline=None)
@given(g=_well_formed_tables())
def test_compose_rows_of_well_formed_tables_equal_the_oracle(g):
    assert is_well_formed(g)
    assert_compose_rows_match_the_oracle(g)


@settings(max_examples=150, deadline=None)
@given(g=_groupoids())
def test_compose_rows_equal_the_all_pairs_comprehension(g):
    """An arbitrary table is written as the oracle's rows when it is well formed, and refused otherwise."""
    if is_well_formed(g):
        assert_compose_rows_match_the_oracle(g)
    else:
        assert_refused(g)


def _products(klein_action, klein_half_turn, swap_action, point_action, collapse_swap, swap_to_loop):
    """Every product shape a construction builds: action groupoids, strict and weak
    pullbacks, a balanced product, and equivariant strict and weak pullback apexes."""
    groupoids = [klein_action.induced, swap_action.induced]
    for f in (collapse_swap, swap_to_loop):
        groupoids += [strict_pullback(f, f).apex, weak_pullback(f, f).apex]
    half_turn = subgroup(klein_action.group, klein_half_turn)
    act = {(g, x): klein_action.act[(g, x)] for g in half_turn.elements for x in klein_action.carrier}
    inner = action_groupoid(half_turn, klein_action.carrier, act)
    groupoids.append(balanced_product(klein_action.group, inner).product.induced)
    to_point = {g: "e" for g in swap_action.group.elements}
    collapse = equivariant_functor(swap_action, point_action, to_point, {x: "*" for x in swap_action.carrier})
    groupoids.append(equivariant_strict_pullback(collapse, collapse).action.induced)
    groupoids.append(equivariant_weak_pullback(swap_action, collapse_swap, swap_action, collapse_swap).action.induced)
    return groupoids


def test_compose_rows_of_fixed_tables_equal_the_oracle(
    klein_action, klein_half_turn, swap_action, point_action, collapse_swap, swap_to_loop
):
    """Product tables, the Klein table filled in reverse order and the empty groupoid;
    the terminal groupoid with an empty table is refused."""
    groupoids = _products(klein_action, klein_half_turn, swap_action, point_action, collapse_swap, swap_to_loop)
    k = klein_action.induced
    reversed_table = dict(reversed(list(k.compose.items())))
    groupoids.append(FiniteGroupoid(k.objects, k.arrows, k.src, k.tgt, reversed_table, k.unit, k.inv))
    for g in groupoids:
        assert len(g.compose) > len(g.arrows)
        assert_compose_rows_match_the_oracle(g)
    assert docs.dumps(docs.groupoid_doc(empty_groupoid())).count(b'"compose": []') == 1
    assert_compose_rows_match_the_oracle(empty_groupoid())
    t = terminal_groupoid()
    assert_refused(FiniteGroupoid(t.objects, t.arrows, t.src, t.tgt, {}, t.unit, t.inv))


def _rotations(order: int, points: int):
    """The cyclic group of ``order`` rotating ``points`` points, which ``order`` is a multiple of."""
    carrier = tuple(f"p{j}" for j in range(points))
    act = {(f"r{i}", f"p{j}"): f"p{(i + j) % points}" for i in range(order) for j in range(points)}
    return action_groupoid(cyclic_group(order), carrier, act)


def test_a_large_product_table_equals_the_oracle():
    """Many first arrows into each of many source objects, each after-arrow's run read off them all."""
    g = _rotations(40, 8).induced
    assert len(g.compose) >= 10_000 and len({g.src[a] for a in g.arrows}) >= 8
    assert_compose_rows_match_the_oracle(g)


def test_compose_rows_encode_each_arrow_id_once(monkeypatch):
    """However many entries a product table has, its compose section encodes each arrow id once."""
    calls = []

    def counted(s):
        calls.append(s)
        return json.encoder.encode_basestring(s)

    monkeypatch.setattr(docs, "_encode_str", counted)
    for g in (_rotations(4, 2).induced, _rotations(12, 4).induced):
        calls.clear()
        docs._write_compose(g, "\n", [])
        assert len(g.compose) > len(g.arrows) and sorted(calls) == sorted(g.arrows)


def test_compose_rows_of_tables_with_as_many_entries_as_composable_pairs():
    """Counting entries does not decide that a table is well formed: a composable
    pair's entry moved to a pair that is not composable, and a repeated id whose
    position pairs are as many as the entries, one of them stray, are refused."""
    k = build_klein_example()[0].induced
    moved = dict(k.compose)
    del moved[next(pair for pair in moved if pair[0] == k.arrows[-1])]  # the last row group, after others are written
    moved[next((b, a) for a in k.arrows for b in k.arrows if k.src[b] != k.tgt[a])] = k.arrows[0]
    repeated = FiniteGroupoid(
        ("x", "y", "z"), ("a", "a", "b"), {"a": "x", "b": "y"}, {"a": "x", "b": "z"},
        {("a", "a"): "a", ("b", "a"): "a", ("a", "b"): "a", ("b", "b"): "b"},
        {"x": "a", "y": "b", "z": "b"}, {"a": "a", "b": "b"},
    )
    for g in (FiniteGroupoid(k.objects, k.arrows, k.src, k.tgt, moved, k.unit, k.inv), repeated):
        assert_refused(g)


def test_suite_report_is_written_by_the_canonical_writer():
    report = SuiteReport(InstanceBudget(), (LawResult("law", 1, False, "é"), LawResult("other", 2, True)))
    data = report.to_bytes()
    assert "é".encode("utf-8") in data
    assert data == reference_dumps(json.loads(data))
