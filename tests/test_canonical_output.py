"""The canonical writer and the groupoid document against their literal definitions."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from gpdkit import documents as docs
from gpdkit.core import FiniteGroupoid

from oracles import oracle_compose_rows


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
    for doc in ({}, [], "", {"a": [], "b": {}, "c": ["x", "y"], "d": [[], ["z"], [1, "w"]]}, [None, True, 1.5, -0.0]):
        assert docs.dumps(doc) == reference_dumps(doc)


@st.composite
def _groupoids(draw):
    """Arbitrary tables: duplicate arrow ids, stray and non-composable compose entries."""
    ids = st.sampled_from(["a", "b", "c", "d", "e"])
    objects = draw(st.lists(st.sampled_from(["x", "y", "z"]), min_size=1, max_size=3, unique=True))
    arrows = draw(st.lists(ids, max_size=6))
    ends = st.sampled_from(objects)
    src = {a: draw(ends) for a in arrows}
    tgt = {a: draw(ends) for a in arrows}
    compose = draw(st.dictionaries(st.tuples(ids, ids), ids, max_size=12))
    unit = {x: draw(ids) for x in objects}
    inv = {a: draw(ids) for a in arrows}
    return FiniteGroupoid(tuple(objects), tuple(arrows), src, tgt, compose, unit, inv)


@settings(max_examples=150, deadline=None)
@given(g=_groupoids())
def test_compose_rows_equal_the_all_pairs_comprehension(g):
    assert docs.groupoid_doc(g)["compose"] == oracle_compose_rows(g)
