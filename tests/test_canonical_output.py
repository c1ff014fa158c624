"""The canonical writer and the groupoid document against their literal definitions."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from gpdkit import documents as docs
from gpdkit.core import FiniteGroupoid
from gpdkit.morita import strict_pullback, weak_pullback
from gpdkit.workbench import InstanceBudget, LawResult, SuiteReport

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
    """Rows of strings and string-valued dicts are written in one join each;
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


def test_compose_rows_of_fixed_tables_equal_the_oracle(klein_action, collapse_swap, swap_to_loop):
    """Tables filled in declaration order, whose groups are written unsorted,
    and one filled in reverse order, whose groups are sorted."""
    groupoids = [klein_action.induced]
    for f in (collapse_swap, swap_to_loop):
        groupoids += [strict_pullback(f, f).apex, weak_pullback(f, f).apex]
    k = klein_action.induced
    reversed_table = dict(reversed(list(k.compose.items())))
    groupoids.append(FiniteGroupoid(k.objects, k.arrows, k.src, k.tgt, reversed_table, k.unit, k.inv))
    for g in groupoids:
        assert len(g.compose) > len(g.arrows)
        assert docs.groupoid_doc(g)["compose"] == oracle_compose_rows(g)


def test_suite_report_is_written_by_the_canonical_writer():
    report = SuiteReport(InstanceBudget(), (LawResult("law", 1, False, "é"), LawResult("other", 2, True)))
    data = report.to_bytes()
    assert "é".encode("utf-8") in data
    assert data == reference_dumps(json.loads(data))
