"""Class tables: :func:`gpdkit.core.class_reps` and the partitions built on it.

Every class table in the library (orbits, components, cosets, balanced-product
pairs, anchored triples) names each class after the item that opened it in a
walk over the items.  These tests check that this item is the class's
least-index member, and that ``orbits`` and ``connected_components`` agree
with the hand-written walks they replaced (kept in ``oracles``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from gpdkit.catalog import group_catalog
from gpdkit.core import FiniteGroupoid, all_subgroups, class_reps, orbits, subgroup
from gpdkit.morita import connected_components
from gpdkit.workbench import actions_of_group

from oracles import oracle_connected_components, oracle_orbits


@st.composite
def partitions(draw):
    """Items in a random order, a class label for each, and a random member order."""
    items = draw(st.permutations(range(draw(st.integers(0, 30)))))
    labels = {item: draw(st.integers(0, 6)) for item in items}
    return list(items), labels, draw(st.randoms(use_true_random=False))


@settings(max_examples=100, deadline=None)
@given(partition=partitions())
def test_each_item_maps_to_the_least_index_member_of_its_class(partition):
    items, labels, rng = partition

    def members(item):
        same = [other for other in items if labels[other] == labels[item]]
        rng.shuffle(same)
        return same

    reps = class_reps(items, members)
    position = {item: i for i, item in enumerate(items)}
    assert set(reps) == set(items)
    for item in items:
        assert reps[item] == min((other for other in items if labels[other] == labels[item]), key=position.get)
    firsts = list(dict.fromkeys(reps.values()))
    assert firsts == sorted(firsts, key=position.get)
    assert len(firsts) == len(set(labels.values()))


def _catalogue_actions():
    """Every action of every subgroup of every catalogue group, carrier at most 4."""
    for _, group in group_catalog():
        for sub in all_subgroups(group):
            yield from actions_of_group(subgroup(group, sub), 4)


def test_orbits_and_components_match_the_walks_they_replaced():
    for action in _catalogue_actions():
        assert orbits(action) == oracle_orbits(action)
        assert connected_components(action.induced) == oracle_connected_components(action.induced)


@st.composite
def arrow_tables(draw):
    """Objects and arrows with arbitrary endpoints: a table, rarely a groupoid."""
    objects = tuple(f"o{i}" for i in range(draw(st.integers(0, 8))))
    ends = st.sampled_from(objects) if objects else st.nothing()
    count = draw(st.integers(0, 12)) if objects else 0
    arrows = tuple(f"a{i}" for i in range(count))
    src = {a: draw(ends) for a in arrows}
    tgt = {a: draw(ends) for a in arrows}
    return FiniteGroupoid(objects, arrows, src, tgt, {}, {}, {})


@settings(max_examples=100, deadline=None)
@given(table=arrow_tables())
def test_components_of_arbitrary_tables_match_the_walk_they_replaced(table):
    assert connected_components(table) == oracle_connected_components(table)
