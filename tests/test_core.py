import itertools
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpdkit import core
from gpdkit.catalog import (
    cyclic_group,
    dihedral_group_8,
    group_catalog,
    klein_four_group,
    quaternion_group,
    symmetric_group_3,
)
from gpdkit.core import (
    ActionAxiomError,
    DanglingIdError,
    FiniteGroupoid,
    GroupoidFunctor,
    InternalCheckError,
    MismatchError,
    NaturalTransformation,
    PreconditionError,
    RowTable,
    ValidationReport,
    Violation,
    _generating_sequence,
    action_groupoid,
    all_subgroups,
    closure,
    compose_functors,
    direct_product,
    element_order,
    group_isomorphism,
    groupoid_iso_search,
    identity_functor,
    identity_transformation,
    inverse_transformation,
    is_group_hom,
    is_normal,
    is_subgroup_of,
    orbits,
    stabilizer,
    subgroup,
    trivial_group,
    tuple_groupoid,
    validate_functor,
    validate_group,
    validate_groupoid,
    validate_nat_trans,
    vertical_compose_nat,
    whisker,
)
from gpdkit.morita import weak_equivalence_report
from gpdkit.workbench import InstanceBudget, actions_of_group, build_instances, enumerate_actions

from oracles import (
    oracle_action_axiom_error,
    oracle_action_groupoid,
    oracle_closure,
    oracle_generating_sequence,
    oracle_groupoid_isomorphic,
    oracle_orbit,
    oracle_stabilizer,
    oracle_tuple_compose,
)
from test_suite_tables import _wrap_everywhere


class TestGroupCatalog:
    def test_all_catalog_groups_satisfy_group_axioms(self):
        for name, g in group_catalog():
            report = validate_group(g)
            assert report.ok, (name, report.violations[:3])

    def test_orders(self):
        orders = {name: g.order for name, g in group_catalog()}
        assert orders["V4"] == 4 and orders["S3"] == 6 and orders["D4"] == 8 and orders["Q8"] == 8

    def test_element_orders_distinguish_v4_from_c4(self):
        v4, c4 = klein_four_group(), cyclic_group(4)
        assert sorted(element_order(v4, a) for a in v4.elements) == [1, 2, 2, 2]
        assert sorted(element_order(c4, a) for a in c4.elements) == [1, 2, 4, 4]

    def test_quaternion_relations(self):
        q8 = quaternion_group()
        assert q8.mul[("i", "j")] == "k"
        assert q8.mul[("j", "i")] == "-k"
        assert q8.mul[("i", "i")] == "-1"
        assert element_order(q8, "-1") == 2

    def test_subgroup_counts(self):
        # classical counts: D4 has 10 subgroups, Q8 has 6, S3 has 6, V4 has 5
        assert len(all_subgroups(dihedral_group_8())) == 10
        assert len(all_subgroups(quaternion_group())) == 6
        assert len(all_subgroups(symmetric_group_3())) == 6
        assert len(all_subgroups(klein_four_group())) == 5

    def test_q8_subgroups_all_normal(self):
        q8 = quaternion_group()
        assert all(is_normal(q8, s) for s in all_subgroups(q8))

    def test_subgroup_restriction_and_membership(self):
        v4 = klein_four_group()
        k = subgroup(v4, ("(e,e)", "(t,t)"))
        assert is_subgroup_of(k, v4)
        assert not is_subgroup_of(k, cyclic_group(2))

    def test_direct_product_orders(self):
        c2, c3 = cyclic_group(2), cyclic_group(3)
        p, _ = direct_product(c2, c3)
        assert p.order == 6 and validate_group(p).ok

    def test_direct_product_table_lists_pairs_in_order_and_multiplies_pairwise(self):
        g, h = symmetric_group_3(), cyclic_group(3)
        p, ids = direct_product(g, h)
        assert list(ids) == [(a, b) for a in g.elements for b in h.elements]
        assert p.elements == tuple(ids.values())
        assert p.unit == ids[(g.unit, h.unit)]
        for (a, b), x in ids.items():
            assert p.inv[x] == ids[(g.inv[a], h.inv[b])]
            for (c, d), y in ids.items():
                assert p.mul[(x, y)] == ids[(g.mul[(a, c)], h.mul[(b, d)])]


class TestGroupoidValidation:
    def test_terminal_groupoid_ok(self, terminal):
        assert validate_groupoid(terminal).ok

    def test_klein_action_groupoid_ok(self, klein_action):
        assert validate_groupoid(klein_action.induced).ok
        assert len(klein_action.induced.objects) == 4
        assert len(klein_action.induced.arrows) == 16

    def test_forced_composability_violation(self, terminal):
        g = FiniteGroupoid(
            objects=("x", "y"),
            arrows=("ux", "uy"),
            src={"ux": "x", "uy": "y"},
            tgt={"ux": "x", "uy": "y"},
            compose={("ux", "ux"): "ux", ("uy", "uy"): "uy", ("ux", "uy"): "ux"},
            unit={"x": "ux", "y": "uy"},
            inv={"ux": "ux", "uy": "uy"},
        )
        report = validate_groupoid(g)
        assert not report.ok
        assert any(v.axiom == "composability" and v.witness == ("ux", "uy") for v in report.violations)

    def test_dangling_id_raises(self):
        g = FiniteGroupoid(("x",), ("u",), {"u": "x"}, {"u": "ghost"}, {("u", "u"): "u"}, {"x": "u"}, {"u": "u"})
        with pytest.raises(DanglingIdError):
            validate_groupoid(g)

    @pytest.mark.parametrize(
        "out, rows, message",
        [
            ({"x": ["u", "f"]}, {"u": ["u", "f"], "f": ["f", "ghost"]}, "('f', 'f') -> 'ghost'"),
            ({"x": ["u", "ghost"]}, {"u": ["u", "f"], "f": ["f", "u"]}, "('ghost', 'u') -> 'f'"),
        ],
        ids=["composite", "after-arrow"],
    )
    def test_an_undeclared_id_in_a_row_table_is_named(self, out, rows, message):
        # C2 on one object, its table kept as rows that name an undeclared arrow
        ends = {"u": "x", "f": "x"}
        g = FiniteGroupoid(("x",), ("u", "f"), ends, ends, RowTable(rows, out, ends, ends), {"x": "u"}, {"u": "u", "f": "f"})
        with pytest.raises(DanglingIdError) as exc:
            validate_groupoid(g)
        assert str(exc.value) == f"compose entry {message} references undeclared arrows"

    def test_missing_compose_entry_is_totality_violation(self, terminal):
        g = FiniteGroupoid(("x",), ("u",), {"u": "x"}, {"u": "x"}, {}, {"x": "u"}, {"u": "u"})
        report = validate_groupoid(g)
        assert any(v.axiom == "totality" for v in report.violations)

    @pytest.mark.parametrize("error", [PreconditionError, InternalCheckError])
    def test_require_raises_the_first_violation_or_returns_none(self, terminal, error):
        assert validate_groupoid(terminal).require(error, "unused") is None
        report = ValidationReport.collect([Violation("composability", ("ux", "uy")), Violation("totality", ("u",))])
        with pytest.raises(error) as info:
            report.require(error, "'g' is not a groupoid")
        assert type(info.value) is error
        assert str(info.value) == "'g' is not a groupoid: Violation(axiom='composability', witness=('ux', 'uy'))"


class TestActionGroupoid:
    def test_trivial_group_on_point(self, point_action):
        assert len(point_action.induced.objects) == 1
        assert len(point_action.induced.arrows) == 1

    def test_swap_action_sizes_and_loops(self, swap_action):
        g = swap_action.induced
        assert len(g.objects) == 2 and len(g.arrows) == 4
        units = set(g.unit.values())
        loops = [a for a in g.arrows if g.src[a] == g.tgt[a]]
        assert set(loops) == units  # no non-unit loops: the action is free

    def test_action_axiom_violation_witnessed(self):
        c2 = cyclic_group(2)
        bad = {("r0", "0"): "0", ("r0", "1"): "1", ("r1", "0"): "1", ("r1", "1"): "1"}
        with pytest.raises(ActionAxiomError):
            action_groupoid(c2, ("0", "1"), bad)

    @staticmethod
    def _tables(group):
        """Each action of ``group`` on <= 3 points, with one entry redirected to
        each other point, or with two entries of one element's row exchanged;
        and on <= 2 points, every table in which the unit acts trivially."""
        for action in actions_of_group(group, 3):
            carrier, act = action.carrier, action.act
            yield carrier, act
            for (g, x), y in act.items():
                yield from ((carrier, {**act, (g, x): z}) for z in carrier if z != y)
                yield from ((carrier, {**act, (g, x): act[(g, z)], (g, z): y}) for z in carrier if z > x)
        others = [g for g in group.elements if g != group.unit]
        for carrier in (("p",), ("p", "q")):
            maps = itertools.product(carrier, repeat=len(carrier))
            for rows in itertools.product(maps, repeat=len(others)):
                act = {(group.unit, x): x for x in carrier}
                act.update({(g, x): y for g, row in zip(others, rows) for x, y in zip(carrier, row)})
                yield carrier, act

    def test_axioms_are_decided_as_the_full_scan_decides_them(self):
        verdicts = Counter()
        for _, group in group_catalog():
            if group.order > 4:
                continue
            for carrier, table in self._tables(group):
                expected = oracle_action_axiom_error(group, carrier, table)
                verdicts[expected is None] += 1
                if expected is None:
                    assert action_groupoid(group, carrier, table).act == table
                else:
                    with pytest.raises(ActionAxiomError) as err:
                        action_groupoid(group, carrier, table)
                    assert str(err.value) == expected
        assert verdicts[False] > 0 and verdicts[True] > 0

    @staticmethod
    def _fields(action) -> dict:
        g = action.induced
        assert type(g.compose) is RowTable
        return {
            "objects": g.objects,
            "ids": g.arrows,
            "src": list(g.src.items()),
            "tgt": list(g.tgt.items()),
            "unit": list(g.unit.items()),
            "inv": list(g.inv.items()),
            "compose": list(g.compose.items()),
            "out": list(g.compose.out.items()),
            "_kept_generators": g._kept_generators,
            "arrow_pairs": list(action.arrow_pairs.items()),
            "arrow_ids": list(action.arrow_ids.items()),
        }

    @staticmethod
    def _mutants(group, carrier, act):
        """One-entry mutants: a missing entry, an undeclared value, a unit
        that moves a point and a product the action no longer respects."""
        keys = list(act)
        missing = dict(act)
        del missing[keys[len(keys) // 2]]
        yield missing
        yield {**act, keys[-1]: "nowhere"}
        if len(carrier) > 1:
            yield {**act, (group.unit, carrier[0]): carrier[1]}
            g = next((g for g in group.elements if g != group.unit), None)
            if g is not None:
                x = carrier[-1]
                yield {**act, (g, x): next(y for y in carrier if y != act[(g, x)])}

    @staticmethod
    def _outcome(build, *args):
        try:
            return TestActionGroupoid._fields(build(*args))
        except Exception as exc:
            return (type(exc), str(exc))

    def test_builds_match_the_per_key_oracle(self, monkeypatch, swap_action, point_action, loop_action, klein_action):
        built = [(a.group, a.carrier, a.act) for a in (swap_action, point_action, loop_action, klein_action)]

        def recording(fn):
            def wrapped(*args):
                built.append(args)
                return fn(*args)

            return wrapped

        _wrap_everywhere(monkeypatch, core, "action_groupoid", recording)
        build_instances(InstanceBudget(4, 3, 7, 1))
        assert len(built) > 100
        kinds = ("action table is missing", "action value", "unit must act trivially", "action not compatible")
        refusals = Counter()
        for group, carrier, act in built:
            assert self._outcome(action_groupoid, group, carrier, act) == self._fields(
                oracle_action_groupoid(group, carrier, act)
            )
            for table in self._mutants(group, tuple(carrier), act):
                refused = self._outcome(action_groupoid, group, carrier, table)
                assert type(refused) is tuple and refused == self._outcome(oracle_action_groupoid, group, carrier, table)
                if refused[0] is ActionAxiomError:
                    assert refused[1] == oracle_action_axiom_error(group, carrier, table)
                refusals[next(kind for kind in kinds if refused[1].startswith(kind))] += 1
        assert set(refusals) == set(kinds)

    def test_orbits_and_stabilizers_match_oracle(self, klein_action):
        for x in klein_action.carrier:
            assert frozenset(orbit_elems(klein_action, x)) == oracle_orbit(klein_action, x)
            assert frozenset(stabilizer(klein_action, x)) == oracle_stabilizer(klein_action, x)
        assert [o for o in orbits(klein_action)] == [("N", "S"), ("E", "W")]


class TestTupleGroupoid:
    @staticmethod
    def _square(g, h, src=None, tgt=None, edit_row=lambda row: row):
        # the product g × h from whole tables, keyed by pairs of objects and
        # pairs of arrows; the arrows out of (x, y) are (q, r) for q out of x,
        # then r out of y, so (q, r) is at g_at[q] · |out y| + h_at[r] among them
        g_out, h_out = g.arrows_from(), h.arrows_from()
        g_at, h_at = ({c: i for out in side.values() for i, c in enumerate(out)} for side in (g_out, h_out))

        def at(q, r):
            return g_at[q] * len(h_out[h.src[r]]) + h_at[r]

        g_rows, h_rows = g.composites(), h.composites()
        arrows = [(a, b) for a in g.arrows for b in h.arrows]
        return tuple_groupoid(
            {(x, y): f"{x}{y}" for x in g.objects for y in h.objects},
            arrows,
            src=src or [(g.src[a], h.src[b]) for a, b in arrows],
            tgt=tgt or [(g.tgt[a], h.tgt[b]) for a, b in arrows],
            unit=[at(g.unit[x], h.unit[y]) for x in g.objects for y in h.objects],
            inv=[at(g.inv[a], h.inv[b]) for a, b in arrows],
            rows=[edit_row([at(q, r) for q, r in itertools.product(g_rows[a], h_rows[b])]) for a, b in arrows],
        )

    def test_product_is_a_groupoid_with_rendered_ids(self, swap_action, loop_action):
        g, h = swap_action.induced, loop_action.induced
        product, ids = self._square(g, h)
        assert validate_groupoid(product).ok
        assert product.objects == ("0p", "1p")
        assert product.arrows == tuple(f"({a},{b})" for a in g.arrows for b in h.arrows)
        assert ids == {(a, b): f"({a},{b})" for a in g.arrows for b in h.arrows}
        assert product.unit == {f"{x}p": ids[(g.unit[x], h.unit["p"])] for x in g.objects}
        assert product.inv == {i: ids[(g.inv[a], h.inv[b])] for (a, b), i in ids.items()}
        # first arrow outer, composable after arrows inner, both in declaration order
        firsts = [a1 for (_, a1) in product.compose]
        assert firsts == sorted(firsts, key=product.arrows.index)
        per_pair = oracle_tuple_compose(
            ids,
            lambda p: (g.src[p[0]], h.src[p[1]]),
            lambda p: (g.tgt[p[0]], h.tgt[p[1]]),
            lambda q, p: (g.compose[(q[0], p[0])], h.compose[(q[1], p[1])]),
        )
        assert list(product.compose.items()) == list(per_pair.items())

    def test_lazy_inputs_are_read_after_the_endpoints(self, swap_action):
        g = swap_action.induced
        product, _ = self._square(g, g)
        lazy, _ = self._square(g, g, src=iter([(g.src[a], g.src[b]) for a in g.arrows for b in g.arrows]))
        assert lazy == product and list(lazy.compose.items()) == list(product.compose.items())

        def missing():
            raise KeyError(("q", "r"))
            yield

        # a KeyError met while reading an input names the key with no entry
        with pytest.raises(PreconditionError) as exc:
            tuple_groupoid({"x": "x"}, [("u",)], ["x"], ["x"], [0], [0], missing())
        assert str(exc.value) == (
            "tuple_groupoid: no entry for ('q', 'r'); endpoints, units, inverses and composites must be declared"
        )

    def test_undeclared_endpoint_is_a_precondition_error(self, swap_action):
        g = swap_action.induced
        nowhere = [("nowhere", g.src[b]) for a in g.arrows for b in g.arrows]
        with pytest.raises(PreconditionError, match=re.escape(f"no entry for {nowhere[0]!r}")):
            self._square(g, g, src=nowhere)
        # no arrow leaves an undeclared target: its entry fails before its short rows do
        with pytest.raises(PreconditionError, match=re.escape(f"no entry for {nowhere[0]!r}")):
            self._square(g, g, tgt=nowhere)

    @pytest.mark.parametrize("cut", [lambda row: row[:-1], lambda row: row + row[:1]], ids=["short", "long"])
    def test_a_row_of_the_wrong_length_raises(self, swap_action, cut):
        g = swap_action.induced
        first = f"({g.arrows[0]},{g.arrows[0]})"
        with pytest.raises(ValueError, match=re.escape(f"the row of {first!r} has")) as exc:
            self._square(g, g, edit_row=cut)
        assert type(exc.value) is ValueError

    def test_colliding_ids_are_a_precondition_error(self):
        def build(objects, arrows):
            # each object's only arrow out is its own: a ∘ a = a
            ends = [a[0] for a in arrows]
            return tuple_groupoid(objects, arrows, ends, ends, [0] * len(objects), [0] * len(arrows), [[0]] * len(arrows))

        build({"p,q": "p,q", "p": "p"}, [("p,q", "u"), ("p", "u")])  # distinct ids build
        with pytest.raises(PreconditionError, match="object keys"):
            build({"a": "x", "b": "x"}, [("a", "u"), ("b", "u")])
        with pytest.raises(PreconditionError, match="arrow keys.*'\\(p,q,u\\)'"):
            build({"p,q": "1", "p": "2"}, [("p,q", "u"), ("p", "q,u")])


def orbit_elems(action, x):
    from gpdkit.core import orbit

    return orbit(action, x)


class TestFunctors:
    def test_identity_functor_validates(self, swap_action):
        assert validate_functor(identity_functor(swap_action.induced)).ok

    def test_collapse_validates(self, collapse_swap):
        assert validate_functor(collapse_swap).ok

    def test_endpoint_violation_detected(self, swap_action):
        g = swap_action.induced
        arr = dict(identity_functor(g).arr_map)
        # send the swap arrow at 0 to the unit at 0: endpoints break
        arr[swap_action.arrow_id("r1", "0")] = swap_action.arrow_id("r0", "0")
        f = GroupoidFunctor(g, g, {x: x for x in g.objects}, arr)
        report = validate_functor(f)
        assert not report.ok
        assert any(v.axiom == "endpoint preservation" for v in report.violations)

    def test_compose_with_identity(self, collapse_swap, swap_action, terminal):
        f = collapse_swap
        assert compose_functors(f, identity_functor(swap_action.induced)) == f
        assert compose_functors(identity_functor(terminal), f) == f

    def test_compose_mismatch(self, collapse_swap):
        with pytest.raises(MismatchError):
            compose_functors(collapse_swap, collapse_swap)


class TestNaturalTransformations:
    def test_identity_transformation_validates(self, collapse_swap):
        assert validate_nat_trans(identity_transformation(collapse_swap)).ok

    def test_wrong_source_object_flagged(self, swap_action):
        g = swap_action.induced
        i = identity_functor(g)
        eta = NaturalTransformation(i, i, {"0": swap_action.arrow_id("r0", "1"), "1": swap_action.arrow_id("r0", "1")})
        report = validate_nat_trans(eta)
        assert not report.ok
        assert any(v.axiom == "endpoints" for v in report.violations)

    def test_whisker_identity_laws(self, collapse_swap, swap_action, terminal):
        eta = identity_transformation(collapse_swap)
        assert whisker(eta, identity_functor(terminal), "left").component == eta.component
        assert whisker(eta, identity_functor(swap_action.induced), "right").component == eta.component

    def test_vertical_compose_with_inverse_is_identity(self, swap_action, loop_action, swap_to_loop):
        # a genuinely non-identity transformation: conjugate the collapse by the loop
        g = loop_action.induced
        loop = loop_action.arrow_id("r1", "p")
        eta = NaturalTransformation(swap_to_loop, swap_to_loop, {x: loop for x in swap_action.carrier})
        assert validate_nat_trans(eta).ok
        round_trip = vertical_compose_nat(inverse_transformation(eta), eta)
        assert round_trip == identity_transformation(swap_to_loop)

    def test_vertical_associativity(self, swap_action, loop_action, swap_to_loop):
        loop = loop_action.arrow_id("r1", "p")
        eta = NaturalTransformation(swap_to_loop, swap_to_loop, {x: loop for x in swap_action.carrier})
        a = vertical_compose_nat(eta, vertical_compose_nat(eta, eta))
        b = vertical_compose_nat(vertical_compose_nat(eta, eta), eta)
        assert a == b

    def test_vertical_associativity_over_the_klein_groupoid(self, klein_action, loop_action):
        # three stacked transformations whose domain is the compass groupoid
        c2_loop = loop_action.arrow_id("r1", "p")
        to_loop = GroupoidFunctor(
            klein_action.induced,
            loop_action.induced,
            {x: "p" for x in klein_action.carrier},
            {a: loop_action.arrow_id("r0" if klein_action.arrow_pairs[a][0] in ("(e,e)", "(t,t)") else "r1", "p")
             for a in klein_action.induced.arrows},
        )
        assert validate_functor(to_loop).ok
        eta = NaturalTransformation(to_loop, to_loop, {x: c2_loop for x in klein_action.carrier})
        assert validate_nat_trans(eta).ok
        stacked = [
            vertical_compose_nat(eta, vertical_compose_nat(eta, eta)),
            vertical_compose_nat(vertical_compose_nat(eta, eta), eta),
        ]
        assert stacked[0] == stacked[1]
        # pointwise: three odd loops compose to one odd loop
        assert all(c == c2_loop for c in stacked[0].component.values())


class TestIsoSearch:
    def test_self_iso_found(self, swap_action):
        result = groupoid_iso_search(swap_action.induced, swap_action.induced)
        assert result is not None and validate_functor(result).ok

    def test_size_mismatch_is_definite_no(self, swap_action, loop_action):
        # 2 objects/4 arrows vs 1 object/2 arrows
        assert groupoid_iso_search(loop_action.induced, swap_action.induced) is None

    def test_iso_invariant_under_carrier_relabeling(self, klein_action):
        relabeled = _relabel(klein_action, {"N": "E", "E": "N", "S": "W", "W": "S"})
        result = groupoid_iso_search(klein_action.induced, relabeled.induced)
        assert result is not None

    def test_non_isomorphic_same_size(self, swap_action, loop_action):
        # double the loop groupoid to match the swap groupoid's sizes
        c2 = cyclic_group(2)
        two_loops = action_groupoid(
            c2, ("p", "q"), {("r0", "p"): "p", ("r0", "q"): "q", ("r1", "p"): "p", ("r1", "q"): "q"}
        )
        assert len(two_loops.induced.arrows) == len(swap_action.induced.arrows)
        assert groupoid_iso_search(two_loops.induced, swap_action.induced) is None

    @pytest.mark.parametrize("g, h, points", [("Q8", "D4", 4), ("C4", "V4", 1), ("C6", "S3", 1)])
    def test_trivial_actions_of_different_groups_of_one_order(self, g, h, points):
        catalog = dict(group_catalog())
        carrier = tuple(f"p{i}" for i in range(points))
        left, right = (_trivial_action(catalog[name], carrier).induced for name in (g, h))
        assert len(left.arrows) == len(right.arrows)
        assert groupoid_iso_search(left, right) is None
        assert groupoid_iso_search(right, left) is None

    def test_agrees_with_brute_force_on_small_actions(self):
        acts = [a.induced for a in enumerate_actions(InstanceBudget(max_group_order=4, max_carrier_size=3))]
        pairs = [
            (g, h) for g, h in itertools.combinations_with_replacement(acts, 2)
            if len(g.objects) == len(h.objects) and len(g.arrows) == len(h.arrows)
        ]
        verdicts = [groupoid_iso_search(g, h) is not None for g, h in pairs]
        assert verdicts == [oracle_groupoid_isomorphic(g, h) for g, h in pairs]
        assert 0 < verdicts.count(False) and len(acts) < verdicts.count(True)

    def test_components_matched_in_any_order(self, swap_action, loop_action):
        c3_loop = _trivial_action(cyclic_group(3), ("p",))
        pieces = [loop_action.induced, swap_action.induced, c3_loop.induced, _trivial_action(trivial_group(), ("p",)).induced]
        unions = [_disjoint_union(a, b) for a in pieces for b in pieces]
        pairs = [
            (g, h) for g, h in itertools.product(unions, repeat=2)
            if len(g.objects) == len(h.objects) and len(g.arrows) == len(h.arrows)
        ]
        verdicts = [groupoid_iso_search(g, h) is not None for g, h in pairs]
        assert verdicts == [oracle_groupoid_isomorphic(g, h) for g, h in pairs]
        # a union and its reverse need their components swapped
        swapped = groupoid_iso_search(_disjoint_union(*pieces[:2]), _disjoint_union(*pieces[1::-1]))
        assert swapped is not None and validate_functor(swapped).ok


def test_closure_by_right_multiplication_matches_the_two_sided_oracle():
    seeds = 0
    for _, g in group_catalog():
        for size in range(4):
            for seed in itertools.combinations(g.elements, size):
                assert closure(g, seed) == oracle_closure(g, seed), seed
                seeds += 1
    assert seeds == 497


def test_kept_generating_sequence_equals_a_fresh_computation():
    groups = [g for _, g in group_catalog()] + [direct_product(klein_four_group(), cyclic_group(2))[0]]
    for g in groups:
        kept = _generating_sequence(g)
        action_groupoid(g, ("p",), {(a, "p"): "p" for a in g.elements})
        assert _generating_sequence(g) is kept
        assert kept == oracle_generating_sequence(g)
        assert closure(g, kept) == g.elements


def test_group_isomorphism_is_a_bijective_hom_or_none():
    # the catalogue lists one group per isomorphism class; the product is V4 again
    groups = group_catalog() + [("V4", direct_product(cyclic_group(2), cyclic_group(2))[0])]
    for name_g, g in groups:
        for name_h, h in groups:
            mapping = group_isomorphism(g, h)
            assert (mapping is not None) == (name_g == name_h)
            if mapping is not None:
                assert is_group_hom(g, h, mapping) is None
                assert sorted(mapping.values()) == sorted(h.elements)


def _trivial_action(group, carrier):
    return action_groupoid(group, carrier, {(g, x): x for g in group.elements for x in carrier})


def _disjoint_union(*parts):
    """The groupoid with each part's ids prefixed by the part's position."""
    def tag(i, table):
        return {f"{i}.{k}": f"{i}.{v}" for k, v in table.items()}

    return FiniteGroupoid(
        objects=tuple(f"{i}.{x}" for i, g in enumerate(parts) for x in g.objects),
        arrows=tuple(f"{i}.{a}" for i, g in enumerate(parts) for a in g.arrows),
        src={k: v for i, g in enumerate(parts) for k, v in tag(i, g.src).items()},
        tgt={k: v for i, g in enumerate(parts) for k, v in tag(i, g.tgt).items()},
        compose={(f"{i}.{a2}", f"{i}.{a1}"): f"{i}.{a3}" for i, g in enumerate(parts) for (a2, a1), a3 in g.compose.items()},
        unit={k: v for i, g in enumerate(parts) for k, v in tag(i, g.unit).items()},
        inv={k: v for i, g in enumerate(parts) for k, v in tag(i, g.inv).items()},
    )


@settings(max_examples=25, deadline=None)
@given(perm=st.permutations(["N", "S", "E", "W"]))
def test_relabeled_klein_action_always_isomorphic(perm):
    from gpdkit.cli import build_klein_example

    action, _ = build_klein_example()
    mapping = dict(zip(["N", "S", "E", "W"], perm))
    relabeled = _relabel(action, mapping)
    assert validate_groupoid(relabeled.induced).ok
    assert groupoid_iso_search(action.induced, relabeled.induced) is not None


def _relabel(action, mapping):
    carrier = tuple(mapping[x] for x in action.carrier)
    act = {(g, mapping[x]): mapping[y] for (g, x), y in action.act.items()}
    return action_groupoid(action.group, carrier, act)


class TestWeakEquivalenceInterplay:
    def test_swap_to_loop_is_not_fully_faithful(self, swap_to_loop):
        rep = weak_equivalence_report(swap_to_loop)
        assert rep.es_map_surjective
        assert rep.object_map_surjective
        assert not rep.ff_map_bijective
