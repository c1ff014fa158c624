import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    MismatchError,
    NaturalTransformation,
    PreconditionError,
    action_groupoid,
    all_subgroups,
    compose_functors,
    direct_product,
    element_order,
    groupoid_iso_search,
    identity_functor,
    identity_transformation,
    inverse_transformation,
    is_normal,
    is_subgroup_of,
    orbits,
    stabilizer,
    subgroup,
    tuple_groupoid,
    validate_functor,
    validate_group,
    validate_groupoid,
    validate_nat_trans,
    vertical_compose_nat,
    whisker,
)
from gpdkit.morita import weak_equivalence_report

from oracles import oracle_orbit, oracle_stabilizer


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
        p = direct_product(c2, c3)
        assert p.order == 6 and validate_group(p).ok


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

    def test_missing_compose_entry_is_totality_violation(self, terminal):
        g = FiniteGroupoid(("x",), ("u",), {"u": "x"}, {"u": "x"}, {}, {"x": "u"}, {"u": "u"})
        report = validate_groupoid(g)
        assert any(v.axiom == "totality" for v in report.violations)


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

    def test_orbits_and_stabilizers_match_oracle(self, klein_action):
        for x in klein_action.carrier:
            assert frozenset(orbit_elems(klein_action, x)) == oracle_orbit(klein_action, x)
            assert frozenset(stabilizer(klein_action, x)) == oracle_stabilizer(klein_action, x)
        assert [o for o in orbits(klein_action)] == [("N", "S"), ("E", "W")]


class TestTupleGroupoid:
    @staticmethod
    def _square(g, h, src=None):
        # the product g × h, keyed by pairs of objects and pairs of arrows
        return tuple_groupoid(
            {(x, y): f"{x}{y}" for x in g.objects for y in h.objects},
            [(a, b) for a in g.arrows for b in h.arrows],
            src=src or (lambda p: (g.src[p[0]], h.src[p[1]])),
            tgt=lambda p: (g.tgt[p[0]], h.tgt[p[1]]),
            unit=lambda o: (g.unit[o[0]], h.unit[o[1]]),
            inv=lambda p: (g.inv[p[0]], h.inv[p[1]]),
            compose=lambda q, p: (g.compose[(q[0], p[0])], h.compose[(q[1], p[1])]),
        )

    def test_product_is_a_groupoid_with_rendered_ids(self, swap_action, loop_action):
        g, h = swap_action.induced, loop_action.induced
        product, ids = self._square(g, h)
        assert validate_groupoid(product).ok
        assert product.objects == ("0p", "1p")
        assert product.arrows == tuple(f"({a},{b})" for a in g.arrows for b in h.arrows)
        assert ids == {(a, b): f"({a},{b})" for a in g.arrows for b in h.arrows}
        # first arrow outer, composable after arrows inner, both in declaration order
        firsts = [a1 for (_, a1) in product.compose]
        assert firsts == sorted(firsts, key=product.arrows.index)

    def test_undeclared_endpoint_is_a_precondition_error(self, swap_action):
        g = swap_action.induced
        with pytest.raises(PreconditionError, match="no entry"):
            self._square(g, g, src=lambda p: ("nowhere", g.src[p[1]]))

    def test_colliding_ids_are_a_precondition_error(self):
        def build(objects, arrows):
            return tuple_groupoid(
                objects, arrows, src=lambda a: a[0], tgt=lambda a: a[0],
                unit=lambda x: (x, "u"), inv=lambda a: a, compose=lambda b, a: a,
            )

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
        assert result.found and validate_functor(result.functor).ok

    def test_size_mismatch_is_definite_no(self, swap_action, loop_action):
        # 2 objects/4 arrows vs 1 object/2 arrows
        assert groupoid_iso_search(loop_action.induced, swap_action.induced).status == "none"

    def test_iso_invariant_under_carrier_relabeling(self, klein_action):
        relabeled = _relabel(klein_action, {"N": "E", "E": "N", "S": "W", "W": "S"})
        result = groupoid_iso_search(klein_action.induced, relabeled.induced)
        assert result.found

    def test_budget_exceeded_is_distinct(self, klein_action):
        result = groupoid_iso_search(klein_action.induced, klein_action.induced, budget=1)
        assert result.status == "budget-exceeded"
        assert result.functor is None

    def test_non_isomorphic_same_size(self, swap_action, loop_action):
        # double the loop groupoid to match the swap groupoid's sizes
        c2 = cyclic_group(2)
        two_loops = action_groupoid(
            c2, ("p", "q"), {("r0", "p"): "p", ("r0", "q"): "q", ("r1", "p"): "p", ("r1", "q"): "q"}
        )
        assert len(two_loops.induced.arrows) == len(swap_action.induced.arrows)
        assert groupoid_iso_search(two_loops.induced, swap_action.induced).status == "none"


@settings(max_examples=25, deadline=None)
@given(perm=st.permutations(["N", "S", "E", "W"]))
def test_relabeled_klein_action_always_isomorphic(perm):
    from gpdkit.cli import build_klein_example

    action, _ = build_klein_example()
    mapping = dict(zip(["N", "S", "E", "W"], perm))
    relabeled = _relabel(action, mapping)
    assert validate_groupoid(relabeled.induced).ok
    assert groupoid_iso_search(action.induced, relabeled.induced).found


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
