import pytest

from gpdkit.catalog import cyclic_group
from gpdkit.core import (
    GroupoidFunctor,
    PreconditionError,
    action_groupoid,
    compose_functors,
    groupoid_iso_search,
    identity_functor,
    render_id,
    stabilizer,
    subgroup,
    trivial_group,
    validate_functor,
    validate_groupoid,
)
from gpdkit.equivariant import (
    INVARIANT_PROPERTIES,
    PROPERTY_NAMES,
    TRIVIAL_IN_FINITE_SETTING,
    as_equivariant,
    balanced_product,
    compose_equivariant,
    decompose,
    equivariant_anafunctorify,
    equivariant_functor,
    equivariant_strict_pullback,
    equivariant_weak_pullback,
    identity_equivariant,
    property_report,
    quotient_action,
    quotient_factorization,
)
from gpdkit.localization import GeneralizedMorphism, validate_two_cell
from gpdkit.morita import morita_oracle, weak_equivalence_report
from gpdkit.workbench import InstanceBudget, generate_weak_equivalences

from oracles import oracle_decomposition, oracle_effective


class TestPropertyReport:
    def test_klein_action_verdicts(self, klein_action):
        rep = property_report(klein_action)
        assert rep.effective.value is True
        assert rep.free.value is False and rep.free.witness is not None
        assert rep.transitive.value is False
        g, x = rep.free.witness
        assert g != klein_action.group.unit and klein_action.act[(g, x)] == x

    def test_klein_quotient_not_effective(self, klein_action, klein_half_turn):
        q = quotient_action(klein_action, klein_half_turn)
        rep = property_report(q.quotient)
        assert rep.effective.value is False
        (g,) = rep.effective.witness
        assert all(q.quotient.act[(g, x)] == x for x in q.quotient.carrier)
        assert oracle_effective(q.quotient) is False

    def test_swap_action_fully_positive(self, swap_action):
        rep = property_report(swap_action)
        assert rep.free.value and rep.transitive.value and rep.effective.value

    def test_trivialized_flags(self, klein_action):
        rep = property_report(klein_action)
        for name in TRIVIAL_IN_FINITE_SETTING:
            verdict = rep.verdict(name)
            assert verdict.value is True and verdict.trivial is True

    def test_free_implies_locally_free(self, swap_action, klein_action, loop_action):
        for action in (swap_action, klein_action, loop_action):
            rep = property_report(action)
            assert not rep.free.value or rep.locally_free.value

    def test_free_witness_walks_points_then_elements(self, klein_action):
        # E is listed first and only (t,e) fixes it; the earlier element (e,t) fixes N
        carrier = ("E", "N", "S", "W")
        table = {(g, x): klein_action.act[(g, x)] for g in klein_action.group.elements for x in carrier}
        rep = property_report(action_groupoid(klein_action.group, carrier, table))
        assert rep.free.witness == ("(t,e)", "E")

    def test_property_lists_name_each_property_once(self):
        named = [*INVARIANT_PROPERTIES, *TRIVIAL_IN_FINITE_SETTING, "effective"]
        assert sorted(named) == sorted(PROPERTY_NAMES)


class TestAsEquivariant:
    def test_identity_recovers_identity_hom(self, klein_action):
        check = as_equivariant(klein_action, klein_action, identity_functor(klein_action.induced))
        assert check.ok
        assert check.functor.group_hom == {g: g for g in klein_action.group.elements}

    def test_klein_projection_recognized(self, klein_action, klein_half_turn):
        q = quotient_action(klein_action, klein_half_turn)
        check = as_equivariant(klein_action, q.quotient, q.projection.functor)
        assert check.ok and check.functor.group_hom == q.projection.group_hom

    def test_fiber_inconsistent_functor_rejected(self, swap_action):
        a = swap_action
        g = a.induced
        # permute arrows inconsistently across fibers: swap the group parts
        # over carrier point "0" only
        arr = {}
        for arrow, (el, x) in a.arrow_pairs.items():
            if x == "0":
                other = "r1" if el == "r0" else "r0"
                arr[arrow] = a.arrow_id(other, x)
            else:
                arr[arrow] = arrow
        f = GroupoidFunctor(g, g, {"0": "1", "1": "0"}, arr)
        if validate_functor(f).ok:
            check = as_equivariant(a, a, f)
            assert not check.ok and check.witness is not None
        else:
            # when the scramble is not even a functor, the check refuses it
            with pytest.raises(PreconditionError):
                as_equivariant(a, a, f)


class TestQuotient:
    def test_iso_input_gives_trivial_kernel(self, klein_action):
        phi = identity_equivariant(klein_action)
        out = quotient_factorization(phi)
        assert out.kernel.elements == (klein_action.group.unit,)
        assert compose_functors(out.iso.functor, out.projection.functor) == phi.functor

    def test_klein_quotient_shape(self, klein_action, klein_half_turn):
        q = quotient_action(klein_action, klein_half_turn)
        assert len(q.quotient.carrier) == 2
        assert q.quotient.group.order == 2
        assert all(len(stabilizer(q.quotient, x)) == 2 for x in q.quotient.carrier)

    def test_swap_quotient_by_whole_group_is_a_point(self, swap_action):
        q = quotient_action(swap_action, swap_action.group.elements)
        assert len(q.quotient.carrier) == 1 and q.quotient.group.order == 1

    def test_quotient_factorization_roundtrip(self, klein_action, klein_half_turn):
        q = quotient_action(klein_action, klein_half_turn)
        out = quotient_factorization(q.projection)
        assert out.kernel.elements == ("(e,e)", "(t,t)")
        assert compose_functors(out.iso.functor, out.projection.functor) == q.projection.functor

    def test_nonfree_subgroup_rejected(self, klein_action):
        with pytest.raises(PreconditionError):
            quotient_action(klein_action, ("(e,e)", "(e,t)"))  # fixes N and S

    def test_non_ssw_input_rejected(self, swap_action):
        one = action_groupoid(trivial_group(), ("z",), {("e", "z"): "z"})
        embed = equivariant_functor(one, swap_action, {"e": "r0"}, {"z": "0"})
        with pytest.raises(PreconditionError):
            quotient_factorization(embed)

    def test_group_map_not_onto_over_an_empty_carrier_is_refused(self):
        # full faithfulness and surjectivity on objects hold vacuously, so the
        # functor is a surjective weak equivalence, yet no iso to the codomain exists
        empty = action_groupoid(cyclic_group(2), (), {})
        trivial = equivariant_functor(empty, empty, {"r0": "r0", "r1": "r0"}, {})
        with pytest.raises(PreconditionError, match=r"^quotient_factorization: group map misses 'r1'$"):
            quotient_factorization(trivial)
        assert decompose(trivial).kernel.elements == ("r0", "r1")
        onto = equivariant_functor(empty, empty, {"r0": "r0", "r1": "r1"}, {})
        assert quotient_factorization(onto).kernel.elements == ("r0",)


class TestBalancedProduct:
    def test_whole_group_gives_carrier_bijection(self, klein_action):
        bp = balanced_product(klein_action.group, klein_action)
        assert len(bp.product.carrier) == len(klein_action.carrier)
        assert weak_equivalence_report(bp.inclusion.functor).is_weak_equivalence

    def test_trivial_subgroup_gives_full_product(self, swap_action):
        c2 = swap_action.group
        inner = action_groupoid(subgroup(c2, ("r0",)), swap_action.carrier,
                                {("r0", x): x for x in swap_action.carrier})
        bp = balanced_product(c2, inner)
        assert len(bp.product.carrier) == c2.order * len(swap_action.carrier)

    def test_half_turn_inside_klein(self, klein_action, klein_half_turn):
        k = subgroup(klein_action.group, klein_half_turn)
        inner = action_groupoid(k, klein_action.carrier,
                                {(g, x): klein_action.act[(g, x)] for g in k.elements for x in klein_action.carrier})
        bp = balanced_product(klein_action.group, inner)
        assert len(bp.product.carrier) == 8  # 4*4 pairs over a 2-element subgroup
        assert weak_equivalence_report(bp.inclusion.functor).is_weak_equivalence
        assert not weak_equivalence_report(bp.inclusion.functor).is_ssw

    def test_subgroup_violation(self, klein_action, swap_action):
        with pytest.raises(PreconditionError):
            balanced_product(klein_action.group, swap_action)


class TestDecompose:
    def test_ssw_input_matches_quotient_factorization(self, klein_action, klein_half_turn):
        pi = quotient_action(klein_action, klein_half_turn).projection
        dec = decompose(pi)
        qf = quotient_factorization(pi)
        assert dec.kernel.elements == qf.kernel.elements
        assert dec.quotient.projection.functor == qf.projection.functor
        # the inclusion stage of a surjective input is an isomorphism-shaped inclusion
        assert len(dec.middle.carrier) == len(pi.cod_action.carrier)
        assert dec.inclusion.group_hom == {g: g for g in dec.middle.group.elements}

    def test_inclusion_input_gives_identity_projection(self, klein_action, klein_half_turn):
        k = subgroup(klein_action.group, klein_half_turn)
        inner = action_groupoid(k, klein_action.carrier,
                                {(g, x): klein_action.act[(g, x)] for g in k.elements for x in klein_action.carrier})
        bp = balanced_product(klein_action.group, inner)
        dec = decompose(bp.inclusion)
        assert dec.kernel.elements == (k.unit,)
        assert len(dec.middle.carrier) == len(inner.carrier)
        assert dec.projection.group_hom == {g: g for g in k.elements}

    def test_composite_recovers_both_stages(self, klein_action, klein_half_turn):
        q = quotient_action(klein_action, klein_half_turn)
        bp = balanced_product(q.quotient.group, q.quotient)
        composite = compose_equivariant(bp.inclusion, q.projection)
        dec = decompose(composite)
        assert compose_functors(dec.inclusion.functor, dec.projection.functor) == composite.functor
        assert dec.quotient.projection.functor == q.projection.functor
        assert compose_functors(dec.inclusion.functor, dec.middle_iso.functor) == bp.inclusion.functor

    def test_carrier_bijection_covers_codomain(self, klein_action, klein_half_turn):
        pi = quotient_action(klein_action, klein_half_turn).projection
        dec = decompose(pi)
        assert sorted(dec.carrier_bijection.values()) == sorted(pi.cod_action.carrier)

    def test_non_weak_equivalence_rejected(self, swap_action, loop_action):
        f = equivariant_functor(swap_action, loop_action, {g: g for g in swap_action.group.elements},
                                {x: "p" for x in swap_action.carrier})
        with pytest.raises(PreconditionError):
            decompose(f)

    def test_generated_inputs_match_the_oracle_and_reuse_their_ends(self):
        shapes = set()
        for w in generate_weak_equivalences(InstanceBudget(max_group_order=4, max_carrier_size=4)):
            phi = w.functor
            dec = decompose(phi)
            expected = oracle_decomposition(phi)
            quotient = dec.quotient.projection.cod_action
            assert dec.kernel.elements == expected["kernel"]
            assert (dec.middle.group.elements, dec.middle.carrier, dec.middle.act) == expected["middle"]
            assert (quotient.group.elements, quotient.group.mul, quotient.carrier, quotient.act) == expected["quotient"]
            assert dec.carrier_bijection == expected["carrier_bijection"]
            trivial_kernel = len(dec.kernel.elements) == 1
            onto = dec.middle.group.order == phi.cod_action.group.order and dec.middle.carrier == phi.cod_action.carrier
            assert (quotient is phi.dom_action) == trivial_kernel
            assert (dec.middle is phi.cod_action) == onto
            shapes.add((trivial_kernel, onto))
        assert shapes == {(True, False), (False, True), (True, True), (False, False)}


class TestEquivariantPullbacks:
    def test_strict_pullback_of_collapse_span(self, swap_action, point_action):
        w = equivariant_functor(swap_action, point_action,
                                {g: "e" for g in swap_action.group.elements},
                                {x: "*" for x in swap_action.carrier})
        out = equivariant_strict_pullback(w, w)
        rep = property_report(out.action)
        assert out.action.group.order == 4 and len(out.action.carrier) == 4
        assert rep.free.value and rep.transitive.value
        assert compose_functors(out.plain.pr1, out.iso) == out.pr1.functor

    def test_strict_pullback_along_identity(self, klein_action):
        i = identity_equivariant(klein_action)
        out = equivariant_strict_pullback(i, i)
        assert groupoid_iso_search(out.action.induced, klein_action.induced) is not None

    def test_weak_pullback_of_loop_identities(self, loop_action):
        i = identity_functor(loop_action.induced)
        out = equivariant_weak_pullback(loop_action, i, loop_action, i)
        assert out.action.group.order == 4
        assert len(out.action.carrier) == 2
        assert validate_groupoid(out.action.induced).ok
        assert compose_functors(out.plain.pr3, out.iso) == out.pr3.functor

    def test_weak_pullback_to_terminal_is_product(self, swap_action, terminal, collapse_swap):
        out = equivariant_weak_pullback(swap_action, collapse_swap, swap_action, collapse_swap)
        assert len(out.action.carrier) == 4  # anchored pairs over one arrow
        rep_feet = property_report(swap_action)
        rep_out = property_report(out.action)
        for name in ("free", "transitive"):
            assert rep_out.verdict(name).value == rep_feet.verdict(name).value

    def test_property_propagation_effective(self, swap_action, collapse_swap):
        out = equivariant_weak_pullback(swap_action, collapse_swap, swap_action, collapse_swap)
        assert property_report(out.action).effective.value  # both feet effective


def _assert_documented_strict_action(phi, psi):
    """Pairs with equal group images move (x, y) to (a·x, b·y); the iso sends
    the action arrow at (x, y) to the pullback arrow ((a,x), (b,y))."""
    left, right = phi.dom_action, psi.dom_action
    pairs = [(a, b) for a in left.group.elements for b in right.group.elements if phi.group_hom[a] == psi.group_hom[b]]
    points = [(x, y) for x in left.carrier for y in right.carrier if phi.obj_map[x] == psi.obj_map[y]]
    out = equivariant_strict_pullback(phi, psi)
    assert out.action.group.elements == tuple(render_id(p) for p in pairs)
    assert out.action.carrier == tuple(render_id(q) for q in points)
    assert out.action.act == {
        (render_id((a, b)), render_id((x, y))): render_id((left.act[(a, x)], right.act[(b, y)]))
        for a, b in pairs
        for x, y in points
    }
    assert out.iso.arr_map == {
        render_id((render_id((a, b)), render_id((x, y)))): render_id((render_id((a, x)), render_id((b, y))))
        for a, b in pairs
        for x, y in points
    }


def _assert_documented_weak_action(left, phi, right, psi):
    """(a, b) moves (x, k, y) to (a·x, psi(b,y) ∘ k ∘ phi(a,x)^(-1), b·y); the
    iso sends the action arrow at (x, k, y) to the pullback arrow ((a,x), k, (b,y))."""
    mid = phi.cod
    triples = [
        (x, k, y)
        for x in left.carrier
        for y in right.carrier
        for k in mid.arrows
        if mid.src[k] == phi.obj_map[x] and mid.tgt[k] == psi.obj_map[y]
    ]
    pairs = [(a, b) for a in left.group.elements for b in right.group.elements]
    out = equivariant_weak_pullback(left, phi, right, psi)
    assert out.action.group.elements == tuple(render_id(p) for p in pairs)
    assert out.action.carrier == tuple(render_id(t) for t in triples)
    act, iso = {}, {}
    for a, b in pairs:
        for x, k, y in triples:
            phi_ax, psi_by = phi.arr_map[render_id((a, x))], psi.arr_map[render_id((b, y))]
            moved = mid.compose[(psi_by, mid.compose[(k, mid.inv[phi_ax])])]
            act[(render_id((a, b)), render_id((x, k, y)))] = render_id((left.act[(a, x)], moved, right.act[(b, y)]))
            iso[render_id((render_id((a, b)), render_id((x, k, y))))] = render_id((render_id((a, x)), k, render_id((b, y))))
    assert out.action.act == act
    assert out.iso.arr_map == iso


@pytest.fixture(scope="module")
def generated_ssw():
    """The first 10 non-identity generated weak equivalences of the default
    population that are surjective on objects."""
    found = [
        w.functor
        for w in generate_weak_equivalences(InstanceBudget())
        if w.kind != "identity" and weak_equivalence_report(w.functor.functor).is_ssw
    ]
    return found[:10]


class TestDocumentedPullbackActions:
    def test_strict_on_conftest_actions(self, swap_action, point_action, klein_action, klein_half_turn):
        collapse = equivariant_functor(swap_action, point_action, {g: "e" for g in swap_action.group.elements},
                                       {x: "*" for x in swap_action.carrier})
        projection = quotient_action(klein_action, klein_half_turn).projection
        for phi, psi in (
            (collapse, collapse),
            (collapse, identity_equivariant(point_action)),
            (identity_equivariant(klein_action), identity_equivariant(klein_action)),
            (projection, projection),
            (projection, identity_equivariant(projection.cod_action)),
        ):
            _assert_documented_strict_action(phi, psi)

    def test_weak_on_conftest_actions(self, swap_action, loop_action, klein_action, klein_half_turn,
                                      collapse_swap, swap_to_loop):
        loop_id = identity_functor(loop_action.induced)
        projection = quotient_action(klein_action, klein_half_turn).projection
        for left, phi, right, psi in (
            (loop_action, loop_id, loop_action, loop_id),
            (loop_action, loop_id, swap_action, swap_to_loop),
            (swap_action, collapse_swap, swap_action, collapse_swap),
            (klein_action, projection.functor, klein_action, projection.functor),
        ):
            _assert_documented_weak_action(left, phi, right, psi)

    def test_strict_on_generated(self, generated_ssw):
        assert len(generated_ssw) == 10
        for f in generated_ssw:
            _assert_documented_strict_action(f, f)

    def test_weak_on_generated(self, generated_ssw):
        for f in generated_ssw:
            _assert_documented_weak_action(f.dom_action, f.functor, f.dom_action, f.functor)


class TestEquivariantAnafunctorify:
    def test_identity_span_middle_matches(self, klein_action):
        span = GeneralizedMorphism(identity_functor(klein_action.induced), identity_functor(klein_action.induced))
        out = equivariant_anafunctorify(span, klein_action, klein_action)
        assert morita_oracle(out.middle_action.induced, klein_action.induced)
        assert validate_two_cell(out.witness).ok
        assert weak_equivalence_report(out.comparison).is_weak_equivalence

    def test_swap_morita_span(self, swap_action, point_action):
        w = equivariant_functor(swap_action, point_action,
                                {g: "e" for g in swap_action.group.elements},
                                {x: "*" for x in swap_action.carrier})
        span = GeneralizedMorphism(w.functor, w.functor)
        out = equivariant_anafunctorify(span, point_action, point_action)
        # anchors are unique over a point, all triples collapse to one class
        assert len(out.middle_action.carrier) == 1
        assert weak_equivalence_report(out.anafunctor.left).is_ssw
        assert weak_equivalence_report(out.anafunctor.right).is_weak_equivalence

    def test_effectiveness_propagates(self, swap_action, point_action):
        w = equivariant_functor(swap_action, point_action,
                                {g: "e" for g in swap_action.group.elements},
                                {x: "*" for x in swap_action.carrier})
        span = GeneralizedMorphism(identity_functor(swap_action.induced), w.functor)
        out = equivariant_anafunctorify(span, swap_action, point_action)
        assert property_report(out.middle_action).free.value == property_report(swap_action).free.value

    def test_feet_mismatch_rejected(self, swap_action, klein_action):
        span = GeneralizedMorphism(identity_functor(swap_action.induced), identity_functor(swap_action.induced))
        from gpdkit.core import MismatchError

        with pytest.raises(MismatchError):
            equivariant_anafunctorify(span, klein_action, klein_action)

    def test_middle_need_not_be_an_action_groupoid(self, swap_action, point_action):
        # compose two spans so the middle becomes a pullback apex, then
        # replace it by an action-groupoid middle
        from gpdkit.localization import compose_generalized

        w = equivariant_functor(swap_action, point_action,
                                {g: "e" for g in swap_action.group.elements},
                                {x: "*" for x in swap_action.carrier})
        span = GeneralizedMorphism(w.functor, w.functor)
        composed = compose_generalized(span, span)
        assert len(composed.middle.objects) == 4  # anchored pairs, not a carrier
        out = equivariant_anafunctorify(composed, point_action, point_action)
        assert validate_two_cell(out.witness).ok
        assert weak_equivalence_report(out.anafunctor.left).is_ssw
        assert morita_oracle(out.middle_action.induced, composed.middle)


class TestEmptyCarrier:
    def test_empty_carrier_action_is_legal(self):
        from gpdkit.core import action_groupoid, identity_functor, trivial_group

        empty_action = action_groupoid(trivial_group(), (), {})
        assert empty_action.induced.objects == ()
        check = as_equivariant(empty_action, empty_action, identity_functor(empty_action.induced))
        assert check.ok  # the group map defaults to the trivial one
        rep = property_report(empty_action)
        assert rep.effective.value  # only the unit element exists


class TestMoritaInvariance:
    def test_free_and_transitive_agree_under_projection(self, klein_action, klein_half_turn):
        q = quotient_action(klein_action, klein_half_turn)
        rep_dom = property_report(klein_action)
        rep_cod = property_report(q.quotient)
        for name in ("free", "transitive"):
            assert rep_dom.verdict(name).value == rep_cod.verdict(name).value
        # effectiveness is the required counterexample
        assert rep_dom.effective.value and not rep_cod.effective.value
