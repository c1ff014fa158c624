import re
from dataclasses import replace
from itertools import product

import pytest

from gpdkit.core import (
    DanglingIdError,
    FiniteGroupoid,
    GroupoidFunctor,
    MismatchError,
    NaturalTransformation,
    PreconditionError,
    compose_functors,
    empty_groupoid,
    groupoid_iso_search,
    identity_functor,
    identity_transformation,
    validate_groupoid,
    validate_nat_trans,
)
from gpdkit import localization
from gpdkit.localization import (
    AnaTwoCell,
    Anafunctor,
    GeneralizedMorphism,
    TwoCellDiagram,
    anafunctorify,
    as_diagram,
    compose_anafunctors,
    compose_generalized,
    identity_anafunctor,
    identity_two_cell,
    inverse_two_cell,
    normalize_two_cell,
    strictify_composition,
    two_cell_difference,
    two_cells_equal,
    validate_two_cell,
    vertical_compose_ana,
)
from gpdkit.morita import morita_oracle, skeleton_invariant, strict_pullback, weak_equivalence_report, weak_pullback
from gpdkit.workbench import (
    InstanceBudget,
    _perturb_diagram,
    build_instances,
)
from oracles import oracle_normalize_two_cell


@pytest.fixture(scope="module")
def morita_span(collapse_swap):
    """Terminal <- swap groupoid -> terminal: both legs weak equivalences."""
    return Anafunctor(collapse_swap, collapse_swap)


@pytest.fixture(scope="module")
def loop_span(collapse_swap, swap_to_loop):
    """Terminal <- swap groupoid -> one-point Z/2: nontrivial right-foot arrows."""
    return Anafunctor(collapse_swap, swap_to_loop)


@pytest.fixture(scope="module")
def unsurjective_span(swap_action):
    """Swap groupoid <- one point -> one point: the left leg is a weak
    equivalence that misses the object "1", so the span is no anafunctor."""
    one_object = FiniteGroupoid(("x",), ("u",), {"u": "x"}, {"u": "x"}, {("u", "u"): "u"}, {"x": "u"}, {"u": "u"})
    include = GroupoidFunctor(one_object, swap_action.induced, {"x": "0"}, {"u": swap_action.arrow_id("r0", "0")})
    return GeneralizedMorphism(include, identity_functor(one_object))


class TestSpanTypes:
    def test_left_leg_must_be_weak_equivalence(self, swap_to_loop, swap_action):
        with pytest.raises(PreconditionError):
            GeneralizedMorphism(swap_to_loop, identity_functor(swap_action.induced))

    def test_anafunctor_needs_surjective_left_leg(self, swap_action, terminal):
        one_object = FiniteGroupoid(("x",), ("u",), {"u": "x"}, {"u": "x"}, {("u", "u"): "u"}, {"x": "u"}, {"u": "u"})
        include = GroupoidFunctor(one_object, swap_action.induced, {"x": "0"}, {"u": swap_action.arrow_id("r0", "0")})
        assert weak_equivalence_report(include).is_weak_equivalence
        GeneralizedMorphism(include, identity_functor(one_object))  # fine as a span
        with pytest.raises(PreconditionError):
            Anafunctor(include, identity_functor(one_object))

    def test_identity_anafunctor_on_empty_groupoid(self):
        f = identity_anafunctor(empty_groupoid())
        assert f.middle.objects == ()


class TestComposition:
    def test_compose_with_identity_keeps_skeleton(self, morita_span, terminal):
        out = compose_anafunctors(morita_span, identity_anafunctor(terminal))
        assert morita_oracle(out.middle, morita_span.middle)
        assert groupoid_iso_search(out.middle, morita_span.middle) is not None
        out2 = compose_anafunctors(identity_anafunctor(terminal), morita_span)
        assert groupoid_iso_search(out2.middle, morita_span.middle) is not None

    def test_weak_composition_sizes(self, morita_span):
        # anchored pairs over the terminal groupoid: 2 x 1 x 2 objects, 4 x 1 x 4 arrows
        out = compose_generalized(morita_span, morita_span)
        assert len(out.middle.objects) == 4
        assert len(out.middle.arrows) == 16
        assert validate_groupoid(out.middle).ok

    def test_compose_with_identity_admits_a_unitor_witness(self, loop_span, loop_action):
        # composing with the identity span changes the middle only up to a
        # validating 2-cell, built by anchoring each middle object at a unit
        composite = compose_generalized(loop_span, identity_anafunctor(loop_action.induced))
        assert morita_oracle(composite.middle, loop_span.middle)
        k = loop_span.middle
        foot = loop_span.right_foot
        section = GroupoidFunctor(
            k,
            composite.middle,
            {z: f"({z},{foot.unit[loop_span.right.obj_map[z]]},{loop_span.right.obj_map[z]})" for z in k.objects},
            {a: f"({a},{foot.unit[loop_span.right.obj_map[k.src[a]]]},{loop_span.right.arr_map[a]})" for a in k.arrows},
        )
        witness = TwoCellDiagram(
            top=composite,
            bottom=loop_span,
            to_top=section,
            to_bottom=identity_functor(k),
            left_cell=identity_transformation(compose_functors(composite.left, section)),
            right_cell=identity_transformation(compose_functors(composite.right, section)),
        )
        assert validate_two_cell(witness).ok

    def test_span_composed_with_reverse_preserves_skeleton(self, swap_action, collapse_swap, terminal):
        forward = GeneralizedMorphism(collapse_swap, identity_functor(swap_action.induced))
        backward = GeneralizedMorphism(identity_functor(swap_action.induced), collapse_swap)
        out = compose_generalized(backward, forward)
        assert skeleton_invariant(out.middle).morita_equal(skeleton_invariant(swap_action.induced))
        assert skeleton_invariant(out.left_foot).morita_equal(skeleton_invariant(out.right_foot))

    def test_composition_associative_up_to_canonical_iso(self, swap_action, collapse_swap, terminal):
        f = Anafunctor(collapse_swap, collapse_swap)
        g = identity_anafunctor(terminal)
        left = compose_anafunctors(compose_anafunctors(f, g), f)
        right = compose_anafunctors(f, compose_anafunctors(g, f))
        assert groupoid_iso_search(left.middle, right.middle) is not None
        assert morita_oracle(left.middle, right.middle)

    def test_empty_middle_composes_to_empty(self, terminal):
        empty = empty_groupoid()
        span = Anafunctor(GroupoidFunctor(empty, empty, {}, {}), GroupoidFunctor(empty, empty, {}, {}))
        out = compose_anafunctors(span, span)
        assert out.middle.objects == ()

    def test_interface_mismatch(self, morita_span, swap_action):
        other = identity_anafunctor(swap_action.induced)
        with pytest.raises(MismatchError):
            compose_anafunctors(morita_span, other)


class TestUnmetInterfaces:
    """Each operation refuses inputs that do not meet where it needs them to."""

    @pytest.mark.parametrize("build, message", [
        (lambda fx: GeneralizedMorphism(fx("collapse_swap"), identity_functor(fx("terminal"))),
         "span legs must share their middle groupoid"),
        (lambda fx: AnaTwoCell(fx("loop_span"), fx("morita_span"), {}),
         "2-cell endpoints are not parallel spans"),
        (lambda fx: compose_generalized(fx("loop_span"), fx("morita_span")),
         "compose_generalized: spans do not meet over a common groupoid"),
        (lambda fx: strictify_composition(fx("loop_span"), fx("morita_span")),
         "strictify_composition: spans do not meet over a common groupoid"),
        (lambda fx: vertical_compose_ana(identity_two_cell(fx("loop_span")), identity_two_cell(fx("morita_span"))),
         "vertical_compose_ana: cells do not share a middle span"),
        (lambda fx: weak_pullback(fx("collapse_swap"), fx("swap_to_loop")),
         "weak_pullback: functors have different codomains"),
    ], ids=["span", "cell", "compose_generalized", "strictify_composition", "vertical_compose_ana", "weak_pullback"])
    def test_refused_with_its_message(self, request, build, message):
        with pytest.raises(MismatchError, match=f"^{re.escape(message)}$"):
            build(request.getfixturevalue)


class TestIdentityTwoCell:
    def test_identity_left_leg_gives_units(self, swap_action):
        f = identity_anafunctor(swap_action.induced)
        cell = identity_two_cell(f)
        g = swap_action.induced
        units = set(g.unit.values())
        # the self-pullback of an identity is the diagonal, components are units
        assert set(cell.transformation.component.values()) <= units

    def test_collapse_components_enumerated(self, morita_span):
        cell = identity_two_cell(morita_span)
        assert len(cell.transformation.component) == 4  # all pairs collapse together
        assert validate_nat_trans(cell.transformation).ok

    def test_loop_span_cell_is_nontrivial(self, loop_span, loop_action):
        cell = identity_two_cell(loop_span)
        values = set(cell.transformation.component.values())
        assert loop_action.arrow_id("r1", "p") in values  # crossing pairs map to the loop

    def test_unit_law_for_all_cells(self, loop_span):
        iota = identity_two_cell(loop_span)
        flipped = _flip_cell(loop_span, iota)
        for cell in (iota, flipped):
            assert vertical_compose_ana(iota, cell).transformation == cell.transformation
            assert vertical_compose_ana(cell, iota).transformation == cell.transformation


def _flip_cell(span, iota):
    """A second, distinct 2-cell from the span to itself: post-compose by the loop."""
    loop_gpd = span.right_foot
    loop = next(a for a in loop_gpd.arrows if a not in set(loop_gpd.unit.values()))
    return AnaTwoCell(span, span, {o: loop_gpd.compose[(loop, c)] for o, c in iota.component.items()})


def _unchecked_identity_cell(span):
    """The unit cell over ``span``, set field by field so that the constructor's
    checks never run; only the operation it is passed to can refuse it."""
    pb = strict_pullback(span.left, span.left)
    component = {oid: span.right_foot.unit[span.right.obj_map[y1]] for (y1, _), oid in pb.object_ids.items()}
    cell = object.__new__(AnaTwoCell)
    for name, value in (
        ("top", span), ("bottom", span), ("component", component), ("pullback", pb),
        ("transformation", NaturalTransformation(
            compose_functors(span.right, pb.pr1), compose_functors(span.right, pb.pr2), component,
        )),
    ):
        object.__setattr__(cell, name, value)
    return cell


_NOT_AN_ANAFUNCTOR = re.escape("left leg of an anafunctor is not a surjective weak equivalence")


class TestNormalFormCell:
    def test_non_natural_cell_refused(self, loop_span):
        iota = identity_two_cell(loop_span)
        loop_gpd = loop_span.right_foot
        loop = next(a for a in loop_gpd.arrows if a not in set(loop_gpd.unit.values()))
        component = dict(iota.component)
        first = next(iter(component))
        component[first] = loop_gpd.compose[(loop, component[first])]
        with pytest.raises(PreconditionError, match="not natural"):
            AnaTwoCell(loop_span, loop_span, component)

    def test_cell_off_the_pullback_refused(self, loop_span):
        # components keyed by the middle's objects, not the pullback's
        with pytest.raises(DanglingIdError, match="component keys do not match domain objects"):
            AnaTwoCell(loop_span, loop_span, identity_transformation(loop_span.right).component)

    def test_cell_wraps_its_spans_as_anafunctors(self, swap_action):
        # a span held as a plain span and as an anafunctor is one middle span
        i = identity_functor(swap_action.induced)
        span = GeneralizedMorphism(i, i)
        iota = identity_two_cell(span)
        stacked = vertical_compose_ana(iota, normalize_two_cell(as_diagram(iota)))
        assert stacked.component == iota.component
        assert type(iota.top) is Anafunctor and iota.top == Anafunctor(i, i)

    @pytest.mark.parametrize("operation", ["identity_two_cell", "vertical_compose_ana", "inverse_two_cell", "by hand"])
    def test_cell_over_a_span_that_is_no_anafunctor_refused(self, unsurjective_span, operation):
        assert not weak_equivalence_report(unsurjective_span.left).object_map_surjective
        cell = _unchecked_identity_cell(unsurjective_span)
        build = {
            "identity_two_cell": lambda: identity_two_cell(unsurjective_span),
            "vertical_compose_ana": lambda: vertical_compose_ana(cell, cell),
            "inverse_two_cell": lambda: inverse_two_cell(cell),
            "by hand": lambda: AnaTwoCell(unsurjective_span, unsurjective_span, cell.component),
        }[operation]
        with pytest.raises(PreconditionError, match=_NOT_AN_ANAFUNCTOR):
            build()

    def test_cell_keeps_its_pullback(self, loop_span, monkeypatch):
        # a fresh leg object, so no pullback is kept on it yet
        span = Anafunctor(replace(loop_span.left), loop_span.right)
        built = []
        real = localization.strict_pullback
        monkeypatch.setattr(localization, "strict_pullback", lambda phi, psi: built.append((phi, psi)) or real(phi, psi))
        iota = identity_two_cell(span)
        d1, d2 = as_diagram(iota), as_diagram(_flip_cell(span, iota))
        assert two_cell_difference(d1, d2) is not None
        assert two_cell_difference(d2, d1) is not None
        assert len(built) == 1
        assert built[0][0] is span.left and built[0][1] is span.left

    def test_equal_legs_compare_by_object_id(self, loop_span, monkeypatch):
        # each normal form lives over its own left leg's self-pullback; legs
        # with equal tables render the same pullback object ids
        iota = identity_two_cell(loop_span)
        shared = [as_diagram(iota), as_diagram(_flip_cell(loop_span, iota))]
        expected = {(i, j): two_cell_difference(shared[i], shared[j]) for i, j in product(range(2), repeat=2)}
        assert expected[0, 0] is None and expected[0, 1] is not None
        # fresh leg objects, so no pullback is kept on them yet
        a, b = (Anafunctor(replace(loop_span.left), loop_span.right) for _ in range(2))
        built = []
        real = localization.strict_pullback
        monkeypatch.setattr(localization, "strict_pullback", lambda phi, psi: built.append((phi, psi)) or real(phi, psi))
        over = []
        for span in (a, b):
            cell = identity_two_cell(span)
            over.append([as_diagram(cell), as_diagram(_flip_cell(span, cell))])
        over_a, over_b = over
        for i, j in product(range(2), repeat=2):
            assert two_cell_difference(over_a[i], over_b[j]) == expected[i, j]
            assert two_cell_difference(over_b[i], over_a[j]) == expected[i, j]
        assert len(built) == 2 and all(phi is psi for phi, psi in built)
        assert built[0][0] is a.left and built[1][0] is b.left


class TestValidateTwoCell:
    def test_identity_diagram_validates(self, morita_span):
        d = as_diagram(identity_two_cell(morita_span))
        assert validate_two_cell(d).ok

    def test_non_weak_equivalence_mediator_flagged(self, klein_action):
        # a disconnected middle: a constant mediator map misses a component
        f = identity_anafunctor(klein_action.induced)
        d = as_diagram(identity_two_cell(f))
        const = GroupoidFunctor(
            d.mediator, f.middle,
            {o: "N" for o in d.mediator.objects},
            {a: klein_action.arrow_id("(e,e)", "N") for a in d.mediator.arrows},
        )
        assert not weak_equivalence_report(const).is_weak_equivalence
        broken = TwoCellDiagram(
            top=d.top, bottom=d.bottom, to_top=const, to_bottom=d.to_bottom,
            left_cell=d.left_cell, right_cell=d.right_cell,
        )
        report = validate_two_cell(broken)
        assert not report.ok
        assert any(v.axiom == "to-top-weak-equivalence" or v.axiom.startswith("left-cell") for v in report.violations)

    def test_strictification_diagram_validates(self, morita_span, loop_span):
        d = strictify_composition(morita_span, loop_span)
        assert validate_two_cell(d).ok

    def test_interface_violations_are_named(self, loop_span, collapse_swap):
        d = as_diagram(identity_two_cell(loop_span))
        off_middle = compose_functors(collapse_swap, d.to_top)  # mediator -> terminal, not the middle
        cases = {
            "shared-mediator": replace(d, to_bottom=identity_functor(loop_span.middle)),
            "to-top-interface": replace(d, to_top=off_middle),
            "to-bottom-interface": replace(d, to_bottom=off_middle),
        }
        for axiom, broken in cases.items():
            assert [v.axiom for v in validate_two_cell(broken).violations] == [axiom]

    def test_cells_must_end_at_the_bottom_composites(self, swap_action, swap_functor):
        # identity cells fill the squares over the identity mediator, not over the swap
        g = swap_action.induced
        span = identity_anafunctor(g)
        unit = identity_transformation(identity_functor(g))
        d = TwoCellDiagram(span, span, identity_functor(g), swap_functor, unit, unit)
        assert [v.axiom for v in validate_two_cell(d).violations] == ["left-cell-target", "right-cell-target"]


class TestNormalization:
    def test_normal_shape_is_a_fixpoint(self, loop_span):
        iota = identity_two_cell(loop_span)
        d = as_diagram(iota)
        n = normalize_two_cell(d)
        assert n.transformation == iota.transformation

    def test_perturbed_diagram_recovers_normal_form(self, loop_span):
        iota = identity_two_cell(loop_span)
        d = _perturb_diagram(as_diagram(iota))
        assert validate_two_cell(d).ok
        assert normalize_two_cell(d).transformation == iota.transformation

    def test_identity_diagram_normalizes_to_identity_cell(self, morita_span):
        f = morita_span
        d = TwoCellDiagram(
            top=f, bottom=f,
            to_top=identity_functor(f.middle), to_bottom=identity_functor(f.middle),
            left_cell=identity_transformation(compose_functors(f.left, identity_functor(f.middle))),
            right_cell=identity_transformation(compose_functors(f.right, identity_functor(f.middle))),
        )
        n = normalize_two_cell(d)
        assert n.transformation == identity_two_cell(f).transformation

    def test_normalization_idempotent(self, loop_span):
        iota = identity_two_cell(loop_span)
        n = normalize_two_cell(_perturb_diagram(as_diagram(iota)))
        again = normalize_two_cell(as_diagram(n))
        assert again.transformation == n.transformation

    def test_empty_span_normalizes(self):
        empty = empty_groupoid()
        span = Anafunctor(GroupoidFunctor(empty, empty, {}, {}), GroupoidFunctor(empty, empty, {}, {}))
        cell = identity_two_cell(span)
        assert cell.transformation.component == {}
        n = normalize_two_cell(as_diagram(cell))
        assert n.transformation.component == {}

    def test_rejects_invalid_diagram(self, loop_span, morita_span):
        d = as_diagram(identity_two_cell(loop_span))
        broken = TwoCellDiagram(
            top=d.top, bottom=morita_span, to_top=d.to_top, to_bottom=d.to_bottom,
            left_cell=d.left_cell, right_cell=d.right_cell,
        )
        with pytest.raises(PreconditionError):
            normalize_two_cell(broken)


@pytest.fixture(scope="module")
def swap_functor(swap_action):
    """The automorphism of the swap groupoid exchanging its two objects."""
    g = swap_action.induced
    flip_obj = {"0": "1", "1": "0"}
    return GroupoidFunctor(
        g, g, flip_obj,
        {a: swap_action.arrow_id(swap_action.arrow_pairs[a][0], flip_obj[swap_action.arrow_pairs[a][1]])
         for a in g.arrows},
    )


class TestNontrivialMediator:
    """A diagram whose two mediator functors differ: id against the carrier swap.

    By naturality over the connected pullback, the value at a diagonal pair
    propagates to every pair, and the hand computation shows the canonical
    representative must be the loop-shifted cell, not the unit cell.
    """

    def test_normalizes_to_the_loop_shifted_cell(self, loop_span, swap_action, swap_functor):
        k = loop_span.middle
        d = TwoCellDiagram(
            top=loop_span,
            bottom=loop_span,
            to_top=identity_functor(k),
            to_bottom=swap_functor,
            left_cell=identity_transformation(compose_functors(loop_span.left, identity_functor(k))),
            right_cell=identity_transformation(compose_functors(loop_span.right, identity_functor(k))),
        )
        # the right cell's target must be the bottom leg through the swap;
        # the tables agree because the right leg forgets the carrier
        assert compose_functors(loop_span.right, swap_functor) == loop_span.right
        assert validate_two_cell(d).ok
        n = normalize_two_cell(d)
        iota = identity_two_cell(loop_span)
        flipped = _flip_cell(loop_span, iota)
        assert n.transformation == flipped.transformation
        assert n.transformation != iota.transformation
        assert two_cells_equal(d, as_diagram(flipped))
        assert not two_cells_equal(d, as_diagram(iota))

    def test_swap_mediated_diagram_squares_to_the_unit(self, loop_span, swap_functor):
        k = loop_span.middle
        d = TwoCellDiagram(
            top=loop_span,
            bottom=loop_span,
            to_top=identity_functor(k),
            to_bottom=swap_functor,
            left_cell=identity_transformation(compose_functors(loop_span.left, identity_functor(k))),
            right_cell=identity_transformation(compose_functors(loop_span.right, identity_functor(k))),
        )
        n = normalize_two_cell(d)
        stacked = vertical_compose_ana(n, n)
        assert stacked.transformation == identity_two_cell(loop_span).transformation


class TestTwoCellEquality:
    def test_reflexive(self, loop_span):
        d = as_diagram(identity_two_cell(loop_span))
        assert two_cells_equal(d, d)

    def test_perturbed_variant_equal(self, loop_span):
        d = as_diagram(identity_two_cell(loop_span))
        assert two_cells_equal(d, _perturb_diagram(d))

    def test_distinct_cells_unequal(self, loop_span):
        iota = identity_two_cell(loop_span)
        flipped = _flip_cell(loop_span, iota)
        assert not two_cells_equal(as_diagram(iota), as_diagram(flipped))

    def test_mismatched_pairs_rejected(self, loop_span, morita_span):
        with pytest.raises(MismatchError):
            two_cells_equal(as_diagram(identity_two_cell(loop_span)), as_diagram(identity_two_cell(morita_span)))


class TestVerticalComposition:
    def test_flip_is_two_torsion(self, loop_span):
        iota = identity_two_cell(loop_span)
        flipped = _flip_cell(loop_span, iota)
        assert vertical_compose_ana(flipped, flipped).transformation == iota.transformation

    def test_associativity_on_stacked_triple(self, loop_span):
        iota = identity_two_cell(loop_span)
        flipped = _flip_cell(loop_span, iota)
        triples = [(iota, flipped, flipped), (flipped, iota, flipped), (flipped, flipped, flipped)]
        for a, b, c in triples:
            left = vertical_compose_ana(vertical_compose_ana(a, b), c)
            right = vertical_compose_ana(a, vertical_compose_ana(b, c))
            assert left.transformation == right.transformation

    def test_inverse_cell_cancels(self, loop_span):
        iota = identity_two_cell(loop_span)
        flipped = _flip_cell(loop_span, iota)
        assert vertical_compose_ana(flipped, inverse_two_cell(flipped)).transformation == iota.transformation


class TestStrictification:
    def test_identity_case_diagonal_inclusion(self, terminal):
        f = identity_anafunctor(terminal)
        d = strictify_composition(f, f)
        assert validate_two_cell(d).ok
        # unit-anchored inclusion hits the diagonal objects
        assert all(v.startswith("(") for v in d.to_top.obj_map.values())

    def test_both_composites_morita_equal(self, swap_action, collapse_swap, terminal):
        forward = GeneralizedMorphism(collapse_swap, identity_functor(swap_action.induced))
        backward = Anafunctor(identity_functor(swap_action.induced), collapse_swap)
        d = strictify_composition(forward, backward)
        assert validate_two_cell(d).ok
        assert morita_oracle(d.top.middle, d.bottom.middle)

    def test_empty_case(self):
        empty = empty_groupoid()
        span = Anafunctor(GroupoidFunctor(empty, empty, {}, {}), GroupoidFunctor(empty, empty, {}, {}))
        d = strictify_composition(span, span)
        assert validate_two_cell(d).ok


class TestAnafunctorify:
    def test_already_anafunctor_still_valid(self, morita_span):
        out = anafunctorify(morita_span)
        assert weak_equivalence_report(out.anafunctor.left).is_ssw
        assert validate_two_cell(out.witness).ok

    def test_non_surjective_left_leg_repaired(self, swap_action):
        one_object = FiniteGroupoid(("x",), ("u",), {"u": "x"}, {"u": "x"}, {("u", "u"): "u"}, {"x": "u"}, {"u": "u"})
        include = GroupoidFunctor(one_object, swap_action.induced, {"x": "0"}, {"u": swap_action.arrow_id("r0", "0")})
        span = GeneralizedMorphism(include, identity_functor(one_object))
        assert not weak_equivalence_report(span.left).object_map_surjective
        out = anafunctorify(span)
        rep = weak_equivalence_report(out.anafunctor.left)
        assert rep.object_map_surjective and rep.is_ssw
        assert validate_two_cell(out.witness).ok

    def test_identity_span_witness(self, swap_action):
        out = anafunctorify(identity_anafunctor(swap_action.induced))
        assert validate_two_cell(out.witness).ok
        # the replacement is the arrow-anchored inflation of the original
        wp = weak_pullback(identity_functor(swap_action.induced), identity_functor(swap_action.induced))
        assert out.anafunctor.middle == wp.apex

    def test_witness_between_different_middles_normalizes(self, loop_span):
        # the replacement witness connects anafunctors with different middles;
        # its normal form must agree with itself across presentations
        out = anafunctorify(loop_span)
        n = normalize_two_cell(out.witness)
        assert n.top == loop_span
        assert n.bottom == out.anafunctor
        assert two_cells_equal(out.witness, as_diagram(n))
        perturbed = _perturb_diagram(out.witness)
        assert two_cells_equal(out.witness, perturbed)


def _oracle_diagrams(span):
    """Identity, perturbed and replacement-witness diagrams on an anafunctor span."""
    d = as_diagram(identity_two_cell(Anafunctor(span.left, span.right)))
    return [d, _perturb_diagram(d), anafunctorify(span).witness]


class TestNormalFormOracle:
    """The per-object normal form equals the pullback-based reference construction."""

    def test_conftest_spans(self, morita_span, loop_span, collapse_swap, swap_action, swap_functor,
                            point_action, loop_action, klein_action, terminal):
        spans = [
            morita_span,
            loop_span,
            Anafunctor(collapse_swap, identity_functor(swap_action.induced)),
            *(identity_anafunctor(g) for g in (
                terminal, swap_action.induced, point_action.induced, loop_action.induced, klein_action.induced,
            )),
        ]
        diagrams = [d for span in spans for d in _oracle_diagrams(span)]
        flipped = _flip_cell(loop_span, identity_two_cell(loop_span))
        diagrams += [as_diagram(flipped), _perturb_diagram(as_diagram(flipped))]
        # nontrivial filling cells: on the compass points, the reflection
        # fixing each orbit pointwise is a natural loop of the identity functor
        g = klein_action.induced
        ident = identity_functor(g)
        units = identity_transformation(ident)
        loops = NaturalTransformation(ident, ident, {
            x: klein_action.arrow_id("(e,t)" if x in ("N", "S") else "(t,e)", x) for x in g.objects
        })
        f = identity_anafunctor(g)
        cells = [TwoCellDiagram(f, f, ident, ident, left, right)
                 for left, right in ((loops, units), (units, loops), (loops, loops))]
        # filling cells that are not loops: the mediator maps to the swap
        # groupoid by the identity on top and by the flip below
        s = identity_anafunctor(swap_action.induced)
        crossing = NaturalTransformation(
            identity_functor(s.middle), swap_functor,
            {x: swap_action.arrow_id("r1", x) for x in s.middle.objects},
        )
        cells.append(TwoCellDiagram(s, s, identity_functor(s.middle), swap_functor, crossing, crossing))
        for d in cells:
            assert validate_two_cell(d).ok
            diagrams += [d, _perturb_diagram(d)]
        for d in diagrams:
            assert normalize_two_cell(d).transformation == oracle_normalize_two_cell(d)

    def test_first_default_budget_cell_spans(self):
        # the spans the default-budget 2-cell laws admit, smallest first
        spans = [span for span, _, _ in build_instances(InstanceBudget()).spans]
        cells = [span for span in spans if weak_equivalence_report(span.left).is_ssw][:20]
        assert len(cells) == 20
        for span in cells:
            for d in _oracle_diagrams(span):
                assert normalize_two_cell(d).transformation == oracle_normalize_two_cell(d)
