import json

import pytest

from gpdkit import documents as docs
from gpdkit import morita
from gpdkit.catalog import cyclic_group, klein_four_group
from gpdkit.cli import main
from gpdkit.core import (
    FiniteGroupoid,
    GroupoidFunctor,
    MismatchError,
    NaturalTransformation,
    PreconditionError,
    action_groupoid,
    compose_functors,
    empty_groupoid,
    groupoid_iso_search,
    identity_functor,
    identity_transformation,
    terminal_groupoid,
    validate_groupoid,
    validate_nat_trans,
    whisker,
)
from gpdkit.equivariant import quotient_action
from gpdkit.morita import (
    FiberDisagreementError,
    coff_factorize,
    ff_factorize,
    isotropy_group,
    locally_split_witness,
    morita_oracle,
    skeleton_invariant,
    strict_pullback,
    weak_equivalence_report,
    weak_pullback,
)

from oracles import (
    oracle_all_transformations,
    oracle_components,
    oracle_essentially_surjective,
    oracle_fully_faithful,
    oracle_natural,
    oracle_surjective_weak_equivalence,
    oracle_weak_equivalence,
)


class TestWeakEquivalenceReport:
    def test_identity_is_surjective_weak_equivalence(self, swap_action):
        rep = weak_equivalence_report(identity_functor(swap_action.induced))
        assert rep.is_weak_equivalence and rep.is_ssw

    def test_collapse_of_free_transitive_orbit(self, collapse_swap):
        # 4 arrows against 4 compatible triples: bijective, per the oracle too
        rep = weak_equivalence_report(collapse_swap)
        assert rep.is_weak_equivalence and rep.is_ssw
        assert oracle_surjective_weak_equivalence(collapse_swap)

    def test_klein_projection_matches_oracle(self, klein_action, klein_half_turn):
        projection = quotient_action(klein_action, klein_half_turn).projection.functor
        rep = weak_equivalence_report(projection)
        assert rep.is_ssw
        assert oracle_weak_equivalence(projection)
        # 16 arrows against 16 compatible triples
        triples = sum(
            1
            for x in projection.dom.objects
            for x2 in projection.dom.objects
            for b in projection.cod.arrows
            if projection.cod.src[b] == projection.obj_map[x]
            and projection.cod.tgt[b] == projection.obj_map[x2]
        )
        assert triples == len(projection.dom.arrows) == 16

    def test_failure_witnesses(self, swap_to_loop):
        rep = weak_equivalence_report(swap_to_loop)
        assert not rep.ff_map_bijective
        kind, triple = rep.ff_witness
        assert kind in ("missing", "duplicate") and len(triple) == 3
        # the witness names a compatible triple: an arrow between the images
        x, x2, h = triple
        assert swap_to_loop.cod.src[h] == swap_to_loop.obj_map[x]
        assert swap_to_loop.cod.tgt[h] == swap_to_loop.obj_map[x2]

    def test_report_verdicts_agree_with_oracle_on_mixed_pool(self, swap_action, loop_action, collapse_swap, swap_to_loop):
        pool = [
            identity_functor(swap_action.induced),
            identity_functor(loop_action.induced),
            collapse_swap,
            swap_to_loop,
        ]
        for f in pool:
            assert weak_equivalence_report(f).is_weak_equivalence == oracle_weak_equivalence(f)

    def test_report_matches_oracle_over_the_generated_population(self):
        # sweep the two formulations against each other over everything the
        # workbench produces at a small budget, weak equivalences or not
        from gpdkit.workbench import InstanceBudget, build_instances

        instances = build_instances(InstanceBudget(max_group_order=4, max_carrier_size=3))
        functors = [w.functor.functor for w in instances.weak_equivalences]
        functors += [f for f, _ in instances.functor_pairs]
        for f in functors[:150]:
            rep = weak_equivalence_report(f)
            assert rep.is_weak_equivalence == oracle_weak_equivalence(f)
            assert rep.is_ssw == oracle_surjective_weak_equivalence(f)

    def test_empty_domain(self, terminal):
        empty = empty_groupoid()
        to_terminal = GroupoidFunctor(empty, terminal, {}, {})
        rep = weak_equivalence_report(to_terminal)
        assert not rep.is_weak_equivalence  # codomain is nonempty
        self_map = GroupoidFunctor(empty, empty, {}, {})
        assert weak_equivalence_report(self_map).is_ssw

    def test_a_missed_component_is_the_es_witness(self, terminal, tmp_path):
        # the point onto p, in a codomain whose component {p, r} is hit and
        # whose component {q} is not: fully faithful, not essentially surjective
        arrows = ("1p", "f", "g", "1r", "1q")
        ends = {"1p": ("p", "p"), "f": ("p", "r"), "g": ("r", "p"), "1r": ("r", "r"), "1q": ("q", "q")}
        compose = {
            ("1p", "1p"): "1p", ("f", "1p"): "f", ("1p", "g"): "g", ("f", "g"): "1r",
            ("1r", "1r"): "1r", ("g", "1r"): "g", ("1r", "f"): "f", ("g", "f"): "1p",
            ("1q", "1q"): "1q",
        }
        cod = FiniteGroupoid(
            ("p", "r", "q"), arrows,
            {a: ends[a][0] for a in arrows}, {a: ends[a][1] for a in arrows}, compose,
            {"p": "1p", "r": "1r", "q": "1q"}, {"1p": "1p", "f": "g", "g": "f", "1r": "1r", "1q": "1q"},
        )
        assert validate_groupoid(cod).ok
        phi = GroupoidFunctor(terminal, cod, {"*": "p"}, {"u": "1p"})
        rep = weak_equivalence_report(phi)
        assert rep.ff_map_bijective and oracle_fully_faithful(phi)
        assert not rep.es_map_surjective and not oracle_essentially_surjective(phi)
        assert (rep.es_witness, rep.obj_witness) == ("q", "r")
        bundle = {
            "kind": "bundle",
            "documents": {
                "point": docs.groupoid_doc(terminal),
                "cod": docs.groupoid_doc(cod),
                "phi": docs.functor_doc(phi, "point", "cod"),
            },
        }
        path, out = tmp_path / "bundle.json", tmp_path / "we.json"
        path.write_bytes(docs.dumps(bundle))
        assert main(["check-we", str(path), "phi", "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert (report["es_map_surjective"], report["ff_map_bijective"]) == (False, True)
        assert report["witnesses"]["es"] == "q"

    def test_a_report_is_computed_once_per_functor_object(self, monkeypatch, swap_action, loop_action):
        computed = []
        compute = morita._weak_equivalence_report
        monkeypatch.setattr(morita, "_weak_equivalence_report", lambda phi: computed.append(phi) or compute(phi))
        pairs = swap_action.arrow_pairs
        phi = GroupoidFunctor(
            swap_action.induced, loop_action.induced, {x: "p" for x in swap_action.carrier},
            {a: loop_action.arrow_id(pairs[a][0], "p") for a in swap_action.induced.arrows},
        )
        rep = weak_equivalence_report(phi)
        assert weak_equivalence_report(phi) is rep
        assert computed == [phi] and computed[0] is phi
        twin = GroupoidFunctor(phi.dom, phi.cod, dict(phi.obj_map), dict(phi.arr_map))
        assert twin == phi and twin is not phi
        assert weak_equivalence_report(twin) == rep
        assert len(computed) == 2 and computed[1] is twin


class TestStrictPullback:
    def test_pullback_of_identities(self, swap_action):
        i = identity_functor(swap_action.induced)
        pb = strict_pullback(i, i)
        assert validate_groupoid(pb.apex).ok
        assert groupoid_iso_search(pb.apex, swap_action.induced) is not None

    def test_collapse_square_sizes(self, collapse_swap):
        # |2x2| objects and |4x4| arrows
        pb = strict_pullback(collapse_swap, collapse_swap)
        assert len(pb.apex.objects) == 4
        assert len(pb.apex.arrows) == 16
        assert validate_groupoid(pb.apex).ok

    def test_collapse_square_is_regular_klein_orbit(self, collapse_swap):
        v4 = klein_four_group()
        regular = action_groupoid(
            v4, v4.elements, {(g, x): v4.mul[(g, x)] for g in v4.elements for x in v4.elements}
        )
        pb = strict_pullback(collapse_swap, collapse_swap)
        assert groupoid_iso_search(pb.apex, regular.induced) is not None

    def test_disjoint_images_give_empty_apex(self, swap_action):
        c1 = cyclic_group(1)
        two_points = action_groupoid(c1, ("a", "b"), {("r0", "a"): "a", ("r0", "b"): "b"})
        to_a = GroupoidFunctor(
            swap_action.induced, two_points.induced,
            {x: "a" for x in swap_action.carrier},
            {arw: two_points.arrow_id("r0", "a") for arw in swap_action.induced.arrows},
        )
        ib = GroupoidFunctor(
            two_points.induced, two_points.induced,
            {"a": "b", "b": "b"},
            {two_points.arrow_id("r0", "a"): two_points.arrow_id("r0", "b"),
             two_points.arrow_id("r0", "b"): two_points.arrow_id("r0", "b")},
        )
        pb = strict_pullback(to_a, ib)
        assert pb.apex.objects == () and pb.apex.arrows == ()

    def test_codomain_mismatch(self, collapse_swap, swap_action):
        with pytest.raises(MismatchError):
            strict_pullback(collapse_swap, identity_functor(swap_action.induced))


class TestWeakPullback:
    def test_loop_identity_square(self, loop_action):
        i = identity_functor(loop_action.induced)
        wp = weak_pullback(i, i)
        assert len(wp.apex.objects) == 2
        assert len(wp.apex.arrows) == 8
        assert validate_groupoid(wp.apex).ok
        sk = skeleton_invariant(wp.apex)
        assert len(sk.components) == 1
        assert sk.components[0][1].order == 2

    def test_comparison_transformation_is_natural(self, collapse_swap):
        wp = weak_pullback(collapse_swap, collapse_swap)
        assert validate_nat_trans(wp.comparison).ok
        for (x, k, y), oid in wp.object_ids.items():
            assert wp.comparison.component[oid] == k

    def test_left_whisker_is_the_elementwise_image(self, swap_action, swap_to_loop):
        i = identity_functor(swap_action.induced)
        wp = weak_pullback(i, i)
        whiskered = whisker(wp.comparison, swap_to_loop, "left")
        assert validate_nat_trans(whiskered).ok
        for oid, c in wp.comparison.component.items():
            assert whiskered.component[oid] == swap_to_loop.arr_map[c]

    def test_pullback_along_iso_preserves_skeleton(self, swap_action, collapse_swap, terminal):
        i = identity_functor(terminal)
        wp = weak_pullback(i, collapse_swap)
        assert morita_oracle(wp.apex, swap_action.induced)

    def test_empty_foot_empty_apex(self, terminal):
        empty = empty_groupoid()
        to_terminal = GroupoidFunctor(empty, terminal, {}, {})
        wp = weak_pullback(identity_functor(terminal), to_terminal)
        assert wp.apex.objects == ()

    def test_pullbacks_of_non_weak_equivalences_still_groupoids(self, swap_to_loop):
        # no projection-class claims apply, but the finite constructions
        # must still produce valid groupoids
        sp = strict_pullback(swap_to_loop, swap_to_loop)
        assert validate_groupoid(sp.apex).ok
        wp = weak_pullback(swap_to_loop, swap_to_loop)
        assert validate_groupoid(wp.apex).ok
        assert validate_nat_trans(wp.comparison).ok


def _c2_to_point(unit: str, flip: str, *, complete: bool) -> GroupoidFunctor:
    """C2 on one object, arrows ``unit`` and ``flip``, collapsed onto the
    terminal groupoid; without ``flip ∘ flip`` in the table unless ``complete``."""
    compose = {(unit, unit): unit, (flip, unit): flip, (unit, flip): flip}
    if complete:
        compose[(flip, flip)] = unit
    c2 = FiniteGroupoid(
        ("x",), (unit, flip), {unit: "x", flip: "x"}, {unit: "x", flip: "x"},
        compose, {"x": unit}, {unit: unit, flip: flip},
    )
    return GroupoidFunctor(c2, terminal_groupoid(), {"x": "*"}, {unit: "u", flip: "u"})


@pytest.mark.parametrize("construction", [strict_pullback, weak_pullback], ids=["strict", "weak"])
def test_a_missing_factor_composite_is_refused_naming_the_factor_pair(construction):
    """Either factor may lack the composite; both pullbacks name the pair of
    that factor's table, not a key of the apex."""
    whole, broken = _c2_to_point("u", "a", complete=True), _c2_to_point("v", "b", complete=False)
    message = "tuple_groupoid: no entry for ('b', 'b'); endpoints, units, inverses and composites must be declared"
    for phi, psi in ((broken, whole), (whole, broken), (broken, broken)):
        with pytest.raises(PreconditionError) as exc:
            construction(phi, psi)
        assert str(exc.value) == message
    assert validate_groupoid(construction(whole, whole).apex).ok


class TestFactorizations:
    def test_identity_eta_recovers_identity(self, swap_action, collapse_swap):
        i = identity_functor(swap_action.induced)
        eta = whisker(identity_transformation(i), collapse_swap, "left")
        out = ff_factorize(collapse_swap, i, i, eta)
        assert out == identity_transformation(i)

    def test_identity_functor_factors_trivially(self, swap_action):
        i = identity_functor(swap_action.induced)
        eta = identity_transformation(i)
        assert ff_factorize(i, i, i, eta) == eta
        assert coff_factorize(i, i, i, eta) == eta

    def test_coff_identity_through_a_real_collapse(self, collapse_swap, terminal):
        j = identity_functor(terminal)
        eta = identity_transformation(compose_functors(j, collapse_swap))
        out = coff_factorize(collapse_swap, j, j, eta)
        assert out == identity_transformation(j)

    def test_ff_factorize_recovers_swap_comparison(self, swap_action, collapse_swap):
        # psi = identity, psi2 = the carrier swap; any transformation between
        # their collapses factors through the unique arrows upstairs
        g = swap_action.induced
        flip_obj = {"0": "1", "1": "0"}
        flip = GroupoidFunctor(
            g, g, flip_obj,
            {a: swap_action.arrow_id(swap_action.arrow_pairs[a][0], flip_obj[swap_action.arrow_pairs[a][1]])
             for a in g.arrows},
        )
        eta = NaturalTransformation(
            compose_functors(collapse_swap, identity_functor(g)),
            compose_functors(collapse_swap, flip),
            {x: "u" for x in g.objects},
        )
        assert validate_nat_trans(eta).ok
        out = ff_factorize(collapse_swap, identity_functor(g), flip, eta)
        assert validate_nat_trans(out).ok
        assert whisker(out, collapse_swap, "left") == eta
        # uniqueness: no other transformation satisfies the identity
        matches = 0
        for component in oracle_all_transformations(identity_functor(g), flip):
            if oracle_natural(identity_functor(g), flip, component):
                candidate = NaturalTransformation(identity_functor(g), flip, component)
                if whisker(candidate, collapse_swap, "left") == eta:
                    matches += 1
        assert matches == 1

    def test_coff_recovers_prewhiskered_transformation(self, klein_action, klein_half_turn, loop_action):
        q = quotient_action(klein_action, klein_half_turn)
        pi = q.projection.functor
        quotient = q.quotient
        # a nontrivial loop-valued transformation downstairs
        to_loop = GroupoidFunctor(
            quotient.induced, loop_action.induced,
            {x: "p" for x in quotient.carrier},
            {a: loop_action.arrow_id("r1" if quotient.arrow_pairs[a][0] != quotient.group.unit else "r0", "p")
             for a in quotient.induced.arrows},
        )
        eta0 = NaturalTransformation(to_loop, to_loop, {x: loop_action.arrow_id("r1", "p") for x in quotient.carrier})
        assert validate_nat_trans(eta0).ok
        eta = whisker(eta0, pi, "right")
        out = coff_factorize(pi, to_loop, to_loop, eta)
        assert out == eta0

    def test_coff_fiber_disagreement_diagnostic(self, swap_action, collapse_swap, loop_action, terminal):
        j = GroupoidFunctor(terminal, loop_action.induced, {"*": "p"}, {"u": loop_action.arrow_id("r0", "p")})
        # unnatural raw data: differs across the collapse fiber
        bad = NaturalTransformation(
            compose_functors(j, collapse_swap),
            compose_functors(j, collapse_swap),
            {"0": loop_action.arrow_id("r0", "p"), "1": loop_action.arrow_id("r1", "p")},
        )
        with pytest.raises(FiberDisagreementError):
            coff_factorize(collapse_swap, j, j, bad)


class TestLocallySplit:
    def test_identity_witness(self, swap_action):
        w = locally_split_witness(identity_functor(swap_action.induced))
        assert weak_equivalence_report(w.projection).is_ssw
        assert validate_nat_trans(w.cell).ok

    def test_collapse_witness_has_two_objects(self, collapse_swap):
        w = locally_split_witness(collapse_swap)
        assert len(w.cover.objects) == 2
        assert weak_equivalence_report(w.projection).is_ssw

    def test_klein_projection_witness(self, klein_action, klein_half_turn):
        pi = quotient_action(klein_action, klein_half_turn).projection.functor
        w = locally_split_witness(pi)
        assert validate_groupoid(w.cover).ok
        assert weak_equivalence_report(w.projection).is_ssw
        assert validate_nat_trans(w.cell).ok
        assert w.section.cod == pi.dom

    def test_non_weak_equivalence_rejected(self, swap_to_loop):
        from gpdkit.core import PreconditionError

        with pytest.raises(PreconditionError):
            locally_split_witness(swap_to_loop)


class TestSkeletonOracle:
    def test_components_match_oracle(self, klein_action):
        got = {frozenset(c) for c in map(set, _components(klein_action.induced))}
        assert got == set(oracle_components(klein_action.induced))

    def test_swap_vs_terminal(self, swap_action, terminal):
        assert morita_oracle(swap_action.induced, terminal)

    def test_klein_vs_its_quotient(self, klein_action, klein_half_turn):
        q = quotient_action(klein_action, klein_half_turn)
        assert morita_oracle(klein_action.induced, q.quotient.induced)
        sk = skeleton_invariant(klein_action.induced)
        assert len(sk.components) == 2
        assert all(iso.order == 2 for _, iso in sk.components)

    def test_loop_vs_terminal_differs(self, loop_action, terminal):
        assert not morita_oracle(loop_action.induced, terminal)

    def test_component_counts_must_agree(self, klein_action, loop_action):
        # every component has isotropy C2: only the counts (2 against 1) differ
        two, one = skeleton_invariant(klein_action.induced), skeleton_invariant(loop_action.induced)
        assert len(two.components) == 2 and len(one.components) == 1
        assert not two.morita_equal(one) and not one.morita_equal(two)

    def test_isotropy_group_is_a_group(self, klein_action):
        from gpdkit.core import validate_group

        iso = isotropy_group(klein_action.induced, "N")
        assert validate_group(iso).ok and iso.order == 2


def _components(g):
    from gpdkit.morita import connected_components

    return connected_components(g)
