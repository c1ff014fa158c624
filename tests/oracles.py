"""Independent brute-force oracles, kept free of the library's own code paths.

Each oracle restates a definition in its most literal form (double loops over
the categorical definition) so that test expectations are computed along a
different route than the implementation under test.
"""

from __future__ import annotations


def oracle_essentially_surjective(phi) -> bool:
    """Every codomain object receives an arrow from an object in the image."""
    h = phi.cod
    for y in h.objects:
        hit = False
        for x in phi.dom.objects:
            for a in h.arrows:
                if h.src[a] == y and h.tgt[a] == phi.obj_map[x]:
                    hit = True
        if not hit:
            return False
    return True


def oracle_fully_faithful(phi) -> bool:
    """hom(x, x') maps bijectively onto hom(phi x, phi x') for every pair."""
    g, h = phi.dom, phi.cod
    for x in g.objects:
        for x2 in g.objects:
            dom_hom = [a for a in g.arrows if g.src[a] == x and g.tgt[a] == x2]
            cod_hom = [b for b in h.arrows if h.src[b] == phi.obj_map[x] and h.tgt[b] == phi.obj_map[x2]]
            images = [phi.arr_map[a] for a in dom_hom]
            if sorted(images) != sorted(cod_hom):
                return False
            if len(set(images)) != len(images):
                return False
    return True


def oracle_weak_equivalence(phi) -> bool:
    return oracle_essentially_surjective(phi) and oracle_fully_faithful(phi)


def oracle_surjective_weak_equivalence(phi) -> bool:
    return oracle_weak_equivalence(phi) and set(phi.obj_map.values()) == set(phi.cod.objects)


def oracle_components(g) -> list[frozenset]:
    """Connected components of the objects under the arrow relation."""
    remaining = set(g.objects)
    out = []
    while remaining:
        seed = next(x for x in g.objects if x in remaining)
        comp = {seed}
        changed = True
        while changed:
            changed = False
            for a in g.arrows:
                if g.src[a] in comp and g.tgt[a] not in comp:
                    comp.add(g.tgt[a])
                    changed = True
                if g.tgt[a] in comp and g.src[a] not in comp:
                    comp.add(g.src[a])
                    changed = True
        out.append(frozenset(comp))
        remaining -= comp
    return out


def oracle_orbit(action, x) -> frozenset:
    return frozenset(action.act[(g, x)] for g in action.group.elements)


def oracle_stabilizer(action, x) -> frozenset:
    return frozenset(g for g in action.group.elements if action.act[(g, x)] == x)


def oracle_effective(action) -> bool:
    for g in action.group.elements:
        if g == action.group.unit:
            continue
        if all(action.act[(g, x)] == x for x in action.carrier):
            return False
    return True


def oracle_all_transformations(source, target):
    """Every per-object arrow assignment with the right endpoints (generator)."""
    import itertools

    cod = source.cod
    per_object = []
    for z in source.dom.objects:
        per_object.append(
            [
                a
                for a in cod.arrows
                if cod.src[a] == source.obj_map[z] and cod.tgt[a] == target.obj_map[z]
            ]
        )
    for combo in itertools.product(*per_object):
        yield dict(zip(source.dom.objects, combo))


def oracle_natural(source, target, component) -> bool:
    dom, cod = source.dom, source.cod
    for a in dom.arrows:
        z, z2 = dom.src[a], dom.tgt[a]
        left = cod.compose.get((component[z2], source.arr_map[a]))
        right = cod.compose.get((target.arr_map[a], component[z]))
        if left is None or left != right:
            return False
    return True


def oracle_normalize_two_cell(d):
    """Normal-form transformation of a 2-cell diagram, built through pullbacks.

    The reference construction the library's per-object formula replaced:
    pull the mediator back over the strict pullback of the left legs (weak
    pullback), factor the left-foot data through the fully faithful bottom
    left leg, then factor the right-foot composite through the surjective
    projection of the weak pullback.
    """
    from gpdkit.core import compose_functors, inverse_transformation, vertical_compose_nat, whisker
    from gpdkit.localization import as_anafunctor
    from gpdkit.morita import coff_factorize, ff_factorize, strict_pullback, weak_pullback

    top, bottom = as_anafunctor(d.top), as_anafunctor(d.bottom)
    pb = strict_pullback(top.left, bottom.left)
    lifted = weak_pullback(pb.pr1, d.to_top)  # pr1 -> pullback apex, pr3 -> mediator
    mid = ff_factorize(
        bottom.left,
        compose_functors(pb.pr2, lifted.pr1),
        compose_functors(d.to_bottom, lifted.pr3),
        vertical_compose_nat(
            whisker(d.left_cell, lifted.pr3, "right"),
            whisker(lifted.comparison, top.left, "left"),
        ),
    )
    composite = vertical_compose_nat(
        whisker(inverse_transformation(mid), bottom.right, "left"),
        vertical_compose_nat(
            whisker(d.right_cell, lifted.pr3, "right"),
            whisker(lifted.comparison, top.right, "left"),
        ),
    )
    return coff_factorize(
        lifted.pr1,
        compose_functors(top.right, pb.pr1),
        compose_functors(bottom.right, pb.pr2),
        composite,
    )


def oracle_compose_rows(g) -> list[list[str]]:
    """The ``compose`` rows of a groupoid document: every ordered pair of declared arrows, tested."""
    return [[a2, a1, g.compose[(a2, a1)]] for a2 in g.arrows for a1 in g.arrows if (a2, a1) in g.compose]
