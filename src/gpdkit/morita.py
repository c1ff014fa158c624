"""Weak-equivalence decision procedures, pullbacks, and a Morita oracle.

A functor is a weak equivalence when the arrow-anchored object map
(x, h) -> src(h) over pairs with tgt(h) = phi(x) is surjective, and the map
g -> (src(g), tgt(g), phi(g)) into compatible triples is bijective.  In the
finite setting both conditions are decided by exhaustive enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .core import (
    FiniteGroup,
    FiniteGroupoid,
    GroupoidFunctor,
    InternalCheckError,
    MismatchError,
    NaturalTransformation,
    PreconditionError,
    compose_functors,
    connected_components,
    fibers,
    group_isomorphism,
    identity_functor,
    isotropy_group,
    out_positions,
    render_id,
    tuple_groupoid,
    validate_nat_trans,
    whisker,
)


class FiberDisagreementError(ValueError):
    """A transformation disagreed across a fiber it should be constant on.

    Diagnostic only: impossible when the input transformation is natural.
    """


@dataclass(frozen=True)
class WeakEquivalenceReport:
    """Verdicts (with failure witnesses) for the two weak-equivalence maps.

    ``ff_witness`` is ("missing"|"duplicate", (x, x', h)): a compatible triple
    hit by no arrow, or by more than one.
    """

    es_map_surjective: bool
    ff_map_bijective: bool
    object_map_surjective: bool
    es_witness: str | None = None
    ff_witness: tuple | None = None
    obj_witness: str | None = None

    @property
    def is_weak_equivalence(self) -> bool:
        return self.es_map_surjective and self.ff_map_bijective

    @property
    def is_ssw(self) -> bool:
        return self.is_weak_equivalence and self.object_map_surjective

    def require_weak_equivalence(self, error: type[Exception], what: str) -> None:
        """Raise ``error`` naming ``what`` and the es and ff witnesses unless the map is a weak equivalence."""
        if not self.is_weak_equivalence:
            raise error(
                f"{what} is not a weak equivalence (es witness {self.es_witness!r}, ff witness {self.ff_witness!r})"
            )

    def require_ssw(self, error: type[Exception], what: str) -> None:
        """Raise ``error`` naming ``what`` and all three witnesses unless the map is a surjective weak equivalence."""
        if not self.is_ssw:
            raise error(
                f"{what} is not a surjective weak equivalence (es witness {self.es_witness!r}, "
                f"ff witness {self.ff_witness!r}, object witness {self.obj_witness!r})"
            )


def weak_equivalence_report(phi: GroupoidFunctor) -> WeakEquivalenceReport:
    """The report of ``phi``, computed once per functor object and kept on it.

    Tables are frozen after construction, so a functor's report never
    changes; an equal but distinct functor computes an equal report of its own.
    """
    if phi._kept_report is None:
        object.__setattr__(phi, "_kept_report", _weak_equivalence_report(phi))
    return phi._kept_report


def _weak_equivalence_report(phi: GroupoidFunctor) -> WeakEquivalenceReport:
    g, h = phi.dom, phi.cod
    # (x, a) with tgt(a) = phi(x) is sent to src(a); collect the image
    image_objects = set(phi.obj_map.values())
    reachable = set()
    for a in h.arrows:
        if h.tgt[a] in image_objects:
            reachable.add(h.src[a])
    es_witness = next((y for y in h.objects if y not in reachable), None)

    hom = h.hom_index()
    counts: dict[tuple[str, str, str], int] = {}
    for x in g.objects:
        for x2 in g.objects:
            for a in hom.get((phi.obj_map[x], phi.obj_map[x2]), ()):
                counts[(x, x2, a)] = 0
    ff_witness = None
    for b in g.arrows:
        key = (g.src[b], g.tgt[b], phi.arr_map[b])
        if key not in counts:
            ff_witness = ("missing", key)  # only possible for invalid functors
            break
        counts[key] += 1
    if ff_witness is None:
        for key, n in counts.items():
            if n != 1:
                ff_witness = ("missing" if n == 0 else "duplicate", key)
                break

    obj_witness = next((y for y in h.objects if y not in image_objects), None)
    return WeakEquivalenceReport(
        es_map_surjective=es_witness is None,
        ff_map_bijective=ff_witness is None,
        object_map_surjective=obj_witness is None,
        es_witness=es_witness,
        ff_witness=ff_witness,
        obj_witness=obj_witness,
    )


@dataclass(frozen=True)
class StrictPullback:
    """Fibered product: objects (x, y) and arrows (a, b) with equal images.

    ``object_ids`` maps each key (x, y) and ``arrow_ids`` each key (a, b) to
    its apex id, in declaration order.
    """

    apex: FiniteGroupoid
    pr1: GroupoidFunctor
    pr2: GroupoidFunctor
    object_ids: dict[tuple[str, str], str] = field(repr=False)
    arrow_ids: dict[tuple[str, str], str] = field(repr=False)


def strict_pullback(phi: GroupoidFunctor, psi: GroupoidFunctor) -> StrictPullback:
    """Objectwise and arrowwise fibered product of two functors into one groupoid.

    The row of an arrow ``(a, b)`` is read off the factor rows of ``a`` and
    ``b`` (:meth:`~gpdkit.core.FiniteGroupoid.composites`) at the positions,
    stored once per object key, of each leaving pair's legs among the arrows
    out of the factor objects.  A factor table with no entry for a pair the
    apex needs is refused with :class:`PreconditionError` naming that pair.
    """
    if phi.cod != psi.cod:
        raise MismatchError("strict_pullback: functors have different codomains")
    g, h = phi.dom, psi.dom
    objects = {(x, y): render_id((x, y)) for x in g.objects for y in h.objects if phi.obj_map[x] == psi.obj_map[y]}
    arrows = [(a, b) for a in g.arrows for b in h.arrows if phi.arr_map[a] == psi.arr_map[b]]
    g_at, h_at = g.positions(), h.positions()
    leaving = fibers(arrows, lambda p: (g.src[p[0]], h.src[p[1]]))
    # object key -> the positions of the legs of each arrow key out of it, and those keys
    legs = {
        key: ([g_at[q] for q, _ in pairs], [h_at[r] for _, r in pairs], pairs)
        for key, pairs in leaving.items()
    }
    at = out_positions(leaving)
    g_rows, h_rows = g.composites(), h.composites()

    def row(p):
        a, b = p
        g_pos, h_pos, pairs = legs.get((g.tgt[a], h.tgt[b]), ((), (), ()))
        firsts = list(map(g_rows[a].__getitem__, g_pos))
        seconds = list(map(h_rows[b].__getitem__, h_pos))
        if None in firsts or None in seconds:
            i = next(i for i, ends in enumerate(zip(firsts, seconds)) if None in ends)
            raise KeyError((pairs[i][0], a) if firsts[i] is None else (pairs[i][1], b))
        return map(at.__getitem__, zip(firsts, seconds))

    # every input is read lazily, endpoints first, so a missing key is named
    # in the order tuple_groupoid reads them and no whole input is held
    apex, ids = tuple_groupoid(
        objects,
        arrows,
        src=((g.src[a], h.src[b]) for a, b in arrows),
        tgt=((g.tgt[a], h.tgt[b]) for a, b in arrows),
        unit=(at[(g.unit[x], h.unit[y])] for x, y in objects),
        inv=(at[(g.inv[a], h.inv[b])] for a, b in arrows),
        rows=map(row, arrows),
    )
    pr1 = GroupoidFunctor(apex, g, {o: p[0] for p, o in objects.items()}, {a: p[0] for p, a in ids.items()})
    pr2 = GroupoidFunctor(apex, h, {o: p[1] for p, o in objects.items()}, {a: p[1] for p, a in ids.items()})
    out = StrictPullback(apex, pr1, pr2, objects, ids)
    if weak_equivalence_report(phi).is_ssw:
        weak_equivalence_report(pr2).require_ssw(InternalCheckError, "strict_pullback: pr2")
    return out


@dataclass(frozen=True)
class WeakPullback:
    """Arrow-anchored pullback: objects (x, k, y) carry a connecting arrow k.

    An arrow (a, k, b) goes from (src a, k, src b) to
    (tgt a, psi(b) ∘ k ∘ phi(a)^(-1), tgt b).  ``object_ids`` maps each key
    (x, k, y) and ``arrow_ids`` each key (a, k, b) to its apex id, in
    declaration order.  ``comparison`` is the natural transformation
    phi∘pr1 ⇒ psi∘pr3 whose component at (x, k, y) is k itself.
    """

    apex: FiniteGroupoid
    pr1: GroupoidFunctor
    pr3: GroupoidFunctor
    comparison: NaturalTransformation
    object_ids: dict[tuple[str, str, str], str] = field(repr=False)
    arrow_ids: dict[tuple[str, str, str], str] = field(repr=False)


def _factor_row(g: FiniteGroupoid, rows: dict[str, list[str | None]], a: str) -> list[str | None]:
    """``rows[a]``, the composites ``c ∘ a`` in ``g``; raises :class:`KeyError`
    naming the first pair ``(c, a)`` that has no entry."""
    row = rows[a]
    if None in row:
        raise KeyError((g.arrows_from()[g.tgt[a]][row.index(None)], a))
    return row


def weak_pullback(phi: GroupoidFunctor, psi: GroupoidFunctor) -> WeakPullback:
    if phi.cod != psi.cod:
        raise MismatchError("weak_pullback: functors have different codomains")
    g, h, k = phi.dom, psi.dom, phi.cod
    hom = k.hom_index()
    objects = {
        (x, c, y): render_id((x, c, y))
        for x in g.objects
        for y in h.objects
        for c in hom.get((phi.obj_map[x], psi.obj_map[y]), ())
    }
    # transported anchor of (a, c, b): psi(b) ∘ m, read off the row of
    # m = c ∘ phi(a)^(-1), which is read off the row of phi(a)^(-1)
    k_rows, k_at = k.composites(), k.positions()
    back = {a: _factor_row(k, k_rows, k.inv[phi.arr_map[a]]) for a in g.arrows}
    moved = {
        (a, c, b): k_rows[back[a][k_at[c]]][k_at[psi.arr_map[b]]]
        for a in g.arrows
        for b in h.arrows
        for c in hom.get((phi.obj_map[g.src[a]], psi.obj_map[h.src[b]]), ())
    }
    if None in moved.values():
        a, c, b = next(t for t, m in moved.items() if m is None)
        raise KeyError((psi.arr_map[b], back[a][k_at[c]]))
    g_rows, h_rows = g.composites(), h.composites()
    at = out_positions(fibers(moved, lambda t: (g.src[t[0]], t[1], h.src[t[2]])))
    # read lazily, as in strict_pullback
    apex, ids = tuple_groupoid(
        objects,
        moved,
        src=((g.src[a], c, h.src[b]) for a, c, b in moved),
        tgt=((g.tgt[a], m, h.tgt[b]) for (a, _, b), m in moved.items()),
        unit=(at[(g.unit[x], c, h.unit[y])] for x, c, y in objects),
        inv=(at[(g.inv[a], m, h.inv[b])] for (a, _, b), m in moved.items()),
        rows=(
            map(at.__getitem__, itertools.product(_factor_row(g, g_rows, a), (c,), _factor_row(h, h_rows, b)))
            for a, c, b in moved
        ),
    )
    del at  # freed before the postconditions, which set a large apex's peak memory
    pr1 = GroupoidFunctor(apex, g, {o: t[0] for t, o in objects.items()}, {a: t[0] for t, a in ids.items()})
    pr3 = GroupoidFunctor(apex, h, {o: t[2] for t, o in objects.items()}, {a: t[2] for t, a in ids.items()})
    comparison = NaturalTransformation(
        compose_functors(phi, pr1),
        compose_functors(psi, pr3),
        {o: t[1] for t, o in objects.items()},
    )
    out = WeakPullback(apex, pr1, pr3, comparison, objects, ids)
    validate_nat_trans(comparison).require(InternalCheckError, "weak pullback comparison transformation is not natural")
    if weak_equivalence_report(phi).is_weak_equivalence:
        weak_equivalence_report(pr3).require_ssw(InternalCheckError, "weak_pullback: pr3")
    return out


def ff_inverse(phi: GroupoidFunctor) -> dict[tuple[str, str, str], str]:
    """The inverse of g -> (src(g), tgt(g), phi(g)); meaningful when bijective."""
    return {(phi.dom.src[a], phi.dom.tgt[a], phi.arr_map[a]): a for a in phi.dom.arrows}


def ff_factorize(
    phi: GroupoidFunctor,
    psi: GroupoidFunctor,
    psi2: GroupoidFunctor,
    eta: NaturalTransformation,
) -> NaturalTransformation:
    """Factor eta: phi∘psi ⇒ phi∘psi2 through the fully faithful phi.

    Returns the unique transformation eta2: psi ⇒ psi2 whose left whisker by
    phi is eta; uniqueness holds because the triple map of phi is bijective.
    """
    rep = weak_equivalence_report(phi)
    if not rep.ff_map_bijective:
        raise PreconditionError(f"ff_factorize: functor is not fully faithful: {rep.ff_witness}")
    if psi.cod != phi.dom or psi2.cod != phi.dom or psi.dom != psi2.dom:
        raise MismatchError("ff_factorize: functors do not share the required interfaces")
    if eta.source != compose_functors(phi, psi) or eta.target != compose_functors(phi, psi2):
        raise MismatchError("ff_factorize: transformation endpoints are not the stated composites")
    inverse = ff_inverse(phi)
    component = {
        z: inverse[(psi.obj_map[z], psi2.obj_map[z], eta.component[z])]
        for z in psi.dom.objects
    }
    eta2 = NaturalTransformation(psi, psi2, component)
    if whisker(eta2, phi, "left") != eta:
        raise InternalCheckError("ff_factorize: factorisation identity failed")
    validate_nat_trans(eta2).require(InternalCheckError, "ff_factorize: produced transformation is invalid")
    return eta2


def coff_factorize(
    phi: GroupoidFunctor,
    psi: GroupoidFunctor,
    psi2: GroupoidFunctor,
    eta: NaturalTransformation,
) -> NaturalTransformation:
    """Factor eta: psi∘phi ⇒ psi2∘phi through the surjective weak equivalence phi.

    The component at y is read off any point of the fiber over y (least index
    first), then re-verified to agree across the whole fiber.
    """
    weak_equivalence_report(phi).require_ssw(PreconditionError, "coff_factorize: functor")
    if psi.dom != phi.cod or psi2.dom != phi.cod or psi.cod != psi2.cod:
        raise MismatchError("coff_factorize: functors do not share the required interfaces")
    if eta.source != compose_functors(psi, phi) or eta.target != compose_functors(psi2, phi):
        raise MismatchError("coff_factorize: transformation endpoints are not the stated composites")
    over = fibers(phi.dom.objects, phi.obj_map.__getitem__)
    component = {}
    for y in phi.cod.objects:
        fiber = over[y]
        values = {eta.component[x] for x in fiber}
        if len(values) != 1:
            raise FiberDisagreementError(f"transformation takes {len(values)} values over the fiber of {y!r}")
        component[y] = eta.component[fiber[0]]
    eta2 = NaturalTransformation(psi, psi2, component)
    if whisker(eta2, phi, "right") != eta:
        raise InternalCheckError("coff_factorize: factorisation identity failed")
    validate_nat_trans(eta2).require(InternalCheckError, "coff_factorize: produced transformation is invalid")
    return eta2


@dataclass(frozen=True)
class LocallySplitWitness:
    """A covering groupoid splitting a weak equivalence up to a 2-cell."""

    cover: FiniteGroupoid
    projection: GroupoidFunctor  # cover -> codomain, surjective weak equivalence
    section: GroupoidFunctor  # cover -> domain
    cell: NaturalTransformation  # phi ∘ section ⇒ projection


def locally_split_witness(phi: GroupoidFunctor) -> LocallySplitWitness:
    weak_equivalence_report(phi).require_weak_equivalence(PreconditionError, "locally_split_witness: functor")
    # weak_pullback re-verifies that pr3 is a surjective weak equivalence
    wp = weak_pullback(phi, identity_functor(phi.cod))
    return LocallySplitWitness(wp.apex, wp.pr3, wp.pr1, wp.comparison)


@dataclass(frozen=True)
class SkeletonInvariant:
    """Per connected component: (object count, isotropy group of its least object).

    Component sizes are diagnostics only; the Morita comparison matches
    isotropy groups up to isomorphism and ignores sizes.
    """

    components: tuple[tuple[int, FiniteGroup], ...]

    def morita_equal(self, other: "SkeletonInvariant") -> bool:
        if len(self.components) != len(other.components):
            return False
        unused = list(range(len(other.components)))
        for _, mine in self.components:
            hit = next((i for i in unused if group_isomorphism(mine, other.components[i][1]) is not None), None)
            if hit is None:
                return False
            unused.remove(hit)
        return True


def skeleton_invariant(g: FiniteGroupoid) -> SkeletonInvariant:
    comps = []
    for comp in connected_components(g):
        comps.append((len(comp), isotropy_group(g, comp[0])))
    return SkeletonInvariant(tuple(comps))


def morita_oracle(g: FiniteGroupoid, h: FiniteGroupoid) -> bool:
    """Independent cross-check: components matched by isotropy up to isomorphism."""
    return skeleton_invariant(g).morita_equal(skeleton_invariant(h))
