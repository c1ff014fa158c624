"""Group-action properties, equivariant functors, and the decomposition theorem.

An equivariant weak equivalence between action groupoids factors as a
quotient projection (by the kernel of its group map, which acts freely)
followed by an inclusion into a balanced product.  Both stages, the
equivariant pullbacks, and the bibundle-style span replacement are
constructed explicitly and re-verified against their contracts rather than
trusted.  Their class tables (cosets, point orbits, balanced-product pairs
and anchored triples) are built by :func:`gpdkit.core.class_reps`, so each
class is named after its least-index member.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .core import (
    ActionGroupoid,
    FiniteGroup,
    GroupoidFunctor,
    InternalCheckError,
    MismatchError,
    PreconditionError,
    action_groupoid,
    class_reps,
    compose_functors,
    direct_product,
    fibers,
    fixed_point,
    hom_kernel,
    identity_functor,
    is_group_hom,
    is_normal,
    is_subgroup_of,
    orbits,
    render_id,
    subgroup,
    validate_functor,
    verify_isomorphism,
)
from .localization import Anafunctor, GeneralizedMorphism, TwoCellDiagram, identity_filled_diagram
from .morita import strict_pullback, weak_equivalence_report, weak_pullback

# properties that hold for every finite group action, reported with a flag
TRIVIAL_IN_FINITE_SETTING = ("locally_free", "compact", "discrete", "proper", "orbifold")

# properties every weak equivalence of actions preserves (effectiveness is not one)
INVARIANT_PROPERTIES = ("free", "transitive")


@dataclass(frozen=True)
class PropertyVerdict:
    value: bool
    trivial: bool = False
    witness: tuple | None = None


@dataclass(frozen=True)
class PropertyReport:
    free: PropertyVerdict
    locally_free: PropertyVerdict
    transitive: PropertyVerdict
    effective: PropertyVerdict
    compact: PropertyVerdict
    discrete: PropertyVerdict
    proper: PropertyVerdict
    orbifold: PropertyVerdict

    def verdict(self, name: str) -> PropertyVerdict:
        return getattr(self, name)


PROPERTY_NAMES = tuple(f.name for f in fields(PropertyReport))


def property_report(a: ActionGroupoid) -> PropertyReport:
    """Decide each action property by direct enumeration, once per action
    object; the report is kept on it (``ActionGroupoid._kept_properties``).

    A finite group is compact, discrete, and acts properly, and every finite
    groupoid is proper etale (hence an orbifold groupoid); those verdicts,
    :data:`TRIVIAL_IN_FINITE_SETTING`, are reported true with a trivial flag.
    """
    if a._kept_properties is None:
        object.__setattr__(a, "_kept_properties", _property_report(a))
    return a._kept_properties


def _property_report(a: ActionGroupoid) -> PropertyReport:
    free_witness = fixed_point(a, a.group.elements)
    orbit_list = orbits(a)
    transitive_witness = None if len(orbit_list) <= 1 else (orbit_list[0][0], orbit_list[1][0])
    ineffective_witness = None
    for g in a.group.elements:
        if g != a.group.unit and all(a.act[(g, x)] == x for x in a.carrier):
            ineffective_witness = (g,)
            break
    return PropertyReport(
        free=PropertyVerdict(free_witness is None, witness=free_witness),
        transitive=PropertyVerdict(transitive_witness is None, witness=transitive_witness),
        effective=PropertyVerdict(ineffective_witness is None, witness=ineffective_witness),
        **dict.fromkeys(TRIVIAL_IN_FINITE_SETTING, PropertyVerdict(True, trivial=True)),
    )


@dataclass(frozen=True)
class EquivariantFunctor:
    """A functor between action groupoids of the form (g, x) -> (hom(g), obj(x))."""

    dom_action: ActionGroupoid
    cod_action: ActionGroupoid
    group_hom: dict[str, str] = field(repr=False)
    obj_map: dict[str, str] = field(repr=False)
    functor: GroupoidFunctor = field(repr=False)


def equivariant_functor(
    dom: ActionGroupoid,
    cod: ActionGroupoid,
    group_hom: dict[str, str],
    obj_map: dict[str, str],
) -> EquivariantFunctor:
    witness = is_group_hom(dom.group, cod.group, group_hom)
    if witness is not None:
        raise PreconditionError(f"group map is not a homomorphism at {witness}")
    if set(obj_map) != set(dom.carrier):
        raise MismatchError("object map keys do not match the domain carrier")
    cod_points = set(cod.carrier)
    for x, y in obj_map.items():
        if y not in cod_points:
            raise MismatchError(f"object map value {y!r} is not a codomain point")
    for g in dom.group.elements:
        for x in dom.carrier:
            if obj_map[dom.act[(g, x)]] != cod.act[(group_hom[g], obj_map[x])]:
                raise PreconditionError(f"object map is not equivariant at ({g!r}, {x!r})")
    arr_map = {
        dom.arrow_id(g, x): cod.arrow_id(group_hom[g], obj_map[x])
        for g in dom.group.elements
        for x in dom.carrier
    }
    functor = GroupoidFunctor(dom.induced, cod.induced, dict(obj_map), arr_map)
    validate_functor(functor).require(InternalCheckError, "equivariant data produced an invalid functor")
    return EquivariantFunctor(dom, cod, dict(group_hom), dict(obj_map), functor)


def identity_equivariant(a: ActionGroupoid) -> EquivariantFunctor:
    """The identity of ``a``; valid because ``a`` is, so it is not re-checked."""
    return EquivariantFunctor(
        a, a, {g: g for g in a.group.elements}, {x: x for x in a.carrier}, identity_functor(a.induced)
    )


def compose_equivariant(f2: EquivariantFunctor, f1: EquivariantFunctor) -> EquivariantFunctor:
    if f1.cod_action != f2.dom_action:
        raise MismatchError("compose_equivariant: actions do not match")
    return equivariant_functor(
        f1.dom_action,
        f2.cod_action,
        {g: f2.group_hom[h] for g, h in f1.group_hom.items()},
        {x: f2.obj_map[y] for x, y in f1.obj_map.items()},
    )


@dataclass(frozen=True)
class EquivariantCheck:
    functor: EquivariantFunctor | None
    witness: str | None = None  # an arrow whose image breaks the required form

    @property
    def ok(self) -> bool:
        return self.functor is not None


def as_equivariant(dom: ActionGroupoid, cod: ActionGroupoid, f: GroupoidFunctor) -> EquivariantCheck:
    """Recover the (unique) group map making f equivariant, if one exists."""
    if f.dom != dom.induced or f.cod != cod.induced:
        raise MismatchError("functor endpoints are not the stated action groupoids")
    validate_functor(f).require(PreconditionError, "functor is invalid")
    group_hom: dict[str, str] = {}
    for g in dom.group.elements:
        images = set()
        for x in dom.carrier:
            aid = dom.arrow_id(g, x)
            h, _ = cod.arrow_pairs[f.arr_map[aid]]
            images.add(h)
            if len(images) > 1:
                return EquivariantCheck(None, witness=aid)
        # an empty carrier leaves the group map unconstrained; use the trivial one
        group_hom[g] = next(iter(images)) if images else cod.group.unit
    return EquivariantCheck(equivariant_functor(dom, cod, group_hom, dict(f.obj_map)))


@dataclass(frozen=True)
class QuotientConstruction:
    """Quotient of an action by a free normal subgroup, with its projection."""

    kernel: FiniteGroup
    quotient: ActionGroupoid
    projection: EquivariantFunctor


def quotient_action(a: ActionGroupoid, kernel_elements) -> QuotientConstruction:
    """Quotient group and carrier by a normal subgroup acting freely.

    Cosets and point orbits are collapsed onto least-index representatives so
    the construction is deterministic.  The trivial subgroup is normal and
    acts freely, and collapsing it changes no table: the action itself is
    returned as its own quotient, with its identity as the projection.
    """
    k = subgroup(a.group, kernel_elements)
    if k.order == 1:
        return QuotientConstruction(k, a, identity_equivariant(a))
    if not is_normal(a.group, k.elements):
        raise PreconditionError("quotient_action: subgroup is not normal")
    witness = fixed_point(a, k.elements)
    if witness is not None:
        raise PreconditionError(f"quotient_action: subgroup does not act freely at {witness!r}")
    g = a.group
    coset_rep = class_reps(g.elements, lambda el: [g.mul[(el, s)] for s in k.elements])
    reps = tuple(dict.fromkeys(coset_rep.values()))
    qgroup = FiniteGroup(
        elements=reps,
        mul={(r1, r2): coset_rep[g.mul[(r1, r2)]] for r1 in reps for r2 in reps},
        unit=coset_rep[g.unit],
        inv={r: coset_rep[g.inv[r]] for r in reps},
    )
    orbit_rep = class_reps(a.carrier, lambda x: [a.act[(s, x)] for s in k.elements])
    qcarrier = tuple(dict.fromkeys(orbit_rep.values()))
    qact = {(r, p): orbit_rep[a.act[(r, p)]] for r in reps for p in qcarrier}
    quotient = action_groupoid(qgroup, qcarrier, qact)
    projection = equivariant_functor(a, quotient, dict(coset_rep), {x: orbit_rep[x] for x in a.carrier})
    weak_equivalence_report(projection.functor).require_ssw(InternalCheckError, "quotient projection")
    return QuotientConstruction(k, quotient, projection)


@dataclass(frozen=True)
class QuotientFactorization:
    kernel: FiniteGroup
    projection: EquivariantFunctor
    iso: EquivariantFunctor  # quotient -> codomain, bijective on group and carrier


def _is_equivariant_iso(f: EquivariantFunctor) -> bool:
    group_bij = len(set(f.group_hom.values())) == f.cod_action.group.order == f.dom_action.group.order
    carrier_bij = len(set(f.obj_map.values())) == len(f.cod_action.carrier) == len(f.dom_action.carrier)
    return group_bij and carrier_bij


def quotient_factorization(phi: EquivariantFunctor) -> QuotientFactorization:
    """Split a surjective equivariant weak equivalence as iso ∘ quotient projection.

    When the kernel is trivial the quotient is the domain itself and its
    projection the identity (:func:`quotient_action`), so ``phi`` is the iso.
    Over a nonempty carrier the group map of such a functor is onto; over an
    empty one it need not be, and then no iso exists, so it is refused.
    """
    weak_equivalence_report(phi.functor).require_ssw(PreconditionError, "quotient_factorization: functor")
    image = set(phi.group_hom.values())
    missed = next((h for h in phi.cod_action.group.elements if h not in image), None)
    if missed is not None:
        raise PreconditionError(f"quotient_factorization: group map misses {missed!r}")
    g = phi.dom_action.group
    kernel_elements = hom_kernel(g, phi.cod_action.group, phi.group_hom)
    q = quotient_action(phi.dom_action, kernel_elements)
    trivial = q.kernel.order == 1
    iso = phi if trivial else equivariant_functor(
        q.quotient,
        phi.cod_action,
        {r: phi.group_hom[r] for r in q.quotient.group.elements},
        {p: phi.obj_map[p] for p in q.quotient.carrier},
    )
    if not _is_equivariant_iso(iso):
        raise InternalCheckError("quotient_factorization: comparison with the quotient is not an isomorphism")
    if not trivial and compose_functors(iso.functor, q.projection.functor) != phi.functor:
        raise InternalCheckError("quotient_factorization: stages do not compose to the input")
    return QuotientFactorization(q.kernel, q.projection, iso)


@dataclass(frozen=True)
class BalancedProduct:
    """Carrier (big x inner)/antidiagonal with the induced big-group action."""

    product: ActionGroupoid
    inclusion: EquivariantFunctor  # inner action -> product action


def _balanced_classes(big: FiniteGroup, inner: ActionGroupoid) -> tuple[dict, dict]:
    """The balanced product's class table, read by :func:`balanced_product` and :func:`decompose`.

    Pairs (g, x) of big × inner carrier, with [g * k, x] = [g, k·x] for k in
    the inner group.  Returns pair -> the least-index pair of its class, and
    that pair -> the class id.  :func:`decompose` reads the table alone, to
    identify its codomain with the product without building the product.
    """
    pair_rep = class_reps(
        [(el, x) for el in big.elements for x in inner.carrier],
        lambda p: [(big.mul[(p[0], big.inv[s])], inner.act[(s, p[1])]) for s in inner.group.elements],
    )
    return pair_rep, {rep: render_id(rep) for rep in dict.fromkeys(pair_rep.values())}


def balanced_product(big: FiniteGroup, inner: ActionGroupoid) -> BalancedProduct:
    """Induce an action of ``big`` from an action of a subgroup of it.

    Points are classes [g, x] with [g * k, x] = [g, k·x]; representatives are
    least-index pairs (:func:`_balanced_classes`).  The product's action
    axioms are verified as it is built, and the inclusion x -> [1, x] of the
    inner action is re-verified to be a weak equivalence.
    """
    k = inner.group
    if not is_subgroup_of(k, big):
        raise PreconditionError("balanced_product: inner action group is not a subgroup of the big group")
    pair_rep, ids = _balanced_classes(big, inner)
    rep_pairs = {rid: rep for rep, rid in ids.items()}
    act = {
        (el, rid): ids[pair_rep[(big.mul[(el, rg)], rx)]]
        for el in big.elements
        for rid, (rg, rx) in rep_pairs.items()
    }
    product = action_groupoid(big, tuple(rep_pairs), act)
    inclusion = equivariant_functor(
        inner,
        product,
        {s: s for s in k.elements},
        {x: ids[pair_rep[(big.unit, x)]] for x in inner.carrier},
    )
    weak_equivalence_report(inclusion.functor).require_weak_equivalence(
        InternalCheckError, "balanced_product: inclusion"
    )
    return BalancedProduct(product, inclusion)


@dataclass(frozen=True)
class DecompositionResult:
    """An equivariant weak equivalence split as inclusion ∘ projection."""

    kernel: FiniteGroup
    projection: EquivariantFunctor  # domain -> middle, surjective weak equivalence
    middle: ActionGroupoid  # image group acting on the image carrier
    inclusion: EquivariantFunctor  # middle -> codomain, weak equivalence
    quotient: QuotientFactorization  # the projection stage split as iso ∘ kernel quotient
    carrier_bijection: dict[str, str] = field(repr=False)  # balanced-product class -> codomain point

    @property
    def middle_iso(self) -> EquivariantFunctor:
        """quotient -> middle, the identifying isomorphism."""
        return self.quotient.iso


def decompose(phi: EquivariantFunctor) -> DecompositionResult:
    """Factor an equivariant weak equivalence through its image action.

    The projection stage collapses the kernel of the group map (shown to act
    freely); the inclusion stage embeds the image action.  What the input
    already is gets reused, not rebuilt: with a trivial kernel the quotient is
    the domain (:func:`quotient_action`), and when ``phi`` is onto, on the
    group and on the carrier, the middle is the codomain, the projection is
    ``phi`` and the inclusion the codomain's identity.  The codomain is
    identified with the balanced product over the image through that
    product's class table alone (:func:`_balanced_classes`), checked to be a
    bijection [g, y] -> g·y.  The :data:`INVARIANT_PROPERTIES` verdicts are
    checked to agree across all three actions.
    """
    weak_equivalence_report(phi.functor).require_weak_equivalence(PreconditionError, "decompose: functor")
    dom, cod = phi.dom_action, phi.cod_action
    h = cod.group
    image = set(phi.group_hom.values())
    image_points = set(phi.obj_map.values())
    if len(image) == h.order and len(image_points) == len(cod.carrier):
        middle, projection, inclusion = cod, phi, identity_equivariant(cod)
    else:
        image_elements = tuple(e for e in h.elements if e in image)
        image_carrier = tuple(y for y in cod.carrier if y in image_points)
        middle = action_groupoid(
            subgroup(h, image_elements),
            image_carrier,
            {(el, y): cod.act[(el, y)] for el in image_elements for y in image_carrier},
        )
        projection = equivariant_functor(dom, middle, dict(phi.group_hom), dict(phi.obj_map))
        inclusion = equivariant_functor(
            middle,
            cod,
            {el: el for el in image_elements},
            {y: y for y in image_carrier},
        )
        weak_equivalence_report(inclusion.functor).require_weak_equivalence(
            InternalCheckError, "decompose: inclusion stage"
        )
        if compose_functors(inclusion.functor, projection.functor) != phi.functor:
            raise InternalCheckError("decompose: stages do not compose to the input functor")
    try:
        quotient = quotient_factorization(projection)
    except PreconditionError as exc:
        raise InternalCheckError(f"decompose: projection stage: {exc}") from None

    _, class_ids = _balanced_classes(h, middle)
    carrier_bijection = {rid: cod.act[pair] for pair, rid in class_ids.items()}
    if sorted(carrier_bijection.values()) != sorted(cod.carrier):
        raise InternalCheckError("decompose: balanced product does not match the codomain carrier")

    rep_dom, rep_cod, rep_mid = property_report(dom), property_report(cod), property_report(middle)
    for name in INVARIANT_PROPERTIES:
        if not (rep_dom.verdict(name).value == rep_mid.verdict(name).value == rep_cod.verdict(name).value):
            raise InternalCheckError(f"decompose: property {name!r} not preserved onto the middle")

    return DecompositionResult(
        kernel=quotient.kernel,
        projection=projection,
        middle=middle,
        inclusion=inclusion,
        quotient=quotient,
        carrier_bijection=carrier_bijection,
    )


@dataclass(frozen=True)
class EquivariantStrictPullback:
    action: ActionGroupoid  # fibered-product group acting on the fibered-product carrier
    pr1: EquivariantFunctor
    pr2: EquivariantFunctor
    iso: GroupoidFunctor  # action.induced -> plain pullback apex
    plain: object = field(repr=False)  # the underlying morita.StrictPullback


def equivariant_strict_pullback(phi: EquivariantFunctor, psi: EquivariantFunctor) -> EquivariantStrictPullback:
    """Strict pullback of equivariant functors, as an action groupoid.

    The pairs (a, b) with equal group images move (x, y) to (a·x, b·y).  The
    codomain need not satisfy any property list; only the feet matter.
    """
    if phi.cod_action != psi.cod_action:
        raise MismatchError("equivariant_strict_pullback: functors have different codomains")
    weak_equivalence_report(phi.functor).require_ssw(PreconditionError, "equivariant_strict_pullback: first functor")
    plain = strict_pullback(phi.functor, psi.functor)
    pairs = [
        (a, b)
        for a in phi.dom_action.group.elements
        for b in psi.dom_action.group.elements
        if phi.group_hom[a] == psi.group_hom[b]
    ]
    parts = _equivariant_pullback(plain, plain.pr2, phi.dom_action, psi.dom_action, pairs, "equivariant_strict_pullback")
    return EquivariantStrictPullback(*parts, plain)


def _equivariant_pullback(plain, plain_outer, left: ActionGroupoid, right: ActionGroupoid, pairs, where: str):
    """The action of ``pairs`` on the apex of ``plain``, read off its tables.

    ``plain`` is a strict or weak pullback of functors out of ``left.induced``
    and ``right.induced``, and ``plain_outer`` its projection to the right
    foot.  The pair (a, b) moves the object keyed (x, ..., y) along the
    pullback arrow keyed ((a, x), ..., (b, y)), which is also the canonical
    iso's image of the action arrow.  Pair ids are read off
    :func:`direct_product`'s table.  Returns the action, the two projections
    and the iso, each re-verified.
    """
    product, ids = direct_product(left.group, right.group)
    pair_ids = {p: ids[p] for p in pairs}
    moves = {
        (pid, oid): plain.arrow_ids[(left.arrow_id(a, key[0]), *key[1:-1], right.arrow_id(b, key[-1]))]
        for (a, b), pid in pair_ids.items()
        for key, oid in plain.object_ids.items()
    }
    action = action_groupoid(
        subgroup(product, pair_ids.values()),
        plain.apex.objects,
        {move: plain.apex.tgt[arrow] for move, arrow in moves.items()},
    )
    iso = GroupoidFunctor(
        action.induced,
        plain.apex,
        {oid: oid for oid in plain.apex.objects},
        {action.arrow_id(*move): arrow for move, arrow in moves.items()},
    )
    verify_isomorphism(iso, where)
    pr1 = equivariant_functor(
        action, left,
        {pid: a for (a, _), pid in pair_ids.items()},
        {oid: key[0] for key, oid in plain.object_ids.items()},
    )
    outer = equivariant_functor(
        action, right,
        {pid: b for (_, b), pid in pair_ids.items()},
        {oid: key[-1] for key, oid in plain.object_ids.items()},
    )
    if compose_functors(plain.pr1, iso) != pr1.functor or compose_functors(plain_outer, iso) != outer.functor:
        raise InternalCheckError(f"{where}: projections do not commute with the canonical iso")
    weak_equivalence_report(outer.functor).require_ssw(InternalCheckError, f"{where}: outer projection")
    return action, pr1, outer, iso


@dataclass(frozen=True)
class EquivariantWeakPullback:
    action: ActionGroupoid  # product group acting on the anchored-triple carrier
    pr1: EquivariantFunctor
    pr3: EquivariantFunctor
    iso: GroupoidFunctor  # action.induced -> plain pullback apex
    plain: object = field(repr=False)  # the underlying morita.WeakPullback


def equivariant_weak_pullback(
    left: ActionGroupoid,
    phi: GroupoidFunctor,
    right: ActionGroupoid,
    psi: GroupoidFunctor,
) -> EquivariantWeakPullback:
    """Weak pullback of two functors out of action groupoids, as an action groupoid.

    The product group moves an anchored triple (x, k, y) to
    (g·x, psi(h, y) ∘ k ∘ phi(g, x)^(-1), h·y); the shared codomain may be any
    finite groupoid.
    """
    if phi.dom != left.induced or psi.dom != right.induced:
        raise MismatchError("equivariant_weak_pullback: functor domains are not the stated action groupoids")
    if phi.cod != psi.cod:
        raise MismatchError("equivariant_weak_pullback: functors have different codomains")
    weak_equivalence_report(phi).require_weak_equivalence(PreconditionError, "equivariant_weak_pullback: first functor")
    plain = weak_pullback(phi, psi)
    pairs = [(a, b) for a in left.group.elements for b in right.group.elements]
    parts = _equivariant_pullback(plain, plain.pr3, left, right, pairs, "equivariant_weak_pullback")
    return EquivariantWeakPullback(*parts, plain)


@dataclass(frozen=True)
class EquivariantAnafunctorification:
    anafunctor: Anafunctor
    witness: TwoCellDiagram
    middle_action: ActionGroupoid
    comparison: GroupoidFunctor  # old middle -> new action middle, a weak equivalence


def equivariant_anafunctorify(
    f: GeneralizedMorphism,
    left: ActionGroupoid,
    right: ActionGroupoid,
) -> EquivariantAnafunctorification:
    """Replace a span between action groupoids by one with an action-groupoid middle.

    Points of the new middle are classes of anchored triples (a, z, b): an
    arrow a of the left foot into the left image of z and an arrow b of the
    right foot into the right image of z, two triples being identified when a
    middle arrow transports one to the other by post-composition on both
    anchors.  The product group acts by pre-composition with inverses.  Every
    stated obligation (surjectivity, equivariance, the comparison functor
    being a weak equivalence, the witness diagram, property matching) is
    re-verified; failures abort.
    """
    if f.left_foot != left.induced or f.right_foot != right.induced:
        raise MismatchError("equivariant_anafunctorify: span feet are not the stated action groupoids")
    gi, hi, k = left.induced, right.induced, f.middle
    phi, psi = f.left, f.right

    # every object is the target of its unit arrow, so every key is present
    gi_into = fibers(gi.arrows, gi.tgt.__getitem__)
    hi_into = fibers(hi.arrows, hi.tgt.__getitem__)

    triples = []
    for z in k.objects:
        for a in gi_into[phi.obj_map[z]]:
            for b in hi_into[psi.obj_map[z]]:
                triples.append((a, z, b))
    arrows_out = k.arrows_from()

    def transports(t: tuple[str, str, str]) -> list[tuple[str, str, str]]:
        """Every triple a middle arrow transports ``t`` to, ``t`` included.

        One step is the whole class: ``phi`` and ``psi`` are functors and the
        middle is a groupoid, so a chain of transports is the transport along
        the composite arrow.
        """
        a, z, b = t
        return [(gi.compose[(phi.arr_map[m], a)], k.tgt[m], hi.compose[(psi.arr_map[m], b)]) for m in arrows_out[z]]

    triple_rep = class_reps(triples, transports)
    ids = {rep: render_id(rep) for rep in dict.fromkeys(triple_rep.values())}

    product, pair_ids = direct_product(left.group, right.group)
    act = {}
    for (g, h), p in pair_ids.items():
        for (a, z, b), rid in ids.items():
            a2 = gi.compose[(a, gi.inv[left.arrow_id(g, gi.src[a])])]
            b2 = hi.compose[(b, hi.inv[right.arrow_id(h, hi.src[b])])]
            act[(p, rid)] = ids[triple_rep[(a2, z, b2)]]
    middle_action = action_groupoid(product, tuple(ids.values()), act)

    left_leg = equivariant_functor(
        middle_action, left,
        {p: g for (g, _), p in pair_ids.items()},
        {rid: gi.src[a] for (a, _, _), rid in ids.items()},
    )
    right_leg = equivariant_functor(
        middle_action, right,
        {p: h for (_, h), p in pair_ids.items()},
        {rid: hi.src[b] for (_, _, b), rid in ids.items()},
    )
    weak_equivalence_report(left_leg.functor).require_ssw(
        InternalCheckError, "equivariant_anafunctorify: replacement left leg"
    )
    ana = Anafunctor(left_leg.functor, right_leg.functor)

    theta_obj = {}
    theta_arr = {}
    for z in k.objects:
        theta_obj[z] = ids[triple_rep[(gi.unit[phi.obj_map[z]], z, hi.unit[psi.obj_map[z]])]]
    for m in k.arrows:
        g_part = left.arrow_pairs[phi.arr_map[m]][0]
        h_part = right.arrow_pairs[psi.arr_map[m]][0]
        theta_arr[m] = middle_action.arrow_id(pair_ids[(g_part, h_part)], theta_obj[k.src[m]])
    theta = GroupoidFunctor(k, middle_action.induced, theta_obj, theta_arr)
    validate_functor(theta).require(InternalCheckError, "equivariant_anafunctorify: comparison is not a functor")
    weak_equivalence_report(theta).require_weak_equivalence(InternalCheckError, "equivariant_anafunctorify: comparison")

    witness = identity_filled_diagram(f, ana, identity_functor(k), theta, "equivariant_anafunctorify: witness diagram")

    rep_left = property_report(left)
    rep_right = property_report(right)
    rep_mid = property_report(middle_action)
    for name in INVARIANT_PROPERTIES:
        if rep_mid.verdict(name).value != rep_left.verdict(name).value:
            raise InternalCheckError(f"equivariant_anafunctorify: property {name!r} not shared with the left foot")
    if rep_left.effective.value and rep_right.effective.value and not rep_mid.effective.value:
        raise InternalCheckError("equivariant_anafunctorify: effectiveness not inherited from effective feet")

    return EquivariantAnafunctorification(ana, witness, middle_action, theta)
