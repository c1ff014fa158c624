"""Spans of groupoid functors, their compositions, and a decidable 2-cell calculus.

A span is a middle groupoid with two legs; the left leg is always a weak
equivalence, and for anafunctors additionally surjective on objects.  A 2-cell
between parallel spans is presented by a mediating diagram; every such diagram
normalizes to a single natural transformation over the strict pullback of the
left legs, and two diagrams present the same 2-cell exactly when their normal
forms agree pointwise.

A normal-form cell checks itself when built and keeps that pullback.  One
builder makes every cell computed here, from candidates that must agree at
each pullback object; :func:`identity_filled_diagram` makes every diagram
whose filling cells are identities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    FiniteGroupoid,
    GroupoidFunctor,
    InternalCheckError,
    MismatchError,
    NaturalTransformation,
    PreconditionError,
    ValidationReport,
    Violation,
    compose_functors,
    fibers,
    identity_functor,
    identity_transformation,
    validate_nat_trans,
)
from .morita import (
    StrictPullback,
    WeakEquivalenceReport,
    ff_inverse,
    strict_pullback,
    weak_equivalence_report,
    weak_pullback,
)


@dataclass(frozen=True)
class GeneralizedMorphism:
    """A span whose left leg is a weak equivalence."""

    left: GroupoidFunctor
    right: GroupoidFunctor

    def __post_init__(self):
        if self.left.dom != self.right.dom:
            raise MismatchError("span legs must share their middle groupoid")
        self._check_left_leg(weak_equivalence_report(self.left))

    def _check_left_leg(self, rep: WeakEquivalenceReport) -> None:
        if not rep.is_weak_equivalence:
            raise PreconditionError(
                f"left leg of a span must be a weak equivalence "
                f"(es witness {rep.es_witness!r}, ff witness {rep.ff_witness!r})"
            )

    @property
    def middle(self) -> FiniteGroupoid:
        return self.left.dom

    @property
    def left_foot(self) -> FiniteGroupoid:
        return self.left.cod

    @property
    def right_foot(self) -> FiniteGroupoid:
        return self.right.cod


@dataclass(frozen=True)
class Anafunctor(GeneralizedMorphism):
    """A span whose left leg is additionally surjective on objects."""

    def _check_left_leg(self, rep: WeakEquivalenceReport) -> None:
        super()._check_left_leg(rep)
        if not rep.is_ssw:
            raise PreconditionError(
                f"left leg of an anafunctor must be surjective on objects (witness {rep.obj_witness!r})"
            )


def as_anafunctor(f: GeneralizedMorphism) -> Anafunctor:
    if isinstance(f, Anafunctor):
        return f
    return Anafunctor(f.left, f.right)


@dataclass(frozen=True)
class TwoCellDiagram:
    """One mediating diagram between two parallel spans.

    The mediator maps into both middles by weak equivalences; ``left_cell``
    and ``right_cell`` fill the squares over the left and right feet.
    """

    top: GeneralizedMorphism
    bottom: GeneralizedMorphism
    to_top: GroupoidFunctor
    to_bottom: GroupoidFunctor
    left_cell: NaturalTransformation  # top.left∘to_top ⇒ bottom.left∘to_bottom
    right_cell: NaturalTransformation  # top.right∘to_top ⇒ bottom.right∘to_bottom

    @property
    def mediator(self) -> FiniteGroupoid:
        return self.to_top.dom


@dataclass(frozen=True)
class AnaTwoCell:
    """Normal-form 2-cell: one transformation over ``pullback``, the strict
    pullback of the left legs (built when not given), checked when built."""

    top: Anafunctor
    bottom: Anafunctor
    transformation: NaturalTransformation  # top.right∘pr1 ⇒ bottom.right∘pr2
    pullback: StrictPullback = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.top.left_foot != self.bottom.left_foot or self.top.right_foot != self.bottom.right_foot:
            raise MismatchError("2-cell endpoints are not parallel spans")
        if self.pullback is None:
            object.__setattr__(self, "pullback", strict_pullback(self.top.left, self.bottom.left))
        pb = self.pullback
        if self.transformation.source != compose_functors(self.top.right, pb.pr1):
            raise MismatchError("2-cell transformation source is not top.right over the pullback")
        if self.transformation.target != compose_functors(self.bottom.right, pb.pr2):
            raise MismatchError("2-cell transformation target is not bottom.right over the pullback")
        validate_nat_trans(self.transformation).require(PreconditionError, "2-cell transformation is not natural")


def _ana_cell(top: Anafunctor, bottom: Anafunctor, pb: StrictPullback, candidates, where: str) -> AnaTwoCell:
    """The cell over ``pb`` whose component at each (y1, y2) is the one value of ``candidates(y1, y2)``."""
    component = {}
    for (y1, y2), oid in pb.object_ids.items():
        values = set(candidates(y1, y2))
        if len(values) != 1:
            raise InternalCheckError(f"{where}: {len(values)} candidate components at {oid!r}")
        component[oid] = values.pop()
    nu = NaturalTransformation(compose_functors(top.right, pb.pr1), compose_functors(bottom.right, pb.pr2), component)
    return AnaTwoCell(top, bottom, nu, pb)


def compose_generalized(f: GeneralizedMorphism, g: GeneralizedMorphism) -> GeneralizedMorphism:
    """Composite span through the arrow-anchored (weak) pullback of the middles."""
    if f.right_foot != g.left_foot:
        raise MismatchError("compose_generalized: spans do not meet over a common groupoid")
    wp = weak_pullback(f.right, g.left)
    return GeneralizedMorphism(
        compose_functors(f.left, wp.pr1),
        compose_functors(g.right, wp.pr3),
    )


def compose_anafunctors(f: Anafunctor, g: Anafunctor) -> Anafunctor:
    """Composite anafunctor through the strict pullback of the middles."""
    if f.right_foot != g.left_foot:
        raise MismatchError("compose_anafunctors: spans do not meet over a common groupoid")
    sp = strict_pullback(f.right, g.left)
    return Anafunctor(
        compose_functors(f.left, sp.pr1),
        compose_functors(g.right, sp.pr2),
    )


def identity_anafunctor(g: FiniteGroupoid) -> Anafunctor:
    i = identity_functor(g)
    return Anafunctor(i, i)


def identity_two_cell(f: Anafunctor) -> AnaTwoCell:
    """The unit 2-cell of an anafunctor, computed from the triple-map inverse.

    Over the self-pullback of the left leg, the component at (y1, y2) is the
    right leg applied to the unique arrow y1 -> y2 sitting over the identity.
    """
    inverse = ff_inverse(f.left)
    unit_of = f.left_foot.unit
    return _ana_cell(
        f, f, strict_pullback(f.left, f.left),
        lambda y1, y2: (f.right.arr_map[inverse[(y1, y2, unit_of[f.left.obj_map[y1]])]],),
        "identity_two_cell",
    )


def as_diagram(cell: AnaTwoCell) -> TwoCellDiagram:
    """Render a normal-form 2-cell as a mediating diagram with a trivial left cell."""
    pb = cell.pullback
    return TwoCellDiagram(
        top=cell.top,
        bottom=cell.bottom,
        to_top=pb.pr1,
        to_bottom=pb.pr2,
        left_cell=identity_transformation(compose_functors(cell.top.left, pb.pr1)),
        right_cell=cell.transformation,
    )


def validate_two_cell(d: TwoCellDiagram) -> ValidationReport:
    """Check every obligation of a mediating diagram, naming each failure."""
    violations = []
    if d.top.left_foot != d.bottom.left_foot or d.top.right_foot != d.bottom.right_foot:
        violations.append(Violation("parallel-feet", ()))
        return ValidationReport.collect(violations)
    if d.to_top.dom != d.to_bottom.dom:
        violations.append(Violation("shared-mediator", ()))
        return ValidationReport.collect(violations)
    if d.to_top.cod != d.top.middle:
        violations.append(Violation("to-top-interface", ()))
    if d.to_bottom.cod != d.bottom.middle:
        violations.append(Violation("to-bottom-interface", ()))
    if violations:
        return ValidationReport.collect(violations)
    rep = weak_equivalence_report(d.to_top)
    if not rep.is_weak_equivalence:
        violations.append(Violation("to-top-weak-equivalence", (rep.es_witness, rep.ff_witness)))
    rep = weak_equivalence_report(d.to_bottom)
    if not rep.is_weak_equivalence:
        violations.append(Violation("to-bottom-weak-equivalence", (rep.es_witness, rep.ff_witness)))
    for name, cell, lega, legb in (
        ("left-cell", d.left_cell, d.top.left, d.bottom.left),
        ("right-cell", d.right_cell, d.top.right, d.bottom.right),
    ):
        if cell.source != compose_functors(lega, d.to_top):
            violations.append(Violation(f"{name}-source", ()))
            continue
        if cell.target != compose_functors(legb, d.to_bottom):
            violations.append(Violation(f"{name}-target", ()))
            continue
        rep = validate_nat_trans(cell)
        if not rep.ok:
            violations.append(Violation(f"{name}-naturality", rep.violations[0].witness))
    return ValidationReport.collect(violations)


def normalize_two_cell(d: TwoCellDiagram) -> AnaTwoCell:
    """Canonical representative of a diagram between anafunctors.

    Over the strict pullback of the left legs L1, L2, the component at
    (y1, y2) is read off any mediator object w with an arrow k: α(w) -> y1
    (one exists because α is essentially surjective).  With m: α'(w) -> y2
    the unique arrow for which L2(m) = L1(k) ∘ ε_w⁻¹, it is
    R2(m) ∘ δ_w ∘ R1(k)⁻¹.  Every choice of (w, k) is computed and must give
    the same value.
    """
    return _normalize(d)


def _normalize(d: TwoCellDiagram, pb: StrictPullback | None = None) -> AnaTwoCell:
    """:func:`normalize_two_cell` over ``pb``, the left legs' strict pullback, built when not given."""
    validate_two_cell(d).require(PreconditionError, "normalize_two_cell: diagram does not validate")
    top, bottom = as_anafunctor(d.top), as_anafunctor(d.bottom)
    if pb is None:
        pb = strict_pullback(top.left, bottom.left)
    upper = top.middle
    left_foot, right_foot = top.left_foot, top.right_foot
    # y1 -> every (w, k) with k: α(w) -> y1, mediator objects in order
    anchors: dict[str, list[tuple[str, str]]] = {y: [] for y in upper.objects}
    out_of = upper.arrows_from()
    for w in d.mediator.objects:
        for k in out_of[d.to_top.obj_map[w]]:
            anchors[upper.tgt[k]].append((w, k))
    lift = ff_inverse(bottom.left)

    def candidates(y1, y2):
        for w, k in anchors[y1]:
            eps_inv = left_foot.inv[d.left_cell.component[w]]
            m = lift[(d.to_bottom.obj_map[w], y2, left_foot.compose[(top.left.arr_map[k], eps_inv)])]
            back = right_foot.compose[(d.right_cell.component[w], right_foot.inv[top.right.arr_map[k]])]
            yield right_foot.compose[(bottom.right.arr_map[m], back)]

    return _ana_cell(top, bottom, pb, candidates, "normalize_two_cell")


def two_cell_difference(d1: TwoCellDiagram, d2: TwoCellDiagram) -> tuple[str, str, str] | None:
    """First pullback object where the normal forms differ, with both components.

    Both diagrams must connect the same pair of anafunctors (as tables);
    ``None`` means they present the same 2-cell, which is sound and complete
    because the normal form is unique.  Both are normalized over one pullback.
    """
    same_pair = (
        as_anafunctor(d1.top) == as_anafunctor(d2.top)
        and as_anafunctor(d1.bottom) == as_anafunctor(d2.bottom)
    )
    if not same_pair:
        raise MismatchError("two_cells_equal: diagrams do not connect the same pair of spans")
    n1 = _normalize(d1)
    c1 = n1.transformation.component
    c2 = _normalize(d2, n1.pullback).transformation.component
    return next(((o, c1[o], c2[o]) for o in c1 if c1[o] != c2[o]), None)


def two_cells_equal(d1: TwoCellDiagram, d2: TwoCellDiagram) -> bool:
    """Decide 2-cell equality by comparing normal forms pointwise."""
    return two_cell_difference(d1, d2) is None


def vertical_compose_ana(c1: AnaTwoCell, c2: AnaTwoCell) -> AnaTwoCell:
    """Stack two normal-form 2-cells.

    The composite component at (y, y'') is c2 at (y', y'') after c1 at
    (y, y'), for any middle object y' over the same left-foot object (one
    exists because the middle left leg is surjective on objects); every
    choice of y' is computed and must give the same value.
    """
    if c1.bottom != c2.top:
        raise MismatchError("vertical_compose_ana: cells do not share a middle span")
    f, g, h = c1.top, c1.bottom, c2.bottom
    over = fibers(g.middle.objects, g.left.obj_map.__getitem__)
    first, second = c1.transformation.component, c2.transformation.component
    first_id, second_id = c1.pullback.object_ids, c2.pullback.object_ids
    cod = f.right_foot
    return _ana_cell(
        f, h, strict_pullback(f.left, h.left),
        lambda y, y2: (
            cod.compose[(second[second_id[(mid, y2)]], first[first_id[(y, mid)]])]
            for mid in over.get(f.left.obj_map[y], ())
        ),
        "vertical_compose_ana",
    )


def inverse_two_cell(cell: AnaTwoCell) -> AnaTwoCell:
    """Pointwise inverse, living over the swapped pullback."""
    cod = cell.top.right_foot
    component, ids = cell.transformation.component, cell.pullback.object_ids
    return _ana_cell(
        cell.bottom, cell.top, strict_pullback(cell.bottom.left, cell.top.left),
        lambda y2, y1: (cod.inv[component[ids[(y1, y2)]]],),
        "inverse_two_cell",
    )


def identity_filled_diagram(
    top: GeneralizedMorphism,
    bottom: GeneralizedMorphism,
    to_top: GroupoidFunctor,
    to_bottom: GroupoidFunctor,
    what: str,
) -> TwoCellDiagram:
    """The diagram whose filling cells are identities; raises :class:`InternalCheckError` naming ``what``
    unless it validates."""
    left_cell = identity_transformation(compose_functors(top.left, to_top))
    right_cell = identity_transformation(compose_functors(top.right, to_top))
    diagram = TwoCellDiagram(top, bottom, to_top, to_bottom, left_cell, right_cell)
    validate_two_cell(diagram).require(InternalCheckError, f"{what} does not validate")
    return diagram


def strictify_composition(f: GeneralizedMorphism, g: GeneralizedMorphism) -> TwoCellDiagram:
    """The canonical diagram from the weak-pullback composite to the strict one.

    The mediator is the strict composite middle, included into the weak one by
    anchoring each pair at the unit arrow; both filling cells are identities.
    """
    if f.right_foot != g.left_foot:
        raise MismatchError("strictify_composition: spans do not meet over a common groupoid")
    g_ana = as_anafunctor(g)
    wp = weak_pullback(f.right, g_ana.left)
    sp = strict_pullback(f.right, g_ana.left)
    weak_comp = GeneralizedMorphism(compose_functors(f.left, wp.pr1), compose_functors(g_ana.right, wp.pr3))
    strict_comp = GeneralizedMorphism(compose_functors(f.left, sp.pr1), compose_functors(g_ana.right, sp.pr2))

    mid_of = f.right_foot
    obj_map, arr_map = {}, {}
    for (x, y), oid in sp.object_ids.items():
        obj_map[oid] = wp.object_ids[(x, mid_of.unit[f.right.obj_map[x]], y)]
    for (k, l), aid in sp.arrow_ids.items():
        arr_map[aid] = wp.arrow_ids[(k, mid_of.unit[f.right.obj_map[f.right.dom.src[k]]], l)]
    inclusion = GroupoidFunctor(sp.apex, wp.apex, obj_map, arr_map)
    rep = weak_equivalence_report(inclusion)
    if not rep.is_weak_equivalence:
        raise InternalCheckError("strictify_composition: unit-anchored inclusion is not a weak equivalence")

    return identity_filled_diagram(
        weak_comp, strict_comp, inclusion, identity_functor(sp.apex), "strictify_composition: diagram"
    )


@dataclass(frozen=True)
class Anafunctorification:
    anafunctor: Anafunctor
    witness: TwoCellDiagram


def anafunctorify(f: GeneralizedMorphism) -> Anafunctorification:
    """Replace a span by an anafunctor, with a validating diagram between them.

    The new middle is the arrow-anchored pullback of the identity of the left
    foot with the old left leg; its first projection is always surjective.
    """
    wp = weak_pullback(identity_functor(f.left_foot), f.left)
    ana = Anafunctor(wp.pr1, compose_functors(f.right, wp.pr3))

    k = f.middle
    foot = f.left_foot
    obj_map, arr_map = {}, {}
    for z in k.objects:
        x = f.left.obj_map[z]
        obj_map[z] = wp.object_ids[(x, foot.unit[x], z)]
    for a in k.arrows:
        x = f.left.obj_map[k.src[a]]
        arr_map[a] = wp.arrow_ids[(f.left.arr_map[a], foot.unit[x], a)]
    section = GroupoidFunctor(k, wp.apex, obj_map, arr_map)

    witness = identity_filled_diagram(f, ana, identity_functor(k), section, "anafunctorify: witness diagram")
    return Anafunctorification(ana, witness)
