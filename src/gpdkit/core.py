"""Finite groupoids, functors, natural transformations, groups, and group actions.

Everything is a plain table over opaque string ids.  Constructed objects use
deterministic structured ids (tuples rendered as ``(a,b,c)``) so re-running a
construction yields bit-identical tables.  Product-shaped tables (action
groupoids and the strict and weak pullbacks) are all made by
:func:`tuple_groupoid`, which renders each of their arrow ids once.  Values
are frozen after construction and every operation is a pure function.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field


def render_id(parts) -> str:
    """Deterministic id for a constructed tuple, e.g. ("g", "x") -> "(g,x)"."""
    return "(" + ",".join(parts) + ")"


class DanglingIdError(ValueError):
    """A table references an object/arrow id that was never declared."""


class MismatchError(ValueError):
    """Operands do not share the required interface (domain, codomain, ...)."""


class PreconditionError(ValueError):
    """An operation was called on input failing its stated precondition."""


class ActionAxiomError(PreconditionError):
    """A group action table violates the action axioms."""


class InternalCheckError(AssertionError):
    """A construction failed one of its own re-verified postconditions."""


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]

    @staticmethod
    def collect(violations) -> "ValidationReport":
        vs = tuple(violations)
        return ValidationReport(not vs, vs)


def _check_unique(ids, what: str):
    seen = set()
    for i in ids:
        if i in seen:
            raise DanglingIdError(f"duplicate {what} id {i!r}")
        seen.add(i)
    return seen


@dataclass(frozen=True)
class FiniteGroupoid:
    """A finite groupoid as explicit source/target/compose/unit/inverse tables.

    ``compose[(after, first)]`` is the composite ``after ∘ first`` and is
    defined exactly when ``src[after] == tgt[first]``; the partial table is
    stored explicitly and cross-checked by :func:`validate_groupoid`.
    """

    objects: tuple[str, ...]
    arrows: tuple[str, ...]
    src: dict[str, str] = field(repr=False)
    tgt: dict[str, str] = field(repr=False)
    compose: dict[tuple[str, str], str] = field(repr=False)
    unit: dict[str, str] = field(repr=False)
    inv: dict[str, str] = field(repr=False)

    def hom_index(self) -> dict[tuple[str, str], list[str]]:
        """(src, tgt) -> arrows, for enumeration-heavy callers."""
        idx: dict[tuple[str, str], list[str]] = {}
        for a in self.arrows:
            idx.setdefault((self.src[a], self.tgt[a]), []).append(a)
        return idx

    def arrows_from(self) -> dict[str, list[str]]:
        """src object -> arrows, in declaration order."""
        idx: dict[str, list[str]] = {x: [] for x in self.objects}
        for a in self.arrows:
            idx[self.src[a]].append(a)
        return idx


def _check_groupoid_declarations(g: FiniteGroupoid):
    objects = _check_unique(g.objects, "object")
    arrows = _check_unique(g.arrows, "arrow")
    for table, what in ((g.src, "src"), (g.tgt, "tgt")):
        if set(table) != arrows:
            raise DanglingIdError(f"{what} table keys do not match declared arrows")
        for a, x in table.items():
            if x not in objects:
                raise DanglingIdError(f"{what}[{a!r}] = {x!r} is not a declared object")
    if set(g.unit) != objects:
        raise DanglingIdError("unit table keys do not match declared objects")
    for x, a in g.unit.items():
        if a not in arrows:
            raise DanglingIdError(f"unit[{x!r}] = {a!r} is not a declared arrow")
    if set(g.inv) != arrows:
        raise DanglingIdError("inverse table keys do not match declared arrows")
    for a, b in g.inv.items():
        if b not in arrows:
            raise DanglingIdError(f"inverse[{a!r}] = {b!r} is not a declared arrow")
    for (a2, a1), a3 in g.compose.items():
        if a2 not in arrows or a1 not in arrows or a3 not in arrows:
            raise DanglingIdError(f"compose entry ({a2!r}, {a1!r}) -> {a3!r} references undeclared arrows")


def validate_groupoid(candidate: FiniteGroupoid) -> ValidationReport:
    """Check every groupoid axiom, naming each failure with a witness tuple.

    Raises :class:`DanglingIdError` for malformed tables (undeclared ids,
    duplicate declarations); axiom failures are reported, not raised.
    """
    _check_groupoid_declarations(candidate)
    g = candidate
    violations = []
    for x in g.objects:
        u = g.unit[x]
        if g.src[u] != x or g.tgt[u] != x:
            violations.append(Violation("unit-endpoints", (x, u)))
    for (a2, a1) in g.compose:
        if g.src[a2] != g.tgt[a1]:
            violations.append(Violation("composability", (a2, a1)))
    by_src = g.arrows_from()
    for a1 in g.arrows:
        for a2 in by_src[g.tgt[a1]]:
            if (a2, a1) not in g.compose:
                violations.append(Violation("totality", (a2, a1)))
    for (a2, a1), a3 in g.compose.items():
        if g.src[a3] != g.src[a1] or g.tgt[a3] != g.tgt[a2]:
            violations.append(Violation("composite-endpoints", (a2, a1, a3)))
    for a1 in g.arrows:
        for a2 in by_src.get(g.tgt[a1], ()):
            b = g.compose.get((a2, a1))
            if b is None:
                continue
            for a3 in by_src.get(g.tgt[a2], ()):
                left = g.compose.get((a3, b))
                c = g.compose.get((a3, a2))
                right = g.compose.get((c, a1)) if c is not None else None
                if left != right or left is None:
                    violations.append(Violation("associativity", (a3, a2, a1)))
    for a in g.arrows:
        if g.compose.get((a, g.unit[g.src[a]])) != a:
            violations.append(Violation("right-unit", (a,)))
        if g.compose.get((g.unit[g.tgt[a]], a)) != a:
            violations.append(Violation("left-unit", (a,)))
        if g.compose.get((g.inv[a], a)) != g.unit[g.src[a]]:
            violations.append(Violation("left-inverse", (a,)))
        if g.compose.get((a, g.inv[a])) != g.unit[g.tgt[a]]:
            violations.append(Violation("right-inverse", (a,)))
    return ValidationReport.collect(violations)


def empty_groupoid() -> FiniteGroupoid:
    return FiniteGroupoid((), (), {}, {}, {}, {}, {})


def tuple_groupoid(objects: dict, arrows, src, tgt, unit, inv, compose) -> tuple[FiniteGroupoid, dict]:
    """The groupoid on keyed objects and tuple-keyed arrows, each arrow id rendered once.

    ``objects`` maps object keys to ids in declaration order; ``arrows`` lists
    arrow keys (tuples, rendered with :func:`render_id`) in declaration order.
    ``src``, ``tgt``, ``unit``, ``inv`` and ``compose(after, first)`` are
    functions on keys.  ``compose`` is filled for each first arrow in order,
    then each composable after arrow in order.  Returns the groupoid and the
    table arrow key -> id.  Raises :class:`PreconditionError` when two
    distinct object keys, or two distinct arrow keys, have the same id.
    """
    ids = {a: render_id(a) for a in arrows}
    for table, what in ((objects, "object"), (ids, "arrow")):
        if len(set(table.values())) != len(table):
            clash = next(i for i, n in Counter(table.values()).items() if n > 1)
            raise PreconditionError(f"tuple_groupoid: two distinct {what} keys have the id {clash!r}")
    try:
        ends = {a: (src(a), tgt(a)) for a in arrows}
        by_src: dict = {}
        for a, (x, _) in ends.items():
            by_src.setdefault(x, []).append(a)
        table = {}
        for a1, (_, y) in ends.items():
            for a2 in by_src.get(y, ()):
                table[(ids[a2], ids[a1])] = ids[compose(a2, a1)]
        g = FiniteGroupoid(
            objects=tuple(objects.values()),
            arrows=tuple(ids.values()),
            src={ids[a]: objects[x] for a, (x, _) in ends.items()},
            tgt={ids[a]: objects[y] for a, (_, y) in ends.items()},
            compose=table,
            unit={x: ids[unit(k)] for k, x in objects.items()},
            inv={ids[a]: ids[inv(a)] for a in arrows},
        )
    except KeyError as exc:
        raise PreconditionError(
            f"tuple_groupoid: no entry for {exc.args[0]!r}; endpoints, units, inverses and composites must be declared"
        ) from None
    return g, ids


def terminal_groupoid() -> FiniteGroupoid:
    """One object, one (unit) arrow."""
    return FiniteGroupoid(
        objects=("*",),
        arrows=("u",),
        src={"u": "*"},
        tgt={"u": "*"},
        compose={("u", "u"): "u"},
        unit={"*": "u"},
        inv={"u": "u"},
    )


@dataclass(frozen=True)
class GroupoidFunctor:
    dom: FiniteGroupoid
    cod: FiniteGroupoid
    obj_map: dict[str, str] = field(repr=False)
    arr_map: dict[str, str] = field(repr=False)

    def obj(self, x: str) -> str:
        return self.obj_map[x]

    def arr(self, a: str) -> str:
        return self.arr_map[a]


def check_functor_declarations(f: GroupoidFunctor) -> None:
    """Raise :class:`DanglingIdError` unless both maps are total with declared values."""
    dom, cod = f.dom, f.cod
    if set(f.obj_map) != set(dom.objects):
        raise DanglingIdError("obj_map keys do not match domain objects")
    if set(f.arr_map) != set(dom.arrows):
        raise DanglingIdError("arr_map keys do not match domain arrows")
    cod_objects, cod_arrows = set(cod.objects), set(cod.arrows)
    for x, y in f.obj_map.items():
        if y not in cod_objects:
            raise DanglingIdError(f"obj_map[{x!r}] = {y!r} is not a codomain object")
    for a, b in f.arr_map.items():
        if b not in cod_arrows:
            raise DanglingIdError(f"arr_map[{a!r}] = {b!r} is not a codomain arrow")


def validate_functor(f: GroupoidFunctor) -> ValidationReport:
    """Check that the maps commute with src, tgt, unit, inv, and compose."""
    check_functor_declarations(f)
    dom, cod = f.dom, f.cod
    violations = []
    for a in dom.arrows:
        b = f.arr_map[a]
        if cod.src[b] != f.obj_map[dom.src[a]] or cod.tgt[b] != f.obj_map[dom.tgt[a]]:
            violations.append(Violation("endpoint preservation", (a, b)))
    for x in dom.objects:
        if f.arr_map[dom.unit[x]] != cod.unit[f.obj_map[x]]:
            violations.append(Violation("unit preservation", (x,)))
    for a in dom.arrows:
        if f.arr_map[dom.inv[a]] != cod.inv[f.arr_map[a]]:
            violations.append(Violation("inverse preservation", (a,)))
    for (a2, a1), a3 in dom.compose.items():
        if cod.compose.get((f.arr_map[a2], f.arr_map[a1])) != f.arr_map[a3]:
            violations.append(Violation("composition preservation", (a2, a1)))
    return ValidationReport.collect(violations)


def identity_functor(g: FiniteGroupoid) -> GroupoidFunctor:
    return GroupoidFunctor(g, g, {x: x for x in g.objects}, {a: a for a in g.arrows})


def compose_functors(f2: GroupoidFunctor, f1: GroupoidFunctor) -> GroupoidFunctor:
    """Pointwise composite f2 ∘ f1 (f1 applied first)."""
    if f1.cod != f2.dom:
        raise MismatchError("compose_functors: codomain of first functor differs from domain of second")
    return GroupoidFunctor(
        dom=f1.dom,
        cod=f2.cod,
        obj_map={x: f2.obj_map[y] for x, y in f1.obj_map.items()},
        arr_map={a: f2.arr_map[b] for a, b in f1.arr_map.items()},
    )


@dataclass(frozen=True)
class NaturalTransformation:
    """Per-object arrow assignment between parallel functors."""

    source: GroupoidFunctor
    target: GroupoidFunctor
    component: dict[str, str] = field(repr=False)


def validate_nat_trans(eta: NaturalTransformation) -> ValidationReport:
    """Check parallelism, component endpoints, and every naturality square."""
    violations = []
    if eta.source.dom != eta.target.dom or eta.source.cod != eta.target.cod:
        violations.append(Violation("parallelism", ()))
        return ValidationReport.collect(violations)
    dom, cod = eta.source.dom, eta.source.cod
    if set(eta.component) != set(dom.objects):
        raise DanglingIdError("component keys do not match domain objects")
    cod_arrows = set(cod.arrows)
    for z, c in eta.component.items():
        if c not in cod_arrows:
            raise DanglingIdError(f"component[{z!r}] = {c!r} is not a codomain arrow")
    for z in dom.objects:
        c = eta.component[z]
        if cod.src[c] != eta.source.obj_map[z] or cod.tgt[c] != eta.target.obj_map[z]:
            violations.append(Violation("endpoints", (z, c)))
    for a in dom.arrows:
        z, z2 = dom.src[a], dom.tgt[a]
        left = cod.compose.get((eta.component[z2], eta.source.arr_map[a]))
        right = cod.compose.get((eta.target.arr_map[a], eta.component[z]))
        if left is None or left != right:
            violations.append(Violation("naturality", (a,)))
    return ValidationReport.collect(violations)


def identity_transformation(f: GroupoidFunctor) -> NaturalTransformation:
    return NaturalTransformation(f, f, {x: f.cod.unit[f.obj_map[x]] for x in f.dom.objects})


def inverse_transformation(eta: NaturalTransformation) -> NaturalTransformation:
    cod = eta.source.cod
    return NaturalTransformation(eta.target, eta.source, {z: cod.inv[c] for z, c in eta.component.items()})


def whisker(eta: NaturalTransformation, f: GroupoidFunctor, side: str) -> NaturalTransformation:
    """Whisker a transformation with a functor.

    ``side="left"`` post-composes: components become f(eta(z)), giving
    f∘source ⇒ f∘target.  ``side="right"`` pre-composes: components become
    eta(f(z)), giving source∘f ⇒ target∘f.
    """
    if side == "left":
        if eta.source.cod != f.dom:
            raise MismatchError("left whisker: functor domain differs from transformation codomain")
        return NaturalTransformation(
            compose_functors(f, eta.source),
            compose_functors(f, eta.target),
            {z: f.arr_map[c] for z, c in eta.component.items()},
        )
    if side == "right":
        if f.cod != eta.source.dom:
            raise MismatchError("right whisker: functor codomain differs from transformation domain")
        return NaturalTransformation(
            compose_functors(eta.source, f),
            compose_functors(eta.target, f),
            {z: eta.component[f.obj_map[z]] for z in f.dom.objects},
        )
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def vertical_compose_nat(eta2: NaturalTransformation, eta1: NaturalTransformation) -> NaturalTransformation:
    """Componentwise composite eta2 ∘ eta1 (eta1 applied first)."""
    if eta1.target != eta2.source:
        raise MismatchError("vertical_compose_nat: target functor of first differs from source of second")
    cod = eta1.source.cod
    component = {}
    for z in eta1.source.dom.objects:
        component[z] = cod.compose[(eta2.component[z], eta1.component[z])]
    return NaturalTransformation(eta1.source, eta2.target, component)


@dataclass(frozen=True)
class FiniteGroup:
    elements: tuple[str, ...]
    mul: dict[tuple[str, str], str] = field(repr=False)
    unit: str
    inv: dict[str, str] = field(repr=False)

    @property
    def order(self) -> int:
        return len(self.elements)


def validate_group(g: FiniteGroup) -> ValidationReport:
    elements = _check_unique(g.elements, "element")
    if g.unit not in elements:
        raise DanglingIdError(f"unit {g.unit!r} is not a declared element")
    if set(g.inv) != elements:
        raise DanglingIdError("inverse table keys do not match declared elements")
    for a, b in itertools.product(g.elements, repeat=2):
        if (a, b) not in g.mul:
            raise DanglingIdError(f"mul table is missing ({a!r}, {b!r})")
        if g.mul[(a, b)] not in elements:
            raise DanglingIdError(f"mul[({a!r}, {b!r})] is undeclared")
    violations = []
    for a, b, c in itertools.product(g.elements, repeat=3):
        if g.mul[(g.mul[(a, b)], c)] != g.mul[(a, g.mul[(b, c)])]:
            violations.append(Violation("associativity", (a, b, c)))
    for a in g.elements:
        if g.mul[(g.unit, a)] != a or g.mul[(a, g.unit)] != a:
            violations.append(Violation("unit", (a,)))
        if g.inv[a] not in elements or g.mul[(g.inv[a], a)] != g.unit or g.mul[(a, g.inv[a])] != g.unit:
            violations.append(Violation("inverse", (a,)))
    return ValidationReport.collect(violations)


def trivial_group() -> FiniteGroup:
    return FiniteGroup(("e",), {("e", "e"): "e"}, "e", {"e": "e"})


def element_order(g: FiniteGroup, a: str) -> int:
    n, b = 1, a
    while b != g.unit:
        b = g.mul[(b, a)]
        n += 1
    return n


def closure(g: FiniteGroup, seed) -> tuple[str, ...]:
    """Subgroup generated by ``seed``, as elements in declaration order."""
    members = {g.unit}
    frontier = [g.unit] + [a for a in seed if a not in members]
    members.update(frontier)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(members):
                for c in (g.mul[(a, b)], g.mul[(b, a)]):
                    if c not in members:
                        members.add(c)
                        nxt.append(c)
        frontier = nxt
    return tuple(a for a in g.elements if a in members)


def subgroup(g: FiniteGroup, elements) -> FiniteGroup:
    """The subgroup on ``elements``, which must be closed and contain the unit."""
    members = set(elements)
    if g.unit not in members:
        raise PreconditionError("subgroup: unit element missing")
    ambient = set(g.elements)
    for a in members:
        if a not in ambient:
            raise PreconditionError(f"subgroup: {a!r} is not an element of the ambient group")
        if g.inv[a] not in members:
            raise PreconditionError(f"subgroup: not closed under inverse at {a!r}")
        for b in members:
            if g.mul[(a, b)] not in members:
                raise PreconditionError(f"subgroup: not closed under product at ({a!r}, {b!r})")
    order = tuple(a for a in g.elements if a in members)
    return FiniteGroup(
        elements=order,
        mul={(a, b): g.mul[(a, b)] for a in order for b in order},
        unit=g.unit,
        inv={a: g.inv[a] for a in order},
    )


def is_subgroup_of(sub: FiniteGroup, big: FiniteGroup) -> bool:
    """True when ``sub`` is literally a subgroup of ``big`` (same element ids)."""
    members = set(sub.elements)
    if not members <= set(big.elements) or sub.unit != big.unit:
        return False
    return all(sub.mul[(a, b)] == big.mul[(a, b)] for a in sub.elements for b in sub.elements)


def is_normal(g: FiniteGroup, elements) -> bool:
    members = set(elements)
    return all(
        g.mul[(g.mul[(a, k)], g.inv[a])] in members
        for a in g.elements
        for k in members
    )


def all_subgroups(g: FiniteGroup) -> list[tuple[str, ...]]:
    """Every subgroup, as element tuples in declaration order.

    Exhaustive for groups of order <= 8 (closures of all <= 3-element seeds).
    """
    found = {closure(g, ())}
    for size in (1, 2, 3):
        for seed in itertools.combinations(g.elements, size):
            found.add(closure(g, seed))
    return sorted(found, key=lambda s: (len(s), tuple(g.elements.index(a) for a in s)))


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    eid = {(a, b): render_id((a, b)) for a in g.elements for b in h.elements}
    return FiniteGroup(
        elements=tuple(eid.values()),
        mul={
            (eid[p], eid[q]): eid[(g.mul[(p[0], q[0])], h.mul[(p[1], q[1])])]
            for p in eid
            for q in eid
        },
        unit=eid[(g.unit, h.unit)],
        inv={e: eid[(g.inv[a], h.inv[b])] for (a, b), e in eid.items()},
    )


def is_group_hom(dom: FiniteGroup, cod: FiniteGroup, mapping: dict[str, str]):
    """Return None if ``mapping`` is a homomorphism, else a witness pair."""
    if set(mapping) != set(dom.elements):
        raise DanglingIdError("group hom keys do not match domain elements")
    cod_elements = set(cod.elements)
    for a, b in mapping.items():
        if b not in cod_elements:
            raise DanglingIdError(f"group hom value {b!r} is undeclared")
    for a, b in itertools.product(dom.elements, repeat=2):
        if mapping[dom.mul[(a, b)]] != cod.mul[(mapping[a], mapping[b])]:
            return (a, b)
    return None


def hom_kernel(dom: FiniteGroup, cod: FiniteGroup, mapping: dict[str, str]) -> tuple[str, ...]:
    return tuple(a for a in dom.elements if mapping[a] == cod.unit)


def _generating_sequence(g: FiniteGroup) -> list[str]:
    gens: list[str] = []
    have = {g.unit}
    for a in g.elements:
        if a not in have:
            gens.append(a)
            have = set(closure(g, gens))
    return gens


def group_isomorphic(g: FiniteGroup, h: FiniteGroup) -> bool:
    """Exhaustive isomorphism test, pruned by element-order profiles."""
    if g.order != h.order:
        return False
    g_profile = sorted(element_order(g, a) for a in g.elements)
    h_profile = sorted(element_order(h, a) for a in h.elements)
    if g_profile != h_profile:
        return False
    gens = _generating_sequence(g)
    by_order: dict[int, list[str]] = {}
    for b in h.elements:
        by_order.setdefault(element_order(h, b), []).append(b)

    def extend(images: list[str]) -> bool:
        mapping = {g.unit: h.unit}
        frontier = [g.unit]
        gen_map = dict(zip(gens, images))
        # grow the hom by left-multiplying known elements by generators
        while frontier:
            nxt = []
            for a in frontier:
                for x, y in gen_map.items():
                    c = g.mul[(x, a)]
                    img = h.mul[(y, mapping[a])]
                    if c in mapping:
                        if mapping[c] != img:
                            return False
                    else:
                        mapping[c] = img
                        nxt.append(c)
            frontier = nxt
        if len(set(mapping.values())) != h.order:
            return False
        return all(
            mapping[g.mul[(a, b)]] == h.mul[(mapping[a], mapping[b])]
            for a in g.elements
            for b in g.elements
        )

    candidate_lists = [by_order.get(element_order(g, x), []) for x in gens]
    for images in itertools.product(*candidate_lists):
        if len(set(images)) == len(images) and extend(list(images)):
            return True
    return False


@dataclass(frozen=True)
class ActionGroupoid:
    """A finite group action together with its induced groupoid.

    The induced groupoid has the carrier as objects and one arrow ``(g, x)``
    per group element and point, with source x and target g·x.
    """

    group: FiniteGroup
    carrier: tuple[str, ...]
    act: dict[tuple[str, str], str] = field(repr=False)
    induced: FiniteGroupoid = field(repr=False)
    arrow_pairs: dict[str, tuple[str, str]] = field(repr=False)
    arrow_ids: dict[tuple[str, str], str] = field(repr=False, compare=False)

    def arrow_id(self, g: str, x: str) -> str:
        return self.arrow_ids[(g, x)]


def action_groupoid(group: FiniteGroup, carrier, act: dict[tuple[str, str], str]) -> ActionGroupoid:
    """Build the action groupoid, verifying the action axioms first."""
    carrier = tuple(carrier)
    _check_unique(carrier, "carrier point")
    points = set(carrier)
    for g in group.elements:
        for x in carrier:
            if (g, x) not in act:
                raise DanglingIdError(f"action table is missing ({g!r}, {x!r})")
            if act[(g, x)] not in points:
                raise DanglingIdError(f"action value act[({g!r}, {x!r})] is undeclared")
    for x in carrier:
        if act[(group.unit, x)] != x:
            raise ActionAxiomError(f"unit must act trivially, moves {x!r}")
    for g1, g2, x in itertools.product(group.elements, group.elements, carrier):
        if act[(g1, act[(g2, x)])] != act[(group.mul[(g1, g2)], x)]:
            raise ActionAxiomError(f"action not compatible with multiplication at ({g1!r}, {g2!r}, {x!r})")

    induced, ids = tuple_groupoid(
        {x: x for x in carrier},
        [(g, x) for g in group.elements for x in carrier],
        src=lambda a: a[1],
        tgt=lambda a: act[a],
        unit=lambda x: (group.unit, x),
        inv=lambda a: (group.inv[a[0]], act[a]),
        compose=lambda a2, a1: (group.mul[(a2[0], a1[0])], a1[1]),
    )
    arrow_pairs = {i: a for a, i in ids.items()}
    return ActionGroupoid(group, carrier, act, induced, arrow_pairs, ids)


def orbit(a: ActionGroupoid, x: str) -> tuple[str, ...]:
    hit = {a.act[(g, x)] for g in a.group.elements}
    return tuple(y for y in a.carrier if y in hit)


def orbits(a: ActionGroupoid) -> list[tuple[str, ...]]:
    """Orbit partition; each orbit listed once, keyed by its least-index point."""
    seen: set[str] = set()
    out = []
    for x in a.carrier:
        if x not in seen:
            o = orbit(a, x)
            seen.update(o)
            out.append(o)
    return out


def stabilizer(a: ActionGroupoid, x: str) -> tuple[str, ...]:
    return tuple(g for g in a.group.elements if a.act[(g, x)] == x)


@dataclass(frozen=True)
class IsoSearchResult:
    status: str  # "found" | "none" | "budget-exceeded"
    functor: GroupoidFunctor | None

    @property
    def found(self) -> bool:
        return self.status == "found"


def _object_fingerprint(g: FiniteGroupoid, x: str, hom_counts) -> tuple:
    loops = hom_counts.get((x, x), 0)
    outs = sorted(hom_counts.get((x, y), 0) for y in g.objects if y != x)
    ins = sorted(hom_counts.get((y, x), 0) for y in g.objects if y != x)
    return (loops, tuple(outs), tuple(ins))


def groupoid_iso_search(g: FiniteGroupoid, h: FiniteGroupoid, budget: int = 200_000) -> IsoSearchResult:
    """Exhaustive search for an isomorphism g -> h, pruned by object fingerprints.

    "budget-exceeded" is a distinct non-answer: the search space was not
    exhausted, so absence of an isomorphism was not established.
    """
    if len(g.objects) != len(h.objects) or len(g.arrows) != len(h.arrows):
        return IsoSearchResult("none", None)
    g_hom = {k: len(v) for k, v in g.hom_index().items()}
    h_hom = {k: len(v) for k, v in h.hom_index().items()}
    g_fp = {x: _object_fingerprint(g, x, g_hom) for x in g.objects}
    h_fp = {y: _object_fingerprint(h, y, h_hom) for y in h.objects}
    if sorted(g_fp.values()) != sorted(h_fp.values()):
        return IsoSearchResult("none", None)

    h_hom_arrows = h.hom_index()
    nodes = 0
    exceeded = False

    # order objects so the most constrained are assigned first
    g_order = sorted(g.objects, key=lambda x: (sum(1 for y in h.objects if h_fp[y] == g_fp[x]), g.objects.index(x)))

    def assign_arrows(omap: dict[str, str]):
        nonlocal nodes, exceeded
        amap: dict[str, str] = {}
        used: set[str] = set()
        for x in g.objects:
            amap[g.unit[x]] = h.unit[omap[x]]
            used.add(h.unit[omap[x]])
        if len(used) != len(g.objects):
            return None
        todo = [a for a in g.arrows if a not in amap]

        def consistent(a: str, b: str) -> bool:
            # inverse and all already-decided compositions must commute
            ia = g.inv[a]
            if ia == a:
                if h.inv[b] != b:
                    return False
            elif ia in amap and amap[ia] != h.inv[b]:
                return False
            for a2, b2 in amap.items():
                c = g.compose.get((a2, a))
                if c is not None and c in amap and h.compose.get((b2, b)) != amap[c]:
                    return False
                c = g.compose.get((a, a2))
                if c is not None and c in amap and h.compose.get((b, b2)) != amap[c]:
                    return False
            return True

        def complete() -> bool:
            return all(
                h.compose.get((amap[a2], amap[a1])) == amap[a3]
                for (a2, a1), a3 in g.compose.items()
            )

        def rec(i: int):
            nonlocal nodes, exceeded
            if i == len(todo):
                return dict(amap) if complete() else None
            a = todo[i]
            if a in amap:
                return rec(i + 1)
            for b in h_hom_arrows.get((omap[g.src[a]], omap[g.tgt[a]]), ()):
                if b in used:
                    continue
                nodes += 1
                if nodes > budget:
                    exceeded = True
                    return None
                if not consistent(a, b):
                    continue
                amap[a] = b
                used.add(b)
                ia, ib = g.inv[a], h.inv[b]
                forced = ia not in amap and ia != a
                if forced:
                    if ib in used:
                        amap.pop(a); used.discard(b)
                        continue
                    amap[ia] = ib
                    used.add(ib)
                got = rec(i + 1)
                if got is not None or exceeded:
                    return got
                amap.pop(a)
                used.discard(b)
                if forced:
                    amap.pop(ia)
                    used.discard(ib)
            return None

        return rec(0)

    def assign_objects(i: int, omap: dict[str, str], used: set[str]):
        nonlocal nodes, exceeded
        if i == len(g_order):
            amap = assign_arrows(omap)
            if amap is not None:
                return GroupoidFunctor(g, h, dict(omap), amap)
            return None
        x = g_order[i]
        for y in h.objects:
            if y in used or h_fp[y] != g_fp[x]:
                continue
            nodes += 1
            if nodes > budget:
                exceeded = True
                return None
            omap[x] = y
            used.add(y)
            got = assign_objects(i + 1, omap, used)
            if got is not None or exceeded:
                return got
            omap.pop(x)
            used.discard(y)
        return None

    functor = assign_objects(0, {}, set())
    if functor is not None:
        rep = validate_functor(functor)
        if not rep.ok:
            raise InternalCheckError(f"iso search produced an invalid functor: {rep.violations[0]}")
        return IsoSearchResult("found", functor)
    if exceeded:
        return IsoSearchResult("budget-exceeded", None)
    return IsoSearchResult("none", None)
