"""Finite groupoids, functors, natural transformations, groups, and group actions.

Everything is a plain table over opaque string ids.  Constructed objects use
deterministic structured ids (tuples rendered as ``(a,b,c)``) so re-running a
construction yields bit-identical tables.  Product-shaped tables (action
groupoids and the strict and weak pullbacks) are all made by
:func:`tuple_groupoid`, which renders each of their arrow ids once and fills
the compose table a row at a time: for each first arrow, in declaration order,
the caller gives the composites with every arrow out of its target, in
declaration order, and a row of any other length raises.  Class
tables (orbits, components, cosets and the classes of the equivariant
constructions) are all made by :func:`class_reps`, which picks each class's
least-index member as its representative; :func:`classes` lists them, and
:func:`fibers` groups items by key in item order.  Values are frozen after
construction and every operation is a pure function.

A groupoid proven valid keeps a generating set of its arrows in
``FiniteGroupoid._kept_generators``: the induced groupoid of
:func:`action_groupoid`, whose action axioms were verified, and a groupoid
that passed :func:`validate_groupoid`.  :func:`validate_functor` then checks
composition on generators only, as :func:`validate_groupoid` and
:func:`validate_group` check associativity; each runs its full scan when a
fast check fails, so every report is the one the full scan gives.
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

    def require(self, error: type[Exception], what: str) -> None:
        """Raise ``error("<what>: <first violation>")`` unless the report is ok."""
        if not self.ok:
            raise error(f"{what}: {self.violations[0]}")


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
    # arrows generating the groupoid, kept once it is proven a groupoid: by
    # action_groupoid, whose action axioms were verified, and by a passing
    # validate_groupoid.  None otherwise, so pullback apexes, shrunk tables and
    # parsed documents not yet validated are checked in full.  A declared
    # field, set with object.__setattr__, keeps attribute access on the fast
    # path that an entry added to the instance __dict__ would leave.
    _kept_generators: tuple[str, ...] | None = field(default=None, init=False, repr=False, compare=False)

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

    def composites(self) -> dict[str, list[str | None]]:
        """arrow a -> ``c ∘ a`` for each ``c`` out of ``tgt a`` in declaration
        order, None where the table has no entry."""
        out = self.arrows_from()
        return {a: [self.compose.get((c, a)) for c in out[self.tgt[a]]] for a in self.arrows}


def check_groupoid_declarations(g: FiniteGroupoid) -> None:
    """Raise :class:`DanglingIdError` unless every id is declared once and every table is total."""
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


def _generators(g: FiniteGroupoid) -> list[str]:
    """Arrows of which every arrow of ``g`` is a composite ``s_k ∘ (… ∘ s_1)``.

    Greedy over the arrows, non-units first, each in declaration order: an
    arrow joins unless it is already a composite of those before it.  Read
    off ``g``'s own table, so the set generates ``g`` whatever the table is,
    provided every composable pair has an entry.
    """
    compose, src, tgt = g.compose, g.src, g.tgt
    units = set(g.unit.values())
    gens_from: dict[str, list[str]] = {x: [] for x in g.objects}
    reached_into: dict[str, list[str]] = {x: [] for x in g.objects}
    reached: set[str] = set()
    gens = []
    for s in [a for a in g.arrows if a not in units] + [a for a in g.arrows if a in units]:
        if s in reached:
            continue
        gens.append(s)
        gens_from[src[s]].append(s)
        frontier = [s] + [compose[(s, r)] for r in reached_into[src[s]]]
        while frontier:
            r = frontier.pop()
            if r not in reached:
                reached.add(r)
                reached_into[tgt[r]].append(r)
                frontier += [compose[(t, r)] for t in gens_from[tgt[r]]]
    return gens


def _associative(g: FiniteGroupoid, gens, by_src: dict[str, list[str]], composites: dict[str, list[str]]) -> bool:
    """Light's associativity test (Clifford and Preston, *The Algebraic Theory
    of Semigroups* I, §1.2), for a table that is total with every composite at
    the right endpoints.

    ``composites[a]`` lists ``c ∘ a`` for ``c`` in ``by_src[tgt a]``.  The
    arrows ``a1`` with ``(a3∘a2)∘a1 = a3∘(a2∘a1)`` for all composable
    ``a3, a2`` are closed under composition, so the law holds once it holds
    for each ``a1`` in ``gens``, the arrows of :func:`_generators`.
    ``composites[a2∘a1]`` and ``composites[a2]`` both run over the ``a3`` in
    ``by_src[tgt a2]``, so the two lists compare ``a3∘(a2∘a1)`` with
    ``(a3∘a2)∘a1`` term by term.
    """
    for a1 in gens:
        with_a1 = dict(zip(by_src[g.tgt[a1]], composites[a1]))  # c -> c ∘ a1
        for a2, b in zip(by_src[g.tgt[a1]], composites[a1]):
            if composites[b] != [with_a1[c] for c in composites[a2]]:
                return False
    return True


def validate_groupoid(candidate: FiniteGroupoid) -> ValidationReport:
    """Check every groupoid axiom, naming each failure with a witness tuple.

    Associativity is decided by :func:`_associative` on a generating set; all
    composable triples are scanned only to list the violations, or when an
    earlier check has already failed.  A groupoid that passes keeps that
    generating set (``_kept_generators``).  Raises
    :class:`DanglingIdError` for malformed tables (undeclared ids, duplicate
    declarations); axiom failures are reported, not raised.
    """
    check_groupoid_declarations(candidate)
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
    composites = g.composites()
    for a1 in g.arrows:
        if None in composites[a1]:
            for a2, c in zip(by_src[g.tgt[a1]], composites[a1]):
                if c is None:
                    violations.append(Violation("totality", (a2, a1)))
    for (a2, a1), a3 in g.compose.items():
        if g.src[a3] != g.src[a1] or g.tgt[a3] != g.tgt[a2]:
            violations.append(Violation("composite-endpoints", (a2, a1, a3)))
    gens = None if violations else _generators(g)
    if gens is None or not _associative(g, gens, by_src, composites):
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
    report = ValidationReport.collect(violations)
    if report.ok:
        object.__setattr__(g, "_kept_generators", tuple(gens))
    return report


def empty_groupoid() -> FiniteGroupoid:
    return FiniteGroupoid((), (), {}, {}, {}, {}, {})


def tuple_groupoid(objects: dict, arrows, src, tgt, unit, inv, compose) -> tuple[FiniteGroupoid, dict]:
    """The groupoid on keyed objects and tuple-keyed arrows, each arrow id rendered once.

    ``objects`` maps object keys to ids in declaration order; ``arrows`` lists
    arrow keys (tuples, rendered with :func:`render_id`) in declaration order.
    ``src``, ``tgt``, ``unit`` and ``inv`` are functions on keys.
    ``compose(first)`` is the row of ``first``: the keys of ``after ∘ first``
    for every arrow ``after`` out of ``tgt first``, in declaration order.  The
    table is filled one row per first arrow, in declaration order, with no
    call per pair; a row of the wrong length raises :class:`ValueError`.
    Returns the groupoid and the table arrow key -> id.  Raises
    :class:`PreconditionError` when two distinct object keys, or two distinct
    arrow keys, have the same id, or when a key has no entry.
    """
    ids = {a: render_id(a) for a in arrows}
    for table, what in ((objects, "object"), (ids, "arrow")):
        if len(set(table.values())) != len(table):
            clash = next(i for i, n in Counter(table.values()).items() if n > 1)
            raise PreconditionError(f"tuple_groupoid: two distinct {what} keys have the id {clash!r}")
    try:
        ends = {a: (src(a), tgt(a)) for a in arrows}
        # endpoints are looked up before any row, so an undeclared one is a
        # missing entry, not a row of the wrong length
        src_ids = {ids[a]: objects[x] for a, (x, _) in ends.items()}
        tgt_ids = {ids[a]: objects[y] for a, (_, y) in ends.items()}
        after_ids: dict = {}
        for a, (x, _) in ends.items():
            after_ids.setdefault(x, []).append(ids[a])
        table = {}
        for a1, (_, y) in ends.items():
            after = zip(after_ids.get(y, ()), itertools.repeat(ids[a1]))
            table.update(zip(after, map(ids.__getitem__, compose(a1)), strict=True))
        g = FiniteGroupoid(
            objects=tuple(objects.values()),
            arrows=tuple(ids.values()),
            src=src_ids,
            tgt=tgt_ids,
            compose=table,
            unit={x: ids[unit(k)] for k, x in objects.items()},
            inv={ids[a]: ids[inv(a)] for a in arrows},
        )
    except KeyError as exc:
        raise PreconditionError(
            f"tuple_groupoid: no entry for {exc.args[0]!r}; endpoints, units, inverses and composites must be declared"
        ) from None
    return g, ids


def class_reps(items, members) -> dict:
    """Map every member of each class to the item that opened it.

    ``items`` are walked in order; an item not yet mapped opens a class, and
    each element of ``members(item)`` (its whole class, the item included) is
    mapped to it.  So the representative is the class's least-index item, as
    an earlier member would have opened the class, and the dict's values
    first appear in item order.
    """
    reps: dict = {}
    for item in items:
        if item not in reps:
            for member in members(item):
                reps[member] = item
    return reps


def fibers(items, key) -> dict:
    """``key(item)`` -> the items with that key in item order; keys in order of first appearance."""
    out: dict = {}
    for item in items:
        out.setdefault(key(item), []).append(item)
    return out


def classes(items, members) -> list[tuple]:
    """The classes of :func:`class_reps` over the sequence ``items``, as tuples in item order."""
    return [tuple(c) for c in fibers(items, class_reps(items, members).__getitem__).values()]


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
    """Check that the maps commute with src, tgt, unit, inv, and compose.

    Endpoints, units and inverses are checked on every arrow.  When both ends
    keep generating arrows (``_kept_generators``), composition is first
    checked only on the pairs ``(a, s)`` with ``s`` a generator of the domain
    and ``a`` out of ``tgt s``.  That decides every composable pair
    ``(a2, a1)``: induct on the length of ``a1`` as a word
    ``s_k ∘ (… ∘ s_1)`` in the generators.  For ``a1 = s`` the pair is
    checked.  Otherwise ``a1 = b ∘ s`` with ``b`` shorter, and both ends are
    associative, so ``F(a2∘a1) = F((a2∘b)∘s) = F(a2∘b)∘F(s) =
    (F(a2)∘F(b))∘F(s) = F(a2)∘F(b∘s)``, by the checked pair ``(a2∘b, s)``,
    the hypothesis for ``b`` and the checked pair ``(b, s)``.  Every
    composable pair is scanned when that check or an earlier one fails, to
    list the violations, so the report is the one the full scan gives.
    """
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
    gens = dom._kept_generators
    if violations or gens is None or cod._kept_generators is None or not _preserves_composites_at(f, gens):
        for (a2, a1), a3 in dom.compose.items():
            if cod.compose.get((f.arr_map[a2], f.arr_map[a1])) != f.arr_map[a3]:
                violations.append(Violation("composition preservation", (a2, a1)))
    return ValidationReport.collect(violations)


def _preserves_composites_at(f: GroupoidFunctor, gens) -> bool:
    """``F(a∘s) = F(a)∘F(s)`` for each ``s`` in ``gens`` and each ``a`` out of ``tgt s``."""
    arr, image, composite, tgt = f.arr_map, f.cod.compose.get, f.dom.compose, f.dom.tgt
    by_src = f.dom.arrows_from()
    return all(image((arr[a], arr[s])) == arr[composite[(a, s)]] for s in gens for a in by_src[tgt[s]])


def verify_isomorphism(iso: GroupoidFunctor, where: str) -> None:
    """Raise :class:`InternalCheckError` unless ``iso`` is a functor bijective on objects and arrows."""
    validate_functor(iso).require(InternalCheckError, f"{where}: isomorphism is not a functor")
    if len(set(iso.obj_map.values())) != len(iso.cod.objects) or len(iso.obj_map) != len(iso.cod.objects):
        raise InternalCheckError(f"{where}: isomorphism is not bijective on objects")
    if len(set(iso.arr_map.values())) != len(iso.cod.arrows) or len(iso.arr_map) != len(iso.cod.arrows):
        raise InternalCheckError(f"{where}: isomorphism is not bijective on arrows")


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


def check_group_declarations(g: FiniteGroup) -> None:
    """Raise :class:`DanglingIdError` unless every element is declared once, the
    unit is declared, and the inverse and multiplication tables are total."""
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


def validate_group(g: FiniteGroup) -> ValidationReport:
    """Check every group axiom, naming each failure with a witness tuple.

    Units and inverses are checked on every element.  Associativity is then
    checked as ``(a·b)·s = a·(b·s)`` only for ``s`` in
    :func:`_generating_sequence`: the ``c`` with ``(a·b)·c = a·(b·c)`` for
    all ``a, b`` are closed under products (Light's test, as for
    groupoids), the unit is one of them once it is a right unit, and every
    element is a product of the unit and the sequence.  Every triple is
    scanned when a check fails, to list the violations.
    """
    check_group_declarations(g)
    elements = set(g.elements)
    mul = g.mul
    units_and_inverses = []
    for a in g.elements:
        if mul[(g.unit, a)] != a or mul[(a, g.unit)] != a:
            units_and_inverses.append(Violation("unit", (a,)))
        if g.inv[a] not in elements or mul[(g.inv[a], a)] != g.unit or mul[(a, g.inv[a])] != g.unit:
            units_and_inverses.append(Violation("inverse", (a,)))
    associativity = []
    if units_and_inverses or any(
        mul[(mul[(a, b)], s)] != mul[(a, mul[(b, s)])]
        for s in _generating_sequence(g)
        for a in g.elements
        for b in g.elements
    ):
        associativity = [
            Violation("associativity", (a, b, c))
            for a, b, c in itertools.product(g.elements, repeat=3)
            if mul[(mul[(a, b)], c)] != mul[(a, mul[(b, c)])]
        ]
    return ValidationReport.collect(associativity + units_and_inverses)


def trivial_group() -> FiniteGroup:
    return FiniteGroup(("e",), {("e", "e"): "e"}, "e", {"e": "e"})


def element_order(g: FiniteGroup, a: str) -> int:
    n, b = 1, a
    while b != g.unit:
        b = g.mul[(b, a)]
        n += 1
    return n


def closure(g: FiniteGroup, seed) -> tuple[str, ...]:
    """Subgroup generated by ``seed``, as elements in declaration order.

    Right multiples of the unit by the seed suffice: every inverse is a power.
    """
    members = {g.unit}
    frontier = [g.unit]
    while frontier:
        nxt = []
        for a in frontier:
            for s in seed:
                c = g.mul[(a, s)]
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


def direct_product(g: FiniteGroup, h: FiniteGroup) -> tuple[FiniteGroup, dict[tuple[str, str], str]]:
    """G × H on the pairs (a, b) in declaration order, and the table pair -> element id."""
    eid = {(a, b): render_id((a, b)) for a in g.elements for b in h.elements}
    group = FiniteGroup(
        elements=tuple(eid.values()),
        mul={
            (eid[p], eid[q]): eid[(g.mul[(p[0], q[0])], h.mul[(p[1], q[1])])]
            for p in eid
            for q in eid
        },
        unit=eid[(g.unit, h.unit)],
        inv={e: eid[(g.inv[a], h.inv[b])] for (a, b), e in eid.items()},
    )
    return group, eid


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


def _generating_sequence(g: FiniteGroup) -> tuple[str, ...]:
    """Each element, in declaration order, outside the subgroup generated by
    those before it.  Computed once per group object and kept on it, as
    :func:`~gpdkit.morita.weak_equivalence_report` keeps a functor's report."""
    gens = g.__dict__.get("_generating_sequence")
    if gens is None:
        found: list[str] = []
        have = {g.unit}
        for a in g.elements:
            if a not in have:
                found.append(a)
                have = set(closure(g, found))
        gens = g.__dict__["_generating_sequence"] = tuple(found)
    return gens


def group_isomorphism(g: FiniteGroup, h: FiniteGroup) -> dict[str, str] | None:
    """An isomorphism g -> h as an element map, or None when there is none.

    Exhaustive over images of a generating sequence, pruned by element orders.
    """
    if g.order != h.order:
        return None
    g_profile = sorted(element_order(g, a) for a in g.elements)
    h_profile = sorted(element_order(h, a) for a in h.elements)
    if g_profile != h_profile:
        return None
    gens = _generating_sequence(g)
    by_order = fibers(h.elements, lambda b: element_order(h, b))

    def extend(images: list[str]) -> dict[str, str] | None:
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
                            return None
                    else:
                        mapping[c] = img
                        nxt.append(c)
            frontier = nxt
        if len(set(mapping.values())) != h.order:
            return None
        homomorphic = all(
            mapping[g.mul[(a, b)]] == h.mul[(mapping[a], mapping[b])]
            for a in g.elements
            for b in g.elements
        )
        return mapping if homomorphic else None

    candidate_lists = [by_order.get(element_order(g, x), []) for x in gens]
    for images in itertools.product(*candidate_lists):
        if len(set(images)) == len(images) and (mapping := extend(list(images))) is not None:
            return mapping
    return None


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
    """Build the action groupoid, verifying the action axioms first.

    ``group`` must be a group.  Compatibility with multiplication is decided
    on a generating sequence; every triple is scanned, in order, only to name
    the first one that fails.
    """
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
    # right_mul[g] lists h·g for h in declaration order
    right_mul = {g: [group.mul[(h, g)] for h in group.elements] for g in group.elements}
    # g2 with g1·(g2·x) = (g1g2)·x for all g1, x are closed under products,
    # so checking a generating sequence decides the law for every g2
    if any(
        [act[(h, act[(g2, x)])] for h in group.elements] != [act[(hg, x)] for hg in right_mul[g2]]
        for g2 in _generating_sequence(group)
        for x in carrier
    ):
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
        compose=lambda a: zip(right_mul[a[0]], itertools.repeat(a[1])),
    )
    # the axioms hold, so the (s, x) for s in a generating sequence generate the groupoid
    gens = _generating_sequence(group) or (group.unit,)
    object.__setattr__(induced, "_kept_generators", tuple(ids[(s, x)] for s in gens for x in carrier))
    arrow_pairs = {i: a for a, i in ids.items()}
    return ActionGroupoid(group, carrier, act, induced, arrow_pairs, ids)


def orbit(a: ActionGroupoid, x: str) -> tuple[str, ...]:
    hit = {a.act[(g, x)] for g in a.group.elements}
    return tuple(y for y in a.carrier if y in hit)


def orbits(a: ActionGroupoid) -> list[tuple[str, ...]]:
    """Orbit partition; each orbit listed once, keyed by its least-index point."""
    return classes(a.carrier, lambda x: orbit(a, x))


def stabilizer(a: ActionGroupoid, x: str) -> tuple[str, ...]:
    return tuple(g for g in a.group.elements if a.act[(g, x)] == x)


def fixed_point(a: ActionGroupoid, elements) -> tuple[str, str] | None:
    """The first (g, x) with g ≠ 1 in ``elements`` and g·x = x, by carrier point, then element."""
    return next(((g, x) for x in a.carrier for g in elements if g != a.group.unit and a.act[(g, x)] == x), None)


def connected_components(g: FiniteGroupoid) -> list[tuple[str, ...]]:
    """Object partition under arrow-reachability, ordered by least object index."""
    neighbours: dict[str, set[str]] = {x: set() for x in g.objects}
    for a in g.arrows:
        neighbours[g.src[a]].add(g.tgt[a])
        neighbours[g.tgt[a]].add(g.src[a])

    def component(x: str) -> set[str]:
        comp = {x}
        frontier = [x]
        while frontier:
            nxt = []
            for y in frontier:
                for z in neighbours[y]:
                    if z not in comp:
                        comp.add(z)
                        nxt.append(z)
            frontier = nxt
        return comp

    return classes(g.objects, component)


def isotropy_group(g: FiniteGroupoid, x: str) -> FiniteGroup:
    loops = tuple(a for a in g.arrows if g.src[a] == x and g.tgt[a] == x)
    return FiniteGroup(
        elements=loops,
        mul={(a, b): g.compose[(a, b)] for a in loops for b in loops},
        unit=g.unit[x],
        inv={a: g.inv[a] for a in loops},
    )


def groupoid_iso_search(g: FiniteGroupoid, h: FiniteGroupoid) -> GroupoidFunctor | None:
    """An isomorphism g -> h, or None when there is none.

    A connected groupoid is isomorphic to its objects paired indiscretely
    times the isotropy group at any one of them, here its least-index object
    (the base).  So g and h are isomorphic exactly when their components pair off
    with equal object counts and isomorphic isotropy groups; that relation is
    an equivalence, so matching each component of g with the first unused
    one of h that fits is exact.  Given such a pairing, with object bijection
    F, isotropy isomorphisms ρ and an arrow t[y]: base -> y for every object
    of g (t' in h), each arrow a: x -> y goes to t'[F y] ∘ ρ(t[y]⁻¹ ∘ a ∘ t[x]) ∘ t'[F x]⁻¹.
    """
    g_comps, h_comps = connected_components(g), connected_components(h)
    if len(g_comps) != len(h_comps):
        return None
    unused = [(comp, isotropy_group(h, comp[0])) for comp in h_comps]
    obj_map: dict[str, str] = {}
    loop_map: dict[str, str] = {}
    for comp in g_comps:
        group = isotropy_group(g, comp[0])
        for i, (other, other_group) in enumerate(unused):
            rho = group_isomorphism(group, other_group) if len(other) == len(comp) else None
            if rho is not None:
                break
        else:
            return None
        del unused[i]
        obj_map.update(zip(comp, other))
        loop_map.update(rho)

    def tree(k: FiniteGroupoid, comps) -> dict[str, str]:
        hom = k.hom_index()
        return {y: hom[(comp[0], y)][0] for comp in comps for y in comp}

    g_tree, h_tree = tree(g, g_comps), tree(h, h_comps)
    arr_map = {}
    for a in g.arrows:
        x, y = g.src[a], g.tgt[a]
        loop = g.compose[(g.inv[g_tree[y]], g.compose[(a, g_tree[x])])]
        image = h.compose[(h_tree[obj_map[y]], loop_map[loop])]
        arr_map[a] = h.compose[(image, h.inv[h_tree[obj_map[x]]])]
    iso = GroupoidFunctor(g, h, obj_map, arr_map)
    verify_isomorphism(iso, "groupoid_iso_search")
    return iso
