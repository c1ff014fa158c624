"""Finite groupoids, functors, natural transformations, groups, and group actions.

Everything is a plain table over opaque string ids.  Constructed objects use
deterministic structured ids (tuples rendered as ``(a,b,c)``) so re-running a
construction yields bit-identical tables.  Product-shaped tables (action
groupoids and the strict and weak pullbacks) are all made by
:func:`tuple_groupoid`, which renders each of their arrow ids once and builds
from whole tables: the caller gives each arrow's endpoints, inverse and row of
composites, and each object's unit, as lists aligned with the declaration,
naming an arrow by its position among the arrows out of its source.  The
compose table is kept as those rows in a :class:`RowTable`, a read-only
mapping that answers every read from the rows, never stores a pair, and
refuses a row whose length is not the number of arrows out of its first
arrow's target.  :func:`action_groupoid` hands over whole columns of its
action table, so no Python function runs per arrow or per pair.  Class
tables (orbits, components, cosets and the classes of the equivariant
constructions) are all made by :func:`class_reps`, which picks each class's
least-index member as its representative; :func:`classes` lists them, and
:func:`fibers` groups items by key in item order.  Values are frozen after
construction and every operation is a pure function.

One decision on rows, one scan when it fails.  Every validator reads a
composite ``after ∘ first`` as ``rows[first][pos[after]]``, from
:meth:`FiniteGroupoid.composites` and :meth:`FiniteGroupoid.positions`
(:func:`out_positions`, the one positions table), for either table kind; a
plain dict's rows are read from it pair by pair.  A validator decides on
the rows whether its table passes, and scans the table pair by pair only
when that decision fails, to list the violations, so every report is the
one the scan gives: rows never see a dict entry at a pair that does not
compose, and such a table fails the decision.  :func:`validate_groupoid`
makes one decision for all its checks and, when it fails, one scan that
lists every violation.

A value that depends only on one frozen object is derived once and kept on
it, in a declared field (``init=False, compare=False, repr=False``, default
``None``) set with ``object.__setattr__``, so a :func:`dataclasses.replace`
copy derives its own.  The kept values and their readers:

- ``FiniteGroupoid._kept_generators``: a generating set of the arrows of a
  groupoid proven valid (the induced groupoid of :func:`action_groupoid`,
  whose action axioms were verified, and a groupoid that passed
  :func:`validate_groupoid`).  :func:`validate_functor` then checks
  composition on generators only, as :func:`validate_groupoid` and
  :func:`validate_group` check associativity; each runs its full scan when a
  fast check fails, so every report is the one the full scan gives.
- ``FiniteGroup._kept_sequence`` and ``FiniteGroup._kept_right``: the
  generating sequence and the right-multiplication index table, read by
  :func:`action_groupoid`.
- ``GroupoidFunctor._kept_report``: the weak-equivalence report, read by
  :func:`gpdkit.morita.weak_equivalence_report`.
- ``GroupoidFunctor._kept_self_pullback``: the strict pullback of a left leg
  with itself, read by the 2-cell operations of :mod:`gpdkit.localization`.
- ``ActionGroupoid._kept_properties``: the property report, read by
  :func:`gpdkit.equivariant.property_report`.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Mapping
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


def out_positions(out: dict) -> dict:
    """Each arrow's position among the arrows out of its source, from ``out``:
    source -> the arrows out of it, in order.  ``c ∘ a`` is then
    ``rows[a][positions[c]]`` (:meth:`FiniteGroupoid.composites`)."""
    return {a: i for arrows in out.values() for i, a in enumerate(arrows)}


class RowTable(Mapping):
    """A compose table kept as rows: a read-only mapping that stores no pair.

    ``rows[first]`` lists ``after ∘ first`` for each ``after`` in
    ``out[tgt[first]]``, the arrows out of ``first``'s target in declaration
    order, and ``pos[after]`` is the place of ``after`` in its list
    (:func:`out_positions`).  A row of any other length raises
    :class:`ValueError`, so every row read is in range.  Every read (``[]``,
    ``len``, iteration, ``==``) is answered from the rows, and
    :class:`~collections.abc.Mapping` answers ``get`` and ``in`` through
    ``[]``; the pairs come first arrow by first arrow, then after-arrow.  A
    key that is not a composable pair of the table misses as it would in a
    plain dict.  ``dict(t)`` gives a plain copy.
    """

    __slots__ = ("rows", "out", "pos", "src", "tgt")

    def __init__(self, rows: dict, out: dict, src: dict, tgt: dict):
        wanted = [len(out.get(tgt[a], ())) for a in rows]
        if list(map(len, rows.values())) != wanted:
            a, row, n = next((a, row, n) for (a, row), n in zip(rows.items(), wanted) if len(row) != n)
            raise ValueError(f"RowTable: the row of {a!r} has {len(row)} composites, not {n}")
        self.rows, self.out, self.src, self.tgt = rows, out, src, tgt
        self.pos = out_positions(out)

    def __getitem__(self, key):
        if type(key) is tuple:
            try:
                after, first = key
                if self.src[after] == self.tgt[first]:
                    return self.rows[first][self.pos[after]]
            except (ValueError, KeyError, TypeError):
                pass
        return {}[key]  # raises as a plain dict would

    def __len__(self):
        return sum(map(len, self.rows.values()))

    def __iter__(self):
        out, tgt = self.out, self.tgt
        for first in self.rows:
            for after in out.get(tgt[first], ()):
                yield after, first

    def items(self):
        out, tgt = self.out, self.tgt
        for first, row in self.rows.items():
            yield from zip(zip(out.get(tgt[first], ()), itertools.repeat(first)), row)


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
    compose: Mapping[tuple[str, str], str] = field(repr=False)
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

    def composites(self, firsts=None) -> dict[str, list[str | None]]:
        """arrow a -> ``c ∘ a`` for each ``c`` out of ``tgt a`` in declaration
        order, None where the table has no entry, for each ``a`` in ``firsts``
        (every arrow by default).  A :class:`RowTable` gives all the rows it
        reads every pair from, which callers must not change; a plain table's
        rows are read pair by pair, so they never hold an entry at a pair
        that does not compose."""
        if isinstance(self.compose, RowTable):
            return self.compose.rows
        out, get = self.arrows_from(), self.compose.get
        return {a: [get((c, a)) for c in out[self.tgt[a]]] for a in (self.arrows if firsts is None else firsts)}

    def positions(self) -> dict[str, int]:
        """Each arrow's position among the arrows out of its source
        (:func:`out_positions`); a :class:`RowTable` gives its own."""
        if isinstance(self.compose, RowTable):
            return self.compose.pos
        return out_positions(self.arrows_from())


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
    compose, every = g.compose, itertools.chain.from_iterable
    # a row table is decided on its first arrows, out lists and composites;
    # the walk over its pairs runs only to name an undeclared entry
    if isinstance(compose, RowTable) and arrows.issuperset(
        itertools.chain(compose.rows, every(compose.out.values()), every(compose.rows.values()))
    ):
        return
    for (a2, a1), a3 in compose.items():
        if a2 not in arrows or a1 not in arrows or a3 not in arrows:
            raise DanglingIdError(f"compose entry ({a2!r}, {a1!r}) -> {a3!r} references undeclared arrows")


def _generators(g: FiniteGroupoid, composites: dict[str, list[str]], pos: dict[str, int]) -> list[str]:
    """Arrows of which every arrow of ``g`` is a composite ``s_k ∘ (… ∘ s_1)``.

    Greedy over the arrows, non-units first, each in declaration order: an
    arrow joins unless it is already a composite of those before it.  Read
    off ``g``'s own rows (``composites[r][pos[s]]`` is ``s ∘ r``), so the set
    generates ``g`` whatever the table is, provided every composable pair has
    an entry.
    """
    src, tgt = g.src, g.tgt
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
        i = pos[s]
        frontier = [s] + [composites[r][i] for r in reached_into[src[s]]]
        while frontier:
            r = frontier.pop()
            if r not in reached:
                reached.add(r)
                reached_into[tgt[r]].append(r)
                row = composites[r]
                frontier += [row[pos[t]] for t in gens_from[tgt[r]]]
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


def _rows_cover(g: FiniteGroupoid, composites: dict[str, list[str | None]]) -> bool:
    """Every entry of ``g.compose`` is in its rows.  The rows hold exactly the
    composable pairs, so this fails when an entry sits at a pair that does
    not compose."""
    return len(g.compose) == sum(len(row) - row.count(None) for row in composites.values())


def validate_groupoid(candidate: FiniteGroupoid) -> ValidationReport:
    """Check every groupoid axiom, naming each failure with a witness tuple.

    One decision on the rows (:meth:`FiniteGroupoid.composites`): the rows
    cover the table and are total, every composite ends at the right
    objects, both unit laws and both inverse laws hold arrow by arrow, and
    :func:`_associative` holds on :func:`_generators`.  A groupoid that
    passes keeps that generating set (``_kept_generators``).  One that fails
    gets one scan of the table listing every violation, in the order of the
    checks: unit endpoints, composability, totality, composite endpoints,
    associativity, then the unit and inverse laws at each arrow.  Raises
    :class:`DanglingIdError` for malformed tables (undeclared ids, duplicate
    declarations); axiom failures are reported, not raised.
    """
    check_groupoid_declarations(candidate)
    g = candidate
    src, tgt, unit, inv, compose = g.src, g.tgt, g.unit, g.inv, g.compose
    by_src = g.arrows_from()
    composites, pos = g.composites(), g.positions()
    # the targets of the arrows out of each object: a row's composites end there
    ends = {x: list(map(tgt.__getitem__, out)) for x, out in by_src.items()}
    if (
        _rows_cover(g, composites)
        and all(
            list(map(src.get, row)).count(src[a1]) == len(row) and list(map(tgt.get, row)) == ends[tgt[a1]]
            for a1, row in composites.items()
        )
        and all(src[u] == x == tgt[u] and composites[u] == by_src[x] for x, u in unit.items())
        and all(
            src[inv[a]] == tgt[a]
            and tgt[inv[a]] == src[a]
            and row[pos[unit[tgt[a]]]] == a
            and row[pos[inv[a]]] == unit[src[a]]
            and composites[inv[a]][pos[a]] == unit[tgt[a]]
            for a, row in composites.items()
        )
        and _associative(g, gens := _generators(g, composites, pos), by_src, composites)
    ):
        object.__setattr__(g, "_kept_generators", tuple(gens))
        return ValidationReport(True, ())
    violations = [Violation("unit-endpoints", (x, unit[x])) for x in g.objects if not src[unit[x]] == x == tgt[unit[x]]]
    violations += [Violation("composability", (a2, a1)) for a2, a1 in compose if src[a2] != tgt[a1]]
    for a1 in g.arrows:
        violations += [Violation("totality", (a2, a1)) for a2, c in zip(by_src[tgt[a1]], composites[a1]) if c is None]
    for (a2, a1), a3 in compose.items():
        if src[a3] != src[a1] or tgt[a3] != tgt[a2]:
            violations.append(Violation("composite-endpoints", (a2, a1, a3)))
    for a1 in g.arrows:
        for a2 in by_src[tgt[a1]]:
            b = compose.get((a2, a1))
            if b is None:
                continue
            for a3 in by_src[tgt[a2]]:
                left = compose.get((a3, b))
                c = compose.get((a3, a2))
                right = compose.get((c, a1)) if c is not None else None
                if left != right or left is None:
                    violations.append(Violation("associativity", (a3, a2, a1)))
    for a in g.arrows:
        if compose.get((a, unit[src[a]])) != a:
            violations.append(Violation("right-unit", (a,)))
        if compose.get((unit[tgt[a]], a)) != a:
            violations.append(Violation("left-unit", (a,)))
        if compose.get((inv[a], a)) != unit[src[a]]:
            violations.append(Violation("left-inverse", (a,)))
        if compose.get((a, inv[a])) != unit[tgt[a]]:
            violations.append(Violation("right-inverse", (a,)))
    return ValidationReport.collect(violations)


def empty_groupoid() -> FiniteGroupoid:
    return FiniteGroupoid((), (), {}, {}, {}, {}, {})


def tuple_groupoid(objects: dict, arrows, src, tgt, unit, inv, rows) -> tuple[FiniteGroupoid, dict]:
    """The groupoid on keyed objects and tuple-keyed arrows, built from whole tables.

    ``objects`` maps object keys to ids and ``arrows`` lists arrow keys
    (rendered with :func:`render_id`, each once), both in declaration order.
    Aligned with them, ``src`` and ``tgt`` give each arrow's endpoint keys,
    ``unit`` each object's unit, ``inv`` each arrow's inverse and ``rows``
    each arrow's row: ``after ∘ first`` for every ``after`` out of
    ``tgt first``, in declaration order.  These name an arrow by its position
    among the arrows out of its source, so a row is a permutation of the
    positions out of ``src first``.  The inputs are read once, in that
    order, and mapped to ids whole; the rows are kept in a read-only
    :class:`RowTable` that stores no pair, and a row of the wrong length
    raises :class:`ValueError`.  A :class:`KeyError` met while reading an
    input, which may be lazy, is refused as a key with no entry.  Returns
    the groupoid and the table arrow key -> id.  Raises
    :class:`PreconditionError` when two distinct object keys, or two
    distinct arrow keys, have the same id, or when a key has no entry.
    """
    id_list = [render_id(a) for a in arrows]
    ids = dict(zip(arrows, id_list))
    for table, what in ((objects, "object"), (ids, "arrow")):
        if len(set(table.values())) != len(table):
            clash = next(i for i, n in Counter(table.values()).items() if n > 1)
            raise PreconditionError(f"tuple_groupoid: two distinct {what} keys have the id {clash!r}")
    try:
        src_ids = dict(zip(id_list, map(objects.__getitem__, src), strict=True))
        tgt_ids = dict(zip(id_list, map(objects.__getitem__, tgt), strict=True))
        out: dict = {}
        for a, x in src_ids.items():
            out.setdefault(x, []).append(a)
        id_rows = [list(map(out[x].__getitem__, row)) for x, row in zip(src_ids.values(), rows, strict=True)]
        unit_ids = {x: out[x][i] for x, i in zip(objects.values(), unit, strict=True)}
        inv_ids = {a: out[y][i] for a, y, i in zip(id_list, tgt_ids.values(), inv, strict=True)}
    except KeyError as exc:
        raise PreconditionError(
            f"tuple_groupoid: no entry for {exc.args[0]!r}; endpoints, units, inverses and composites must be declared"
        ) from None
    g = FiniteGroupoid(
        objects=tuple(objects.values()),
        arrows=tuple(id_list),
        src=src_ids,
        tgt=tgt_ids,
        compose=RowTable(dict(zip(id_list, id_rows)), out, src_ids, tgt_ids),
        unit=unit_ids,
        inv=inv_ids,
    )
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
    # kept by morita.weak_equivalence_report
    _kept_report: object = field(default=None, init=False, repr=False, compare=False)
    # this functor's strict pullback with itself, kept by localization's 2-cell operations
    _kept_self_pullback: object = field(default=None, init=False, repr=False, compare=False)


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

    Endpoints, units and inverses are checked on every arrow.  Composition is
    decided on the rows of both ends (:func:`_preserves_composites_at`): on
    every pair, or, when both ends keep generating arrows
    (``_kept_generators``), only on the pairs ``(a, s)`` with ``s`` a
    generator of the domain and ``a`` out of ``tgt s``.  That decides every
    composable pair ``(a2, a1)``: induct on the length of ``a1`` as a word
    ``s_k ∘ (… ∘ s_1)`` in the generators.  For ``a1 = s`` the pair is
    checked.  Otherwise ``a1 = b ∘ s`` with ``b`` shorter, and both ends are
    associative, so ``F(a2∘a1) = F((a2∘b)∘s) = F(a2∘b)∘F(s) =
    (F(a2)∘F(b))∘F(s) = F(a2)∘F(b∘s)``, by the checked pair ``(a2∘b, s)``,
    the hypothesis for ``b`` and the checked pair ``(b, s)``.  Every entry of
    the domain's table is scanned when that check or an earlier one fails,
    or when the domain's rows miss an entry (:func:`_rows_cover`), to list
    the violations, so the report is the one the full scan gives.
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
    gens = dom._kept_generators if cod._kept_generators is not None else None
    if (
        violations
        or not _preserves_composites_at(f, dom.arrows if gens is None else gens)
        or gens is None and not _rows_cover(dom, dom.composites())
    ):
        for (a2, a1), a3 in dom.compose.items():
            if cod.compose.get((f.arr_map[a2], f.arr_map[a1])) != f.arr_map[a3]:
                violations.append(Violation("composition preservation", (a2, a1)))
    return ValidationReport.collect(violations)


def _preserves_composites_at(f: GroupoidFunctor, firsts) -> bool:
    """``F(a∘s) = F(a)∘F(s)`` for each ``s`` in ``firsts`` and each ``a`` out
    of ``tgt s`` with ``a∘s`` in the table, read off the rows of both ends:
    ``F(a)∘F(s)`` is the entry of ``F(s)``'s row at the position of ``F(a)``.
    ``F`` must preserve endpoints."""
    dom, cod, arr = f.dom, f.cod, f.arr_map
    dom_rows, cod_rows = dom.composites(firsts), cod.composites({arr[s] for s in firsts})
    pos = cod.positions()
    # each domain object -> the positions of the images of the arrows out of it
    images_at = {x: [pos[arr[a]] for a in out] for x, out in dom.arrows_from().items()}
    return all(
        list(map(cod_rows[arr[s]].__getitem__, images_at[dom.tgt[s]])) == list(map(arr.get, dom_rows[s]))
        for s in firsts
    )


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
    """Check parallelism, component endpoints, and every naturality square.

    The squares are decided on the codomain's rows; each is scanned pair by
    pair only when that decision fails, to list the violations."""
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
    if not _squares_commute(eta):
        for a in dom.arrows:
            z, z2 = dom.src[a], dom.tgt[a]
            left = cod.compose.get((eta.component[z2], eta.source.arr_map[a]))
            right = cod.compose.get((eta.target.arr_map[a], eta.component[z]))
            if left is None or left != right:
                violations.append(Violation("naturality", (a,)))
    return ValidationReport.collect(violations)


def _squares_commute(eta: NaturalTransformation) -> bool:
    """Every naturality square of ``eta`` commutes, read off the codomain's
    rows: ``component[tgt a] ∘ F(a)`` is in ``F(a)``'s row and
    ``G(a) ∘ component[src a]`` in the component's row, once both compose."""
    dom, cod = eta.source.dom, eta.source.cod
    rows, pos, src, tgt = cod.composites(), cod.positions(), cod.src, cod.tgt
    comp, image, other, dom_src, dom_tgt = eta.component, eta.source.arr_map, eta.target.arr_map, dom.src, dom.tgt
    for a in dom.arrows:
        f, g, start, end = image[a], other[a], comp[dom_src[a]], comp[dom_tgt[a]]
        if tgt.get(f) != src[end] or src.get(g) != tgt[start]:
            return False
        left = rows[f][pos[end]]
        if left is None or left != rows[start][pos[g]]:
            return False
    return True


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
    # kept by _generating_sequence and _right_multiplication
    _kept_sequence: tuple[str, ...] | None = field(default=None, init=False, repr=False, compare=False)
    _kept_right: dict[str, list[int]] | None = field(default=None, init=False, repr=False, compare=False)

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
    if g._kept_sequence is None:
        found: list[str] = []
        have = {g.unit}
        for a in g.elements:
            if a not in have:
                found.append(a)
                have = set(closure(g, found))
        object.__setattr__(g, "_kept_sequence", tuple(found))
    return g._kept_sequence


def _right_multiplication(g: FiniteGroup) -> dict[str, list[int]]:
    """``a`` -> the index of ``h·a`` for each ``h`` in declaration order.
    Computed once per group object and kept on it."""
    if g._kept_right is None:
        index = {a: k for k, a in enumerate(g.elements)}
        right = {a: [index[g.mul[(h, a)]] for h in g.elements] for a in g.elements}
        object.__setattr__(g, "_kept_right", right)
    return g._kept_right


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
    # kept by equivariant.property_report
    _kept_properties: object = field(default=None, init=False, repr=False, compare=False)

    def arrow_id(self, g: str, x: str) -> str:
        return self.arrow_ids[(g, x)]


def action_groupoid(group: FiniteGroup, carrier, act: dict[tuple[str, str], str]) -> ActionGroupoid:
    """Build the action groupoid from whole columns of ``act``, verifying the action axioms first.

    ``group`` must be a group.  Totality, declared values, the unit law and
    compatibility with multiplication (on a generating sequence) are decided
    by comparing whole lists; the table is scanned in order only to name the
    first entry, or triple, that fails.  The arrows out of ``x`` are its
    column, ``(g, x)`` in element order, and as ``(h, g·x) ∘ (g, x)`` is
    ``(hg, x)`` the row of ``(g, x)`` is that column permuted by right
    multiplication by ``g``.
    """
    carrier = tuple(carrier)
    _check_unique(carrier, "carrier point")
    points = set(carrier)
    elements, n = group.elements, len(carrier)
    keys = list(itertools.product(elements, carrier))
    try:
        values = list(map(act.__getitem__, keys))
    except KeyError:
        values = None
    if values is None or not points.issuperset(values):
        for g, x in keys:
            if (g, x) not in act:
                raise DanglingIdError(f"action table is missing ({g!r}, {x!r})")
            if act[(g, x)] not in points:
                raise DanglingIdError(f"action value act[({g!r}, {x!r})] is undeclared")
    index = {g: k for k, g in enumerate(elements)}
    u = index[group.unit] * n
    if values[u:u + n] != list(carrier):
        moved = next(x for x, y in zip(carrier, values[u:]) if x != y)
        raise ActionAxiomError(f"unit must act trivially, moves {moved!r}")
    right = _right_multiplication(group)
    column = {x: values[i::n] for i, x in enumerate(carrier)}  # g·x for g in declaration order
    # g2 with g1·(g2·x) = (g1g2)·x for all g1, x are closed under products,
    # so checking a generating sequence decides the law for every g2
    if any(
        column[column[x][index[g2]]] != list(map(column[x].__getitem__, right[g2]))
        for g2 in _generating_sequence(group)
        for x in carrier
    ):
        for g1, g2, x in itertools.product(elements, elements, carrier):
            if act[(g1, act[(g2, x)])] != act[(group.mul[(g1, g2)], x)]:
                raise ActionAxiomError(f"action not compatible with multiplication at ({g1!r}, {g2!r}, {x!r})")

    # (g, x) is at index[g] among the arrows out of x
    induced, ids = tuple_groupoid(
        {x: x for x in carrier},
        keys,
        src=carrier * len(elements),
        tgt=values,
        unit=[index[group.unit]] * n,
        # (g, x)⁻¹ = (g⁻¹, g·x)
        inv=[index[group.inv[g]] for g in elements for _ in carrier],
        rows=[right[g] for g in elements for _ in carrier],
    )
    # the axioms hold, so the (s, x) for s in a generating sequence generate the groupoid
    gens = _generating_sequence(group) or (group.unit,)
    object.__setattr__(induced, "_kept_generators", tuple(ids[(s, x)] for s in gens for x in carrier))
    return ActionGroupoid(group, carrier, act, induced, dict(zip(induced.arrows, keys)), ids)


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
    """The group of arrows ``x -> x``, its table read off their rows; a missing
    composite raises :class:`KeyError` naming the pair."""
    loops = tuple(a for a in g.arrows if g.src[a] == x and g.tgt[a] == x)
    rows, pos = g.composites(loops), g.positions()
    mul = {(a, b): rows[b][pos[a]] for a in loops for b in loops}
    if None in mul.values():
        raise KeyError(next(pair for pair, c in mul.items() if c is None))
    return FiniteGroup(
        elements=loops,
        mul=mul,
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
