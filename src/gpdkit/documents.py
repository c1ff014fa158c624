"""Self-describing JSON documents for every value the tool reads or writes.

One format for everything: a document is a JSON object with a ``kind`` tag
(groupoid, action_groupoid, group, functor, span, two_cell_diagram,
transformation), and a bundle maps names to documents so that functors can
reference their endpoint groupoids by sibling name.  Each kind is declared in
one place, the ``_KINDS`` table at the end of this module: the phase it is
read in, its parser and its validator.  Bytes that are not UTF-8, JSON nested
too deeply to read, integers too long to convert and an object that repeats
a key are refused as :class:`SchemaError`.
Serialization is canonical: sorted keys, arrays in declaration order,
two-space indentation, UTF-8, newline-terminated, so parse followed by
serialize is the identity on canonical inputs.  :func:`dumps` writes the
bytes the standard library's encoder gives with ``sort_keys=True``,
``indent=2`` and ``ensure_ascii=False``, plus a newline, in time linear in
the output; a row of strings inside a list is written in one join, and a
dict of string values as one segment, its encoded keys and values interleaved
with the separators.  A groupoid's ``arrows`` and ``compose`` rows are written
straight from its tables as runs of pieces, with no string built per entry:
the arrows in declaration order, and the composites ordered by the position
of the after-arrow, then of the first arrow, one run an after-arrow, each id
encoded once.  A table whose entries are not exactly its composable pairs of
distinct ids, each with a declared composite, is refused with
:class:`PreconditionError` before any byte is returned.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable

from .core import (
    ActionGroupoid,
    DanglingIdError,
    FiniteGroup,
    FiniteGroupoid,
    GroupoidFunctor,
    NaturalTransformation,
    PreconditionError,
    ValidationReport,
    Violation,
    action_groupoid,
    check_functor_declarations,
    check_group_declarations,
    check_groupoid_declarations,
    compose_functors,
    fibers,
    validate_functor,
    validate_group,
    validate_groupoid,
    validate_nat_trans,
)
from .equivariant import EquivariantFunctor, as_equivariant, equivariant_functor
from .localization import GeneralizedMorphism, TwoCellDiagram, validate_two_cell
from .morita import weak_equivalence_report

_encode_str = json.encoder.encode_basestring


class SchemaError(ValueError):
    """Malformed document; the message names the offending field."""


def dumps(doc: dict) -> bytes:
    """The canonical UTF-8 bytes of ``doc``, newline-terminated."""
    parts: list[str] = []
    _write(doc, "\n", parts)
    parts.append("\n")
    return "".join(parts).encode("utf-8")


def _write(value, newline: str, parts: list[str]) -> None:
    """Append ``value`` to ``parts``; ``newline`` is a line break plus the current indent."""
    if isinstance(value, str):
        parts.append(_encode_str(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        keys = sorted(value)
        try:  # string keys and values only, in one segment; the encoder refuses anything else
            run = ["," + inner, "", ": ", ""] * len(keys) + [newline + "}"]
            run[0] = "{" + inner
            run[1::4] = map(_encode_str, keys)
            run[3::4] = map(_encode_str, map(value.__getitem__, keys))
            parts.append("".join(run))
            return
        except TypeError:
            pass
        sep = "{" + inner
        for key in keys:
            parts.append(sep + _encode_str(key) + ": ")
            _write(value[key], inner, parts)
            sep = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        row_open, row_sep, row_close = "[" + inner + "  ", "," + inner + "  ", inner + "]"
        sep = "[" + inner
        for item in value:
            if isinstance(item, (list, tuple)) and item:
                try:  # a row of only strings, in one join; the encoder refuses anything else
                    parts.append(sep + row_open + row_sep.join(map(_encode_str, item)) + row_close)
                    sep = "," + inner
                    continue
                except TypeError:
                    pass
            parts.append(sep)
            _write(item, inner, parts)
            sep = "," + inner
        parts.append(newline + "]")
    elif isinstance(value, _TableRows):
        value.write(value.g, newline, parts)
    else:
        parts.append(json.dumps(value))


def _write_arrows(g: FiniteGroupoid, newline: str, parts: list[str]) -> None:
    """Append the ``arrows`` rows of ``g`` to ``parts`` as one run of pieces, each id encoded once."""
    if not g.arrows:
        parts.append("[]")
        return
    inner = newline + "  "
    field = inner + "  "
    code = {x: _encode_str(x) for x in {*g.src.values(), *g.tgt.values()}}
    run = [f'{inner}}},{inner}{{{field}"id": ', "", f',{field}"src": ', "", f',{field}"tgt": ', ""] * len(g.arrows)
    run[0] = f'[{inner}{{{field}"id": '
    run[1::6] = map(_encode_str, g.arrows)
    run[3::6] = map(code.__getitem__, map(g.src.__getitem__, g.arrows))
    run[5::6] = map(code.__getitem__, map(g.tgt.__getitem__, g.arrows))
    run.append(inner + "}" + newline + "]")
    parts += run


_MALFORMED_COMPOSE = "compose entries are not exactly the composable pairs of distinct arrows with declared composites"


def _write_compose(g: FiniteGroupoid, newline: str, parts: list[str]) -> None:
    """Append the ``compose`` rows of ``g`` to ``parts``, one run of pieces an after-arrow.

    The rows of each after-arrow ``a2`` are read off the arrows ``a1`` into
    its source, in declaration order; ``a2 ∘ a1`` is the entry of ``a1``'s
    row (:meth:`~gpdkit.core.FiniteGroupoid.composites`) at the place of
    ``a2`` among the arrows out of its source.  Each id is encoded once, and
    the run of ``a2`` interleaves its head with the encoded ``a1`` and
    composite pieces, so no string is built per entry.  A table whose entries
    are not exactly its composable pairs of distinct ids, each with a
    declared composite, raises :class:`PreconditionError`."""
    inner, compose = newline + "  ", g.compose
    code = {a: _encode_str(a) for a in g.arrows}
    into = fibers(g.arrows, g.tgt.__getitem__)
    if len(code) != len(g.arrows) or len(compose) != sum(len(into.get(g.src[a], ())) for a in g.arrows):
        raise PreconditionError(_MALFORMED_COMPOSE)
    if not compose:
        parts.append("[]")
        return
    start, last = len(parts), {a: c + inner + "]" for a, c in code.items()}
    try:
        rows, at = g.composites(), g.positions()
        # for each object, the encoded arrows into it and their rows, shared by every after-arrow out of it
        firsts = {x: ([f"{code[a1]},{inner}  " for a1 in a1s], [rows[a1] for a1 in a1s]) for x, a1s in into.items()}
        for a2 in g.arrows:
            heads, first_rows = firsts.get(g.src[a2], ((), ()))
            run = [f",{inner}[{inner}  {code[a2]},{inner}  "] * (3 * len(heads))
            run[1::3] = heads
            run[2::3] = map(last.__getitem__, map(itemgetter(at[a2]), first_rows))
            parts += run
    except KeyError:  # a composable pair with no entry, or an undeclared composite
        raise PreconditionError(_MALFORMED_COMPOSE) from None
    parts[start] = "[" + parts[start][1:]
    parts.append(newline + "]")


def _unique_keys(pairs: list) -> dict:
    """An object's pairs as a dict; a repeated key would silently drop a value."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise SchemaError(f"duplicate key {key!r} in a JSON object")
            seen.add(key)
    return obj


def loads(data: bytes | str) -> dict:
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data, object_pairs_hook=_unique_keys)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"byte {exc.start}: not UTF-8") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except SchemaError:
        raise
    except RecursionError:
        raise SchemaError("JSON nested too deeply to read") from None
    except ValueError:  # an integer literal longer than the interpreter converts
        raise SchemaError("a number has too many digits to read") from None
    if not isinstance(doc, dict):
        raise SchemaError("top level: expected a JSON object")
    return doc


def _need(obj: dict, key: str, where: str, types) -> object:
    if key not in obj:
        raise SchemaError(f"{where}: missing {key!r}")
    value = obj[key]
    if not isinstance(value, types):
        raise SchemaError(f"{where}: field {key!r} has the wrong type")
    return value


def _str_list(obj: dict, key: str, where: str) -> list[str]:
    value = _need(obj, key, where, list)
    if not all(isinstance(v, str) for v in value):
        raise SchemaError(f"{where}: field {key!r} must be a list of strings")
    return value


def _str_map(obj: dict, key: str, where: str) -> dict[str, str]:
    value = _need(obj, key, where, dict)
    if not all(isinstance(k, str) and isinstance(v, str) for k, v in value.items()):
        raise SchemaError(f"{where}: field {key!r} must map strings to strings")
    return value


def _triple_rows(obj: dict, key: str, where: str) -> dict[tuple[str, str], str]:
    """The table ``(a, b) -> c`` of the ``[a, b, c]`` rows of ``key``; a repeated ``(a, b)`` is refused."""
    value = _need(obj, key, where, list)
    table: dict[tuple[str, str], str] = {}
    for row in value:
        if not (isinstance(row, list) and len(row) == 3 and all(isinstance(v, str) for v in row)):
            raise SchemaError(f"{where}: field {key!r} must be a list of [a, b, c] string triples")
        if (row[0], row[1]) in table:
            raise SchemaError(f"{where}: field {key!r} has two rows for ({row[0]!r}, {row[1]!r})")
        table[(row[0], row[1])] = row[2]
    return table


# --- encoding -------------------------------------------------------------


def groupoid_doc(g: FiniteGroupoid) -> dict:
    return {
        "kind": "groupoid",
        "objects": list(g.objects),
        "arrows": _TableRows(g, _write_arrows),
        "compose": _TableRows(g, _write_compose),
        "identity": dict(g.unit),
        "inverse": dict(g.inv),
    }


class _TableRows:
    """Rows of ``g`` that :func:`dumps` writes straight from its tables with
    ``write(g, newline, parts)``: :func:`_write_arrows` gives ``{"id": a,
    "src": src a, "tgt": tgt a}`` for every arrow in declaration order, and
    :func:`_write_compose` gives ``[a2, a1, a2∘a1]`` for every composable
    pair, ordered by the position of ``a2``, then of ``a1``."""

    def __init__(self, g: FiniteGroupoid, write: Callable[[FiniteGroupoid, str, list[str]], None]):
        self.g, self.write = g, write


def group_payload(g: FiniteGroup) -> dict:
    return {
        "elements": list(g.elements),
        "mul": [[a, b, g.mul[(a, b)]] for a in g.elements for b in g.elements],
        "unit": g.unit,
    }


def group_doc(g: FiniteGroup) -> dict:
    return {"kind": "group", **group_payload(g)}


def action_doc(a: ActionGroupoid) -> dict:
    return {
        "kind": "action_groupoid",
        "group": group_payload(a.group),
        "set": list(a.carrier),
        "action": [[g, x, a.act[(g, x)]] for g in a.group.elements for x in a.carrier],
    }


def functor_doc(f: GroupoidFunctor, dom: str, cod: str, group_hom: dict[str, str] | None = None) -> dict:
    doc = {
        "kind": "functor",
        "dom": dom,
        "cod": cod,
        "obj_map": dict(f.obj_map),
        "arr_map": dict(f.arr_map),
    }
    if group_hom is not None:
        doc["equivariant"] = {"group_hom": dict(group_hom)}
    return doc


def span_doc(left: dict, right: dict) -> dict:
    return {"kind": "span", "left": left, "right": right}


def transformation_doc(source: dict, target: dict, eta: NaturalTransformation) -> dict:
    return {
        "kind": "transformation",
        "source": source,
        "target": target,
        "component": dict(eta.component),
    }


# --- decoding -------------------------------------------------------------


def parse_groupoid(obj: dict, where: str = "groupoid") -> FiniteGroupoid:
    objects = tuple(_str_list(obj, "objects", where))
    arrow_rows = _need(obj, "arrows", where, list)
    arrows, src, tgt = [], {}, {}
    for i, row in enumerate(arrow_rows):
        if not isinstance(row, dict):
            raise SchemaError(f"{where}: arrows[{i}] must be an object")
        arrows.append(str(_need(row, "id", f"{where}.arrows[{i}]", str)))
        src[arrows[-1]] = str(_need(row, "src", f"{where}.arrows[{i}]", str))
        tgt[arrows[-1]] = str(_need(row, "tgt", f"{where}.arrows[{i}]", str))
    compose = _triple_rows(obj, "compose", where)
    unit = _str_map(obj, "identity", where)
    inv = _str_map(obj, "inverse", where)
    g = FiniteGroupoid(objects, tuple(arrows), src, tgt, compose, unit, inv)
    try:  # undeclared ids are input errors; axioms are verdicts, left to validate_groupoid
        check_groupoid_declarations(g)
    except DanglingIdError as exc:
        raise SchemaError(f"{where}: {exc}") from None
    return g


def parse_group(obj: dict, where: str = "group") -> FiniteGroup:
    elements = tuple(_str_list(obj, "elements", where))
    mul = _triple_rows(obj, "mul", where)
    unit = str(_need(obj, "unit", where, str))
    inv = {a: next((b for b in elements if mul.get((a, b)) == unit), None) for a in elements}
    g = FiniteGroup(elements, mul, unit, inv)
    try:  # as for groupoids: malformed tables are input errors, axioms are verdicts
        check_group_declarations(g)
    except DanglingIdError as exc:
        raise SchemaError(f"{where}: {exc}") from None
    for a, b in inv.items():  # searched before the check, named only once the table is total
        if b is None:
            raise SchemaError(f"{where}: element {a!r} has no inverse under the stated table")
    return g


def parse_action_groupoid(obj: dict, where: str = "action_groupoid") -> ActionGroupoid:
    group = parse_group(_need(obj, "group", where, dict), f"{where}.group")
    validate_group(group).require(PreconditionError, f"{where}.group is not a group")
    carrier = tuple(_str_list(obj, "set", where))
    return action_groupoid(group, carrier, _triple_rows(obj, "action", where))


@dataclass
class Bundle:
    """Named documents resolved to domain values, in declaration order.

    A lookup of name ``None`` gives the bundle's only document.  ``functor``
    gives the plain functor and refuses one that breaks a functor axiom;
    ``equivariant`` gives the equivariant functor, recovering the group map of
    a document without one.  ``functor``, ``equivariant``, ``span`` and
    ``diagram`` first check the plain groupoid documents their value is built
    on, and ``group`` refuses a group document that breaks an axiom.
    """

    entries: dict[str, object] = field(default_factory=dict)
    docs: dict[str, dict] = field(default_factory=dict)

    def groupoid(self, name: str | None) -> FiniteGroupoid:
        name, value = self._lookup(name, "groupoid")
        if isinstance(value, ActionGroupoid):
            return value.induced
        if isinstance(value, FiniteGroupoid):
            return value
        raise SchemaError(f"{name!r} is not a groupoid document")

    def action(self, name: str | None) -> ActionGroupoid:
        name, value = self._lookup(name, "action groupoid")
        if not isinstance(value, ActionGroupoid):
            raise SchemaError(f"{name!r} is not an action_groupoid document")
        return value

    def group(self, name: str | None) -> FiniteGroup:
        name, value = self._lookup(name, "group")
        if isinstance(value, ActionGroupoid):
            return value.group
        if not isinstance(value, FiniteGroup):
            raise SchemaError(f"{name!r} is not a group document")
        validate_group(value).require(PreconditionError, f"{name!r} is not a group")
        return value

    def functor(self, name: str | None) -> GroupoidFunctor:
        name, value = self._functor_entry(name)
        plain = _as_plain_functor(value)
        validate_functor(plain).require(PreconditionError, f"{name!r} is not a functor")
        return plain

    def equivariant(self, name: str | None) -> EquivariantFunctor:
        name, value = self._functor_entry(name)
        if isinstance(value, EquivariantFunctor):
            return value
        check = as_equivariant(*self.actions_of(name), value)
        if not check.ok:
            raise SchemaError(f"{name!r} is not equivariant (witness arrow {check.witness!r})")
        return check.functor

    def span(self, name: str | None) -> "RawSpan":
        name, value = self._lookup(name, "span")
        if not isinstance(value, RawSpan):
            raise SchemaError(f"{name!r} is not a span document")
        self.require_groupoids(value.left.dom, value.left.cod, value.right.cod)
        return value

    def diagram(self, name: str | None) -> TwoCellDiagram:
        name, value = self._lookup(name, "diagram")
        if not isinstance(value, TwoCellDiagram):
            raise SchemaError(f"{name!r} is not a two_cell_diagram document")
        self.require_groupoids(
            value.mediator,
            *(value.top.middle, value.top.left_foot, value.top.right_foot),
            *(value.bottom.middle, value.bottom.left_foot, value.bottom.right_foot),
        )
        return value

    def validate(self, name: str) -> tuple[Violation, ...]:
        """Every axiom violation of document ``name``, found by its kind's validator."""
        name, value = self._lookup(name, "document")
        return _KINDS[self.docs[name]["kind"]].validate(value).violations

    def actions_of(self, name: str | None) -> tuple[ActionGroupoid, ActionGroupoid]:
        """The action groupoids at the two ends of functor or span document ``name``:
        a functor's domain and codomain, a span's left and right feet."""
        name, _ = self._lookup(name, "functor or span")
        doc = self.docs[name]
        if doc["kind"] == "functor":
            return self.action(doc["dom"]), self.action(doc["cod"])
        if doc["kind"] != "span":
            raise SchemaError(f"{name!r} is not a functor or span document")
        left, right = (self.docs[leg] if isinstance(leg, str) else leg for leg in (doc["left"], doc["right"]))
        return self.action(left["cod"]), self.action(right["cod"])

    def require_groupoids(self, *groupoids: FiniteGroupoid) -> None:
        """Raise :class:`PreconditionError` naming the first plain groupoid document among
        ``groupoids`` that breaks an axiom; action groupoids were verified when parsed."""
        for name, value in self.entries.items():
            if isinstance(value, FiniteGroupoid) and any(value is g for g in groupoids):
                validate_groupoid(value).require(PreconditionError, f"{name!r} is not a groupoid")

    def _functor_entry(self, name: str | None) -> tuple[str, GroupoidFunctor | EquivariantFunctor]:
        """The resolved name and value of a functor document, its groupoids checked."""
        name, value = self._lookup(name, "functor")
        if not isinstance(value, (GroupoidFunctor, EquivariantFunctor)):
            raise SchemaError(f"{name!r} is not a functor document")
        plain = _as_plain_functor(value)
        self.require_groupoids(plain.dom, plain.cod)
        return name, value

    def _lookup(self, name: str | None, what: str) -> tuple[str, object]:
        """The name and value of document ``name``, or of the only document when
        ``name`` is ``None``; ``what`` names the kind expected in the refusal.
        The value is ``None`` for a document of a kind not parsed yet."""
        if name is None:
            if len(self.entries) == 1:
                return next(iter(self.entries.items()))
            if not self.entries:
                raise SchemaError(f"no documents in the bundle; expected a {what}")
            raise SchemaError(f"several documents in the bundle; name the {what} explicitly")
        if name not in self.docs:
            raise SchemaError(f"no document named {name!r} in the bundle")
        return name, self.entries.get(name)


def _ref(bundle: Bundle, obj: dict, key: str, where: str, kind: str):
    """Field ``key`` of ``obj`` resolved: a ``kind`` document given inline or by sibling name."""
    raw = _need(obj, key, where, (dict, str))
    if isinstance(raw, dict):
        return _KINDS[kind].parse(bundle, raw, f"{where}.{key}")
    _, value = bundle._lookup(raw, kind)
    if bundle.docs[raw]["kind"] != kind:
        raise SchemaError(f"{where}: {key!r} does not name a {kind} document")
    return value


def _parse_functor(bundle: Bundle, obj: dict, where: str):
    dom_name = str(_need(obj, "dom", where, str))
    cod_name = str(_need(obj, "cod", where, str))
    dom = bundle.groupoid(dom_name)
    cod = bundle.groupoid(cod_name)
    functor = GroupoidFunctor(dom, cod, _str_map(obj, "obj_map", where), _str_map(obj, "arr_map", where))
    # maps must be total with declared values; deeper axioms are verdicts,
    # reported by the validate command rather than refused here
    check_functor_declarations(functor)
    if "equivariant" in obj:
        ann = _need(obj, "equivariant", where, dict)
        hom = _str_map(ann, "group_hom", f"{where}.equivariant")
        eq = equivariant_functor(bundle.action(dom_name), bundle.action(cod_name), hom, dict(functor.obj_map))
        if eq.functor != functor:
            raise SchemaError(f"{where}: arr_map disagrees with the equivariant annotation")
        return eq
    return functor


def _as_plain_functor(value) -> GroupoidFunctor:
    return value.functor if isinstance(value, EquivariantFunctor) else value


def _inline_functor(bundle: Bundle, obj: dict, key: str, where: str) -> GroupoidFunctor:
    return _as_plain_functor(_parse_functor(bundle, _need(obj, key, where, dict), f"{where}.{key}"))


@dataclass(frozen=True)
class RawSpan:
    """A parsed span document; invariants are checked when it is built."""

    left: GroupoidFunctor
    right: GroupoidFunctor

    def build(self) -> GeneralizedMorphism:
        validate_functor(self.left).require(PreconditionError, "span left leg is not a functor")
        validate_functor(self.right).require(PreconditionError, "span right leg is not a functor")
        return GeneralizedMorphism(self.left, self.right)


def legs_doc(span, middle: str) -> dict:
    """The span document of ``span``: legs from the groupoid named ``middle`` to
    the ones named ``left_foot`` and ``right_foot``."""
    return span_doc(functor_doc(span.left, middle, "left_foot"), functor_doc(span.right, middle, "right_foot"))


def _parse_span(bundle: Bundle, obj: dict, where: str) -> RawSpan:
    left, right = (_as_plain_functor(_ref(bundle, obj, side, where, "functor")) for side in ("left", "right"))
    if left.dom != right.dom:
        raise SchemaError(f"{where}: span legs have different middles")
    return RawSpan(left, right)


def _validate_span(span: RawSpan) -> ValidationReport:
    """Both legs are functors, and the left one is a weak equivalence."""
    for leg in (span.left, span.right):
        rep = validate_functor(leg)
        if not rep.ok:
            return rep
    we = weak_equivalence_report(span.left)
    if we.is_weak_equivalence:
        return ValidationReport.collect(())
    return ValidationReport.collect([Violation("left-leg-weak-equivalence", (we.es_witness, we.ff_witness))])


def diagram_doc(d: TwoCellDiagram, mediator: str, top_middle: str, bottom_middle: str) -> dict:
    """The two_cell_diagram document of ``d`` with inline spans (see :func:`legs_doc`);
    ``mediator``, ``top_middle`` and ``bottom_middle`` name its groupoids."""
    return {
        "kind": "two_cell_diagram",
        "top": legs_doc(d.top, top_middle),
        "bottom": legs_doc(d.bottom, bottom_middle),
        "mediator": mediator,
        "alpha": functor_doc(d.to_top, mediator, top_middle),
        "alpha_prime": functor_doc(d.to_bottom, mediator, bottom_middle),
        "eta1": {"component": dict(d.left_cell.component)},
        "eta2": {"component": dict(d.right_cell.component)},
    }


def _parse_diagram(bundle: Bundle, obj: dict, where: str) -> TwoCellDiagram:
    top = _ref(bundle, obj, "top", where, "span").build()
    bottom = _ref(bundle, obj, "bottom", where, "span").build()
    mediator = _need(obj, "mediator", where, str)
    mediator_groupoid = bundle.groupoid(mediator)
    alpha = _inline_functor(bundle, obj, "alpha", where)
    if alpha.dom != mediator_groupoid:
        raise SchemaError(f"{where}: mediator {mediator!r} is not the domain of 'alpha'")
    alpha_prime = _inline_functor(bundle, obj, "alpha_prime", where)
    eta1 = _str_map(_need(obj, "eta1", where, dict), "component", f"{where}.eta1")
    eta2 = _str_map(_need(obj, "eta2", where, dict), "component", f"{where}.eta2")
    return TwoCellDiagram(
        top=top,
        bottom=bottom,
        to_top=alpha,
        to_bottom=alpha_prime,
        left_cell=NaturalTransformation(
            compose_functors(top.left, alpha), compose_functors(bottom.left, alpha_prime), eta1
        ),
        right_cell=NaturalTransformation(
            compose_functors(top.right, alpha), compose_functors(bottom.right, alpha_prime), eta2
        ),
    )


def _parse_transformation(bundle: Bundle, obj: dict, where: str) -> NaturalTransformation:
    source = _inline_functor(bundle, obj, "source", where)
    target = _inline_functor(bundle, obj, "target", where)
    return NaturalTransformation(source, target, _str_map(obj, "component", where))


@dataclass(frozen=True)
class _Kind:
    """How documents of one kind are read and checked.  A kind is parsed after
    every kind of a lower ``phase``, since its documents may name theirs."""

    phase: int
    parse: Callable[[Bundle, dict, str], object]
    validate: Callable[[object], ValidationReport]


# the one place a document kind is declared
_KINDS = {
    "groupoid": _Kind(0, lambda bundle, obj, where: parse_groupoid(obj, where), validate_groupoid),
    "group": _Kind(0, lambda bundle, obj, where: parse_group(obj, where), validate_group),
    "action_groupoid": _Kind(
        0, lambda bundle, obj, where: parse_action_groupoid(obj, where), lambda a: validate_groupoid(a.induced)
    ),
    "functor": _Kind(1, _parse_functor, lambda f: validate_functor(_as_plain_functor(f))),
    "span": _Kind(2, _parse_span, _validate_span),
    "transformation": _Kind(3, _parse_transformation, validate_nat_trans),
    "two_cell_diagram": _Kind(3, _parse_diagram, validate_two_cell),
}


def parse_bundle(doc: dict) -> Bundle:
    """Resolve a bundle (or a single document) into domain values."""
    kind = _need(doc, "kind", "document", str)
    if kind != "bundle":
        named = {"document": doc}
    else:
        named = _need(doc, "documents", "bundle", dict)
        if not all(isinstance(k, str) and isinstance(v, dict) for k, v in named.items()):
            raise SchemaError("bundle: 'documents' must map names to documents")
    bundle = Bundle()
    for name, entry in named.items():
        entry_kind = _need(entry, "kind", name, str)
        if entry_kind not in _KINDS:
            raise SchemaError(f"{name}: unknown document kind {entry_kind!r}")
        bundle.docs[name] = entry
    # a stable sort: declaration order within each phase
    for name, entry in sorted(bundle.docs.items(), key=lambda item: _KINDS[item[1]["kind"]].phase):
        bundle.entries[name] = _KINDS[entry["kind"]].parse(bundle, entry, name)
    return bundle
