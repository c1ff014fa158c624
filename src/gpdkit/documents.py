"""Self-describing JSON documents for every value the tool reads or writes.

One format for everything: a document is a JSON object with a ``kind`` tag
(groupoid, action_groupoid, group, functor, span, two_cell_diagram,
transformation, suite_config), and a bundle maps names to documents so that
functors can reference their endpoint groupoids by sibling name.
Serialization is canonical: sorted keys, arrays in declaration order,
two-space indentation, UTF-8, newline-terminated, so parse followed by
serialize is the identity on canonical inputs.  :func:`dumps` writes the
bytes the standard library's encoder gives with ``sort_keys=True``,
``indent=2`` and ``ensure_ascii=False``, plus a newline, in time linear in
the output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .core import (
    ActionGroupoid,
    DanglingIdError,
    FiniteGroup,
    FiniteGroupoid,
    GroupoidFunctor,
    NaturalTransformation,
    PreconditionError,
    action_groupoid,
    check_functor_declarations,
    check_group_declarations,
    check_groupoid_declarations,
    compose_functors,
    validate_functor,
    validate_group,
    validate_groupoid,
)
from .equivariant import EquivariantFunctor, equivariant_functor
from .localization import GeneralizedMorphism, TwoCellDiagram
from .workbench import InstanceBudget

_encode_str = json.encoder.encode_basestring

KINDS = (
    "groupoid",
    "action_groupoid",
    "group",
    "functor",
    "span",
    "two_cell_diagram",
    "transformation",
    "suite_config",
    "bundle",
)


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
        sep = "{" + inner
        for key, item in sorted(value.items()):
            parts.append(sep + _encode_str(key) + ": ")
            _write(item, inner, parts)
            sep = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        try:  # a list of only strings, in one join; the encoder refuses anything else
            parts.append("[" + inner + ("," + inner).join(map(_encode_str, value)) + newline + "]")
            return
        except TypeError:
            pass
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            _write(item, inner, parts)
            sep = "," + inner
        parts.append(newline + "]")
    else:
        parts.append(json.dumps(value))


def loads(data: bytes | str) -> dict:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from None
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


def _triple_rows(obj: dict, key: str, where: str) -> list[list[str]]:
    value = _need(obj, key, where, list)
    for row in value:
        if not (isinstance(row, list) and len(row) == 3 and all(isinstance(v, str) for v in row)):
            raise SchemaError(f"{where}: field {key!r} must be a list of [a, b, c] string triples")
    return value


# --- encoding -------------------------------------------------------------


def groupoid_doc(g: FiniteGroupoid) -> dict:
    return {
        "kind": "groupoid",
        "objects": list(g.objects),
        "arrows": [{"id": a, "src": g.src[a], "tgt": g.tgt[a]} for a in g.arrows],
        "compose": _compose_rows(g),
        "identity": dict(g.unit),
        "inverse": dict(g.inv),
    }


def _compose_rows(g: FiniteGroupoid) -> list[list[str]]:
    """``[a2, a1, a2∘a1]`` for every pair of declared positions of a compose key,
    ordered by the position of ``a2``, then of ``a1``."""
    positions: dict[str, list[int]] = {}
    for i, a in enumerate(g.arrows):
        positions.setdefault(a, []).append(i)
    rows = sorted(
        (i2, i1, [a2, a1, a3])
        for (a2, a1), a3 in g.compose.items()
        for i2 in positions.get(a2, ())
        for i1 in positions.get(a1, ())
    )
    return [row for _, _, row in rows]


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
    compose = {}
    for a2, a1, a3 in _triple_rows(obj, "compose", where):
        compose[(a2, a1)] = a3
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
    mul = {}
    for a, b, c in _triple_rows(obj, "mul", where):
        mul[(a, b)] = c
    unit = str(_need(obj, "unit", where, str))
    inv: dict[str, str] = {}
    for a in elements:
        hit = next((b for b in elements if mul.get((a, b)) == unit), None)
        if hit is None:
            raise SchemaError(f"{where}: element {a!r} has no inverse under the stated table")
        inv[a] = hit
    g = FiniteGroup(elements, mul, unit, inv)
    try:  # as for groupoids: malformed tables are input errors, axioms are verdicts
        check_group_declarations(g)
    except DanglingIdError as exc:
        raise SchemaError(f"{where}: {exc}") from None
    return g


def parse_action_groupoid(obj: dict, where: str = "action_groupoid") -> ActionGroupoid:
    group = parse_group(_need(obj, "group", where, dict), f"{where}.group")
    rep = validate_group(group)
    if not rep.ok:
        raise PreconditionError(f"{where}.group is not a group: {rep.violations[0]}")
    carrier = tuple(_str_list(obj, "set", where))
    act = {}
    for g, x, y in _triple_rows(obj, "action", where):
        act[(g, x)] = y
    return action_groupoid(group, carrier, act)


@dataclass
class Bundle:
    """Named documents resolved to domain values, in declaration order.

    ``functor``, ``span`` and ``diagram`` are the lookups commands make; each
    first checks the plain groupoid documents its value is built on, and
    ``group`` refuses a group document that breaks an axiom.
    """

    entries: dict[str, object] = field(default_factory=dict)
    docs: dict[str, dict] = field(default_factory=dict)

    def groupoid(self, name: str) -> FiniteGroupoid:
        value = self._lookup(name)
        if isinstance(value, ActionGroupoid):
            return value.induced
        if isinstance(value, FiniteGroupoid):
            return value
        raise SchemaError(f"{name!r} is not a groupoid document")

    def action(self, name: str) -> ActionGroupoid:
        value = self._lookup(name)
        if not isinstance(value, ActionGroupoid):
            raise SchemaError(f"{name!r} is not an action_groupoid document")
        return value

    def group(self, name: str) -> FiniteGroup:
        value = self._lookup(name)
        if isinstance(value, ActionGroupoid):
            return value.group
        if not isinstance(value, FiniteGroup):
            raise SchemaError(f"{name!r} is not a group document")
        rep = validate_group(value)
        if not rep.ok:
            raise PreconditionError(f"{name!r} is not a group: {rep.violations[0]}")
        return value

    def functor(self, name: str) -> GroupoidFunctor | EquivariantFunctor:
        value = self._lookup(name)
        if not isinstance(value, (GroupoidFunctor, EquivariantFunctor)):
            raise SchemaError(f"{name!r} is not a functor document")
        plain = _as_plain_functor(value)
        self.require_groupoids(plain.dom, plain.cod)
        return value

    def span(self, name: str) -> "RawSpan":
        value = self._lookup(name)
        if not isinstance(value, RawSpan):
            raise SchemaError(f"{name!r} is not a span document")
        self.require_groupoids(value.left.dom, value.left.cod, value.right.cod)
        return value

    def diagram(self, name: str) -> TwoCellDiagram:
        value = self._lookup(name)
        if not isinstance(value, TwoCellDiagram):
            raise SchemaError(f"{name!r} is not a two_cell_diagram document")
        self.require_groupoids(
            value.mediator,
            *(value.top.middle, value.top.left_foot, value.top.right_foot),
            *(value.bottom.middle, value.bottom.left_foot, value.bottom.right_foot),
        )
        return value

    def require_groupoids(self, *groupoids: FiniteGroupoid) -> None:
        """Raise :class:`PreconditionError` naming the first plain groupoid document among
        ``groupoids`` that breaks an axiom; action groupoids were verified when parsed."""
        for name, value in self.entries.items():
            if isinstance(value, FiniteGroupoid) and any(value is g for g in groupoids):
                rep = validate_groupoid(value)
                if not rep.ok:
                    raise PreconditionError(f"{name!r} is not a groupoid: {rep.violations[0]}")

    def _lookup(self, name: str):
        if name not in self.entries:
            raise SchemaError(f"no document named {name!r} in the bundle")
        return self.entries[name]


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


@dataclass(frozen=True)
class RawSpan:
    """A parsed span document; invariants are checked when it is built."""

    left: GroupoidFunctor
    right: GroupoidFunctor

    def build(self) -> GeneralizedMorphism:
        require_functor(self.left, "span left leg")
        require_functor(self.right, "span right leg")
        return GeneralizedMorphism(self.left, self.right)


def require_functor(functor: GroupoidFunctor, what: str) -> None:
    """Raise :class:`PreconditionError` naming the first violation unless ``functor`` is a functor."""
    rep = validate_functor(functor)
    if not rep.ok:
        raise PreconditionError(f"{what} is not a functor: {rep.violations[0]}")


def _parse_span(bundle: Bundle, obj: dict, where: str) -> RawSpan:
    sides = {}
    for side in ("left", "right"):
        raw = _need(obj, side, where, (dict, str))
        if isinstance(raw, str):
            value = bundle._lookup(raw)
            if isinstance(value, (GroupoidFunctor, EquivariantFunctor)):
                sides[side] = _as_plain_functor(value)
            else:
                raise SchemaError(f"{where}: {side!r} does not name a functor document")
        else:
            sides[side] = _as_plain_functor(_parse_functor(bundle, raw, f"{where}.{side}"))
    if sides["left"].dom != sides["right"].dom:
        raise SchemaError(f"{where}: span legs have different middles")
    return RawSpan(sides["left"], sides["right"])


def _parse_diagram(bundle: Bundle, obj: dict, where: str) -> TwoCellDiagram:
    def span_of(key: str) -> GeneralizedMorphism:
        raw = _need(obj, key, where, (dict, str))
        if isinstance(raw, str):
            value = bundle._lookup(raw)
            if not isinstance(value, RawSpan):
                raise SchemaError(f"{where}: {key!r} does not name a span document")
            return value.build()
        return _parse_span(bundle, raw, f"{where}.{key}").build()

    top = span_of("top")
    bottom = span_of("bottom")
    mediator = _need(obj, "mediator", where, str)
    mediator_groupoid = bundle.groupoid(mediator)
    alpha = _as_plain_functor(_parse_functor(bundle, _need(obj, "alpha", where, dict), f"{where}.alpha"))
    if alpha.dom != mediator_groupoid:
        raise SchemaError(f"{where}: mediator {mediator!r} is not the domain of 'alpha'")
    alpha_prime = _as_plain_functor(
        _parse_functor(bundle, _need(obj, "alpha_prime", where, dict), f"{where}.alpha_prime")
    )
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
    source = _as_plain_functor(_parse_functor(bundle, _need(obj, "source", where, dict), f"{where}.source"))
    target = _as_plain_functor(_parse_functor(bundle, _need(obj, "target", where, dict), f"{where}.target"))
    return NaturalTransformation(source, target, _str_map(obj, "component", where))


def parse_suite_config(obj: dict, where: str = "suite_config") -> InstanceBudget:
    fields = {}
    for key in ("max_group_order", "max_carrier_size", "max_objects", "sample_seed"):
        if key in obj:
            if not isinstance(obj[key], int):
                raise SchemaError(f"{where}: field {key!r} must be an integer")
            fields[key] = obj[key]
    return InstanceBudget(**fields)


_ORDER = {"group": 0, "groupoid": 0, "action_groupoid": 0, "functor": 1, "span": 2, "transformation": 3, "two_cell_diagram": 3, "suite_config": 0}


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
        if entry_kind not in KINDS or entry_kind == "bundle":
            raise SchemaError(f"{name}: unknown document kind {entry_kind!r}")
        bundle.docs[name] = entry
    for phase in (0, 1, 2, 3):
        for name, entry in bundle.docs.items():
            if _ORDER[entry["kind"]] != phase:
                continue
            where = name
            kind = entry["kind"]
            if kind == "groupoid":
                bundle.entries[name] = parse_groupoid(entry, where)
            elif kind == "group":
                bundle.entries[name] = parse_group(entry, where)
            elif kind == "action_groupoid":
                bundle.entries[name] = parse_action_groupoid(entry, where)
            elif kind == "suite_config":
                bundle.entries[name] = parse_suite_config(entry, where)
            elif kind == "functor":
                bundle.entries[name] = _parse_functor(bundle, entry, where)
            elif kind == "span":
                bundle.entries[name] = _parse_span(bundle, entry, where)
            elif kind == "transformation":
                bundle.entries[name] = _parse_transformation(bundle, entry, where)
            elif kind == "two_cell_diagram":
                bundle.entries[name] = _parse_diagram(bundle, entry, where)
    return bundle
