"""Command-line interface: file ingestion, dispatch, and certificate emission.

Exit codes: 0 when the property holds or the construction succeeded, 1 for a
definite negative (always with a witness), 2 for input errors, 3 for an
internal error (a failed postcondition or any other unexpected exception).
All output is canonical JSON so identical inputs give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import documents as docs
from .catalog import klein_four_group
from .core import (
    ActionGroupoid,
    DanglingIdError,
    MismatchError,
    PreconditionError,
    action_groupoid,
    fixed_point,
    stabilizer,
    subgroup,
    validate_groupoid,
)
from .equivariant import (
    EquivariantFunctor,
    as_equivariant,
    balanced_product,
    decompose,
    equivariant_anafunctorify,
    property_report,
    PROPERTY_NAMES,
    quotient_action,
    quotient_factorization,
)
from .localization import (
    anafunctorify,
    compose_anafunctors,
    compose_generalized,
    normalize_two_cell,
    two_cell_difference,
    validate_two_cell,
)
from .morita import (
    morita_oracle,
    skeleton_invariant,
    strict_pullback,
    weak_equivalence_report,
    weak_pullback,
)
from .workbench import InstanceBudget, run_law_suite


def _emit(doc: dict | bytes, out: str | None) -> None:
    """Write ``doc`` as canonical JSON (bytes as they are) to ``out``, or to stdout."""
    data = doc if isinstance(doc, bytes) else docs.dumps(doc)
    if out:
        with open(out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)


def _load(path: str) -> docs.Bundle:
    with open(path, "rb") as fh:
        return docs.parse_bundle(docs.loads(fh.read()))


def _single_name(bundle: docs.Bundle, name: str | None, what: str) -> str:
    if name is not None:
        return name
    if len(bundle.entries) == 1:
        return next(iter(bundle.entries))
    if not bundle.entries:
        raise docs.SchemaError(f"no documents in the bundle; expected a {what}")
    raise docs.SchemaError(f"several documents in the bundle; name the {what} explicitly")


def _functor_with_actions(bundle: docs.Bundle, name: str):
    """An equivariant functor, recovering the group map when not annotated."""
    value = bundle.functor(name)
    if isinstance(value, EquivariantFunctor):
        return value
    check = as_equivariant(*bundle.actions_of(name), value)
    if not check.ok:
        raise docs.SchemaError(f"{name!r} is not equivariant (witness arrow {check.witness!r})")
    return check.functor


def _cmd_validate(args) -> int:
    try:
        bundle = _load(args.file)
    except PreconditionError as exc:
        _emit({"kind": "validation_report", "ok": False, "violations": [{"axiom": "construction", "witness": str(exc)}]}, args.out)
        return 1
    names = list(bundle.docs) if args.name is None else [args.name]
    violations = [
        {"document": name, "axiom": v.axiom, "witness": repr(v.witness)} for name in names for v in bundle.validate(name)
    ]
    _emit({"kind": "validation_report", "ok": not violations, "violations": violations}, args.out)
    return 0 if not violations else 1


def _cmd_check_we(args) -> int:
    bundle = _load(args.file)
    name = _single_name(bundle, args.functor, "functor")
    functor = bundle.functor(name)
    if isinstance(functor, EquivariantFunctor):
        functor = functor.functor
    docs.require_functor(functor, repr(name))
    rep = weak_equivalence_report(functor)
    _emit(
        {
            "kind": "we_report",
            "es_map_surjective": rep.es_map_surjective,
            "ff_map_bijective": rep.ff_map_bijective,
            "object_map_surjective": rep.object_map_surjective,
            "is_weak_equivalence": rep.is_weak_equivalence,
            "is_ssw": rep.is_ssw,
            "witnesses": {
                "es": rep.es_witness,
                "ff": list(rep.ff_witness) if rep.ff_witness else None,
                "object_map": rep.obj_witness,
            },
        },
        args.out,
    )
    return 0 if rep.is_weak_equivalence else 1


def _cmd_check_properties(args) -> int:
    bundle = _load(args.file)
    name = _single_name(bundle, args.action, "action groupoid")
    action = bundle.action(name)
    requested = tuple(args.props.split(",")) if args.props else PROPERTY_NAMES
    report = property_report(action, requested)
    verdicts = {
        prop: {"value": v.value, "trivial": v.trivial, "witness": list(v.witness) if v.witness else None}
        for prop, v in report.selected().items()
    }
    _emit({"kind": "property_report", "verdicts": verdicts}, args.out)
    return 0 if all(v["value"] for v in verdicts.values()) else 1


def _cmd_pullback(args) -> int:
    bundle = _load(args.file)
    phi = bundle.functor(args.phi)
    psi = bundle.functor(args.psi)
    phi = phi.functor if isinstance(phi, EquivariantFunctor) else phi
    psi = psi.functor if isinstance(psi, EquivariantFunctor) else psi
    for name, functor in ((args.phi, phi), (args.psi, psi)):
        docs.require_functor(functor, repr(name))
    out = {
        "dom1": docs.groupoid_doc(phi.dom),
        "dom2": docs.groupoid_doc(psi.dom),
    }
    if args.mode == "strict":
        pb = strict_pullback(phi, psi)
        out["apex"] = docs.groupoid_doc(pb.apex)
        out["pr1"] = docs.functor_doc(pb.pr1, "apex", "dom1")
        out["pr2"] = docs.functor_doc(pb.pr2, "apex", "dom2")
    else:
        pb = weak_pullback(phi, psi)
        out["apex"] = docs.groupoid_doc(pb.apex)
        out["pr1"] = docs.functor_doc(pb.pr1, "apex", "dom1")
        out["pr3"] = docs.functor_doc(pb.pr3, "apex", "dom2")
        out["codomain"] = docs.groupoid_doc(phi.cod)
        out["comparison"] = docs.transformation_doc(
            docs.functor_doc(pb.comparison.source, "apex", "codomain"),
            docs.functor_doc(pb.comparison.target, "apex", "codomain"),
            pb.comparison,
        )
    _emit({"kind": "bundle", "documents": out}, args.out)
    return 0


def _cmd_compose(args, strict: bool) -> int:
    from .localization import as_anafunctor

    bundle = _load(args.file)
    f = bundle.span(args.first).build()
    g = bundle.span(args.second).build()
    if strict:
        composite = compose_anafunctors(as_anafunctor(f), as_anafunctor(g))
    else:
        composite = compose_generalized(f, g)
    out = {
        "middle": docs.groupoid_doc(composite.middle),
        "left_foot": docs.groupoid_doc(composite.left_foot),
        "right_foot": docs.groupoid_doc(composite.right_foot),
        "composite": docs.legs_doc(composite, "middle"),
    }
    _emit({"kind": "bundle", "documents": out}, args.out)
    return 0


def _cmd_decompose(args) -> int:
    bundle = _load(args.file)
    name = _single_name(bundle, args.functor, "functor")
    functor = _functor_with_actions(bundle, name)
    result = decompose(functor)
    out = {
        "domain": docs.action_doc(functor.dom_action),
        "codomain": docs.action_doc(functor.cod_action),
        "middle": docs.action_doc(result.middle),
        "kernel": docs.group_doc(result.kernel),
        "projection": docs.functor_doc(result.projection.functor, "domain", "middle", result.projection.group_hom),
        "inclusion": docs.functor_doc(result.inclusion.functor, "middle", "codomain", result.inclusion.group_hom),
    }
    _emit({"kind": "bundle", "documents": out}, args.out)
    return 0


def _cmd_quotient_factorize(args) -> int:
    bundle = _load(args.file)
    name = _single_name(bundle, args.functor, "functor")
    functor = _functor_with_actions(bundle, name)
    result = quotient_factorization(functor)
    out = {
        "domain": docs.action_doc(functor.dom_action),
        "codomain": docs.action_doc(functor.cod_action),
        "kernel": docs.group_doc(result.kernel),
        "quotient": docs.action_doc(result.projection.cod_action),
        "projection": docs.functor_doc(result.projection.functor, "domain", "quotient", result.projection.group_hom),
        "iso": docs.functor_doc(result.iso.functor, "quotient", "codomain", result.iso.group_hom),
    }
    _emit({"kind": "bundle", "documents": out}, args.out)
    return 0


def _cmd_balanced_product(args) -> int:
    bundle = _load(args.file)
    big = bundle.group(args.group)
    inner = bundle.action(args.action)
    result = balanced_product(big, inner)
    out = {
        "inner": docs.action_doc(inner),
        "product": docs.action_doc(result.product),
        "inclusion": docs.functor_doc(result.inclusion.functor, "inner", "product", result.inclusion.group_hom),
    }
    _emit({"kind": "bundle", "documents": out}, args.out)
    return 0


def _cmd_anafunctorify(args) -> int:
    bundle = _load(args.file)
    name = _single_name(bundle, args.span, "span")
    span = bundle.span(name).build()
    entries = {
        "left_foot": docs.groupoid_doc(span.left_foot),
        "right_foot": docs.groupoid_doc(span.right_foot),
        "old_middle": docs.groupoid_doc(span.middle),
    }
    if args.equivariant:
        result = equivariant_anafunctorify(span, *bundle.actions_of(name))
        entries["new_middle"] = docs.action_doc(result.middle_action)
    else:
        result = anafunctorify(span)
        entries["new_middle"] = docs.groupoid_doc(result.anafunctor.middle)
    entries["anafunctor"] = docs.legs_doc(result.anafunctor, "new_middle")
    entries["witness"] = docs.diagram_doc(result.witness, "old_middle", "old_middle", "new_middle")
    _emit({"kind": "bundle", "documents": entries}, args.out)
    return 0


def _cmd_normalize(args) -> int:
    bundle = _load(args.file)
    name = _single_name(bundle, args.diagram, "diagram")
    diagram = bundle.diagram(name)
    cell = normalize_two_cell(diagram)
    pb_left = docs.functor_doc(cell.transformation.source, "pullback", "right_foot")
    pb_right = docs.functor_doc(cell.transformation.target, "pullback", "right_foot")
    entries = {
        "left_foot": docs.groupoid_doc(cell.top.left_foot),
        "right_foot": docs.groupoid_doc(cell.top.right_foot),
        "top_middle": docs.groupoid_doc(cell.top.middle),
        "bottom_middle": docs.groupoid_doc(cell.bottom.middle),
        "pullback": docs.groupoid_doc(cell.transformation.source.dom),
        "top": docs.legs_doc(cell.top, "top_middle"),
        "bottom": docs.legs_doc(cell.bottom, "bottom_middle"),
        "transformation": docs.transformation_doc(pb_left, pb_right, cell.transformation),
    }
    _emit({"kind": "bundle", "documents": entries}, args.out)
    return 0


def _cmd_cells_equal(args) -> int:
    bundle = _load(args.file)
    d1 = bundle.diagram(args.first)
    d2 = bundle.diagram(args.second)
    for label, d in (("first", d1), ("second", d2)):
        rep = validate_two_cell(d)
        if not rep.ok:
            raise PreconditionError(f"{label} diagram does not validate: {rep.violations[0]}")
    difference = two_cell_difference(d1, d2)
    witness = None
    if difference is not None:
        at, first, second = difference
        witness = {"at": at, "first": first, "second": second}
    _emit({"kind": "two_cell_equality", "equal": difference is None, "witness": witness}, args.out)
    return 0 if difference is None else 1


def _cmd_skeleton(args) -> int:
    bundle = _load(args.file)
    name = _single_name(bundle, args.name, "groupoid")
    g = bundle.groupoid(name)
    bundle.require_groupoids(g)
    sk = skeleton_invariant(g)
    _emit(
        {
            "kind": "skeleton",
            "components": [
                {"size": size, "isotropy_order": iso.order, "isotropy": docs.group_payload(iso)}
                for size, iso in sk.components
            ],
        },
        args.out,
    )
    return 0


def _parse_budget(spec: str | None, seed: int | None) -> InstanceBudget:
    fields = {}
    mapping = {"group": "max_group_order", "carrier": "max_carrier_size", "objects": "max_objects", "seed": "sample_seed"}
    if spec:
        for part in spec.split(","):
            if not part:
                continue
            if "=" not in part:
                raise docs.SchemaError(f"budget: expected key=value, got {part!r}")
            key, _, value = part.partition("=")
            if key not in mapping:
                raise docs.SchemaError(f"budget: unknown key {key!r}")
            try:
                fields[mapping[key]] = int(value)
            except ValueError:
                raise docs.SchemaError(f"budget: {key!r} needs an integer") from None
    if seed is not None:
        fields["sample_seed"] = seed
    for key in ("group", "carrier", "objects"):
        if fields.get(mapping[key], 1) < 1:
            raise docs.SchemaError(f"budget: {key!r} must be at least 1, got {fields[mapping[key]]}")
    return InstanceBudget(**fields)


def _cmd_suite(args) -> int:
    budget = _parse_budget(args.budget, args.seed)
    report = run_law_suite(budget)
    _emit(report.to_bytes(), args.out)
    return 0 if report.all_ok else 1


def build_klein_example() -> tuple[ActionGroupoid, tuple[str, str]]:
    """The two-reflection action of the Klein four-group on the compass points."""
    group = klein_four_group()
    points = ("N", "S", "E", "W")
    swap_ns = {"N": "S", "S": "N", "E": "E", "W": "W"}
    swap_ew = {"N": "N", "S": "S", "E": "W", "W": "E"}

    def act(element: str, x: str) -> str:
        first, second = element[1:-1].split(",")
        if first == "t":
            x = swap_ns[x]
        if second == "t":
            x = swap_ew[x]
        return x

    table = {(g, x): act(g, x) for g in group.elements for x in points}
    return action_groupoid(group, points, table), ("(e,e)", "(t,t)")


def _cmd_demo_klein(args) -> int:
    action, half_turn_subgroup = build_klein_example()
    facts = {}
    facts["original_valid"] = validate_groupoid(action.induced).ok
    rep = property_report(action)
    facts["original_effective"] = rep.effective.value
    facts["original_free"] = not rep.free.value and rep.free.witness is not None
    facts["original_transitive"] = rep.transitive.value
    sub = subgroup(action.group, half_turn_subgroup)
    facts["subgroup_acts_freely"] = fixed_point(action, sub.elements) is None
    q = quotient_action(action, sub.elements)
    facts["projection_is_ssw"] = weak_equivalence_report(q.projection.functor).is_ssw
    facts["quotient_objects"] = len(q.quotient.carrier)
    facts["quotient_isotropy_orders"] = sorted(len(stabilizer(q.quotient, x)) for x in q.quotient.carrier)
    qrep = property_report(q.quotient)
    facts["quotient_effective"] = qrep.effective.value
    facts["morita_equivalent"] = morita_oracle(action.induced, q.quotient.induced)
    dec = decompose(q.projection)
    facts["decomposition_kernel"] = list(dec.kernel.elements)
    ok = (
        facts["original_valid"]
        and facts["original_effective"]
        and facts["original_free"]
        and not facts["original_transitive"]
        and facts["subgroup_acts_freely"]
        and facts["projection_is_ssw"]
        and facts["quotient_objects"] == 2
        and facts["quotient_isotropy_orders"] == [2, 2]
        and facts["quotient_effective"] is False
        and facts["morita_equivalent"]
        and facts["decomposition_kernel"] == list(sub.elements)
    )
    out = {
        "kind": "demo_report",
        "ok": ok,
        "facts": facts,
        "documents": {
            "original": docs.action_doc(action),
            "kernel": docs.group_doc(sub),
            "quotient": docs.action_doc(q.quotient),
            "projection": docs.functor_doc(q.projection.functor, "original", "quotient", q.projection.group_hom),
        },
    }
    _emit(out, args.out)
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="gpdkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--out", help="write the output document to this path")
        p.set_defaults(fn=fn)
        return p

    p = add("validate", _cmd_validate, help="check every axiom of the documents in a file")
    p.add_argument("file")
    p.add_argument("name", nargs="?")

    p = add("check-we", _cmd_check_we, help="weak-equivalence report for a functor")
    p.add_argument("file")
    p.add_argument("functor", nargs="?")

    p = add("check-properties", _cmd_check_properties, help="action property report")
    p.add_argument("file")
    p.add_argument("action", nargs="?")
    p.add_argument("--props", help="comma-separated subset of the property list")

    p = add("pullback", _cmd_pullback, help="strict or weak pullback of two functors")
    p.add_argument("--mode", choices=["strict", "weak"], required=True)
    p.add_argument("file")
    p.add_argument("phi")
    p.add_argument("psi")

    p = add("compose-ana", lambda a: _cmd_compose(a, strict=True), help="compose two spans through the strict pullback")
    p.add_argument("file")
    p.add_argument("first")
    p.add_argument("second")

    p = add("compose-gen", lambda a: _cmd_compose(a, strict=False), help="compose two spans through the weak pullback")
    p.add_argument("file")
    p.add_argument("first")
    p.add_argument("second")

    p = add("decompose", _cmd_decompose, help="split an equivariant weak equivalence as inclusion after projection")
    p.add_argument("file")
    p.add_argument("functor", nargs="?")

    p = add("quotient-factorize", _cmd_quotient_factorize, help="split a surjective equivariant weak equivalence as iso after quotient")
    p.add_argument("file")
    p.add_argument("functor", nargs="?")

    p = add("balanced-product", _cmd_balanced_product, help="induce a big-group action from a subgroup action")
    p.add_argument("file")
    p.add_argument("group")
    p.add_argument("action")

    p = add("anafunctorify", _cmd_anafunctorify, help="replace a span by one with a surjective left leg")
    p.add_argument("file")
    p.add_argument("span", nargs="?")
    p.add_argument("--equivariant", action="store_true")

    p = add("normalize-2cell", _cmd_normalize, help="canonical representative of a 2-cell diagram")
    p.add_argument("file")
    p.add_argument("diagram", nargs="?")

    p = add("2cells-equal", _cmd_cells_equal, help="decide equality of two 2-cell diagrams")
    p.add_argument("file")
    p.add_argument("first")
    p.add_argument("second")

    p = add("skeleton", _cmd_skeleton, help="connected components with their isotropy groups")
    p.add_argument("file")
    p.add_argument("name", nargs="?")

    p = add("suite", _cmd_suite, help="run the law suite at a budget")
    p.add_argument(
        "--budget",
        help="e.g. group=8,carrier=4,objects=6 (the defaults). group and carrier bound the enumeration; "
        "objects bounds no size and only selects the regime: any value above its default samples the "
        "instances with the seed instead of enumerating them exhaustively",
    )
    p.add_argument("--seed", type=int)

    p = add("demo-klein", _cmd_demo_klein, help="the reflection action on four compass points, end to end")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (docs.SchemaError, DanglingIdError, MismatchError, PreconditionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash is never a verdict: exit 3, never 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
