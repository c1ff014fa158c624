"""Command-line interface: file ingestion, dispatch, and certificate emission.

Exit codes: 0 when the property holds or the construction succeeded, 1 for a
definite negative (always with a witness), 2 for input errors, 3 for an
internal error (a failed postcondition or any other unexpected exception).
All output is canonical JSON so identical inputs give byte-identical outputs.

Each command's handler returns its output document, or the bytes of one, with
its exit code; :func:`main` is the one place that writes it, to ``--out`` or
to stdout.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import documents as docs
from .catalog import flip_group
from .core import (
    ActionGroupoid,
    DanglingIdError,
    MismatchError,
    PreconditionError,
    action_groupoid,
    direct_product,
    fixed_point,
    stabilizer,
    subgroup,
    validate_groupoid,
)
from .equivariant import (
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
    as_anafunctor,
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


def _load(path: str) -> docs.Bundle:
    with open(path, "rb") as fh:
        return docs.parse_bundle(docs.loads(fh.read()))


def _cmd_validate(args) -> tuple[dict, int]:
    try:
        bundle = _load(args.file)
    except PreconditionError as exc:
        return {"kind": "validation_report", "ok": False, "violations": [{"axiom": "construction", "witness": str(exc)}]}, 1
    names = list(bundle.docs) if args.name is None else [args.name]
    violations = [
        {"document": name, "axiom": v.axiom, "witness": repr(v.witness)} for name in names for v in bundle.validate(name)
    ]
    return {"kind": "validation_report", "ok": not violations, "violations": violations}, 0 if not violations else 1


def _cmd_check_we(args) -> tuple[dict, int]:
    rep = weak_equivalence_report(_load(args.file).functor(args.functor))
    return (
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
        0 if rep.is_weak_equivalence else 1,
    )


def _cmd_check_properties(args) -> tuple[dict, int]:
    action = _load(args.file).action(args.action)
    report = property_report(action)
    verdicts = {}
    for name in args.props.split(",") if args.props is not None else PROPERTY_NAMES:
        if name not in PROPERTY_NAMES:
            raise PreconditionError(f"unknown property {name!r}")
        v = report.verdict(name)
        verdicts[name] = {"value": v.value, "trivial": v.trivial, "witness": list(v.witness) if v.witness else None}
    return {"kind": "property_report", "verdicts": verdicts}, 0 if all(v["value"] for v in verdicts.values()) else 1


def _cmd_pullback(args) -> tuple[dict, int]:
    bundle = _load(args.file)
    phi = bundle.functor(args.phi)
    psi = bundle.functor(args.psi)
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
    return {"kind": "bundle", "documents": out}, 0


def _cmd_compose(args, strict: bool) -> tuple[dict, int]:
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
    return {"kind": "bundle", "documents": out}, 0


def _cmd_decompose(args) -> tuple[dict, int]:
    functor = _load(args.file).equivariant(args.functor)
    result = decompose(functor)
    out = {
        "domain": docs.action_doc(functor.dom_action),
        "codomain": docs.action_doc(functor.cod_action),
        "middle": docs.action_doc(result.middle),
        "kernel": docs.group_doc(result.kernel),
        "projection": docs.functor_doc(result.projection.functor, "domain", "middle", result.projection.group_hom),
        "inclusion": docs.functor_doc(result.inclusion.functor, "middle", "codomain", result.inclusion.group_hom),
    }
    return {"kind": "bundle", "documents": out}, 0


def _cmd_quotient_factorize(args) -> tuple[dict, int]:
    functor = _load(args.file).equivariant(args.functor)
    result = quotient_factorization(functor)
    out = {
        "domain": docs.action_doc(functor.dom_action),
        "codomain": docs.action_doc(functor.cod_action),
        "kernel": docs.group_doc(result.kernel),
        "quotient": docs.action_doc(result.projection.cod_action),
        "projection": docs.functor_doc(result.projection.functor, "domain", "quotient", result.projection.group_hom),
        "iso": docs.functor_doc(result.iso.functor, "quotient", "codomain", result.iso.group_hom),
    }
    return {"kind": "bundle", "documents": out}, 0


def _cmd_balanced_product(args) -> tuple[dict, int]:
    bundle = _load(args.file)
    big = bundle.group(args.group)
    inner = bundle.action(args.action)
    result = balanced_product(big, inner)
    out = {
        "inner": docs.action_doc(inner),
        "product": docs.action_doc(result.product),
        "inclusion": docs.functor_doc(result.inclusion.functor, "inner", "product", result.inclusion.group_hom),
    }
    return {"kind": "bundle", "documents": out}, 0


def _cmd_anafunctorify(args) -> tuple[dict, int]:
    bundle = _load(args.file)
    span = bundle.span(args.span).build()
    entries = {
        "left_foot": docs.groupoid_doc(span.left_foot),
        "right_foot": docs.groupoid_doc(span.right_foot),
        "old_middle": docs.groupoid_doc(span.middle),
    }
    if args.equivariant:
        result = equivariant_anafunctorify(span, *bundle.actions_of(args.span))
        entries["new_middle"] = docs.action_doc(result.middle_action)
    else:
        result = anafunctorify(span)
        entries["new_middle"] = docs.groupoid_doc(result.anafunctor.middle)
    entries["anafunctor"] = docs.legs_doc(result.anafunctor, "new_middle")
    entries["witness"] = docs.diagram_doc(result.witness, "old_middle", "old_middle", "new_middle")
    return {"kind": "bundle", "documents": entries}, 0


def _cmd_normalize(args) -> tuple[dict, int]:
    cell = normalize_two_cell(_load(args.file).diagram(args.diagram))
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
    return {"kind": "bundle", "documents": entries}, 0


def _cmd_cells_equal(args) -> tuple[dict, int]:
    bundle = _load(args.file)
    d1 = bundle.diagram(args.first)
    d2 = bundle.diagram(args.second)
    for label, d in (("first", d1), ("second", d2)):
        validate_two_cell(d).require(PreconditionError, f"{label} diagram does not validate")
    difference = two_cell_difference(d1, d2)
    witness = None
    if difference is not None:
        at, first, second = difference
        witness = {"at": at, "first": first, "second": second}
    return {"kind": "two_cell_equality", "equal": difference is None, "witness": witness}, 0 if difference is None else 1


def _cmd_skeleton(args) -> tuple[dict, int]:
    bundle = _load(args.file)
    g = bundle.groupoid(args.name)
    bundle.require_groupoids(g)
    sk = skeleton_invariant(g)
    return (
        {
            "kind": "skeleton",
            "components": [
                {"size": size, "isotropy_order": iso.order, "isotropy": docs.group_payload(iso)}
                for size, iso in sk.components
            ],
        },
        0,
    )


def _parse_budget(spec: str | None, seed: int | None) -> InstanceBudget:
    fields = {}
    mapping = {"group": "max_group_order", "carrier": "max_carrier_size", "objects": "max_objects"}
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
    for key in mapping:
        if fields.get(mapping[key], 1) < 1:
            raise docs.SchemaError(f"budget: {key!r} must be at least 1, got {fields[mapping[key]]}")
    return InstanceBudget(**fields)


def _cmd_suite(args) -> tuple[bytes, int]:
    report = run_law_suite(_parse_budget(args.budget, args.seed))
    return report.to_bytes(), 0 if report.all_ok else 1


def build_klein_example() -> tuple[ActionGroupoid, tuple[str, str]]:
    """The two-reflection Klein action on the compass points, and its half-turn subgroup."""
    flip = flip_group()
    e, t = flip.elements
    group, pair_ids = direct_product(flip, flip)
    points = ("N", "S", "E", "W")
    # the first factor's t swaps N and S, the second's swaps E and W
    ns = {e: dict(zip(points, points)), t: dict(zip(points, ("S", "N", "E", "W")))}
    ew = {e: ns[e], t: dict(zip(points, ("N", "S", "W", "E")))}
    table = {(g, x): ew[b][ns[a][x]] for (a, b), g in pair_ids.items() for x in points}
    return action_groupoid(group, points, table), (pair_ids[(e, e)], pair_ids[(t, t)])


def _cmd_demo_klein(args) -> tuple[dict, int]:
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
    expected = {
        "original_valid": True,
        "original_effective": True,
        "original_free": True,
        "original_transitive": False,
        "subgroup_acts_freely": True,
        "projection_is_ssw": True,
        "quotient_objects": 2,
        "quotient_isotropy_orders": [2, 2],
        "quotient_effective": False,
        "morita_equivalent": True,
        "decomposition_kernel": list(sub.elements),
    }
    ok = facts == expected
    return {
        "kind": "demo_report",
        "ok": ok,
        "facts": facts,
        "documents": {
            "original": docs.action_doc(action),
            "kernel": docs.group_doc(sub),
            "quotient": docs.action_doc(q.quotient),
            "projection": docs.functor_doc(q.projection.functor, "original", "quotient", q.projection.group_hom),
        },
    }, 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    # the docstring's last paragraph is about the code, not for --help
    parser = argparse.ArgumentParser(prog="gpdkit", description=__doc__.rsplit("\n\n", 1)[0])
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
        doc, code = args.fn(args)
        data = doc if isinstance(doc, bytes) else docs.dumps(doc)
        if args.out:
            with open(args.out, "wb") as fh:
                fh.write(data)
        else:
            sys.stdout.buffer.write(data)
        return code
    except (docs.SchemaError, DanglingIdError, MismatchError, PreconditionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash is never a verdict: exit 3, never 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
