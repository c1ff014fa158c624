"""Exit-code fuzz: mutated documents and arguments never crash the commands.

One ``arr_map`` entry of a functor (which is also a span leg) is pointed at
another declared codomain arrow, or ``check-properties`` is asked for a list
of property names mixed with junk.  Every command must then answer with a
result (0), a negative with a witness (1) or a named input error (2), and
never with a traceback.
"""

import contextlib
import io
import os
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpdkit import documents as docs
from gpdkit.catalog import cyclic_group
from gpdkit.cli import build_klein_example, main
from gpdkit.core import GroupoidFunctor, action_groupoid, identity_functor
from gpdkit.core import FiniteGroup
from gpdkit.core import identity_transformation
from gpdkit.equivariant import PROPERTY_NAMES, quotient_action
from gpdkit.localization import Anafunctor, as_diagram, identity_two_cell


def _base_bundle() -> dict:
    c2 = cyclic_group(2)
    swap = action_groupoid(c2, ("0", "1"), {("r0", "0"): "0", ("r0", "1"): "1", ("r1", "0"): "1", ("r1", "1"): "0"})
    loop = action_groupoid(c2, ("p",), {("r0", "p"): "p", ("r1", "p"): "p"})
    to_loop = GroupoidFunctor(
        swap.induced, loop.induced, {x: "p" for x in swap.carrier},
        {a: loop.arrow_id(swap.arrow_pairs[a][0], "p") for a in swap.induced.arrows},
    )
    klein, half_turn = build_klein_example()
    q = quotient_action(klein, half_turn)
    identity_swap = docs.functor_doc(identity_functor(swap.induced), "swap", "swap")
    proj = docs.functor_doc(q.projection.functor, "klein", "quotient")
    bundle = {
        "kind": "bundle",
        "documents": {
            "swap": docs.groupoid_doc(swap.induced),
            "loop": docs.groupoid_doc(loop.induced),
            "klein": docs.groupoid_doc(klein.induced),
            "quotient": docs.groupoid_doc(q.quotient.induced),
            "left_swap": identity_swap,
            "right_swap": identity_swap,
            "to_loop": docs.functor_doc(to_loop, "swap", "loop"),
            "loop_id": docs.functor_doc(identity_functor(loop.induced), "loop", "loop"),
            "proj": proj,
            "proj_r": proj,
            "swap_span": {"kind": "span", "left": "left_swap", "right": "right_swap"},
            "to_loop_span": {"kind": "span", "left": "left_swap", "right": "to_loop"},
            "loop_span": {"kind": "span", "left": "loop_id", "right": "loop_id"},
            "proj_span": {"kind": "span", "left": "proj", "right": "proj_r"},
        },
    }
    return docs.loads(docs.dumps(bundle))  # compose rows as plain lists


BASE = _base_bundle()
FILE = "<bundle>"

# mutated functor -> (a functor with the same codomain, a span with the mutated
# functor as a leg, a span that composes after it)
CASES = {
    "left_swap": ("right_swap", "swap_span", "swap_span"),
    "right_swap": ("left_swap", "swap_span", "swap_span"),
    "to_loop": ("to_loop", "to_loop_span", "loop_span"),
    "proj": ("proj_r", "proj_span", "proj_span"),
    "proj_r": ("proj", "proj_span", "proj_span"),
}


def _commands(name: str) -> list[list[str]]:
    other, first, second = CASES[name]
    return [
        ["check-we", FILE, name],
        ["pullback", "--mode", "strict", FILE, name, other],
        ["pullback", "--mode", "weak", FILE, name, other],
        ["compose-ana", FILE, first, second],
        ["compose-gen", FILE, first, second],
        ["anafunctorify", FILE, first],
    ]


@st.composite
def mutations(draw):
    name = draw(st.sampled_from(sorted(CASES)))
    functor = BASE["documents"][name]
    arrow = draw(st.sampled_from(sorted(functor["arr_map"])))
    targets = [row["id"] for row in BASE["documents"][functor["cod"]]["arrows"]]
    return name, arrow, draw(st.sampled_from(targets))


@settings(max_examples=40, deadline=None)
@given(mutation=mutations())
def test_mutated_functor_keeps_the_exit_code_contract(tmp_path_factory, mutation):
    name, arrow, target = mutation
    bundle = {"kind": "bundle", "documents": dict(BASE["documents"])}
    bundle["documents"][name] = {**BASE["documents"][name], "arr_map": {**BASE["documents"][name]["arr_map"], arrow: target}}
    path = tmp_path_factory.mktemp("fuzz") / "bundle.json"
    path.write_bytes(docs.dumps(bundle))
    for command in _commands(name):
        argv = [str(path) if a == FILE else a for a in command]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([*argv, "--out", os.devnull])
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue(), argv


def _run_keeps_the_contract(argv: list[str]) -> None:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*argv, "--out", os.devnull])
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv


def _cell_bundle() -> tuple[dict, dict]:
    """A 2-cell diagram, a transformation and an equivariant functor over the
    Klein quotient projection, and for each mutable map the values it may take.

    One entry of ``eta1``/``eta2``, of ``alpha``/``alpha_prime``'s ``arr_map``,
    of the transformation's components or of ``equivariant.group_hom`` is
    pointed at another declared value; ``validate``, ``normalize-2cell`` and
    ``2cells-equal`` must keep the exit-code contract.
    """
    klein, half_turn = build_klein_example()
    q = quotient_action(klein, half_turn)
    proj = docs.functor_doc(q.projection.functor, "klein", "quotient")
    d = as_diagram(identity_two_cell(Anafunctor(q.projection.functor, q.projection.functor)))
    span = docs.span_doc(proj, proj)
    bundle = {
        "kind": "bundle",
        "documents": {
            "klein": docs.action_doc(klein),
            "quotient": docs.action_doc(q.quotient),
            "P": docs.groupoid_doc(d.mediator),
            "cell": {
                "kind": "two_cell_diagram",
                "top": span, "bottom": span, "mediator": "P",
                "alpha": docs.functor_doc(d.to_top, "P", "klein"),
                "alpha_prime": docs.functor_doc(d.to_bottom, "P", "klein"),
                "eta1": {"component": dict(d.left_cell.component)},
                "eta2": {"component": dict(d.right_cell.component)},
            },
            "proj_unit": docs.transformation_doc(proj, proj, identity_transformation(q.projection.functor)),
            "proj_eq": docs.functor_doc(q.projection.functor, "klein", "quotient", q.projection.group_hom),
        },
    }
    klein_arrows, quotient_arrows = sorted(klein.induced.arrows), sorted(q.quotient.induced.arrows)
    sites = {
        ("cell", "eta1", "component"): quotient_arrows,
        ("cell", "eta2", "component"): quotient_arrows,
        ("cell", "alpha", "arr_map"): klein_arrows,
        ("cell", "alpha_prime", "arr_map"): klein_arrows,
        ("proj_unit", "component"): quotient_arrows,
        ("proj_eq", "equivariant", "group_hom"): sorted(q.quotient.group.elements),
    }
    return docs.loads(docs.dumps(bundle)), sites


CELL_BUNDLE, CELL_SITES = _cell_bundle()


def _nested_get(doc: dict, path: tuple) -> dict:
    for key in path:
        doc = doc[key]
    return doc


def _nested_set(doc: dict, path: tuple, value) -> dict:
    """A copy of ``doc`` with ``value`` at ``path``; only the dicts on the path are copied."""
    if not path:
        return value
    return {**doc, path[0]: _nested_set(doc[path[0]], path[1:], value)}


@st.composite
def cell_mutations(draw):
    site = draw(st.sampled_from(sorted(CELL_SITES)))
    key = draw(st.sampled_from(sorted(_nested_get(CELL_BUNDLE["documents"], site))))
    return site, key, draw(st.sampled_from(CELL_SITES[site]))


@settings(max_examples=40, deadline=None)
@given(mutation=cell_mutations())
def test_mutated_cell_documents_keep_the_exit_code_contract(tmp_path_factory, mutation):
    site, key, value = mutation
    mapping = _nested_get(CELL_BUNDLE["documents"], site)
    documents = _nested_set(CELL_BUNDLE["documents"], site, {**mapping, key: value})
    path = tmp_path_factory.mktemp("fuzz") / "cells.json"
    path.write_bytes(docs.dumps({"kind": "bundle", "documents": documents}))
    for argv in (["validate", str(path)], ["normalize-2cell", str(path), "cell"], ["2cells-equal", str(path), "cell", "cell"]):
        _run_keeps_the_contract(argv)


GOLDEN_BUNDLE = str(Path(__file__).parent / "golden" / "constructions" / "bundle.json")
GOLDEN_ACTIONS = ("inner", "klein", "loop", "point", "quotient", "swap")


@settings(max_examples=40, deadline=None)
@given(
    action=st.sampled_from(GOLDEN_ACTIONS),
    props=st.lists(st.sampled_from(PROPERTY_NAMES) | st.text(max_size=8), max_size=4),
)
def test_property_lists_keep_the_exit_code_contract(action, props):
    argv = ["check-properties", GOLDEN_BUNDLE, action, "--props=" + ",".join(props), "--out", os.devnull]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv


def _golden_functor_sites() -> dict:
    """For each map of ``proj``, ``to_loop`` and ``collapse`` in the golden
    bundle, the declared values its entries may take: codomain objects for
    ``obj_map``, codomain arrows for ``arr_map`` and codomain group elements
    for ``equivariant.group_hom``."""
    bundle = docs.parse_bundle({"kind": "bundle", "documents": GOLDEN_DOCUMENTS})
    sites = {}
    for name in ("proj", "to_loop", "collapse"):
        cod = bundle.action(bundle.docs[name]["cod"])
        sites[(name, "obj_map")] = list(cod.carrier)
        sites[(name, "arr_map")] = list(cod.induced.arrows)
        sites[(name, "equivariant", "group_hom")] = list(cod.group.elements)
    return sites


GOLDEN_DOCUMENTS = docs.loads(Path(GOLDEN_BUNDLE).read_bytes())["documents"]
GOLDEN_SITES = _golden_functor_sites()


@st.composite
def golden_functor_mutations(draw):
    site = draw(st.sampled_from(sorted(GOLDEN_SITES)))
    key = draw(st.sampled_from(sorted(_nested_get(GOLDEN_DOCUMENTS, site))))
    return site, key, draw(st.sampled_from(GOLDEN_SITES[site]))


@settings(max_examples=40, deadline=None)
@given(mutation=golden_functor_mutations())
def test_mutated_equivariant_functors_keep_the_exit_code_contract(tmp_path_factory, mutation):
    site, key, value = mutation
    mapping = _nested_get(GOLDEN_DOCUMENTS, site)
    documents = _nested_set(GOLDEN_DOCUMENTS, site, {**mapping, key: value})
    path = tmp_path_factory.mktemp("fuzz") / "bundle.json"
    path.write_bytes(docs.dumps({"kind": "bundle", "documents": documents}))
    for argv in (
        ["decompose", FILE, site[0]],
        ["quotient-factorize", FILE, site[0]],
        ["check-properties", FILE, "klein"],
        ["compose-ana", FILE, "span", "loop_span"],
        ["anafunctorify", FILE, "span", "--equivariant"],
    ):
        _run_keeps_the_contract([str(path) if a == FILE else a for a in argv])


# Plain groupoid documents are checked before any command computes with them:
# a broken one exits 2 with one line naming it, while ``validate`` still
# reports axiom violations as a verdict (exit 1).

GROUPOID_USES = {  # plain groupoid -> (a functor and a span that use it)
    "swap": ("left_swap", "swap_span"),
    "loop": ("loop_id", "loop_span"),
    "klein": ("proj", "proj_span"),
    "quotient": ("proj", "proj_span"),
}


def _groupoid_commands(name: str) -> list[list[str]]:
    functor, span = GROUPOID_USES[name]
    return [
        ["skeleton", FILE, name],
        ["check-we", FILE, functor],
        ["pullback", "--mode", "strict", FILE, functor, functor],
        ["pullback", "--mode", "weak", FILE, functor, functor],
        ["compose-gen", FILE, span, span],
        ["compose-ana", FILE, span, span],
        ["anafunctorify", FILE, span],
    ]


def _with_groupoid(name: str, groupoid: dict) -> dict:
    return {"kind": "bundle", "documents": {**BASE["documents"], name: groupoid}}


def _loop_with_undeclared_target() -> dict:
    loop = BASE["documents"]["loop"]
    arrows = [dict(row) for row in loop["arrows"]]
    arrows[-1]["tgt"] = "nowhere"
    return {**loop, "arrows": arrows}


def _loop_without_a_composite() -> dict:
    loop = BASE["documents"]["loop"]
    a = loop["arrows"][-1]["id"]
    return {**loop, "compose": [row for row in loop["compose"] if row[:2] != [a, a]]}


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*argv, "--out", os.devnull])
    return code, err.getvalue()


@pytest.mark.parametrize("broken", [_loop_with_undeclared_target, _loop_without_a_composite])
@pytest.mark.parametrize("command", _groupoid_commands("loop"), ids=" ".join)
def test_broken_groupoid_document_is_a_named_input_error(tmp_path, broken, command):
    path = tmp_path / "bundle.json"
    path.write_bytes(docs.dumps(_with_groupoid("loop", broken())))
    code, err = _run([str(path) if a == FILE else a for a in command])
    assert code == 2, (command, err)
    assert re.match(r"error: ('loop' is not a groupoid|loop): ", err) and err.count("\n") == 1, err


def test_broken_mediator_document_is_a_named_input_error(tmp_path):
    mediator = CELL_BUNDLE["documents"]["P"]
    broken = {**mediator, "compose": mediator["compose"][1:]}
    path = tmp_path / "cells.json"
    path.write_bytes(docs.dumps({"kind": "bundle", "documents": {**CELL_BUNDLE["documents"], "P": broken}}))
    for argv in (["normalize-2cell", str(path), "cell"], ["2cells-equal", str(path), "cell", "cell"]):
        code, err = _run(argv)
        assert code == 2 and err.startswith("error: 'P' is not a groupoid: "), (argv, err)


@st.composite
def groupoid_mutations(draw):
    """A copy of one plain groupoid of the base bundle with one ``src``,
    ``tgt`` or ``compose`` entry pointed elsewhere (or the row dropped)."""
    name = draw(st.sampled_from(sorted(GROUPOID_USES)))
    doc = BASE["documents"][name]
    arrows = [row["id"] for row in doc["arrows"]]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(arrows) - 1))
        end = draw(st.sampled_from(["src", "tgt"]))
        rows = [dict(row) for row in doc["arrows"]]
        rows[i][end] = draw(st.sampled_from([*doc["objects"], "nowhere"]))
        return name, {**doc, "arrows": rows}
    compose = [list(row) for row in doc["compose"]]
    j = draw(st.integers(0, len(compose) - 1))
    value = draw(st.sampled_from([*arrows, None]))
    if value is None:
        del compose[j]
    else:
        compose[j][2] = value
    return name, {**doc, "compose": compose}


@settings(max_examples=40, deadline=None)
@given(mutation=groupoid_mutations())
def test_mutated_groupoid_documents_keep_the_exit_code_contract(tmp_path_factory, mutation):
    name, groupoid = mutation
    path = tmp_path_factory.mktemp("fuzz") / "bundle.json"
    path.write_bytes(docs.dumps(_with_groupoid(name, groupoid)))
    for command in [*_groupoid_commands(name), ["validate", FILE]]:
        _run_keeps_the_contract([str(path) if a == FILE else a for a in command])


# Group tables are checked when read: a malformed table exits 2 naming its
# document, and a table that breaks a group axiom is refused before any
# command computes with it, while ``validate`` reports it as a verdict (exit 1).

C2_GROUP = docs.group_doc(cyclic_group(2))
ON_A_POINT = docs.action_doc(action_groupoid(cyclic_group(2), ("p",), {("r0", "p"): "p", ("r1", "p"): "p"}))
NON_ASSOCIATIVE_LOOP = ("01234", "10342", "24013", "32401", "43120")  # rows of an order-5 Latin square


def _loop_group() -> FiniteGroup:
    elements = tuple("01234")
    mul = {(a, b): row[int(b)] for a, row in zip(elements, NON_ASSOCIATIVE_LOOP) for b in elements}
    return FiniteGroup(elements, mul, "0", {a: a for a in elements})  # every element is its own inverse


def _trivial_action(unit: str) -> dict:
    return docs.action_doc(action_groupoid(FiniteGroup((unit,), {(unit, unit): unit}, unit, {unit: unit}), ("*",), {(unit, "*"): "*"}))


def _repoint_mul(group: dict, a: str, b: str, value) -> dict:
    """``group`` with the ``mul`` row for (a, b) dropped (``value`` None) or pointed at ``value``."""
    rows = [row for row in group["mul"] if row[:2] != [a, b]]
    if value is not None:
        rows.append([a, b, value])
    return {**group, "mul": rows}


def _write(tmp_path, documents: dict) -> str:
    path = tmp_path / "bundle.json"
    path.write_bytes(docs.dumps({"kind": "bundle", "documents": documents}))
    return str(path)


@pytest.mark.parametrize("value", [None, "x"], ids=["missing", "undeclared"])
def test_malformed_group_table_is_a_named_input_error(tmp_path, value):
    action = {**ON_A_POINT, "group": _repoint_mul(ON_A_POINT["group"], "r1", "r0", value)}
    path = _write(tmp_path, {"A": action})
    for argv in (["validate", path], ["skeleton", path, "A"], ["check-properties", path, "A"]):
        code, err = _run(argv)
        assert code == 2 and err.startswith("error: A.group: ") and err.count("\n") == 1, (argv, err)
    path = _write(tmp_path, {"G": _repoint_mul(C2_GROUP, "r1", "r0", value), "T": _trivial_action("r0")})
    code, err = _run(["balanced-product", path, "G", "T"])
    assert code == 2 and err.startswith("error: G: "), err


@pytest.mark.parametrize("row", [("r1", "r0"), ("r1", "r1")])
def test_dropped_mul_row_is_named_before_any_inverse_is_sought(tmp_path, row):
    path = _write(tmp_path, {"G": _repoint_mul(C2_GROUP, *row, None), "T": _trivial_action("r0")})
    for argv in (["validate", path], ["balanced-product", path, "G", "T"]):
        assert _run(argv) == (2, f"error: G: mul table is missing {row!r}\n"), argv


def test_total_table_without_an_inverse_names_the_element(tmp_path):
    absorbing = {"kind": "group", "elements": ["e", "a"], "unit": "e",
                 "mul": [["e", "e", "e"], ["e", "a", "a"], ["a", "e", "a"], ["a", "a", "a"]]}
    path = _write(tmp_path, {"G": absorbing})
    assert _run(["validate", path]) == (2, "error: G: element 'a' has no inverse under the stated table\n")


def test_non_group_table_is_refused(tmp_path):
    loop = _loop_group()
    on_a_point = action_groupoid(loop, ("*",), {(g, "*"): "*" for g in loop.elements})
    identity = docs.functor_doc(identity_functor(on_a_point.induced), "L", "L", {g: g for g in loop.elements})
    path = _write(tmp_path, {"L": docs.action_doc(on_a_point), "id": identity})
    for argv in (
        ["skeleton", path, "L"],
        ["check-we", path, "id"],
        ["decompose", path, "id"],
        ["quotient-factorize", path, "id"],
        ["pullback", "--mode", "strict", path, "id", "id"],
    ):
        code, err = _run(argv)
        assert code == 2 and err.startswith("error: L.group is not a group: "), (argv, err)
    out = tmp_path / "report.json"
    assert main(["validate", path, "--out", str(out)]) == 1
    assert docs.loads(out.read_bytes())["violations"][0]["axiom"] == "construction"

    path = _write(tmp_path, {"G": docs.group_doc(loop), "T": _trivial_action("0")})
    code, err = _run(["balanced-product", path, "G", "T"])
    assert code == 2 and err.startswith("error: 'G' is not a group: "), err
    assert main(["validate", path, "G", "--out", os.devnull]) == 1


@pytest.mark.parametrize("group_hom", [None, {"r0": "r0", "r1": "r0"}], ids=["recovered", "stated"])
def test_quotient_factorize_refuses_a_group_map_that_is_not_onto(tmp_path, group_hom):
    # over an empty carrier the identity is a surjective weak equivalence for
    # any group map; one that misses an element has no quotient iso
    empty = action_groupoid(cyclic_group(2), (), {})
    identity = identity_functor(empty.induced)
    for hom, expected in ((group_hom, (2, "error: quotient_factorization: group map misses 'r1'\n")),
                          ({"r0": "r0", "r1": "r1"}, (0, ""))):
        path = _write(tmp_path, {"E": docs.action_doc(empty), "F": docs.functor_doc(identity, "E", "E", hom)})
        assert _run(["quotient-factorize", path, "F"]) == expected, hom
        assert _run(["decompose", path, "F"]) == (0, ""), hom


GOLDEN_ACTIONS = sorted(name for name, doc in GOLDEN_DOCUMENTS.items() if doc["kind"] == "action_groupoid")


@st.composite
def group_table_mutations(draw):
    """One golden action groupoid with one ``mul`` entry of its group dropped
    or pointed at another element, declared or not."""
    name = draw(st.sampled_from(GOLDEN_ACTIONS))
    group = GOLDEN_DOCUMENTS[name]["group"]
    a, b, _ = draw(st.sampled_from(group["mul"]))
    return name, _repoint_mul(group, a, b, draw(st.sampled_from([*group["elements"], "x", None])))


@settings(max_examples=40, deadline=None)
@given(mutation=group_table_mutations())
def test_mutated_group_tables_keep_the_exit_code_contract(tmp_path_factory, mutation):
    name, group = mutation
    documents = {**GOLDEN_DOCUMENTS, name: {**GOLDEN_DOCUMENTS[name], "group": group}}
    path = tmp_path_factory.mktemp("fuzz") / "bundle.json"
    path.write_bytes(docs.dumps({"kind": "bundle", "documents": documents}))
    for argv in (
        ["validate", FILE],
        ["skeleton", FILE, name],
        ["check-properties", FILE, name],
        ["balanced-product", FILE, "klein", "inner"],
        ["decompose", FILE, "proj"],
    ):
        _run_keeps_the_contract([str(path) if a == FILE else a for a in argv])


# A table row repeats the pair of an earlier row: refused when read, whichever
# row comes first, so no row silently wins.

SWAP_ACTION = docs.action_doc(action_groupoid(cyclic_group(2), ("0", "1"), {("r0", "0"): "0", ("r0", "1"): "1", ("r1", "0"): "1", ("r1", "1"): "0"}))
LOOP_ARROW = BASE["documents"]["loop"]["arrows"][-1]["id"]

# field -> (document name, document, the repeated pair, the second row's value)
REPEATS = {
    "compose": ("H", BASE["documents"]["loop"], (LOOP_ARROW, LOOP_ARROW), LOOP_ARROW),
    "mul": ("G", C2_GROUP, ("r1", "r1"), "r1"),
    "action": ("A", SWAP_ACTION, ("r1", "0"), "0"),
}


@pytest.mark.parametrize("second_first", [False, True], ids=["second-after", "second-before"])
@pytest.mark.parametrize("field", sorted(REPEATS))
def test_repeated_table_row_is_a_named_input_error(tmp_path, field, second_first):
    name, doc, pair, value = REPEATS[field]
    rows = [list(row) for row in doc[field]]
    i = next(i for i, row in enumerate(rows) if tuple(row[:2]) == pair)
    rows.insert(i if second_first else i + 1, [*pair, value])
    path = _write(tmp_path, {name: {**doc, field: rows}})
    message = f"error: {name}: field {field!r} has two rows for ({pair[0]!r}, {pair[1]!r})\n"
    assert _run(["validate", path]) == (2, message)
