"""A functor that is not a weak equivalence becomes an error in one place only.

Every construction that needs a weak equivalence, or a surjective one,
refuses through :meth:`WeakEquivalenceReport.require_weak_equivalence` or
:meth:`WeakEquivalenceReport.require_ssw`, which name the failing map and its
witnesses; no other ``raise`` sits under an ``if`` that reads
``.is_weak_equivalence`` or ``.is_ssw``, so the message format has one place
to change.  The CLI tests show the witnesses reaching stderr.
"""

import ast
import contextlib
import io
import os
from collections import Counter
from pathlib import Path

import gpdkit
from gpdkit import documents as docs
from gpdkit.catalog import cyclic_group
from gpdkit.cli import main
from gpdkit.core import FiniteGroup, GroupoidFunctor, action_groupoid, identity_functor
from gpdkit.equivariant import equivariant_functor

VERDICTS = {"is_weak_equivalence", "is_ssw"}


def _reads_a_verdict(test: ast.expr) -> bool:
    return any(isinstance(n, ast.Attribute) and n.attr in VERDICTS for n in ast.walk(test))


def _verdict_raisers() -> Counter:
    """``raise`` statements under an ``if`` that reads a verdict, by enclosing class and function."""
    raisers = Counter()

    def visit(node, owner, guarded):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{owner}.{node.name}" if owner else node.name
        if isinstance(node, ast.Raise) and guarded:
            raisers[owner] += 1
        guarded = guarded or (isinstance(node, ast.If) and _reads_a_verdict(node.test))
        for child in ast.iter_child_nodes(node):
            visit(child, owner, guarded)

    for path in sorted(Path(gpdkit.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), "", False)
    return raisers


def test_only_the_report_raises_on_a_verdict():
    assert dict(_verdict_raisers()) == {
        "WeakEquivalenceReport.require_weak_equivalence": 1,
        "WeakEquivalenceReport.require_ssw": 1,
    }


def _run(path: Path, argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([argv[0], str(path), *argv[1:], "--out", os.devnull])
    return code, err.getvalue()


def _bundle(tmp_path) -> Path:
    """C2 swapping two points, C2 fixing one point, and the trivial group on
    one point, with two equivariant functors into the swap action and one
    span over the inclusion of the point.

    ``to_loop`` sends the swap action onto the fixed point: every loop arrow
    is reached, but the non-identity one at ``p`` lifts to no arrow at ``0``.
    ``inclusion`` is a weak equivalence that misses the point ``1``.
    """
    c2 = cyclic_group(2)
    swap = action_groupoid(c2, ("0", "1"), {("r0", "0"): "0", ("r0", "1"): "1", ("r1", "0"): "1", ("r1", "1"): "0"})
    loop = action_groupoid(c2, ("p",), {("r0", "p"): "p", ("r1", "p"): "p"})
    to_loop = GroupoidFunctor(
        swap.induced, loop.induced, {x: "p" for x in swap.carrier},
        {a: loop.arrow_id(swap.arrow_pairs[a][0], "p") for a in swap.induced.arrows},
    )
    trivial = FiniteGroup(("r0",), {("r0", "r0"): "r0"}, "r0", {"r0": "r0"})
    point = action_groupoid(trivial, ("a",), {("r0", "a"): "a"})
    inclusion = equivariant_functor(point, swap, {"r0": "r0"}, {"a": "0"})
    documents = {
        "swap": docs.action_doc(swap),
        "loop": docs.action_doc(loop),
        "point": docs.action_doc(point),
        "to_loop": docs.functor_doc(to_loop, "swap", "loop", {g: g for g in c2.elements}),
        "inclusion": docs.functor_doc(inclusion.functor, "point", "swap", inclusion.group_hom),
        "point_id": docs.functor_doc(identity_functor(point.induced), "point", "point"),
        "span": {"kind": "span", "left": "inclusion", "right": "point_id"},
    }
    path = tmp_path / "bundle.json"
    path.write_bytes(docs.dumps({"kind": "bundle", "documents": documents}))
    return path


def test_decompose_names_the_es_and_ff_witnesses(tmp_path):
    code, err = _run(_bundle(tmp_path), ["decompose", "to_loop"])
    assert (code, err) == (
        2,
        "error: decompose: functor is not a weak equivalence "
        "(es witness None, ff witness ('missing', ('0', '0', '(r1,p)')))\n",
    )


def test_quotient_factorize_names_the_object_witness(tmp_path):
    code, err = _run(_bundle(tmp_path), ["quotient-factorize", "inclusion"])
    assert (code, err) == (
        2,
        "error: quotient_factorization: functor is not a surjective weak equivalence "
        "(es witness None, ff witness None, object witness '1')\n",
    )


def test_compose_ana_names_the_object_witness_of_the_left_leg(tmp_path):
    code, err = _run(_bundle(tmp_path), ["compose-ana", "span", "span"])
    assert (code, err) == (
        2,
        "error: left leg of an anafunctor is not a surjective weak equivalence "
        "(es witness None, ff witness None, object witness '1')\n",
    )
