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
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from gpdkit import documents as docs
from gpdkit.catalog import cyclic_group
from gpdkit.cli import build_klein_example, main
from gpdkit.core import GroupoidFunctor, action_groupoid, identity_functor
from gpdkit.equivariant import PROPERTY_NAMES, quotient_action


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
    return {
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
