import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpdkit import cli
from gpdkit import documents as docs
from gpdkit.cli import build_klein_example, main
from gpdkit.catalog import cyclic_group
from gpdkit.core import (
    FiniteGroupoid,
    GroupoidFunctor,
    InternalCheckError,
    action_groupoid,
    identity_functor,
    terminal_groupoid,
)
from gpdkit.equivariant import quotient_action
from gpdkit.localization import Anafunctor, as_diagram, identity_two_cell


@pytest.fixture(scope="module")
def klein_docs():
    action, half_turn = build_klein_example()
    return action, half_turn


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_bytes(docs.dumps(doc))
    return str(path)


class TestRoundTrip:
    def test_klein_document_round_trips_bit_identically(self, klein_docs):
        action, _ = klein_docs
        doc = docs.action_doc(action)
        data = docs.dumps(doc)
        reparsed = docs.parse_bundle(docs.loads(data)).entries["document"]
        assert reparsed == action
        assert docs.dumps(docs.action_doc(reparsed)) == data

    def test_groupoid_round_trip(self, klein_docs):
        action, _ = klein_docs
        doc = docs.groupoid_doc(action.induced)
        data = docs.dumps(doc)
        reparsed = docs.parse_groupoid(docs.loads(data))
        assert reparsed == action.induced
        assert docs.dumps(docs.groupoid_doc(reparsed)) == data

    def test_empty_objects_groupoid_parses(self):
        doc = {"kind": "groupoid", "objects": [], "arrows": [], "compose": [], "identity": {}, "inverse": {}}
        g = docs.parse_groupoid(doc)
        assert g.objects == ()

    def test_missing_inverse_table_names_the_field(self):
        doc = {"kind": "groupoid", "objects": [], "arrows": [], "compose": [], "identity": {}}
        with pytest.raises(docs.SchemaError, match="inverse"):
            docs.parse_groupoid(doc)

    def test_parse_error_carries_position(self):
        with pytest.raises(docs.SchemaError, match="line 1"):
            docs.loads(b"{nope}")


@settings(max_examples=20, deadline=None)
@given(perm=st.permutations(["N", "S", "E", "W"]))
def test_any_relabeled_klein_document_round_trips(perm):
    from gpdkit.core import action_groupoid

    action, _ = build_klein_example()
    mapping = dict(zip(["N", "S", "E", "W"], perm))
    relabeled = action_groupoid(
        action.group,
        tuple(mapping[x] for x in action.carrier),
        {(g, mapping[x]): mapping[y] for (g, x), y in action.act.items()},
    )
    data = docs.dumps(docs.action_doc(relabeled))
    reparsed = docs.parse_bundle(docs.loads(data)).entries["document"]
    assert reparsed == relabeled
    assert docs.dumps(docs.action_doc(reparsed)) == data


class TestCli:
    def test_demo_klein_exit_zero_and_facts(self, tmp_path, capsys):
        out = tmp_path / "demo.json"
        assert main(["demo-klein", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        facts = report["facts"]
        assert facts["original_effective"] is True
        assert facts["subgroup_acts_freely"] is True
        assert facts["quotient_objects"] == 2
        assert facts["quotient_isotropy_orders"] == [2, 2]
        assert facts["quotient_effective"] is False

    def test_validate_exit_codes(self, tmp_path, klein_docs):
        action, _ = klein_docs
        good = write(tmp_path, "good.json", docs.action_doc(action))
        assert main(["validate", good, "--out", str(tmp_path / "r1.json")]) == 0
        doc = docs.loads(docs.dumps(docs.groupoid_doc(action.induced)))
        doc["compose"][0][2] = doc["arrows"][5]["id"]
        bad = write(tmp_path, "bad.json", doc)
        assert main(["validate", bad, "--out", str(tmp_path / "r2.json")]) == 1
        report = json.loads((tmp_path / "r2.json").read_text())
        assert report["violations"]
        missing = dict(docs.groupoid_doc(action.induced))
        del missing["inverse"]
        broken = write(tmp_path, "broken.json", missing)
        assert main(["validate", broken]) == 2

    def test_check_we_positive_and_negative(self, tmp_path, klein_docs):
        action, half_turn = klein_docs
        q = quotient_action(action, half_turn)
        bundle = {
            "kind": "bundle",
            "documents": {
                "klein": docs.action_doc(action),
                "quotient": docs.action_doc(q.quotient),
                "proj": docs.functor_doc(q.projection.functor, "klein", "quotient", q.projection.group_hom),
                "const": docs.functor_doc(
                    GroupoidFunctor(
                        q.quotient.induced, q.quotient.induced,
                        {x: "N" for x in q.quotient.carrier},
                        {a: q.quotient.arrow_id("(e,e)", "N") for a in q.quotient.induced.arrows},
                    ),
                    "quotient", "quotient",
                ),
            },
        }
        path = write(tmp_path, "bundle.json", bundle)
        out = tmp_path / "we.json"
        assert main(["check-we", path, "proj", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["is_ssw"] is True
        assert main(["check-we", path, "const", "--out", str(out)]) == 1
        rep = json.loads(out.read_text())
        assert rep["witnesses"]["es"] is not None or rep["witnesses"]["ff"] is not None

    def test_check_properties_witness_on_failure(self, tmp_path, klein_docs):
        action, half_turn = klein_docs
        q = quotient_action(action, half_turn)
        path = write(tmp_path, "quot.json", docs.action_doc(q.quotient))
        out = tmp_path / "props.json"
        assert main(["check-properties", path, "--props", "effective", "--out", str(out)]) == 1
        rep = json.loads(out.read_text())
        assert rep["verdicts"]["effective"]["witness"] == ["(e,t)"]

    def test_check_properties_prints_only_the_named_verdicts(self, capsys):
        bundle = str(Path(__file__).parent / "golden" / "constructions" / "bundle.json")
        assert main(["check-properties", bundle, "klein", "--props", "effective,free"]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        assert list(json.loads(out)["verdicts"]) == ["effective", "free"]

    def test_decompose_rejects_non_equivariant(self, tmp_path, klein_docs):
        action, _ = klein_docs
        g = action.induced
        # conjugation-like scramble: not of the required product form
        arr = {}
        for arrow, (el, x) in action.arrow_pairs.items():
            flip = {"(e,t)": "(t,e)", "(t,e)": "(e,t)"}.get(el, el)
            arr[arrow] = action.arrow_id(flip if x in ("N", "S") else el, x)
        candidate = GroupoidFunctor(g, g, {x: x for x in g.objects}, arr)
        bundle = {
            "kind": "bundle",
            "documents": {
                "klein": docs.action_doc(action),
                "weird": {"kind": "functor", "dom": "klein", "cod": "klein",
                          "obj_map": dict(candidate.obj_map), "arr_map": dict(candidate.arr_map)},
            },
        }
        path = write(tmp_path, "bundle.json", bundle)
        assert main(["decompose", path, "weird"]) == 2

    def test_decompose_names_the_arrow_that_breaks_equivariance(self, tmp_path, capsys):
        # C3 fixing a and b; phi is the identity at a and inversion at b, so
        # r1 would have to go to r1 and to r2
        c3 = cyclic_group(3)
        action = action_groupoid(c3, ("a", "b"), {(g, x): x for g in c3.elements for x in ("a", "b")})
        arr_map = {action.arrow_id(g, "a"): action.arrow_id(g, "a") for g in c3.elements}
        arr_map.update({action.arrow_id(g, "b"): action.arrow_id(c3.inv[g], "b") for g in c3.elements})
        bundle = {
            "kind": "bundle",
            "documents": {
                "A": docs.action_doc(action),
                "phi": {"kind": "functor", "dom": "A", "cod": "A", "obj_map": {"a": "a", "b": "b"}, "arr_map": arr_map},
            },
        }
        path = write(tmp_path, "bundle.json", bundle)
        assert main(["decompose", path, "phi"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: 'phi' is not equivariant (witness arrow '(r1,b)')\n"

    def test_construction_outputs_revalidate(self, tmp_path, klein_docs):
        action, half_turn = klein_docs
        q = quotient_action(action, half_turn)
        bundle = {
            "kind": "bundle",
            "documents": {
                "klein": docs.action_doc(action),
                "quotient": docs.action_doc(q.quotient),
                "proj": docs.functor_doc(q.projection.functor, "klein", "quotient", q.projection.group_hom),
                "span": {"kind": "span", "left": "proj", "right": "proj"},
            },
        }
        path = write(tmp_path, "bundle.json", bundle)
        for command in (
            ["pullback", "--mode", "strict", path, "proj", "proj"],
            ["pullback", "--mode", "weak", path, "proj", "proj"],
            ["compose-ana", path, "span", "span"],
            ["compose-gen", path, "span", "span"],
            ["decompose", path, "proj"],
            ["quotient-factorize", path, "proj"],
            ["anafunctorify", path, "span"],
            ["anafunctorify", path, "span", "--equivariant"],
        ):
            out = tmp_path / "out.json"
            assert main([*command, "--out", str(out)]) == 0, command
            assert main(["validate", str(out), "--out", str(tmp_path / "v.json")]) == 0, command

    def test_normalize_and_equality(self, tmp_path, klein_docs):
        action, _ = klein_docs
        ana = Anafunctor(identity_functor(action.induced), identity_functor(action.induced))
        d = as_diagram(identity_two_cell(ana))
        span_doc = docs.span_doc(
            docs.functor_doc(ana.left, "klein", "klein"),
            docs.functor_doc(ana.right, "klein", "klein"),
        )
        bundle = {
            "kind": "bundle",
            "documents": {
                "klein": docs.action_doc(action),
                "P": docs.groupoid_doc(d.mediator),
                "cell": {
                    "kind": "two_cell_diagram",
                    "top": span_doc, "bottom": span_doc, "mediator": "P",
                    "alpha": docs.functor_doc(d.to_top, "P", "klein"),
                    "alpha_prime": docs.functor_doc(d.to_bottom, "P", "klein"),
                    "eta1": {"component": dict(d.left_cell.component)},
                    "eta2": {"component": dict(d.right_cell.component)},
                },
            },
        }
        path = write(tmp_path, "cells.json", bundle)
        out = tmp_path / "norm.json"
        assert main(["normalize-2cell", path, "cell", "--out", str(out)]) == 0
        assert main(["validate", str(out), "--out", str(tmp_path / "v.json")]) == 0
        assert main(["2cells-equal", path, "cell", "cell", "--out", str(tmp_path / "eq.json")]) == 0

    def test_mediator_must_be_the_domain_of_alpha(self, tmp_path, klein_docs, capsys):
        # the cell of test_normalize_and_equality, naming the wrong mediator
        action, _ = klein_docs
        ana = Anafunctor(identity_functor(action.induced), identity_functor(action.induced))
        d = as_diagram(identity_two_cell(ana))
        span_doc = docs.span_doc(
            docs.functor_doc(ana.left, "klein", "klein"),
            docs.functor_doc(ana.right, "klein", "klein"),
        )
        bundle = {
            "kind": "bundle",
            "documents": {
                "klein": docs.action_doc(action),
                "P": docs.groupoid_doc(d.mediator),
                "cell": {
                    "kind": "two_cell_diagram",
                    "top": span_doc, "bottom": span_doc, "mediator": "klein",
                    "alpha": docs.functor_doc(d.to_top, "P", "klein"),
                    "alpha_prime": docs.functor_doc(d.to_bottom, "P", "klein"),
                    "eta1": {"component": dict(d.left_cell.component)},
                    "eta2": {"component": dict(d.right_cell.component)},
                },
            },
        }
        path = write(tmp_path, "cells.json", bundle)
        for command in (["validate", path], ["normalize-2cell", path, "cell"], ["2cells-equal", path, "cell", "cell"]):
            assert main([*command, "--out", str(tmp_path / "out.json")]) == 2, command
            out, err = capsys.readouterr()
            assert out == ""
            assert "Traceback" not in err
            assert err.count("\n") == 1 and err.startswith("error: ") and "mediator" in err, err

    def test_skeleton_report(self, tmp_path, klein_docs):
        action, _ = klein_docs
        path = write(tmp_path, "klein.json", docs.action_doc(action))
        out = tmp_path / "sk.json"
        assert main(["skeleton", path, "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert [c["isotropy_order"] for c in rep["components"]] == [2, 2]

    def test_suite_command_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["suite", "--budget", "group=4,carrier=3", "--out", str(a)]) == 0
        assert main(["suite", "--budget", "group=4,carrier=3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("spec, named", [("carrier=-1", "'carrier'"), ("group=0", "'group'"), ("carrier=0", "'carrier'")])
    def test_empty_suite_budget_is_an_input_error(self, capsys, spec, named):
        # a budget that enumerates nothing would check no instance and report a pass
        assert main(["suite", "--budget", spec]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: budget: {named} must be at least 1")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("group", "expected key=value, got 'group'"),
            ("size=3", "unknown key 'size'"),
            ("group=x", "'group' needs an integer"),
            ("seed=1", "unknown key 'seed'"),  # the sample seed is set by --seed alone
        ],
    )
    def test_malformed_suite_budget_is_an_input_error(self, capsys, spec, message):
        assert main(["suite", "--budget", spec]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: budget: {message}\n"

    def test_balanced_product_output(self, tmp_path, klein_docs):
        action, half_turn = klein_docs
        from gpdkit.core import action_groupoid, subgroup

        k = subgroup(action.group, half_turn)
        inner = action_groupoid(
            k, action.carrier, {(g, x): action.act[(g, x)] for g in k.elements for x in action.carrier}
        )
        bundle = {
            "kind": "bundle",
            "documents": {"klein": docs.action_doc(action), "inner": docs.action_doc(inner)},
        }
        path = write(tmp_path, "bundle.json", bundle)
        out = tmp_path / "bp.json"
        assert main(["balanced-product", path, "klein", "inner", "--out", str(out)]) == 0
        assert main(["validate", str(out), "--out", str(tmp_path / "v.json")]) == 0
        emitted = json.loads(out.read_text())
        assert len(emitted["documents"]["product"]["set"]) == 8

    def test_pullback_rejects_a_non_functor_in_both_modes(self, tmp_path, swap_action):
        # declared maps are total, but every arrow goes to its inverse, which
        # breaks endpoint preservation on the two non-unit arrows
        g = swap_action.induced
        inverting = GroupoidFunctor(g, g, {x: x for x in g.objects}, {a: g.inv[a] for a in g.arrows})
        bundle = {
            "kind": "bundle",
            "documents": {"swap": docs.groupoid_doc(g), "phi": docs.functor_doc(inverting, "swap", "swap")},
        }
        path = write(tmp_path, "bundle.json", bundle)
        src = str(Path(__file__).resolve().parents[1] / "src")
        for mode in ("strict", "weak"):
            run = subprocess.run(
                [sys.executable, "-m", "gpdkit.cli", "pullback", "--mode", mode, path, "phi", "phi"],
                capture_output=True, text=True, env={"PYTHONPATH": src},
            )
            assert run.returncode == 2, (mode, run.stderr)
            assert "Traceback" not in run.stderr
            assert "endpoint preservation" in run.stderr
            assert run.stdout == ""

    def test_span_and_check_we_reject_a_non_functor(self, tmp_path, swap_action):
        # a span whose right leg sends every arrow to its inverse, and check-we
        # on that leg: input errors naming the violation, not verdicts or crashes
        g = swap_action.induced
        inverting = GroupoidFunctor(g, g, {x: x for x in g.objects}, {a: g.inv[a] for a in g.arrows})
        bundle = {
            "kind": "bundle",
            "documents": {
                "swap": docs.groupoid_doc(g),
                "id": docs.functor_doc(identity_functor(g), "swap", "swap"),
                "phi": docs.functor_doc(inverting, "swap", "swap"),
                "span": {"kind": "span", "left": "id", "right": "phi"},
            },
        }
        path = write(tmp_path, "bundle.json", bundle)
        src = str(Path(__file__).resolve().parents[1] / "src")
        for command in (["compose-gen", path, "span", "span"], ["anafunctorify", path, "span"], ["check-we", path, "phi"]):
            run = subprocess.run(
                [sys.executable, "-m", "gpdkit.cli", *command],
                capture_output=True, text=True, env={"PYTHONPATH": src},
            )
            assert run.returncode == 2, (command, run.stderr)
            assert "Traceback" not in run.stderr
            assert "endpoint preservation" in run.stderr
            assert run.stdout == ""

    def test_unknown_file_is_input_error(self):
        assert main(["validate", "/does/not/exist.json"]) == 2

    @pytest.mark.parametrize(
        "data",
        [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000, b'{"kind": ' + b"1" * 5000 + b"}"],
        ids=["not-utf-8", "nested-100000-deep", "5000-digit-integer"],
    )
    def test_unreadable_bytes_are_an_input_error(self, tmp_path, capsys, data):
        path = tmp_path / "bundle.json"
        path.write_bytes(data)
        assert main(["validate", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_unknown_kind_is_an_input_error(self, tmp_path, capsys):
        path = write(tmp_path, "bundle.json", {"kind": "bundle", "documents": {"cfg": {"kind": "suite_config"}}})
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: cfg: unknown document kind 'suite_config'\n")

    def test_duplicate_key_is_an_input_error(self, tmp_path, capsys):
        # the second "G" used to replace the first, and validate accepted the bundle
        group = '{"kind": "group", "elements": ["e"], "mul": [["e", "e", "e"]], "unit": "e"}'
        groupoid = '{"kind": "groupoid", "objects": [], "arrows": [], "compose": [], "identity": {}, "inverse": {}}'
        path = tmp_path / "bundle.json"
        path.write_text(f'{{"kind": "bundle", "documents": {{"G": {group}, "G": {groupoid}}}}}')
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: duplicate key 'G' in a JSON object\n")

    OPTIONAL_NAME_COMMANDS = [
        ("skeleton", "groupoid"),
        ("check-we", "functor"),
        ("check-properties", "action groupoid"),
        ("decompose", "functor"),
        ("quotient-factorize", "functor"),
        ("anafunctorify", "span"),
        ("normalize-2cell", "diagram"),
    ]

    @pytest.mark.parametrize("command, what", OPTIONAL_NAME_COMMANDS)
    def test_empty_bundle_names_the_missing_document(self, tmp_path, capsys, command, what):
        path = write(tmp_path, "bundle.json", {"kind": "bundle", "documents": {}})
        assert main([command, path]) == 2
        assert capsys.readouterr() == ("", f"error: no documents in the bundle; expected a {what}\n")

    @pytest.mark.parametrize("command, what", OPTIONAL_NAME_COMMANDS)
    def test_two_document_bundle_asks_for_the_name(self, tmp_path, capsys, command, what):
        t = docs.groupoid_doc(terminal_groupoid())
        path = write(tmp_path, "bundle.json", {"kind": "bundle", "documents": {"a": t, "b": t}})
        assert main([command, path]) == 2
        assert capsys.readouterr() == ("", f"error: several documents in the bundle; name the {what} explicitly\n")

    @staticmethod
    def _point_cells() -> dict:
        """Identity cells of the identity span "s" on the one-point groupoid "t":
        "d2" over the mediator "P", and "d1" naming "d2" as its mediator."""
        i = identity_functor(terminal_groupoid())
        d = as_diagram(identity_two_cell(Anafunctor(i, i)))

        def cell(mediator: str) -> dict:
            return {
                "kind": "two_cell_diagram",
                "top": "s", "bottom": "s", "mediator": mediator,
                "alpha": docs.functor_doc(d.to_top, "P", "t"),
                "alpha_prime": docs.functor_doc(d.to_bottom, "P", "t"),
                "eta1": {"component": dict(d.left_cell.component)},
                "eta2": {"component": dict(d.right_cell.component)},
            }

        return {"P": docs.groupoid_doc(d.mediator), "d1": cell("d2"), "d2": cell("P")}

    @pytest.mark.parametrize(
        "case, message",
        [
            ("span-left-names-a-later-span", "s1: 'left' does not name a functor document"),
            ("functor-dom-names-a-span", "'s' is not a groupoid document"),
            ("mediator-names-a-later-diagram", "'d2' is not a groupoid document"),
            ("span-left-names-nothing", "no document named 'nowhere' in the bundle"),
        ],
    )
    def test_a_name_of_another_kind_is_refused_by_its_kind(self, tmp_path, capsys, case, message):
        # a document of a kind parsed in a later phase used to be called missing
        t = terminal_groupoid()
        documents = {
            "t": docs.groupoid_doc(t),
            "f": docs.functor_doc(identity_functor(t), "t", "t"),
            "s": docs.span_doc("f", "f"),
        }
        documents.update({
            "span-left-names-a-later-span": {"s1": docs.span_doc("s2", "f"), "s2": docs.span_doc("f", "f")},
            "functor-dom-names-a-span": {"g": docs.functor_doc(identity_functor(t), "s", "t")},
            "mediator-names-a-later-diagram": self._point_cells(),
            "span-left-names-nothing": {"s1": docs.span_doc("nowhere", "f")},
        }[case])
        path = write(tmp_path, "bundle.json", {"kind": "bundle", "documents": documents})
        assert main(["validate", path]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [["demo-klein"], ["check-we", str(Path(__file__).parent / "golden" / "constructions" / "bundle.json"), "proj"]],
        ids=["demo-klein", "check-we"],
    )
    def test_out_into_a_missing_directory_is_an_input_error(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path / "missing" / "out.json")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err

    def test_colliding_pullback_ids_are_an_input_error(self, tmp_path, capsys):
        # ("p,q", "r") and ("p", "q,r") both render "(p,q,r)"
        def discrete(objects):
            arrows = [f"1_{x}" for x in objects]
            return FiniteGroupoid(
                tuple(objects), tuple(arrows), dict(zip(arrows, objects)), dict(zip(arrows, objects)),
                {(a, a): a for a in arrows}, dict(zip(objects, arrows)), {a: a for a in arrows},
            )

        t = terminal_groupoid()
        bundle = {"kind": "bundle", "documents": {"t": docs.groupoid_doc(t)}}
        for name, objects in (("A", ["p,q", "p"]), ("B", ["r", "q,r"])):
            g = discrete(objects)
            bundle["documents"][name] = docs.groupoid_doc(g)
            to_point = GroupoidFunctor(g, t, {x: "*" for x in g.objects}, {a: "u" for a in g.arrows})
            bundle["documents"]["to_" + name] = docs.functor_doc(to_point, name, "t")
        path = write(tmp_path, "bundle.json", bundle)
        assert main(["pullback", "--mode", "strict", path, "to_A", "to_B"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "Traceback" not in err
        assert "'(p,q,r)'" in err

    @pytest.mark.parametrize("props, named", [("bogus", "'bogus'"), ("free,,transitive", "''"), ("", "''")])
    def test_unknown_property_is_an_input_error(self, capsys, props, named):
        bundle = str(Path(__file__).parent / "golden" / "constructions" / "bundle.json")
        assert main(["check-properties", bundle, "klein", "--props", props]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: unknown property {named}\n"

    @pytest.mark.parametrize("exc", [RuntimeError("boom"), InternalCheckError("postcondition failed")])
    def test_unexpected_exception_is_exit_three(self, monkeypatch, capsys, exc):
        def crash(args):
            raise exc

        # a parser of its own, built with the crashing command, dropped after the test
        monkeypatch.setattr(cli, "_cmd_demo_klein", crash)
        monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser.__wrapped__))
        assert main(["demo-klein"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"internal error: {type(exc).__name__}: {exc}\n"

    def test_one_parser_serves_calls_in_sequence(self, tmp_path, capsys, klein_docs):
        action, _ = klein_docs
        path = write(tmp_path, "klein.json", docs.action_doc(action))
        calls = (["pullback", "--mode", "sideways", path, "f", "g"], ["skeleton", path], ["demo-klein"])

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            return code, *capsys.readouterr()

        in_sequence = [run(argv) for argv in calls]
        alone = []
        for argv in calls:
            cli.build_parser.cache_clear()  # as in a fresh process
            alone.append(run(argv))
        assert in_sequence == alone
        assert [code for code, _, _ in alone] == [2, 0, 0]
        assert "invalid choice: 'sideways'" in alone[0][2]
