"""Constructed ids and tables, byte for byte, on one fixed bundle.

Each golden file under ``tests/golden/constructions`` is the standard output
of ``gpdkit <command>`` run from that directory, with the arguments listed
below.  A change to how tables or ids are built must leave these bytes alone.
"""

from pathlib import Path

import pytest

from gpdkit import documents as docs
from gpdkit.cli import main

GOLDEN = Path(__file__).parent / "golden" / "constructions"

COMMANDS = {
    "demo-klein": ["demo-klein"],
    "pullback-strict": ["pullback", "--mode", "strict", "bundle.json", "to_loop", "to_loop"],
    "pullback-weak": ["pullback", "--mode", "weak", "bundle.json", "to_loop", "to_loop"],
    "compose-ana": ["compose-ana", "bundle.json", "span", "loop_span"],
    "compose-gen": ["compose-gen", "bundle.json", "span", "loop_span"],
    "anafunctorify": ["anafunctorify", "bundle.json", "span"],
    "anafunctorify-equivariant": ["anafunctorify", "bundle.json", "span", "--equivariant"],
    "decompose": ["decompose", "bundle.json", "proj"],
    "balanced-product": ["balanced-product", "bundle.json", "klein", "inner"],
    "quotient-factorize": ["quotient-factorize", "bundle.json", "proj"],
    "skeleton": ["skeleton", "bundle.json", "klein"],
    "normalize-2cell": ["normalize-2cell", "bundle.json", "flip"],
    "2cells-equal": ["2cells-equal", "bundle.json", "cell", "cell"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_construction_matches_its_golden_bytes(name, tmp_path):
    out = tmp_path / "out.json"
    argv = [str(GOLDEN / a) if a == "bundle.json" else a for a in COMMANDS[name]]
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", ["decompose", "quotient-factorize"])
def test_unannotated_functor_is_recovered_as_equivariant(name, tmp_path):
    """Without its ``equivariant`` annotation, ``proj``'s group map is read off its arrow map."""
    bundle = docs.loads((GOLDEN / "bundle.json").read_bytes())
    del bundle["documents"]["proj"]["equivariant"]
    path, out = tmp_path / "bundle.json", tmp_path / "out.json"
    path.write_bytes(docs.dumps(bundle))
    argv = [str(path) if a == "bundle.json" else a for a in COMMANDS[name]]
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


def test_every_golden_file_has_a_command():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted([*COMMANDS, "bundle"])


BROKEN = Path(__file__).parent / "golden" / "validate"


def test_validate_report_on_one_broken_document_of_each_kind(tmp_path):
    """``validate/bundle.json`` breaks one groupoid, group, functor, span (its
    left leg is not a weak equivalence), transformation and 2-cell diagram."""
    out = tmp_path / "out.json"
    assert main(["validate", str(BROKEN / "bundle.json"), "--out", str(out)]) == 1
    assert out.read_bytes() == (BROKEN / "report.json").read_bytes()
