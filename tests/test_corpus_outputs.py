"""Every request of the seed-1 and seed-11 perfbench corpora, byte for byte.

The corpus generator in ``perfbench/corpus.py`` writes a few dozen bundles and
the requests the ``constructions`` workload sends.  This test runs each
request in process through :func:`gpdkit.cli.main`, as the benchmark's worker
does, from the directory the bundles are written to, and compares its exit
code, the sha256 of its standard output and its standard error text with
``tests/golden/corpus_seed<seed>.json``.  Seed 11 is the benchmark's seed, so
its golden pins the bytes the ``constructions`` workload measures.

To capture the goldens again after a deliberate output change, run
``PYTHONPATH=src python tests/test_corpus_outputs.py --write``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 11)

sys.path.insert(0, str(ROOT / "perfbench"))

import corpus  # noqa: E402
from worker import _call_cli  # noqa: E402

from gpdkit import cli  # noqa: E402
from gpdkit import documents as docs  # noqa: E402


def golden_path(seed: int) -> Path:
    return ROOT / "tests" / "golden" / f"corpus_seed{seed}.json"


def run_corpus(directory: Path, seed: int) -> dict[str, dict]:
    """Write the corpus of ``seed`` into ``directory`` and run every request from there."""
    generated = corpus.generate(seed)
    for name, data in generated.files().items():
        (directory / name).write_bytes(data)
    results = {}
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for req in generated.requests:
            argv = [a + ".json" if a == req["bundle"] else a for a in req["command"]]
            code, stdout, stderr = _call_cli(cli, argv)
            results[str(req["id"])] = {
                "argv": argv,
                "exit": code,
                "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
                "stderr": stderr.decode("utf-8"),
            }
    finally:
        os.chdir(cwd)
    return results


@pytest.mark.parametrize("seed", SEEDS)
def test_every_corpus_request_matches_its_golden(tmp_path, seed):
    golden = json.loads(golden_path(seed).read_text(encoding="utf-8"))
    results = run_corpus(tmp_path, seed)
    assert sorted(results) == sorted(golden)
    for rid, expected in golden.items():
        assert results[rid] == expected, f"request {rid}: {expected['argv']}"


@pytest.mark.parametrize("seed", [1, 2, 7, 11])
def test_every_corpus_bundle_and_golden_bundle_parses(seed):
    """No bundle the benchmark or the goldens use repeats a table row's pair."""
    bundles = [docs.loads(data) for name, data in corpus.generate(seed).files().items() if name != "requests.json"]
    for path in sorted((ROOT / "tests" / "golden").rglob("*.json")):
        doc = docs.loads(path.read_bytes())
        if doc.get("kind") == "bundle":
            bundles.append(doc)
    assert len(bundles) > 20
    for bundle in bundles:
        docs.parse_bundle(bundle)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    import tempfile

    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            results = run_corpus(Path(tmp), seed)
        golden_path(seed).write_text(json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8")
