"""Every demo prints exactly its golden output.

Each file ``tests/golden/demos/NN.txt`` is the standard output of
``demos/NN_*.py``, run as a script with ``src`` on the import path.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden" / "demos"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_prints_its_golden_output(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, str(demo)], capture_output=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (GOLDEN / f"{demo.name[:2]}.txt").read_bytes()


def test_every_demo_has_a_golden():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [d.name[:2] for d in DEMOS]
