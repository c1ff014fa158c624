"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests -q``."""

from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stdout

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import corpus  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class Ticks:
    """A clock that returns 0, 1, 2, ... so span times are exact."""

    def __init__(self):
        self.now = -1.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_of_nested_calls():
    t = tracer.Tracer(clock=Ticks())
    leaf = t.span("x.leaf", lambda: "leaf")

    def middle():
        return [leaf(), leaf()]

    middle = t.span("x.middle", middle)
    outer = t.span("x.outer", lambda: middle())
    outer()
    # opens and closes tick the clock: outer [0,7], middle [1,6], leaves [2,3], [4,5]
    assert list(zip(t.starts, t.ends)) == [(0, 7), (1, 6), (2, 3), (4, 5)]
    assert tracer.self_times(t.starts, t.ends, t.parents) == [2, 3, 1, 1]
    s = tracer.summarize(t)
    assert s["self_s"] == {"x.outer": 2, "x.middle": 3, "x.leaf": 2}
    assert s["total_s"] == {"x.outer": 7, "x.middle": 5, "x.leaf": 2}
    assert s["calls"] == {"x.outer": 1, "x.middle": 1, "x.leaf": 2}
    assert s["root_s"] == 7


def test_self_time_counts_overlapping_children_once():
    # children [1,4] and [3,6] cover [1,6] of the parent [0,10]; a child that
    # runs past the parent is clipped to it
    starts, ends, parents = [0, 1, 3, 8], [10, 4, 6, 12], [-1, 0, 0, 0]
    assert tracer.self_times(starts, ends, parents)[0] == 10 - 5 - 2


def test_recursion_counts_total_once_and_verification_inside_constructions():
    t = tracer.Tracer(clock=Ticks())
    check = t.span("core.validate_nat_trans", lambda: True)
    build = t.span("localization.anafunctorify", lambda: check())
    t.span("core.validate_nat_trans", lambda: build())()
    build()
    s = tracer.summarize(t)
    # the first validator is not inside a construction; the other two are
    assert list(zip(t.starts, t.ends)) == [(0, 5), (1, 4), (2, 3), (6, 9), (7, 8)]
    assert s["verify_s"] == 2
    assert s["total_s"]["core.validate_nat_trans"] == 6
    assert s["calls"]["core.validate_nat_trans"] == 3


def test_scaled_time_integrates_the_speed_factor():
    # probes end at 10, 20, 30 and take 1, 2, 4 (medians of neighbours: 1.5, 2, 3)
    tl = speed.Timeline([(10, 1.0), (20, 2.0), (30, 4.0)], ref=2.0)
    assert tl.factors == [2.0 / 1.5, 1.0, 2.0 / 3.0]
    # before the first probe its factor holds, after the last the last one's
    assert tl.scaled(4, 10) == pytest.approx(6 * 2.0 / 1.5)
    assert tl.scaled(15, 25) == pytest.approx(5 * 1.0 + 5 * 2.0 / 3.0)
    assert tl.scaled(30, 36) == pytest.approx(6 * 2.0 / 3.0)
    assert tl.scaled(0, 40) == pytest.approx(tl.scaled(0, 12.5) + tl.scaled(12.5, 40))
    assert tl.median_factor(15, 40) == pytest.approx((1.0 + 2.0 / 3.0) / 2)
    # with no probes, scaled time is wall time
    assert speed.Timeline([]).scaled(3, 5.5) == 2.5


def test_calibrator_samples_until_stopped():
    cal = speed.Calibrator(probe=lambda: 0.001, interval=0.001).start()
    deadline = time.monotonic() + 10
    while len(cal.samples) < 3 and time.monotonic() < deadline:
        time.sleep(0.001)
    cal.stop()
    n = len(cal.samples)
    assert n >= 3 and not cal._thread.is_alive()
    time.sleep(0.01)
    assert len(cal.samples) == n
    assert cal.timeline().scaled(0, 1) > 0


def test_wrappers_leave_results_unchanged():
    import gpdkit
    from gpdkit import cli, core, morita, workbench

    def outputs():
        budget = workbench.InstanceBudget(2, 2, 2, sample_seed=0)
        report = workbench.run_law_suite(budget).to_bytes()
        buf = io.BytesIO()
        stdout = io.TextIOWrapper(buf, encoding="utf-8")
        with redirect_stdout(stdout):
            code = cli.main(["demo-klein"])
            stdout.flush()
        stdout.detach()
        return report, code, buf.getvalue()

    before = outputs()
    original = morita.weak_pullback
    t = tracer.Tracer()
    assert t.install(gpdkit) > 50
    try:
        assert workbench.weak_pullback is not original
        assert workbench.weak_pullback.__wrapped__ is original
        assert outputs() == before
        assert t.counts["core.render_id"] > 0
        assert core.render_id(("a", "b")) == "(a,b)"
    finally:
        t.uninstall()
    assert morita.weak_pullback is original
    assert workbench.weak_pullback is original


def _per_layer_function(name: str):
    import importlib

    parts = name.split(".")
    if len(parts) != 3 or parts[0] not in tracer.LAYERS:
        return None
    module = importlib.import_module(f"gpdkit.{parts[0]}")
    return getattr(module, parts[1], None)


def test_metric_names_are_valid(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOADS)
    metrics = spec["end_to_end"] + spec["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(all_names) == len(set(all_names))
    for m in metrics:
        assert NAME.match(m["name"]), m["name"]
        assert UNIT.match(m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]


def test_per_layer_names_resolve(spec):
    special = {"documents.output_bytes", "verify.self_s", "verify.share", "trace.overhead_s", "trace.spans"}
    for m in spec["per_layer"]:
        name = m["name"]
        parts = name.split(".")
        if name in special or (len(parts) == 2 and parts[0] in tracer.LAYERS and parts[1] == "self_s"):
            continue
        if parts[0] == "workbench" and parts[-1] == "count":
            continue
        fn = _per_layer_function(name)
        assert callable(fn), f"{name} names no public library function"
        if parts[2] in ("arrows", "apex_arrows", "apex_arrows_max"):
            assert ".".join(parts[:2]) in tracer.MEASURES, name
    for name in tracer.VERIFIERS | tracer.CONSTRUCTIONS | set(tracer.MEASURES) | tracer.COUNTED_ONLY:
        assert callable(_per_layer_function(name + ".calls")), f"{name} names no public library function"


def test_corpus_is_seeded_and_independent_of_the_library():
    a, b, c = corpus.generate(7), corpus.generate(7), corpus.generate(8)
    assert a.files() == b.files() and a.digest() == b.digest()
    assert a.digest() != c.digest()
    # other seeds relabel and reorder, with the same requests in other orders
    shape = lambda cp: sorted((r["class"], r["command"][0], r["expect"]) for r in cp.requests)
    assert shape(a) == shape(c)
    with open(corpus.__file__, encoding="utf-8") as fh:
        assert "gpdkit" not in re.sub(r'""".*?"""', "", fh.read(), flags=re.S).replace("gpdkit.cli", "")
    commands = {r["command"][0] for r in a.requests}
    assert commands == set(corpus.QUERY_COMMANDS) | set(corpus.CONSTRUCT_COMMANDS)


def test_suite_worker_reports_what_the_cli_prints():
    budget = ["--budget", "group=2,carrier=2,objects=2", "--seed", "4"]
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    cli_out = subprocess.run(
        [sys.executable, "-m", "gpdkit.cli", "suite", *budget], capture_output=True, env=env, check=True
    ).stdout
    spec = {"mode": "suite", "src": os.path.join(ROOT, "src"), "budget": [2, 2, 2], "sample_seed": 4, "trace": False}
    worker = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"), json.dumps(spec)],
        capture_output=True,
        check=True,
    ).stdout
    assert json.loads(worker.splitlines()[-1])["report"].encode("utf-8") == cli_out
