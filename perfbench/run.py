#!/usr/bin/env python3
"""gpdkit benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src`` and every
measured operation runs in a fresh interpreter (``worker.py``), one at a time.

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``suite-default``: the law suite at the default, exhaustive budget
  ``group=8,carrier=4,objects=6``; the seed is the suite's sample seed, which
  at this budget changes the report header only.
* ``suite-sampled``: the law suite at ``group=4,carrier=3,objects=7``, with
  sample seed 1 whatever ``--seed`` is.  The sample decides which 2-cell
  diagrams are built, and with it the work: seeds 0 and 4 take about 46 s,
  seeds 1 to 3 about 16.5 s.  A fixed sample keeps runs comparable.
* ``constructions``: one client in a closed loop sends every request of a
  corpus that ``corpus.py`` generates from ``--seed`` to
  ``gpdkit.cli.main``; each pass over the corpus is one operation.

With ``--trace 0`` operations repeat until ``--seconds`` have passed (at least
two) and the end-to-end metrics are medians over them.  With ``--trace 1`` the
benchmark makes one untraced and two traced operations and reports the
per-layer metrics of the traced ones; the work counters must agree exactly
between the two, and the outputs must be byte-identical to the untraced ones.

Every run is pinned to one vCPU, and operation times are scaled to a reference
speed of that vCPU, measured by a probe that runs beside the work
(``speed.py``); the wall times are printed and recorded too.  Span times in
traced runs are not scaled.

The last line of standard output is the JSON result; the lines before it
print every metric by name with its unit.  A record of the run, with the
corpus digest and machine information, goes to
``.perfbench/results/<workload>-seed<N>-trace<T>.json``; ``compare.py`` reads
two sets of these.  The exit code is 0 when every output check passed; 1,
after the result with ``"correct": false``, when one failed; and 2, with no
result printed, when the checkout has no library to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import speed  # noqa: E402

WORKLOADS = ("suite-default", "suite-sampled", "constructions")
SUITE_BUDGETS = {"suite-default": (8, 4, 6), "suite-sampled": (4, 3, 7)}
SAMPLED_SEED = 1
MIN_OPS = 2
# the set-up is short next to the work; extra set-up-only runs steady its median
MIN_SETUPS = 5
# a run must end within 180 s; no operation starts after this much time
START_LIMIT_S = 120.0
WORKER_TIMEOUT_S = 100.0
EXACT_UNITS = ("count", "bytes")


class Failure(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, q):
    """Nearest-rank percentile; returns (value, samples strictly above it)."""
    if not values:
        return 0.0, 0
    ordered = sorted(values)
    value = ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]
    return value, sum(1 for v in ordered if v > value)


def machine_info() -> dict:
    return {
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
    }


class Bench:
    """One run of one workload: its operations, checks and metrics."""

    def __init__(self, root: str, workload: str, seed: int, seconds: int, trace: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.src = os.path.join(root, "src")
        self.work = os.path.join(root, ".perfbench")
        self.env = {**os.environ, "PYTHONHASHSEED": "0"}
        self.env.pop("PYTHONPATH", None)
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            self.spec = json.load(fh)
        self.failed = 0
        self.attempted = 0
        self.problems: list[str] = []
        self.inputs = None
        self.extra: dict = {}
        self.ops: dict = {}
        self.calibrator: speed.Calibrator | None = None

    # -- operations ------------------------------------------------------

    def spawn(self, spec: dict) -> tuple[dict | None, float]:
        """Run one worker; returns its result (None if it failed) and spawn time."""
        spec = {"src": self.src, **spec}
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
                cwd=self.root,
                env=self.env,
                capture_output=True,
                timeout=WORKER_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self.problems.append(f"{spec['mode']} worker timed out")
            return None, t_spawn
        lines = proc.stdout.decode("utf-8", "replace").splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-1:] or ["no message"]
            self.problems.append(f"{spec['mode']} worker exited {proc.returncode}: {tail[0]}")
            return None, t_spawn
        return json.loads(lines[-1]), t_spawn

    def op_spec(self, traced: bool, index: int) -> dict:
        spans = os.path.join(self.work, f"{self.workload}-seed{self.seed}-op{index}.spans.jsonl")
        spec = {"trace": traced, "spans_path": spans}
        if self.workload == "constructions":
            return {**spec, "mode": "constructions", "corpus_dir": self.corpus_dir}
        return {**spec, "mode": "suite", "budget": SUITE_BUDGETS[self.workload], "sample_seed": self.sample_seed()}

    def sample_seed(self) -> int:
        return SAMPLED_SEED if self.workload == "suite-sampled" else self.seed

    def run_setup(self, index: int) -> float | None:
        out, _ = self.spawn({**self.op_spec(False, index), "setup_only": True})
        if out is None:
            return None
        tl = self.calibrator.timeline()
        return sum(tl.scaled(a, b) for a, b in out["setup_spans"])

    def run_op(self, traced: bool, index: int) -> dict | None:
        out, t_spawn = self.spawn(self.op_spec(traced, index))
        if out is None:
            return None
        tl = self.calibrator.timeline()
        out["setup_s"] = sum(tl.scaled(a, b) for a, b in out["setup_spans"])
        if self.workload == "constructions":
            for r in out["results"]:
                r["latency_s"] = tl.scaled(r["t0"], r["t1"])
            out["work_s"] = sum(r["latency_s"] for r in out["results"])
            out["wall_s"] = sum(r["t1"] - r["t0"] for r in out["results"])
            out["speed"] = tl.median_factor(out["results"][0]["t0"], out["results"][-1]["t1"])
            out["output_bytes"] = sum(r["bytes"] for r in out["results"])
        else:
            out["work_s"] = tl.scaled(t_spawn, out["t_report"])
            out["wall_s"] = out["t_report"] - t_spawn
            out["speed"] = tl.median_factor(t_spawn, out["t_report"])
            out["output_bytes"] = len(out["report"].encode("utf-8"))
        return out

    # -- correctness -------------------------------------------------------

    def check(self, ops: list[dict | None]) -> None:
        """Count attempted and failed operations; every output must repeat."""
        if self.workload == "constructions":
            self._check_requests(ops)
            return
        reports = []
        for op in ops:
            self.attempted += 1
            if op is None:
                self.failed += 1
                continue
            if json.loads(op["report"]).get("ok") is not True:
                self.failed += 1
                self.problems.append("suite report is not ok")
                continue
            reports.append(op["report"])
        if len(set(reports)) > 1:
            self.failed += len(reports) - reports.count(reports[0])
            self.problems.append("suite report bytes differ between runs")

    def _check_requests(self, ops):
        n = len(self.requests)
        first_digest: dict[int, str] = {}
        for op in ops:
            self.attempted += n
            if op is None:
                self.failed += n
                continue
            for r in op["results"]:
                bad = list(r["problems"])
                if first_digest.setdefault(r["id"], r["digest"]) != r["digest"]:
                    bad.append("output digest changed between repetitions")
                if bad:
                    self.failed += 1
                    req = self.requests[r["id"]]
                    self.problems.append(f"request {r['id']} ({' '.join(req['command'])}): {'; '.join(bad)}")

    # -- the two kinds of run -----------------------------------------------

    def end_to_end(self) -> dict:
        ops = []
        t_begin = time.monotonic()
        while True:
            ops.append(self.run_op(False, len(ops)))
            elapsed = time.monotonic() - t_begin
            last = ops[-1]["work_s"] if ops[-1] else 0.0
            if len(ops) >= MIN_OPS and (elapsed >= self.seconds or elapsed + last > START_LIMIT_S):
                break
        self.check(ops)
        done = [op for op in ops if op]
        setups = [op["setup_s"] for op in done]
        while len(setups) < MIN_SETUPS:
            setup = self.run_setup(len(setups))
            if setup is None:
                break
            setups.append(setup)
        metrics = {
            "setup_s": _median(setups),
            "peak_rss_mb": _median([op["peak_rss_mb"] for op in done]),
            "suite_s": _median([op["work_s"] for op in done]),
        }
        self.report_lines(done, metrics)
        self.ops = {key: [op[key] for op in done] for key in ("setup_s", "peak_rss_mb", "work_s", "wall_s", "speed")}
        return metrics

    def per_layer(self) -> dict:
        ops = [self.run_op(False, 0), self.run_op(True, 1), self.run_op(True, 2)]
        self.check(ops)
        if not all(ops):
            return {m["name"]: 0 for m in self.spec["per_layer"]}
        untraced, traced = ops[0], ops[1:]
        metrics = {"trace.overhead_s": _median([op["work_s"] for op in traced]) - untraced["work_s"]}
        for m in self.spec["per_layer"]:
            name = m["name"]
            if name in metrics:
                continue
            values = [self.layer_value(name, op) for op in traced]
            if m["unit"] in EXACT_UNITS and values[0] != values[1]:
                self.problems.append(f"work counter {name} differs between repetitions: {values[0]} vs {values[1]}")
                self.failed += 1
            metrics[name] = values[0] if m["unit"] in EXACT_UNITS else _median(values)
        self.trace_lines(traced[0], metrics, untraced)
        return metrics

    def layer_value(self, name: str, op: dict):
        """One per-layer metric from a traced operation, by its name."""
        tr = op["trace"]
        if name in op.get("counts", {}):
            return op["counts"][name]
        special = {
            "documents.output_bytes": lambda: op["output_bytes"],
            "verify.self_s": lambda: tr["verify_s"],
            "verify.share": lambda: tr["verify_s"] / tr["root_s"],
            "trace.spans": lambda: tr["spans"],
        }
        if name in special:
            return special[name]()
        parts = name.split(".")
        if len(parts) == 2 and parts[1] == "self_s":
            return sum(v for k, v in tr["self_s"].items() if k.startswith(parts[0] + "."))
        fn, stat = ".".join(parts[:2]), parts[2]
        if stat == "calls":
            return tr["calls"].get(fn, 0) or tr["counts"].get(fn, 0)
        if stat in ("self_s", "total_s"):
            return tr[stat].get(fn, 0.0)
        if stat.endswith("_max"):
            return tr["maxima"].get(f"{fn}.{stat[:-4]}", 0)
        return tr["counts"].get(f"{fn}.{stat}", 0)

    # -- output ------------------------------------------------------------

    def report_lines(self, ops, metrics):
        """Every end-to-end metric of the workload, by name with its unit."""
        n = len(ops)
        lines = [
            ("setup_s", metrics["setup_s"], "s", f"median of {max(n, MIN_SETUPS)} set-ups"),
            ("peak_rss_mb", metrics["peak_rss_mb"], "MB", f"median of {n} runs"),
        ]
        ratio = self.failed / self.attempted if self.attempted else 0.0
        lines.append(("failed_ratio", ratio, "ratio", f"{self.failed} of {self.attempted} failed"))
        if self.workload == "constructions":
            lines.append(("suite_s", metrics["suite_s"], "s", f"median of {n} passes over {len(self.requests)} requests"))
            total = sum(op["work_s"] for op in ops)
            count = sum(len(op["results"]) for op in ops)
            lines.append(("requests_per_s", count / total if total else 0.0, "1/s", f"{count} requests"))
            for cls in (corpus.QUERY, corpus.CONSTRUCT):
                lat = [r["latency_s"] * 1000 for op in ops for r in op["results"] if r["class"] == cls]
                for q in (50, 90):
                    value, beyond = _percentile(lat, q)
                    lines.append((f"{cls}_p{q}_ms", value, "ms", f"{len(lat)} samples, {beyond} beyond"))
        else:
            lines.append(("suite_s", metrics["suite_s"], "s", f"median of {n} runs, interpreter start to report"))
        lines.append(("wall_s", _median([op["wall_s"] for op in ops]), "s", "median unscaled suite_s"))
        lines.append(("speed", _median([op["speed"] for op in ops]), "ratio", "median host speed factor"))
        for name, value, unit, note in lines:
            print(f"  {name:18} {value:12.4f} {unit:6} {note}")
        self.extra = {name: value for name, value, _, _ in lines}

    def trace_lines(self, op, metrics, untraced):
        tr = op["trace"]
        top = sorted(tr["self_s"].items(), key=lambda kv: -kv[1])[:12]
        print(f"  untraced {untraced['work_s']:.3f} s, traced {untraced['work_s'] + metrics['trace.overhead_s']:.3f} s")
        print("  largest self times (first traced run):")
        for name, value in top:
            print(f"    {name:44} {value:9.4f} s  {tr['calls'][name]:8d} calls")
        for m in self.spec["per_layer"]:
            print(f"  {m['name']:44} {metrics[m['name']]!s:>22} {m['unit']}")

    def run(self) -> dict:
        if not os.path.isfile(os.path.join(self.src, "gpdkit", "__init__.py")):
            raise Failure(f"no gpdkit package under {self.src}")
        os.makedirs(os.path.join(self.work, "results"), exist_ok=True)
        if self.spawn({"mode": "warm"})[0] is None:
            raise Failure("the library does not import: " + "; ".join(self.problems))
        if self.workload == "constructions":
            generated = corpus.generate(self.seed)
            self.requests = generated.requests
            self.inputs = generated.digest()
            self.corpus_dir = os.path.join(self.work, f"corpus-seed{self.seed}")
            os.makedirs(self.corpus_dir, exist_ok=True)
            for name, data in generated.files().items():
                with open(os.path.join(self.corpus_dir, name), "wb") as fh:
                    fh.write(data)
        else:
            group, carrier, objects = SUITE_BUDGETS[self.workload]
            self.inputs = f"suite:group={group},carrier={carrier},objects={objects},seed={self.sample_seed()}"
        print(f"perfbench {self.workload} seed={self.seed} trace={int(self.trace)} inputs={self.inputs}")
        # the probe must share the vCPU with the work it calibrates
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.calibrator = speed.Calibrator().start()
        try:
            metrics = self.per_layer() if self.trace else self.end_to_end()
        finally:
            self.calibrator.stop()
        for line in self.problems[:20]:
            print(f"  FAILED: {line}")
        result = {
            "correct": self.failed == 0 and not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                for m in self.spec["per_layer" if self.trace else "end_to_end"]
            },
        }
        record = {
            "workload": self.workload,
            "seed": self.seed,
            "trace": int(self.trace),
            "inputs": self.inputs,
            "machine": machine_info(),
            "summary": self.extra,
            "problems": self.problems,
            "ops": self.ops,
            **result,
        }
        path = os.path.join(self.work, "results", f"{self.workload}-seed{self.seed}-trace{int(self.trace)}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
        return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        bench = Bench(root, args.workload, args.seed, args.seconds, bool(args.trace))
        result = bench.run()
    except (Failure, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
