"""One measured operation in a fresh interpreter; prints one JSON line.

``python3 perfbench/worker.py '<spec as JSON>'``, started by ``run.py``.  The
spec names the mode:

* ``warm``: import the library once, so later imports read compiled bytecode.
* ``suite``: import gpdkit, build the law-suite instances (together the
  set-up), run the suite over them and return the report.
* ``constructions``: import gpdkit, parse every corpus bundle once (the
  set-up), then send every request of the corpus to ``gpdkit.cli.main`` in
  order, one at a time, capturing what each writes.

With ``"setup_only": true`` a ``suite`` or ``constructions`` worker stops
after the set-up.  With ``"trace": true`` the library is wrapped by
``tracer.Tracer`` after the import, and the result carries the per-name span
summary; the spans are written to ``spans_path``.

Times are reported as (start, end) pairs on the monotonic clock, which
``run.py`` shares, so that it can scale them by the host speed it measured
meanwhile (``speed.py``).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _import_library(src: str):
    """Returns the package and the (start, end) of the import on the monotonic clock."""
    sys.path.insert(0, src)
    t0 = time.monotonic()
    import gpdkit
    import gpdkit.cli
    import gpdkit.documents

    return gpdkit, (t0, time.monotonic())


def _setup(spans) -> dict:
    return {"setup_s": sum(b - a for a, b in spans), "setup_spans": spans}


def _start_tracer(spec, gpdkit):
    if not spec.get("trace"):
        return None
    import tracer

    t = tracer.Tracer()
    t.install(gpdkit)
    return t


def _finish_tracer(spec, t, out: dict) -> None:
    if t is None:
        return
    import tracer

    out["trace"] = {**tracer.summarize(t), "counts": dict(t.counts), "maxima": dict(t.maxima)}
    t.write(spec["spans_path"])


def run_suite(spec) -> dict:
    gpdkit, imported = _import_library(spec["src"])
    from gpdkit import workbench

    t = _start_tracer(spec, gpdkit)
    budget = workbench.InstanceBudget(*spec["budget"], sample_seed=spec["sample_seed"])
    t0 = time.monotonic()
    instances = workbench.build_instances(budget)
    setup = _setup([imported, (t0, time.monotonic())])
    if spec.get("setup_only"):
        return setup
    report = workbench.run_law_suite(budget, instances)
    data = report.to_bytes()
    t_report = time.monotonic()
    out = {
        **setup,
        "t_report": t_report,
        "report": data.decode("utf-8"),
        "counts": {
            "workbench.actions.count": len(instances.actions),
            "workbench.weak_equivalences.count": len(instances.weak_equivalences),
            "workbench.functor_pairs.count": len(instances.functor_pairs),
            "workbench.spans.count": len(instances.spans),
            "workbench.law_instances.count": sum(law.instances for law in report.laws),
        },
    }
    _finish_tracer(spec, t, out)
    return out


def _call_cli(cli, argv):
    """Run one request in process; returns (exit code or None, stdout, stderr)."""
    out, err = io.BytesIO(), io.BytesIO()
    w_out, w_err = io.TextIOWrapper(out, encoding="utf-8"), io.TextIOWrapper(err, encoding="utf-8")
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = w_out, w_err
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        traceback.print_exc()
        code = None
    finally:
        w_out.flush()
        w_err.flush()
        sys.stdout, sys.stderr = saved
        w_out.detach()
        w_err.detach()
    return code, out.getvalue(), err.getvalue()


def run_constructions(spec) -> dict:
    gpdkit, imported = _import_library(spec["src"])
    from gpdkit import cli, documents

    corpus_dir = spec["corpus_dir"]
    with open(os.path.join(corpus_dir, "requests.json"), "rb") as fh:
        requests = json.loads(fh.read())["requests"]
    bundle_names = sorted({r["bundle"] for r in requests if r["bundle"]})
    t0 = time.monotonic()
    for name in bundle_names:
        with open(os.path.join(corpus_dir, name + ".json"), "rb") as fh:
            documents.parse_bundle(documents.loads(fh.read()))
    setup = _setup([imported, (t0, time.monotonic())])
    if spec.get("setup_only"):
        return setup

    # bound before tracing starts: the output check is not the library's work
    check_loads = documents.loads
    t = _start_tracer(spec, gpdkit)
    results = []
    for req in requests:
        argv = [os.path.join(corpus_dir, a + ".json") if a == req["bundle"] else a for a in req["command"]]
        if t is not None:
            t.request = req["id"]
            span = t.open("cli." + req["command"][0])
        t0 = time.monotonic()
        code, stdout, stderr = _call_cli(cli, argv)
        t1 = time.monotonic()
        if t is not None:
            t.close(span)
        problems = []
        if code != req["expect"]:
            problems.append(f"exit {code}, expected {req['expect']}")
        if b"Traceback" in stderr:
            problems.append("traceback: " + stderr.decode("utf-8", "replace").strip().splitlines()[-1])
        try:
            check_loads(stdout)
        except documents.SchemaError as exc:
            problems.append(f"output does not load: {exc}")
        results.append(
            {
                "id": req["id"],
                "class": req["class"],
                "t0": t0,
                "t1": t1,
                "bytes": len(stdout),
                "digest": hashlib.sha256(stdout).hexdigest(),
                "problems": problems,
            }
        )
    out = {**setup, "results": results}
    _finish_tracer(spec, t, out)
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec["mode"] == "warm":
        _import_library(spec["src"])
        out = {}
    elif spec["mode"] == "suite":
        out = run_suite(spec)
    else:
        out = run_constructions(spec)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
