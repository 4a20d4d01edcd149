"""One benchmark child: set up, run one cold pass, check it, report.

Run by ``run.py``, one fresh process per pass, as

    python3 perfbench/child.py WORKLOAD SEED MODE WORKDIR SPAWNED

MODE is ``setup`` (stop once ready), ``pass``, ``traced`` (spans only) or
``untimed`` (counts, problem sizes and peak allocations).  SPAWNED is the
parent's ``time.monotonic()`` just before it started this process; the
monotonic clock is shared by all processes of the machine, so the child
measures its own set-up time from it.  The result is written as JSON to
WORKDIR/result.json.
"""

import json
import os
import resource
import sys
import time

# The BLAS pool size is fixed when numpy loads, so pin it before any import
# that could load numpy.  ``run.py`` always sets these to 1; a value already in
# the environment is kept so that the child can be run by hand with another.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_checkout():
    """Import ncmoment from this checkout's src/, never from anywhere else."""
    sys.path[:0] = [SRC, HERE]
    import ncmoment

    where = os.path.dirname(os.path.abspath(ncmoment.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise ImportError(f"ncmoment was imported from {where}, not from {SRC}")


def run_pass(ops, tracer=None):
    """Time each operation, then check it outside the timed region.

    With a ``Tracer`` each operation is the root span of its spans.
    """
    seen = {}
    records = []
    for k, op in enumerate(ops):
        rec = {"name": op.name, "ok": False, "value": None, "iterations": None,
               "tol": op.tol, "detail": ""}
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = op.run()
            else:
                with tracer.operation(k, op.name):
                    out = op.run()
        except Exception as exc:  # an operation that raises counts as failed
            rec["seconds"] = time.perf_counter() - t0
            rec["detail"] = f"{type(exc).__name__}: {exc}"
            records.append(rec)
            continue
        rec["seconds"] = time.perf_counter() - t0
        try:
            rec["ok"], rec["detail"] = op.check(out, seen)
            rec["value"] = op.value(out)
            rec["iterations"] = op.iterations(out)
        except Exception as exc:  # a malformed result fails its oracle
            rec["ok"], rec["detail"] = False, f"check {type(exc).__name__}: {exc}"
        rec["ok"] = bool(rec["ok"])
        del out
        records.append(rec)
    return records


def main(argv):
    workload, seed, mode, workdir, spawned = argv
    seed, spawned = int(seed), float(spawned)
    _import_checkout()
    import numpy as np
    import scipy

    import workloads

    ops = workloads.make_ops(workload, seed, workdir)
    ready = time.monotonic()
    result = {
        "setup_s": ready - spawned,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        .get("version", "unknown"),
        "threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }
    if mode != "setup":
        hooks = None
        if mode in ("traced", "untimed"):
            import tracer as tracing

            if mode == "untimed":
                # Let the peak sampling thread in about every half millisecond.
                sys.setswitchinterval(0.0005)
            hooks = tracing.Tracer() if mode == "traced" else tracing.Probe()
            hooks.install()
        try:
            ops_out = run_pass(ops, hooks if mode == "traced" else None)
        finally:
            if hooks is not None:
                hooks.uninstall()
        result["ops"] = ops_out
        result["pass_s"] = sum(r["seconds"] for r in ops_out)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if hooks is not None:
            result["layers"] = hooks.metrics()
        if mode == "traced":
            result["spans"] = hooks.write_spans(os.path.join(workdir, "spans.tsv"))
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
