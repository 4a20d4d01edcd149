"""ncmoment benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass runs in a fresh child process
(``child.py``) pinned to one CPU, with the BLAS pool pinned to one thread.  It
imports ncmoment from the checkout's ``src/`` and times one cold pass over the
workload's fixed operation list; every result is checked against an oracle.

With ``--trace 0`` the run starts passes one after another while the next one
is expected to end within ``--seconds`` (always at least one), then starts
set-up-only children until it holds SETUP_SAMPLES set-up times, and prints the
medians of the end-to-end metrics.  With ``--trace 1`` it runs an untraced pass,
a traced pass (spans only) and an untimed pass (counts, problem sizes and peak
allocations), and prints the per-layer metrics plus the tracing overhead:
traced minus untraced ``pass_s``.  The last line of standard output is one JSON
object.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from child import BLAS_VARS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("graph", "chsh-xiq", "build-r3")
SETUP_SAMPLES = 5
# One deadline for all children of a run.  The longest traced run, chsh-xiq,
# took 95 s while passes ran 1.35x slower than their median, so it ends in
# time unless the machine runs about 2.4x slower than that median.
CHILD_TIMEOUT_S = 170
# Children of a run take these CPUs in turn, one child at a time.  On a shared
# host each vCPU slows down and recovers on its own: a fixed loop pinned to
# each of two vCPUs took 8 or 12 ms per call, with the slow spells at
# different times.  A run kept on one vCPU could spend every pass in one spell.
CPUS = sorted(os.sched_getaffinity(0))

END_TO_END = [("pass_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
TRACE_CHILDREN = ("untraced", "traced", "untimed")


class ChildError(RuntimeError):
    pass


def child_env(mode: str) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONMALLOC")}
    for var in BLAS_VARS:
        env[var] = "1"
    # Fixed string hashing, so two runs with one seed take the same path.
    env["PYTHONHASHSEED"] = "0"
    if mode == "untimed":
        # Route Python objects through glibc malloc, where the tracer reads
        # the bytes in use.
        env["PYTHONMALLOC"] = "malloc"
    return env


def run_child(workload: str, seed: int, mode: str, workdir: str,
              deadline: float, cpu: int) -> dict:
    os.makedirs(workdir)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed),
           mode, workdir]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd + [repr(spawned)], cwd=ROOT,
                            env=child_env(mode), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildError(f"{mode} child of {workload} timed out") from None
    if proc.returncode != 0:
        raise ChildError(f"{mode} child of {workload} exited with "
                         f"{proc.returncode}:\n{err.strip()}")
    with open(os.path.join(workdir, "result.json")) as fh:
        result = json.load(fh)
    result["wall_s"] = time.monotonic() - spawned
    result["workdir"] = workdir
    return result


def commit_of(root: str) -> str:
    """HEAD commit when the checkout is a git work tree, else "unknown"."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def print_ops(label: str, ops: list):
    for r in ops:
        status = "ok" if r["ok"] else "FAILED"
        value = "" if r["value"] is None else f" value={r['value']}"
        iters = "" if r["iterations"] is None else f" iterations={r['iterations']}"
        print(f"  [{label}] {r['name']:<30} {r['seconds']:9.4f} s  {status}"
              f"{value}{iters}  {r['detail']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "ncmoment")):
        print(f"error: no ncmoment sources under {ROOT}/src", file=sys.stderr)
        return 1

    work = os.path.join(HERE, "_work")
    base = os.path.join(work, str(os.getpid()))
    started = time.monotonic()
    deadline = started + CHILD_TIMEOUT_S
    counter = itertools.count()

    def child(mode):
        k = next(counter)
        # A traced run keeps its children on one CPU, so that the overhead
        # compares two passes made on the same vCPU.
        cpu = CPUS[0] if args.trace else CPUS[k % len(CPUS)]
        return run_child(args.workload, args.seed, mode,
                         os.path.join(base, f"{k}-{mode}"), deadline, cpu)

    try:
        if args.trace:
            plain = child("pass")
            traced = child("traced")
            untimed = child("untimed")
            passes = [plain, traced, untimed]
            os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
            spans = os.path.join(HERE, "traces",
                                 f"{args.workload}-seed{args.seed}.tsv")
            shutil.move(os.path.join(traced["workdir"], "spans.tsv"), spans)
        else:
            passes = [child("pass")]
            while True:
                elapsed = time.monotonic() - started
                if elapsed + passes[-1]["wall_s"] > args.seconds:
                    break
                passes.append(child("pass"))
            setups = [p["setup_s"] for p in passes]
            while len(setups) < SETUP_SAMPLES:
                setups.append(child("setup")["setup_s"])
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            os.rmdir(work)
        except OSError:  # another run still uses it
            pass

    ops = [r for p in passes for r in p["ops"]]
    attempted = len(ops)
    failed = sum(not r["ok"] for r in ops)
    env = {
        "nproc": os.cpu_count(),
        "numpy": passes[0]["numpy"],
        "scipy": passes[0]["scipy"],
        "openblas": passes[0]["openblas"],
        "threads": passes[0]["threads"],
        "seed": args.seed,
        "commit": commit_of(ROOT),
    }
    print("environment " + json.dumps(env, sort_keys=True))
    for k, p in enumerate(passes):
        print_ops(TRACE_CHILDREN[k] if args.trace else f"pass {k}", p["ops"])
    print(f"failed_frac {failed / attempted:.4f} ({failed} of {attempted} operations)")

    if args.trace:
        metrics = {**traced["layers"], **untimed["layers"]}
        iters = metrics["ipm.iterations"]
        metrics["ipm.s_per_iter"] = (metrics["ipm.solve_ipm.self_s"] / iters
                                     if iters else 0.0)
        metrics["trace.pass_s"] = traced["pass_s"]
        metrics["trace.overhead_s"] = traced["pass_s"] - plain["pass_s"]
        print("child wall times: " + ", ".join(
            f"{name} {p['wall_s']:.1f} s" for name, p in zip(TRACE_CHILDREN, passes))
            + f" (all children share a {CHILD_TIMEOUT_S} s deadline)")
        print("trace.overhead_s is one traced pass minus one untraced pass, a "
              "single difference that includes machine drift, not a measured "
              "cost")
        units = {}
        for name in metrics:
            units[name] = ("s" if name.endswith(("_s", ".s_per_iter"))
                           else "MB" if name.endswith("_mb")
                           else "ratio" if name.endswith("_ratio") else "count")
        print(f"spans {traced['spans']} written to {os.path.relpath(spans, ROOT)}")
    else:
        metrics = {
            "pass_s": statistics.median(p["pass_s"] for p in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        units = dict(END_TO_END)
        print(f"samples: {len(passes)} passes, {len(setups)} set-ups")
        # Printed, not gated: the median operation is a 0.1-0.2 s call whose
        # time swings by a quarter between runs on a shared machine.
        print(f"op_s.p50 {statistics.median(r['seconds'] for r in ops):.6f} s "
              f"over {len(ops)} operation latencies (not gated)")
    for name, value in metrics.items():
        print(f"{name:<48} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
