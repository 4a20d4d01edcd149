"""Repeat test: one seed, two traced runs, the same counts and values.

    python3 -m pytest perfbench/test_repeat.py          # about three minutes

A traced run here is the traced and the untimed child of ``--trace 1``.
Counts (IPM iterations, every ``*.calls`` and the ``momentize.*`` problem
sizes) must be identical; operation values must agree within the tolerance
of their oracle.  Tier-1 does not collect this file.
"""

import os
import shutil
import time

import pytest

import run

SEED = 1
COUNTS = ("ipm.iterations", "momentize.vars", "momentize.eq_rows",
          "momentize.psd_dim", "momentize.nnz")


def traced(workload: str, tmp: str, k: int) -> dict:
    """The traced child's result, with the untimed child's layers merged in."""
    deadline = time.monotonic() + 600
    result = run.run_child(workload, SEED, "traced",
                           os.path.join(tmp, f"{k}-traced"), deadline,
                           run.CPUS[0])
    untimed = run.run_child(workload, SEED, "untimed",
                            os.path.join(tmp, f"{k}-untimed"), deadline,
                            run.CPUS[0])
    result["layers"].update(untimed["layers"])
    return result


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_counts_and_values(workload):
    tmp = os.path.join(run.HERE, "_work", f"repeat-{os.getpid()}-{workload}")
    try:
        first, second = traced(workload, tmp, 0), traced(workload, tmp, 1)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    counts = [m for m in first["layers"] if m.endswith(".calls") or m in COUNTS]
    assert len(counts) == 10
    for m in counts:
        assert first["layers"][m] == second["layers"][m], m
    assert [r["name"] for r in first["ops"]] == [r["name"] for r in second["ops"]]
    for a, b in zip(first["ops"], second["ops"]):
        assert a["ok"] and b["ok"], (a["name"], a["detail"], b["detail"])
        assert a["iterations"] == b["iterations"], a["name"]
        if a["tol"] == 0:
            assert a["value"] == b["value"], a["name"]
        else:
            assert abs(a["value"] - b["value"]) <= a["tol"], a["name"]
