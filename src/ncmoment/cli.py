"""Command-line entry point: files in, machine-readable run reports out.

Exit codes: 0 success, 2 infeasible/diagnostic outcomes (including a
nonclassical verdict), 1 errors.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time

import numpy as np

from . import __version__, conic, corrlab, graphs, ncwords, qgraph
from .entdim import (
    Correlation,
    CorrelationError,
    InfeasibleCorrelationError,
    Scenario,
    build_xi_problem,
    solve_xi_problem,
)

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["command", "parameter", "status", "version", "timings"],
    "properties": {
        "command": {"type": "string"},
        "input_digest": {"type": ["string", "null"]},
        "parameter": {"type": "string"},
        "level": {"type": ["integer", "null"]},
        "value": {"type": ["number", "null"]},
        "status": {"type": "string"},
        "flatness": {
            "type": ["object", "null"],
            "properties": {
                "r": {"type": "integer"},
                "ranks": {"type": "array", "items": {"type": "integer"}},
                "tau_rank": {"type": "number"},
                "flat_deltas": {"type": "array", "items": {"type": "integer"}},
                "entdim_delta": {"type": "integer"},
                "entdim_flat": {"type": "boolean"},
            },
        },
        "timings": {
            "type": "object",
            "properties": {"total_s": {"type": "number"}},
            "required": ["total_s"],
        },
        "solver": {"type": ["object", "null"]},
        "diagnostics": {"type": ["object", "null"]},
        "version": {"type": "string"},
    },
}


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load_graph(path: str) -> graphs.Graph:
    with open(path) as fh:
        text = fh.read()
    if path.endswith((".col", ".dimacs")) or text.lstrip().startswith(("c", "p")):
        return graphs.from_dimacs(text)
    return graphs.from_json(text)


def _write(payload: str, out):
    """Write ``payload`` and a newline to the file ``out``, or to stdout."""
    if out:
        with open(out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def _finite(x):
    """``x`` with every non-finite float replaced by None, which JSON
    writes as null (RFC 8259 has no infinities or NaN)."""
    if isinstance(x, dict):
        return {k: _finite(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite(v) for v in x]
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _emit(report: dict, out):
    _write(json.dumps(_finite(report), indent=2, sort_keys=True, allow_nan=False), out)


def _report_base(args, parameter: str, input_path=None) -> dict:
    return {
        "command": " ".join(args.argv) if args.argv else parameter,
        "input_digest": _digest(input_path) if input_path else None,
        "parameter": parameter,
        "level": getattr(args, "level", None),
        "value": None,
        "status": "error",
        "flatness": None,
        "timings": {"total_s": 0.0},
        "solver": None,
        "diagnostics": None,
        "version": __version__,
    }


def _solver_summary(solution) -> dict:
    if solution is None:
        return None
    problem = solution.problem
    return {
        "problem": None if problem is None else {
            "num_vars": problem.num_vars,
            "num_orbits": solution.num_orbits,
            "solver_blocks": solution.solver_blocks,
            "num_eq": problem.metadata["num_eq"],
            "block_sizes": problem.metadata["block_sizes"],
        },
        "iterations": solution.iterations,
        "stop": solution.stop,
        "schur_rank_deficient": solution.schur_rank_deficient,
        "residuals": {k: (float(v) if isinstance(v, (int, float, np.floating))
                          else v)
                      for k, v in solution.residuals.items()},
        "status": solution.status.value,
    }


# Each graph parameter and its bound on g at level r, given the parsed
# arguments.
GRAPH_PARAMS = {
    "theta": lambda g, r, args: qgraph.theta(g),
    "theta-plus": lambda g, r, args: qgraph.xi_col(
        g, r, qgraph.Strengthening.THETA_PLUS),
    "xi-sdp": lambda g, r, args: qgraph.xi_col(
        g, r, qgraph.Strengthening.XI_SDP),
    "xi-col": lambda g, r, args: qgraph.xi_col(g, r),
    "xi-stab": lambda g, r, args: qgraph.xi_stab(g, r),
    "gamma-col": lambda g, r, args: qgraph.gamma_col(g, r, cross_check=args.cross_check),
    "gamma-stab": lambda g, r, args: qgraph.gamma_stab(g, r, cross_check=args.cross_check),
    "las-col": lambda g, r, args: qgraph.lasserre_col(g, r),
    "las-stab": lambda g, r, args: qgraph.lasserre_stab(g, r),
    "lambda": lambda g, r, args: qgraph.Lambda(g, r),
}


def cmd_graph_bound(args) -> int:
    report = _report_base(args, args.param, args.input)
    t0 = time.perf_counter()
    g = _load_graph(args.input)
    r, param = args.level, args.param
    res = GRAPH_PARAMS[param](g, r, args)
    report["value"] = res.value
    report["status"] = "ok"
    report["flatness"] = res.flatness.summary() if res.flatness else None
    report["solver"] = _solver_summary(res.solution)
    report["diagnostics"] = {
        "anchor": res.anchor,
        **{k: v for k, v in res.diagnostics.items() if k != "margins"},
    }
    if args.vertex_transitive and param in ("xi-col", "xi-stab"):
        check = qgraph.product_identity_check(g, r, vertex_transitive=True)
        report["diagnostics"]["product_identity"] = {
            k: v for k, v in check.items() if k != "violations"
        }
    report["timings"]["total_s"] = time.perf_counter() - t0
    _emit(report, args.out)
    return 0


def cmd_corr_bound(args) -> int:
    report = _report_base(args, "xi-q", args.input)
    t0 = time.perf_counter()
    with open(args.input) as fh:
        P = Correlation.from_json(fh.read())
    problem = build_xi_problem(P, args.level)
    if args.export_sdpa:
        with open(args.export_sdpa, "wb") as fh:
            fh.write(conic.export_sdpa(problem))
    try:
        res = solve_xi_problem(problem)
    except InfeasibleCorrelationError as e:
        report["status"] = "infeasible"
        report["diagnostics"] = {"message": str(e), "margin": e.margin}
        report["timings"]["total_s"] = time.perf_counter() - t0
        _emit(report, args.out)
        return 2
    report["value"] = res.value
    report["status"] = "ok"
    report["flatness"] = res.flatness.summary()
    report["solver"] = _solver_summary(res.solution)
    report["diagnostics"] = {"note": res.note}
    report["timings"]["total_s"] = time.perf_counter() - t0
    _emit(report, args.out)
    return 0


def cmd_gen(args) -> int:
    parts = [int(x) for x in args.scenario.split(",")]
    if len(parts) != 4:
        raise ValueError("--scenario needs nA,nB,nS,nT")
    sc = Scenario(*parts)
    if args.model != "tensor":
        raise ValueError(f"unknown model {args.model}")
    real = corrlab.random_realization(sc, args.dim, args.seed)
    P = corrlab.realize(real)
    _write(P.to_json(), args.out)
    if args.realization_out:
        _write(real.to_json(), args.realization_out)
    return 0


def cmd_check_classical(args) -> int:
    report = _report_base(args, "classical-membership", args.input)
    t0 = time.perf_counter()
    with open(args.input) as fh:
        P = Correlation.from_json(fh.read())
    cert = corrlab.classical_membership(P)
    report["status"] = cert.verdict.value
    report["value"] = cert.margin
    report["diagnostics"] = {
        "verdict": cert.verdict.value,
        "margin": cert.margin,
        "support_size": len(cert.weights) if cert.weights else None,
    }
    report["timings"]["total_s"] = time.perf_counter() - t0
    _emit(report, args.out)
    return 0 if cert.verdict == corrlab.Verdict.CLASSICAL else 2


def _family_to_json(fam: np.ndarray, d: int) -> str:
    arr = np.stack([fam.real, fam.imag], axis=-1)
    return json.dumps({"d": d, "X": arr.tolist()}, sort_keys=True)


def _family_from_json(text: str):
    obj = json.loads(text)
    arr = np.array(obj["X"], dtype=float)
    return arr[..., 0] + 1j * arr[..., 1], int(obj["d"])


def cmd_sync(args) -> int:
    if args.random_family:
        nS, nA = (int(x) for x in args.random_family.split(","))
        fam = corrlab.random_projector_family(nS, nA, args.dim, args.seed)
        _write(_family_to_json(fam, args.dim), args.out)
        return 0
    if args.gram:
        with open(args.input) as fh:
            P = Correlation.from_json(fh.read())
        gram = corrlab.gram_of_synchronous(P)
        _write(json.dumps(
            {
                "nS": gram.nS,
                "nA": gram.nA,
                "matrix": gram.matrix.tolist(),
                "min_eigenvalue": gram.min_eigenvalue(),
            },
            sort_keys=True,
        ), args.out)
        return 0 if gram.min_eigenvalue() >= -1e-9 else 2
    if args.realize:
        with open(args.input) as fh:
            fam, d = _family_from_json(fh.read())
        gram = corrlab.cpsd_gram_from_projectors(fam, d)
        real = corrlab.gram_to_realization(corrlab.factorize(gram))
        produced = corrlab.realize(real)
        expected = corrlab.synchronous_from_projectors(fam, d)
        err = float(np.abs(produced.table - expected.table).max())
        _write(real.to_json(), args.out)
        if err > 1e-8:
            print(f"round-trip error {err:.3e} exceeds 1e-8", file=sys.stderr)
            return 2
        return 0
    raise ValueError("sync needs one of --gram, --realize, --random-family")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    ap = argparse.ArgumentParser(
        prog="ncmoment",
        description="Tracial moment SDP bounds for entanglement dimension "
                    "and quantum graph parameters",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("graph-bound", help="graph parameter hierarchies")
    g.add_argument("--param", required=True, choices=GRAPH_PARAMS)
    g.add_argument("--level", type=int, default=1)
    g.add_argument("--input", required=True)
    g.add_argument("--cross-check", action="store_true")
    g.add_argument("--vertex-transitive", action="store_true")
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_graph_bound)

    c = sub.add_parser("corr-bound", help="entanglement dimension bound")
    c.add_argument("--level", type=int, default=1)
    c.add_argument("--input", required=True)
    c.add_argument("--export-sdpa", default=None)
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_corr_bound)

    ge = sub.add_parser("gen", help="generate correlations with provenance")
    ge.add_argument("--model", default="tensor")
    ge.add_argument("--dim", type=int, required=True)
    ge.add_argument("--scenario", required=True)
    ge.add_argument("--seed", type=int, required=True)
    ge.add_argument("--out", default=None)
    ge.add_argument("--realization-out", default=None)
    ge.set_defaults(func=cmd_gen)

    ch = sub.add_parser("check-classical", help="local-polytope membership")
    ch.add_argument("--input", required=True)
    ch.add_argument("--out", default=None)
    ch.set_defaults(func=cmd_check_classical)

    sy = sub.add_parser("sync", help="synchronous-correlation constructions")
    sy.add_argument("--gram", action="store_true")
    sy.add_argument("--realize", action="store_true")
    sy.add_argument("--random-family", default=None)
    sy.add_argument("--dim", type=int, default=2)
    sy.add_argument("--seed", type=int, default=0)
    sy.add_argument("--input", default=None)
    sy.add_argument("--out", default=None)
    sy.set_defaults(func=cmd_sync)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    args.argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return args.func(args)
    except (CorrelationError, graphs.GraphFormatError, conic.SdpaFormatError,
            corrlab.ValidationError, ValueError, OSError, conic.SolverError,
            qgraph.BracketError, corrlab.ResourceError, ncwords.BasisSizeError,
            graphs.CliqueCapError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
