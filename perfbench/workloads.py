"""Benchmark workloads: seeded inputs, the operations of one pass, and oracles.

Inputs are generated here with numpy alone, so a change to ncmoment cannot
change what the benchmark feeds it.  The seed relabels graph vertices and
draws the realization behind the level-3 build; ncmoment receives only the
generated objects or files.  Every operation calls ncmoment's public API
through its module at call time, so that the tracer's rebinding takes effect.

Each operation is a ``run`` callable (timed) and a ``check`` callable (not
timed) that returns ``(ok, detail)``.  ``check`` sees the results of earlier
operations of the pass through a shared dict, for the pair oracles.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ncmoment import cli, entdim, graphs, qgraph, witness
from ncmoment.entdim import Correlation, Scenario
from ncmoment.ncwords import alice, bob, state_symbol, vertex

THETA_TOL = 1e-4
PRODUCT_TOL = 1e-3
VALUE_TOL = 1e-4
WITNESS_TOL = 1e-8


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object, dict], tuple]
    value: Callable[[object], object] = lambda out: None
    iterations: Callable[[object], object] = lambda out: None
    tol: float = VALUE_TOL  # the oracle's tolerance on ``value``


def theta_cycle(n: int) -> float:
    """Lovasz theta of the odd cycle C_n (closed form)."""
    c = math.cos(math.pi / n)
    return n * c / (1 + c)


def relabeled_cycle(n: int, rng: np.random.Generator):
    """C_n with its vertices renamed by a random permutation.

    Returns the graph and ``perm`` with cycle vertex i renamed to perm[i].
    """
    perm = [int(v) for v in rng.permutation(n)]
    edges = [(perm[i], perm[(i + 1) % n]) for i in range(n)]
    return graphs.Graph.from_edges(n, edges), perm


# ---------------------------------------------------------------------------
# Correlation tables for the (2,2,2,2) scenario, [a, b, s, t] indexing
# ---------------------------------------------------------------------------

CHSH = (2, 2, 2, 2)


def tsirelson_table() -> np.ndarray:
    t = np.zeros(CHSH)
    for a, b, s, q in np.ndindex(*CHSH):
        t[a, b, s, q] = (1 + (-1) ** (a + b + s * q) / math.sqrt(2)) / 4
    return t


def popescu_rohrlich_half_table() -> np.ndarray:
    """Popescu-Rohrlich box at visibility 1/2.

    It is the uniform mixture of the eight deterministic strategies that win
    CHSH with probability 3/4, a point on a facet of the local polytope.
    """
    t = np.zeros(CHSH)
    for a, b, s, q in np.ndindex(*CHSH):
        t[a, b, s, q] = (1 + (-1) ** (a + b + s * q) / 2) / 4
    return t


def deterministic_noise_table() -> np.ndarray:
    """Half the strategy "always answer 0", half uniform noise: an interior
    point of the local polytope."""
    t = np.full(CHSH, 0.125)
    t[0, 0] += 0.5
    return t


def partially_entangled_table(noise: float = 0.1) -> np.ndarray:
    """cos(pi/8)|00> + sin(pi/8)|11> with white noise, measured in Z, X by
    Alice and (Z +- X)/sqrt(2) by Bob."""
    psi = np.zeros(4, dtype=complex)
    psi[0], psi[3] = math.cos(math.pi / 8), math.sin(math.pi / 8)
    Z, X, eye = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)
    A = [Z, X]
    B = [(Z + X) / math.sqrt(2), (Z - X) / math.sqrt(2)]
    E = [[(eye + (-1) ** a * A[s]) / 2 for a in range(2)] for s in range(2)]
    F = [[(eye + (-1) ** b * B[q]) / 2 for b in range(2)] for q in range(2)]
    return realization_table(psi, E, F, noise)


def _random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def two_qubit_realization(rng: np.random.Generator, shape: tuple):
    """Random pure state on C^2 x C^2 with random projective qubit measurements.

    Returns (psi, E, F) with E[s][a], F[t][b] rank-one 2x2 projectors.
    """
    nA, nB, nS, nT = shape
    if nA != 2 or nB != 2:
        raise ValueError("qubit projective measurements have two outcomes")
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)

    def measurement():
        u = _random_unitary(2, rng)
        return [np.outer(u[:, k], u[:, k].conj()) for k in range(2)]

    E = [measurement() for _ in range(nS)]
    F = [measurement() for _ in range(nT)]
    return psi, E, F


def realization_table(psi, E, F, noise: float = 0.0) -> np.ndarray:
    """Table of the state (1 - noise) |psi><psi| + noise I/4 under E and F."""
    nS, nA, nT, nB = len(E), len(E[0]), len(F), len(F[0])
    t = np.zeros((nA, nB, nS, nT))
    for a, b, s, q in np.ndindex(nA, nB, nS, nT):
        op = np.kron(E[s][a], F[q][b])
        pure = float(np.real(psi.conj() @ op @ psi))
        t[a, b, s, q] = (1 - noise) * pure + noise * float(np.real(np.trace(op))) / 4
    return t


# ---------------------------------------------------------------------------
# graph: library calls on relabeled odd cycles
# ---------------------------------------------------------------------------


def graph_ops(seed: int, workdir: str) -> list:
    rng = np.random.default_rng([seed, 1])
    cyc = {n: relabeled_cycle(n, rng)[0] for n in (5, 7, 9)}
    alpha = {n: n // 2 for n in cyc}
    chi = {n: 3 for n in cyc}
    ops = []

    def value(res):
        return res.value

    def iterations(res):
        return res.solution.iterations if res.solution is not None else None

    def within(lo, hi):
        def check(res, seen):
            ok = lo - VALUE_TOL <= res.value <= hi + VALUE_TOL
            return ok, f"value {res.value:.8f} expected in [{lo:.6f}, {hi:.6f}]"
        return check

    for n in (5, 7):
        def check_theta(res, seen, n=n):
            want = theta_cycle(n)
            return (abs(res.value - want) <= THETA_TOL,
                    f"theta {res.value:.8f} vs closed form {want:.8f}")
        ops.append(Op(f"theta C{n}", lambda n=n: qgraph.theta(cyc[n]),
                      check_theta, value, iterations))

    for n in (5, 7, 9):
        def check_stab(res, seen, n=n):
            seen[("xi-stab", n)] = res.value
            return within(alpha[n], theta_cycle(n))(res, seen)

        def check_col(res, seen, n=n):
            seen[("xi-col", n)] = res.value
            stab = seen.get(("xi-stab", n))
            if stab is None:
                return False, "xi-stab result missing"
            prod = stab * res.value
            return (abs(prod - n) <= PRODUCT_TOL and res.value <= chi[n] + VALUE_TOL,
                    f"xi_col*xi_stab {prod:.8f} vs |V| = {n}")
        ops.append(Op(f"xi-stab C{n} r2", lambda n=n: qgraph.xi_stab(cyc[n], 2),
                      check_stab, value, iterations))
        ops.append(Op(f"xi-col C{n} r2", lambda n=n: qgraph.xi_col(cyc[n], 2),
                      check_col, value, iterations, tol=PRODUCT_TOL))

    def check_las(res, seen):
        return (abs(res.value - alpha[7]) <= VALUE_TOL,
                f"las-stab {res.value:.8f} vs alpha(C7) = {alpha[7]}")
    ops.append(Op("las-stab C7 r2", lambda: qgraph.lasserre_stab(cyc[7], 2),
                  check_las, value, iterations))

    def check_theta_plus(res, seen):
        lo = seen.get(("xi-col", 7))
        if lo is None:
            return False, "xi-col C7 result missing"
        return within(lo, chi[7])(res, seen)
    ops.append(Op("theta-plus C7 r2",
                  lambda: qgraph.xi_col(cyc[7], 2, qgraph.Strengthening.THETA_PLUS),
                  check_theta_plus, value, iterations))

    # xi-sdp strengthens the order-1 coloring bound, theta of the complement,
    # which is n / theta(C_n) on vertex-transitive graphs.
    ops.append(Op("xi-sdp C5 r1",
                  lambda: qgraph.xi_col(cyc[5], 1, qgraph.Strengthening.XI_SDP),
                  within(5 / theta_cycle(5), chi[5]), value, iterations))

    def integer_in(lo, hi):
        def check(res, seen):
            v = res.value
            return (v == int(v) and lo <= v <= hi,
                    f"value {v} expected integer in [{lo}, {hi}]")
        return check

    for n in (5, 7):
        ops.append(Op(f"gamma-col C{n} r1",
                      lambda n=n: qgraph.gamma_col(cyc[n], 1, cross_check=True),
                      integer_in(math.ceil(n / theta_cycle(n)), chi[n]), value,
                      tol=0))
    ops.append(Op("gamma-stab C7 r1",
                  lambda: qgraph.gamma_stab(cyc[7], 1, cross_check=True),
                  integer_in(alpha[7], math.floor(theta_cycle(7))), value, tol=0))
    ops.append(Op("lambda C5 r1", lambda: qgraph.Lambda(cyc[5], 1),
                  integer_in(1, chi[5]), value, tol=0))
    return ops


# ---------------------------------------------------------------------------
# chsh-xiq: in-process CLI calls on files
# ---------------------------------------------------------------------------


def _read_report(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def chsh_ops(seed: int, workdir: str) -> list:
    # The tables are fixed: the seed does not reach this workload.  The level-2
    # solves sit on a degenerate optimum (the value is 1 for every table here)
    # and their iteration count follows the input erratically: random
    # classical mixtures took 17-120 iterations, relabelings of one table
    # 18-50, so seed-drawn tables spread pass_s by about 25% between seeds.
    # (label, table, classical?); the two-qubit table has CHSH value
    # 0.9 * (1 + sqrt(2)) > 2, so it is nonclassical like Tsirelson's.
    tables = [
        ("tsirelson", tsirelson_table(), False),
        ("classical-a", popescu_rohrlich_half_table(), True),
        ("classical-b", deterministic_noise_table(), True),
        ("two-qubit", partially_entangled_table(), False),
    ]
    ops = []
    for label, table, classical in tables:
        path = os.path.join(workdir, f"{label}.json")
        with open(path, "w") as fh:
            fh.write(Correlation(Scenario(*table.shape), table).to_json() + "\n")

        def run_classical(path=path, out=os.path.join(workdir, f"{label}.lp.json")):
            code = cli.main(["check-classical", "--input", path, "--out", out])
            return code, _read_report(out)

        def check_classical(res, seen, classical=classical):
            code, rep = res
            want = (0, "classical") if classical else (2, "nonclassical")
            return (code, rep.get("status")) == want, f"exit {code}, {rep.get('status')}"

        ops.append(Op(f"check-classical {label}", run_classical, check_classical,
                      lambda res: res[1].get("value")))

        for level in (1, 2):
            def run_bound(path=path, level=level,
                          out=os.path.join(workdir, f"{label}.r{level}.json")):
                code = cli.main(["corr-bound", "--level", str(level),
                                 "--input", path, "--out", out])
                return code, _read_report(out)

            def check_bound(res, seen, label=label, level=level,
                            classical=classical):
                code, rep = res
                v = rep.get("value")
                if code != 0 or rep.get("status") != "ok" or v is None:
                    return False, f"exit {code}, status {rep.get('status')}"
                seen[(label, level)] = v
                if classical:
                    return abs(v - 1) <= VALUE_TOL, f"xi_q {v:.8f} vs 1"
                # Lower bound on the average entanglement dimension of a
                # two-qubit realization, d^2 = 4; levels are nondecreasing.
                below = seen.get((label, level - 1), 1.0)
                ok = max(1.0, below) - VALUE_TOL <= v <= 4 + VALUE_TOL
                return ok, f"xi_q {v:.8f} expected in [max(1, {below:.8f}), 4]"

            ops.append(Op(f"corr-bound {label} r{level}", run_bound, check_bound,
                          lambda res: res[1].get("value"),
                          lambda res: (res[1].get("solver") or {}).get("iterations")))
    return ops


# ---------------------------------------------------------------------------
# build-r3: level-3 builds, checked against trace functionals of known points
# ---------------------------------------------------------------------------


def _witness_ok(problem, atoms) -> tuple:
    L = witness.trace_functional(atoms)
    y = witness.vector_from_functional(problem.index, L)
    res = witness.check_feasibility(problem, y)
    ok = (res["max_eq_violation"] <= WITNESS_TOL
          and res["min_block_eigenvalue"] >= -WITNESS_TOL
          and res["min_ge_slack"] >= -WITNESS_TOL)
    return ok, y, (f"eq {res['max_eq_violation']:.1e}, "
                   f"min eig {res['min_block_eigenvalue']:.1e}")


def build_ops(seed: int, workdir: str) -> list:
    rng = np.random.default_rng([seed, 3])
    shape = (2, 2, 1, 1)
    psi, E, F = two_qubit_realization(rng, shape)
    P = Correlation(Scenario(*shape), realization_table(psi, E, F))
    c7, perm = relabeled_cycle(7, rng)

    def check_xi(problem, seen):
        eye = np.eye(2)
        asg = {state_symbol(): np.outer(psi, psi.conj())}
        for s in range(shape[2]):
            for a in range(shape[0]):
                asg[alice(s, a)] = np.kron(E[s][a], eye)
        for q in range(shape[3]):
            for b in range(shape[1]):
                asg[bob(q, b)] = np.kron(eye, F[q][b])
        ok, y, detail = _witness_ok(problem, [(1.0, asg)])
        # L(1) of the witness is the trace of the identity on C^2 x C^2.
        return ok and abs(y[0] - 4) <= WITNESS_TOL, detail

    def check_col(problem, seen):
        # Proper 3-coloring of the relabeled odd cycle: cycle vertices
        # alternate colors 0 and 1, and the last one, between a 1 and the
        # first vertex's 0, gets color 2.
        n = len(perm)
        color = {perm[i]: i % 2 for i in range(n - 1)}
        color[perm[n - 1]] = 2
        atoms = [(1.0, {vertex(v): np.array([[1.0 if color[v] == c else 0.0]])
                        for v in range(n)}) for c in range(3)]
        ok, y, detail = _witness_ok(problem, atoms)
        return ok and abs(y[0] - 3) <= WITNESS_TOL, detail

    def size(problem):
        return problem.num_vars

    return [
        Op("build xi (2,2,1,1) r3", lambda: entdim.build_xi_problem(P, 3),
           check_xi, size, tol=0),
        Op("build col C7 r3", lambda: qgraph.build_col_problem(c7, 3),
           check_col, size, tol=0),
    ]


OPS_BY_WORKLOAD = {"graph": graph_ops, "chsh-xiq": chsh_ops, "build-r3": build_ops}


def make_ops(name: str, seed: int, workdir: str) -> list:
    return OPS_BY_WORKLOAD[name](seed, workdir)
