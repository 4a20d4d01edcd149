"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with pytest -s or -rA).
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from ncmoment import conic, corrlab, graphs, qgraph, witness
from ncmoment.entdim import Correlation, Scenario, build_xi_problem, xi_q
from ncmoment.ncwords import (
    EquivalenceMode,
    RewriteSystem,
    alice,
    bob,
    enumerate_basis,
    reduce_word,
    state_symbol,
    vertex,
)

C5 = graphs.cycle(5)
K3 = graphs.complete(3)
P3 = graphs.path(3)
CHSH = Scenario(2, 2, 2, 2)


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def theta_oracle(n):
    return n * math.cos(math.pi / n) / (1 + math.cos(math.pi / n))


def test_criterion_01_theta_identity():
    t0 = time.perf_counter()
    xs = qgraph.xi_stab(C5, 1).value
    las = qgraph.lasserre_stab(C5, 1).value
    elapsed = time.perf_counter() - t0
    oracle = theta_oracle(5)
    ok = (abs(xs - oracle) <= 1e-4 and abs(las - oracle) <= 1e-4
          and abs(oracle - 2.23607) <= 1e-5 and elapsed < 2.0)
    report(1, ok,
           f"xi_stab={xs:.6f} las_stab={las:.6f} oracle={oracle:.6f} "
           f"runtime={elapsed:.2f}s")


def test_criterion_02_odd_cycle_level_two():
    t0 = time.perf_counter()
    col = qgraph.xi_col(C5, 2).value
    stab = qgraph.xi_stab(C5, 2).value
    elapsed = time.perf_counter() - t0
    product = col * stab
    ok = (abs(col - 2.5) <= 1e-3 and abs(stab - 2.0) <= 1e-3
          and abs(product - 5.0) <= 5e-3 and elapsed < 30.0)
    report(2, ok,
           f"xi_col={col:.6f} xi_stab={stab:.6f} product={product:.6f} "
           f"runtime={elapsed:.2f}s")


def test_criterion_03_lasserre_finite_convergence():
    val = qgraph.lasserre_stab(C5, 2).value
    ok = abs(val - 2.0) <= 1e-4
    report(3, ok, f"las_stab(C5,2)={val:.8f} vs alpha(C5)=2")


def test_criterion_04_product_reduction_agreement():
    t0 = time.perf_counter()
    details = []
    ok = True
    for g, name in ((K3, "K3"), (C5, "C5"), (P3, "P3")):
        gc = int(qgraph.gamma_col(g, 1).value)
        gc_prod = qgraph.gamma_col_via_product(g, 1)
        gs = int(qgraph.gamma_stab(g, 1).value)
        gs_prod = qgraph.gamma_stab_via_product(g, 1)
        ok = ok and gc == gc_prod and gs == gs_prod
        details.append(f"{name}: col {gc}={gc_prod} stab {gs}={gs_prod}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(4, ok, "; ".join(details) + f" runtime={elapsed:.1f}s")


def test_criterion_05_hierarchy_comparison():
    ok = True
    details = []
    for g, name in ((K3, "K3"), (C5, "C5"), (P3, "P3")):
        rep = qgraph.hierarchy_comparison(g, 1)
        ok = ok and rep["col_ok"] and rep["stab_ok"]
        details.append(
            f"{name}: {rep['xi_col']:.3f}<={rep['gamma_col']:.0f}, "
            f"{rep['xi_stab']:.3f}>={rep['gamma_stab']:.0f}"
        )
    report(5, ok, "; ".join(details))


def _random_valid_correlation(seed):
    rng = np.random.default_rng(seed)
    kind = seed % 3
    if kind == 0:
        return corrlab.realize(corrlab.random_realization(CHSH, 2, seed))
    if kind == 1:
        return corrlab.random_classical(CHSH, 1 + seed % 5, seed)
    table = np.zeros((2, 2, 2, 2))
    for s in range(2):
        for t in range(2):
            table[:, :, s, t] = rng.dirichlet(np.ones(4)).reshape(2, 2)
    return Correlation(CHSH, table)


def test_criterion_06a_level_one_floor():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        P = _random_valid_correlation(seed)
        val = xi_q(P, 1).value
        worst = max(worst, abs(val - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5
    report("6a", ok, f"20 random P: max |xi_q^1 - 1| = {worst:.2e} "
                     f"runtime={elapsed:.1f}s")


def test_criterion_06b_classical_coupling():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        P = corrlab.random_classical(CHSH, 2 + seed % 4, seed=100 + seed)
        cert = corrlab.classical_membership(P)
        assert cert.verdict == corrlab.Verdict.CLASSICAL
        val = xi_q(P, 2).value
        worst = max(worst, abs(val - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 300.0
    report("6b", ok, f"10 classical P: max |xi_q^2 - 1| = {worst:.2e} "
                     f"runtime={elapsed:.1f}s")


def test_criterion_06c_tsirelson_separation():
    """Stated criterion: xi_q^2(P*) > 1 + 1e-3 for the Tsirelson table.

    The level-2 truncation provably carries no state block-swap constraints
    (every generator within the degree budget is absorbed by traciality,
    symmetry, and state idempotence), and two independent solvers put the
    level-2 optimum at 1.0 for this table, so the stated separation is not
    attainable at r = 2; see the decisions ledger for the full analysis.
    The assertion is kept as specified.
    """
    P = corrlab.realize(corrlab.tsirelson_chsh())
    cert = corrlab.classical_membership(P)
    membership_ok = cert.verdict == corrlab.Verdict.NONCLASSICAL
    val = xi_q(P, 2).value
    ok = membership_ok and val > 1 + 1e-3
    report("6c", ok,
           f"xi_q^2(tsirelson)={val:.8f} (needs > 1.001), "
           f"membership={cert.verdict.value} (needs nonclassical)")


def _witness_assignment(real, sc):
    eye = np.eye(real.d)
    asg = {state_symbol(): np.outer(real.psi, real.psi.conj())}
    for s in range(sc.nS):
        for a in range(sc.nA):
            asg[alice(s, a)] = np.kron(real.E[s, a], eye)
    for t in range(sc.nT):
        for b in range(sc.nB):
            asg[bob(t, b)] = np.kron(eye, real.F[t, b])
    return asg


def test_criterion_07_soundness_witness_suite():
    t0 = time.perf_counter()
    scenarios = [Scenario(2, 2, 1, 1), Scenario(2, 2, 2, 1),
                 Scenario(2, 2, 1, 2), Scenario(3, 2, 1, 1), CHSH]
    rng = random.Random(0)
    worst_eq, worst_eig, worst_obj, worst_gap = 0.0, 0.0, 0.0, -np.inf
    for trial in range(25):
        sc = scenarios[trial % len(scenarios)]
        d = 1 + trial % 3
        atoms, weights = [], []
        n_atoms = 1 + trial % 2
        lam = np.random.default_rng(trial).dirichlet(np.ones(n_atoms))
        table = np.zeros((sc.nA, sc.nB, sc.nS, sc.nT))
        for k in range(n_atoms):
            real = corrlab.random_realization(sc, d, seed=1000 + 10 * trial + k)
            table += lam[k] * corrlab.realize(real).table
            atoms.append((lam[k], _witness_assignment(real, sc)))
            weights.append(lam[k])
        P = Correlation(sc, table)
        problem = build_xi_problem(P, 2)
        L = witness.trace_functional(atoms)
        y = witness.vector_from_functional(problem.index, L)
        res = witness.check_feasibility(problem, y)
        worst_eq = max(worst_eq, res["max_eq_violation"])
        worst_eig = max(worst_eig, -res["min_block_eigenvalue"])
        expected = sum(w * d ** 2 for w in weights)
        worst_obj = max(worst_obj, abs(y[0] - expected))
        solved = xi_q(P, 2).value
        worst_gap = max(worst_gap, solved - d ** 2)
    elapsed = time.perf_counter() - t0
    ok = (worst_eq <= 1e-8 and worst_eig <= 1e-8 and worst_obj <= 1e-8
          and worst_gap <= 1e-4)
    report(7, ok,
           f"25 realizations: eq viol {worst_eq:.1e}, eig {worst_eig:.1e}, "
           f"objective dev {worst_obj:.1e}, solved-minus-d^2 {worst_gap:.1e}, "
           f"runtime={elapsed:.0f}s")


def test_criterion_08_gram_round_trip():
    worst_eig, worst_err = 0.0, 0.0
    for trial in range(25):
        d = 1 + trial % 3
        nS = 2 + trial % 2
        nA = 2 if d == 1 else 1 + trial % 2 + 1
        fam = corrlab.random_projector_family(nS, nA, d, seed=2000 + trial)
        P = corrlab.synchronous_from_projectors(fam, d)
        gram = corrlab.cpsd_gram_from_projectors(fam, d)
        worst_eig = max(worst_eig, -gram.min_eigenvalue())
        real = corrlab.gram_to_realization(corrlab.factorize(gram))
        P2 = corrlab.realize(real)
        worst_err = max(worst_err, float(np.abs(P2.table - P.table).max()))
    ok = worst_eig <= 1e-9 and worst_err <= 1e-8
    report(8, ok, f"25 synchronous tables: min-eig slack {worst_eig:.1e}, "
                  f"round-trip err {worst_err:.1e}")


def test_criterion_09_flatness_machinery():
    # graph mode: explicit 2x2 projector evaluation on C5 at r = 3
    from ncmoment.qgraph import _vertex_rewrites

    syms, rw = _vertex_rewrites(C5)
    e1, e2 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    fam = {vertex(0): e1, vertex(1): e2, vertex(2): e1, vertex(3): e2,
           vertex(4): np.zeros((2, 2))}
    L = witness.trace_functional([(1.0, fam)], normalized=True)
    rows = enumerate_basis(syms, 3, rw)
    M = witness.moment_matrix_from_functional(rows, L)
    degs = np.array([len(w) for w in rows])
    rep_graph = conic.flatness_from_matrix(M, degs, 3)
    graph_ok = 1 in rep_graph.flat_deltas

    # entanglement mode: classical scalar witness at r = 3, delta = 2
    from ncmoment.entdim import build_entdim_sets

    sets = build_entdim_sets(CHSH, 3)
    rng = np.random.default_rng(17)
    atoms = []
    for k in range(3):
        g, h = rng.integers(0, 2, 2), rng.integers(0, 2, 2)
        asg = {state_symbol(): np.array([[1.0]])}
        for s in range(2):
            for a in range(2):
                asg[alice(s, a)] = np.array([[1.0 if g[s] == a else 0.0]])
                asg[bob(s, a)] = np.array([[1.0 if h[s] == a else 0.0]])
        atoms.append((1.0 / 3.0, asg))
    L2 = witness.trace_functional(atoms)
    rows2 = enumerate_basis(sets.symbols, 3, sets.rewrites)
    M2 = witness.moment_matrix_from_functional(rows2, L2)
    degs2 = np.array([len(w) for w in rows2])
    rep_ent = conic.flatness_from_matrix(M2, degs2, 3)
    ent_ok = rep_ent.entdim_delta == 2 and rep_ent.entdim_flat
    ok = graph_ok and ent_ok
    report(9, ok,
           f"graph ranks={rep_graph.ranks} deltas={rep_graph.flat_deltas}; "
           f"entdim ranks={rep_ent.ranks} delta={rep_ent.entdim_delta} "
           f"fires={rep_ent.entdim_flat}")


def test_criterion_10_infrastructure():
    # SDPA export/import exactness
    prob = qgraph.build_col_problem(C5, 1)
    data = conic.export_sdpa(prob)
    parsed = conic.parse_sdpa(data)
    values = [v for ent in parsed.constraint_entries for *_, v in ent]
    assert all(isinstance(v, float) for v in values)
    again = conic.export_sdpa(prob)
    sdpa_ok = data == again
    direct = conic.solve(prob).objective
    via = conic.import_solution_sdpa(data).objective
    sdpa_ok = sdpa_ok and abs(direct - via) <= 1e-9 * max(1, abs(direct))

    # exhaustive rewrite/canonicalization property suite: degree <= 6 over a
    # 5-symbol alphabet mixing all three rule classes
    x0 = alice(0, 0)
    y0 = bob(0, 0)
    z = state_symbol()
    v, w = vertex(0), vertex(1)
    syms = [x0, y0, z, v, w]
    rw = RewriteSystem(
        zero_pairs=frozenset([(v, w), (w, v)]),
        idempotents=frozenset([z, v, w]),
        swap_patterns=frozenset([(y0, x0)]),
    )
    rng = random.Random(5)
    words_ok = True
    from ncmoment.ncwords import canonical, involution

    TRC = EquivalenceMode.TRACIAL_SYMMETRIC
    SYM = EquivalenceMode.SYMMETRIC
    for d in range(7):
        for word in itertools.product(syms, repeat=d):
            nf = reduce_word(word, rw)
            words_ok = words_ok and (
                nf is None or reduce_word(nf, rw) == nf)
            words_ok = words_ok and (
                canonical(involution(word), SYM) == canonical(word, SYM))
            if d >= 2:
                k = rng.randrange(1, d)
                u, vv = word[:k], word[k:]
                words_ok = words_ok and (
                    canonical(u + vv, TRC) == canonical(vv + u, TRC))
            if not words_ok:
                break
    ok = sdpa_ok and words_ok
    report(10, ok, f"sdpa round-trip exact={sdpa_ok}, "
                   f"word suites exhaustive deg<=6 over 5 symbols={words_ok}")
