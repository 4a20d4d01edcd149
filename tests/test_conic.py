import math

import numpy as np
import pytest

from ncmoment import conic, graphs, qgraph, witness
from ncmoment.conic import SolveStatus
from ncmoment.momentize import (
    LinearConstraint,
    Relation,
    SymbolicBlock,
    VariableIndex,
    assemble,
    moment_block,
)
from ncmoment.ncwords import (
    EquivalenceMode,
    IDENTITY,
    RewriteSystem,
    enumerate_basis,
    vertex,
)

TRC = EquivalenceMode.TRACIAL_SYMMETRIC


def theta_oracle_odd_cycle(n):
    # closed form for the theta number of an odd cycle
    return n * math.cos(math.pi / n) / (1 + math.cos(math.pi / n))


def single_var_problem(constraints, sense="min", objective={0: 1.0}):
    x = vertex(0)
    rw = RewriteSystem(idempotents=frozenset([x]))
    index = VariableIndex([x], 2, rw, TRC)
    blk = moment_block([IDENTITY], rw, TRC, index)
    return assemble(objective, sense, [blk], constraints, index)


def test_toy_minimum():
    prob = single_var_problem([LinearConstraint({0: 1.0}, 1.0, Relation.EQ)])
    sol = conic.solve(prob)
    assert sol.status == SolveStatus.OPTIMAL
    assert abs(sol.objective - 1.0) < 1e-8


def test_contradictory_equalities_infeasible():
    prob = single_var_problem([
        LinearConstraint({0: 1.0}, 1.0, Relation.EQ),
        LinearConstraint({0: 1.0}, 2.0, Relation.EQ),
    ])
    sol = conic.solve(prob)
    assert sol.status == SolveStatus.INFEASIBLE
    assert sol.certificate is not None


def test_unbounded_maximization():
    prob = single_var_problem([], sense="max")
    sol = conic.solve(prob)
    assert sol.status == SolveStatus.UNBOUNDED


def test_cone_infeasibility_detected():
    # L(1) pinned negative while the 1x1 moment block demands L(1) >= 0.
    prob = single_var_problem([LinearConstraint({0: 1.0}, -1.0, Relation.EQ)])
    sol = conic.solve(prob)
    assert sol.status == SolveStatus.INFEASIBLE


def test_theta_c5_closed_form():
    res = qgraph.theta(graphs.cycle(5))
    assert abs(res.value - theta_oracle_odd_cycle(5)) < 1e-5
    assert abs(res.value - math.sqrt(5)) < 1e-5


def test_theta_c7_closed_form():
    res = qgraph.theta(graphs.cycle(7))
    assert abs(res.value - theta_oracle_odd_cycle(7)) < 1e-5


def test_weak_duality_reported():
    res = qgraph.xi_col(graphs.cycle(5), 1)
    sol = res.solution
    # minimization: the dual bound must not exceed the primal value
    assert sol.residuals["dual_objective"] <= sol.objective + 1e-7


def test_tolerance_validation():
    prob = single_var_problem([LinearConstraint({0: 1.0}, 1.0, Relation.EQ)])
    with pytest.raises(ValueError):
        conic.solve(prob, tol=0.5)
    with pytest.raises(ValueError):
        conic.solve(prob, tol=-1.0)


def test_objective_cap_keeps_optimum():
    prob = single_var_problem([LinearConstraint({0: 1.0}, 1.0, Relation.EQ)])
    sol = conic.solve(prob, objective_cap=10.0)
    assert abs(sol.objective - 1.0) < 1e-7


def test_feasibility_simple_margin():
    prob = single_var_problem([LinearConstraint({0: 1.0}, 1.0, Relation.EQ)],
                              objective={})
    feasible, margin = conic.feasibility(prob)
    assert feasible
    assert margin >= 0


def test_feasibility_rejects_objective():
    prob = single_var_problem([LinearConstraint({0: 1.0}, 1.0, Relation.EQ)])
    with pytest.raises(ValueError):
        conic.feasibility(prob)


def test_feasibility_coloring_systems_k3():
    from ncmoment.qgraph import col_system_feasible

    k3 = graphs.complete(3)
    ok2, m2 = col_system_feasible(k3, 2, 1)
    ok3, m3 = col_system_feasible(k3, 3, 1)
    assert not ok2 and m2 < -1e-6
    assert ok3 and m3 >= -1e-6


def test_feasibility_margin_monotone_under_constraints():
    # adding constraints never increases the margin
    base = single_var_problem([LinearConstraint({0: 1.0}, 1.0, Relation.EQ)],
                              objective={})
    _, m1 = conic.feasibility(base)
    import dataclasses

    tighter = single_var_problem(
        [LinearConstraint({0: 1.0}, 0.3, Relation.EQ)], objective={}
    )
    _, m2 = conic.feasibility(tighter)
    assert m2 <= m1 + 1e-9


def test_numerical_rank_identity():
    assert conic.numerical_rank(np.eye(3)) == 3


def test_numerical_rank_tolerance():
    assert conic.numerical_rank(np.diag([1.0, 1e-12]), 1e-6) == 1


def test_numerical_rank_zero_matrix():
    assert conic.numerical_rank(np.zeros((4, 4))) == 0


def test_numerical_rank_gram_oracle():
    """Realized moment rank equals the word-span dimension.

    The moment matrix of a trace evaluation is the Gram matrix of the word
    operators in the trace inner product; both ranks are computed
    independently and compared.
    """
    from ncmoment.qgraph import _vertex_rewrites

    g = graphs.cycle(5)
    syms, rw = _vertex_rewrites(g)
    rng = np.random.default_rng(7)
    d = 3
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    stable_sets = [[0, 2], [1, 4], [3]]
    fam = {vertex(i): np.zeros((d, d)) for i in range(5)}
    for k, ss in enumerate(stable_sets):
        for i in ss:
            fam[vertex(i)] = np.outer(q[:, k], q[:, k])
    L = witness.trace_functional([(1.0, fam)], normalized=True)
    rows = enumerate_basis(syms, 2, rw, EquivalenceMode.PLAIN)
    M = witness.moment_matrix_from_functional(rows, L)
    # independent Gram construction: vectors vec(w(X)) in the trace metric
    vecs = []
    for w in rows:
        m = np.eye(d)
        for s in w:
            m = m @ fam[s]
        vecs.append(m.reshape(-1) / np.sqrt(d))
    G = np.array([[float(np.real(np.vdot(a, b))) for b in vecs] for a in vecs])
    assert conic.numerical_rank(M) == conic.numerical_rank(G)


def test_flatness_projector_evaluation_c5():
    # trace evaluation at 2x2 projectors: rank stabilizes from degree 1 on
    from ncmoment.qgraph import _vertex_rewrites

    g = graphs.cycle(5)
    syms, rw = _vertex_rewrites(g)
    e1 = np.diag([1.0, 0.0])
    e2 = np.diag([0.0, 1.0])
    fam = {vertex(0): e1, vertex(1): e2, vertex(2): e1, vertex(3): e2,
           vertex(4): np.zeros((2, 2))}
    L = witness.trace_functional([(1.0, fam)], normalized=True)
    rows = enumerate_basis(syms, 3, rw, EquivalenceMode.PLAIN)
    M = witness.moment_matrix_from_functional(rows, L)
    degs = np.array([len(w) for w in rows])
    rep = conic.flatness_from_matrix(M, degs, 3)
    assert rep.ranks[2] == rep.ranks[3]
    assert 1 in rep.flat_deltas
    assert rep.flat


def test_flatness_scalar_coloring_flat_all_deltas():
    # scalar evaluations: rank constant from degree 1, flat for all
    # delta <= r-1
    from ncmoment.qgraph import _vertex_rewrites

    g = graphs.cycle(5)
    syms, rw = _vertex_rewrites(g)
    atoms = []
    for cls in ([0, 2], [1, 3], [4]):
        fam = {vertex(i): np.array([[1.0 if i in cls else 0.0]])
               for i in range(5)}
        atoms.append((1.0, fam))
    L = witness.trace_functional(atoms, normalized=True)
    rows = enumerate_basis(syms, 3, rw, EquivalenceMode.PLAIN)
    M = witness.moment_matrix_from_functional(rows, L)
    degs = np.array([len(w) for w in rows])
    rep = conic.flatness_from_matrix(M, degs, 3)
    assert rep.flat_deltas == [1, 2]  # every delta up to r-1


def test_flatness_rank_of_m0():
    rep = conic.flatness_from_matrix(np.array([[1.0]]), np.array([0]), 0)
    assert rep.ranks == [1]


def test_flatness_requires_matrix():
    sol = conic.SdpSolution(SolveStatus.OPTIMAL, 1.0, np.zeros(1), None, None)
    with pytest.raises(ValueError):
        conic.flatness(sol, 1)


def test_solution_moment_matrix_psd():
    res = qgraph.xi_col(graphs.cycle(5), 2)
    M = res.solution.moment_matrix
    assert np.abs(M - M.T).max() < 1e-12
    assert np.linalg.eigvalsh(M)[0] >= -10 * conic.DEFAULT_TOL
