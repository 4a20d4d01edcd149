import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from ncmoment import _ipm, conic, corrlab, entdim, graphs, qgraph, witness
from ncmoment.conic import SolveStatus, SymmetryError
from ncmoment.momentize import (
    LinearConstraint,
    Relation,
    SymbolicBlock,
    VariableIndex,
    assemble,
    localizing_block,
    moment_block,
)
from ncmoment.ncwords import (
    EquivalenceMode,
    IDENTITY,
    NcPolynomial,
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
    index = VariableIndex(2, rw, TRC)
    blk = moment_block([IDENTITY], index)
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
    # the lift pins L(1) = 1 and leaves row 1 as 0 = 2 - 1
    assert sol.certificate["row"] == 1
    assert sol.certificate["residual"] == 1.0
    assert sol.certificate["margin"] == -math.inf


def test_unbounded_maximization():
    prob = single_var_problem([], sense="max")
    sol = conic.solve(prob)
    assert sol.status == SolveStatus.UNBOUNDED


def test_cone_infeasibility_detected():
    # L(1) pinned negative while the 1x1 moment block demands L(1) >= 0.
    prob = single_var_problem([LinearConstraint({0: 1.0}, -1.0, Relation.EQ)])
    sol = conic.solve(prob)
    assert sol.status == SolveStatus.INFEASIBLE
    assert sol.certificate["margin"] == -1.0  # the pinned block's eigenvalue


def _counting_ipm(monkeypatch):
    """The iterations of every interior-point solve that conic runs."""
    counts, solve_ipm = [], conic.solve_ipm

    def counting(prog):
        res = solve_ipm(prog)
        counts.append(res.iterations)
        return res

    monkeypatch.setattr(conic, "solve_ipm", counting)
    return counts


def test_infeasible_graph_program_decided_by_margin(monkeypatch):
    # A projector has L(x_i) <= 1, so L(x_i) = 2 admits no moment matrix.
    # The objective solve itself ends with a Farkas certificate X^ (PSD,
    # <C, X^> = -1, A*(X^) = 0): for any feasible point of the margin
    # program max { t : blocks >= t I }, 0 <= <blocks - t I, X^> gives
    # t <= <C, X> / tr X, so the certificate's margin bounds its value
    # (-2.34786663) from above.
    counts = _counting_ipm(monkeypatch)
    prob = qgraph.build_stab_problem(graphs.cycle(5), 2)
    prob = dataclasses.replace(prob, constraints=prob.constraints + [
        LinearConstraint({prob.index.var_of((vertex(i),)): 1.0}, 2.0, Relation.EQ)
        for i in range(5)
    ])
    sol = conic.solve(prob)
    assert len(counts) == 1
    assert sol.status == SolveStatus.INFEASIBLE
    assert sol.stop == "farkas"
    assert -2.34786663 <= sol.certificate["margin"] < -1e-6
    assert sol.certificate["residual"] <= _ipm.TOL
    assert sol.iterations == counts[0]


def test_rejection_reports_the_margin_solve(monkeypatch):
    # A capped objective solve is rejected at once: no second solve runs and
    # the message names no margin program.
    monkeypatch.setattr(_ipm, "MAX_ITER", 3)
    counts = _counting_ipm(monkeypatch)
    prob = qgraph.build_stab_problem(graphs.cycle(5), 1)
    with pytest.raises(conic.SolverError,
                       match=f"{prob.description}: .*numerical_limit") as err:
        conic.solve(prob)
    assert counts == [3]
    assert "margin program" not in str(err.value)


@pytest.mark.parametrize("search", [
    lambda: qgraph.theta(graphs.cycle(5)),
    lambda: qgraph.gamma_col(graphs.cycle(5), 1),
], ids=["theta C5", "gamma-col C5 r1"])
def test_accepted_solve_runs_one_ipm_solve(search, monkeypatch):
    # the margin fallback never runs where the objective solve is accepted
    calls = {"ipm": 0, "entry": 0}

    def counted(func, key):
        def wrapper(*args):
            calls[key] += 1
            return func(*args)
        return wrapper

    monkeypatch.setattr(conic, "solve_ipm", counted(conic.solve_ipm, "ipm"))
    monkeypatch.setattr(conic, "solve", counted(conic.solve, "entry"))
    monkeypatch.setattr(conic, "feasibility", counted(conic.feasibility, "entry"))
    search()
    assert calls["entry"] > 0
    assert calls["ipm"] == calls["entry"]


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


def _ipm_result(status, residual):
    return SimpleNamespace(status=status, iterations=7, err_lmi=residual,
                           err_adj=0.0, pobj=1.0, dobj=1.0)


@pytest.mark.parametrize("residual,accepted", [
    (conic.ACCEPT_TOL, True), (2 * conic.ACCEPT_TOL, False), (math.nan, False),
])
def test_acceptance_rule(residual, accepted):
    prob = single_var_problem([LinearConstraint({0: 1.0}, 1.0, Relation.EQ)])
    prob.description = "probe"
    # Converged or certified outcomes pass whatever their residuals.
    for status in ("optimal", "infeasible", "unbounded"):
        conic._accepted(_ipm_result(status, residual), prob, 0.0)
    res = _ipm_result("numerical_limit", residual)
    if accepted:
        assert conic._accepted(res, prob, 0.0)["gap"] == 0.0
    else:
        with pytest.raises(conic.SolverError, match="probe: .* lmi residual"):
            conic._accepted(res, prob, 0.0)


def test_numerical_limit_is_no_bound(monkeypatch):
    # Three iterations stop far from the optimum: neither the objective nor
    # the margin there is a bound, so both entry points raise.
    monkeypatch.setattr(_ipm, "MAX_ITER", 3)
    prob = qgraph.build_stab_problem(graphs.cycle(5), 1)
    with pytest.raises(conic.SolverError,
                       match=f"{prob.description}: .*numerical_limit"):
        conic.solve(prob)
    with pytest.raises(conic.SolverError, match="coloring system k=3 level 1"):
        qgraph.col_system_feasible(graphs.complete(3), 3, 1)


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
    assert conic.numerical_rank(np.diag([1.0, 1e-12])) == 1


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
    rows = enumerate_basis(syms, 2, rw)
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
    rows = enumerate_basis(syms, 3, rw)
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
    rows = enumerate_basis(syms, 3, rw)
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
    assert np.linalg.eigvalsh(M)[0] >= -10 * _ipm.TOL


# ---------------------------------------------------------------------------
# Orbit merging under the symmetries attached by the graph builders
# ---------------------------------------------------------------------------

S = qgraph.Strengthening
GRAPH_PROGRAMS = {
    "xi-stab": lambda g, r: qgraph.build_stab_problem(g, r),
    "xi-col": lambda g, r: qgraph.build_col_problem(g, r),
    "las-stab": lambda g, r: qgraph.build_stab_problem(g, r, commutative=True),
    "theta-plus": lambda g, r: qgraph.build_col_problem(g, r, S.THETA_PLUS),
}
REDUCED_PROGRAMS = [
    (f"{name} C{n} r2", GRAPH_PROGRAMS[name], n, 2)
    for n in (5, 7)
    for name in ("xi-stab", "xi-col", "las-stab", "theta-plus")
] + [("xi-sdp C5 r1", lambda g, r: qgraph.build_col_problem(g, r, S.XI_SDP), 5, 1)] + [
    (f"{name} C9 r2", GRAPH_PROGRAMS[name], 9, 2)
    for name in ("xi-stab", "xi-col", "theta-plus")
]


@pytest.mark.parametrize("name,build,n,r", REDUCED_PROGRAMS,
                         ids=[p[0] for p in REDUCED_PROGRAMS])
def test_orbit_merging_keeps_the_solution(name, build, n, r):
    prob = build(graphs.cycle(n), r)
    assert prob.symmetries
    merged = conic.solve(prob)
    full = conic.solve(dataclasses.replace(prob, symmetries=[]))
    # merged variables, blocks split with multiplicities and one inequality
    # per orbit, counted once per row, follow the unreduced central path
    assert abs(merged.objective - full.objective) <= 1e-9
    assert merged.iterations == full.iterations
    assert conic.flatness(merged, r).ranks == conic.flatness(full, r).ranks
    assert full.num_orbits == prob.num_vars
    assert merged.num_orbits < prob.num_vars
    # the lifted moment vector is full width and constant on every orbit
    label, _ = conic._fixed_subspace(prob)
    assert merged.y.shape == (prob.num_vars,)
    assert label.max() + 1 == merged.num_orbits
    for o in range(merged.num_orbits):
        assert np.ptp(merged.y[label == o]) == 0.0


def _relabeled_cycle(perm):
    n = len(perm)
    return graphs.Graph.from_edges(n, [(perm[i], perm[(i + 1) % n]) for i in range(n)])


C5_RELABELED = _relabeled_cycle([1, 4, 0, 3, 2])
C7_RELABELED = _relabeled_cycle([4, 2, 6, 1, 0, 3, 5])
SEARCHES = {
    "gamma-col C5 r1": lambda: qgraph.gamma_col(C5_RELABELED, 1, cross_check=True),
    "gamma-col C7 r1": lambda: qgraph.gamma_col(C7_RELABELED, 1, cross_check=True),
    "lambda C5 r1": lambda: qgraph.Lambda(C5_RELABELED, 1),
    "xi-sdp C5 r1": lambda: qgraph.xi_col(C5_RELABELED, 1, S.XI_SDP),
}


@pytest.mark.parametrize("name", list(SEARCHES))
def test_merged_searches_keep_the_unmerged_iterations(name, monkeypatch):
    # Every solve of these searches on relabeled cycles, margin programs with
    # merged inequalities included, takes the iterations of the same solve
    # without symmetries: a merged inequality counts once per row of its
    # orbit, and each lift column is the sum over its orbit.
    counts, solve_ipm = [], conic.solve_ipm

    def counting(prog, **kw):
        res = solve_ipm(prog, **kw)
        counts.append(res.iterations)
        return res

    monkeypatch.setattr(conic, "solve_ipm", counting)
    merged = SEARCHES[name]()
    merged_counts = counts[:]
    counts.clear()
    monkeypatch.setattr(conic, "_fixed_subspace", lambda p: (np.arange(p.num_vars), []))
    full = SEARCHES[name]()
    assert abs(merged.value - full.value) <= 1e-9
    assert merged_counts == counts


def test_orbit_counts_and_reduced_data():
    # D9 on the level-2 stability program of C9: 328 variables, 29 orbits
    assert conic._fixed_subspace(
        qgraph.build_stab_problem(graphs.cycle(9), 2))[0].max() + 1 == 29
    # theta-plus on C7: the 14 pair inequalities merge into one per orbit
    # of non-adjacent pairs (distance 2 and distance 3)
    prob = qgraph.build_col_problem(graphs.cycle(7), 2, S.THETA_PLUS)
    prog, _, lift = conic._build_cone_program(prob)
    assert len(prob.ge_constraints) == 14
    assert [b.mult.tolist() for b in prog.blocks if b.size == 1] == [[7.0], [7.0]]
    assert len(lift.y0) == lift.label.max() + 1 == 13
    # the 7 rows L(x_i) = 1 merge into one, which pins their orbit
    o = lift.label[prob.index.var_of((vertex(0),))]
    assert len(lift.eqs) == 1 and lift.y0[o] == 1.0 and o not in lift.B[0]
    assert prog.nvars == 12


def _dense(blk, nvars):
    """Constant and coefficient matrices E_k of a BlockData, (nvars, n, n)."""
    E = np.zeros((nvars, blk.size, blk.size))
    np.add.at(E, (blk.vids, blk.rows, blk.cols), blk.vals)
    return blk.const, E


@pytest.mark.parametrize("build", [
    lambda: entdim.build_xi_problem(corrlab.realize(corrlab.tsirelson_chsh()), 2),
    lambda: qgraph.build_col_problem(graphs.cycle(7), 2, S.THETA_PLUS),
], ids=["tsirelson r2", "theta-plus C7 r2"])
def test_lift_block_matches_a_dense_reference(build, monkeypatch):
    # Every block over the free coordinates z is the constant C + E(y0) and
    # the coefficients sum_k B[k, j] E_k of the block it lifts.
    prob = build()
    assert prob.symmetries
    seen, block = [], conic.Lift.block

    def recording(lift, blk):
        out = block(lift, blk)
        seen.append((lift, blk, out))
        return out

    monkeypatch.setattr(conic.Lift, "block", recording)
    prog, _, lift = conic._build_cone_program(prob)
    assert len(seen) == len(prog.blocks)
    (rows, cols, vals), nv = lift.B, len(lift.y0)
    B = np.zeros((nv, prog.nvars))
    np.add.at(B, (rows, cols), vals)
    for _, blk, out in seen:
        C, E = _dense(blk, nv)
        C2, E2 = _dense(out, prog.nvars)
        scale = 1.0 + np.abs(E).max()
        assert np.abs(C2 - (C + np.einsum("k,kij->ij", lift.y0, E))).max() <= 1e-12 * scale
        assert np.abs(E2 - np.einsum("kj,kab->jab", B, E)).max() <= 1e-12 * scale
        assert np.array_equal(out.mult, blk.mult) or out.mult is blk.mult is None


def test_non_automorphism_raises():
    g = graphs.path(4)
    prob = qgraph.build_stab_problem(g, 2)
    swap = {vertex(0): vertex(1), vertex(1): vertex(0)}  # 1-2 is an edge, 0-2 not
    with pytest.raises(SymmetryError):
        conic.solve(dataclasses.replace(prob, symmetries=[swap]))


def test_symmetry_breaking_one_constraint_raises():
    prob = qgraph.build_col_problem(graphs.cycle(5), 2, S.THETA_PLUS)
    cons = list(prob.constraints)
    dropped = next(c for c in cons if c.relation == Relation.GE)
    cons.remove(dropped)
    with pytest.raises(SymmetryError, match="constraint"):
        conic.solve(dataclasses.replace(prob, constraints=cons))
    # the same program without the declared symmetry solves
    sol = conic.solve(dataclasses.replace(prob, constraints=cons, symmetries=[]))
    assert sol.status == SolveStatus.OPTIMAL


def test_constraint_keys_map_through_sigma():
    cons = [LinearConstraint({0: 1.0, 1: -1.0}, 0.0, Relation.EQ),
            LinearConstraint({0: 1.0, 2: 2.0}, 1.0, Relation.GE),
            LinearConstraint({1: 1.0, 2: 2.0}, 1.0, Relation.GE),
            LinearConstraint({}, 0.0, Relation.EQ)]
    keys = conic._ConstraintKeys(cons)
    swap = (np.arange(4), np.array([1, 0, 2]), np.ones(3))
    # x1 - x0 = 0 is the first equality up to sign; the inequalities trade
    assert keys.outside(swap) is None
    # an inequality is not matched up to sign
    flipped = conic._ConstraintKeys(
        cons[:1] + [LinearConstraint({0: -1.0, 2: -2.0}, -1.0, Relation.GE)] + cons[2:])
    assert flipped.outside(swap).terms == {0: -1.0, 2: -2.0}
    assert flipped.outside((np.arange(4), np.arange(3), np.ones(3))) is None


def test_symmetry_changing_the_objective_raises():
    prob = qgraph.build_stab_problem(graphs.cycle(5), 2)
    one = {prob.index.var_of((vertex(0),)): 1.0}
    with pytest.raises(SymmetryError, match="objective"):
        conic.solve(dataclasses.replace(prob, objective=one))


def two_projector_problem(generator_words):
    """max L(x0 + x1) over orthogonal projectors x0, x1 at level 1, with the
    1x1 localizing block L(g), g = 1 - (sum of the generator words), and the
    swap x0 <-> x1 declared as a symmetry."""
    x0, x1 = vertex(0), vertex(1)
    rw = RewriteSystem(zero_pairs=frozenset([(x0, x1), (x1, x0)]),
                       idempotents=frozenset([x0, x1]))
    index = VariableIndex(2, rw, TRC)
    rows = enumerate_basis([x0, x1], 1, rw)
    g = NcPolynomial.one()
    for w in generator_words:
        g = g - NcPolynomial.from_word(w)
    blocks = [moment_block(rows, index),
              localizing_block(g, 1, index, [x0, x1])]
    objective = {index.var_of((x0,)): 1.0, index.var_of((x1,)): 1.0}
    return assemble(objective, "max", blocks,
                    [LinearConstraint({0: 1.0}, 1.0, Relation.EQ)], index,
                    symmetries=[{x0: x1, x1: x0}])


def test_symmetry_checks_localizing_forms():
    # L(1 - x0 - x1) is swap-invariant, and merging keeps the value 1
    prob = two_projector_problem([(vertex(0),), (vertex(1),)])
    merged = conic.solve(prob)
    full = conic.solve(dataclasses.replace(prob, symmetries=[]))
    assert (merged.num_orbits, full.num_orbits) == (2, 3)
    assert abs(merged.objective - full.objective) <= 1e-7
    assert abs(merged.objective - 1.0) <= 1e-6
    # L(1 - x0) is not
    with pytest.raises(SymmetryError, match="entry forms"):
        conic.solve(two_projector_problem([(vertex(0),)]))


@pytest.mark.parametrize("field,change", [("coefs", lambda c: 2.0 * c),
                                          ("var_ids", lambda v: v + 1)])
def test_symmetry_checks_one_term_entries(field, change):
    # the moment block of C5 at level 2 with the entry at (x0, x0) changed:
    # its coefficient doubled, or its variable replaced, while the entries
    # at the images of (x0, x0) under D5 are left as they were
    prob = qgraph.build_stab_problem(graphs.cycle(5), 2)
    blk = prob.blocks[0]
    at = np.flatnonzero((blk.rows == 1) & (blk.cols == 1))
    assert blk.row_words[1] == (vertex(0),) and at.size == 1
    values = getattr(blk, field).copy()
    values[at] = change(values[at])
    changed = dataclasses.replace(blk, **{field: values})
    with pytest.raises(SymmetryError, match="entry forms"):
        conic.solve(dataclasses.replace(prob, blocks=[changed, *prob.blocks[1:]]))


# ---------------------------------------------------------------------------
# Symmetry-adapted blocks
# ---------------------------------------------------------------------------


def _labeled_problem(monkeypatch, system, g, k, r):
    """The margin problem that ``qgraph.<system>`` hands to feasibility."""
    seen = []
    monkeypatch.setattr(conic, "feasibility", lambda prob: seen.append(prob) or (True, 0.0))
    getattr(qgraph, system)(g, k, r)
    monkeypatch.undo()
    return seen[0]


def _split_sizes(prog):
    return [(blk.size, None if blk.mult is None else
             dict(zip(*[a.tolist() for a in np.unique(blk.mult, return_counts=True)])))
            for blk in prog.blocks if blk.size > 1]


@pytest.mark.parametrize("name,n,sizes", [
    ("xi-stab", 5, [(10, {1.0: 4, 2.0: 6})]),
    ("xi-stab", 7, [(21, {1.0: 6, 2.0: 15})]),
    ("xi-stab", 9, [(36, {1.0: 8, 2.0: 28})]),
    ("xi-col", 5, [(10, {1.0: 4, 2.0: 6})]),
    ("las-stab", 7, [(13, {1.0: 4, 2.0: 9})]),
])
def test_split_block_sizes(name, n, sizes):
    prob = GRAPH_PROGRAMS[name](graphs.cycle(n), 2)
    prog, _, _ = conic._build_cone_program(prob)
    assert _split_sizes(prog) == sizes
    # every row of the unreduced block is counted once
    assert sum(k * m for k, m in sizes[0][1].items()) == prob.blocks[0].size


def test_split_labeled_coloring_system(monkeypatch):
    # D5 x S3 on the k = 3, r = 1 coloring system: the 16 moment rows fall
    # into parts of dimension 1, 2 and 4 (D5 and S3 both have 2-dimensional
    # irreducible representations)
    prob = _labeled_problem(monkeypatch, "col_system_feasible", graphs.cycle(5), 3, 1)
    assert prob.blocks[0].size == 16
    prog, _, _ = conic._build_cone_program(prob, margin=True)
    assert _split_sizes(prog) == [(7, {1.0: 2, 2.0: 3, 4.0: 2})]
    # the margin variable t keeps its -I on the split block
    (blk,) = [b for b in prog.blocks if b.size > 1]
    t = blk.vids == prog.nvars - 1
    assert np.array_equal(blk.rows[t], blk.cols[t])
    assert np.sort(blk.rows[t]).tolist() == list(range(7))
    assert np.allclose(blk.vals[t], -1.0, rtol=0, atol=1e-12)


def _rotated(parts):
    # a rotation by 1e-6 between a column of two parts keeps the basis
    # orthonormal, but no longer block-diagonalizes the coefficients
    u, v = parts[0][0, :, 0].copy(), parts[1][0, :, 0].copy()
    c, s = np.cos(1e-6), np.sin(1e-6)
    parts[0][0, :, 0], parts[1][0, :, 0] = c * u - s * v, s * u + c * v


def _repeated(parts):
    # a second copy equal to the first passes every coefficient check, but
    # the basis is no longer orthonormal
    p = next(p for p in parts if len(p) > 1)
    p[1] = p[0]


@pytest.mark.parametrize("perturb", [_rotated, _repeated])
def test_perturbed_split_basis_fails_verification(monkeypatch, perturb):
    prob = GRAPH_PROGRAMS["xi-stab"](graphs.cycle(5), 2)
    basis = conic._split_basis

    def perturbed(*args):
        parts = [p.copy() for p in basis(*args)]
        perturb(parts)
        return parts

    monkeypatch.setattr(conic, "_split_basis", perturbed)
    prog, _, _ = conic._build_cone_program(prob)
    assert _split_sizes(prog) == [(16, None)]  # left unreduced
    sol = conic.solve(prob)
    assert sol.solver_blocks == [{"size": 16, "rows_by_multiplicity": {1: 16}}]
    assert abs(sol.objective - 2.0) <= 1e-6


def test_programs_without_symmetry_keep_their_cone_data(monkeypatch):
    from ncmoment import corrlab, entdim

    calls = []
    monkeypatch.setattr(conic, "_split_block", lambda *a: calls.append(a))
    # only the identity relabeling fixes this table (Tsirelson's carries
    # sixteen relabelings, so its program is no longer asymmetric)
    P = corrlab.random_classical(entdim.Scenario(2, 2, 2, 2), 3, seed=5)
    prob = entdim.build_xi_problem(P, 2)
    assert prob.symmetries == []
    prog, _, lift = conic._build_cone_program(prob)
    assert calls == []
    assert len(lift.y0) == prob.num_vars
    assert np.array_equal(lift.label, np.arange(prob.num_vars))
    assert [blk.size for blk in prog.blocks[:len(prob.blocks)]] == [
        blk.size for blk in prob.blocks]
    assert all(blk.mult is None for blk in prog.blocks)
    assert all((g.weight == 1.0).all() for g in prog.groups)


def test_lift_does_not_depend_on_row_order_or_scale():
    # Permuted equality rows, each rescaled by a random factor, cut out the
    # same affine set: the CHSH level-2 solves keep value and iterations.
    from ncmoment import corrlab, entdim

    rng = np.random.default_rng(17)
    for P in (corrlab.realize(corrlab.tsirelson_chsh()),
              corrlab.random_classical(entdim.Scenario(2, 2, 2, 2), 3, seed=2)):
        prob = entdim.build_xi_problem(P, 2)
        eqs = prob.eq_constraints
        factors = rng.uniform(0.1, 10.0, len(eqs)) * rng.choice([-1.0, 1.0], len(eqs))
        scaled = [LinearConstraint({v: f * c for v, c in con.terms.items()}, f * con.rhs)
                  for con, f in zip(eqs, factors)]
        moved = dataclasses.replace(prob, constraints=prob.ge_constraints + [
            scaled[i] for i in rng.permutation(len(eqs))])
        base, other = conic.solve(prob), conic.solve(moved)
        assert other.iterations == base.iterations
        assert abs(other.objective - base.objective) <= 1e-9


def test_scaled_equalities_keep_the_symmetry_check():
    # The five rows L(x_i) = 1 of C5, scaled by 1..5, cut out the same set:
    # the rotations still map the constraint set onto itself.
    prob = qgraph.build_col_problem(graphs.cycle(5), 2)
    ones = [c for c in prob.eq_constraints
            if c.rhs == 1.0 and len(c.terms) == 1 and 0 not in c.terms]
    assert len(ones) == 5
    scale = {id(c): k for k, c in enumerate(ones, start=1)}
    cons = [LinearConstraint({v: scale[id(c)] * x for v, x in c.terms.items()},
                             scale[id(c)] * c.rhs) if id(c) in scale else c
            for c in prob.constraints]
    sol = conic.solve(dataclasses.replace(prob, constraints=cons))
    assert sol.num_orbits < prob.num_vars
    assert abs(sol.objective - 2.5) <= 1e-6
    # inequalities match up to a positive scale only
    keys = conic._ConstraintKeys([LinearConstraint({0: 2.0, 1: 4.0}, 2.0, Relation.GE)])
    assert keys.outside((np.arange(3), np.array([0, 1]), np.ones(2))) is None
    assert LinearConstraint({0: 1.0, 1: 2.0}, 1.0, Relation.GE).key() == \
        LinearConstraint({0: 2.0, 1: 4.0}, 2.0, Relation.GE).key()
    assert LinearConstraint({0: -1.0, 1: -2.0}, -1.0, Relation.GE).key() != \
        LinearConstraint({0: 1.0, 1: 2.0}, 1.0, Relation.GE).key()
    # a zero coefficient does not set the scale
    assert LinearConstraint({0: 0.0, 1: 2.0}, 4.0).key() == \
        LinearConstraint({0: 0.0, 1: 1.0}, 2.0).key()


@pytest.mark.parametrize("image,match", [
    (2.0, "images of the symbols"),  # x0 -> 2 x0 has infinite order
    (0.0, "not invertible"),  # x0 -> 0
])
def test_symbol_maps_must_generate_a_finite_group(image, match):
    prob = two_projector_problem([(vertex(0),), (vertex(1),)])
    x0 = vertex(0)
    scaled = {x0: NcPolynomial.from_word((x0,), image) if image else NcPolynomial.zero()}
    with pytest.raises(SymmetryError, match=match):
        conic.solve(dataclasses.replace(prob, symmetries=[scaled]))
