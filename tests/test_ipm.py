"""The interior-point method: size-grouped kernels against per-block
references, the one NT-scaling factorization per iterate, the Schur solve
(svec Gram rows and the eigendecomposition of the equilibrated Schur matrix
that drops its numerically null directions), and the verdicts of the
self-dual embedding on tiny programs."""

import numpy as np
import pytest
import scipy.linalg as sla

from ncmoment import _ipm, conic, corrlab, entdim, graphs, qgraph
from ncmoment._ipm import BlockData, ConeProgram, solve_ipm
from ncmoment.momentize import LinearConstraint


@pytest.fixture
def dropped(monkeypatch):
    """The number of directions each Schur solve drops, in solve order."""
    counts = []
    schur_solver = _ipm._schur_solver

    def counting(J):
        solve, n = schur_solver(J)
        counts.append(n)
        return solve, n

    monkeypatch.setattr(_ipm, "_schur_solver", counting)
    return counts


def _block(size, entries):
    """BlockData from symmetric entries {(i, j): {var: coeff}} with i <= j."""
    vids, rows, cols, vals = [], [], [], []
    for (i, j), terms in entries.items():
        for k, v in terms.items():
            for a, b in {(i, j), (j, i)}:
                vids.append(k)
                rows.append(a)
                cols.append(b)
                vals.append(v)
    return BlockData(size, np.eye(size), np.array(vids), np.array(rows),
                     np.array(cols), np.array(vals, dtype=float))


def _random_block(rng, size, nvars):
    entries = {}
    for i in range(size):
        for j in range(i, size):
            ks = rng.choice(nvars, size=2, replace=False)
            entries[(i, j)] = {int(k): float(rng.standard_normal()) for k in ks}
    return _block(size, entries)


def _lifted(nvars, objective, blocks, eqs):
    """The equality-free program of max b'y over the blocks and ``eqs``."""
    return conic._lifted_program(objective, blocks, eqs, np.arange(nvars))[0]


def test_svec_rows_keep_the_gram_matrix():
    rng = np.random.default_rng(3)
    size, nvars, k = 6, 9, 2
    prog = ConeProgram(nvars, np.zeros(nvars),
                       [_random_block(rng, size, nvars) for _ in range(k)]).finalize()
    (group,) = prog.groups
    G = _ipm._coefficients(group)
    r = rng.standard_normal((k, size, size))

    full = np.vstack([
        np.stack([(r[b].T @ G[b, :, :, a] @ r[b]).ravel() for a in range(nvars)],
                 axis=1)
        for b in range(k)
    ])  # k size^2 x nvars
    J = _ipm._gram_rows_scaled(G, r)
    assert J.shape == (k * size * (size + 1) // 2, nvars)
    ref = full.T @ full
    assert np.abs(J.T @ J - ref).max() <= 1e-12 * np.abs(ref).max()


def test_owner_map_kernels_match_dense_reference():
    rng = np.random.default_rng(13)
    size, nvars, k = 4, 6, 3
    blocks = [_random_block(rng, size, nvars) for _ in range(k)]
    # A repeated (entry, variable) pair must add up, as in a sparse sum.
    blk = blocks[1]
    for name in ("vids", "rows", "cols", "vals"):
        arr = getattr(blk, name)
        setattr(blk, name, np.append(arr, arr[:2]))
    for blk in blocks:
        blk.const = rng.standard_normal((size, size))
    prog = ConeProgram(nvars, np.zeros(nvars), blocks).finalize()
    (group,) = prog.groups
    E = np.zeros((k, nvars, size, size))  # dense E_k^(b), one loop per term
    for b, blk in enumerate(blocks):
        for v, i, j, c in zip(blk.vids, blk.rows, blk.cols, blk.vals):
            E[b, v, i, j] += c
    y = rng.standard_normal(nvars)
    M = rng.standard_normal((k, size, size))
    want_lmi = (np.stack([blk.const for blk in blocks])
                + np.einsum("bvij,v->bij", E, y))
    want_adj = np.einsum("bvij,bij->v", E, M)
    want_G = np.einsum("bvij->bijv", E)
    assert np.allclose(group.lmi_value(y), want_lmi, rtol=0, atol=1e-12)
    assert np.allclose(group.adjoint(M), want_adj, rtol=0, atol=1e-12)
    assert np.allclose(_ipm._coefficients(group), want_G, rtol=0, atol=1e-12)


def _reference_step(M, dM):
    """Per-block step bound: largest alpha with M + alpha*dM PSD."""
    L = sla.cholesky(M, lower=True)
    W = sla.solve_triangular(L, dM, lower=True)
    W = sla.solve_triangular(L, W.T, lower=True)
    lam = sla.eigvalsh(0.5 * (W + W.T))[0]
    return np.inf if lam >= -1e-14 else -1.0 / lam


def _pd_stack(rng, k, n):
    B = rng.standard_normal((k, n, n))
    return B @ np.swapaxes(B, 1, 2) + 0.1 * np.eye(n)


@pytest.mark.parametrize("size", [1, 3, 6])
def test_stacked_step_matches_per_block_reference(size):
    rng = np.random.default_rng(size)
    k = 4
    X, S = _pd_stack(rng, k, size), _pd_stack(rng, k, size)
    r, lam, _ = _ipm._nt_scaling(X, S)
    rt = np.swapaxes(r, 1, 2)
    sym = rng.standard_normal((k, size, size))
    sym = sym + np.swapaxes(sym, 1, 2)
    psd = _pd_stack(rng, k, size)
    mixed = psd.copy()
    mixed[2] = -psd[2]  # one bounding block among unbounded ones
    for D in (sym, psd, mixed):
        # D is the scaled direction of both sides: r' dS r for S and
        # r^{-1} dX r^{-T} for X, so both get the same bound.
        got = _ipm._max_step(lam, D)
        dS = np.linalg.solve(rt, np.linalg.solve(rt, D).swapaxes(1, 2))
        dX = r @ D @ rt
        for M, dM in ((S, dS), (X, dX)):
            want = min(_reference_step(M[b], dM[b]) for b in range(k))
            if np.isinf(want):
                assert np.isinf(got)
            else:
                assert abs(got - want) <= 1e-8 * want
    assert np.isinf(_ipm._max_step(lam, psd))
    assert np.isfinite(_ipm._max_step(lam, mixed))


def test_nt_scaling_needs_a_pd_slack():
    rng = np.random.default_rng(5)
    X, S = _pd_stack(rng, 3, 4), _pd_stack(rng, 3, 4)
    r, lam, low = _ipm._nt_scaling(X, S)
    rt = np.swapaxes(r, 1, 2)
    diag = np.stack([np.diag(v) for v in lam])
    assert np.allclose(rt @ S @ r, diag, rtol=0, atol=1e-9 * lam.max())
    assert np.allclose(np.linalg.solve(r, np.linalg.solve(r, X).swapaxes(1, 2)),
                       diag, rtol=0, atol=1e-9 * lam.max())
    want = min(np.linalg.eigvals(X[b] @ S[b]).real.min() for b in range(3))
    assert abs(low - want) <= 1e-10 * lam.max() ** 2
    lam_s, U = np.linalg.eigh(S[1])
    S[1] = (U * np.r_[-1e-9, lam_s[1:]]) @ U.T  # one marginally indefinite S
    with pytest.raises(np.linalg.LinAlgError):
        _ipm._nt_scaling(X, S)


def _scaling_fails_after_start(monkeypatch, groups):
    """Let ``_nt_scaling`` factor the starting point's ``groups`` stacks and
    raise LinAlgError on every later call."""
    nt_scaling, calls = _ipm._nt_scaling, []

    def failing(X, S):
        calls.append(None)
        if len(calls) > groups:
            raise np.linalg.LinAlgError("not PD")
        return nt_scaling(X, S)

    monkeypatch.setattr(_ipm, "_nt_scaling", failing)


def test_failed_scaling_stops_without_a_step(monkeypatch):
    # Past the starting point every trial step fails to factor, so the guard
    # runs out of shrinks: the solve stops at its best point, unaccepted.
    prog = _mixed_program([0, 1, 2, 3, 4])
    _scaling_fails_after_start(monkeypatch, len(prog.groups))
    res = solve_ipm(prog)
    assert (res.status, res.stop, res.iterations) == ("numerical_limit", "no_step", 1)
    monkeypatch.undo()
    prob = qgraph.build_stab_problem(graphs.cycle(5), 1)
    _scaling_fails_after_start(monkeypatch,
                               len(conic._build_cone_program(prob)[0].groups))
    with pytest.raises(conic.SolverError, match="numerical_limit after 1 iterations"):
        conic.solve(prob)


def test_iteration_cap_is_a_numerical_limit(monkeypatch):
    # Nine iterations leave C5's level-2 stability bound within 1.2e-7 of
    # its value 2: the interior point reports numerical_limit, and conic's
    # acceptance rule alone accepts it by its residuals.
    monkeypatch.setattr(_ipm, "MAX_ITER", 9)
    sol = conic.solve(qgraph.build_stab_problem(graphs.cycle(5), 2))
    assert (sol.status, sol.stop, sol.iterations) == (
        conic.SolveStatus.NUMERICAL_LIMIT, "iteration_cap", 9)
    assert abs(sol.objective - 2.0) <= 1e-6
    assert max(sol.residuals[k] for k in ("lmi", "adjoint", "equality", "gap")) \
        <= conic.ACCEPT_TOL


def test_lifted_chsh_level_two_takes_no_svd(monkeypatch):
    # Two size groups (8 blocks of size 6, one of size 26).  Each iterate is
    # factored once, by the scaling that the neighbourhood guard computes:
    # no SVD runs, and every Cholesky is the scaling's.
    P = corrlab.realize(corrlab.tsirelson_chsh())
    prog = conic._build_cone_program(entdim.build_xi_problem(P, 2))[0]
    assert [g.size for g in prog.groups] == [6, 26]
    counts = {"cholesky": 0, "scaling": 0}
    cholesky, nt_scaling = np.linalg.cholesky, _ipm._nt_scaling

    def no_svd(*args, **kwargs):
        raise AssertionError("SVD in the interior point")

    def counted_cholesky(M):
        counts["cholesky"] += 1
        return cholesky(M)

    def counted_scaling(X, S):
        counts["scaling"] += 1
        return nt_scaling(X, S)

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "svd", no_svd)
        m.setattr(np.linalg, "cholesky", counted_cholesky)
        m.setattr(_ipm, "_nt_scaling", counted_scaling)
        res = solve_ipm(prog)
    assert (res.status, res.stop) == ("optimal", "converged")
    assert counts["cholesky"] == counts["scaling"] >= 2 * res.iterations


def _mixed_data(order):
    """max b'y over five blocks (sizes 1, 1, 3, 3, 5), one equality.

    Every block is I + sum_k y_k E_k.  The coefficients of the size-5 block
    are traceless, so no nonzero direction keeps it PSD: the program is
    bounded, and y = 0 is strictly feasible.  The optimal X is nonzero on a
    1x1, a 3x3 and the 5x5 block.
    """
    rng = np.random.default_rng(15)
    nvars = 4
    blocks = []
    for size in (1, 1, 3, 3, 5):
        scale = 1.0 if size == 5 else 4.0
        entries = {}
        for i in range(size):
            for j in range(i, size):
                entries[(i, j)] = {k: scale * float(rng.standard_normal())
                                   for k in range(nvars)}
        blk = _block(size, entries)
        if size == 5:
            for k in range(nvars):
                diag = (blk.vids == k) & (blk.rows == blk.cols)
                blk.vals[diag] -= blk.vals[diag].mean()
        blocks.append(blk)
    objective = rng.standard_normal(nvars)
    return (nvars, objective, [blocks[i] for i in order],
            [LinearConstraint({0: 1.0, 1: 1.0}, 0.05)])


def _mixed_program(order):
    return _lifted(*_mixed_data(order))


def test_block_order_does_not_change_the_solve():
    base = solve_ipm(_mixed_program([0, 1, 2, 3, 4]))
    assert base.status == "optimal"
    order = [4, 2, 0, 3, 1]
    perm = solve_ipm(_mixed_program(order))
    assert perm.status == "optimal"
    assert abs(perm.pobj - base.pobj) <= 1e-8
    assert [M.shape[0] for M in perm.X] == [5, 3, 1, 3, 1]
    assert [M.shape[0] for M in perm.S] == [5, 3, 1, 3, 1]
    scale = max(np.abs(M).max() for M in base.X)
    for i, j in enumerate(order):
        assert np.abs(perm.X[i] - base.X[j]).max() <= 1e-6 * scale


def test_lifted_objective_keeps_its_constant():
    # The lift pins y_0 = 0.05 - y_1, so the solver's objective has the
    # constant 0.05 b_0; pobj and dobj count it.
    nvars, objective, blocks, eqs = _mixed_data([0, 1, 2, 3, 4])
    prog, lift = conic._lifted_program(objective, blocks, eqs, np.arange(nvars))
    assert prog.offset == 0.05 * objective[0] != 0.0
    res = solve_ipm(prog)
    assert res.status == "optimal"
    rows, cols, vals = lift.B
    y = lift.y0 + np.bincount(rows, vals * res.y[cols], nvars)
    assert abs(y[0] + y[1] - 0.05) <= 1e-14
    assert abs(res.pobj - objective @ y) <= 1e-12 * (1 + abs(res.pobj))
    assert abs(res.dobj - res.pobj) <= 1e-7 * (1 + abs(res.pobj))


def _scalar_program(objective, consts, coeffs):
    """max objective * y over the 1x1 blocks [consts[i] + coeffs[i] y]."""
    z = np.zeros(1, dtype=int)
    return ConeProgram(1, np.array([objective]), [
        BlockData(1, np.array([[c]]), z, z, z, np.array([a]))
        for c, a in zip(consts, coeffs)]).finalize()


def test_infeasible_lmi_gives_a_farkas_certificate():
    # [y] >= 0 and [-1 - y] >= 0: X = (1, 1) / 1 has A*(X) = 1 - 1 = 0 and
    # <C, X> = -1, and the margin program's value is -1/2 (at y = -1/2).
    prog = _scalar_program(0.0, [0.0, -1.0], [1.0, -1.0])
    res = solve_ipm(prog)
    assert (res.status, res.stop) == ("infeasible", "farkas")
    x = np.array([M[0, 0] for M in res.X])
    xhat = x / -(x @ np.array([0.0, -1.0]))  # X / (-<C, X>)
    assert (xhat >= 0).all()
    assert abs(xhat @ np.array([1.0, -1.0])) <= _ipm.TOL  # A*(X^)
    assert res.certificate["residual"] <= _ipm.TOL
    assert abs(res.certificate["margin"] + 0.5) <= 1e-6


def test_unbounded_lmi_gives_its_ray():
    # max y over [y] >= 0: y itself is an improving ray.
    res = solve_ipm(_scalar_program(1.0, [0.0], [1.0]))
    assert (res.status, res.stop) == ("unbounded", "ray")
    assert res.y[0] > 0  # b'y > 0 and A(y) = [y] >= 0
    assert res.certificate["residual"] <= _ipm.TOL


def test_pinned_indefinite_block_is_infeasible():
    # No free variable: the margin is the constant block's least eigenvalue.
    z = np.zeros(0, dtype=int)
    prog = ConeProgram(0, np.zeros(0), [
        BlockData(2, np.diag([1.0, -2.0]), z, z, z, np.zeros(0))]).finalize()
    res = solve_ipm(prog)
    assert (res.status, res.stop, res.iterations) == ("infeasible", "farkas", 0)
    assert res.certificate["margin"] == -2.0


def _program(duplicate):
    """max y0 + z over [[1, y0, z], [y0, 1, y0], [z, y0, 1]] >= 0, z <= 1/2.

    With ``duplicate`` the variable z is split into two variables with
    identical coefficients everywhere, so the Schur matrix is singular.
    """
    zs = {1: 1.0, 2: 1.0} if duplicate else {1: 1.0}
    nvars = 1 + len(zs)
    moment = _block(3, {(0, 1): {0: 1.0}, (1, 2): {0: 1.0}, (0, 2): zs})
    cap = _block(1, {(0, 0): {k: -v for k, v in zs.items()}})
    cap.const = np.array([[0.5]])
    objective = np.ones(nvars)
    return ConeProgram(nvars, objective, [moment, cap]).finalize()


def test_singular_schur_drops_the_null_direction(dropped):
    # The split program's Schur matrix is singular: the solve drops the
    # direction z1 - z2 and still reaches the merged program's value.
    merged = solve_ipm(_program(duplicate=False))
    assert merged.status == "optimal"
    dropped.clear()
    split = solve_ipm(_program(duplicate=True))
    assert split.status == "optimal"
    assert sum(dropped) >= 1
    assert split.schur_rank_deficient == sum(n > 0 for n in dropped)
    assert abs(split.pobj - merged.pobj) <= 1e-7


def test_theta_c5_keeps_every_direction(dropped):
    # A regular Schur matrix keeps every direction on every iteration.
    res = qgraph.theta(graphs.cycle(5))
    assert dropped and sum(dropped) == 0
    assert res.solution.schur_rank_deficient == 0


def test_dropped_step_has_no_null_space_component():
    # The null vector of J is v; that of K = D^-1 J'J D^-1 is u = D v.  The
    # step keeps D dt orthogonal to u, and J'J dt = D K D dt is g less its
    # component along D u in the matching metric.
    rng = np.random.default_rng(7)
    J = rng.standard_normal((12, 5)) * np.array([1.0, 1e3, 1.0, 1e-3, 1.0])
    J[:, 4] = J[:, 0] - 2.0 * J[:, 2]  # one dependent column
    v = np.array([1.0, 0.0, -2.0, 0.0, -1.0])
    assert np.abs(J @ v).max() <= 1e-12
    d = np.sqrt(np.diag(J.T @ J))
    u = d * v / np.linalg.norm(d * v)
    solve, n = _ipm._schur_solver(J)
    # one dropped direction, as numpy's matrix_rank counts it on K
    assert n == 1 == 5 - np.linalg.matrix_rank(J.T @ J / np.outer(d, d),
                                               hermitian=True)
    g = rng.standard_normal(5)
    dt = solve(g)
    assert abs((d * dt) @ u) <= 1e-10 * np.linalg.norm(d * dt)
    g_kept = g - ((g / d) @ u) * (d * u)
    assert np.abs(J.T @ (J @ dt) - g_kept).max() <= 1e-9 * np.abs(g).max()


def test_zero_column_gets_a_zero_step():
    # d = 0 for a zero column of J; it takes d = 1, so its zero eigenvalue
    # is dropped and the other coordinates solve their own system.
    rng = np.random.default_rng(3)
    J = np.column_stack([rng.standard_normal((12, 3)), np.zeros(12)])
    solve, n = _ipm._schur_solver(J)
    assert n == 1
    g = rng.standard_normal(4)
    dt = solve(g)
    assert dt[3] == 0.0
    want = np.linalg.solve(J[:, :3].T @ J[:, :3], g[:3])
    assert np.allclose(dt[:3], want, rtol=1e-10, atol=0)


def test_column_scaling_keeps_every_direction():
    # Columns scaled by 1e6 and 1e-6 put the rcond of H = J'J near 4e-25,
    # but the equilibrated K = D^-1 H D^-1 is as well conditioned as J0'J0,
    # so the solve keeps every direction.
    rng = np.random.default_rng(0)
    J0 = rng.standard_normal((30, 6))
    s = np.array([1e6, 1e-6, 1e6, 1e-6, 1.0, 1e6])
    J = J0 * s
    assert 1.0 / np.linalg.cond(J.T @ J, 1) < 1e-24
    solve, n = _ipm._schur_solver(J)
    assert n == 0
    g = rng.standard_normal(6)
    # J'J dt = g is J0'J0 (s dt) = g / s: the unscaled solve mapped back.
    want = np.linalg.solve(J0.T @ J0, g / s) / s
    assert np.allclose(solve(g), want, rtol=1e-10, atol=0)


# J'J conditioned from 1e2 up to 1e12: its smallest eigenvalues stay far
# above the rank tolerance 8 eps max(lam) of this 8 x 8 K, so every
# direction is kept and refinement makes the step exact.
@pytest.mark.parametrize("cond, seed",
                         [(1e2, 102), (3e5, 5), (1e6, 6), (1e9, 9),
                          (3e11, 11), (1e12, 12)])
def test_rank_rule_keeps_conditioned_directions(cond, seed):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    ev = np.geomspace(1.0, 1.0 / cond, 8)
    J = np.sqrt(ev)[:, None] * Q.T  # J'J = Q diag(ev) Q'
    solve, n = _ipm._schur_solver(J)
    d = np.sqrt(np.diag(J.T @ J))
    assert n == 0 == 8 - np.linalg.matrix_rank(J.T @ J / np.outer(d, d),
                                               hermitian=True)
    g = rng.standard_normal(8)
    want = Q @ ((Q.T @ g) / ev)
    assert np.abs(solve(g) - want).max() <= 1e-10 * np.abs(want).max()


def test_dual_objective_matches_least_squares_on_rank_deficient_A(monkeypatch):
    # The reported dual objective is sum_b <C_b, X_b> + d'w with
    # w = lstsq(A', adj), adj the objective plus block adjoints, for any X;
    # here X is not dual feasible and the substitution's y0 is not the
    # minimum-norm solution, so the shift matters.
    rng = np.random.default_rng(11)
    nvars = 7
    blocks = [_random_block(rng, size, nvars) for size in (4, 4, 2)]
    for blk in blocks:
        blk.const = _ipm._sym(rng.standard_normal((blk.size, blk.size)))
    a = rng.standard_normal((2, nvars))
    A = np.vstack([a, a[0] + a[1], 2.0 * a[0]])  # rank 2
    d = A @ rng.standard_normal(nvars)
    objective = rng.standard_normal(nvars)
    X = []
    for blk in blocks:
        M = rng.standard_normal((blk.size, blk.size))
        X.append(M @ M.T)
    plain = ConeProgram(nvars, objective, blocks).finalize()
    ref, adj = _ipm._dual_side(
        plain, [np.stack([X[bi] for bi in g.members]) for g in plain.groups])
    w, *_ = np.linalg.lstsq(A.T, adj, rcond=None)
    assert np.abs(A.T @ w - adj).max() > 1e-3  # X is not dual feasible
    ref += float(d @ w)

    eqs = [LinearConstraint(dict(enumerate(row)), rhs) for row, rhs in zip(A, d)]
    prog, lift = conic._lifted_program(objective, blocks, eqs, np.arange(nvars))
    assert prog.nvars == nvars - 2  # the two dependent rows are dropped
    assert np.abs(lift.shift).max() > 1e-3  # y0 is not the minimum-norm one

    def at_X(prog):
        # the solver's own dual side at X, over the free coordinates
        dobj, adj_z = _ipm._dual_side(
            prog, [np.stack([X[bi] for bi in g.members]) for g in prog.groups])
        return _ipm.IpmResult("optimal", np.zeros(prog.nvars), [], [], dobj,
                              dobj, 1, 0.0, 0.0, 0.0, adjoint=adj_z)

    monkeypatch.setattr(conic, "solve_ipm", at_X)
    res, _ = conic._solve_lifted(prog, lift, None)
    assert abs(res.dobj - ref) <= 1e-10 * (1.0 + abs(ref))


def _copies_program(layout):
    """max b'y over a traceless 3x3 block A(y) and copies of a 2x2 block B(y).

    ``layout`` "blocks": A and three separate copies of B; "one-block": one
    block diag(A, B, B); "weighted": A and one B of multiplicity 3;
    "weighted-rows": diag(A, B) with multiplicities (1, 1, 1, 2, 2).
    """
    rng = np.random.default_rng(21)
    nvars = 3
    a = {(i, j): {k: float(rng.standard_normal()) for k in range(nvars)}
         for i in range(3) for j in range(i, 3)}
    for k in range(nvars):  # traceless coefficients keep the program bounded
        mean = sum(a[(i, i)][k] for i in range(3)) / 3
        for i in range(3):
            a[(i, i)][k] -= mean
    b = {(i, j): {k: float(rng.standard_normal()) for k in range(nvars)}
         for i in range(2) for j in range(i, 2)}

    def shifted(entries, off):
        return {(i + off, j + off): t for (i, j), t in entries.items()}

    if layout == "blocks":
        blocks = [_block(3, a)] + [_block(2, b) for _ in range(3)]
    elif layout == "weighted":
        blocks = [_block(3, a), _block(2, b)]
        blocks[1].mult = np.full(2, 3.0)
    elif layout == "one-block":
        blocks = [_block(7, {**a, **shifted(b, 3), **shifted(b, 5)})]
    else:
        blocks = [_block(5, {**a, **shifted(b, 3)})]
        blocks[0].mult = np.array([1.0, 1.0, 1.0, 2.0, 2.0])
    objective = rng.standard_normal(nvars)
    return _lifted(nvars, objective, blocks, [LinearConstraint({0: 1.0, 1: -1.0}, 0.1)])


@pytest.mark.parametrize("copies,weighted", [("blocks", "weighted"),
                                             ("one-block", "weighted-rows")])
def test_multiplicity_counts_every_copy(copies, weighted):
    full = solve_ipm(_copies_program(copies))
    one = solve_ipm(_copies_program(weighted))
    assert full.status == one.status == "optimal"
    assert one.iterations == full.iterations
    assert abs(one.pobj - full.pobj) <= 1e-9 * (1 + abs(full.pobj))
    assert abs(one.dobj - full.dobj) <= 1e-9 * (1 + abs(full.dobj))
    assert np.abs(one.y - full.y).max() <= 1e-10  # the same iterates
    # without the multiplicities the central path, and so the iterate, moves
    plain = _copies_program(weighted)
    for blk in plain.blocks:
        blk.mult = None
    plain = solve_ipm(ConeProgram(plain.nvars, plain.objective, plain.blocks,
                                  plain.offset).finalize())
    assert abs(plain.pobj - full.pobj) <= 1e-6 * (1 + abs(full.pobj))
    assert np.abs(plain.y - full.y).max() >= 1e-8


def test_weighted_kernels_count_every_copy():
    # diag(A, B, B) against diag(A, B) with row multiplicities (1, 1, 1, 2, 2)
    (full,) = _copies_program("one-block").groups
    (one,) = _copies_program("weighted-rows").groups
    rng = np.random.default_rng(8)
    a, b = _pd_stack(rng, 2, 3), _pd_stack(rng, 2, 2)

    def stacks(copies):
        out = []
        for k in range(2):
            parts = [a[k]] + [b[k]] * copies
            M = np.zeros((3 + 2 * copies,) * 2)
            at = 0
            for P in parts:
                M[at:at + len(P), at:at + len(P)] = P
                at += len(P)
            out.append(M[None])
        return out

    (Xf, Sf), (Xo, So) = stacks(2), stacks(1)
    assert one.weight.sum() == 7
    assert abs(one.inner(Xo, So) - full.inner(Xf, Sf)) <= 1e-12 * full.inner(Xf, Sf)
    assert np.allclose(one.adjoint(Xo), full.adjoint(Xf), rtol=1e-12, atol=0)
