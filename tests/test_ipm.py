"""The interior-point method: size-grouped kernels against per-block
references, and the reduced Schur solve (svec Gram rows, the Cholesky path
and the pivoted-QR fallback)."""

import numpy as np
import pytest
import scipy.linalg as sla

from ncmoment import _ipm, graphs, qgraph
from ncmoment._ipm import BlockData, ConeProgram, solve_ipm


@pytest.fixture
def qr_calls(monkeypatch):
    """Count the pivoted-QR fallbacks taken by the Schur solve."""
    calls = []
    qr = _ipm.sla.qr

    def counting_qr(*args, **kwargs):
        calls.append(1)
        return qr(*args, **kwargs)

    monkeypatch.setattr(_ipm.sla, "qr", counting_qr)
    return calls


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


def test_svec_rows_keep_the_gram_matrix():
    rng = np.random.default_rng(3)
    size, nvars, nt, k = 6, 9, 5, 2
    prog = ConeProgram(nvars, np.zeros(nvars),
                       [_random_block(rng, size, nvars) for _ in range(k)],
                       None, None).finalize()
    (group,) = prog.groups
    N, _ = np.linalg.qr(rng.standard_normal((nvars, nt)))
    G = _ipm._reduced_coefficients(group, N)
    r = rng.standard_normal((k, size, size))

    full = np.vstack([
        np.stack([(r[b].T @ G[b, :, :, a] @ r[b]).ravel() for a in range(nt)],
                 axis=1)
        for b in range(k)
    ])  # k size^2 x nt
    J = _ipm._gram_rows_scaled(G, r)
    assert J.shape == (k * size * (size + 1) // 2, nt)
    ref = full.T @ full
    assert np.abs(J.T @ J - ref).max() <= 1e-12 * np.abs(ref).max()


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
    r, lam = _ipm._nt_scaling(np.linalg.cholesky(S), np.linalg.cholesky(X))
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


def test_failed_cholesky_repairs_only_that_block():
    rng = np.random.default_rng(5)
    M = _pd_stack(rng, 3, 4)
    lam, U = np.linalg.eigh(M[1])
    M[1] = (U * np.r_[-1e-9, lam[1:]]) @ U.T  # marginally indefinite
    before = M.copy()
    L = _ipm._chol_repaired(M, 1.0)
    assert L is not None
    assert np.array_equal(M[0], before[0]) and np.array_equal(M[2], before[2])
    assert not np.array_equal(M[1], before[1])
    assert np.linalg.eigvalsh(M[1])[0] > 0
    assert np.abs(M[1] - before[1]).max() <= 1e-8
    assert np.allclose(L @ np.swapaxes(L, 1, 2), M, rtol=0, atol=1e-12)


def _mixed_program(order):
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
    A = np.array([[1.0, 1.0, 0.0, 0.0]])
    return ConeProgram(nvars, objective, [blocks[i] for i in order], A,
                       np.array([0.05])).finalize()


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
    return ConeProgram(nvars, objective, [moment, cap], None, None).finalize()


def test_singular_schur_takes_qr_fallback(qr_calls):
    merged = solve_ipm(_program(duplicate=False))
    assert merged.status == "optimal"
    qr_calls.clear()
    split = solve_ipm(_program(duplicate=True))
    assert split.status == "optimal"
    assert len(qr_calls) >= 1
    assert split.qr_fallbacks == len(qr_calls)
    assert abs(split.pobj - merged.pobj) <= 1e-7


def test_theta_c5_uses_cholesky_path(qr_calls):
    res = qgraph.theta(graphs.cycle(5))
    # The converged last iteration stops before its Schur solve, so every
    # other iteration factors once; fewer QRs than that means Cholesky ran.
    assert len(qr_calls) < res.solution.iterations - 1


def test_dual_objective_matches_least_squares_on_rank_deficient_A():
    # d'w with w = lstsq(A', adj) equals y0'adj for the minimum-norm y0.
    rng = np.random.default_rng(11)
    nvars = 7
    blocks = [_random_block(rng, size, nvars) for size in (4, 4, 2)]
    a = rng.standard_normal((2, nvars))
    A = np.vstack([a, a[0] + a[1], 2.0 * a[0]])  # rank 2
    d = A @ rng.standard_normal(nvars)
    prog = ConeProgram(nvars, rng.standard_normal(nvars), blocks, A,
                       d).finalize()
    y0, _ = _ipm._eliminate_equalities(A, d, nvars)
    X = []
    for blk in blocks:
        M = rng.standard_normal((blk.size, blk.size))
        X.append(M @ M.T)

    Xs = [np.stack([X[bi] for bi in g.members]) for g in prog.groups]
    adj = prog.objective + sum(g.adjoint(Xg) for g, Xg in zip(prog.groups, Xs))
    w, *_ = np.linalg.lstsq(A.T, adj, rcond=None)
    ref = sum(float(np.vdot(Xg, g.const)) for g, Xg in zip(prog.groups, Xs))
    ref += float(d @ w)
    got = _ipm._dual_objective(prog, Xs, y0)
    assert abs(got - ref) <= 1e-10 * (1.0 + abs(ref))
