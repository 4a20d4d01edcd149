"""The reduced Schur solve of the interior-point method: svec Gram rows, the
Cholesky path and the pivoted-QR fallback."""

import numpy as np
import pytest

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


def test_svec_rows_keep_the_gram_matrix():
    rng = np.random.default_rng(3)
    size, nvars, nt = 6, 9, 5
    entries = {}
    for i in range(size):
        for j in range(i, size):
            ks = rng.choice(nvars, size=2, replace=False)
            entries[(i, j)] = {int(k): float(rng.standard_normal()) for k in ks}
    blk = _block(size, entries)
    blk.finalize(nvars)
    N, _ = np.linalg.qr(rng.standard_normal((nvars, nt)))
    G3 = _ipm._reduced_coefficients(blk, N)
    r = rng.standard_normal((size, size))

    full = np.stack([(r.T @ G3[:, :, a] @ r).ravel() for a in range(nt)],
                    axis=1)  # size^2 x nt
    J = _ipm._gram_rows_scaled(G3, r)
    assert J.shape == (size * (size + 1) // 2, nt)
    ref = full.T @ full
    assert np.abs(J.T @ J - ref).max() <= 1e-12 * np.abs(ref).max()


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
    assert abs(split.pobj - merged.pobj) <= 1e-7


def test_theta_c5_uses_cholesky_path(qr_calls):
    res = qgraph.theta(graphs.cycle(5))
    # The converged last iteration stops before its Schur solve, so every
    # other iteration factors once; fewer QRs than that means Cholesky ran.
    assert len(qr_calls) < res.solution.iterations - 1
