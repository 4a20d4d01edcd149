"""Primal-dual interior-point solver for block-diagonal linear matrix
inequalities with equality constraints.

Solves, over y in R^n:

    maximize    b' y
    subject to  S_b(y) = C_b + sum_k y_k E_k^(b)  PSD   for every block b,
                A y = d.

The equalities are eliminated up front: with y = y0 + N t for a particular
solution y0 and an orthonormal nullspace basis N of A, the iteration runs on
the unconstrained reduced variables t.  The search direction is the
Nesterov-Todd direction with a Mehrotra predictor-corrector step.

Schur complement.  With the NT factor r of each block, the reduced Schur
matrix is H = J'J, where J stacks the rows svec(r' G_a r) of every block
(upper triangle, off-diagonal entries weighted by sqrt 2, so a block of size
n gives n(n+1)/2 rows) and G_a = sum_k N[k, a] E_k.  H is formed and
Cholesky-factored in place; the factor is used when it exists and LAPACK's
condition estimate reaches ``RCOND_MIN``.  Otherwise the step comes from a
column-pivoted QR of J, which gives a zero step along directions outside the
row space.  The guard 1e-6 bounds the relative error of a Cholesky step by
about eps/rcond ~ 2e-10 before refinement; near-singular H, as on degenerate
faces and late in infeasible solves, goes to the rank-revealing QR, which
gives dead directions a zero step instead of amplified roundoff.  Both paths
refine the solve twice against J'J.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg import lapack

# Smallest reciprocal condition estimate of H = J'J for the Cholesky path.
RCOND_MIN = 1e-6
# Iteration limit; a solve that reaches it ends with status numerical_limit.
MAX_ITER = 120


@dataclass
class BlockData:
    """One PSD block: constant part plus sparse per-variable coefficients.

    ``vids, rows, cols, vals`` enumerate the full (both triangles) nonzero
    pattern of the coefficient matrices E_k restricted to this block.
    """

    size: int
    const: np.ndarray
    vids: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    occ: sp.csr_matrix = field(init=False)  # (#entries x nvars) owner map
    flat: np.ndarray = field(init=False)

    def finalize(self, nvars: int):
        ne = len(self.vids)
        self.occ = sp.csr_matrix(
            (self.vals, (np.arange(ne), self.vids)), shape=(ne, nvars)
        )
        self.flat = self.rows * self.size + self.cols

    def lmi_value(self, y: np.ndarray) -> np.ndarray:
        m = self.const.copy()
        np.add.at(m, (self.rows, self.cols), self.vals * y[self.vids])
        return m

    def adjoint(self, M: np.ndarray) -> np.ndarray:
        """Vector with k-th entry <E_k, M> (M need not be symmetric)."""
        return self.occ.T @ M[self.rows, self.cols]


@dataclass
class ConeProgram:
    nvars: int
    objective: np.ndarray  # maximized
    blocks: list
    A: Optional[np.ndarray]  # equality matrix (may be rank deficient)
    d: Optional[np.ndarray]

    def finalize(self):
        for b in self.blocks:
            b.finalize(self.nvars)
        return self


@dataclass
class IpmResult:
    status: str  # optimal | infeasible | unbounded | numerical_limit
    y: np.ndarray
    X: list
    S: list
    pobj: float
    dobj: float
    iterations: int
    mu: float
    err_lmi: float
    err_adj: float
    err_eq: float
    certificate: Optional[dict] = None


class InconsistentEqualities(RuntimeError):
    def __init__(self, row: int, residual: float):
        self.row = row
        self.residual = residual
        super().__init__(
            f"equality system is inconsistent (row {row}, residual {residual:.3e})"
        )


def _chol(M: np.ndarray) -> Optional[np.ndarray]:
    try:
        return sla.cholesky(M, lower=True, check_finite=False)
    except sla.LinAlgError:
        return None


def _repair_psd(M: np.ndarray, mu: float) -> np.ndarray:
    """Shift a marginally indefinite symmetric matrix back into the cone."""
    M = 0.5 * (M + M.T)
    lam = sla.eigvalsh(M, check_finite=False)[0]
    shift = max(0.0, -lam) + 1e-12 * (1.0 + abs(mu))
    return M + shift * np.eye(M.shape[0])


def _max_step(L: np.ndarray, dM: np.ndarray) -> float:
    """Largest alpha with M + alpha*dM PSD, for M = L L'."""
    W = sla.solve_triangular(L, dM, lower=True, check_finite=False)
    W = sla.solve_triangular(L, W.T, lower=True, check_finite=False)
    lam = sla.eigvalsh(0.5 * (W + W.T), check_finite=False)[0]
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


def _reduced_coefficients(block: BlockData, N: np.ndarray) -> np.ndarray:
    """Tensor G with G[:, :, a] = sum_k N[k, a] E_k for this block.

    Constant over the iteration; the scaled Gram rows are then plain
    congruences r' G[:, :, a] r.
    """
    n = block.size
    F = len(block.vids)
    W = block.occ @ N  # (F x nt)
    pat = sp.csr_matrix(
        (np.ones(F), (block.flat, np.arange(F))), shape=(n * n, F)
    )
    return np.asarray(pat @ W).reshape(n, n, -1)


def _gram_rows_scaled(G3: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Rows svec(r' G_a r) for every reduced variable a: (size(size+1)/2 x nt).

    svec keeps the upper triangle and weights off-diagonal entries by sqrt 2,
    so the Gram matrix of these rows equals that of the full vec rows.
    """
    tmp = np.tensordot(r, G3, axes=(0, 0))  # (i, q, a)
    out = np.tensordot(tmp, r, axes=(1, 0))  # (i, a, j)
    iu, ju = np.triu_indices(out.shape[0])
    rows = out[iu, :, ju]  # (size(size+1)/2, nt)
    rows[iu != ju] *= np.sqrt(2.0)
    return rows


def _schur_solver(J: np.ndarray):
    """Solver for H dt = g with H = J'J, refined twice against J'J.

    Cholesky of H when it is well conditioned (rcond >= RCOND_MIN), else a
    column-pivoted QR of J restricted to its numerical row space; directions
    outside it get a zero step, not roundoff divided by a tiny pivot.
    """
    nt = J.shape[1]
    H = (J.T @ J).T  # symmetric; the transpose is Fortran-ordered for LAPACK
    anorm = float(np.abs(H).sum(axis=0).max(initial=0.0))
    c, info = lapack.dpotrf(H, lower=0, clean=0, overwrite_a=1)
    del H  # c is the factor, written over H's buffer
    if info == 0:
        rcond, info = lapack.dpocon(c, anorm)
    if info == 0 and rcond >= RCOND_MIN:
        live = np.arange(nt)

        def base(g):
            return lapack.dpotrs(c, g)[0]
    else:
        del c  # free the buffer before the QR
        Rtop, piv = sla.qr(J, mode="r", pivoting=True, check_finite=False)
        Rtop = Rtop[: min(nt, Rtop.shape[0])]
        rdiag = np.abs(np.diag(Rtop))
        top = rdiag.max(initial=0.0)
        rank = int((rdiag > max(top, 1.0) * 1e-14).sum())
        R11 = Rtop[:rank, :rank]
        live = piv[:rank]

        def base(g):
            u = sla.solve_triangular(R11.T, g, lower=True, check_finite=False)
            return sla.solve_triangular(R11, u, lower=False,
                                        check_finite=False)

    def solve(g):
        dt = np.zeros(nt)
        if len(live):
            dt[live] = base(g[live])
            for _ in range(2):
                res = g - J.T @ (J @ dt)
                if np.abs(res[live]).max(initial=0.0) <= 1e-13 * (
                    1.0 + np.abs(g).max(initial=0.0)
                ):
                    break
                dt[live] += base(res[live])
        return dt

    return solve


def _eliminate_equalities(A, d, n, tol_rank=1e-11):
    """Particular solution and orthonormal nullspace basis of A y = d."""
    if A is None or A.shape[0] == 0:
        return np.zeros(n), np.eye(n)
    # One full SVD: its leading triplets give y0, the rest of Vt spans the
    # nullspace.
    U, sv, Vt = np.linalg.svd(A, full_matrices=True)
    top = sv.max(initial=0.0)
    rank = int((sv > tol_rank * max(top, 1.0)).sum())
    y0 = Vt[:rank].T @ ((U[:, :rank].T @ d) / sv[:rank])
    resid = A @ y0 - d
    scale = 1.0 + np.abs(d).max(initial=0.0) + np.abs(A).max(initial=0.0)
    if resid.size and np.abs(resid).max() > 1e-8 * scale:
        raise InconsistentEqualities(
            int(np.abs(resid).argmax()), float(np.abs(resid).max())
        )
    return y0, Vt[rank:].T


def solve_ipm(prog: ConeProgram, tol: float = 1e-8) -> IpmResult:
    n = prog.nvars
    b = prog.objective
    blocks = prog.blocks
    ntot = sum(blk.size for blk in blocks)

    try:
        y0, N = _eliminate_equalities(prog.A, prog.d, n)
    except InconsistentEqualities as exc:
        return IpmResult(
            "infeasible", np.zeros(n), [], [], np.nan, np.nan, 0, np.nan,
            np.inf, np.inf, np.inf,
            certificate={"reason": str(exc), "row": exc.row,
                         "residual": exc.residual},
        )
    nt = N.shape[1]
    bt = N.T @ b

    bscale = 1.0 + float(np.abs(b).max(initial=0.0))
    cscale = 1.0 + max(float(np.abs(blk.const).max(initial=0.0)) for blk in blocks)
    err_eq = 0.0
    if prog.A is not None and prog.A.shape[0] > 0:
        err_eq = float(np.abs(prog.A @ y0 - prog.d).max()) / (
            1.0 + np.abs(prog.d).max(initial=0.0)
        )

    if nt == 0:
        return _solve_fixed(prog, y0, err_eq, tol)

    pregram = [_reduced_coefficients(blk, N) for blk in blocks]

    # Starting point: y on the affine subspace, scaled identity cone pair.
    t = np.zeros(nt)
    y = y0.copy()
    s0 = max(10.0, cscale, bscale)
    x0 = max(10.0, bscale)
    X = [x0 * np.eye(blk.size) for blk in blocks]
    S = []
    for blk in blocks:
        M = blk.lmi_value(y)
        lam = sla.eigvalsh(M)[0] if blk.size > 1 else M[0, 0]
        S.append(M + max(s0, -1.5 * lam + s0) * np.eye(blk.size))

    best = None
    best_quality = np.inf
    status = "numerical_limit"
    it = 0
    for it in range(1, MAX_ITER + 1):
        R_lmi = [blk.lmi_value(y) - S[bi] for bi, blk in enumerate(blocks)]
        adj_y = -b.copy()
        for bi, blk in enumerate(blocks):
            adj_y -= blk.adjoint(X[bi])
        r_adj = -(N.T @ adj_y)

        gap = sum(float(np.tensordot(X[bi], S[bi])) for bi in range(len(blocks)))
        mu = gap / ntot
        pobj = float(b @ y)
        dobj = pobj + gap  # exact at feasibility; used for gap control

        err_lmi = max(
            float(np.abs(R_lmi[bi]).max(initial=0.0)) for bi in range(len(blocks))
        ) / cscale
        err_adj = float(np.abs(r_adj).max(initial=0.0)) / bscale
        relgap = gap / (1.0 + abs(pobj) + abs(dobj))

        quality = max(relgap, err_lmi, err_adj)

        def snapshot():
            return IpmResult("numerical_limit", y.copy(),
                             [M.copy() for M in X], [M.copy() for M in S],
                             pobj, dobj, it, mu, err_lmi, err_adj, err_eq)

        if best is None or quality < best_quality:
            best = snapshot()
            best_quality = quality

        if max(err_lmi, err_adj) <= tol and relgap <= tol:
            status = "optimal"
            if best.iterations != it:
                best = snapshot()
            break

        # Divergence-based certificates.  A verified improving feasible
        # direction proves unboundedness; probe for one when the objective
        # runs away or when everything except dual feasibility has converged.
        xnorm = max(float(np.abs(X[bi]).max(initial=0.0)) for bi in range(len(blocks)))
        probe_ray = (pobj > 1e5 * bscale and err_lmi <= 1e-6) or (
            relgap <= tol and err_lmi <= 10 * tol and err_adj > 1e3 * tol
        )
        if probe_ray:
            ray = _unboundedness_ray(prog, y, N)
            if ray is not None or pobj > 1e9 * bscale:
                status = "unbounded"
                best = snapshot()
                best.certificate = ray
                break
        if xnorm > 1e8 * x0:
            ray = _infeasibility_certificate(prog, X, N, y0)
            if ray is not None:
                status = "infeasible"
                best = snapshot()
                best.certificate = ray
                break

        # Nesterov-Todd scaling per block.  With X = L_x L_x', S = L_s L_s'
        # and the SVD L_s' L_x = U diag(lam) V', the factor r = L_x V
        # diag(lam)^{-1/2} satisfies r' S r = diag(lam) and
        # r^{-1} X r^{-T} = diag(lam): both cone variables are mapped to the
        # same diagonal point, which keeps the scaled Newton system well
        # behaved on degenerate instances.
        Ls, LX, rs, lams = [], [], [], []
        ok_scaling = True
        for bi in range(len(blocks)):
            Lsb = _chol(S[bi])
            if Lsb is None:
                S[bi] = _repair_psd(S[bi], mu)
                Lsb = _chol(S[bi])
            Lxb = _chol(X[bi])
            if Lxb is None:
                X[bi] = _repair_psd(X[bi], mu)
                Lxb = _chol(X[bi])
            if Lsb is None or Lxb is None:
                ok_scaling = False
                break
            Ls.append(Lsb)
            LX.append(Lxb)
            M = Lsb.T @ Lxb
            _, lam, Vt = np.linalg.svd(M)
            lam = np.maximum(lam, 1e-150)
            r = Lxb @ (Vt.T * lam ** -0.5)
            rs.append(r)
            lams.append(lam)
        if not ok_scaling:
            break

        # Reduced Schur complement H_t = J'J from the stacked svec rows.
        solve_reduced = _schur_solver(np.vstack([
            _gram_rows_scaled(pregram[bi], rs[bi])
            for bi in range(len(blocks))
        ]))  # (sum size(size+1)/2) x nt

        def directions(sigmu, corr):
            # Scaled-space central equation: lam o (Dx + Ds) = rhs with the
            # symmetrized product; the Lyapunov inverse divides entrywise by
            # the eigenvalue-pair means.
            gy = np.zeros(n)
            core = []
            for bi, blk in enumerate(blocks):
                lam = lams[bi]
                rhs = -np.diag(lam * lam)
                if sigmu > 0:
                    rhs = rhs + sigmu * np.eye(blocks[bi].size)
                if corr is not None:
                    Dxp, Dsp = corr[bi]
                    rhs = rhs - 0.5 * (Dxp @ Dsp + Dsp @ Dxp)
                pair_means = 0.5 * (lam[:, None] + lam[None, :])
                core_b = rhs / pair_means  # L_V^{-1}(rhs), symmetric
                core.append(core_b)
                r = rs[bi]
                term = r @ core_b @ r.T - r @ (
                    (r.T @ R_lmi[bi] @ r) @ r.T
                )
                gy += blk.adjoint(term)
            dt = solve_reduced(r_adj + N.T @ gy)
            dy = N @ dt
            dS, dX, Dxs, Dss = [], [], [], []
            for bi, blk in enumerate(blocks):
                r = rs[bi]
                dSb = blk.lmi_value(dy) - blk.const + R_lmi[bi]
                Dsb = r.T @ dSb @ r
                Dxb = core[bi] - Dsb
                dXb = r @ Dxb @ r.T
                dX.append(0.5 * (dXb + dXb.T))
                dS.append(dSb)
                Dxs.append(0.5 * (Dxb + Dxb.T))
                Dss.append(0.5 * (Dsb + Dsb.T))
            return dy, dS, dX, Dxs, Dss

        err_all = max(err_lmi, err_adj)
        infeasible_phase = err_all > 100.0 * max(relgap, tol)
        tau = 0.95 if infeasible_phase else 0.98
        try:
            # Predictor.
            dy, dS, dX, Dxs, Dss = directions(0.0, None)
            ap = min(1.0, *(tau * _max_step(Ls[bi], dS[bi])
                            for bi in range(len(blocks))))
            ad = min(1.0, *(tau * _max_step(LX[bi], dX[bi])
                            for bi in range(len(blocks))))
            gap_aff = sum(
                float(np.tensordot(X[bi] + ad * dX[bi], S[bi] + ap * dS[bi]))
                for bi in range(len(blocks))
            )
            sigma = min(1.0, max((gap_aff / gap) ** 3, 1e-8))
            if infeasible_phase:
                # Keep the barrier parameter from outrunning the residuals,
                # otherwise the iterates wedge at the cone boundary.
                sigma = max(sigma, 0.3)
            # Corrector.  A blocked predictor makes the second-order term
            # unreliable; recenter without it instead.
            if min(ap, ad) >= 0.15:
                corr = list(zip(Dxs, Dss))
            else:
                corr = None
                sigma = max(sigma, 0.5)
            dy, dS, dX, _, _ = directions(sigma * mu, corr)
            ap = min(1.0, *(tau * _max_step(Ls[bi], dS[bi])
                            for bi in range(len(blocks))))
            ad = min(1.0, *(tau * _max_step(LX[bi], dX[bi])
                            for bi in range(len(blocks))))
            if infeasible_phase:
                ap = ad = min(ap, ad)
        except sla.LinAlgError:
            break

        if ap < 1e-10 and ad < 1e-10:
            break
        if not all(np.isfinite(dX[bi]).all() and np.isfinite(dS[bi]).all()
                   for bi in range(len(blocks))):
            break
        # Wide-neighborhood guard: shrink the step until every block keeps
        # lambda_min(X S) above a fraction of the new barrier parameter;
        # letting one complementarity pair crash to the boundary wedges all
        # later iterations.
        gamma = 1e-3
        for _ in range(12):
            gap_new = sum(
                float(np.tensordot(X[bi] + ad * dX[bi], S[bi] + ap * dS[bi]))
                for bi in range(len(blocks))
            )
            mu_new = max(gap_new / ntot, 0.0)
            if mu_new <= 0 or mu_new > 10.0 * mu + 10.0:
                ap *= 0.7
                ad *= 0.7
                continue
            ok = True
            for bi in range(len(blocks)):
                Snew = S[bi] + ap * dS[bi]
                Lnew = _chol(Snew)
                if Lnew is None:
                    ok = False
                    break
                W = Lnew.T @ (X[bi] + ad * dX[bi]) @ Lnew
                if sla.eigvalsh(W, check_finite=False)[0] < gamma * mu_new:
                    ok = False
                    break
            if ok:
                break
            ap *= 0.7
            ad *= 0.7
        y = y + ap * dy
        for bi in range(len(blocks)):
            S[bi] = S[bi] + ap * dS[bi]
            X[bi] = X[bi] + ad * dX[bi]

    res = best
    res.status = status if status != "numerical_limit" else (
        "optimal"
        if max(res.err_lmi, res.err_adj) <= 10 * tol
        and res.mu / (1.0 + abs(res.pobj)) <= 10 * tol
        else "numerical_limit"
    )
    res.iterations = it
    res.dobj = _dual_objective(prog, res.X, res.y, res.pobj)
    return res


def _dual_objective(prog: ConeProgram, X: list, y: np.ndarray, pobj: float):
    """Dual bound sum_b <C_b, X_b> + d'w with w from least squares."""
    if not X:
        return pobj
    val = sum(float(np.tensordot(X[bi], blk.const))
              for bi, blk in enumerate(prog.blocks))
    if prog.A is not None and prog.A.shape[0] > 0:
        adj = prog.objective.copy()
        for bi, blk in enumerate(prog.blocks):
            adj += blk.adjoint(X[bi])
        w, *_ = np.linalg.lstsq(prog.A.T, adj, rcond=None)
        val += float(prog.d @ w)
    return val


def _solve_fixed(prog: ConeProgram, y0: np.ndarray, err_eq: float,
                 tol: float) -> IpmResult:
    """Degenerate case: the equalities pin every variable."""
    S = [blk.lmi_value(y0) for blk in prog.blocks]
    lam = min(
        float(sla.eigvalsh(M)[0]) if M.shape[0] > 1 else float(M[0, 0]) for M in S
    )
    pobj = float(prog.objective @ y0)
    X = [np.zeros((blk.size, blk.size)) for blk in prog.blocks]
    if lam < -1e-9:
        return IpmResult(
            "infeasible", y0, X, S, pobj, pobj, 0, 0.0, 0.0, 0.0, err_eq,
            certificate={"reason": "pinned variables violate the cone",
                         "violation": float(-lam)},
        )
    return IpmResult("optimal", y0, X, S, pobj, pobj, 0, 0.0, 0.0, 0.0, err_eq)


def _unboundedness_ray(prog: ConeProgram, y: np.ndarray,
                       N: np.ndarray) -> Optional[dict]:
    """Check the scaled iterate for an improving feasible direction."""
    norm = float(np.linalg.norm(y))
    if norm <= 0:
        return None
    yh = N @ (N.T @ (y / norm))  # project onto the equality nullspace
    gain = float(prog.objective @ yh)
    if gain < 1e-7:
        return None
    for blk in prog.blocks:
        M = blk.lmi_value(yh) - blk.const
        lam = sla.eigvalsh(0.5 * (M + M.T), check_finite=False)[0]
        if lam < -1e-9:
            return None
    return {"improving_direction": True, "gain": gain}


def _infeasibility_certificate(prog: ConeProgram, X: list, N: np.ndarray,
                               y0: np.ndarray) -> Optional[dict]:
    """Check a scaled X for a Farkas ray of the reduced LMI system.

    The ray must satisfy N' <E_k, X_b> = 0 approximately and make
    sum_b <C_b + E(y0), X_b> strictly negative after normalization.
    """
    scale = sum(float(np.trace(X[bi])) for bi in range(len(prog.blocks)))
    if scale <= 0:
        return None
    Xn = [M / scale for M in X]
    adj = np.zeros(prog.nvars)
    viol = 0.0
    for bi, blk in enumerate(prog.blocks):
        adj += blk.adjoint(Xn[bi])
        viol -= float(np.tensordot(Xn[bi], blk.lmi_value(y0)))
    if np.abs(N.T @ adj).max(initial=0.0) <= 1e-7 and viol >= 1e-7:
        return {"ray_trace": 1.0, "violation": float(viol)}
    return None
