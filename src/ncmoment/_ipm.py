"""Primal-dual interior-point solver for block-diagonal linear matrix
inequalities over free variables.

Solves, over y in R^n:

    maximize    b' y + offset
    subject to  S_b(y) = C_b + sum_k y_k E_k^(b)  PSD   for every block b.

There are no equalities: :mod:`ncmoment.conic` solves them first and hands
over the program on the free coordinates of their solution set, so every
coordinate is aligned with a moment variable.  The search direction is the
Nesterov-Todd direction with a Mehrotra predictor-corrector step.

One factorization per iterate.  The NT scaling of a point comes from a
Cholesky factor L of S and an eigendecomposition of L' X L (Todd, Toh &
Tutuncu, SIAM J. Optim. 8, 1998), the factors that the neighbourhood guard
needs to check a trial point; the accepted point's scaling is the next
iteration's.  A step that no shrink makes acceptable ends the solve with
``stop`` ``no_step``.

The embedding.  The program is solved in its homogeneous self-dual
embedding (Ye, Todd & Mizuno, Math. Oper. Res. 19, 1994; de Klerk, Roos &
Terlaky, Oper. Res. Lett. 20, 1997): with tau, kappa >= 0, each full step
shrinks tau C + A(y) - S, tau b + A*(X) and b'y - <C, X> - kappa by
eta = 1 - sigma, mu = (<X, S> + tau kappa) / (ntot + 1), one step length
serves all variables, and the neighbourhood guard also checks tau kappa.
The step is dy = p + dtau q with q = H^-1 (b - A*(WCW)), W = r r'; the
constant is one more column of J, whose products give A*(WCW) and <C, WCW>.
dtau solves the scalar gap equation.  Its pivot (b + A*(WCW))'q + <C, WCW>
+ kappa/tau cancels near degenerate optima, so it follows the Schur rank
rule: below (n + 1) eps times its largest term, dtau = 0.

Outcomes.  Results are reported divided by tau.  The loop records only why
it ended (``stop``), and the status follows from that alone.  ``converged``
once the relative residuals and gap are within ``TOL``: ``optimal``.  While
kappa > tau, ``farkas`` when X^ = X / (-<C, X>) has |A*(X^)|_inf <= ``TOL``
(a Farkas certificate; its margin <C, X> / tr_w X bounds
max { t : C + A(y) >= t I } from above): ``infeasible``; and ``ray`` when
b'y > 0 and lambda_min A(y) >= -``TOL`` b'y (an improving ray):
``unbounded``.  ``iteration_cap`` and ``no_step`` give ``numerical_limit``
at the iterate of least residual, whatever its residuals; whether that is a
bound is decided in :mod:`ncmoment.conic` alone.  With no free variable the
program is ``infeasible`` when a constant block is indefinite.

Row multiplicities.  A block may carry one multiplicity per row
(``BlockData.mult``): it then stands for a larger block that is
orthogonally similar to the direct sum of mult copies of each of its parts,
and it must vanish between rows of different multiplicity.  The solver
counts every copy: the adjoint and the Schur rows weight each row by its
multiplicity (the Schur rows by its square root), as do the duality gap, the
barrier size ``ntot`` and the dual objective.  Step lengths and the
neighbourhood guard read eigenvalues, which the copies only repeat, so they
need no weight.  A block without multiplicities gets multiplicity one on
every row, so every block takes the same weighted kernels; a weight of 1.0
leaves every product exact.

Size groups.  ``ConeProgram.finalize`` groups the blocks by size; X, S and
every per-iteration kernel work on one stacked (k, n, n) array per group:
one coordinate-form owner map gives S(y) and the adjoint (each one
``np.bincount``), and the NT scaling (which is the neighbourhood guard) and
the step lengths are stacked LAPACK calls.  An iteration's call count thus
grows with the number of distinct block sizes, not with the number of
blocks; 1x1 blocks (inequalities) are simply the size-1 group.  Step
lengths are read in the NT-scaled space, where both iterates sit at the
same diagonal point.

Schur complement.  With the NT factor r of each block, the Schur matrix is
H = J'J, where J stacks the rows svec(r' E_a r) of every block (upper
triangle, off-diagonal entries weighted by sqrt 2, so a block of size n
gives n(n+1)/2 rows).  Near degenerate optima the columns of J differ in
scale by many orders of magnitude, and that alone drives the condition
number of H to 1e23 and beyond.  So H is equilibrated first: with
d = sqrt(diag H), K = D^-1 H D^-1 (D = diag d) has a unit diagonal, and the
step is dy = D^-1 K^-1 D^-1 g (van der Sluis, Numer. Math. 14, 1969; Higham,
Accuracy and Stability of Numerical Algorithms, sec. 10.1).  The bounds of
interest sit at flat optima, where the moment matrices have low rank and K
itself turns singular.  So K is factored as V diag(lam) V' by a symmetric
eigendecomposition, and only the eigenvalues above the standard rank
tolerance len(lam) eps max(lam), the rule of ``numpy.linalg.matrix_rank``,
are inverted: a numerically null direction gets a zero step instead of
amplified roundoff, as in the modified Cholesky of S. J. Wright (SIAM J.
Optim. 9, 1999).  A zero column of J takes d = 1, so its zero eigenvalue is
dropped too.  The step is refined twice against J'J, with the residual read
on the kept space.  The module needs numpy alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# Iteration limit; a solve that reaches it ends with status numerical_limit.
MAX_ITER = 120
# Largest relative residual and relative gap of an optimal outcome.
TOL = 1e-8
# The status of each stop reason; iteration_cap and no_step give
# numerical_limit, which conic accepts or rejects by its residuals.
_STATUS = {"converged": "optimal", "farkas": "infeasible", "ray": "unbounded"}


@dataclass
class BlockData:
    """One PSD block: constant part plus sparse per-variable coefficients.

    ``vids, rows, cols, vals`` enumerate the full (both triangles) nonzero
    pattern of the coefficient matrices E_k restricted to this block.
    ``mult`` gives each row's multiplicity (None: every row counts once);
    the block must then vanish between rows of different multiplicity.
    """

    size: int
    const: np.ndarray
    vids: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    mult: Optional[np.ndarray] = None


@dataclass
class SizeGroup:
    """The blocks of one size, stacked into (k, size, size) arrays.

    ``members`` are their indices in ``ConeProgram.blocks``, ascending.  The
    owner map is kept as coordinate triples sorted by ``entry``, the flat
    index into the stack: variable ``vids[i]`` enters that entry with
    coefficient ``vals[i]``.  ``weight`` holds the row multiplicities (ones
    for a block without them); ``wvals`` are ``vals`` times the
    multiplicity of their row.
    """

    size: int
    members: np.ndarray
    const: np.ndarray  # (k, size, size)
    entry: np.ndarray
    vids: np.ndarray
    vals: np.ndarray
    nvars: int
    weight: np.ndarray  # (k, size)
    wvals: np.ndarray

    def linear(self, y: np.ndarray) -> np.ndarray:
        """The stack of sum_k y_k E_k^(b), without the constant part."""
        return np.bincount(self.entry, self.vals * y[self.vids],
                           self.const.size).reshape(self.const.shape)

    def lmi_value(self, y: np.ndarray) -> np.ndarray:
        return self.const + self.linear(y)

    def adjoint(self, M: np.ndarray) -> np.ndarray:
        """Vector of sum_b <E_k^(b), M_b>_w over k (M need not be symmetric)."""
        return np.bincount(self.vids, self.wvals * M.reshape(-1)[self.entry],
                           self.nvars)

    def inner(self, X: np.ndarray, S: np.ndarray) -> float:
        """sum_b <X_b, S_b>_w, each row weighted by its multiplicity.

        Exact when S vanishes between rows of different multiplicity, as the
        slack, the constant and every coefficient matrix do.
        """
        return float(np.vdot(X * self.weight[:, :, None], S))


def _size_group(blocks: list, members: list, nvars: int) -> SizeGroup:
    n = blocks[members[0]].size
    part = [blocks[bi] for bi in members]
    entry = np.concatenate([j * n * n + blk.rows * n + blk.cols
                            for j, blk in enumerate(part)])
    order = np.argsort(entry, kind="stable")
    entry = entry[order]
    vids = np.concatenate([blk.vids for blk in part])[order]
    vals = np.concatenate([blk.vals for blk in part])[order]
    const = np.stack([blk.const for blk in part]).astype(float)
    weight = np.stack([np.ones(n) if blk.mult is None else blk.mult
                       for blk in part]).astype(float)
    return SizeGroup(n, np.array(members), const, entry, vids, vals, nvars,
                     weight, vals * weight.reshape(-1)[entry // n])


@dataclass
class ConeProgram:
    nvars: int
    objective: np.ndarray  # maximized
    blocks: list
    offset: float = 0.0  # constant part of the objective
    groups: list = field(init=False, default_factory=list)  # SizeGroups

    def finalize(self):
        members = {}
        for bi, blk in enumerate(self.blocks):
            members.setdefault(blk.size, []).append(bi)
        self.groups = [_size_group(self.blocks, members[size], self.nvars)
                       for size in sorted(members)]
        return self

    def unstack(self, stacks: list) -> list:
        """One stack per size group -> copies of the blocks, in block order."""
        out = [None] * len(self.blocks)
        for g, st in zip(self.groups, stacks):
            for j, bi in enumerate(g.members):
                out[bi] = st[j].copy()
        return out


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
    certificate: Optional[dict] = None
    schur_rank_deficient: int = 0  # Schur solves that dropped a direction
    adjoint: Optional[np.ndarray] = None  # objective plus adjoints at X
    stop: str = "converged"  # or farkas, ray, iteration_cap, no_step
    lmi_norm: float = 0.0  # largest |eigenvalue| of C + A(y) - S


def _T(M: np.ndarray) -> np.ndarray:
    return np.swapaxes(M, -1, -2)


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + _T(M))


def _nt_scaling(X: np.ndarray, S: np.ndarray):
    """Nesterov-Todd factors r, scaled points lam and lambda_min(X S) of a stack.

    With S = L L' and L' X L = Q diag(lam^2) Q', the factor
    r = L^-T Q diag(lam)^{1/2} satisfies r' S r = diag(lam) = r^-1 X r^-T:
    both cone variables are mapped to the same diagonal point, which keeps
    the scaled Newton system well behaved on degenerate instances.  The
    third output is the least lam^2 over the stack; below zero X is not PD,
    and r is no scaling.  Raises LinAlgError when S is not PD.
    """
    L = np.linalg.cholesky(S)
    lam2, Q = np.linalg.eigh(_T(L) @ X @ L)
    lam = np.sqrt(np.maximum(lam2, 0.0))
    r = np.linalg.solve(_T(L), Q * np.sqrt(lam)[:, None, :])
    return r, lam, float(lam2[:, 0].min())


def _max_step(lam: np.ndarray, D: np.ndarray) -> float:
    """Largest alpha with diag(lam_b) + alpha*D_b PSD for every block b.

    In the NT-scaled space both cone variables sit at diag(lam), and
    S + alpha dS (or X + alpha dX) is PSD exactly when diag(lam) + alpha D
    is, with D = r' dS r (or r^{-1} dX r^{-T}); D must be symmetric.
    """
    s = lam ** -0.5
    low = np.linalg.eigvalsh(D * s[:, :, None] * s[:, None, :])[:, 0].min()
    if low >= -1e-14:
        return np.inf
    return -1.0 / low


def _coefficients(group: SizeGroup) -> np.ndarray:
    """Dense stack G with G[b, :, :, a] = E_a^(b) for the group.

    Constant over the iteration; the scaled Gram rows are then plain
    congruences r_b' G[b, :, :, a] r_b.  A row of multiplicity m is scaled
    by sqrt m, so the Gram matrix counts every copy of the row.
    """
    n, k, nv = group.size, len(group.members), group.nvars
    vals = group.vals * np.sqrt(group.weight.reshape(-1)[group.entry // n])
    return np.bincount(group.entry * nv + group.vids, vals,
                       k * n * n * nv).reshape(k, n, n, nv)


def _gram_rows_scaled(G: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Rows svec(r_b' G_ba r_b) for every block b and variable a.

    Returns (k * size(size+1)/2 x nvars).  svec keeps the upper triangle and
    weights off-diagonal entries by sqrt 2, so the Gram matrix of these rows
    equals that of the full vec rows; only the upper triangle is formed.
    """
    k, n, _, nv = G.shape
    tmp = (_T(r) @ G.reshape(k, n, n * nv)).reshape(k, n, n, nv)  # r' G
    rows = np.concatenate(
        [_T(r[:, :, i:]) @ tmp[:, i] for i in range(n)], axis=1
    )  # (k, size(size+1)/2, nv): entries (i, j >= i) in row-major order
    rows[:, _off_diagonal(n)] *= np.sqrt(2.0)
    return rows.reshape(-1, nv)


@functools.cache
def _off_diagonal(n: int) -> np.ndarray:
    """Mask of the off-diagonal entries among the upper triangle of a size-n
    block, in row-major order."""
    iu, ju = np.triu_indices(n)
    return iu != ju


def _schur_solver(J: np.ndarray):
    """Solver for H dt = g with H = J'J, refined twice against J'J, and the
    number of directions it drops (see Schur complement above).

    With d = sqrt(diag H) (1 for a zero column) and lam, V the eigenpairs of
    K = H / (d d'), dt = V diag(1/lam) V'(g/d) / d over the eigenvalues above
    len(lam) eps max(lam).
    """
    H = J.T @ J
    d = np.sqrt(np.diag(H))
    d[d == 0.0] = 1.0
    lam, V = np.linalg.eigh(H / np.outer(d, d))
    keep = lam > len(lam) * np.finfo(float).eps * lam.max()
    V, w = V[:, keep], 1.0 / lam[keep]
    dropped = len(lam) - V.shape[1]

    def base(g):
        return V @ (w * (V.T @ (g / d))) / d

    def live(res):
        return d * (V @ (V.T @ (res / d))) if dropped else res

    def solve(g):
        dt = base(g)
        for _ in range(2):
            res = live(g - J.T @ (J @ dt))
            if np.abs(res).max(initial=0.0) <= 1e-13 * (
                1.0 + np.abs(g).max(initial=0.0)
            ):
                break
            dt += base(res)
        return dt

    return solve, dropped


def solve_ipm(prog: ConeProgram) -> IpmResult:
    """Solve a finalized program in its self-dual embedding; every kernel
    runs once per size group."""
    n = prog.nvars
    b = prog.objective
    groups = prog.groups
    # rows of all blocks, each counted with its multiplicity
    ntot = sum(g.weight.sum() for g in groups)

    bscale = 1.0 + float(np.abs(b).max(initial=0.0))
    cscale = 1.0 + max(float(np.abs(g.const).max(initial=0.0)) for g in groups)

    if n == 0:
        return _solve_fixed(prog)

    # The coefficient stacks with the constant, row-weighted alike, as one
    # more column: its Gram rows give A*(WCW) and <C, WCW>.
    pregram = [np.concatenate([_coefficients(g),
                               (g.const * np.sqrt(g.weight)[:, :, None])[..., None]],
                              axis=-1) for g in groups]

    # Starting point: y = 0, scaled identity cone pair, tau = 1 and kappa at
    # the blocks' mean complementarity.  X and S hold one (k, size, size)
    # stack per size group.
    y = np.zeros(n)
    s0 = max(10.0, cscale, bscale)
    x0 = max(10.0, bscale)
    X = [x0 * np.tile(np.eye(g.size), (len(g.members), 1, 1)) for g in groups]
    S = [g.const + np.maximum(s0, s0 - 1.5 * np.linalg.eigvalsh(g.const)[:, 0])
         [:, None, None] * np.eye(g.size) for g in groups]
    tau = 1.0
    kappa = sum(g.inner(Xg, Sg) for g, Xg, Sg in zip(groups, X, S)) / ntot
    # Nesterov-Todd scaling per group (see _nt_scaling); later the
    # neighbourhood guard's factors of each accepted point.
    rs, lams, _ = zip(*map(_nt_scaling, X, S))

    best, best_quality = None, np.inf
    stop, certificate = "iteration_cap", None
    schur_rank_deficient = 0
    it = 0
    for it in range(1, MAX_ITER + 1):
        R_lmi = [tau * g.const + g.linear(y) - S[gi] for gi, g in enumerate(groups)]
        adj = sum(g.adjoint(X[gi]) for gi, g in enumerate(groups))
        r_adj = tau * b + adj
        cx = sum(g.inner(Xg, g.const) for g, Xg in zip(groups, X))
        by = float(b @ y)
        r_gap = by - cx - kappa
        xs = sum(g.inner(Xg, Sg) for g, Xg, Sg in zip(groups, X, S))
        mu = (xs + tau * kappa) / (ntot + 1)

        # The point divided by tau.
        gap = xs / tau**2
        pobj = by / tau + prog.offset
        dobj = pobj + gap  # exact at feasibility; used for gap control
        err_lmi = max(float(np.abs(R).max(initial=0.0)) for R in R_lmi) / tau / cscale
        err_adj = float(np.abs(r_adj).max(initial=0.0)) / tau / bscale
        relgap = gap / (1.0 + abs(pobj) + abs(dobj))
        quality = max(relgap, err_lmi, err_adj)

        def snapshot():
            # Stacks divided by tau; unstacked into blocks once, on return.
            return IpmResult("numerical_limit", y / tau, [Xg / tau for Xg in X],
                             [Sg / tau for Sg in S], pobj, dobj, it, gap / ntot,
                             err_lmi, err_adj)

        if best is None or quality < best_quality:
            best = snapshot()
            best_quality = quality

        if max(err_lmi, err_adj) <= TOL and relgap <= TOL:
            stop = "converged"
            break

        if kappa > tau:
            # X / (-<C, X>) with A*(X) = 0 is a Farkas certificate; y with
            # b'y > 0 and A(y) PSD is an improving ray.
            if cx < 0 and np.abs(adj).max(initial=0.0) <= TOL * -cx:
                trace = sum(float((np.diagonal(Xg, 0, 1, 2) * g.weight).sum())
                            for g, Xg in zip(groups, X))
                stop = "farkas"
                certificate = {"reason": "Farkas certificate", "margin": cx / trace,
                               "residual": float(np.abs(adj).max()) / -cx}
            elif by > 0:
                low = min(float(np.linalg.eigvalsh(g.linear(y))[:, 0].min())
                          for g in groups)
                if low >= -TOL * by:
                    stop = "ray"
                    certificate = {"reason": "improving ray: the returned y",
                                   "residual": max(-low, 0.0) / by}
            if certificate is not None:
                best = snapshot()
                best.certificate = certificate
                break

        Rs = [_T(r) @ R @ r for r, R in zip(rs, R_lmi)]  # scaled lmi residuals

        def directions(sigma, corr):
            # Scaled-space central equation: lam o (Dx + Ds) = rhs with the
            # symmetrized product; the Lyapunov inverse divides entrywise by
            # the eigenvalue-pair means.  Residuals shrink by eta = 1 - sigma.
            eta = 1.0 - sigma
            gy = eta * r_adj
            cm = 0.0
            core = []
            for gi, g in enumerate(groups):
                lam, r = lams[gi], rs[gi]
                diag = np.arange(g.size)
                rhs = np.zeros_like(r)
                rhs[:, diag, diag] = sigma * mu - lam * lam
                if corr is not None:
                    Dxp, Dsp = corr[0][gi]
                    rhs -= 0.5 * (Dxp @ Dsp + Dsp @ Dxp)
                core_g = rhs / (0.5 * (lam[:, :, None] + lam[:, None, :]))
                core.append(core_g)  # L_V^{-1}(rhs), symmetric
                M = r @ (core_g - eta * Rs[gi]) @ _T(r)
                gy += g.adjoint(M)
                cm += g.inner(M, g.const)
            p = solve_schur(gy)
            rt = sigma * mu - tau * kappa - (0.0 if corr is None else corr[1])
            dtau = 0.0
            if tau_pivot > 0:
                dtau = (cm + rt / tau - eta * r_gap - bu @ p) / tau_pivot
            dy = p + dtau * q
            dkappa = (rt - kappa * dtau) / tau
            dS, dX, Dxs, Dss = [], [], [], []
            for gi, g in enumerate(groups):
                r = rs[gi]
                dSg = dtau * g.const + g.linear(dy) + eta * R_lmi[gi]
                Dsg = _T(r) @ dSg @ r
                Dxg = _sym(core[gi] - Dsg)
                dX.append(r @ Dxg @ _T(r))
                dS.append(dSg)
                Dxs.append(Dxg)
                Dss.append(_sym(Dsg))
            return dy, dtau, dkappa, dS, dX, Dxs, Dss

        def step(dtau, dkappa, Dxs, Dss):
            # One step length for all; the cone bounds are read in the scaled
            # space, where both iterates are diag(lam): one stacked call per
            # group for both directions.
            return min(1.0, 0.98 * min(
                [_max_step(np.concatenate([lam, lam]), np.concatenate([Dx, Ds]))
                 for lam, Dx, Ds in zip(lams, Dxs, Dss)]
                + [-v / dv for v, dv in ((tau, dtau), (kappa, dkappa)) if dv < 0]))

        try:
            # Schur complement H = J'J from the stacked svec rows; the
            # constant is their last column, which gives A*(WCW) and <C, WCW>.
            Jc = np.vstack([_gram_rows_scaled(pregram[gi], rs[gi])
                            for gi in range(len(groups))])
            J, jc = Jc[:, :n], Jc[:, n]
            solve_schur, dropped = _schur_solver(J)
            schur_rank_deficient += dropped > 0
            # The tau row (see The embedding): q = H^-1 (b - u), u = A*(WCW).
            u = J.T @ jc
            q, bu = solve_schur(b - u), b + u
            terms = (bu @ q, jc @ jc, kappa / tau)
            tau_pivot = sum(terms)
            if tau_pivot <= (n + 1) * np.finfo(float).eps * max(map(abs, terms)):
                tau_pivot = 0.0  # numerically null: dtau = 0
            # Predictor.
            dy, dtau, dkappa, dS, dX, Dxs, Dss = directions(0.0, None)
            a = step(dtau, dkappa, Dxs, Dss)
            gap_aff = (sum(g.inner(X[gi] + a * dX[gi], S[gi] + a * dS[gi])
                           for gi, g in enumerate(groups))
                       + (tau + a * dtau) * (kappa + a * dkappa))
            sigma = min(1.0, max((gap_aff / (xs + tau * kappa)) ** 3, 1e-8))
            # Corrector.  A blocked predictor makes the second-order term
            # unreliable; recenter without it instead.
            if a >= 0.15:
                corr = (list(zip(Dxs, Dss)), dtau * dkappa)
            else:
                corr = None
                sigma = max(sigma, 0.5)
            dy, dtau, dkappa, dS, dX, Dxs, Dss = directions(sigma, corr)
            a = step(dtau, dkappa, Dxs, Dss)
        except np.linalg.LinAlgError:
            stop = "no_step"
            break

        if a < 1e-10 or not all(np.isfinite(dXg).all() and np.isfinite(dSg).all()
                                for dXg, dSg in zip(dX, dS)):
            stop = "no_step"
            break
        # Wide-neighborhood guard: shrink the step until every block keeps
        # lambda_min(X S), and tau kappa, above a fraction of the new barrier
        # parameter; letting one complementarity pair crash to the boundary
        # wedges all later iterations.  The scaling of the accepted point
        # is the next iteration's.
        gamma = 1e-3
        for _ in range(12):
            Xn = [Xg + a * dXg for Xg, dXg in zip(X, dX)]
            Sn = [Sg + a * dSg for Sg, dSg in zip(S, dS)]
            tk = (tau + a * dtau) * (kappa + a * dkappa)
            gap_new = tk + sum(g.inner(Xg, Sg) for g, Xg, Sg in zip(groups, Xn, Sn))
            mu_new = gap_new / (ntot + 1)
            if 0 < mu_new <= 10.0 * mu + 10.0 and tk >= gamma * mu_new:
                try:
                    scaled = list(map(_nt_scaling, Xn, Sn))
                except np.linalg.LinAlgError:  # S left the cone
                    scaled = None
                if scaled and min(low for _, _, low in scaled) >= gamma * mu_new:
                    break
            a *= 0.7
        else:
            stop = "no_step"
            break
        y, tau, kappa = y + a * dy, tau + a * dtau, kappa + a * dkappa
        X, S = Xn, Sn
        rs, lams, _ = zip(*scaled)

    res = best
    res.status, res.iterations, res.stop = _STATUS.get(stop, "numerical_limit"), it, stop
    res.schur_rank_deficient = schur_rank_deficient
    res.lmi_norm = max(float(np.abs(np.linalg.eigvalsh(g.lmi_value(res.y) - Sg)).max())
                       for g, Sg in zip(groups, res.S))
    res.dobj, res.adjoint = _dual_side(prog, res.X)
    res.X, res.S = prog.unstack(res.X), prog.unstack(res.S)
    return res


def _dual_side(prog: ConeProgram, X: list):
    """Dual objective sum_b <C_b, X_b> + offset and adjoint residual
    b + sum_b E_b*(X_b), for X given as one stack per size group."""
    dobj = prog.offset + sum(g.inner(Xg, g.const) for g, Xg in zip(prog.groups, X))
    return dobj, prog.objective + sum(g.adjoint(Xg) for g, Xg in zip(prog.groups, X))


def _solve_fixed(prog: ConeProgram) -> IpmResult:
    """Degenerate case: no variables, so every block is its constant.  The
    margin is their smallest eigenvalue, the margin program's value here."""
    S = [g.const for g in prog.groups]
    lam = min(float(np.linalg.eigvalsh(M)[:, 0].min()) for M in S)
    pobj = prog.offset
    X = [np.zeros((blk.size, blk.size)) for blk in prog.blocks]
    S = prog.unstack(S)
    y = np.zeros(0)
    if lam < -1e-9:
        return IpmResult(
            "infeasible", y, X, S, pobj, pobj, 0, 0.0, 0.0, 0.0,
            certificate={"reason": "pinned variables violate the cone",
                         "margin": lam}, adjoint=y, stop="farkas",
        )
    return IpmResult("optimal", y, X, S, pobj, pobj, 0, 0.0, 0.0, 0.0, adjoint=y)
