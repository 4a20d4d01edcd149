"""Concrete SDP solving, post-solve numerics, and SDPA sparse file exchange.

Every solve runs the interior-point method in :mod:`ncmoment._ipm`; SDPA
files are exchange I/O only.  Inequalities are implemented as 1x1 PSD blocks
so the core solver only sees a single cone type.

Acceptance.  This module alone decides which solver outcome is a bound.
``optimal`` is accepted.  ``numerical_limit`` is accepted only when the
largest of its lmi, adjoint, equality and gap residuals is at most
``ACCEPT_TOL``; otherwise the solve raises SolverError.  One solve gives
every verdict: the interior point's self-dual embedding returns
``infeasible`` with a Farkas certificate, whose ``margin`` is an upper
bound on the margin program's value (-inf for inconsistent equalities), and
``unbounded`` with an improving ray (see :mod:`ncmoment._ipm`).
:func:`feasibility` still solves the margin program, since the graph
searches report its value, and reads the margin attained at the returned
point; ``unbounded`` is its verdict (True, inf).  Post-solve utilities
compute numerical ranks of nested principal submatrices of the realized
moment matrix and the flatness verdicts used for finite-convergence
certificates.

Symmetry.  A builder may attach symbol maps (``SdpProblem.symmetries``).
Before the solve each one is turned into a variable permutation and checked,
else SymmetryError.  The map permutes the rows of every block (rho, by
mapping and reducing the row words); sigma is read off the one-term entries,
the variable at (i, j) going to the one at (rho i, rho j).  Then every
block's entry form at (rho i, rho j) must be sigma applied to its form at
(i, j), compared in one vectorized pass per block, and sigma must map the
constraint set and the objective onto themselves.  The
variables of one orbit of the group these permutations generate are merged
into one, so the solver sees one variable per orbit and y = z[label]; a
problem without symmetries has singleton orbits.  Because the program is
invariant, the group average of any feasible point is feasible with the
same objective, so the optimum over the merged (fixed) subspace is the full
optimum.  The dual side carries over too: averaging a dual solution of the
merged program over the group, and spreading each equality multiplier over
the orbit of its row, gives a dual solution of the full program with the
same dual objective.  So the dual objective and the certificates of the
merged program hold for the full one, and its residuals are those of the
averaged point, summed over each orbit.  The orbit images of an inequality
become one 1x1 block whose multiplicity counts its distinct rows.
Correctness rests on the checks alone; a missed symmetry costs only speed.

The lift.  The merged equality rows are solved once, by sparse substitution
(``_substitution``): y = y0 + B z over the merged variables, one column of
B per free variable, scaled to the sum over its orbit so that the solver's
residuals are those of one orbit member.  Every block, its constant
(C + E(y0)), the inequalities and the objective (B'c, with the constant
c'y0 as the program's offset) are mapped through it, and the solver gets a
program without equalities whose coordinates are moment variables.  A
dependent row that does not hold raises InconsistentEqualities, reported as
an infeasible status with its row and residual.  The reported dual
objective is sum_b <C_b, X_b> + d'w, w the least-squares multiplier of the
rows for the adjoint at X.  That is the solver's dual objective taken at
the minimum-norm solution y0 - B u, u = argmin |y0 - B u| (``Lift.shift``),
so it is the solver's value less u' times its adjoint residual in z.

Symmetry-adapted blocks.  When merging reduced the variable count, each
PSD block of size >= 2 is then replaced, where possible, by a smaller one
(Murota, Kanno, Kojima & Kojima, Japan J. Indust. Appl. Math. 27, 2010).
The merged coefficient matrices E_v (the constant and a margin program's -I
included) span a *-algebra that one orthogonal P block-diagonalizes:
P' E_v P = diag(I_d1 (x) M_1(E_v), I_d2 (x) M_2(E_v), ...).  P is found
numerically: eigenvectors of a random element A = sum a_v E_v, clustered at
relative gaps of CLUSTER_GAP, are joined into parts by the nonzero pattern of
Q' B Q for a second random element B; in a part whose clusters all have
dimension d > 1, the basis of one cluster is carried to the others through
projections of B, giving d copies of one basis.  Nothing is trusted: P must
be orthonormal and every E_v must satisfy E_v P_i^(k) = P_i^(k) M_i(E_v),
one M_i for all copies k, to SPLIT_TOL times the coefficient scale, checked
on dense chunks of the coefficient lists; otherwise the block stays as it
is.  The new block is diag(M_1, M_2, ...), one copy of each part, and its
rows of part i carry the multiplicity d_i.  The solver weights every inner
product by these multiplicities (see :mod:`ncmoment._ipm`), which makes the
reduced program the unreduced one restricted to the algebra: its
eigenvalues are those of the block without their repeats, and every inner
product counts each copy.  The central path of the unreduced program lies in
the algebra, so the solver takes the same iterates, up to roundoff, in the
same number of iterations, on blocks about half as wide (de Klerk, Pasechnik
& Schrijver, Math. Program. 109, 2007, for the value).  y, the moment
matrix and flatness are read from the problem, not from the split blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Optional, Tuple

import numpy as np

from ._ipm import BlockData, ConeProgram, solve_ipm
from .momentize import CompiledBlock, LinearConstraint, Relation, SdpProblem, _combine
from .ncwords import reduce_word

DEFAULT_EPS_FEAS = 1e-6
DEFAULT_TAU_RANK = 1e-6
# Largest residual of a numerical_limit outcome that still counts as a bound.
ACCEPT_TOL = 1e-5
# Symmetry-adapted blocks: seed of the random algebra elements, relative
# eigenvalue gap between clusters, verification tolerance relative to the
# coefficient scale, and the doubles per chunk of the verification.
SPLIT_SEED = 2010
CLUSTER_GAP = 1e-8
SPLIT_TOL = 1e-9
SPLIT_CHUNK = 1 << 19
# Equality lift: a substituted coefficient below LIFT_TOL times the larger of
# the two terms that make it has cancelled and is dropped.
LIFT_TOL = 1e-11


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NUMERICAL_LIMIT = "numerical_limit"


class SolverError(RuntimeError):
    pass


@dataclass
class SdpSolution:
    status: SolveStatus
    objective: float
    y: np.ndarray  # moment variable values L(w)
    moment_matrix: Optional[np.ndarray]
    moment_degrees: Optional[np.ndarray]
    iterations: int = 0
    stop: Optional[str] = None  # why the interior point stopped (IpmResult.stop)
    schur_rank_deficient: int = 0  # Schur solves that dropped a direction
    num_orbits: int = 0  # variables the solver saw: one per variable orbit
    # The solver's block for each of the problem's blocks: its size and its
    # rows by multiplicity, {multiplicity: rows} (see the Symmetry notes).
    solver_blocks: list = field(default_factory=list)
    residuals: dict = field(default_factory=dict)
    certificate: Optional[dict] = None
    problem: Optional[SdpProblem] = None


@dataclass
class FlatnessReport:
    r: int
    ranks: list  # rank(M_s(L)) for s = 0..r
    tau_rank: float
    flat_deltas: list  # all delta >= 1 with rank(M_{r-delta}) == rank(M_r)
    entdim_delta: int
    entdim_flat: bool

    @property
    def flat(self) -> bool:
        return bool(self.flat_deltas)

    def summary(self) -> dict:
        return {
            "r": self.r,
            "ranks": self.ranks,
            "tau_rank": self.tau_rank,
            "flat_deltas": self.flat_deltas,
            "entdim_delta": self.entdim_delta,
            "entdim_flat": self.entdim_flat,
        }


def _full_entries(block: CompiledBlock):
    """Expand upper-triangle occurrence arrays to both triangles."""
    off = block.rows != block.cols
    vids = np.concatenate([block.var_ids, block.var_ids[off]])
    rows = np.concatenate([block.rows, block.cols[off]])
    cols = np.concatenate([block.cols, block.rows[off]])
    vals = np.concatenate([block.coefs, block.coefs[off]])
    return vids, rows, cols, vals


class SymmetryError(SolverError):
    """A declared symmetry does not map the program onto itself."""


class InconsistentEqualities(RuntimeError):
    def __init__(self, row: int, residual: float):
        self.row = row
        self.residual = residual
        super().__init__(
            f"equality system is inconsistent (row {row}, residual {residual:.3e})"
        )


def _merged(terms: dict, label: list) -> dict:
    """A linear form over moment variables, rewritten over their orbits."""
    out: dict = {}
    for vid, coef in terms.items():
        _combine(out, label[vid], coef)
    return out


def _key_rows(V: np.ndarray, C: np.ndarray, eq: np.ndarray,
              rhs: np.ndarray) -> np.ndarray:
    """One byte key per constraint of equal term count, equal exactly when
    the ``LinearConstraint.key``s are: terms sorted by variable, and an
    equality scaled so that its first coefficient is positive.

    V and C hold the variables and (rounded) coefficients, one row per
    constraint.
    """
    idx = np.argsort(V, axis=1)
    V, C = np.take_along_axis(V, idx, 1), np.take_along_axis(C, idx, 1)
    sgn = np.where(eq & (C[:, :1] < 0).any(axis=1), -1.0, 1.0)
    rows = np.column_stack([eq, sgn * rhs, V, sgn[:, None] * C]) + 0.0  # no -0.0
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


class _ConstraintKeys:
    """The constraint set keyed once per problem, for images under sigma.

    Constraints are grouped by term count; each group keeps its variables,
    coefficients and the sorted keys of its members.
    """

    def __init__(self, constraints: list):
        by_len: dict = {}
        for con in constraints:
            by_len.setdefault(len(con.terms), []).append(con)
        self.groups = []
        for size, cons in by_len.items():
            shape = (len(cons), size)
            V = np.fromiter(chain.from_iterable(c.terms for c in cons), np.int64,
                            len(cons) * size)
            C = np.fromiter(chain.from_iterable(c.terms.values() for c in cons),
                            float, len(cons) * size)
            data = (V.reshape(shape), np.round(C, 12).reshape(shape),
                    np.array([c.relation == Relation.EQ for c in cons]),
                    np.round(np.array([c.rhs for c in cons], dtype=float), 12))
            self.groups.append((cons, data, np.sort(_key_rows(*data))))

    def outside(self, sigma: np.ndarray) -> Optional[LinearConstraint]:
        """A constraint whose image under sigma is no constraint, or None."""
        for cons, (V, C, eq, rhs), keys in self.groups:
            img = _key_rows(sigma[V], C, eq, rhs)
            pos = np.minimum(np.searchsorted(keys, img), len(keys) - 1)
            miss = np.flatnonzero(keys[pos] != img)
            if miss.size:
                return cons[miss[0]]
        return None


def _variable_permutation(problem: SdpProblem, perm: dict,
                          keys: _ConstraintKeys) -> np.ndarray:
    """Variable permutation sigma induced by the symbol map ``perm``.

    Each block's row words are mapped and reduced, giving a row permutation
    rho; sigma sends the variable of each one-term entry (i, j) to the one at
    (rho i, rho j) and holds every other variable fixed.  Raises
    SymmetryError unless sigma is a bijection, every block's entry form at
    (rho i, rho j) is sigma applied to its form at (i, j), and sigma maps the
    constraint set (``keys``) and the objective onto themselves.
    Coefficients are compared rounded to 12 digits.
    """
    n = problem.num_vars
    if problem.index is None:
        raise SymmetryError("symmetries need the problem's word index")
    rw = problem.index.rw
    sigma = np.full(n, -1, dtype=np.int64)
    forms = []
    for blk in problem.blocks:
        s = blk.size
        where = {w: i for i, w in enumerate(blk.row_words)}
        rho = np.array([
            where.get(reduce_word(tuple(perm.get(a, a) for a in w), rw), -1)
            for w in blk.row_words
        ], dtype=np.int64)
        if (rho < 0).any() or len(set(rho.tolist())) != s:
            raise SymmetryError(f"{blk.label}: row words do not map onto themselves")
        # Entries by position, each form by variable: the k-th term at
        # (i, j) is matched with the k-th term at (rho i, rho j).
        pos = blk.rows * s + blk.cols
        o = np.argsort(pos * n + blk.var_ids, kind="stable")
        pos, var, coef = pos[o], blk.var_ids[o], np.round(blk.coefs[o], 12)
        ri, rj = rho[blk.rows[o]], rho[blk.cols[o]]
        img = np.minimum(ri, rj) * s + np.maximum(ri, rj)
        terms = np.bincount(pos, minlength=s * s)
        if not np.array_equal(terms[img], terms[pos]):
            raise SymmetryError(f"{blk.label}: entry forms do not map onto themselves")
        start = np.cumsum(terms) - terms
        match = start[img] + np.arange(pos.size) - start[pos]
        one = terms[pos] == 1
        sigma[var[one]] = var[match[one]]
        forms.append((blk.label, pos, var, coef, match))
    sigma = np.where(sigma < 0, np.arange(n), sigma)  # fixed, then checked
    if not np.array_equal(np.sort(sigma), np.arange(n)):
        raise SymmetryError("the induced variable map is not a bijection")
    for label, pos, var, coef, match in forms:
        o = np.argsort(pos * n + sigma[var], kind="stable")
        if not (np.array_equal(sigma[var[o]], var[match])
                and np.array_equal(coef[o], coef[match])):
            raise SymmetryError(f"{label}: entry forms do not map onto themselves")
    con = keys.outside(sigma)
    if con is not None:
        raise SymmetryError(f"constraint {con.terms} maps outside the constraint set")
    objective = {v: round(c, 12) for v, c in problem.objective.items()}
    if {int(sigma[v]): c for v, c in objective.items()} != objective:
        raise SymmetryError("the objective changes")
    return sigma


def _orbit_labels(problem: SdpProblem) -> np.ndarray:
    """Orbit label of every variable under the group of ``problem.symmetries``.

    Labels are 0..m-1, numbered by each orbit's least variable; without
    symmetries every variable is its own orbit.
    """
    if not problem.symmetries:
        return np.arange(problem.num_vars)
    keys = _ConstraintKeys(problem.constraints)
    maps = []
    for perm in problem.symmetries:
        sigma = _variable_permutation(problem, perm, keys)
        maps += [sigma, np.argsort(sigma)]
    return np.unique(_least_labels(np.array(maps)), return_inverse=True)[1]


def _least_labels(nbr: np.ndarray) -> np.ndarray:
    """Least node of each node's component.  Column i of ``nbr`` lists
    neighbours of node i, and every link is listed both ways."""
    lab = np.arange(nbr.shape[1])
    while True:  # least label over the neighbours, then pointer jumps
        new = np.minimum(lab[nbr].min(axis=0), lab)
        new = new[new]
        if np.array_equal(new, lab):
            return lab
        lab = new


def _spanning_tree(W: np.ndarray) -> list:
    """(node, parent) pairs of a maximum-weight spanning tree rooted at 0,
    each node listed after its parent (Prim)."""
    inside = np.zeros(len(W), dtype=bool)
    inside[0] = True
    best, parent, out = W[0].copy(), np.zeros(len(W), dtype=np.int64), []
    for _ in range(len(W) - 1):
        j = int(np.where(inside, -1.0, best).argmax())
        out.append((j, int(parent[j])))
        inside[j] = True
        closer = W[j] > best
        best[closer], parent[closer] = W[j][closer], j
    return out


def _split_basis(n: int, coeffs: tuple, nvars: int) -> Optional[list]:
    """Candidate symmetry-adapted basis of a block, or None if it has none.

    ``coeffs`` = (vids, rows, cols, vals) lists every coefficient matrix E_v,
    v < nvars, of the block (the constant as v = nvars - 1).  Returns one
    array (d, n, n_i) per component: d orthonormal copies of an n_i-column
    basis, which ``_split_block`` verifies.
    """
    vids, rows, cols, vals = coeffs
    A, B = (np.bincount(rows * n + cols, c[vids] * vals, n * n).reshape(n, n)
            for c in np.random.default_rng(SPLIT_SEED).standard_normal((2, nvars)))
    lam, Q = np.linalg.eigh(A)
    cut = np.flatnonzero(np.diff(lam) > CLUSTER_GAP * np.abs(lam).max()) + 1
    if len(cut) == n - 1:
        return None  # a simple spectrum: no part repeats
    starts, ends = np.r_[0, cut], np.r_[cut, n]
    coupling = np.abs(Q.T @ B @ Q)
    W = np.maximum.reduceat(np.maximum.reduceat(coupling, starts, axis=0),
                            starts, axis=1)
    idx = np.arange(len(W))  # clusters joined where they couple
    comp = _least_labels(np.where(W > SPLIT_TOL * coupling.max(), idx[:, None], idx))
    parts = []
    for root in np.flatnonzero(comp == idx):
        cl = np.flatnonzero(comp == root)
        span = [Q[:, starts[c]:ends[c]] for c in cl]
        d = span[0].shape[1]
        if d == 1 or any(x.shape[1] != d for x in span):
            parts.append(np.concatenate(span, axis=1)[None])  # kept whole
            continue
        # Carry the first cluster's basis to the others through B, along
        # the strongest couplings: copy k is column k of every cluster.
        for j, k in _spanning_tree(W[np.ix_(cl, cl)]):
            U, _, Vt = np.linalg.svd(span[j].T @ (B @ span[k]))
            span[j] = span[j] @ (U @ Vt)
        parts.append(np.stack(span, axis=2).transpose(1, 0, 2))
    if sum(p.shape[2] for p in parts) == n:
        return None
    return parts


def _split_block(blk: BlockData, nvars: int) -> Optional[BlockData]:
    """The block on one copy of each part, or None to keep it unreduced.

    With the basis P of ``_split_basis``, every coefficient matrix E (the
    constant included) must satisfy E P_i^(k) = P_i^(k) M_i(E) for every
    copy k of every part i, with one M_i(E) for all copies, to SPLIT_TOL
    times the coefficient scale, and P must be orthonormal.  Then P' E P is
    block diagonal with d_i equal blocks M_i(E), and the returned block
    holds the blocks M_i(E), its rows of part i carrying multiplicity d_i.
    The check runs over chunks of variables, each at most SPLIT_CHUNK
    doubles when dense.
    """
    n = blk.size
    cr, cc = np.nonzero(blk.const)
    vids = np.concatenate([blk.vids, np.full(cr.size, nvars)])
    rows = np.concatenate([blk.rows, cr])
    cols = np.concatenate([blk.cols, cc])
    vals = np.concatenate([blk.vals, blk.const[cr, cc]])
    scale = float(np.abs(vals).max(initial=0.0))
    if scale == 0.0:
        return None
    parts = _split_basis(n, (vids, rows, cols, vals), nvars + 1)
    if parts is None:
        return None
    P = np.concatenate([p.transpose(1, 0, 2).reshape(n, -1) for p in parts], axis=1)
    if P.shape != (n, n) or np.abs(P.T @ P - np.eye(n)).max() > SPLIT_TOL:
        return None

    # Entries sorted by (variable, row).  For each chunk of variables the
    # nonzero rows of every E_v are formed densely and multiplied by P in
    # one product, giving the stack E_v P.
    present = np.zeros(nvars + 1, dtype=bool)
    present[vids] = True
    uv = np.flatnonzero(present)
    key = (np.cumsum(present) - 1)[vids] * n + rows
    order = np.argsort(key, kind="stable")
    key, cols, vals = key[order], cols[order], vals[order]
    first = np.r_[True, key[1:] != key[:-1]]
    run, row_key = np.cumsum(first) - 1, key[first]
    vstart = np.searchsorted(key, np.arange(len(uv) + 1) * n)
    step = max(1, SPLIT_CHUNK // (n * n))
    out = []  # (vids, rows, cols, vals) of the reduced block
    for lo in range(0, len(uv), step):
        hi = min(lo + step, len(uv))
        a, b = vstart[lo], vstart[hi]
        ra, rb = run[a], run[b - 1] + 1
        E = np.bincount((run[a:b] - ra) * n + cols[a:b], vals[a:b], (rb - ra) * n)
        EP = np.zeros(((hi - lo) * n, n))
        EP[row_key[ra:rb] - lo * n] = E.reshape(-1, n) @ P
        EP = EP.reshape(hi - lo, n, n)
        col = row = 0
        for p in parts:
            d, _, ni = p.shape
            M = p[0].T @ EP[:, :, col:col + ni]
            M = 0.5 * (M + np.swapaxes(M, 1, 2))
            # E_v P_i^(k) - P_i^(k) M_v for every copy k, rows (row, k)
            cut = slice(col, col + d * ni)
            err = (EP[:, :, cut].reshape(hi - lo, n * d, ni)
                   - P[:, cut].reshape(n * d, ni) @ M)
            if np.abs(err, out=err).max() > SPLIT_TOL * scale:
                return None
            o, i, j = np.nonzero(np.abs(M) > 1e-12 * scale)
            out.append((uv[lo + o], row + i, row + j, M[o, i, j]))
            col += d * ni
            row += ni
    v, i, j, x = (np.concatenate(c) for c in zip(*out))
    size = sum(p.shape[2] for p in parts)
    const = np.zeros((size, size))
    isc = v == nvars
    const[i[isc], j[isc]] = x[isc]
    mult = np.concatenate([np.full(p.shape[2], float(p.shape[0])) for p in parts])
    return BlockData(size, const, v[~isc], i[~isc], j[~isc], x[~isc], mult)


def _add_scaled(terms: dict, a: float, other: dict):
    """terms += a * other, dropping each sum that cancels below LIFT_TOL."""
    for v, c in other.items():
        old, new = terms.get(v, 0.0), a * c
        if abs(old + new) <= LIFT_TOL * max(abs(old), abs(new)):
            terms.pop(v, None)
        else:
            terms[v] = old + new


def _substitution(eqs: list, nv: int):
    """Particular solution y0 and basis B of { y in R^nv : every row of eqs }.

    Sparse Gaussian elimination, 1-term rows first: a row, earlier pivots
    substituted, is pivoted on its largest coefficient (ties to the lowest
    variable), and its pivot is substituted into the earlier pivots, each an
    affine form in the free variables.  A row left with no terms raises
    InconsistentEqualities when its right-hand side exceeds 1e-8 times the
    system's scale.  Returns y0, B as (rows, cols, vals) sorted by row, and
    the free variables, one column each in increasing order.
    """
    scale = 1.0 + max((abs(x) for e in eqs for x in (e.rhs, *e.terms.values())),
                      default=0.0)
    expr, const = {}, {}  # pivot -> its form in the free variables, constant
    for i in sorted(range(len(eqs)), key=lambda i: len(eqs[i].terms) > 1):
        row, rhs = dict(eqs[i].terms), eqs[i].rhs
        for v in [v for v in row if v in expr]:
            c = row.pop(v)
            rhs -= c * const[v]
            _add_scaled(row, c, expr[v])
        if not row:
            if abs(rhs) > 1e-8 * scale:
                raise InconsistentEqualities(i, abs(rhs))
            continue
        p = min(row, key=lambda v: (-abs(row[v]), v))
        cp = row.pop(p)
        form = {v: -c / cp for v, c in row.items()}
        for q in expr:
            if p in expr[q]:
                a = expr[q].pop(p)
                const[q] += a * rhs / cp
                _add_scaled(expr[q], a, form)
        expr[p], const[p] = form, rhs / cp
    free = [v for v in range(nv) if v not in expr]
    col = {v: j for j, v in enumerate(free)}
    B = np.array([(v, col[u], a) for v in range(nv)
                  for u, a in expr.get(v, {v: 1.0}).items()]).reshape(-1, 3)
    y0 = np.array([const.get(v, 0.0) for v in range(nv)])
    return y0, B[:, 0].astype(np.int64), B[:, 1].astype(np.int64), B[:, 2], free


@dataclass
class Lift:
    """Merged moment vectors y = y0 + B z that satisfy the equality rows
    ``eqs``; B is (rows, cols, vals) sorted by row, one column per free
    variable, and the full moment vector is y[label]."""

    label: np.ndarray
    y0: np.ndarray
    B: tuple
    shift: np.ndarray  # u = argmin |y0 - B u|; y0 - B u has minimum norm
    eqs: list

    def residual(self, y: np.ndarray) -> float:
        """Largest equality residual of y, relative to 1 + max |rhs|."""
        top = max((abs(sum(c * y[v] for v, c in e.terms.items()) - e.rhs)
                   for e in self.eqs), default=0.0)
        return top / (1.0 + max((abs(e.rhs) for e in self.eqs), default=0.0))

    def block(self, blk: BlockData) -> BlockData:
        """The block over z: coefficients E'_j = sum_k B[k, j] E_k, summed
        per entry, and constant C + E(y0)."""
        (rows, cols, vals), n, nv = self.B, blk.size, len(self.y0)
        start = np.searchsorted(rows, np.arange(nv + 1))
        cnt = (start[1:] - start[:-1])[blk.vids]
        term = np.repeat(np.arange(len(blk.vids)), cnt)
        at = np.arange(len(term)) + np.repeat(start[blk.vids] - np.cumsum(cnt) + cnt, cnt)
        pos = blk.rows * n + blk.cols
        key, inv = np.unique(pos[term] * nv + cols[at], return_inverse=True)
        coef = np.bincount(inv, blk.vals[term] * vals[at], len(key))
        const = blk.const + np.bincount(pos, blk.vals * self.y0[blk.vids],
                                        n * n).reshape(n, n)
        return BlockData(n, const, key % nv, key // nv // n, key // nv % n,
                         coef, blk.mult)


def _lifted_program(objective: np.ndarray, blocks: list, eqs: list,
                    label: np.ndarray) -> Tuple[ConeProgram, Lift]:
    """The program over the free coordinates z of the lift y = y0 + B z of
    the merged equality rows ``eqs`` (see ``_substitution``), and the lift."""
    nv = len(objective)
    y0, rows, cols, vals, free = _substitution(eqs, nv)
    # z_j is the sum over the orbit of free variable j, so the solver's
    # objective scale and adjoint residual are those of one orbit member.
    size = np.maximum(np.bincount(label, minlength=nv), 1)[free]
    vals = vals / size[cols]
    # B'B = D^2 + P'P, with D = diag(1 / size) from the free rows and P the
    # nonzero pivot rows of B (a pin's row is zero).  The shift solves
    # (D^2 + P'P) u = P'y0 as u = D^-2 P' (I + P D^-2 P')^-1 y0, one dense
    # solve with one row per pivot, no larger than one with one per equality.
    pivot = np.zeros(nv, dtype=bool)
    pivot[rows] = True
    pivot[free] = False
    at = pivot[rows]
    P = np.zeros((int(pivot.sum()), len(free)))
    P[(np.cumsum(pivot) - 1)[rows[at]], cols[at]] = vals[at]
    W = P * size ** 2
    shift = W.T @ np.linalg.solve(np.eye(len(P)) + W @ P.T, y0[pivot])
    lift = Lift(label, y0, (rows, cols, vals), shift, eqs)
    prog = ConeProgram(len(free), np.bincount(cols, vals * objective[rows], len(free)),
                       [lift.block(blk) for blk in blocks], float(objective @ y0))
    return prog.finalize(), lift


def _build_cone_program(
    problem: SdpProblem, margin: bool = False
) -> Tuple[ConeProgram, float, Lift]:
    """Translate an LMI-form problem into the solver's internal data.

    Returns (program, sign, lift); the program maximizes sign * (original
    objective), its constant part as the offset, over the free coordinates
    of the lift (see the module notes).  With ``margin`` it is instead the margin program
    max { t : every block - t*I is PSD }, t being the merged variable after
    the orbits and the last free coordinate.
    """
    n = problem.num_vars
    label = _orbit_labels(problem)
    lab = label.tolist()
    m = int(label.max()) + 1
    sign = 1.0 if problem.sense == "max" else -1.0
    c = np.zeros(m)
    for vid, coef in problem.objective.items():
        c[lab[vid]] += coef

    blocks = []
    covered = np.zeros(n, dtype=bool)
    for blk in problem.blocks:
        vids, rows, cols, vals = _full_entries(blk)
        covered[vids] = True
        blocks.append(BlockData(blk.size, np.zeros((blk.size, blk.size)),
                                label[vids], rows, cols, vals))
    orbit = {}  # merged inequality -> the distinct rows it stands for
    for con in problem.ge_constraints:
        covered[list(con.terms)] = True
        merged = LinearConstraint(_merged(con.terms, lab), con.rhs, Relation.GE)
        if merged.terms or con.rhs > 0:  # else 0 >= rhs
            orbit.setdefault(merged.key(), (merged, set()))[1].add(con.key())
    for merged, rows in orbit.values():
        items = sorted(merged.terms.items())
        z = np.zeros(len(items), dtype=np.int64)
        blocks.append(BlockData(1, np.array([[-merged.rhs]]),
                                np.array([v for v, _ in items], dtype=np.int64), z, z,
                                np.array([cf for _, cf in items], dtype=float),
                                np.array([len(rows)], float) if len(rows) > 1 else None))

    referenced = np.zeros(n, dtype=bool)
    referenced[list(problem.objective)] = True
    for con in problem.constraints:
        referenced[list(con.terms)] = True
    bad = np.nonzero(referenced & ~covered)[0]
    if bad.size:
        raise SolverError(
            f"variables {bad[:5].tolist()} appear in constraints/objective "
            "but in no PSD block; the problem is not in solvable LMI form"
        )

    objective = sign * c
    if margin:
        for blk in blocks:
            sz = blk.size
            blk.vids = np.concatenate([blk.vids, np.full(sz, m, dtype=np.int64)])
            blk.rows = np.concatenate([blk.rows, np.arange(sz)])
            blk.cols = np.concatenate([blk.cols, np.arange(sz)])
            blk.vals = np.concatenate([blk.vals, -np.ones(sz)])
        objective = np.append(objective, 1.0)
    nv = len(objective)
    if m < n:
        blocks = [blk if blk.size < 2 else _split_block(blk, nv) or blk
                  for blk in blocks]

    eqs, seen = [], set()
    for con in problem.eq_constraints:
        merged = LinearConstraint(_merged(con.terms, lab), con.rhs)
        if (merged.terms or merged.rhs) and merged.key() not in seen:
            seen.add(merged.key())
            eqs.append(merged)
    prog, lift = _lifted_program(objective, blocks, eqs, label)
    return prog, sign, lift


def _accepted(res, problem: SdpProblem, err_eq: float) -> dict:
    """Residuals of an IPM result; SolverError if it is no bound.

    A numerical_limit outcome whose largest residual exceeds ``ACCEPT_TOL``
    is rejected; every other outcome passes.
    """
    resid = {
        "lmi": res.err_lmi,
        "adjoint": res.err_adj,
        "equality": err_eq,
        "gap": abs(res.pobj - res.dobj) / (1 + abs(res.pobj) + abs(res.dobj)),
    }
    if res.status == "numerical_limit":
        name = max(resid, key=lambda k: math.inf if math.isnan(resid[k]) else resid[k])
        if not resid[name] <= ACCEPT_TOL:  # also when it is NaN
            raise SolverError(
                f"{problem.description or 'problem'}: solver stopped at "
                f"numerical_limit after {res.iterations} iterations with "
                f"{name} residual {resid[name]:.3e} above ACCEPT_TOL "
                f"{ACCEPT_TOL:.0e}"
            )
    return resid


def _block_summary(blk: BlockData) -> dict:
    mult = np.ones(blk.size, dtype=np.int64) if blk.mult is None else blk.mult.astype(np.int64)
    values, rows = np.unique(mult, return_counts=True)
    return {"size": blk.size,
            "rows_by_multiplicity": dict(zip(values.tolist(), rows.tolist()))}


def _solve_lifted(prog: ConeProgram, lift: Lift, problem: SdpProblem):
    """Solve a lifted program: its result with y read back on the merged
    variables and the dual objective taken at the minimum-norm solution
    (see the module notes), and the residuals of ``_accepted``."""
    res, (rows, cols, vals) = solve_ipm(prog), lift.B
    res.y = lift.y0 + np.bincount(rows, vals * res.y[cols], len(lift.y0))
    res.dobj -= float(lift.shift @ res.adjoint)
    return res, _accepted(res, problem, lift.residual(res.y))


def _infeasible(problem: SdpProblem, cert: dict, **fields) -> SdpSolution:
    return SdpSolution(SolveStatus.INFEASIBLE, math.nan, np.zeros(problem.num_vars),
                       None, None, certificate=cert, problem=problem, **fields)


def solve(problem: SdpProblem) -> SdpSolution:
    """Solve an assembled moment SDP with the interior-point method.

    The returned objective is the moment-side value; the dual objective is in
    ``residuals["dual_objective"]``.  An infeasible program returns its
    Farkas certificate; a solve that the acceptance rule rejects raises
    SolverError (see the module notes).
    """
    mi = problem.moment_block_index()
    try:
        prog, sign, lift = _build_cone_program(problem)
    except InconsistentEqualities as exc:
        return _infeasible(problem, {"reason": str(exc), "row": exc.row,
                                     "residual": exc.residual, "margin": -math.inf})
    res, residuals = _solve_lifted(prog, lift, problem)
    if res.status == "infeasible":
        return _infeasible(problem, res.certificate, iterations=res.iterations,
                           stop=res.stop)
    status = SolveStatus(res.status)
    y = res.y[lift.label]
    return SdpSolution(
        status=status,
        objective=float(sign * res.pobj),
        y=y,
        moment_matrix=problem.blocks[mi].materialize(y),
        moment_degrees=problem.blocks[mi].row_degrees,
        iterations=res.iterations,
        stop=res.stop,
        schur_rank_deficient=res.schur_rank_deficient,
        num_orbits=len(lift.y0),
        solver_blocks=[_block_summary(blk) for blk in prog.blocks[:len(problem.blocks)]],
        residuals={**residuals, "dual_objective": float(sign * res.dobj)},
        certificate=res.certificate,
        problem=problem,
    )


def feasibility(problem: SdpProblem) -> Tuple[bool, float]:
    """Decide feasibility via the margin program max { t : blocks >= t*I }.

    The input must have no objective.  Feasible iff the margin attained at
    the returned point, t less the spectral norm of its LMI residual R
    (every block is then >= (t - |R|_2) I), is >= -DEFAULT_EPS_FEAS; the
    margin is returned alongside (inf if unbounded, -inf for inconsistent
    equalities).  The equality constraints must pin the normalization (e.g.
    L(1) = 1); otherwise the margin program is unbounded or its supremum
    need not be attained, and the solve may raise SolverError.
    """
    if problem.objective:
        raise ValueError("feasibility expects a problem without objective")
    try:
        prog, _, lift = _build_cone_program(problem, margin=True)
    except InconsistentEqualities:
        return False, -math.inf
    res, _ = _solve_lifted(prog, lift, problem)
    # t follows the orbit variables
    margin = math.inf if res.status == "unbounded" else float(res.y[-1]) - res.lmi_norm
    return margin >= -DEFAULT_EPS_FEAS, margin


def numerical_rank(matrix: np.ndarray) -> int:
    """Number of singular values above DEFAULT_TAU_RANK times the largest one."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.size == 0:
        return 0
    sv = np.linalg.svd(matrix, compute_uv=False)
    top = sv.max(initial=0.0)
    if top == 0.0:
        return 0
    return int((sv > DEFAULT_TAU_RANK * top).sum())


def flatness_from_matrix(M: np.ndarray, degrees: np.ndarray, r: int) -> FlatnessReport:
    """Rank profile of the nested principal submatrices M_s, s = 0..r.

    ``degrees`` gives the word degree of each row of M (rows must be sorted
    by degree, identity first).
    """
    degrees = np.asarray(degrees)
    ranks = []
    for s in range(r + 1):
        k = int((degrees <= s).sum())
        ranks.append(numerical_rank(M[:k, :k]))
    flat_deltas = [delta for delta in range(1, r + 1) if ranks[r - delta] == ranks[r]]
    entdim_delta = math.ceil(r / 3) + 1
    entdim_flat = (
        r - entdim_delta >= 0 and ranks[r - entdim_delta] == ranks[r]
    )
    return FlatnessReport(r, ranks, DEFAULT_TAU_RANK, flat_deltas, entdim_delta,
                          entdim_flat)


def flatness(solution: SdpSolution, r: int) -> FlatnessReport:
    """Flatness report of a solved instance's realized moment matrix."""
    if solution.moment_matrix is None:
        raise ValueError("solution carries no realized moment matrix")
    return flatness_from_matrix(solution.moment_matrix, solution.moment_degrees, r)


# --------------------------------------------------------------------------
# SDPA sparse exchange format (".dat-s")
#
# The file stores the problem
#     minimize <F_0, Y>  subject to  <F_i, Y> = c_i (i = 1..m),  Y PSD,
# with Y sharing this problem's block structure plus one trailing diagonal
# block holding inequality slacks.  Layout: line 1 = m, line 2 = number of
# blocks, line 3 = block sizes (negative = diagonal), line 4 = the m values
# c_i, then entry lines "matno blkno i j value" (1-based, upper triangle,
# ascending order).  Maximization problems are exported with the objective
# negated; the file always encodes a minimization.
# --------------------------------------------------------------------------


class SdpaFormatError(ValueError):
    pass


def _entry_forms(problem: SdpProblem):
    """Map (block, i, j) upper-triangle positions to their linear forms."""
    forms = {}
    for b, blk in enumerate(problem.blocks):
        for vid, i, j, cf in zip(blk.var_ids, blk.rows, blk.cols, blk.coefs):
            forms.setdefault((b, int(i), int(j)), []).append((int(vid), float(cf)))
    return forms


def _representatives(problem: SdpProblem, forms):
    reps = {}
    for pos in sorted(forms):
        form = forms[pos]
        if len(form) == 1 and form[0][1] == 1.0:
            reps.setdefault(form[0][0], pos)
    missing = [v for v in range(problem.num_vars) if v not in reps]
    live = set()
    for form in forms.values():
        for v, _ in form:
            live.add(v)
    for con in problem.constraints:
        live.update(con.terms)
    live.update(problem.objective)
    missing = [v for v in missing if v in live]
    if missing:
        raise SdpaFormatError(
            f"variables {missing[:5]} have no unit-coefficient block entry; "
            "cannot export in entry form"
        )
    return reps


def _entry_coeff(i: int, j: int) -> float:
    # <A, X> with A the symmetric unit matrix at (i, j) picks X_ij when the
    # off-diagonal value is 1/2.
    return 1.0 if i == j else 0.5


def export_sdpa(problem: SdpProblem) -> bytes:
    """Serialize the SDP in SDPA sparse form via entry identification.

    Every moment variable is pinned to a representative matrix entry; all
    other occurrences, forced-zero entries, and the linear constraints become
    equality rows on the PSD matrix Y.
    """
    forms = _entry_forms(problem)
    reps = _representatives(problem, forms)
    sizes = [blk.size for blk in problem.blocks]
    nslack = len(problem.ge_constraints)
    slack_block = len(sizes)  # appended diagonal block, if needed
    if nslack:
        sizes.append(-nslack)

    rows = []  # each row: (entries list [(blk, i, j, coef)], rhs)
    for b, blk in enumerate(problem.blocks):
        stored = {(b, int(i), int(j)) for i, j in zip(blk.rows, blk.cols)}
        for i in range(blk.size):
            for j in range(i, blk.size):
                pos = (b, i, j)
                if pos not in stored:
                    rows.append(([(b, i, j, _entry_coeff(i, j))], 0.0))
                    continue
                form = forms[pos]
                if len(form) == 1 and form[0][1] == 1.0 and reps[form[0][0]] == pos:
                    continue
                ent = [(b, i, j, _entry_coeff(i, j))]
                for v, cf in form:
                    rb, ri, rj = reps[v]
                    ent.append((rb, ri, rj, -cf * _entry_coeff(ri, rj)))
                rows.append((ent, 0.0))
    for con in problem.eq_constraints:
        ent = []
        for v, cf in sorted(con.terms.items()):
            rb, ri, rj = reps[v]
            ent.append((rb, ri, rj, cf * _entry_coeff(ri, rj)))
        rows.append((ent, con.rhs))
    for k, con in enumerate(problem.ge_constraints):
        ent = []
        for v, cf in sorted(con.terms.items()):
            rb, ri, rj = reps[v]
            ent.append((rb, ri, rj, cf * _entry_coeff(ri, rj)))
        ent.append((slack_block, k, k, -1.0))
        rows.append((ent, con.rhs))

    sign = 1.0 if problem.sense == "min" else -1.0
    cobj = {}
    for v, cf in sorted(problem.objective.items()):
        rb, ri, rj = reps[v]
        key = (rb, ri, rj)
        cobj[key] = cobj.get(key, 0.0) + sign * cf * _entry_coeff(ri, rj)

    lines = [
        f"{len(rows)}",
        f"{len(sizes)}",
        " ".join(str(s) for s in sizes),
        " ".join(_fmt(rhs) for _, rhs in rows),
    ]
    entry_lines = []
    for (b, i, j), v in sorted(cobj.items()):
        if v != 0.0:
            entry_lines.append((0, b + 1, i + 1, j + 1, v))
    for matno, (ent, _) in enumerate(rows, start=1):
        merged = {}
        for b, i, j, v in ent:
            merged[(b, i, j)] = merged.get((b, i, j), 0.0) + v
        for (b, i, j), v in sorted(merged.items()):
            if v != 0.0:
                entry_lines.append((matno, b + 1, i + 1, j + 1, v))
    entry_lines.sort(key=lambda t: t[:4])
    for matno, b, i, j, v in entry_lines:
        lines.append(f"{matno} {b} {i} {j} {_fmt(v)}")
    return ("\n".join(lines) + "\n").encode()


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass
class SdpaProblem:
    """Parsed SDPA file: blocks of Y, equality rows, objective over entries."""

    m: int
    block_sizes: list  # positive = dense, negative = diagonal
    rhs: np.ndarray
    objective_entries: list  # (blk, i, j, value) 0-based
    constraint_entries: list  # list per constraint of (blk, i, j, value)


def parse_sdpa(data: bytes) -> SdpaProblem:
    text = data.decode()
    lines = text.splitlines()

    def fail(lineno, msg):
        raise SdpaFormatError(f"line {lineno}: {msg}")

    if len(lines) < 4:
        fail(len(lines) + 1, "truncated file")
    try:
        m = int(lines[0].split()[0])
    except (ValueError, IndexError):
        fail(1, "expected the number of constraints")
    try:
        nblocks = int(lines[1].split()[0])
    except (ValueError, IndexError):
        fail(2, "expected the number of blocks")
    sizes = lines[2].split()
    if len(sizes) != nblocks:
        fail(3, f"expected {nblocks} block sizes, found {len(sizes)}")
    try:
        sizes = [int(s) for s in sizes]
    except ValueError:
        fail(3, "block sizes must be integers")
    rhs_tokens = lines[3].split()
    if len(rhs_tokens) != m:
        fail(4, f"expected {m} objective coefficients, found {len(rhs_tokens)}")
    try:
        rhs = np.array([float(t) for t in rhs_tokens])
    except ValueError:
        fail(4, "objective coefficients must be numbers")

    obj_entries = []
    cons = [[] for _ in range(m)]
    for lineno, line in enumerate(lines[4:], start=5):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 5:
            fail(lineno, "entry lines need 'matno blkno i j value'")
        try:
            matno, blk, i, j = (int(p) for p in parts[:4])
            val = float(parts[4])
        except ValueError:
            fail(lineno, "malformed entry line")
        if not (0 <= matno <= m):
            fail(lineno, f"matrix number {matno} out of range 0..{m}")
        if not (1 <= blk <= nblocks):
            fail(lineno, f"block number {blk} out of range 1..{nblocks}")
        sz = abs(sizes[blk - 1])
        if not (1 <= i <= j <= sz):
            fail(lineno, f"indices ({i},{j}) not in the upper triangle of size {sz}")
        if sizes[blk - 1] < 0 and i != j:
            fail(lineno, "off-diagonal entry in a diagonal block")
        rec = (blk - 1, i - 1, j - 1, val)
        if matno == 0:
            obj_entries.append(rec)
        else:
            cons[matno - 1].append(rec)
    return SdpaProblem(m, sizes, rhs, obj_entries, cons)


def sdpa_to_problem(parsed: SdpaProblem) -> SdpProblem:
    """Rebuild an LMI-form problem whose variables are the matrix entries."""
    from .momentize import LinearConstraint, SymbolicBlock, assemble

    blocks = []
    slots = {}

    def add_block(label, size, diagonal):
        b = len(blocks)
        entries = {}
        if diagonal:
            for i in range(size):
                vid = len(slots)
                slots[(b, i, i)] = vid
                entries[(i, i)] = [(vid, 1.0)]
        else:
            for i in range(size):
                for j in range(i, size):
                    vid = len(slots)
                    slots[(b, i, j)] = vid
                    entries[(i, j)] = [(vid, 1.0)]
        blocks.append(SymbolicBlock(label, [(i,) for i in range(size)], entries))

    for bi, sz in enumerate(parsed.block_sizes):
        add_block("moment" if bi == 0 else f"block{bi}", abs(sz), sz < 0)

    def form_of(entries):
        terms = {}
        for b, i, j, v in entries:
            vid = slots[(b, i, j)]
            coef = v if i == j else 2.0 * v
            terms[vid] = terms.get(vid, 0.0) + coef
        return terms

    constraints = [
        LinearConstraint(form_of(ent), float(parsed.rhs[k]), Relation.EQ)
        for k, ent in enumerate(parsed.constraint_entries)
    ]

    return assemble(
        objective=form_of(parsed.objective_entries),
        sense="min",
        blocks=blocks,
        constraints=constraints,
        index=range(len(slots)),  # assemble only counts the variables
        description="imported sdpa problem",
    )


def import_sdpa(data: bytes) -> SdpProblem:
    return sdpa_to_problem(parse_sdpa(data))


def import_solution_sdpa(data: bytes) -> SdpSolution:
    """Parse an SDPA problem file, solve it, and return the solution."""
    return solve(import_sdpa(data))
