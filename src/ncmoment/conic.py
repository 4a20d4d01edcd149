"""Concrete SDP solving, post-solve numerics, and SDPA sparse file exchange.

Every solve runs the interior-point method in :mod:`ncmoment._ipm`; SDPA
files are exchange I/O only.  Inequalities are implemented as 1x1 PSD blocks
so the core solver only sees a single cone type.

Acceptance.  This module alone decides which solver outcome is a bound;
the interior point reports every solve that stopped short of ``TOL``
(``iteration_cap``, ``no_step``) as ``numerical_limit``, whatever its
residuals.  ``optimal`` is accepted.  ``numerical_limit`` is accepted only
when the largest of its lmi, adjoint, equality and gap residuals is at most
``ACCEPT_TOL``; otherwise the solve raises SolverError.  One solve gives
every verdict: the interior point's self-dual embedding returns
``infeasible`` with a Farkas certificate, whose ``margin`` is an upper
bound on the margin program's value (-inf for inconsistent equalities), and
``unbounded`` with an improving ray (see :mod:`ncmoment._ipm`).
:func:`feasibility` still solves the margin program, since the graph
searches report its value, and reads the margin attained at the returned
point; ``unbounded`` is its verdict (True, inf).  Both margins are those of
the program the solver sees; with a symmetry that is no permutation that
is the restricted program below, and only their sign carries over.  Post-solve utilities
compute numerical ranks of nested principal submatrices of the realized
moment matrix and the flatness verdicts used for finite-convergence
certificates.

Symmetry.  A builder may attach symbol maps (``SdpProblem.symmetries``).
An image is a symbol or an affine polynomial, such as x -> 1 - x for an
answer relabeling in the Collins-Gisin alphabet.  Before the solve each map
phi is turned into the linear map S of the moment variables that it
induces, (S y)_v = L_y(phi(w_v)), and checked, else SymmetryError.  Every
block's row words are mapped, reduced and expanded over the rows of an
image block of its size, giving a row transform T (a permutation rho when
symbols go to symbols; localizing blocks may trade places, as loc[x] and
loc[1 - x] do).  The moment block is its own image, and S is read off its
one-term entries: the variable at (i, j) goes to the form of T M T' at
(i, j), and the moment block's forms mapped through S must be those of
T M T'.  Every other block's image is the first block of its size not yet
taken, itself first, whose forms E give T E T' the block's forms mapped
through S, compared exactly: the comparison that picks an image is the one
that verifies it.  So every block at S y is congruent to its image at y;
and S must map the constraint set and the objective onto themselves.
Constraints are compared by the row rule that :mod:`ncmoment.momentize`
owns (``_key_rows``: rows that cut out the same set, i.e. equal up to
scale, an inequality up to a positive one), the rule that also deduplicates
every constraint list.  The maps must generate a finite group: images
affine in the alphabet, every map invertible, and the images of the symbols
under the group few (``_check_group``).

The solver works on the fixed subspace of that group, which one pass
(``_fixed_subspace``) describes.  The variables of one orbit of the group
that the symbol permutations generate are merged into one, so the solver
sees one variable per orbit and y = z[label]; a problem without symmetries
has singleton orbits.  Every other map adds its rows y = S y, written over
the merged variables, to the merged equality rows of the lift below; the
two row sets are deduplicated together.  Because the program is invariant,
the group average of a feasible point is feasible, has the same objective
and lies in the fixed subspace.  So the restricted program's optimum is the
full optimum, its dual objective bounds the full optimum by weak duality,
and its Farkas certificates hold for the full program: a feasible point of
the full program would average to one of the restricted program.  The
margin's value does not carry over.  The margin program (every block >= tI)
is invariant only under maps whose row transforms are orthogonal, as
permutations' are; under an answer flip a block at S y is
T B(y) T' >= t TT', not tI.  So with such maps the restricted margin can
lie strictly below the full one (the PR box at level 3: -0.114 against
-0.061), and a certificate's margin bounds the restricted margin only.  Its sign carries
over: a full point with every block >= 0, or > 0, averages to a restricted
one.  The orbit images of an inequality become one 1x1 block whose
multiplicity counts its distinct rows (classes of the row rule).
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
from typing import Optional, Tuple

import numpy as np

from ._ipm import BlockData, ConeProgram, solve_ipm
from .momentize import (CompiledBlock, LinearConstraint, Relation, SdpProblem, _groups,
                        _key_rows, _term_arrays, assemble, distinct, row_classes,
                        row_residuals)
from .ncwords import NcPolynomial, _combine, reduce_word

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


def _splitmix(count: int, seed: int) -> np.ndarray:
    """``count`` deterministic numbers in [-1, 1): the SplitMix64 mix of the
    Weyl sequence seed + k, in uint64 arithmetic (numpy alone)."""
    z = (np.arange(1, count + 1, dtype=np.uint64) + np.uint64(seed)) \
        * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(float) * 2.0 ** -52 - 1.0


def _expand(smap: tuple, key, var, coef):
    """Terms (key, u, coef * S[var, u]) of forms mapped through the variable
    map S = (start, cols, vals): row v of S holds cols and vals at
    start[v]:start[v + 1]."""
    start, cols, vals = smap
    cnt = start[var + 1] - start[var]
    term = np.repeat(np.arange(len(var)), cnt)
    at = np.arange(len(term)) + np.repeat(start[var] - np.cumsum(cnt) + cnt, cnt)
    return key[term], cols[at], coef[term] * vals[at]


def _coalesce(key, val):
    """Sorted distinct keys and the sums of their values; a sum below 1e-12
    times the largest one has cancelled and is dropped."""
    o = np.argsort(key, kind="stable")
    key, val = key[o], val[o]
    if key.size:
        first = np.ones(key.size, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=first[1:])
        first = np.flatnonzero(first)
        key, val = key[first], np.add.reduceat(val, first)
    keep = np.abs(val) > 1e-12 * np.abs(val).max(initial=0.0)
    return key[keep], val[keep]


def _same(ka, va, kb, vb) -> bool:
    """Equal coalesced forms: the same keys, values within 1e-12 relative."""
    return np.array_equal(ka, kb) and bool(
        np.abs(va - vb).max(initial=0.0) <= 1e-12 * (1.0 + np.abs(va).max(initial=0.0)))


class _ConstraintKeys:
    """The constraint set keyed once per problem by the row rule
    (``momentize._key_rows``), for its images under a variable map;
    constraints are grouped by term count."""

    def __init__(self, constraints: list):
        self.cons = constraints
        self.cid, self.var, self.coef, self.eq, self.rhs = _term_arrays(constraints)
        self.keys = {size: np.sort(self._keys(ids, V, C)) for size, (ids, V, C)
                     in _groups(self.cid, self.var, self.coef, len(constraints)).items()}

    def _keys(self, ids, V, C):
        return _key_rows(V, C, self.eq[ids], self.rhs[ids])

    def outside(self, smap: tuple) -> Optional[LinearConstraint]:
        """A constraint whose image under the variable map ``smap`` (start,
        cols, vals) (see ``_expand``) is no constraint, or None."""
        n = len(smap[0]) - 1
        cid, var, coef = _expand(smap, self.cid, self.var, self.coef)
        key, coef = _coalesce(cid * n + var, coef)
        for size, (ids, V, C) in _groups(key // n, key % n, coef, len(self.cons)).items():
            keys, img = self.keys.get(size), self._keys(ids, V, C)
            if keys is None:
                return self.cons[ids[0]]
            pos = np.minimum(np.searchsorted(keys, img), len(keys) - 1)
            miss = np.flatnonzero(keys[pos] != img)
            if miss.size:
                return self.cons[ids[miss[0]]]
        return None


def _image_terms(image) -> tuple:
    """(word, coefficient) pairs of a symbol's image, a Symbol or an
    NcPolynomial."""
    if isinstance(image, NcPolynomial):
        return tuple(image.terms.items())
    return (((image,), 1.0),)


def _is_permutation(perm: dict) -> bool:
    """Whether the symbol map sends every symbol to a symbol."""
    return all(len(t) == 1 and len(t[0][0]) == 1 and t[0][1] == 1.0
               for t in map(_image_terms, perm.values()))


def _row_transform(words: list, target: list, images: dict, rw):
    """(i, p, T[i, p]) sorted by p, where the image of row word i, mapped
    and reduced, is sum_p T[i, p] target[p]; None when an image leaves the
    span of ``target``."""
    where = {w: p for p, w in enumerate(target)}
    out = []
    for i, w in enumerate(words):
        terms = [((), 1.0)]
        for a in w:
            img = images.get(a)
            terms = ([(u + (a,), c) for u, c in terms] if img is None
                     else [(u + v, c * d) for u, c in terms for v, d in img])
        row: dict = {}
        for u, c in terms:
            _combine(row, reduce_word(u, rw), c)
        for u, c in row.items():
            if u not in where:
                return None
            out.append((where[u], i, c))
    out.sort()
    p, i, t = (np.array(x).reshape(-1) for x in zip(*out)) if out else (np.zeros(0),) * 3
    return i.astype(np.int64), p.astype(np.int64), t.astype(float)


class _Forms:
    """What the checks of one problem's symbol maps share: its constraint
    keys and objective; every block's upper-triangle entries in global rows
    (block k's rows from ``roff[k]``, its positions from ``off[k]``) and by
    global position; the moment block's one-term entries; and the other
    blocks in classes of one size and one list of row words, with the
    entries of each class."""

    def __init__(self, problem: SdpProblem):
        blocks, n = problem.blocks, problem.num_vars
        self.n = n
        self.mi = mi = problem.moment_block_index()
        self.keys = _ConstraintKeys(problem.constraints)
        self.objective = np.zeros(n)
        self.objective[list(problem.objective)] = list(problem.objective.values())
        sizes = np.array([blk.size for blk in blocks])
        self.roff = np.r_[0, np.cumsum(sizes)]
        self.off = np.r_[0, np.cumsum(sizes ** 2)]
        self.row_block = np.repeat(np.arange(len(blocks)), sizes)
        entries = [(blk.var_ids, r + blk.rows, r + blk.cols, blk.coefs)
                   for r, blk in zip(self.roff, blocks)]
        self.moment = entries[mi]
        self.upper = tuple(np.concatenate(x) for x in zip(*[
            (self.off[k] + blk.rows * blk.size + blk.cols, blk.var_ids, blk.coefs)
            for k, blk in enumerate(blocks)]))
        # Every variable with a one-term entry in the moment block: its first
        # such position and coefficient.
        mom = blocks[mi]
        pos = mom.rows * mom.size + mom.cols
        one = np.bincount(pos, minlength=mom.size ** 2)[pos] == 1
        v, first = np.unique(mom.var_ids[one], return_index=True)
        self.one = v, self.off[mi] + pos[one][first], mom.coefs[one][first]
        self.covered = np.zeros(n, dtype=bool)
        self.covered[v] = True
        classes: dict = {}
        for k, blk in enumerate(blocks):
            if k != mi:
                classes.setdefault((blk.size, tuple(blk.row_words)), []).append(k)
        self.classes = [(size, ks, tuple(np.concatenate(x) for x in
                                         zip(*[entries[k] for k in ks])))
                        for (size, _), ks in classes.items()]

    def local(self, key, val, k: int) -> tuple:
        """The terms of block k among coalesced forms keyed position * n +
        variable, keyed by its own positions."""
        a, b = np.searchsorted(key, self.off[k:k + 2] * self.n)
        return key[a:b] - self.off[k] * self.n, val[a:b]


def _congruence(T: tuple, forms: _Forms, upper: tuple):
    """Entries of T E T' on the upper triangles of the blocks, E the forms
    ``upper`` (variables, global rows p <= columns q, coefficients): (global
    position, variable, coefficient).

    T = (i, p, t) in global rows, sorted by p, maps every row of a block to
    rows of one other block.  An entry with p < q stands for (q, p) too: its
    images are folded onto the upper triangle, twice where they land on the
    diagonal.  A diagonal entry keeps its images on the upper triangle."""
    ti, tp, tv = T
    cstart = np.searchsorted(tp, np.arange(len(forms.row_block) + 1))
    cnt = np.diff(cstart)
    vids, p, q, c = upper
    a, b = cnt[p], cnt[q]
    ne = a * b
    e = np.repeat(np.arange(len(p)), ne)
    k = np.arange(len(e)) - np.repeat(np.cumsum(ne) - ne, ne)
    ia, jb = cstart[p][e] + k // b[e], cstart[q][e] + k % b[e]
    i, j = ti[ia], ti[jb]
    coef = c[e] * tv[ia] * tv[jb]
    off = (p != q)[e]
    coef[off & (i == j)] *= 2.0
    keep = off | (i <= j)
    i, j, e, coef = np.minimum(i, j)[keep], np.maximum(i, j)[keep], e[keep], coef[keep]
    blk = forms.row_block[i]
    r0 = forms.roff[blk]
    pos = forms.off[blk] + (i - r0) * (forms.roff[blk + 1] - r0) + j - r0
    return pos, vids[e], coef


def _variable_permutation(problem: SdpProblem, perm: dict, forms: _Forms) -> tuple:
    """Variable map S induced by the symbol map ``perm``, as (start, cols,
    vals) (see ``_expand``); S is a permutation when ``perm`` sends symbols
    to symbols.

    Each block's row words are mapped, reduced and expanded over the rows
    of an image block of its size, giving a row transform T.  S is read off
    the moment block, which is its own image: the variable of a one-term
    entry (i, j) goes to the form of T M T' at (i, j); a variable with no
    such entry is held fixed.  Every block's entry forms mapped through S
    must be the forms of T E T', E its image's forms: the moment block's
    those of T M T', and every other block's those of the first block of
    its size not yet taken, itself first, for which they are.  Raises
    SymmetryError unless every block has an image and S maps the constraint
    set and the objective onto themselves.
    """
    n, blocks = problem.num_vars, problem.blocks
    if problem.index is None:
        raise SymmetryError("symmetries need the problem's word index")
    images = {a: _image_terms(b) for a, b in perm.items()}

    def transform(k, k2):
        return _row_transform(blocks[k].row_words, blocks[k2].row_words, images,
                              problem.index.rw)

    mi = forms.mi
    mom, r0 = blocks[mi], forms.roff[mi]
    T = transform(mi, mi)
    if T is None:
        raise SymmetryError(f"{mom.label}: row words do not map onto themselves")
    moment = _congruence((T[0] + r0, T[1] + r0, T[2]), forms, forms.moment)
    mkey, mval = _coalesce(moment[0] * n + moment[1], moment[2])
    v, at, c = forms.one
    lo, hi = np.searchsorted(mkey, at * n), np.searchsorted(mkey, (at + 1) * n)
    cnt = hi - lo
    idx = np.arange(cnt.sum()) + np.repeat(lo - np.cumsum(cnt) + cnt, cnt)
    count = np.ones(n, dtype=np.int64)
    count[v] = cnt
    moved = np.repeat(forms.covered, count)
    cols, vals = np.empty(moved.size, dtype=np.int64), np.ones(moved.size)
    cols[moved], vals[moved] = mkey[idx] % n, mval[idx] / np.repeat(c, cnt)
    cols[~moved] = np.flatnonzero(~forms.covered)
    rows = np.repeat(np.arange(n), count)
    smap = (np.r_[0, np.cumsum(count)], cols, vals)

    # Every block's forms mapped through S, against those of its image.
    pos, var, coef = _expand(smap, *forms.upper)
    lkey, lval = _coalesce(pos * n + var, coef)
    if not _same(*forms.local(lkey, lval, mi), *forms.local(mkey, mval, mi)):
        raise SymmetryError(f"{mom.label}: entry forms do not map onto themselves")
    taken = set()
    for size, src, _ in forms.classes:
        image = {}  # candidate k2 -> T E T' of block k2, at its own positions
        for size2, dst, upper in forms.classes:
            T = transform(src[0], dst[0]) if size2 == size else None
            if T is None:
                continue
            r = np.repeat(forms.roff[dst], len(T[0]))
            i, p, t = (np.tile(x, len(dst)) for x in T)
            pos, var, coef = _congruence((i + r, p + r, t), forms, upper)
            key, val = _coalesce(pos * n + var, coef)
            image.update((k2, forms.local(key, val, k2)) for k2 in dst)
        for k in src:
            mine = forms.local(lkey, lval, k)
            k2 = next((k2 for k2 in sorted(image, key=lambda k2: (k2 != k, k2))
                       if k2 not in taken and _same(*mine, *image[k2])), None)
            if k2 is None:
                raise SymmetryError(f"{blocks[k].label}: " + (
                    "entry forms do not map onto themselves" if image
                    else "row words do not map onto a block"))
            taken.add(k2)
    con = forms.keys.outside(smap)
    if con is not None:
        raise SymmetryError(f"constraint {con.terms} maps outside the constraint set")
    c = forms.objective
    if np.abs(np.bincount(cols, vals * c[rows], n) - c).max() > 1e-12 * (
            1.0 + np.abs(c).max()):
        raise SymmetryError("the objective changes")
    return smap


def _fixed_subspace(problem: SdpProblem) -> tuple:
    """The fixed subspace of the group that ``problem.symmetries`` generate
    (see the module notes), as (label, rows).

    ``label`` is the orbit of every variable under the symbol permutations,
    0..m-1 numbered by each orbit's least variable; ``rows`` are the rows
    y = S y of every other map, written over the merged variables
    y = z[label].  Without symmetries every variable is its own orbit and
    there are no rows.
    """
    n = problem.num_vars
    if not problem.symmetries:
        return np.arange(n), []
    forms = _Forms(problem)
    is_perm = [_is_permutation(p) for p in problem.symmetries]
    perms = [p for p, f in zip(problem.symmetries, is_perm) if f]
    others = [p for p, f in zip(problem.symmetries, is_perm) if not f]
    maps = []
    for perm in perms:
        start, sigma, vals = _variable_permutation(problem, perm, forms)
        if not (np.array_equal(start, np.arange(n + 1)) and (vals == 1.0).all()
                and np.array_equal(np.sort(sigma), np.arange(n))):
            raise SymmetryError("the induced variable map is not a permutation")
        maps += [sigma, np.argsort(sigma)]
    label = (np.unique(_least_labels(np.array(maps)), return_inverse=True)[1]
             if maps else np.arange(n))
    if others:
        _check_group(problem)
    m, rows = int(label.max()) + 1, []
    for perm in others:
        start, cols, vals = _variable_permutation(problem, perm, forms)
        v = np.repeat(np.arange(n), np.diff(start))
        key, val = _coalesce(
            np.concatenate([np.arange(n) * m + label, v * m + label[cols]]),
            np.concatenate([np.ones(n), -vals]))
        cut = np.searchsorted(key, np.arange(n + 1) * m).tolist()
        var, val = (key % m).tolist(), val.tolist()
        rows += [LinearConstraint(dict(zip(var[a:b], val[a:b])), 0.0)
                 for a, b in zip(cut, cut[1:]) if a < b]
    return label, rows


def _check_group(problem: SdpProblem):
    """SymmetryError unless the symbol maps generate a finite group.

    Every image must be affine in the alphabet (the moment block's one-letter
    rows), every map invertible on span{1, alphabet}, and the images of the
    symbols under the group, collected breadth first, at most twice as many
    as the symbols: a permutation keeps them in the alphabet, and a
    relabeling of answers moves them among the answer operators.  The group
    acts faithfully on these images, so it is finite.
    """
    mom = problem.blocks[problem.moment_block_index()]
    alphabet = sorted({w[0] for w in mom.row_words if len(w) == 1}
                      | {a for perm in problem.symmetries for a in perm})
    col = {a: k + 1 for k, a in enumerate(alphabet)}
    d = len(alphabet) + 1
    gens = []
    for perm in problem.symmetries:
        A = np.eye(d)
        for a, image in perm.items():
            A[:, col[a]] = 0.0
            for w, c in _image_terms(image):
                if len(w) > 1 or (w and w[0] not in col):
                    raise SymmetryError(f"the image of {a} is not affine in the alphabet")
                A[col[w[0]] if w else 0, col[a]] += c
        if np.linalg.matrix_rank(A) < d:
            raise SymmetryError("a symbol map is not invertible")
        gens.append(A)
    seen = {tuple(x) for x in np.eye(d)[1:]}
    new = np.eye(d)[:, 1:]
    while new.shape[1]:
        img = np.round(np.concatenate([A @ new for A in gens], axis=1), 12) + 0.0
        fresh = {tuple(x) for x in img.T} - seen
        seen |= fresh
        if len(seen) > 2 * (d - 1):
            raise SymmetryError("the symbol maps generate more than "
                                f"{2 * (d - 1)} images of the symbols")
        new = np.array(sorted(fresh)).reshape(-1, d).T


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
            for c in _splitmix(2 * nvars, SPLIT_SEED).reshape(2, nvars))
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
        res, rhs = row_residuals(self.eqs, y)
        return float(np.abs(res).max(initial=0.0) / (1.0 + np.abs(rhs).max(initial=0.0)))

    def block(self, blk: BlockData) -> BlockData:
        """The block over z: coefficients E'_j = sum_k B[k, j] E_k, summed
        per entry, and constant C + E(y0)."""
        (rows, cols, vals), n, nv = self.B, blk.size, len(self.y0)
        pos = blk.rows * n + blk.cols
        p, z, c = _expand((np.searchsorted(rows, np.arange(nv + 1)), cols, vals),
                          pos, blk.vids, blk.vals)
        key, coef = _coalesce(p * nv + z, c)
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
    label, fixed = _fixed_subspace(problem)
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
    # One 1x1 block per class of merged inequalities; its multiplicity counts
    # the classes of the rows in it.
    live = []
    for con in problem.ge_constraints:
        covered[list(con.terms)] = True
        merged = LinearConstraint(_merged(con.terms, lab), con.rhs, Relation.GE)
        if merged.terms or con.rhs > 0:  # else 0 >= rhs
            live.append((con, merged))
    nge = len(live)
    orbit = row_classes([merged for _, merged in live])
    pairs, _ = _coalesce(orbit * nge + row_classes([con for con, _ in live]), np.ones(nge))
    count = np.bincount(pairs // nge, minlength=nge)
    for i in np.flatnonzero(orbit == np.arange(nge)).tolist():
        merged = live[i][1]
        items = sorted(merged.terms.items())
        z = np.zeros(len(items), dtype=np.int64)
        blocks.append(BlockData(1, np.array([[-merged.rhs]]),
                                np.array([v for v, _ in items], dtype=np.int64), z, z,
                                np.array([cf for _, cf in items], dtype=float),
                                np.array([count[i]], float) if count[i] > 1 else None))

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

    eqs = [LinearConstraint(_merged(con.terms, lab), con.rhs)
           for con in problem.eq_constraints]
    eqs = distinct([e for e in eqs if e.terms or e.rhs] + fixed)
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
    blocks, slots = [], {}
    for b, sz in enumerate(parsed.block_sizes):
        n = abs(sz)
        rows, cols = np.diag_indices(n) if sz < 0 else np.triu_indices(n)
        vids = np.arange(len(slots), len(slots) + len(rows))
        slots.update(zip(zip([b] * len(rows), rows.tolist(), cols.tolist()), vids.tolist()))
        blocks.append(CompiledBlock("moment" if b == 0 else f"block{b}",
                                    [(i,) for i in range(n)], vids, rows, cols,
                                    np.ones(len(rows))))

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
