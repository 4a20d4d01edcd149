"""Concrete SDP solving, post-solve numerics, and SDPA sparse file exchange.

Every solve runs the interior-point method in :mod:`ncmoment._ipm`; SDPA
files are exchange I/O only.  Inequalities are implemented as 1x1 PSD blocks
so the core solver only sees a single cone type.

Acceptance.  This module alone decides which solver outcome is a bound.
``optimal`` is accepted.  ``numerical_limit`` is accepted only when the
largest of its lmi, adjoint, equality and gap residuals is at most
``ACCEPT_TOL``; otherwise :func:`solve` and :func:`feasibility` raise
SolverError.  Certified ``infeasible`` and ``unbounded`` outcomes are
returned to the caller: as statuses by :func:`solve`, as the verdicts
(False, -inf) and (True, inf) by :func:`feasibility`.  Post-solve utilities
compute numerical ranks of nested principal submatrices of the realized
moment matrix and the flatness verdicts used for finite-convergence
certificates.

Symmetry.  A builder may attach symbol maps (``SdpProblem.symmetries``).
Before the solve each one is turned into a variable permutation, read off
the blocks' entry patterns, and checked: it must map every block, the
constraint set and the objective onto themselves, else SymmetryError.  The
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
averaged point, summed over each orbit.  Correctness rests on the checks
alone; a missed symmetry costs only speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from ._ipm import BlockData, ConeProgram, solve_ipm
from .momentize import CompiledBlock, LinearConstraint, Relation, SdpProblem, _combine
from .ncwords import reduce_word

DEFAULT_TOL = 1e-8
DEFAULT_EPS_FEAS = 1e-6
DEFAULT_TAU_RANK = 1e-6
# Largest residual of a numerical_limit outcome that still counts as a bound.
ACCEPT_TOL = 1e-5


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
    qr_fallbacks: int = 0  # Schur solves that took the QR-then-SVD fallback
    num_orbits: int = 0  # variables the solver saw: one per variable orbit
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


def _merged(terms: dict, label: list) -> dict:
    """A linear form over moment variables, rewritten over their orbits."""
    out: dict = {}
    for vid, coef in terms.items():
        _combine(out, label[vid], coef)
    return out


def _form_key(terms: dict) -> tuple:
    return tuple(sorted((v, round(c, 12)) for v, c in terms.items()))


def _variable_permutation(problem: SdpProblem, perm: dict, keys: set) -> np.ndarray:
    """Variable permutation sigma induced by the symbol map ``perm``.

    Each block's row words are mapped and reduced, giving a row permutation
    rho; sigma sends the variable at (i, j) to the one at (rho i, rho j).
    Raises SymmetryError unless sigma is a bijection that maps every block's
    entry pattern, the constraint set (``keys``) and the objective onto
    themselves.
    """
    n = problem.num_vars
    if problem.index is None:
        raise SymmetryError("symmetries need the problem's word index")
    rw = problem.index.rw
    sigma = np.full(n, -1, dtype=np.int64)
    src, dst, multi = [], [], []
    for blk in problem.blocks:
        s = blk.size
        where = {w: i for i, w in enumerate(blk.row_words)}
        rho = np.array([
            where.get(reduce_word(tuple(perm.get(a, a) for a in w), rw), -1)
            for w in blk.row_words
        ], dtype=np.int64)
        if (rho < 0).any() or len(set(rho.tolist())) != s:
            raise SymmetryError(f"{blk.label}: row words do not map onto themselves")
        pos = blk.rows * s + blk.cols
        ri, rj = rho[blk.rows], rho[blk.cols]
        img = np.minimum(ri, rj) * s + np.maximum(ri, rj)
        terms = np.bincount(pos, minlength=s * s)
        if not np.array_equal(terms[img], terms[pos]):
            raise SymmetryError(f"{blk.label}: entry pattern does not map onto itself")
        one = terms[pos] == 1
        var_at = np.full(s * s, -1, dtype=np.int64)
        coef_at = np.zeros(s * s)
        var_at[pos[one]] = blk.var_ids[one]
        coef_at[pos[one]] = blk.coefs[one]
        if not np.allclose(coef_at[img[one]], blk.coefs[one], rtol=1e-12, atol=1e-12):
            raise SymmetryError(f"{blk.label}: entry coefficients change")
        src.append(blk.var_ids[one])
        dst.append(var_at[img[one]])
        sigma[src[-1]] = dst[-1]
        if not one.all():
            multi.append((blk, pos, img))
    free = sigma < 0  # in no single-term entry: held fixed, then checked
    sigma[free] = np.nonzero(free)[0]
    if any(not np.array_equal(sigma[a], b) for a, b in zip(src, dst)):
        raise SymmetryError("entries of one variable map to different variables")
    if np.unique(sigma).size != n:
        raise SymmetryError("the induced variable map is not a bijection")

    def image(terms: dict) -> dict:
        return {int(sigma[v]): c for v, c in terms.items()}

    for blk, pos, img in multi:
        forms: dict = {}
        for p, v, cf in zip(pos.tolist(), blk.var_ids.tolist(), blk.coefs.tolist()):
            forms.setdefault(p, {})[v] = cf
        for p, q in set(zip(pos.tolist(), img.tolist())):
            if _form_key(image(forms[p])) != _form_key(forms[q]):
                raise SymmetryError(
                    f"{blk.label}: entry forms do not map onto themselves")
    for con in problem.constraints:
        if LinearConstraint(image(con.terms), con.rhs, con.relation).key() not in keys:
            raise SymmetryError(
                f"constraint {con.terms} maps outside the constraint set")
    if _form_key(image(problem.objective)) != _form_key(problem.objective):
        raise SymmetryError("the objective changes")
    return sigma


def _orbit_labels(problem: SdpProblem) -> np.ndarray:
    """Orbit label of every variable under the group of ``problem.symmetries``.

    Labels are 0..m-1, numbered by each orbit's least variable; without
    symmetries every variable is its own orbit.
    """
    n = problem.num_vars
    parent = list(range(n))

    def root(a):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    if problem.symmetries:
        keys = {con.key() for con in problem.constraints}
        for perm in problem.symmetries:
            for a, b in enumerate(_variable_permutation(problem, perm, keys).tolist()):
                ra, rb = root(a), root(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    return np.unique([root(a) for a in range(n)], return_inverse=True)[1]


def _build_cone_program(
    problem: SdpProblem, margin: bool = False
) -> Tuple[ConeProgram, float, np.ndarray]:
    """Translate an LMI-form problem into the solver's internal data.

    Returns (program, sign, label); the solver maximizes sign * (original
    objective) over one variable z[o] per orbit o, and y = z[label].  With
    ``margin`` the program is instead the margin program
    max { t : every block - t*I is PSD }, t being the variable after the
    orbits.
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
    seen = set()
    for con in problem.ge_constraints:
        covered[list(con.terms)] = True
        merged = LinearConstraint(_merged(con.terms, lab), con.rhs, Relation.GE)
        if merged.key() in seen or (not merged.terms and con.rhs <= 0):
            continue  # an orbit image of an earlier inequality, or 0 >= rhs
        seen.add(merged.key())
        items = sorted(merged.terms.items())
        z = np.zeros(len(items), dtype=np.int64)
        blocks.append(BlockData(1, np.array([[-con.rhs]]),
                                np.array([v for v, _ in items], dtype=np.int64), z, z,
                                np.array([cf for _, cf in items], dtype=float)))

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

    eqs, seen = [], set()
    for con in problem.eq_constraints:
        merged = LinearConstraint(_merged(con.terms, lab), con.rhs)
        if (merged.terms or merged.rhs) and merged.key() not in seen:
            seen.add(merged.key())
            eqs.append(merged)
    if eqs:
        A = np.zeros((len(eqs), nv))
        d = np.array([con.rhs for con in eqs])
        for i, con in enumerate(eqs):
            A[i, list(con.terms)] = list(con.terms.values())
    else:
        A, d = None, None
    return ConeProgram(nv, objective, blocks, A, d).finalize(), sign, label


def _accepted(res, problem: SdpProblem) -> dict:
    """Residuals of an IPM result; SolverError if it is no bound.

    A numerical_limit outcome whose largest residual exceeds ``ACCEPT_TOL``
    is rejected; every other outcome passes.
    """
    resid = {
        "lmi": res.err_lmi,
        "adjoint": res.err_adj,
        "equality": res.err_eq,
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


def solve(problem: SdpProblem) -> SdpSolution:
    """Solve an assembled moment SDP with the interior-point method.

    The returned objective is the moment-side value; the dual objective is in
    ``residuals["dual_objective"]``.  Raises SolverError on a numerical_limit
    outcome that the module's acceptance rule rejects.
    """
    prog, sign, label = _build_cone_program(problem)
    res = solve_ipm(prog, tol=DEFAULT_TOL)
    residuals = _accepted(res, problem)
    status = SolveStatus(res.status)
    y = res.y[label]
    mi = problem.moment_block_index()
    mom = problem.blocks[mi].materialize(y) if status != SolveStatus.INFEASIBLE else None
    return SdpSolution(
        status=status,
        objective=float(sign * res.pobj),
        y=y,
        moment_matrix=mom,
        moment_degrees=problem.blocks[mi].row_degrees,
        iterations=res.iterations,
        qr_fallbacks=res.qr_fallbacks,
        num_orbits=prog.nvars,
        residuals={**residuals, "dual_objective": float(sign * res.dobj)},
        certificate=res.certificate,
        problem=problem,
    )


def feasibility(problem: SdpProblem) -> Tuple[bool, float]:
    """Decide feasibility via the margin program max { t : blocks >= t*I }.

    The input must have no objective.  Feasible iff the optimal margin is
    >= -DEFAULT_EPS_FEAS; the margin is returned alongside.  The equality
    constraints must pin the normalization (e.g. L(1) = 1), otherwise the
    margin program is unbounded.
    """
    if problem.objective:
        raise ValueError("feasibility expects a problem without objective")
    prog, _, _ = _build_cone_program(problem, margin=True)
    res = solve_ipm(prog, tol=DEFAULT_TOL)
    _accepted(res, problem)
    if res.status == "unbounded":
        return True, math.inf
    if res.status == "infeasible":
        return False, -math.inf
    margin = float(res.y[prog.nvars - 1])  # t follows the orbit variables
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
