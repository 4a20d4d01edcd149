"""Moment and localizing matrices, truncated-ideal constraints, and their
assembly into a concrete block-diagonal SDP.

The SDP is stored in linear-matrix-inequality form over the moment variables
L(w): each block is a symmetric matrix whose entries are linear forms in the
variables, together with linear equality/inequality constraints.  A variable
is one class of reduced words of degree at most 2r, named by its least
member.  The word layer canonicalizes each class where the program meets it;
the moment block meets every class and numbers them (see ``VariableIndex``).

A block has one format from the builder to the solver (``CompiledBlock``):
its row words and coordinate arrays ``rows``, ``cols``, ``var_ids`` and
``coefs`` over the upper triangle.  ``moment_block`` and ``localizing_block``
write them as they go, and ``assemble`` only drops rows that hold no term.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

from .ncwords import (
    BasisSizeError,
    EquivalenceMode,
    IDENTITY,
    NcPolynomial,
    RewriteSystem,
    Symbol,
    Word,
    _combine,
    canonical_reduced,
    enumerate_basis,
    involution,
    word_str,
)


class InternalConsistencyError(RuntimeError):
    """A word outside the variable index was encountered during assembly."""


class VariableIndex:
    """Numbering of the word classes that a program meets, degree <= 2r.

    A moment variable is one class of reduced words (merged under ``mode``)
    of degree at most 2r.  Id 0 is the identity word, i.e. the moment L(1);
    every other class gets the next id when the program first meets it.  The
    builders assemble the moment block first, and :func:`moment_block`
    registers its classes in (degree, lex) order, so the ids follow that
    order.  Words whose class collapses to zero under the rewrite system have
    no id.
    """

    def __init__(
        self,
        two_r: int,
        rw: RewriteSystem,
        mode: EquivalenceMode = EquivalenceMode.TRACIAL_SYMMETRIC,
        cap: int = 200_000,
    ):
        self.rw = rw
        self.mode = mode
        self.two_r = two_r
        self.cap = cap
        self.words = [IDENTITY]
        self.id_of = {IDENTITY: 0}

    def __len__(self) -> int:
        return len(self.words)

    def _register(self, w: Word) -> int:
        """Id of the canonical word ``w``, numbering it when it is new."""
        vid = self.id_of.get(w)
        if vid is not None:
            return vid
        if len(w) > self.two_r:
            raise InternalConsistencyError(
                f"word {word_str(w)} (degree {len(w)}) exceeds the "
                f"degree-{self.two_r} variable index"
            )
        if len(self.words) >= self.cap:
            raise BasisSizeError(f"variable index exceeds cap of {self.cap} words")
        vid = len(self.words)
        self.words.append(w)
        self.id_of[w] = vid
        return vid

    def var_of(self, word: Word) -> Optional[int]:
        """Variable id of the class of ``word``; None when the class is zero."""
        w = canonical_reduced(word, self.rw, self.mode)
        return None if w is None else self._register(w)

    def form(self, terms: Iterable) -> dict:
        """Linear form {id: coefficient} of (word, coefficient) pairs.

        Coefficients of one class add up; zero classes and terms that cancel
        are dropped.
        """
        out: dict = {}
        for w, c in terms:
            _combine(out, self.var_of(w), c)
        return out


class Relation(Enum):
    EQ = "eq"
    GE = "ge"


@dataclass
class LinearConstraint:
    """Sparse linear form over variable ids, compared against ``rhs``."""

    terms: dict
    rhs: float
    relation: Relation = Relation.EQ

    def key(self) -> bytes:
        """Equal exactly for rows in one class of the row rule (see
        ``_key_rows``), i.e. rows that cut out the same set."""
        _, var, coef, eq, rhs = _term_arrays([self])
        return _key_rows(var[None], coef[None], eq, rhs)[0].tobytes()


def _key_rows(V: np.ndarray, C: np.ndarray, eq: np.ndarray,
              rhs: np.ndarray) -> np.ndarray:
    """The row rule: one byte key per constraint of equal term count, equal
    exactly for rows that cut out the same set.  A key holds the terms
    sorted by variable and the row divided by its first nonzero coefficient
    (an inequality by its absolute value), rounded to 12 decimals.

    V and C hold the variables and coefficients, one row per constraint;
    ``eq`` marks the equalities.  Every comparison of constraints, here and
    in :mod:`ncmoment.conic`, goes through this rule.
    """
    m, k = V.shape
    idx = np.arange(m)[:, None], np.argsort(V, axis=1)
    C = C[idx]
    lead = np.concatenate([C, np.ones((m, 1))], axis=1)  # a row of zeros is divided by 1
    d = lead[np.arange(m), (lead != 0).argmax(axis=1)]
    d = np.where(eq, d, np.abs(d))
    rows = np.empty((m, 2 + 2 * k))
    rows[:, 0], rows[:, 1], rows[:, 2:2 + k] = eq, np.round(rhs / d, 12), V[idx]
    rows[:, 2 + k:] = np.round(C / d[:, None], 12)
    rows += 0.0  # no -0.0
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def _term_arrays(constraints: Sequence[LinearConstraint]) -> tuple:
    """(cid, var, coef, eq, rhs): every term of the constraints as
    (constraint id, variable, coefficient), in order, and per constraint
    whether it is an equality and its right-hand side."""
    size = np.fromiter((len(c.terms) for c in constraints), np.int64, len(constraints))
    total = int(size.sum())
    cid = np.repeat(np.arange(len(constraints)), size)
    var = np.fromiter(chain.from_iterable(c.terms for c in constraints), np.int64, total)
    coef = np.fromiter(chain.from_iterable(c.terms.values() for c in constraints),
                       float, total)
    eq = np.fromiter((c.relation == Relation.EQ for c in constraints), bool,
                     len(constraints))
    rhs = np.fromiter((c.rhs for c in constraints), float, len(constraints))
    return cid, var, coef, eq, rhs


def row_residuals(constraints: Sequence[LinearConstraint], y: np.ndarray) -> tuple:
    """Every constraint's form at y less its right-hand side, and the
    right-hand sides; one pass over the terms, summed in their order."""
    cid, var, coef, _, rhs = _term_arrays(constraints)
    return np.bincount(cid, coef * y[var], len(constraints)) - rhs, rhs


def _groups(cid, var, coef, ncon: int) -> dict:
    """{term count: (constraint ids, variables, coefficients)}, one row per
    constraint, of the forms whose terms are (constraint id, variable,
    coefficient) sorted by constraint id."""
    cnt = np.bincount(cid, minlength=ncon)
    o = np.argsort(cnt[cid], kind="stable")
    var, coef = var[o], coef[o]
    out, at = {}, 0
    for size in np.flatnonzero(np.bincount(cnt)).tolist():
        ids = np.flatnonzero(cnt == size)
        k = len(ids) * size
        shape = (len(ids), size)
        out[size] = (ids, var[at:at + k].reshape(shape), coef[at:at + k].reshape(shape))
        at += k
    return out


def row_classes(constraints: Sequence[LinearConstraint]) -> np.ndarray:
    """For every constraint, the index of the first constraint in its class
    of the row rule (``_key_rows``)."""
    cid, var, coef, eq, rhs = _term_arrays(constraints)
    first = np.arange(len(constraints))
    for ids, V, C in _groups(cid, var, coef, len(constraints)).values():
        _, lead, inv = np.unique(_key_rows(V, C, eq[ids], rhs[ids]),
                                 return_index=True, return_inverse=True)
        first[ids] = ids[lead][inv.reshape(-1)]
    return first


def distinct(constraints: Sequence[LinearConstraint]) -> list:
    """The first constraint of every class of rows that cut out the same
    set (``_key_rows``), in their order."""
    first = row_classes(constraints)
    return [constraints[i] for i in np.flatnonzero(first == np.arange(len(first)))]


@dataclass
class CompiledBlock:
    """Symmetric matrix of linear forms L(u* g v) over a word basis, as
    coordinate arrays over the upper triangle.

    The block matrix is B(y) = sum_k coefs[k] * y[var_ids[k]] * E(rows[k], cols[k])
    with E(i, j) the symmetric unit matrix.  Terms are ordered by row, then
    column, then variable within an entry; entries whose form is identically
    zero have no term.
    """

    label: str
    row_words: list
    var_ids: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    coefs: np.ndarray

    @property
    def size(self) -> int:
        return len(self.row_words)

    @property
    def row_degrees(self) -> np.ndarray:
        return np.array([len(w) for w in self.row_words])

    def materialize(self, y: np.ndarray) -> np.ndarray:
        m = np.zeros((self.size, self.size))
        np.add.at(m, (self.rows, self.cols), self.coefs * y[self.var_ids])
        low = np.tril(m.T, -1)
        return m + low


def moment_block(basis_r: Sequence[Word], index: VariableIndex) -> CompiledBlock:
    """Moment matrix with entry (u, v) = L(u* v).

    Every reduced word of degree <= 2r is u* v for two row words, so this
    block meets every class of the index.  A class the index does not hold
    yet gets a provisional id; after the last row the new classes are
    numbered in (degree, lex) order and the provisional ids mapped to them
    with one lookup.  It raises BasisSizeError after the first row whose new
    classes take the index past its cap, before it canonicalizes the
    remaining rows.
    """
    # CPython tracks the acyclic words made here; at r = 3 they push a full
    # collection that frees nothing in here (20 ms, C7, 2-core VM).
    enabled = gc.isenabled()
    gc.disable()
    try:
        rw, mode, known = index.rw, index.mode, index.id_of.get
        n, nv, room = len(basis_r), len(index), index.cap - len(index)
        ids, fresh = [], {}  # ids: one per upper-triangle entry, -1 for zero
        for i, u in enumerate(basis_r):
            ustar = involution(u)
            for j in range(i, n):
                w = canonical_reduced(ustar + basis_r[j], rw, mode)
                if w is None:
                    ids.append(-1)
                    continue
                vid = known(w)
                if vid is None:
                    vid = fresh.setdefault(w, nv + len(fresh))
                ids.append(vid)
            if len(fresh) > room:
                raise BasisSizeError(
                    f"variable index exceeds cap of {index.cap} words")
        for w in sorted(fresh, key=lambda w: (len(w), w)):
            index._register(w)
    finally:
        if enabled:
            gc.enable()
    final = np.arange(nv + len(fresh))
    final[nv:] = [index.id_of[w] for w in fresh]
    ids = np.array(ids, dtype=np.int64)
    if not ids.size or ids[0] != 0:
        raise InternalConsistencyError("moment block (1,1) entry must be L(1)")
    live = ids >= 0
    rows, cols = np.triu_indices(n)
    return CompiledBlock("moment", list(basis_r), final[ids[live]], rows[live],
                         cols[live], np.ones(int(live.sum())))


def localizing_block(
    g: NcPolynomial,
    r: int,
    index: VariableIndex,
    symbols: Iterable[Symbol],
    label: Optional[str] = None,
) -> CompiledBlock:
    """Localizing matrix for a symmetric generator g.

    Rows and columns are indexed by words of degree at most r - ceil(deg(g)/2);
    entry (u, v) is the linear form of L(u* g v).  Words are reduced with the
    index's rewrite system.

    A row whose forms are all zero, or that repeats an earlier row form for
    form, is dropped: it makes every point of the program singular (with
    g = z idempotent, rows 1 and z agree), and M is PSD exactly when the
    matrix without it is.
    """
    rw = index.rw
    g = g.reduced(rw)
    if not g.is_symmetric(rw):
        raise ValueError(f"generator {g} is not symmetric after reduction")
    d = r - (g.deg + 1) // 2
    words = enumerate_basis(symbols, max(d, 0), rw)
    n = len(words)
    forms = [[()] * n for _ in range(n)]  # sorted (variable, coefficient) pairs
    for i, u in enumerate(words):
        ustar = involution(u)
        for j in range(i, n):
            form = index.form((ustar + w + words[j], c) for w, c in g.terms.items())
            forms[i][j] = forms[j][i] = tuple(sorted(form.items()))
    keep, seen = [], set()
    for i, row in enumerate(map(tuple, forms)):
        if any(row) and row not in seen:
            seen.add(row)
            keep.append(i)
    terms = [(a, b, vid, c) for a, i in enumerate(keep)
             for b in range(a, len(keep)) for vid, c in forms[i][keep[b]]]
    rows, cols, vids, coefs = zip(*terms) if terms else ((),) * 4
    return CompiledBlock(label or f"loc[{g}]", [words[i] for i in keep],
                         np.array(vids, dtype=np.int64), np.array(rows, dtype=np.int64),
                         np.array(cols, dtype=np.int64), np.array(coefs, dtype=float))


def ideal_constraints(
    generators: Iterable[NcPolynomial],
    two_r: int,
    index: VariableIndex,
    symbols: Iterable[Symbol],
) -> list:
    """Equality constraints L(p*h) = 0 over all reduced multipliers p.

    Right multipliers are implied by traciality, so one-sided products
    suffice.  Rows that cut out the same set are kept once (``distinct``).
    Words are reduced with the index's rewrite system.
    """
    rw = index.rw
    gens = [g.reduced(rw) for g in generators]
    out = []
    for h in gens:
        if h.is_zero():
            continue
        budget = two_r - h.deg
        if budget < 0:
            continue
        for p in enumerate_basis(symbols, budget, rw):
            terms = index.form((p + w, c) for w, c in h.terms.items())
            if terms:
                out.append(LinearConstraint(terms, 0.0, Relation.EQ))
    return distinct(out)


def state_commutator_constraints(
    r: int,
    symbols: Iterable[Symbol],
    z: Symbol,
    index: VariableIndex,
) -> list:
    """Equalities L(p z u z v z) = L(p z v z u z) for all word triples in budget.

    Pairs whose two sides canonicalize identically are skipped, and rows that
    cut out the same set are kept once (``distinct``).  The multiplier p
    ranges over words reduced with the index's rewrite system, so that the
    full truncated ideal of the block-swap relations is covered.
    """
    budget = 2 * r - 3
    if budget < 0:
        return []
    words = enumerate_basis(symbols, budget, index.rw)
    by_deg: dict = {}
    for w in words:
        by_deg.setdefault(len(w), []).append(w)
    out = []
    max_deg = max(by_deg)
    for du in range(0, max_deg + 1):
        for dv in range(du, max_deg + 1 - du):
            for dp in range(0, budget - du - dv + 1):
                for u in by_deg.get(du, ()):
                    for v in by_deg.get(dv, ()):
                        if u >= v:
                            continue
                        for p in by_deg.get(dp, ()):
                            lhs = index.var_of(p + (z,) + u + (z,) + v + (z,))
                            rhs = index.var_of(p + (z,) + v + (z,) + u + (z,))
                            if lhs == rhs:
                                continue
                            terms: dict = {}
                            _combine(terms, lhs, 1.0)
                            _combine(terms, rhs, -1.0)
                            if terms:
                                out.append(LinearConstraint(terms, 0.0, Relation.EQ))
    return distinct(out)


@dataclass
class SdpProblem:
    """Concrete SDP over moment variables.

    minimize/maximize  sum_k objective[k] * y[k]
    subject to         every compiled block is PSD,
                       the EQ constraints hold, the GE constraints hold.
    """

    objective: dict
    sense: str  # "min" or "max"
    blocks: list
    constraints: list
    num_vars: int
    index: Optional[VariableIndex] = None
    description: str = ""
    r: int = 0
    metadata: dict = field(default_factory=dict)
    # Symbol maps (Symbol -> Symbol or an affine NcPolynomial, symbols left
    # out stay fixed) that map the program onto itself; the solver checks
    # them and solves on the fixed subspace of the group they generate.
    symmetries: list = field(default_factory=list)

    @property
    def eq_constraints(self):
        return [c for c in self.constraints if c.relation == Relation.EQ]

    @property
    def ge_constraints(self):
        return [c for c in self.constraints if c.relation == Relation.GE]

    def moment_block_index(self) -> int:
        for k, b in enumerate(self.blocks):
            if b.label == "moment":
                return k
        return 0

    def constraint_residuals(self, y: np.ndarray):
        return (row_residuals(self.eq_constraints, y)[0],
                row_residuals(self.ge_constraints, y)[0])


def _trim_zero_rows(blk: CompiledBlock) -> CompiledBlock:
    """The block without its rows and columns that hold no term."""
    live = np.zeros(blk.size, dtype=bool)
    live[blk.rows] = live[blk.cols] = True
    if live.all():
        return blk
    new = np.cumsum(live) - 1
    return CompiledBlock(blk.label, [w for w, k in zip(blk.row_words, live) if k],
                         blk.var_ids, new[blk.rows], new[blk.cols], blk.coefs)


def assemble(
    objective: dict,
    sense: str,
    blocks: Sequence[CompiledBlock],
    constraints: Sequence[LinearConstraint],
    index: VariableIndex,
    description: str = "",
    r: int = 0,
    metadata: Optional[dict] = None,
    symmetries: Sequence[dict] = (),
) -> SdpProblem:
    """Collect blocks and constraints into a solver-ready problem.

    Block rows and columns that hold no term (index words reduced to zero)
    are dropped, constraints without terms dropped and the rest kept once
    per class of rows that cut out the same set (``distinct``).
    ``symmetries`` are stored as given; the solver checks them.
    """
    if not blocks:
        raise ValueError("an SDP needs at least one PSD block")
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")
    nv = len(index)
    for vid in objective:
        if not (0 <= vid < nv):
            raise ValueError(f"objective references unindexed variable {vid}")

    blocks = [_trim_zero_rows(blk) for blk in blocks]
    used = np.zeros(nv, dtype=bool)
    for blk in blocks:
        used[blk.var_ids] = True

    live = [con for con in constraints if con.terms]
    for con in live:
        for vid in con.terms:
            if not (0 <= vid < nv):
                raise ValueError(f"constraint references unindexed variable {vid}")
            used[vid] = True
    dedup = distinct(live)

    meta = dict(metadata or {})
    meta.setdefault("block_sizes", [b.size for b in blocks])
    meta.setdefault("num_eq", sum(c.relation == Relation.EQ for c in dedup))
    meta.setdefault("num_ge", sum(c.relation == Relation.GE for c in dedup))
    meta.setdefault("num_vars_used", int(used.sum()))
    return SdpProblem(
        objective=dict(objective),
        sense=sense,
        blocks=blocks,
        constraints=dedup,
        num_vars=nv,
        index=index,
        description=description,
        r=r,
        metadata=meta,
        symmetries=list(symmetries),
    )
