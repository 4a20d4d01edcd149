"""Symbolic moment and localizing matrices, truncated-ideal constraints,
and their assembly into a concrete block-diagonal SDP.

The SDP is stored in linear-matrix-inequality form over the moment variables
L(w): each block is a symmetric matrix whose entries are linear forms in the
variables, together with linear equality/inequality constraints.  A variable
is one class of reduced words of degree at most 2r, named by its least
member.  The word layer canonicalizes each class where the program meets it;
the moment block meets every class and numbers them (see ``VariableIndex``).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from enum import Enum
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

    def key(self):
        """Equal for rows that cut out the same set: terms sorted by
        variable, and the row divided by its first nonzero coefficient (an
        inequality by its absolute value)."""
        items = sorted(self.terms.items())
        d = next((c for _, c in items if c), 1.0)
        if self.relation != Relation.EQ:
            d = abs(d)
        return (self.relation, tuple((v, round(c / d, 12)) for v, c in items),
                round(self.rhs / d, 12))


def _combine(terms: dict, vid: Optional[int], coeff: float):
    if vid is None or coeff == 0:
        return
    c = terms.get(vid, 0.0) + coeff
    if c == 0:
        terms.pop(vid, None)
    else:
        terms[vid] = c


@dataclass
class SymbolicBlock:
    """Symmetric matrix of linear forms L(u* g v) over a word basis.

    ``entries`` maps upper-triangle positions (i, j), i <= j, to a list of
    (variable id, coefficient) pairs; positions whose form is identically zero
    are absent.
    """

    label: str
    row_words: list
    entries: dict

    @property
    def size(self) -> int:
        return len(self.row_words)

    def dense_forms(self):
        """Iterate (i, j, var_id, coeff) over the stored upper triangle."""
        for (i, j), form in self.entries.items():
            for vid, c in form:
                yield i, j, vid, c


def moment_block(basis_r: Sequence[Word], index: VariableIndex) -> SymbolicBlock:
    """Moment matrix with entry (u, v) = L(u* v).

    Every reduced word of degree <= 2r is u* v for two row words, so this
    block meets every class of the index; it numbers the new ones in
    (degree, lex) order before it maps the entries to ids.  It raises
    BasisSizeError after the first row whose new classes take the index
    past its cap, before it canonicalizes the remaining rows.
    """
    # CPython tracks the acyclic words and forms made here; at r = 3 they push
    # a full collection that frees nothing in here (20 ms, C7, 2-core VM).
    enabled = gc.isenabled()
    gc.disable()
    try:
        canon, new, known = {}, set(), index.id_of
        room = index.cap - len(index)
        for i, u in enumerate(basis_r):
            ustar = involution(u)
            for j in range(i, len(basis_r)):
                w = canonical_reduced(ustar + basis_r[j], index.rw, index.mode)
                if w is not None:
                    canon[(i, j)] = w
                    if w not in known:
                        new.add(w)
            if len(new) > room:
                raise BasisSizeError(
                    f"variable index exceeds cap of {index.cap} words")
        for w in sorted(new, key=lambda w: (len(w), w)):
            index._register(w)
        entries = {ij: [(index.id_of[w], 1.0)] for ij, w in canon.items()}
    finally:
        if enabled:
            gc.enable()
    if not entries or entries.get((0, 0)) != [(0, 1.0)]:
        raise InternalConsistencyError("moment block (1,1) entry must be L(1)")
    return SymbolicBlock("moment", list(basis_r), entries)


def localizing_block(
    g: NcPolynomial,
    r: int,
    index: VariableIndex,
    symbols: Iterable[Symbol],
    label: Optional[str] = None,
) -> SymbolicBlock:
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
    rows = enumerate_basis(symbols, max(d, 0), rw)
    entries = {}
    for i, u in enumerate(rows):
        ustar = involution(u)
        for j in range(i, len(rows)):
            form = index.form((ustar + w + rows[j], c) for w, c in g.terms.items())
            if form:
                entries[(i, j)] = sorted(form.items())
    keep, seen = [], set()
    for i in range(len(rows)):
        row = tuple(tuple(entries.get((min(i, j), max(i, j)), ()))
                    for j in range(len(rows)))
        if any(row) and row not in seen:
            seen.add(row)
            keep.append(i)
    new = {old: k for k, old in enumerate(keep)}
    entries = {(new[i], new[j]): form for (i, j), form in entries.items()
               if i in new and j in new}
    return SymbolicBlock(label or f"loc[{g}]", [rows[i] for i in keep],
                         entries)


def ideal_constraints(
    generators: Iterable[NcPolynomial],
    two_r: int,
    index: VariableIndex,
    symbols: Iterable[Symbol],
) -> list:
    """Equality constraints L(p*h) = 0 over all reduced multipliers p.

    Right multipliers are implied by traciality, so one-sided products
    suffice.  Duplicates (after canonicalization of the full linear form)
    are removed.  Words are reduced with the index's rewrite system.
    """
    rw = index.rw
    gens = [g.reduced(rw) for g in generators]
    out = []
    seen = set()
    for h in gens:
        if h.is_zero():
            continue
        budget = two_r - h.deg
        if budget < 0:
            continue
        for p in enumerate_basis(symbols, budget, rw):
            terms = index.form((p + w, c) for w, c in h.terms.items())
            if not terms:
                continue
            con = LinearConstraint(terms, 0.0, Relation.EQ)
            k = con.key()
            if k not in seen:
                seen.add(k)
                out.append(con)
    return out


def state_commutator_constraints(
    r: int,
    symbols: Iterable[Symbol],
    z: Symbol,
    index: VariableIndex,
) -> list:
    """Equalities L(p z u z v z) = L(p z v z u z) for all word triples in budget.

    Pairs whose two sides canonicalize identically are skipped and the list is
    duplicate-free.  The multiplier p ranges over words reduced with the
    index's rewrite system, so that the full truncated ideal of the
    block-swap relations is covered.
    """
    budget = 2 * r - 3
    if budget < 0:
        return []
    words = enumerate_basis(symbols, budget, index.rw)
    by_deg: dict = {}
    for w in words:
        by_deg.setdefault(len(w), []).append(w)
    out = []
    seen = set()
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
                            if not terms:
                                continue
                            con = LinearConstraint(terms, 0.0, Relation.EQ)
                            k = con.key()
                            if k not in seen:
                                seen.add(k)
                                out.append(con)
    return out


@dataclass
class CompiledBlock:
    """A symbolic block instantiated to per-variable sparse coefficient data.

    The block matrix is B(y) = sum_k coefs[k] * y[var_ids[k]] * E(rows[k], cols[k])
    with E(i, j) the symmetric unit matrix; arrays cover the upper triangle.
    """

    label: str
    size: int
    row_words: list
    row_degrees: np.ndarray
    var_ids: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    coefs: np.ndarray

    def materialize(self, y: np.ndarray) -> np.ndarray:
        m = np.zeros((self.size, self.size))
        np.add.at(m, (self.rows, self.cols), self.coefs * y[self.var_ids])
        low = np.tril(m.T, -1)
        return m + low


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
        eq = [sum(c * y[v] for v, c in con.terms.items()) - con.rhs
              for con in self.eq_constraints]
        ge = [sum(c * y[v] for v, c in con.terms.items()) - con.rhs
              for con in self.ge_constraints]
        return np.array(eq), np.array(ge)


def _trim_zero_rows(block: SymbolicBlock) -> SymbolicBlock:
    live = set()
    for (i, j) in block.entries:
        live.add(i)
        live.add(j)
    if len(live) == block.size:
        return block
    keep = sorted(live)
    remap = {old: new for new, old in enumerate(keep)}
    entries = {(remap[i], remap[j]): v for (i, j), v in block.entries.items()}
    return SymbolicBlock(block.label, [block.row_words[i] for i in keep], entries)


def assemble(
    objective: dict,
    sense: str,
    blocks: Sequence[SymbolicBlock],
    constraints: Sequence[LinearConstraint],
    index: VariableIndex,
    description: str = "",
    r: int = 0,
    metadata: Optional[dict] = None,
    symmetries: Sequence[dict] = (),
) -> SdpProblem:
    """Compile symbolic blocks and constraints into a solver-ready problem.

    Identically-zero rows/columns (index words reduced to zero) are dropped,
    duplicate constraints removed, and per-variable sparse coefficient arrays
    built for every block.  ``symmetries`` are stored as given; the solver
    checks them.
    """
    if not blocks:
        raise ValueError("an SDP needs at least one PSD block")
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")
    nv = len(index)
    for vid in objective:
        if not (0 <= vid < nv):
            raise ValueError(f"objective references unindexed variable {vid}")

    compiled = []
    used = np.zeros(nv, dtype=bool)
    for blk in blocks:
        blk = _trim_zero_rows(blk)
        vids, rows, cols, coefs = [], [], [], []
        for i, j, vid, c in blk.dense_forms():
            vids.append(vid)
            rows.append(i)
            cols.append(j)
            coefs.append(c)
            used[vid] = True
        order = np.lexsort((np.array(cols), np.array(rows)))
        compiled.append(
            CompiledBlock(
                label=blk.label,
                size=blk.size,
                row_words=blk.row_words,
                row_degrees=np.array([len(w) for w in blk.row_words]),
                var_ids=np.array(vids, dtype=np.int64)[order],
                rows=np.array(rows, dtype=np.int64)[order],
                cols=np.array(cols, dtype=np.int64)[order],
                coefs=np.array(coefs, dtype=float)[order],
            )
        )

    dedup, seen = [], set()
    for con in constraints:
        if not con.terms:
            continue
        for vid in con.terms:
            if not (0 <= vid < nv):
                raise ValueError(f"constraint references unindexed variable {vid}")
            used[vid] = True
        k = con.key()
        if k not in seen:
            seen.add(k)
            dedup.append(con)

    meta = dict(metadata or {})
    meta.setdefault("block_sizes", [b.size for b in compiled])
    meta.setdefault("num_eq", sum(c.relation == Relation.EQ for c in dedup))
    meta.setdefault("num_ge", sum(c.relation == Relation.GE for c in dedup))
    meta.setdefault("num_vars_used", int(used.sum()))
    return SdpProblem(
        objective=dict(objective),
        sense=sense,
        blocks=compiled,
        constraints=dedup,
        num_vars=nv,
        index=index,
        description=description,
        r=r,
        metadata=meta,
        symmetries=list(symmetries),
    )
