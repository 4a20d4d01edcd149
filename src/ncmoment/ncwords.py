"""Words in noncommuting self-adjoint symbols.

This module provides the symbolic layer underneath the moment hierarchies:
symbols with a fixed total order, words with involution, equivalence-class
canonicalization (plain / symmetric / tracial-symmetric), and monomial
rewriting modulo the three supported rule classes (zero pairs, idempotent
symbols, and two parties whose symbols commute).  Everything here is
immutable and pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable, Iterator, NamedTuple, Optional


class Family(IntEnum):
    """Symbol families; order matters for the canonical symbol order."""

    X = 0  # first-party measurement symbol
    Y = 1  # second-party measurement symbol
    Z = 2  # state symbol
    VERT = 3  # graph vertex variable (optionally color-labeled)


class Symbol(NamedTuple):
    """Self-adjoint generator, totally ordered by (family, question, answer)."""

    family: Family
    question: int
    answer: int

    def __str__(self):
        if self.family == Family.X:
            return f"x{self.question}^{self.answer}"
        if self.family == Family.Y:
            return f"y{self.question}^{self.answer}"
        if self.family == Family.Z:
            return "z"
        if self.answer:
            return f"v{self.question}c{self.answer}"
        return f"v{self.question}"


def alice(question: int, answer: int) -> Symbol:
    return Symbol(Family.X, question, answer)


def bob(question: int, answer: int) -> Symbol:
    return Symbol(Family.Y, question, answer)


def state_symbol() -> Symbol:
    return Symbol(Family.Z, 0, 0)


def vertex(i: int, color: int = 0) -> Symbol:
    return Symbol(Family.VERT, i, color)


# A word is a tuple of symbols; the empty tuple is the multiplicative identity.
Word = tuple
IDENTITY: Word = ()


def involution(word: Word) -> Word:
    """Reverse the symbol sequence (symbols are self-adjoint)."""
    return word[::-1]


def word_str(word: Word) -> str:
    return "1" if not word else "*".join(str(s) for s in word)


class EquivalenceMode(IntEnum):
    PLAIN = 0
    SYMMETRIC = 1
    TRACIAL_SYMMETRIC = 2


class RewriteError(ValueError):
    """Raised for rule sets outside the supported (terminating) classes."""


@dataclass(frozen=True)
class RewriteSystem:
    """Degree-nonincreasing rewriting rules.

    zero_pairs    -- adjacent patterns (a, b) that annihilate a word;
    idempotents   -- symbols s with s*s -> s;
    swap_patterns -- adjacent patterns (a, b) rewritten to (b, a);
    commutative   -- if set, all symbols commute and words are kept sorted
                     (swap_patterns must then be empty).

    The swap patterns must make two parties commute: with L the symbols named
    second in a pattern and R those named first, the patterns are exactly
    R x L, and L and R are disjoint.  Rewriting then moves every L symbol left
    of the R symbols next to it and terminates; the constructor rejects any
    other swap set.
    """

    zero_pairs: frozenset = frozenset()
    idempotents: frozenset = frozenset()
    swap_patterns: frozenset = frozenset()
    commutative: bool = False
    # Derived from the rules above: ``fires`` holds the adjacent pairs (a, b)
    # that some rule rewrites; ``zero_either`` and ``fires_either`` hold the
    # zero pairs and the ``fires`` pairs together with their reversals;
    # ``swap_left`` is L and ``swap_symbols`` is L | R.
    fires: frozenset = field(init=False, repr=False, compare=False)
    zero_either: frozenset = field(init=False, repr=False, compare=False)
    fires_either: frozenset = field(init=False, repr=False, compare=False)
    swap_left: frozenset = field(init=False, repr=False, compare=False)
    swap_symbols: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fires = (self.zero_pairs | self.swap_patterns
                 | {(s, s) for s in self.idempotents})
        left = frozenset(b for _, b in self.swap_patterns)
        right = frozenset(a for a, _ in self.swap_patterns)
        object.__setattr__(self, "fires", fires)
        object.__setattr__(self, "zero_either",
                           self.zero_pairs | {(b, a) for a, b in self.zero_pairs})
        object.__setattr__(self, "fires_either", fires | {(b, a) for a, b in fires})
        object.__setattr__(self, "swap_left", left)
        object.__setattr__(self, "swap_symbols", left | right)
        if self.commutative and self.swap_patterns:
            raise RewriteError("commutative systems take no explicit swap rules")
        if left & right or len(self.swap_patterns) != len(left) * len(right):
            raise RewriteError("swap rules must make two disjoint parties commute")
        # Swapping a symbol past another can break or create adjacency of a
        # zero/idempotent pattern, losing confluence; keep the alphabets of
        # the swap rules disjoint from the other two rule classes.
        zero_syms = {s for pat in self.zero_pairs for s in pat}
        if self.swap_symbols & zero_syms:
            raise RewriteError("swap and zero rules must use disjoint symbols")
        if self.swap_symbols & set(self.idempotents):
            raise RewriteError("swap rules cannot involve idempotent symbols")


EMPTY_REWRITES = RewriteSystem()


def reduce_word(word: Word, rw: RewriteSystem) -> Optional[Word]:
    """Normal form of ``word`` under ``rw``; ``None`` when a zero rule fires.

    The result contains no rewritable pattern.  Rules are degree-nonincreasing
    so the scan terminates; confluence on the supported rule classes is
    exercised exhaustively in the test suite.
    """
    if not rw.commutative and rw.fires.isdisjoint(zip(word, word[1:])):
        return tuple(word)
    w = list(word)
    if rw.commutative:
        w.sort()
    zero = rw.zero_pairs
    fires = rw.fires
    i = 0
    while i < len(w) - 1:
        a, b = w[i], w[i + 1]
        if (a, b) not in fires:
            i += 1
            continue
        if (a, b) in zero:
            return None
        if a == b:  # idempotent: swap rules never pair a symbol with itself
            del w[i + 1]
        else:
            w[i], w[i + 1] = b, a
        i = max(i - 1, 0)
    if rw.commutative:
        # Sorting makes equal symbols adjacent, but zero pairs may straddle
        # other symbols; in the commutative case any co-occurrence counts.
        support = set(w)
        for a, b in zero:
            if a in support and b in support:
                return None
        if len(w) >= 2:
            for a in support:
                if w.count(a) >= 2 and (a, a) in zero:
                    return None
    return tuple(w)


def _class_candidates(word: Word, mode: EquivalenceMode) -> Iterator[Word]:
    yield word
    if mode == EquivalenceMode.PLAIN:
        return
    rev = involution(word)
    yield rev
    if mode == EquivalenceMode.SYMMETRIC:
        return
    n = len(word)
    for k in range(1, n):
        yield word[k:] + word[:k]
        yield rev[k:] + rev[:k]


def canonical(word: Word, mode: EquivalenceMode) -> Word:
    """Minimum of the equivalence class of ``word`` under degree-then-lex order.

    No rewriting is applied; see :func:`canonical_reduced` for the combined
    closure used by the moment assembly.
    """
    return min(_class_candidates(word, mode))


def canonical_reduced(
    word: Word, rw: RewriteSystem, mode: EquivalenceMode
) -> Optional[Word]:
    """Least reduced member of the class of ``word`` by (degree, lex), or
    ``None`` when the class is zero.

    The class is closed under rewriting, reversal and, in the tracial mode,
    cyclic shifts.  In the symmetric mode it holds the reduced word and its
    reduced reversal.  In the tracial mode, with ``w`` the reduced word, read
    its pairs (w[k-1], w[k]) cyclically, in both directions:

    (a) zero -- one is a zero pair: a rotation or reversed rotation starts
        with it, so the class is zero;
    (c) idempotent wrap -- w[-1] == w[0] is idempotent: merging the two
        drops the pair (w[0], w[0]) and keeps every other;
    (b) clean -- then no pair fires a rule: every rotation of ``w`` and of
        its reversal is reduced and of one length; return the least.

    Without swap rules (a) to (c) decide every word.  With them ``w`` is a
    cycle of separators (symbols outside the two parties) and segments, each
    a pair (X, Y) of an L-word and an R-word, which commute.  A separator
    commutes with nothing and no rule merges party symbols, so a member of
    least degree is a cut of this cycle.  A cut inside segment (X, Y) splits
    X and Y apart: ``X[a:] + Y[b:] + middle + X[:a] + Y[:b]``, over every
    segment, every a and b, and both orientations.  Without a separator the
    two parts rotate independently.
    """
    w = reduce_word(word, rw)
    if w is None or mode == EquivalenceMode.PLAIN or rw.commutative:
        return w
    if mode == EquivalenceMode.SYMMETRIC:
        rev = reduce_word(involution(w), rw)
        return None if rev is None else min(w, rev)
    if len(w) < 2:
        return w
    if not rw.zero_either.isdisjoint(zip(w[-1:] + w[:-1], w)):
        return None
    if w[-1] == w[0] and w[0] in rw.idempotents:
        w = w[:-1]
    if rw.fires_either.isdisjoint(zip(w[-1:] + w[:-1], w)):
        return min(_class_candidates(w, mode))
    return min(_cuts(w, rw))


def _least_rotation(word: Word) -> Word:
    return min((word[k:] + word[:k] for k in range(len(word))), default=word)


def _cuts(w: Word, rw: RewriteSystem) -> Iterator[Word]:
    """The least-degree tracial class members of a reduced swap-system word
    (see :func:`canonical_reduced`)."""
    left = rw.swap_left
    for v in (w, reduce_word(involution(w), rw)):
        seps = [i for i, s in enumerate(v) if s not in rw.swap_symbols]
        if not seps:
            k = sum(s in left for s in v)
            yield _least_rotation(v[:k]) + _least_rotation(v[k:])
            continue
        v = v[seps[0]:] + v[:seps[0]]
        ends = [i - seps[0] for i in seps] + [len(v)]
        units = []
        for i, j in zip(ends, ends[1:]):
            seg = v[i + 1:j]
            units.append((v[i], tuple(s for s in seg if s in left),
                          tuple(s for s in seg if s not in left)))
        blocks = [(s,) + x + y for s, x, y in units]
        for j, (s, x, y) in enumerate(units):
            middle = sum(blocks[j + 1:] + blocks[:j], ()) + (s,)
            for a in range(len(x) + 1):
                for b in range(len(y) + 1):
                    yield x[a:] + y[b:] + middle + x[:a] + y[:b]


class BasisSizeError(RuntimeError):
    """Raised when a word basis outgrows the configured cap."""


def enumerate_basis(
    symbols: Iterable[Symbol],
    max_degree: int,
    rw: RewriteSystem = EMPTY_REWRITES,
    cap: int = 200_000,
) -> list:
    """All reduced, pairwise-distinct words of degree <= max_degree.

    The list is sorted by (degree, symbol-lex); the identity word comes first.
    These are the row bases of moment and localizing matrices and the
    multipliers of ideal constraints; the moment variables, one per class of
    such words, are numbered by :class:`ncmoment.momentize.VariableIndex`.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    syms = sorted(set(symbols))
    # BFS: every reduced word's prefix is reduced, so extending by single
    # symbols is complete.
    seen = {IDENTITY}
    out = [IDENTITY]
    frontier = [IDENTITY]
    for d in range(1, max_degree + 1):
        nxt = []
        for w in frontier:
            for s in syms:
                r = reduce_word(w + (s,), rw)
                if r is None or len(r) != d or r in seen:
                    continue  # shorter normal forms were already enumerated
                seen.add(r)
                nxt.append(r)
                if len(seen) > cap:
                    raise BasisSizeError(f"word basis exceeds cap of {cap} words")
        nxt.sort()
        out.extend(nxt)
        frontier = nxt
    return out


def _combine(terms: dict, key, coeff: float):
    """terms[key] += coeff, dropping a sum that is zero; a key of None (a
    word or class that is zero) or a zero coefficient adds nothing."""
    if key is None or coeff == 0:
        return
    c = terms.get(key, 0.0) + coeff
    if c == 0:
        terms.pop(key, None)
    else:
        terms[key] = c


@dataclass(frozen=True)
class NcPolynomial:
    """Formal real linear combination of words; zero coefficients are dropped."""

    terms: dict = field(default_factory=dict)

    @staticmethod
    def from_word(word: Word, coeff: float = 1.0) -> "NcPolynomial":
        return NcPolynomial({word: coeff} if coeff != 0 else {})

    @staticmethod
    def one() -> "NcPolynomial":
        return NcPolynomial({IDENTITY: 1.0})

    @staticmethod
    def zero() -> "NcPolynomial":
        return NcPolynomial({})

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def deg(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def __add__(self, other: "NcPolynomial") -> "NcPolynomial":
        terms = dict(self.terms)
        for w, c in other.terms.items():
            _combine(terms, w, c)
        return NcPolynomial(terms)

    def __sub__(self, other: "NcPolynomial") -> "NcPolynomial":
        return self + (other * -1.0)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            if other == 0:
                return NcPolynomial({})
            return NcPolynomial({w: c * other for w, c in self.terms.items()})
        terms = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                _combine(terms, w1 + w2, c1 * c2)
        return NcPolynomial(terms)

    __rmul__ = __mul__

    def adjoint(self) -> "NcPolynomial":
        return NcPolynomial({involution(w): c for w, c in self.terms.items()})

    def reduced(self, rw: RewriteSystem) -> "NcPolynomial":
        terms = {}
        for w, c in self.terms.items():
            _combine(terms, reduce_word(w, rw), c)
        return NcPolynomial(terms)

    def is_symmetric(self, rw: RewriteSystem = EMPTY_REWRITES) -> bool:
        return (self - self.adjoint()).reduced(rw).is_zero()

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            parts.append(f"{self.terms[w]:+g}*{word_str(w)}")
        return " ".join(parts)
