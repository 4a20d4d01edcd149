"""Words in noncommuting self-adjoint symbols.

This module provides the symbolic layer underneath the moment hierarchies:
symbols with a fixed total order, words with involution, equivalence-class
canonicalization (plain / symmetric / tracial-symmetric), and monomial
rewriting modulo the three supported rule classes (zero patterns, idempotent
symbols, one-directional swaps).  Everything here is immutable and pure.
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

    Swap patterns must be acyclic as a "comes later" relation, otherwise
    rewriting would not terminate; the constructor rejects such sets.
    """

    zero_pairs: frozenset = frozenset()
    idempotents: frozenset = frozenset()
    swap_patterns: frozenset = frozenset()
    commutative: bool = False
    # Derived from the rules above: ``fires`` holds the adjacent pairs (a, b)
    # that some rule rewrites; ``zero_either`` and ``fires_either`` hold the
    # zero pairs and the ``fires`` pairs together with their reversals.
    fires: frozenset = field(init=False, repr=False, compare=False)
    zero_either: frozenset = field(init=False, repr=False, compare=False)
    fires_either: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fires = (self.zero_pairs | self.swap_patterns
                 | {(s, s) for s in self.idempotents})
        object.__setattr__(self, "fires", fires)
        object.__setattr__(self, "zero_either",
                           self.zero_pairs | {(b, a) for a, b in self.zero_pairs})
        object.__setattr__(self, "fires_either", fires | {(b, a) for a, b in fires})
        if self.commutative and self.swap_patterns:
            raise RewriteError("commutative systems take no explicit swap rules")
        self._check_swaps_acyclic()
        # Swapping a symbol past another can break or create adjacency of a
        # zero/idempotent pattern, losing confluence; keep the alphabets of
        # the swap rules disjoint from the other two rule classes.
        swap_syms = {s for pat in self.swap_patterns for s in pat}
        zero_syms = {s for pat in self.zero_pairs for s in pat}
        if swap_syms & zero_syms:
            raise RewriteError("swap and zero rules must use disjoint symbols")
        if swap_syms & set(self.idempotents):
            raise RewriteError("swap rules cannot involve idempotent symbols")

    def _check_swaps_acyclic(self):
        # Edge a -> b for pattern (a, b) means "a must end up right of b";
        # a directed cycle makes the swap set non-terminating.
        succ = {}
        for a, b in self.swap_patterns:
            if (b, a) in self.swap_patterns:
                raise RewriteError(f"swap rules ({a},{b}) and ({b},{a}) form a cycle")
            succ.setdefault(a, set()).add(b)
        color = {}

        def visit(u):
            color[u] = 1
            for v in succ.get(u, ()):
                c = color.get(v, 0)
                if c == 1:
                    raise RewriteError("swap rule set contains a cycle")
                if c == 0:
                    visit(v)
            color[u] = 2

        for u in list(succ):
            if color.get(u, 0) == 0:
                visit(u)


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
    """Least representative of the class of ``word`` modulo rewriting.

    Cyclic shifts may expose zero patterns or idempotent pairs that the plain
    scan cannot see (the pattern wraps around the end of the word), so the
    minimization and the reduction are iterated to a fixpoint.  Returns
    ``None`` when the class collapses to zero.

    A round of that loop reduces every candidate of the class of the reduced
    word ``w``.  A rule can fire in a candidate only on one of its adjacent
    pairs, and those are the pairs (w[k-1], w[k]) of ``w`` read cyclically
    (the wrap pair (w[-1], w[0]) included), in either direction; in the
    symmetric mode only the non-wrap pairs, reversed.  Three exits read these
    pairs and return what the loop would return from ``w``, without
    reducing a candidate:

    (a) zero -- a cyclic pair is a zero pair in either direction.  Some
        rotation or reversed rotation starts with it, its reduction stops
        at position 0, and the loop returns ``None``.
    (b) clean -- no cyclic pair, in either direction, is a zero pair, an
        idempotent square or a swap pattern.  Every candidate is then
        reduced and of one length, so the loop returns their least member.
    (c) idempotent wrap -- without swap rules, and once (a) has not fired,
        the only pair a rule can fire on is the wrap pair, with
        w[-1] == w[0] idempotent.  Merging it maps the candidates other
        than ``w`` and its reversal onto all the (shorter) candidates of
        w[:-1].  The cyclic pairs of w[:-1] are those of ``w`` less
        (w[0], w[0]), so from ``w`` and from w[:-1] alike the loop returns
        the least candidate of w[:-1].

    Otherwise one round of the loop runs and the exits are tried again on
    its result.  Commutative systems and words shorter than 2 need no round:
    every candidate reduces to ``w`` itself.
    """
    w = reduce_word(word, rw)
    if w is None or mode == EquivalenceMode.PLAIN or rw.commutative:
        return w
    tracial = mode == EquivalenceMode.TRACIAL_SYMMETRIC
    while True:
        if len(w) < 2:
            return w
        if tracial:
            pairs = list(zip(w[-1:] + w[:-1], w))
            if not rw.zero_either.isdisjoint(pairs):
                return None
            if rw.fires_either.isdisjoint(pairs):
                return min(_class_candidates(w, mode))
            if not rw.swap_patterns and w[-1] == w[0] and w[0] in rw.idempotents:
                w = w[:-1]
                continue
        elif rw.fires.isdisjoint(zip(w[1:], w)):
            return min(w, involution(w))
        best = None
        for cand in _class_candidates(w, mode):
            red = reduce_word(cand, rw)
            if red is None:
                return None
            if best is None or (len(red), red) < (len(best), best):
                best = red
        if best == w:
            return w
        w = best


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
            c2 = terms.get(w, 0.0) + c
            if c2 == 0:
                terms.pop(w, None)
            else:
                terms[w] = c2
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
                w = w1 + w2
                c = terms.get(w, 0.0) + c1 * c2
                if c == 0:
                    terms.pop(w, None)
                else:
                    terms[w] = c
        return NcPolynomial(terms)

    __rmul__ = __mul__

    def adjoint(self) -> "NcPolynomial":
        return NcPolynomial({involution(w): c for w, c in self.terms.items()})

    def reduced(self, rw: RewriteSystem) -> "NcPolynomial":
        terms = {}
        for w, c in self.terms.items():
            r = reduce_word(w, rw)
            if r is None:
                continue
            c2 = terms.get(r, 0.0) + c
            if c2 == 0:
                terms.pop(r, None)
            else:
                terms[r] = c2
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
