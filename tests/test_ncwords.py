import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncmoment import corrlab, momentize, qgraph
from ncmoment.entdim import Scenario, build_entdim_sets, build_xi_problem
from ncmoment.graphs import cycle
from ncmoment.momentize import VariableIndex, moment_block
from ncmoment.ncwords import (
    EquivalenceMode,
    IDENTITY,
    NcPolynomial,
    RewriteError,
    RewriteSystem,
    Symbol,
    alice,
    bob,
    canonical,
    canonical_reduced,
    enumerate_basis,
    involution,
    reduce_word,
    state_symbol,
    vertex,
)

PLAIN = EquivalenceMode.PLAIN
SYM = EquivalenceMode.SYMMETRIC
TRC = EquivalenceMode.TRACIAL_SYMMETRIC


def c5_rewrites():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    zero = set()
    for i, j in edges:
        zero.add((vertex(i), vertex(j)))
        zero.add((vertex(j), vertex(i)))
    return RewriteSystem(
        zero_pairs=frozenset(zero),
        idempotents=frozenset(vertex(i) for i in range(5)),
    )


def test_symbol_order_is_family_question_answer():
    assert alice(0, 1) < alice(1, 0) < bob(0, 0) < state_symbol() < vertex(0)
    assert alice(0, 0) < alice(0, 1)


def test_involution_reverses():
    a, b = vertex(0), vertex(1)
    assert involution((a, b)) == (b, a)
    assert involution(IDENTITY) == IDENTITY


def test_canonical_identity_alone_in_class():
    for mode in (PLAIN, SYM, TRC):
        assert canonical(IDENTITY, mode) == IDENTITY


def test_canonical_tracial_cyclic_shift():
    a, b = vertex(0), vertex(1)
    assert canonical((b, a), TRC) == (a, b)


def test_canonical_symmetric_reversal():
    a, b, c = vertex(0), vertex(1), vertex(2)
    assert canonical((a, b, c), SYM) == (a, b, c)
    assert canonical((c, b, a), SYM) == (a, b, c)


def test_canonical_idempotent():
    rng = random.Random(0)
    syms = [vertex(i) for i in range(4)]
    for _ in range(200):
        w = tuple(rng.choice(syms) for _ in range(rng.randint(0, 5)))
        for mode in (PLAIN, SYM, TRC):
            assert canonical(canonical(w, mode), mode) == canonical(w, mode)


def test_reduce_edge_zero_rule():
    rw = c5_rewrites()
    assert reduce_word((vertex(0), vertex(1)), rw) is None
    assert reduce_word((vertex(1), vertex(0)), rw) is None


def test_reduce_idempotence():
    rw = c5_rewrites()
    assert reduce_word((vertex(0), vertex(0), vertex(2)), rw) == (
        vertex(0), vertex(2))


def test_reduce_swap_moves_second_party_right():
    x, y, z = alice(0, 0), bob(0, 1), state_symbol()
    rw = RewriteSystem(idempotents=frozenset([z]),
                       swap_patterns=frozenset([(y, x)]))
    assert reduce_word((y, x, z), rw) == (x, y, z)


def test_swap_cycle_rejected():
    a, b = vertex(0), vertex(1)
    with pytest.raises(RewriteError):
        RewriteSystem(swap_patterns=frozenset([(a, b), (b, a)]))


def test_swap_rules_must_make_two_parties_commute():
    a, b, c = vertex(0), vertex(1), vertex(2)
    x0, x1, y0, y1 = alice(0, 0), alice(1, 0), bob(0, 0), bob(1, 0)
    for bad in ([(c, b), (b, a)], [(y0, x0), (y1, x1)]):
        with pytest.raises(RewriteError):
            RewriteSystem(swap_patterns=frozenset(bad))
    rw = RewriteSystem(swap_patterns=frozenset([(y0, x0), (y0, x1)]))
    assert rw.swap_left == {x0, x1}
    assert rw.swap_symbols == {x0, x1, y0}


def test_cyclic_shift_exposes_zero():
    # x0 x2 x4 has the edge pattern (x4, x0) around the wrap, so its tracial
    # class is zero even though the plain scan sees no adjacent edge pair.
    rw = c5_rewrites()
    w = (vertex(0), vertex(2), vertex(4))
    assert reduce_word(w, rw) == w
    assert canonical_reduced(w, rw, TRC) is None


def test_reversal_exposes_one_sided_zero():
    # (a, b) is a zero pair but (b, a) is not: the word b a is reduced, yet
    # its reversal is zero, and so is its symmetric and tracial class.
    a, b = vertex(0), vertex(1)
    rw = RewriteSystem(zero_pairs=frozenset([(a, b)]))
    assert canonical_reduced((b, a), rw, PLAIN) == (b, a)
    assert canonical_reduced((b, a), rw, SYM) is None
    assert canonical_reduced((b, a), rw, TRC) is None


def test_enumerate_basis_single_idempotent():
    x = vertex(0)
    rw = RewriteSystem(idempotents=frozenset([x]))
    assert enumerate_basis([x], 2, rw) == [IDENTITY, (x,)]


def test_enumerate_basis_c5_degree_one():
    rw = c5_rewrites()
    basis = enumerate_basis([vertex(i) for i in range(5)], 1, rw)
    assert len(basis) == 6
    assert basis[0] == IDENTITY


def test_enumerate_basis_c5_degree_two_tracial():
    # Independent brute-force count: distinct classes of words of degree <= 2
    # under the edge/idempotent rules and cyclic+reversal merging.
    rw = c5_rewrites()
    syms = [vertex(i) for i in range(5)]
    expected = set()
    for d in range(3):
        for w in itertools.product(syms, repeat=d):
            can = canonical_reduced(w, rw, TRC)
            if can is not None:
                expected.add(can)
    index = VariableIndex(2, rw, TRC)
    moment_block(enumerate_basis(syms, 1, rw), index)
    basis = index.words
    assert set(basis) == expected
    assert len(basis) == 11  # identity + 5 vertices + 5 non-edge pairs


def test_enumerate_basis_cap():
    from ncmoment.ncwords import BasisSizeError

    syms = [vertex(i) for i in range(5)]
    with pytest.raises(BasisSizeError, match="10"):
        enumerate_basis(syms, 4, RewriteSystem(), cap=10)


def test_tracial_invariance_uv_vu():
    rng = random.Random(1)
    syms = [vertex(i) for i in range(4)]
    for _ in range(300):
        u = tuple(rng.choice(syms) for _ in range(rng.randint(0, 3)))
        v = tuple(rng.choice(syms) for _ in range(rng.randint(0, 3)))
        assert canonical(u + v, TRC) == canonical(v + u, TRC)


def test_symmetric_invariance_reversal():
    rng = random.Random(2)
    syms = [vertex(i) for i in range(4)]
    for _ in range(300):
        w = tuple(rng.choice(syms) for _ in range(rng.randint(0, 6)))
        assert canonical(involution(w), SYM) == canonical(w, SYM)


def test_reduce_is_projection():
    rw = c5_rewrites()
    syms = [vertex(i) for i in range(5)]
    rng = random.Random(3)
    for _ in range(500):
        w = tuple(rng.choice(syms) for _ in range(rng.randint(0, 6)))
        r = reduce_word(w, rw)
        if r is not None:
            assert reduce_word(r, rw) == r


def _reduce_random_order(word, rw, rng):
    """Apply applicable rules in random positions until none applies."""
    w = list(word)
    while True:
        applicable = []
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            if (a, b) in rw.zero_pairs:
                applicable.append((i, "zero"))
            elif a == b and a in rw.idempotents:
                applicable.append((i, "idem"))
            elif (a, b) in rw.swap_patterns:
                applicable.append((i, "swap"))
        if not applicable:
            return tuple(w)
        i, kind = rng.choice(applicable)
        if kind == "zero":
            return None
        if kind == "idem":
            del w[i + 1]
        else:
            w[i], w[i + 1] = w[i + 1], w[i]


def test_exhaustive_order_independence_degree_six():
    """Rewriting is confluent: any application order reaches the same form.

    Exhaustive over all words of degree <= 6 on a 5-symbol alphabet mixing
    all three rule classes, with several random application orders each.
    """
    x0, x1 = alice(0, 0), alice(0, 1)
    y0 = bob(0, 0)
    z = state_symbol()
    v, w = vertex(0), vertex(1)
    syms = [x0, y0, z, v, w]
    rw = RewriteSystem(
        zero_pairs=frozenset([(v, w), (w, v)]),
        idempotents=frozenset([z, v, w]),
        swap_patterns=frozenset([(y0, x0), (y0, x1)]),
    )
    rng = random.Random(4)
    count = 0
    for d in range(7):
        for w in itertools.product(syms, repeat=d):
            expected = reduce_word(w, rw)
            for _ in range(3):
                assert _reduce_random_order(w, rw, rng) == expected
            count += 1
    assert count == sum(5 ** d for d in range(7))


def _chsh_rewrites():
    """Level-2 CHSH rewrite system: idempotent z, Bob's symbols right of
    Alice's."""
    return build_entdim_sets(Scenario(2, 2, 2, 2), 2).rewrites


# (rewrite system, its alphabet) for the property tests; the CHSH alphabet
# adds Alice's eliminated answer x_s^1 so that swaps also meet symbols the
# rules do not name.
REWRITE_CASES = {
    "chsh": (_chsh_rewrites(),
             [alice(0, 0), alice(1, 0), alice(0, 1), bob(0, 0), bob(1, 0),
              state_symbol()]),
    "c5": (c5_rewrites(), [vertex(i) for i in range(5)]),
}
# Deterministic examples, nothing stored between runs.
PROPERTY = settings(max_examples=200, derandomize=True, database=None,
                    deadline=None)


@st.composite
def rewrite_words(draw, cases=REWRITE_CASES):
    name = draw(st.sampled_from(sorted(cases)))
    rw, syms = cases[name]
    return rw, tuple(draw(st.lists(st.sampled_from(syms), max_size=8)))


@PROPERTY
@given(rewrite_words(), st.sampled_from([PLAIN, SYM, TRC]))
def test_canonical_reduced_is_idempotent(case, mode):
    rw, w = case
    c = canonical_reduced(w, rw, mode)
    if c is not None:
        assert canonical_reduced(c, rw, mode) == c


@PROPERTY
@given(rewrite_words(), st.randoms(use_true_random=False))
def test_reduce_word_is_confluent(case, rng):
    rw, w = case
    expected = reduce_word(w, rw)
    if expected is not None:
        assert reduce_word(expected, rw) == expected
    for _ in range(3):
        assert _reduce_random_order(w, rw, rng) == expected


def _orbit(word, mode):
    """The word's class under ``mode`` before rewriting: the word, its
    reversal and, in the tracial mode, every rotation of both."""
    if mode == PLAIN:
        return [word]
    rev = word[::-1]
    out = [word, rev]
    if mode == TRC:
        out += [v[k:] + v[:k] for v in (word, rev) for k in range(1, len(word))]
    return out


def _reference_canonical_reduced(word, rw, mode):
    """canonical_reduced as a plain fixpoint loop: reduce every member of the
    class, keep the least by (degree, lex), repeat until it is stable."""
    w = reduce_word(word, rw)
    if w is None:
        return None
    if mode == PLAIN:
        return w
    while True:
        best = None
        for cand in _orbit(w, mode):
            red = reduce_word(cand, rw)
            if red is None:
                return None
            if best is None or (len(red), red) < (len(best), best):
                best = red
        if best == w:
            return w
        w = best


def _linearizations(word, rw):
    """Every word equal to ``word`` by commuting swap-rule symbols: each
    maximal run of them becomes every shuffle of its two parties that keeps
    the order within each party."""
    left = {b for _, b in rw.swap_patterns}
    swaps = left | {a for a, _ in rw.swap_patterns}
    options = []
    for in_swaps, run in itertools.groupby(word, key=swaps.__contains__):
        run = tuple(run)
        xs = [s for s in run if s in left]
        ys = [s for s in run if s not in left]
        shuffles = []
        for pos in itertools.combinations(range(len(run)), len(xs)):
            it_x, it_y = iter(xs), iter(ys)
            shuffles.append(tuple(next(it_x) if i in pos else next(it_y)
                                  for i in range(len(run))))
        options.append(shuffles if in_swaps else [run])
    for parts in itertools.product(*options):
        yield sum(parts, ())


_CLASS_MIN = {}


def _reference_class_min(word, rw, mode):
    """The least reduced member of the class of ``word`` by brute force: a
    search over reduced members through reversal and, in the tracial mode,
    through every rotation of every linearization.  Every member it meets
    is memoized with the result."""
    w = reduce_word(word, rw)
    if w is None or mode == PLAIN:
        return w
    memo = _CLASS_MIN.setdefault((rw, mode), {})
    if w in memo:
        return memo[w]
    seen, frontier, zero = {w}, [w], False
    while frontier and not zero:
        m = frontier.pop()
        moves = [m[::-1]]
        if mode == TRC:
            moves += [u[k:] + u[:k] for u in _linearizations(m, rw)
                      for k in range(1, len(u))]
        for u in moves:
            red = reduce_word(u, rw)
            if red is None:
                zero = True
                break
            if red not in seen:
                seen.add(red)
                frontier.append(red)
    result = None if zero else min(seen, key=lambda m: (len(m), m))
    memo.update(dict.fromkeys(seen, result))
    return result


def _reference(word, rw, mode):
    """The exact class search for swap systems, the fixpoint loop (exact
    there) for the others."""
    if rw.swap_patterns:
        return _reference_class_min(word, rw, mode)
    return _reference_canonical_reduced(word, rw, mode)


def _coloring_rewrites():
    """Rewrite system of the C5 coloring system with k = 3 colours."""
    with mock.patch.object(qgraph.conic, "feasibility", lambda problem: problem):
        return qgraph.col_system_feasible(cycle(5), 3, 1).index.rw


_C7_SYMS, _C7_RW = qgraph._vertex_rewrites(cycle(7))
_CHSH3 = build_entdim_sets(Scenario(2, 2, 2, 2), 3)
CANONICAL_CASES = {
    **REWRITE_CASES,
    "c7": (_C7_RW, _C7_SYMS),
    "c7 commutative": (qgraph._vertex_rewrites(cycle(7), True)[1], _C7_SYMS),
    "chsh r3": (_CHSH3.rewrites, _CHSH3.symbols),
    "coloring c5 k3": (_coloring_rewrites(),
                       [vertex(i, c) for i in range(5) for c in range(3)]),
}


@PROPERTY
@given(rewrite_words(CANONICAL_CASES), st.sampled_from([PLAIN, SYM, TRC]))
def test_canonical_reduced_matches_reference(case, mode):
    rw, w = case
    if not rw.commutative:
        assert reduce_word(w, rw) == _reduce_random_order(w, rw, random.Random(0))
    assert canonical_reduced(w, rw, mode) == _reference(w, rw, mode)


@pytest.mark.parametrize("name", ["c7", "chsh", "chsh r3"])
def test_canonical_reduced_matches_reference_degree_five(name):
    rw, syms = CANONICAL_CASES[name]
    count = 0
    for d in range(6):
        for w in itertools.product(syms, repeat=d):
            for mode in (SYM, TRC):
                assert canonical_reduced(w, rw, mode) == _reference(w, rw, mode), w
            count += 1
    assert count == sum(len(syms) ** d for d in range(6))


@PROPERTY
@given(rewrite_words(CANONICAL_CASES), st.sampled_from([SYM, TRC]))
# A class that a directed fixpoint loop splits: the rotation y1 x0 x1 y0 z
# reduces to x0 x1 y1 y0 z, a local minimum of its own.
@example((_CHSH3.rewrites, (alice(0, 0), alice(1, 0), bob(0, 0), state_symbol(),
                            bob(1, 0))), TRC)
def test_canonical_reduced_is_a_class_invariant(case, mode):
    rw, w = case
    assert len({canonical_reduced(m, rw, mode) for m in _orbit(w, mode)}) == 1


def _coloring_system(monkeypatch, g, k, r):
    monkeypatch.setattr(qgraph.conic, "feasibility", lambda problem: problem)
    return qgraph.col_system_feasible(g, k, r)


def _tsirelson(r):
    return build_xi_problem(corrlab.realize(corrlab.tsirelson_chsh()), r)


_BUILDS = {
    "col C7 r3": lambda mp: qgraph.build_col_problem(cycle(7), 3),
    "entdim (2,2,1,1) r3": lambda mp: build_xi_problem(corrlab.realize(
        corrlab.random_realization(Scenario(2, 2, 1, 1), 2, 3)), 3),
    "entdim (3,2,2,1) r2": lambda mp: build_xi_problem(corrlab.realize(
        corrlab.random_realization(Scenario(3, 2, 2, 1), 2, 4)), 2),
    "coloring system C5 k3 r2": lambda mp: _coloring_system(mp, cycle(5), 3, 2),
    "entdim CHSH r2": lambda mp: _tsirelson(2),
    "entdim CHSH r3": lambda mp: _tsirelson(3),
}


@pytest.mark.parametrize("name", sorted(_BUILDS))
def test_build_matches_reference_canonicalization(name, monkeypatch):
    build = _BUILDS[name]
    new = build(monkeypatch)
    monkeypatch.setattr(momentize, "canonical_reduced",
                        _reference_canonical_reduced)
    ref = build(monkeypatch)
    if name == "entdim CHSH r3":
        # The fixpoint loop splits 7 of the 683 classes: each of its words
        # must land in one variable, and together they cover every variable.
        ids = {w: i for i, w in enumerate(new.index.words)}
        hit = [ids[canonical_reduced(w, new.index.rw, new.index.mode)]
               for w in ref.index.words]
        assert (len(ref.index.words), len(new.index.words)) == (692, 683)
        assert sorted(set(hit)) == list(range(683))
        return
    assert new.num_vars == ref.num_vars
    assert new.index.words == ref.index.words
    assert len(new.blocks) == len(ref.blocks)
    for a, b in zip(new.blocks, ref.blocks):
        assert (a.label, a.size, a.row_words) == (b.label, b.size, b.row_words)
        for attr in ("row_degrees", "var_ids", "rows", "cols", "coefs"):
            np.testing.assert_array_equal(getattr(a, attr), getattr(b, attr))
    assert ([(c.terms, c.rhs, c.relation) for c in new.constraints]
            == [(c.terms, c.rhs, c.relation) for c in ref.constraints])
    assert new.objective == ref.objective


def test_polynomial_algebra():
    x, y = vertex(0), vertex(1)
    p = NcPolynomial.from_word((x,)) + NcPolynomial.from_word((y,), 2.0)
    q = p * p
    assert q.terms[(x, x)] == 1.0
    assert q.terms[(x, y)] == 2.0
    assert q.terms[(y, x)] == 2.0
    assert q.terms[(y, y)] == 4.0
    assert (p - p).is_zero()
    assert p.adjoint().terms == p.terms  # degree-1 words are self-adjoint
    r = NcPolynomial.from_word((x, y)) - NcPolynomial.from_word((y, x))
    assert r.adjoint().terms == {(y, x): 1.0, (x, y): -1.0}


def test_polynomial_reduced_drops_zero_words():
    rw = c5_rewrites()
    p = NcPolynomial.from_word((vertex(0), vertex(1))) + NcPolynomial.one()
    assert p.reduced(rw).terms == {IDENTITY: 1.0}
