import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncmoment.entdim import Scenario, build_entdim_sets
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


def test_cyclic_shift_exposes_zero():
    # x0 x2 x4 has the edge pattern (x4, x0) around the wrap, so its tracial
    # class is zero even though the plain scan sees no adjacent edge pair.
    rw = c5_rewrites()
    w = (vertex(0), vertex(2), vertex(4))
    assert reduce_word(w, rw) == w
    assert canonical_reduced(w, rw, TRC) is None


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
    moment_block(enumerate_basis(syms, 1, rw), rw, TRC, index)
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
def rewrite_words(draw):
    name = draw(st.sampled_from(sorted(REWRITE_CASES)))
    rw, syms = REWRITE_CASES[name]
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
