import numpy as np
import pytest

from ncmoment import witness
from ncmoment.entdim import Scenario, build_entdim_sets
from ncmoment.momentize import (
    InternalConsistencyError,
    LinearConstraint,
    Relation,
    SymbolicBlock,
    VariableIndex,
    assemble,
    ideal_constraints,
    localizing_block,
    moment_block,
    state_commutator_constraints,
)
from ncmoment.ncwords import (
    EquivalenceMode,
    IDENTITY,
    NcPolynomial,
    RewriteSystem,
    alice,
    bob,
    enumerate_basis,
    state_symbol,
    vertex,
)
from ncmoment.qgraph import _vertex_rewrites
from ncmoment.graphs import cycle

TRC = EquivalenceMode.TRACIAL_SYMMETRIC
PLAIN = EquivalenceMode.PLAIN


def test_moment_block_identity_only():
    x = vertex(0)
    rw = RewriteSystem(idempotents=frozenset([x]))
    index = VariableIndex([x], 2, rw, TRC)
    blk = moment_block([IDENTITY], rw, TRC, index)
    assert blk.size == 1
    assert blk.entries[(0, 0)] == [(0, 1.0)]


def test_moment_block_idempotent_merges_diagonal():
    x = vertex(0)
    rw = RewriteSystem(idempotents=frozenset([x]))
    index = VariableIndex([x], 2, rw, TRC)
    blk = moment_block([IDENTITY, (x,)], rw, TRC, index)
    vx = index.var_of((x,))
    assert blk.entries[(0, 1)] == [(vx, 1.0)]
    assert blk.entries[(1, 1)] == [(vx, 1.0)]  # x^2 reduces to x


def test_moment_block_c5_edges_vanish():
    g = cycle(5)
    syms, rw = _vertex_rewrites(g)
    index = VariableIndex(syms, 2, rw, TRC)
    rows = enumerate_basis(syms, 1, rw, PLAIN)
    blk = moment_block(rows, rw, TRC, index)
    assert blk.size == 6
    for (i, j) in g.edges:
        assert (min(i, j) + 1, max(i, j) + 1) not in blk.entries


def test_localizing_block_state_symbol_order_one():
    sc = Scenario(2, 2, 2, 2)
    sets = build_entdim_sets(sc, 1)
    index = VariableIndex(sets.symbols, 2, sets.rewrites, TRC)
    z = state_symbol()
    blk = localizing_block(NcPolynomial.from_word((z,)), 1, sets.rewrites, TRC,
                           index, sets.symbols)
    assert blk.size == 1
    assert blk.entries[(0, 0)] == [(index.var_of((z,)), 1.0)]


def test_localizing_block_povm_not_idempotent():
    sc = Scenario(2, 2, 2, 2)
    sets = build_entdim_sets(sc, 2)
    index = VariableIndex(sets.symbols, 4, sets.rewrites, TRC)
    x = alice(0, 0)
    blk = localizing_block(NcPolynomial.from_word((x,)), 2, sets.rewrites, TRC,
                           index, sets.symbols)
    # rows indexed by words of degree <= 1; entry (1, x) is L(x*x), distinct
    # from L(x) since measurement symbols are not projectors
    i_x = blk.row_words.index((x,))
    entry = dict(blk.entries)[(0, i_x)]
    assert entry == [(index.var_of((x, x)), 1.0)]
    assert index.var_of((x, x)) != index.var_of((x,))


def test_localizing_block_clique_polynomial():
    g = cycle(5)
    syms, rw = _vertex_rewrites(g)
    index = VariableIndex(syms, 4, rw, TRC)
    clique = [0, 1]
    gc = NcPolynomial.one()
    for i in clique:
        gc = gc - NcPolynomial.from_word((vertex(i),))
    blk = localizing_block(gc, 2, rw, TRC, index, syms)
    form = dict(blk.entries[(0, 0)])
    assert form[0] == 1.0
    for i in clique:
        assert form[index.var_of((vertex(i),))] == -1.0


def test_localizing_block_requires_symmetric_generator():
    g = cycle(5)
    syms, rw = _vertex_rewrites(g)
    index = VariableIndex(syms, 4, rw, TRC)
    nonsym = NcPolynomial.from_word((vertex(0), vertex(2)))
    with pytest.raises(ValueError, match="symmetric"):
        localizing_block(nonsym, 2, rw, TRC, index, syms)


def test_ideal_constraints_sum_rule():
    xs, ys, z = [alice(0, 0), alice(0, 1)], [bob(0, 0), bob(0, 1)], state_symbol()
    syms = xs + ys + [z]
    rw = RewriteSystem(idempotents=frozenset([z]),
                       swap_patterns=frozenset((y, x) for y in ys for x in xs))
    index = VariableIndex(syms, 2, rw, TRC)
    h = (NcPolynomial.one() - NcPolynomial.from_word((xs[0],))
         - NcPolynomial.from_word((xs[1],)))  # 1 - x_0^0 - x_0^1
    cons = ideal_constraints([h], 2, rw, TRC, index, syms)
    base = [c for c in cons if 0 in c.terms and len(c.terms) == 3]
    assert base, "expected the multiplier-one expansion"
    terms = base[0].terms
    assert terms[0] == 1.0
    assert terms[index.var_of((alice(0, 0),))] == -1.0
    assert terms[index.var_of((alice(0, 1),))] == -1.0


def test_ideal_constraints_rewrite_members_vacuous():
    # z - z^2 is enforced by rewriting, so its expansions cancel to nothing.
    sc = Scenario(2, 2, 1, 1)
    sets = build_entdim_sets(sc, 2)
    index = VariableIndex(sets.symbols, 4, sets.rewrites, TRC)
    z = state_symbol()
    zz = NcPolynomial.from_word((z,)) - NcPolynomial.from_word((z, z))
    assert ideal_constraints([zz], 4, sets.rewrites, TRC, index,
                             sets.symbols) == []


def test_ideal_constraints_edge_monomials_vacuous():
    g = cycle(5)
    syms, rw = _vertex_rewrites(g)
    index = VariableIndex(syms, 4, rw, TRC)
    h = NcPolynomial.from_word((vertex(0), vertex(1)))
    assert ideal_constraints([h], 4, rw, TRC, index, syms) == []


def test_state_commutators_empty_at_level_two():
    sc = Scenario(2, 2, 2, 2)
    sets = build_entdim_sets(sc, 2)
    index = VariableIndex(sets.symbols, 4, sets.rewrites, TRC)
    cons = state_commutator_constraints(2, sets.symbols, state_symbol(),
                                        sets.rewrites, index)
    assert cons == []


def test_state_commutators_vacuous_until_level_four():
    # Reversal plus rotation absorbs every element whose sandwiched words are
    # palindromes, so the truncation budget admits nothing before 2r = 8.
    sc = Scenario(2, 2, 1, 1)
    sets3 = build_entdim_sets(sc, 3)
    index3 = VariableIndex(sets3.symbols, 6, sets3.rewrites, TRC)
    assert state_commutator_constraints(3, sets3.symbols, state_symbol(),
                                        sets3.rewrites, index3) == []
    sets4 = build_entdim_sets(sc, 4)
    index4 = VariableIndex(sets4.symbols, 8, sets4.rewrites, TRC)
    cons = state_commutator_constraints(4, sets4.symbols, state_symbol(),
                                        sets4.rewrites, index4)
    assert len(cons) > 0
    for con in cons:
        assert con.relation == Relation.EQ
        assert set(con.terms.values()) <= {1.0, -1.0}


def test_graph_variable_count_identity():
    # degree <= 2 canonical class count: 1 + |V| + number of non-edges
    g = cycle(5)
    syms, rw = _vertex_rewrites(g)
    index = VariableIndex(syms, 2, rw, TRC)
    non_edges = g.n * (g.n - 1) // 2 - g.num_edges
    assert len(index) == 1 + g.n + non_edges


def test_trace_evaluation_satisfies_graph_assembly():
    """PSD blocks and equalities all hold on a random projector evaluation."""
    from ncmoment.qgraph import build_stab_problem

    g = cycle(5)
    problem = build_stab_problem(g, 2)
    rng = np.random.default_rng(0)
    d = 4
    # random projectors satisfying the edge orthogonality: chop a random
    # orthonormal基 into chunks per vertex of an independent-set cover
    stable_sets = [[0, 2], [1, 3], [4]]
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    fam = {vertex(i): np.zeros((d, d)) for i in range(5)}
    for k, ss in enumerate(stable_sets):
        proj = np.outer(q[:, k], q[:, k])
        for i in ss:
            fam[vertex(i)] = proj
    L = witness.trace_functional([(1.0, fam)], normalized=True)
    y = witness.vector_from_functional(problem.index, L)
    res = witness.check_feasibility(problem, y)
    assert res["max_eq_violation"] <= 1e-10
    assert res["min_block_eigenvalue"] >= -1e-10


def test_trace_evaluation_satisfies_entdim_assembly():
    from ncmoment import corrlab
    from ncmoment.entdim import build_xi_problem

    sc = Scenario(2, 2, 2, 2)
    for seed in range(3):
        real = corrlab.random_realization(sc, d=2, seed=seed)
        P = corrlab.realize(real)
        problem = build_xi_problem(P, 2)
        eye = np.eye(real.d)
        asg = {state_symbol(): np.outer(real.psi, real.psi.conj())}
        for s in range(sc.nS):
            for a in range(sc.nA):
                asg[alice(s, a)] = np.kron(real.E[s, a], eye)
        for t in range(sc.nT):
            for b in range(sc.nB):
                asg[bob(t, b)] = np.kron(eye, real.F[t, b])
        L = witness.trace_functional([(1.0, asg)])
        y = witness.vector_from_functional(problem.index, L)
        res = witness.check_feasibility(problem, y)
        assert res["max_eq_violation"] <= 1e-9
        assert res["min_block_eigenvalue"] >= -1e-9
        assert abs(y[0] - real.d ** 2) <= 1e-9


def test_assemble_validation():
    x = vertex(0)
    rw = RewriteSystem(idempotents=frozenset([x]))
    index = VariableIndex([x], 2, rw, TRC)
    with pytest.raises(ValueError, match="block"):
        assemble({0: 1.0}, "min", [], [], index)
    blk = moment_block([IDENTITY, (x,)], rw, TRC, index)
    with pytest.raises(ValueError, match="sense"):
        assemble({0: 1.0}, "argmin", [blk], [], index)
    with pytest.raises(ValueError, match="unindexed"):
        assemble({99: 1.0}, "min", [blk], [], index)


def test_assemble_dedupes_constraints():
    x = vertex(0)
    rw = RewriteSystem(idempotents=frozenset([x]))
    index = VariableIndex([x], 2, rw, TRC)
    blk = moment_block([IDENTITY, (x,)], rw, TRC, index)
    c1 = LinearConstraint({0: 1.0}, 1.0, Relation.EQ)
    c2 = LinearConstraint({0: -1.0}, -1.0, Relation.EQ)  # same after sign flip
    prob = assemble({0: 1.0}, "min", [blk], [c1, c2, c1], index)
    assert len(prob.eq_constraints) == 1


def test_assemble_trims_zero_rows():
    x = vertex(0)
    rw = RewriteSystem(idempotents=frozenset([x]))
    index = VariableIndex([x], 2, rw, TRC)
    blk = SymbolicBlock("moment", [IDENTITY, (x,)], {(0, 0): [(0, 1.0)]})
    prob = assemble({0: 1.0}, "min", [blk], [], index)
    assert prob.blocks[0].size == 1


def test_unindexed_word_raises():
    x, y = vertex(0), vertex(1)
    index = VariableIndex([x, y], 2, RewriteSystem(), TRC)
    with pytest.raises(InternalConsistencyError):
        index.var_of((x, y, x))  # degree 3 exceeds the index truncation
