import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncmoment import conic, corrlab, entdim, qgraph, witness
from ncmoment.entdim import Scenario, build_entdim_sets, build_xi_problem
from ncmoment.momentize import (
    InternalConsistencyError,
    LinearConstraint,
    CompiledBlock,
    Relation,
    VariableIndex,
    assemble,
    distinct,
    ideal_constraints,
    localizing_block,
    moment_block,
    row_classes,
    state_commutator_constraints,
)
from ncmoment.ncwords import (
    EquivalenceMode,
    IDENTITY,
    NcPolynomial,
    RewriteSystem,
    alice,
    bob,
    canonical_reduced,
    enumerate_basis,
    involution,
    state_symbol,
    vertex,
)
from ncmoment.qgraph import _vertex_rewrites
from ncmoment.graphs import Graph, cartesian_product, cycle

TRC = EquivalenceMode.TRACIAL_SYMMETRIC
PLAIN = EquivalenceMode.PLAIN


def _forms(blk):
    """{(i, j): [(variable, coefficient), ...]} read from the block's arrays."""
    out = {}
    for i, j, vid, c in zip(blk.rows.tolist(), blk.cols.tolist(),
                            blk.var_ids.tolist(), blk.coefs.tolist()):
        out.setdefault((i, j), []).append((vid, c))
    return out


def test_moment_block_identity_only():
    x = vertex(0)
    rw = RewriteSystem(idempotents=frozenset([x]))
    index = VariableIndex(2, rw, TRC)
    blk = moment_block([IDENTITY], index)
    assert blk.size == 1
    assert _forms(blk)[(0, 0)] == [(0, 1.0)]


def test_moment_block_idempotent_merges_diagonal():
    x = vertex(0)
    rw = RewriteSystem(idempotents=frozenset([x]))
    index = VariableIndex(2, rw, TRC)
    blk = moment_block([IDENTITY, (x,)], index)
    vx = index.var_of((x,))
    assert _forms(blk)[(0, 1)] == [(vx, 1.0)]
    assert _forms(blk)[(1, 1)] == [(vx, 1.0)]  # x^2 reduces to x


def test_moment_block_c5_edges_vanish():
    g = cycle(5)
    syms, rw = _vertex_rewrites(g)
    index = VariableIndex(2, rw, TRC)
    rows = enumerate_basis(syms, 1, rw)
    blk = moment_block(rows, index)
    assert blk.size == 6
    for (i, j) in g.edges:
        assert (min(i, j) + 1, max(i, j) + 1) not in _forms(blk)


@pytest.mark.parametrize("enabled", [True, False])
def test_moment_block_restores_collector_state(enabled):
    syms, rw = _vertex_rewrites(cycle(5))
    index = VariableIndex(2, rw, TRC)
    rows = enumerate_basis(syms, 1, rw)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        moment_block(rows, index)
        assert gc.isenabled() == enabled
        with pytest.raises(TypeError):  # raised inside the paused loop
            moment_block([IDENTITY, 5], VariableIndex(2, rw, TRC))
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_localizing_block_state_symbol_order_one():
    sc = Scenario(2, 2, 2, 2)
    sets = build_entdim_sets(sc, 1)
    index = VariableIndex(2, sets.rewrites, TRC)
    z = state_symbol()
    blk = localizing_block(NcPolynomial.from_word((z,)), 1, index, sets.symbols)
    assert blk.size == 1
    assert _forms(blk)[(0, 0)] == [(index.var_of((z,)), 1.0)]


def test_localizing_block_povm_not_idempotent():
    sc = Scenario(2, 2, 2, 2)
    sets = build_entdim_sets(sc, 2)
    index = VariableIndex(4, sets.rewrites, TRC)
    x = alice(0, 0)
    blk = localizing_block(NcPolynomial.from_word((x,)), 2, index, sets.symbols)
    # rows indexed by words of degree <= 1; entry (1, x) is L(x*x), distinct
    # from L(x) since measurement symbols are not projectors
    i_x = blk.row_words.index((x,))
    entry = _forms(blk)[(0, i_x)]
    assert entry == [(index.var_of((x, x)), 1.0)]
    assert index.var_of((x, x)) != index.var_of((x,))


def test_localizing_block_clique_polynomial():
    g = cycle(5)
    syms, rw = _vertex_rewrites(g)
    index = VariableIndex(4, rw, TRC)
    clique = [0, 1]
    gc = NcPolynomial.one()
    for i in clique:
        gc = gc - NcPolynomial.from_word((vertex(i),))
    blk = localizing_block(gc, 2, index, syms)
    form = dict(_forms(blk)[(0, 0)])
    assert form[0] == 1.0
    for i in clique:
        assert form[index.var_of((vertex(i),))] == -1.0


def test_localizing_block_requires_symmetric_generator():
    g = cycle(5)
    syms, rw = _vertex_rewrites(g)
    index = VariableIndex(4, rw, TRC)
    nonsym = NcPolynomial.from_word((vertex(0), vertex(2)))
    with pytest.raises(ValueError, match="symmetric"):
        localizing_block(nonsym, 2, index, syms)


def test_ideal_constraints_sum_rule():
    xs, ys, z = [alice(0, 0), alice(0, 1)], [bob(0, 0), bob(0, 1)], state_symbol()
    syms = xs + ys + [z]
    rw = RewriteSystem(idempotents=frozenset([z]),
                       swap_patterns=frozenset((y, x) for y in ys for x in xs))
    index = VariableIndex(2, rw, TRC)
    h = (NcPolynomial.one() - NcPolynomial.from_word((xs[0],))
         - NcPolynomial.from_word((xs[1],)))  # 1 - x_0^0 - x_0^1
    cons = ideal_constraints([h], 2, index, syms)
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
    index = VariableIndex(4, sets.rewrites, TRC)
    z = state_symbol()
    zz = NcPolynomial.from_word((z,)) - NcPolynomial.from_word((z, z))
    assert ideal_constraints([zz], 4, index, sets.symbols) == []


def test_ideal_constraints_edge_monomials_vacuous():
    g = cycle(5)
    syms, rw = _vertex_rewrites(g)
    index = VariableIndex(4, rw, TRC)
    h = NcPolynomial.from_word((vertex(0), vertex(1)))
    assert ideal_constraints([h], 4, index, syms) == []


def test_state_commutators_empty_at_level_two():
    sc = Scenario(2, 2, 2, 2)
    sets = build_entdim_sets(sc, 2)
    index = VariableIndex(4, sets.rewrites, TRC)
    cons = state_commutator_constraints(2, sets.symbols, state_symbol(), index)
    assert cons == []


def test_state_commutators_vacuous_until_level_four():
    # Reversal plus rotation absorbs every element whose sandwiched words are
    # palindromes, so the truncation budget admits nothing before 2r = 8.
    # entdim.build_xi_problem leaves the call out up to R_CAP = 3 on this.
    for sc in (Scenario(2, 2, 1, 1), Scenario(2, 2, 2, 2), Scenario(3, 3, 2, 2)):
        sets3 = build_entdim_sets(sc, 3)
        index3 = VariableIndex(6, sets3.rewrites, TRC)
        assert state_commutator_constraints(3, sets3.symbols, state_symbol(),
                                            index3) == []
    sc = Scenario(2, 2, 1, 1)
    sets4 = build_entdim_sets(sc, 4)
    index4 = VariableIndex(8, sets4.rewrites, TRC)
    cons = state_commutator_constraints(4, sets4.symbols, state_symbol(), index4)
    assert len(cons) > 0
    for con in cons:
        assert con.relation == Relation.EQ
        assert set(con.terms.values()) <= {1.0, -1.0}


def test_graph_variable_count_identity():
    # degree <= 2 canonical class count: 1 + |V| + number of non-edges
    g = cycle(5)
    syms, rw = _vertex_rewrites(g)
    index = VariableIndex(2, rw, TRC)
    moment_block(enumerate_basis(syms, 1, rw), index)
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
    index = VariableIndex(2, rw, TRC)
    with pytest.raises(ValueError, match="block"):
        assemble({0: 1.0}, "min", [], [], index)
    blk = moment_block([IDENTITY, (x,)], index)
    with pytest.raises(ValueError, match="sense"):
        assemble({0: 1.0}, "argmin", [blk], [], index)
    with pytest.raises(ValueError, match="unindexed"):
        assemble({99: 1.0}, "min", [blk], [], index)


def test_assemble_dedupes_constraints():
    x = vertex(0)
    rw = RewriteSystem(idempotents=frozenset([x]))
    index = VariableIndex(2, rw, TRC)
    blk = moment_block([IDENTITY, (x,)], index)
    c1 = LinearConstraint({0: 1.0}, 1.0, Relation.EQ)
    c2 = LinearConstraint({0: -1.0}, -1.0, Relation.EQ)  # same after sign flip
    prob = assemble({0: 1.0}, "min", [blk], [c1, c2, c1], index)
    assert len(prob.eq_constraints) == 1


def test_assemble_trims_zero_rows():
    x = vertex(0)
    rw = RewriteSystem(idempotents=frozenset([x]))
    index = VariableIndex(2, rw, TRC)
    one = np.zeros(1, dtype=np.int64)
    blk = CompiledBlock("moment", [IDENTITY, (x,)], one, one, one, np.ones(1))
    prob = assemble({0: 1.0}, "min", [blk], [], index)
    assert prob.blocks[0].size == 1


def test_unindexed_word_raises():
    x, y = vertex(0), vertex(1)
    index = VariableIndex(2, RewriteSystem(), TRC)
    with pytest.raises(InternalConsistencyError):
        index.var_of((x, y, x))  # degree 3 exceeds the index truncation
    assert len(index) == 1
    # The truncation applies to the class: x x y reduces to x y.
    index = VariableIndex(2, RewriteSystem(idempotents=frozenset([x])), TRC)
    assert index.var_of((x, x, y)) == index.var_of((y, x)) == 1


def _classes_up_to(symbols, two_r, rw, mode):
    """Reference numbering: the classes of all plain reduced words of degree
    <= 2r, sorted by (degree, word), computed word by word."""
    classes = {canonical_reduced(w, rw, mode)
               for w in enumerate_basis(symbols, two_r, rw)}
    classes.discard(None)
    return sorted(classes, key=lambda w: (len(w), w))


def _labeled(monkeypatch, system, g, k, r):
    monkeypatch.setattr(qgraph.conic, "feasibility", lambda problem: problem)
    return system(g, k, r)


_CHSH = Scenario(2, 2, 2, 2)
_STRENGTHEN = qgraph.Strengthening
# name -> (builder taking monkeypatch, symbols of the program)
_BUILDERS = {
    **{f"{kind} C{n} r{r}": (
        lambda mp, f=f, n=n, r=r: f(cycle(n), r), [vertex(i) for i in range(n)])
       for kind, f in (("stab", qgraph.build_stab_problem),
                       ("col", qgraph.build_col_problem))
       for n in (5, 7, 9) for r in (1, 2)},
    "col C7 r3": (lambda mp: qgraph.build_col_problem(cycle(7), 3),
                  [vertex(i) for i in range(7)]),
    "las-stab C5 r2": (
        lambda mp: qgraph.build_stab_problem(cycle(5), 2, commutative=True),
        [vertex(i) for i in range(5)]),
    "theta-plus C7 r2": (
        lambda mp: qgraph.build_col_problem(cycle(7), 2, _STRENGTHEN.THETA_PLUS),
        [vertex(i) for i in range(7)]),
    "xi-sdp C5 r2": (
        lambda mp: qgraph.build_col_problem(cycle(5), 2, _STRENGTHEN.XI_SDP),
        [vertex(i) for i in range(5)]),
    "coloring system C5 k3 r2": (
        lambda mp: _labeled(mp, qgraph.col_system_feasible, cycle(5), 3, 2),
        [vertex(i, c) for i in range(5) for c in range(3)]),
    "stability system C5 k2 r2": (
        lambda mp: _labeled(mp, qgraph.stab_system_feasible, cycle(5), 2, 2),
        [vertex(i, c) for i in range(5) for c in range(2)]),
    "stab C7xK3 r1": (
        lambda mp: qgraph.build_stab_problem(cartesian_product(cycle(7), 3), 1),
        [vertex(i) for i in range(21)]),
    **{f"entdim CHSH r{r}": (
        lambda mp, r=r: build_xi_problem(
            corrlab.realize(corrlab.tsirelson_chsh()), r),
        build_entdim_sets(_CHSH, r).symbols) for r in (1, 2, 3)},
    "entdim (2,2,1,1) r3": (
        lambda mp: build_xi_problem(corrlab.realize(corrlab.random_realization(
            Scenario(2, 2, 1, 1), 2, 3)), 3),
        build_entdim_sets(Scenario(2, 2, 1, 1), 3).symbols),
    "entdim (3,2,2,1) r2": (
        lambda mp: build_xi_problem(corrlab.realize(corrlab.random_realization(
            Scenario(3, 2, 2, 1), 2, 4)), 2),
        build_entdim_sets(Scenario(3, 2, 2, 1), 2).symbols),
}


@pytest.mark.parametrize("name", sorted(_BUILDERS))
def test_index_numbers_every_class_in_degree_lex_order(name, monkeypatch):
    build, symbols = _BUILDERS[name]
    problem = build(monkeypatch)
    index = problem.index
    assert index.words == _classes_up_to(symbols, 2 * problem.r, index.rw,
                                         index.mode)
    assert problem.num_vars == len(index.words)


@st.composite
def _small_graphs(draw):
    n = draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, edges)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(_small_graphs(), st.integers(1, 2), st.booleans())
def test_moment_block_registers_every_class(g, r, commutative):
    syms, rw = _vertex_rewrites(g, commutative)
    mode = PLAIN if commutative else TRC
    index = VariableIndex(2 * r, rw, mode)
    moment_block(enumerate_basis(syms, r, rw), index)
    assert index.words == _classes_up_to(syms, 2 * r, rw, mode)


@st.composite
def _rows(draw):
    """A row over variables 0..19 with small nonzero integer coefficients."""
    vids = draw(st.lists(st.integers(0, 19), min_size=1, max_size=6, unique=True))
    coefs = draw(st.lists(st.integers(-9, 9).filter(bool), min_size=len(vids),
                          max_size=len(vids)))
    relation = draw(st.sampled_from([Relation.EQ, Relation.GE]))
    return LinearConstraint(dict(zip(vids, map(float, coefs))),
                            float(draw(st.integers(-9, 9))), relation)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_rows(), st.floats(0.01, 100.0), st.booleans(), st.randoms(use_true_random=False))
def test_row_rule_keeps_rescaled_reordered_rows_in_one_class(row, factor, flip, rnd):
    # An equality keeps its class under any nonzero factor, an inequality
    # under a positive one; the term order never matters.
    if flip and row.relation == Relation.EQ:
        factor = -factor
    items = list(row.terms.items())
    rnd.shuffle(items)
    moved = LinearConstraint({v: factor * c for v, c in items}, factor * row.rhs,
                             row.relation)
    assert moved.key() == row.key()
    assert distinct([row, moved]) == [row]
    # an inequality and its negation cut out different sets
    if row.relation == Relation.GE:
        negated = LinearConstraint({v: -c for v, c in items}, -row.rhs, Relation.GE)
        assert negated.key() != row.key()
        assert distinct([row, negated]) == [row, negated]


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.lists(_rows(), min_size=1, max_size=8), st.lists(st.integers(0, 7), max_size=8))
def test_row_key_agrees_with_the_deduplication(rows, copies):
    # Scaled copies of some rows, put after them: two rows share a key
    # exactly when the deduplication puts them in one class.
    rows = rows + [LinearConstraint({v: 3.0 * c for v, c in rows[i].terms.items()},
                                    3.0 * rows[i].rhs, rows[i].relation)
                   for i in copies if i < len(rows)]
    first = row_classes(rows)
    keys = [row.key() for row in rows]
    for i, j in np.ndindex(len(rows), len(rows)):
        assert (first[i] == first[j]) == (keys[i] == keys[j])
    kept = distinct(rows)
    assert [row.key() for row in kept] == list(dict.fromkeys(keys))
    assert all(row is rows[k] for row, k in zip(kept, sorted(set(first.tolist()))))


# ---------------------------------------------------------------------------
# Reference: blocks built entry by entry as {(i, j): form} dicts
# ---------------------------------------------------------------------------


def _reference_arrays(label, row_words, entries):
    """The block of {(i, j): [(variable, coefficient), ...]}, i <= j, without
    its rows that hold no entry, as arrays sorted by row and column."""
    live = sorted({k for ij in entries for k in ij})
    at = {old: new for new, old in enumerate(live)}
    terms = [(at[i], at[j], vid, c) for (i, j), form in entries.items()
             for vid, c in form]
    rows, cols, vids, coefs = (np.array(a) for a in zip(*terms))
    order = np.lexsort((cols, rows))
    return CompiledBlock(label, [row_words[i] for i in live],
                         vids.astype(np.int64)[order], rows.astype(np.int64)[order],
                         cols.astype(np.int64)[order], coefs.astype(float)[order])


def _reference_moment_block(basis_r, index):
    """Canonicalize every entry, number the new classes in (degree, lex)
    order, then map each entry to its id."""
    canon, new = {}, set()
    for i, u in enumerate(basis_r):
        for j in range(i, len(basis_r)):
            w = canonical_reduced(involution(u) + basis_r[j], index.rw, index.mode)
            if w is not None:
                canon[(i, j)] = w
                if w not in index.id_of:
                    new.add(w)
    for w in sorted(new, key=lambda w: (len(w), w)):
        index._register(w)
    entries = {ij: [(index.id_of[w], 1.0)] for ij, w in canon.items()}
    return _reference_arrays("moment", list(basis_r), entries)


def _reference_localizing_block(g, r, index, symbols, label=None):
    """Forms of L(u* g v) by entry; rows that are zero or repeat an earlier
    row form for form are dropped."""
    g = g.reduced(index.rw)
    rows = enumerate_basis(symbols, max(r - (g.deg + 1) // 2, 0), index.rw)
    entries = {}
    for i, u in enumerate(rows):
        for j in range(i, len(rows)):
            form = index.form((involution(u) + w + rows[j], c) for w, c in g.terms.items())
            if form:
                entries[(i, j)] = sorted(form.items())
    keep, seen = [], set()
    for i in range(len(rows)):
        row = tuple(tuple(entries.get((min(i, j), max(i, j)), ())) for j in range(len(rows)))
        if any(row) and row not in seen:
            seen.add(row)
            keep.append(i)
    new = {old: k for k, old in enumerate(keep)}
    entries = {(new[i], new[j]): form for (i, j), form in entries.items()
               if i in new and j in new}
    return _reference_arrays(label or f"loc[{g}]", [rows[i] for i in keep], entries)


def _assert_same_blocks(got, want):
    assert [(b.label, b.size, b.row_words) for b in got] == [
        (b.label, b.size, b.row_words) for b in want]
    for a, b in zip(got, want):
        for attr in ("row_degrees", "var_ids", "rows", "cols", "coefs"):
            x, y = getattr(a, attr), getattr(b, attr)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), attr


def _assert_same_problem(got, want):
    _assert_same_blocks(got.blocks, want.blocks)
    assert got.index.words == want.index.words  # ids in registration order
    assert got.num_vars == want.num_vars
    assert ([(c.terms, c.rhs, c.relation) for c in got.constraints]
            == [(c.terms, c.rhs, c.relation) for c in want.constraints])
    assert got.objective == want.objective
    assert got.metadata == want.metadata


def _graph_build(builder, n, r, commutative):
    return lambda: getattr(qgraph, builder)(cycle(n), r, commutative=commutative)


def _xi_build(scenario, r, seed):
    table = (corrlab.tsirelson_chsh() if scenario == (2, 2, 2, 2) else
             corrlab.random_realization(Scenario(*scenario), 2, seed))
    return lambda: build_xi_problem(corrlab.realize(table), r)


_REFERENCE_BUILDS = {
    **{f"{b} C{n} r{r}{' comm' if c else ''}": _graph_build(b, n, r, c)
       for b, n in (("build_stab_problem", 5), ("build_col_problem", 7))
       for r in (1, 2, 3) for c in (False, True)},
    **{f"xi CHSH r{r}": _xi_build((2, 2, 2, 2), r, 0) for r in (1, 2, 3)},
    "xi (2,2,1,1) r3": _xi_build((2, 2, 1, 1), 3, 3),
}


@pytest.mark.parametrize("name", sorted(_REFERENCE_BUILDS))
def test_builders_match_the_entry_by_entry_reference(name, monkeypatch):
    build = _REFERENCE_BUILDS[name]
    got = build()
    for mod in (qgraph, entdim):
        monkeypatch.setattr(mod, "moment_block", _reference_moment_block)
    monkeypatch.setattr(entdim, "localizing_block", _reference_localizing_block)
    _assert_same_problem(got, build())


@pytest.mark.parametrize("strengthening", ["NONE", "THETA_PLUS"])
def test_sdpa_import_matches_the_entry_by_entry_reference(strengthening):
    # theta+ adds inequalities, which come back as a diagonal slack block
    prob = qgraph.build_col_problem(cycle(5), 1, qgraph.Strengthening[strengthening])
    parsed = conic.parse_sdpa(conic.export_sdpa(prob))
    blocks, vid = [], 0
    for b, sz in enumerate(parsed.block_sizes):
        n = abs(sz)
        entries = {}
        for i in range(n):
            for j in range(i, i + 1 if sz < 0 else n):
                entries[(i, j)] = [(vid, 1.0)]
                vid += 1
        blocks.append(_reference_arrays("moment" if b == 0 else f"block{b}",
                                        [(i,) for i in range(n)], entries))
    imported = conic.sdpa_to_problem(parsed)
    _assert_same_blocks(imported.blocks, blocks)
    assert imported.num_vars == vid
