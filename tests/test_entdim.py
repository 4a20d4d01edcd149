import dataclasses

import numpy as np
import pytest

from ncmoment import _ipm, cli, conic, corrlab, entdim
from ncmoment.momentize import (
    LinearConstraint,
    VariableIndex,
    assemble,
    ideal_constraints,
    localizing_block,
    moment_block,
    state_commutator_constraints,
)
from ncmoment.ncwords import (
    EquivalenceMode,
    NcPolynomial,
    RewriteSystem,
    alice,
    bob,
    enumerate_basis,
    reduce_word,
    state_symbol,
)
from ncmoment.entdim import (
    Correlation,
    CorrelationError,
    InfeasibleCorrelationError,
    Scenario,
    build_entdim_sets,
    build_xi_problem,
    monotonicity_audit,
    xi_q,
)

CHSH = Scenario(2, 2, 2, 2)


def test_scenario_validation():
    with pytest.raises(CorrelationError):
        Scenario(0, 2, 2, 2)


def test_correlation_validation_negative():
    t = np.full((2, 2, 2, 2), 0.25)
    t[0, 0, 0, 0] = -1e-3
    t[1, 1, 0, 0] = 0.25 + 1e-3
    with pytest.raises(CorrelationError, match="negative"):
        Correlation(CHSH, t)


def test_correlation_validation_normalization():
    t = np.full((2, 2, 2, 2), 0.3)
    with pytest.raises(CorrelationError, match="sum"):
        Correlation(CHSH, t)


def test_correlation_clamps_tiny_negatives():
    t = np.full((2, 2, 2, 2), 0.25)
    t[0, 0, 0, 0] = -1e-14
    t[1, 1, 0, 0] = 0.5 + 1e-14
    P = Correlation(CHSH, t)
    assert P.table.min() >= 0.0


def test_correlation_json_roundtrip():
    P = corrlab.random_classical(CHSH, 3, seed=9)
    Q = Correlation.from_json(P.to_json())
    assert np.abs(P.table - Q.table).max() < 1e-15


def test_build_sets_counts_chsh():
    sets = build_entdim_sets(CHSH, 1)
    assert len(sets.symbols) == 5  # x_0^0, x_1^0, y_0^0, y_1^0 and z
    # 4 kept symbols and 4 complements 1 - x_s^0 and 1 - y_t^0; z has none
    assert len(sets.generators) == 8
    assert [g.deg for g in sets.generators] == [1] * 8
    # state idempotence + cross-party commutators of the kept symbols
    assert len(sets.ideal) == 1 + 4


def test_problem_shape_level_two():
    P = corrlab.random_classical(CHSH, 3, seed=2)
    prob = build_xi_problem(P, 2)
    sizes = [b.size for b in prob.blocks]
    assert sizes[0] == 26  # 1 + 5 symbols + 20 reduced degree-2 words
    # Localizing blocks over degree <= 1 words, one per kept symbol and per
    # complement; z has no block (see test_z_block_is_a_moment_submatrix).
    assert sizes[1:] == [6] * 8
    assert prob.num_vars == 121
    # L(z) = 1 and the 16 expanded data rows, none of them duplicates
    assert prob.metadata["num_eq"] == 17


@pytest.mark.parametrize("label", ["tsirelson", "classical"])
def test_level_two_blocks_have_no_common_null_vector(label):
    # A common null vector of the lifted constant C_b + E(y0) and of every
    # lifted coefficient E'_a = sum_k B[k, a] E_k^(b) is a null vector of
    # S_b(y) at every feasible y, so the program would have no Slater point.
    P = (corrlab.realize(corrlab.tsirelson_chsh()) if label == "tsirelson"
         else corrlab.random_classical(CHSH, 3, seed=2))
    prog, _, _ = conic._build_cone_program(build_xi_problem(P, 2))
    for g in prog.groups:
        S = g.const
        G = np.moveaxis(_ipm._coefficients(g), -1, 1)
        for b in range(len(g.members)):
            stack = np.concatenate([S[b][None], G[b]]).reshape(-1, g.size)
            sv = np.linalg.svd(stack, compute_uv=False)
            assert sv[-1] > 1e-8 * sv[0], f"block {g.members[b]}"


def test_problem_shape_level_three():
    P = corrlab.realize(corrlab.tsirelson_chsh())
    prob = build_xi_problem(P, 3)
    assert prob.blocks[0].size == 102
    assert prob.num_vars == 683


@pytest.mark.parametrize("r", [2, 3])
def test_z_block_is_a_moment_submatrix(r):
    # z = z^2 under the rewrite rules, so L(u* z v) = L((zu)* (zv)): the
    # localizing block of z repeats the moment block on the rows z u, which
    # is why build_entdim_sets gives z no generator.
    sets = build_entdim_sets(CHSH, r)
    rw, syms = sets.rewrites, sets.symbols
    index = VariableIndex(2 * r, rw, EquivalenceMode.TRACIAL_SYMMETRIC)
    rows = enumerate_basis(syms, r, rw)
    moment = moment_block(rows, index)
    z = state_symbol()
    loc = localizing_block(NcPolynomial.from_word((z,)), r, index, syms)
    assert loc.size > 1
    at = {w: i for i, w in enumerate(rows)}
    zrow = [at[reduce_word((z,) + u, rw)] for u in loc.row_words]
    for i in range(loc.size):
        for j in range(i, loc.size):
            p, q = sorted((zrow[i], zrow[j]))
            assert loc.entries.get((i, j)) == moment.entries.get((p, q))


def test_single_answer_party_has_no_constant_block():
    # With one answer, Alice's complement 1 - (empty sum) is the constant 1,
    # whose block would repeat a principal submatrix of the moment block.
    sc = Scenario(1, 2, 1, 2)
    sets = build_entdim_sets(sc, 2)
    assert all(g.deg > 0 for g in sets.generators)
    assert len(sets.generators) == 2 + 2  # y_t^0, 1 - y_t^0
    table = np.zeros((1, 2, 1, 2))
    table[0, :, 0, 0] = [0.3, 0.7]
    table[0, :, 0, 1] = [0.6, 0.4]
    P = Correlation(sc, table)
    prob = build_xi_problem(P, 2)
    assert len(prob.blocks) == 1 + len(sets.generators)
    assert abs(xi_q(P, 2).value - 1.0) < 1e-5


def _full_alphabet_problem(P, r):
    """Reference: the level-r program over every outcome symbol.

    Completeness enters as the truncated ideal of the sum rules
    1 - sum_a x_s^a and 1 - sum_b y_t^b, and every symbol gets a localizing
    block.  This is the formulation before Collins–Gisin elimination.
    """
    sc = P.scenario
    trc = EquivalenceMode.TRACIAL_SYMMETRIC
    z = state_symbol()
    xs = [[alice(s, a) for a in range(sc.nA)] for s in range(sc.nS)]
    ys = [[bob(t, b) for b in range(sc.nB)] for t in range(sc.nT)]
    flat_xs = [x for q in xs for x in q]
    flat_ys = [y for q in ys for y in q]
    syms = flat_xs + flat_ys + [z]
    rw = RewriteSystem(idempotents=frozenset([z]),
                       swap_patterns=frozenset((y, x) for y in flat_ys
                                               for x in flat_xs))
    sum_rules = []
    for question in xs + ys:
        h = NcPolynomial.one()
        for sym in question:
            h = h - NcPolynomial.from_word((sym,))
        sum_rules.append(h)
    index = VariableIndex(2 * r, rw, trc)
    rows = enumerate_basis(syms, r, rw)
    blocks = [moment_block(rows, index)]
    blocks += [localizing_block(NcPolynomial.from_word((s,)), r, index, syms)
               for s in syms]
    cons = ideal_constraints(sum_rules, 2 * r, index, syms)
    cons += state_commutator_constraints(r, syms, z, index)
    cons.append(LinearConstraint({index.var_of((z,)): 1.0}, 1.0))
    if 2 * r >= 3:
        for a, b, s, t in np.ndindex(P.table.shape):
            vid = index.var_of((alice(s, a), bob(t, b), z))
            cons.append(LinearConstraint({vid: 1.0}, float(P.table[a, b, s, t])))
    return assemble({0: 1.0}, "min", blocks, cons, index, r=r)


def test_full_alphabet_reference_shape():
    P = corrlab.random_classical(CHSH, 3, seed=2)
    prob = _full_alphabet_problem(P, 2)
    assert [b.size for b in prob.blocks] == [74] + [10] * 8 + [9]
    assert prob.num_vars == 776


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("label", ["tsirelson", "two-qubit"])
def test_collins_gisin_matches_full_alphabet_chsh(label, r):
    real = (corrlab.tsirelson_chsh() if label == "tsirelson"
            else corrlab.random_realization(CHSH, d=2, seed=0))
    P = corrlab.realize(real)
    ref = conic.solve(_full_alphabet_problem(P, r))
    assert abs(xi_q(P, r).value - ref.objective) < 1e-6


def test_collins_gisin_matches_full_alphabet_three_answers():
    sc = Scenario(3, 2, 2, 1)
    P = corrlab.realize(corrlab.random_realization(sc, d=2, seed=0))
    ref = conic.solve(_full_alphabet_problem(P, 1))
    assert abs(xi_q(P, 1).value - ref.objective) < 1e-6


def test_level_one_data_constraints_dropped():
    P = corrlab.random_classical(CHSH, 3, seed=2)
    prob = build_xi_problem(P, 1)
    assert prob.metadata["data_constraints_dropped"] == 16


def test_xi_q_level_one_trivial():
    for seed in (0, 1):
        real = corrlab.random_realization(CHSH, d=2, seed=seed)
        res = xi_q(corrlab.realize(real), 1)
        assert abs(res.value - 1.0) < 1e-5


def test_xi_q_level_two_classical_table():
    P = corrlab.random_classical(CHSH, 4, seed=3)
    res = xi_q(P, 2)
    assert abs(res.value - 1.0) < 1e-4


def test_xi_q_level_two_deterministic_table():
    P = corrlab.deterministic_correlation(CHSH, (0, 1), (1, 0))
    res = xi_q(P, 2)
    assert abs(res.value - 1.0) < 1e-5


def test_relabeling_invariance():
    P = corrlab.realize(corrlab.random_realization(CHSH, d=2, seed=4))
    v1 = xi_q(P, 2).value
    v2 = xi_q(P.permuted(pa=[1, 0], ps=[1, 0]), 2).value
    assert abs(v1 - v2) < 1e-6


def test_monotonicity_audit_classical():
    P = corrlab.random_classical(CHSH, 3, seed=5)
    values = monotonicity_audit(P, 2)
    assert len(values) == 2
    assert values[1] >= values[0] - 1e-6
    assert abs(values[0] - 1.0) < 1e-5


def test_level_cap_enforced():
    P = corrlab.random_classical(CHSH, 3, seed=6)
    with pytest.raises(ValueError, match="cap"):
        xi_q(P, 4)


def test_basis_cap_fails_fast(monkeypatch):
    # (4,4,4,4) at r = 3: the moment block has over 10^8 row pairs and far
    # more classes than BASIS_CAP.  The build must stop early in the block,
    # not after canonicalizing every pair.
    from ncmoment import momentize
    from ncmoment.ncwords import BasisSizeError

    sc = Scenario(4, 4, 4, 4)
    P = Correlation(sc, np.full((4, 4, 4, 4), 1 / 16))
    calls = []
    real = momentize.canonical_reduced

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(momentize, "canonical_reduced", counted)
    with pytest.raises(BasisSizeError, match=str(entdim.BASIS_CAP)):
        build_xi_problem(P, 3)
    sets = build_entdim_sets(sc, 3)
    n = len(enumerate_basis(sets.symbols, 3, sets.rewrites, cap=entdim.BASIS_CAP))
    assert 0 < len(calls) < n * (n + 1) // 2


def test_signalling_table_infeasible():
    # Alice's marginal for s = 0 depends on t: the expanded data rows of
    # the Collins-Gisin program contradict each other.
    t = np.zeros((2, 2, 2, 2))
    t[0, 0, 0, 0] = t[1, 1, 0, 1] = t[0, 0, 1, 0] = t[0, 0, 1, 1] = 1.0
    with pytest.raises(InfeasibleCorrelationError) as exc:
        xi_q(Correlation(CHSH, t), 2)
    assert exc.value.r == 2
    assert exc.value.margin == -np.inf
    assert "level-2" in str(exc.value)


def test_iteration_cap_gives_no_bound(monkeypatch, tmp_path):
    # After three iterations the solver stops at numerical_limit far from
    # the optimum (the value there is about 12.6, the optimum 1); that point
    # is no lower bound, so the library raises and the CLI exits with 1.
    monkeypatch.setattr(_ipm, "MAX_ITER", 3)
    P = corrlab.realize(corrlab.tsirelson_chsh())
    with pytest.raises(conic.SolverError, match="numerical_limit"):
        xi_q(P, 1)
    path = tmp_path / "tsirelson.json"
    path.write_text(P.to_json())
    out = tmp_path / "rep.json"
    assert cli.main(["corr-bound", "--level", "2", "--input", str(path),
                     "--out", str(out)]) == 1
    assert not out.exists()


def test_upper_bound_from_realization():
    # the solved bound never exceeds the dimension of a generating realization
    for seed in (0, 1):
        real = corrlab.random_realization(CHSH, d=2, seed=seed)
        P = corrlab.realize(real)
        res = xi_q(P, 2)
        assert res.value <= real.d ** 2 + 1e-4


def test_flatness_attached_with_entdim_delta():
    P = corrlab.random_classical(CHSH, 3, seed=8)
    res = xi_q(P, 2)
    assert res.flatness.entdim_delta == 2  # ceil(2/3) + 1
    assert res.flatness.r == 2


# ---------------------------------------------------------------------------
# Relabelings that fix the table
# ---------------------------------------------------------------------------


def _partially_entangled():
    """cos(pi/8)|00> + sin(pi/8)|11>, Alice measuring Z, X and Bob
    (Z +- X)/sqrt 2: fixed by one relabeling besides the identity."""
    Z = np.diag([1.0, -1.0]).astype(complex)
    X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    psi = np.zeros(4, dtype=complex)
    psi[0], psi[3] = np.cos(np.pi / 8), np.sin(np.pi / 8)
    A, B = [Z, X], [(Z + X) / np.sqrt(2.0), (Z - X) / np.sqrt(2.0)]
    E = np.array([[(eye + (-1) ** a * A[s]) / 2 for a in range(2)] for s in range(2)])
    F = np.array([[(eye + (-1) ** b * B[t]) / 2 for b in range(2)] for t in range(2)])
    return corrlab.realize(corrlab.Realization(2, psi, E, F))


@pytest.mark.parametrize("label,order", [
    ("tsirelson", 16), ("pr-box", 16), ("classical", 1), ("two-qubit", 1)])
def test_stabilizer_orders(label, order):
    P = {"tsirelson": lambda: corrlab.realize(corrlab.tsirelson_chsh()),
         "pr-box": corrlab.pr_box,
         "classical": lambda: corrlab.random_classical(CHSH, 3, seed=5),
         "two-qubit": lambda: corrlab.realize(
             corrlab.random_realization(CHSH, d=2, seed=0))}[label]()
    group = entdim._stabilizer(P)
    assert len(group) == len(set(group)) == order
    assert len(build_xi_problem(P, 1).symmetries) == (order > 1) * 2


@pytest.mark.parametrize("n,k", [
    (3, 3),  # about 3 * 10^6 relabelings, all of which fix it
    (4, 4),  # about 10^14
    (2, 8),  # about 2 * 10^14
])
def test_stabilizer_search_gives_up_at_the_cap(n, k):
    # a uniform table, with n answers and k questions per party: more
    # relabelings than BASIS_CAP, so none is tried
    P = Correlation(Scenario(n, n, k, k), np.full((n, n, k, k), 1 / n ** 2))
    assert entdim._stabilizer(P) == []


SYMMETRIC_TABLES = {
    "tsirelson": lambda: corrlab.realize(corrlab.tsirelson_chsh()),
    # the PR box at visibility 1/2, a mixture of deterministic strategies
    "classical": lambda: Correlation(CHSH, 0.5 * corrlab.pr_box().table + 1 / 8),
    "two-qubit": _partially_entangled,
}


@pytest.mark.parametrize("label,r", [(label, r) for label in SYMMETRIC_TABLES
                                     for r in (1, 2)] + [("tsirelson", 3)])
def test_symmetries_keep_the_value(label, r):
    prob = build_xi_problem(SYMMETRIC_TABLES[label](), r)
    assert prob.symmetries
    merged = conic.solve(prob)
    full = conic.solve(dataclasses.replace(prob, symmetries=[]))
    assert merged.status == full.status == conic.SolveStatus.OPTIMAL
    assert abs(merged.objective - full.objective) <= 1e-7


def test_answer_flip_on_a_table_it_does_not_fix():
    prob = build_xi_problem(corrlab.random_classical(CHSH, 3, seed=5), 2)
    flip = {alice(0, 0): NcPolynomial.one() - NcPolynomial.from_word((alice(0, 0),))}
    with pytest.raises(conic.SymmetryError, match="constraint"):
        conic.solve(dataclasses.replace(prob, symmetries=[flip]))


def test_missing_block_image_raises():
    # the answer flips of Tsirelson's table carry loc[x0^0] to
    # loc[1 - x0^0]; without that block loc[x0^0] has no image
    prob = build_xi_problem(corrlab.realize(corrlab.tsirelson_chsh()), 2)
    blocks = [b for b in prob.blocks if b.label != f"loc[{_outcome(0, 1)}]"]
    assert len(blocks) == len(prob.blocks) - 1
    with pytest.raises(conic.SymmetryError, match="entry forms"):
        conic.solve(dataclasses.replace(prob, blocks=blocks))


def _outcome(s, a):
    return entdim._outcome(alice, s, a, 2).reduced(RewriteSystem())


def test_pr_box_margin_bounds_the_restricted_program():
    # The PR box's answer flips are no permutations, so its level-3 program
    # is solved on the fixed subspace of its relabelings.  The certificate's
    # margin bounds the margin of that restricted program (about -0.114),
    # which lies below the full program's (about -0.061, a 9 s solve): only
    # the sign carries over to the full program.
    P = corrlab.pr_box()
    with pytest.raises(InfeasibleCorrelationError) as exc:
        xi_q(P, 3)
    prob = build_xi_problem(P, 3)
    assert any(not conic._is_permutation(g) for g in prob.symmetries)
    feasible, margin = conic.feasibility(dataclasses.replace(prob, objective={}))
    assert not feasible
    assert margin <= exc.value.margin < 0
