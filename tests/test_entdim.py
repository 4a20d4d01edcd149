import numpy as np
import pytest

from ncmoment import conic, corrlab
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
    state_symbol,
)
from ncmoment.entdim import (
    Correlation,
    CorrelationError,
    EntdimConfig,
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
    # 4 kept symbols, 4 complements 1 - x_s^0 and 1 - y_t^0, and z
    assert len(sets.generators) == 9
    assert [g.deg for g in sets.generators] == [1] * 9
    # state idempotence + cross-party commutators of the kept symbols
    assert len(sets.ideal) == 1 + 4


def test_problem_shape_level_two():
    P = corrlab.random_classical(CHSH, 3, seed=2)
    prob = build_xi_problem(P, 2)
    sizes = [b.size for b in prob.blocks]
    assert sizes[0] == 26  # 1 + 5 symbols + 20 reduced degree-2 words
    assert sizes[1:] == [6] * 9  # localizing blocks over degree <= 1 words
    assert prob.num_vars == 121
    # L(z) = 1 and the 16 expanded data rows, none of them duplicates
    assert prob.metadata["num_eq"] == 17


def test_problem_shape_level_three():
    P = corrlab.realize(corrlab.tsirelson_chsh())
    prob = build_xi_problem(P, 3)
    assert prob.blocks[0].size == 102
    assert prob.num_vars == 692


def test_single_answer_party_has_no_constant_block():
    # With one answer, Alice's complement 1 - (empty sum) is the constant 1,
    # whose block would repeat a principal submatrix of the moment block.
    sc = Scenario(1, 2, 1, 2)
    sets = build_entdim_sets(sc, 2)
    assert all(g.deg > 0 for g in sets.generators)
    assert len(sets.generators) == 2 + 2 + 1  # y_t^0, 1 - y_t^0, z
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
    index = VariableIndex(syms, 2 * r, rw, trc)
    rows = enumerate_basis(syms, r, rw, EquivalenceMode.PLAIN)
    blocks = [moment_block(rows, rw, trc, index)]
    blocks += [localizing_block(NcPolynomial.from_word((s,)), r, rw, trc,
                                index, syms) for s in syms]
    cons = ideal_constraints(sum_rules, 2 * r, rw, trc, index, syms)
    cons += state_commutator_constraints(r, syms, z, rw, index)
    cons.append(LinearConstraint({index.var_of((z,)): 1.0}, 1.0))
    if 2 * r >= 3:
        for a, b, s, t in np.ndindex(P.table.shape):
            vid = index.var_of((alice(s, a), bob(t, b), z))
            cons.append(LinearConstraint({vid: 1.0}, float(P.table[a, b, s, t])))
    return assemble({0: 1.0}, "min", blocks, cons, index, r=r)


def test_full_alphabet_reference_shape():
    P = corrlab.random_classical(CHSH, 3, seed=2)
    prob = _full_alphabet_problem(P, 2)
    assert [b.size for b in prob.blocks] == [74] + [10] * 9
    assert prob.num_vars == 776


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("label", ["tsirelson", "two-qubit"])
def test_collins_gisin_matches_full_alphabet_chsh(label, r):
    real = (corrlab.tsirelson_chsh() if label == "tsirelson"
            else corrlab.random_realization(CHSH, d=2, seed=0))
    P = corrlab.realize(real)
    ref = conic.solve(_full_alphabet_problem(P, r), tol=EntdimConfig().tol)
    assert abs(xi_q(P, r).value - ref.objective) < 1e-6


def test_collins_gisin_matches_full_alphabet_three_answers():
    sc = Scenario(3, 2, 2, 1)
    P = corrlab.realize(corrlab.random_realization(sc, d=2, seed=0))
    ref = conic.solve(_full_alphabet_problem(P, 1), tol=EntdimConfig().tol)
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


def test_basis_cap_enforced():
    from ncmoment.ncwords import BasisSizeError

    P = corrlab.random_classical(CHSH, 3, seed=6)
    with pytest.raises(BasisSizeError):
        build_xi_problem(P, 2, EntdimConfig(basis_cap=50))


def test_infeasibility_surfaced_with_margin():
    # an objective cap below the floor L(1) >= 1 makes the system infeasible;
    # the failure must carry the feasibility margin rather than pass silently
    P = corrlab.random_classical(CHSH, 3, seed=7)
    with pytest.raises(InfeasibleCorrelationError) as exc:
        xi_q(P, 1, EntdimConfig(objective_cap=0.5))
    assert "level-1" in str(exc.value)


def test_signalling_table_infeasible():
    # Alice's marginal for s = 0 depends on t: the expanded data rows of
    # the Collins-Gisin program contradict each other.
    t = np.zeros((2, 2, 2, 2))
    t[0, 0, 0, 0] = t[1, 1, 0, 1] = t[0, 0, 1, 0] = t[0, 0, 1, 1] = 1.0
    with pytest.raises(InfeasibleCorrelationError):
        xi_q(Correlation(CHSH, t), 2)


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
