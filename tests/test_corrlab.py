import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

from ncmoment import corrlab
from ncmoment.corrlab import (
    ClassicalityCertificate,
    Realization,
    ValidationError,
    Verdict,
    chsh_game_value,
    classical_membership,
    cpsd_gram_from_projectors,
    deterministic_correlation,
    factorize,
    gram_of_synchronous,
    gram_to_realization,
    pr_box,
    random_classical,
    random_projector_family,
    random_realization,
    realize,
    synchronous_from_projectors,
    tsirelson_chsh,
)
from ncmoment.entdim import Correlation, Scenario

CHSH = Scenario(2, 2, 2, 2)
# direct_cap=4 forces column generation on CHSH (4 strategies per party).
PATHS = pytest.mark.parametrize("direct_cap", [100_000, 4],
                                ids=["direct", "colgen"])


def _pr_box_at(visibility):
    """PR box mixed with white noise; a facet point at visibility 1/2."""
    return Correlation(CHSH, visibility * pr_box().table
                       + (1.0 - visibility) * 0.25)


def _strategy_tables():
    return [deterministic_correlation(CHSH, g, h).table
            for g in itertools.product(range(2), repeat=2)
            for h in itertools.product(range(2), repeat=2)]


def test_realize_normalization_random():
    real = random_realization(CHSH, d=2, seed=0)
    P = realize(real)
    sums = P.table.sum(axis=(0, 1))
    assert np.abs(sums - 1.0).max() < 1e-12
    assert P.dq_upper == 4


def test_realize_scalar_dimension_is_product():
    real = random_realization(CHSH, d=1, seed=1)
    P = realize(real)
    # d = 1 gives P(a,b|s,t) = PA(a|s) PB(b|t)
    pa = P.table.sum(axis=1)[:, :, 0]  # (a, s)
    pb = P.table.sum(axis=0)[:, 0, :]  # (b, t)
    for a in range(2):
        for b in range(2):
            for s in range(2):
                for t in range(2):
                    assert abs(P.table[a, b, s, t] - pa[a, s] * pb[b, t]) < 1e-12


def test_validation_names_failures():
    real = random_realization(CHSH, d=2, seed=2)
    bad = Realization(real.d, real.psi * 1.5, real.E, real.F)
    with pytest.raises(ValidationError, match="norm"):
        bad.validate()
    E = real.E.copy()
    E[0, 0] = E[0, 0] + 0.5 * np.eye(2)
    with pytest.raises(ValidationError, match=r"E\[0\]"):
        Realization(real.d, real.psi, E, real.F).validate()


def test_tsirelson_game_value():
    P = realize(tsirelson_chsh())
    assert abs(chsh_game_value(P) - (0.5 + np.sqrt(2) / 4)) < 1e-9


def test_classical_bound_exhaustive():
    # independent oracle: all 16 deterministic strategies win at most 3/4
    best = 0.0
    for g in itertools.product(range(2), repeat=2):
        for h in itertools.product(range(2), repeat=2):
            val = chsh_game_value(deterministic_correlation(CHSH, g, h))
            best = max(best, val)
    assert abs(best - 0.75) < 1e-12


def test_uniform_table_classical():
    from ncmoment.entdim import Correlation

    P = Correlation(CHSH, np.full((2, 2, 2, 2), 0.25))
    cert = classical_membership(P)
    assert cert.verdict == Verdict.CLASSICAL


def test_pr_box_nonclassical_with_margin():
    cert = classical_membership(pr_box())
    assert cert.verdict == Verdict.NONCLASSICAL
    assert cert.margin >= 0.25
    # the separating functional beats every deterministic strategy by margin
    c = cert.functional.reshape(-1)
    p = pr_box().table.reshape(-1)
    best = max(
        float(c @ deterministic_correlation(CHSH, g, h).table.reshape(-1))
        for g in itertools.product(range(2), repeat=2)
        for h in itertools.product(range(2), repeat=2)
    )
    assert c @ p - best >= cert.margin - 1e-9


def test_tsirelson_nonclassical():
    cert = classical_membership(realize(tsirelson_chsh()))
    assert cert.verdict == Verdict.NONCLASSICAL
    assert cert.margin > 1e-3


def test_classical_weights_reproduce_table():
    P = random_classical(CHSH, 5, seed=10)
    cert = classical_membership(P)
    assert cert.verdict == Verdict.CLASSICAL
    table = np.zeros(P.table.shape)
    for (g, h), w in cert.weights.items():
        table += w * deterministic_correlation(CHSH, g, h).table
    assert np.abs(table - P.table).max() < 1e-8


@PATHS
def test_pr_box_facet_point_is_classical(direct_cap):
    P = _pr_box_at(0.5)  # true margin 0
    cert = classical_membership(P, direct_cap=direct_cap)
    assert cert.verdict == Verdict.CLASSICAL
    w = np.array(list(cert.weights.values()))
    assert w.min() > 0.0 and abs(w.sum() - 1.0) <= 1e-12
    table = sum(wk * deterministic_correlation(CHSH, g, h).table
                for (g, h), wk in cert.weights.items())
    assert np.abs(table - P.table).max() <= 1e-8


@PATHS
def test_pr_box_past_facet_is_nonclassical(direct_cap):
    P = _pr_box_at(0.5 + 1e-3)
    cert = classical_membership(P, direct_cap=direct_cap)
    assert cert.verdict == Verdict.NONCLASSICAL
    c = cert.functional
    assert np.abs(c).max() <= 1.0
    margin = float((c * P.table).sum()) - max(
        float((c * T).sum()) for T in _strategy_tables())
    assert abs(margin - cert.margin) <= 1e-12


@PATHS
def test_uncertified_lp_result_raises(direct_cap, monkeypatch):
    # A zero functional has margin 0, and all weight on one strategy misses
    # the uniform table: neither verdict is certified.
    def fake_lp(P, columns):
        w = np.zeros(len(columns))
        w[0] = 1.0
        return np.zeros(P.size), w

    monkeypatch.setattr(corrlab, "_margin_lp", fake_lp)
    with pytest.raises(RuntimeError, match="undecided"):
        classical_membership(Correlation(CHSH, np.full((2, 2, 2, 2), 0.25)),
                             direct_cap=direct_cap)


@pytest.mark.parametrize("shift, certified", [(1e-10, True), (1e-6, False)])
def test_weights_residual_bound(shift, certified, monkeypatch):
    # Equal weights on all 16 strategies reproduce the uniform table; moving
    # ``shift`` of weight between two strategies puts the residual near it.
    def fake_lp(P, columns):
        w = np.full(len(columns), 1.0 / len(columns))
        w[0] += shift
        w[1] -= shift
        return np.zeros(P.size), w

    monkeypatch.setattr(corrlab, "_margin_lp", fake_lp)
    P = Correlation(CHSH, np.full((2, 2, 2, 2), 0.25))
    if certified:
        assert classical_membership(P).verdict == Verdict.CLASSICAL
    else:
        with pytest.raises(RuntimeError, match="undecided"):
            classical_membership(P)


def test_import_leaves_scipy_optimize_unloaded():
    # The package needs numpy alone: no scipy.optimize, scipy.linalg or
    # scipy.sparse module may load, on import or lazily during a solve.  The
    # subprocess runs theta(C5) (regular Schur matrix) and a program whose
    # variable z is split into two identical columns, max y + z1 + z2 over
    # [[1, y, z], [y, 1, y], [z, y, 1]] >= 0 and z <= 1/2 with z = z1 + z2:
    # its Schur matrix is singular, so the solve drops a direction.
    src = os.path.dirname(os.path.dirname(corrlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, ncmoment, ncmoment.cli\n"
        "import numpy as np\n"
        "from ncmoment import corrlab, entdim, graphs, qgraph\n"
        "from ncmoment._ipm import BlockData, ConeProgram, solve_ipm\n"
        "qgraph.theta(graphs.cycle(5))\n"
        "ij = [(0, 1), (1, 0), (1, 2), (2, 1)] + [(0, 2), (2, 0)] * 2\n"
        "moment = BlockData(3, np.eye(3), np.array([0] * 4 + [1, 1, 2, 2]),\n"
        "                   np.array([i for i, _ in ij]),\n"
        "                   np.array([j for _, j in ij]), np.ones(8))\n"
        "cap = BlockData(1, np.array([[0.5]]), np.array([1, 2]),\n"
        "                np.zeros(2, int), np.zeros(2, int), -np.ones(2))\n"
        "prog = ConeProgram(3, np.ones(3), [moment, cap])\n"
        "print(solve_ipm(prog.finalize()).schur_rank_deficient)\n"
        "print(sorted(m for m in sys.modules if any(\n"
        "    m == p or m.startswith(p + '.')\n"
        "    for p in ('scipy.optimize', 'scipy.linalg', 'scipy.sparse'))))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    rank_deficient, loaded = out.stdout.strip().splitlines()
    assert int(rank_deficient) > 0
    assert loaded == "[]"


def test_column_generation_path_matches_direct():
    P1 = random_classical(CHSH, 5, seed=11)
    P2 = realize(tsirelson_chsh())
    for P, expected in ((P1, Verdict.CLASSICAL), (P2, Verdict.NONCLASSICAL)):
        cert = classical_membership(P, direct_cap=4)  # force column generation
        assert cert.verdict == expected


def test_strategy_cap():
    big = Scenario(4, 4, 8, 8)
    from ncmoment.entdim import Correlation

    P = Correlation(big, np.full((4, 4, 8, 8), 1 / 16))
    with pytest.raises(corrlab.ResourceError):
        classical_membership(P, strategy_cap=1000)


def test_synchronous_from_commuting_diagonal_is_classical():
    d = 3
    labels = [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])]
    fam = np.array([[labels[0], labels[1]], [labels[1], labels[0]]],
                   dtype=complex)
    P = synchronous_from_projectors(fam, d)
    cert = classical_membership(P)
    assert cert.verdict == Verdict.CLASSICAL


def test_synchronous_angle_formula():
    # rank-1 projectors at relative angle theta: cross probabilities carry
    # cos^2/sin^2 of the angle over the dimension
    theta = 0.7
    d = 2
    v0 = np.array([1.0, 0.0])
    v1 = np.array([np.cos(theta), np.sin(theta)])
    fam = np.zeros((2, 2, 2, 2), dtype=complex)
    for s, v in enumerate((v0, v1)):
        fam[s, 0] = np.outer(v, v)
        fam[s, 1] = np.eye(2) - np.outer(v, v)
    P = synchronous_from_projectors(fam, d)
    assert abs(P.table[0, 1, 0, 1] - np.sin(theta) ** 2 / 2) < 1e-12
    assert abs(P.table[0, 0, 0, 1] - np.cos(theta) ** 2 / 2) < 1e-12


def test_synchronity_enforced():
    fam = random_projector_family(3, 2, 3, seed=12)
    P = synchronous_from_projectors(fam, 3)
    for s in range(3):
        for a in range(2):
            for b in range(2):
                if a != b:
                    assert P.table[a, b, s, s] < 1e-12


def test_synchronous_table_and_gram_match_the_trace_loop():
    # reference: one trace per entry, P(a,b|s,t) = Re Tr(X_s^a X_t^b)/d, and
    # Gram row (s, a), column (t, b)
    fam = random_projector_family(3, 2, 3, seed=4)
    P = synchronous_from_projectors(fam, 3)
    M = cpsd_gram_from_projectors(fam, 3).matrix
    for s, a, t, b in itertools.product(range(3), range(2), range(3), range(2)):
        entry = np.trace(fam[s, a] @ fam[t, b]).real / 3
        assert abs(P.table[a, b, s, t] - entry) <= 1e-12
        assert abs(M[2 * s + a, 2 * t + b] - entry) <= 1e-12


def test_gram_psd_and_roundtrip():
    for seed in (0, 1, 2):
        fam = random_projector_family(3, 2, 3, seed=seed)
        P = synchronous_from_projectors(fam, 3)
        gram = cpsd_gram_from_projectors(fam, 3)
        assert gram.min_eigenvalue() >= -1e-9
        assert np.abs(gram_of_synchronous(P).matrix - gram.matrix).max() < 1e-12
        real = gram_to_realization(factorize(gram))
        P2 = realize(real)
        assert np.abs(P2.table - P.table).max() < 1e-8


def test_gram_scalar_strategy_roundtrip_exact():
    # deterministic synchronous correlation from 0/1 scalar factors
    fam = np.zeros((2, 2, 1, 1), dtype=complex)
    fam[0, 0] = fam[1, 1] = np.array([[1.0]])
    fam[0, 1] = fam[1, 0] = np.array([[0.0]])
    P = synchronous_from_projectors(fam, 1)
    gram = cpsd_gram_from_projectors(fam, 1)
    real = gram_to_realization(factorize(gram))
    assert np.abs(realize(real).table - P.table).max() < 1e-12


def test_gram_requires_recorded_factors():
    fam = random_projector_family(2, 2, 2, seed=13)
    P = synchronous_from_projectors(fam, 2)
    gram = gram_of_synchronous(P)
    with pytest.raises(ValidationError, match="factorization"):
        factorize(gram)


def test_singular_row_sum_rejected():
    # factors supported on a strict subspace yield a singular row sum
    fam = np.zeros((2, 2, 2, 2), dtype=complex)
    fam[0, 0] = fam[1, 0] = np.diag([1.0, 0.0])
    with pytest.raises(ValidationError, match="eigenvalue"):
        gram_to_realization(fam)


def test_sync_check_rejects_asymmetric_scenario():
    P = random_classical(Scenario(2, 3, 2, 2), 3, seed=14)
    with pytest.raises(ValidationError, match="A=B"):
        gram_of_synchronous(P)


def test_classical_implies_trivial_bound():
    # cross-module coupling: membership verdict matches the moment bound
    from ncmoment.entdim import xi_q

    P = random_classical(CHSH, 4, seed=15)
    assert classical_membership(P).verdict == Verdict.CLASSICAL
    assert abs(xi_q(P, 2).value - 1.0) < 1e-4
