import dataclasses
import itertools
import math

import numpy as np
import pytest

from ncmoment import conic, corrlab, entdim, qgraph
from ncmoment.graphs import Graph, complete, cycle, empty, greedy_stable_set, path
from ncmoment.qgraph import Strengthening


def theta_oracle_odd_cycle(n):
    return n * math.cos(math.pi / n) / (1 + math.cos(math.pi / n))


def chromatic_number(g):
    for k in range(1, g.n + 1):
        for coloring in itertools.product(range(k), repeat=g.n):
            if all(coloring[i] != coloring[j] for i, j in g.edges):
                return k
    return g.n


def stability_number(g):
    best = 0
    for mask in range(1 << g.n):
        sel = [i for i in range(g.n) if mask >> i & 1]
        if all(not g.has_edge(i, j) for i, j in itertools.combinations(sel, 2)):
            best = max(best, len(sel))
    return best


CORPUS = [complete(3), cycle(5), path(3), empty(4)]


def test_theta_values_small_graphs():
    assert abs(qgraph.theta(complete(3)).value - 1.0) < 1e-5
    assert abs(qgraph.theta(empty(4)).value - 4.0) < 1e-5
    assert abs(qgraph.theta(path(3)).value - 2.0) < 1e-5
    assert abs(qgraph.theta(cycle(5)).value - math.sqrt(5)) < 1e-5


def test_xi_col_order_one_is_complement_theta():
    assert abs(qgraph.xi_col(complete(3), 1).value - 3.0) < 1e-5
    assert abs(qgraph.xi_col(empty(4), 1).value - 1.0) < 1e-5
    assert abs(qgraph.xi_col(cycle(5), 1).value - math.sqrt(5)) < 1e-5


def test_xi_stab_complete_graph_one():
    for n in (3, 4):
        assert abs(qgraph.xi_stab(complete(n), 2).value - 1.0) < 1e-5


def test_level_two_odd_cycle_values():
    assert abs(qgraph.xi_col(cycle(5), 2).value - 2.5) < 1e-3
    assert abs(qgraph.xi_stab(cycle(5), 2).value - 2.0) < 1e-3


def test_strengthenings_on_c5():
    plain = qgraph.xi_col(cycle(5), 1).value
    plus = qgraph.xi_col(cycle(5), 1, Strengthening.THETA_PLUS).value
    sdp = qgraph.xi_col(cycle(5), 1, Strengthening.XI_SDP).value
    assert plus >= plain - 1e-6
    assert sdp >= plus - 1e-6
    assert abs(sdp - 2.5) < 1e-3


def test_lasserre_level_two_reaches_stability_number():
    assert abs(qgraph.lasserre_stab(cycle(5), 2).value - 2.0) < 1e-4


def test_lasserre_order_one_matches_tracial():
    a = qgraph.lasserre_stab(cycle(5), 1).value
    b = qgraph.xi_stab(cycle(5), 1).value
    assert abs(a - b) < 1e-5


def test_gamma_col_values():
    assert qgraph.gamma_col(complete(3), 1).value == 3
    assert qgraph.gamma_col(cycle(5), 1).value == 3
    assert qgraph.gamma_col(path(3), 1).value == 2


def test_gamma_stab_values():
    assert qgraph.gamma_stab(complete(3), 1).value == 1
    assert qgraph.gamma_stab(cycle(5), 1).value == 2
    assert qgraph.gamma_stab(empty(4), 1).value == 4


def test_gamma_cross_check_mode():
    res = qgraph.gamma_col(complete(3), 1, cross_check=True)
    assert res.value == 3
    assert res.diagnostics["product_route"] == 3
    res = qgraph.gamma_stab(path(3), 1, cross_check=True)
    assert res.value == 2
    assert res.diagnostics["product_route"] == 2


def _counted(monkeypatch, name):
    """Record the calls of a qgraph function, including its internal ones."""
    calls = []
    func = getattr(qgraph, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    monkeypatch.setattr(qgraph, name, counting)
    return calls


def test_gamma_stab_cross_check_solves_theta_once(monkeypatch):
    calls = _counted(monkeypatch, "xi_stab")
    res = qgraph.gamma_stab(cycle(7), 1, cross_check=True)
    assert res.value == 3
    assert res.diagnostics["product_route"] == 3
    # theta(C7) once, then the star product K_3 * C7
    assert len(calls) == 2


def test_hierarchy_comparison_reuses_order_one_values(monkeypatch):
    g = cycle(5)
    col_calls = _counted(monkeypatch, "xi_col")
    stab_calls = _counted(monkeypatch, "xi_stab")
    rep = qgraph.hierarchy_comparison(g, 1)
    assert len(col_calls) + len(stab_calls) == 2
    monkeypatch.undo()
    assert rep["gamma_col"] == qgraph.gamma_col(g, 1).value == 3
    assert rep["gamma_stab"] == qgraph.gamma_stab(g, 1).value == 2
    assert rep["xi_col"] == qgraph.xi_col(g, 1).value
    assert rep["xi_stab"] == qgraph.xi_stab(g, 1).value


def test_lambda_k3_brute_force():
    # las_stab(K3 box K_k) equals min(3, k)-ish and first reaches 3 at k = 3
    from ncmoment.graphs import cartesian_product

    values = {k: qgraph.lasserre_stab(cartesian_product(complete(3), k), 1).value
              for k in (1, 2, 3)}
    assert values[1] < 3 - 1e-5 and values[2] < 3 - 1e-5
    assert values[3] >= 3 - 1e-5
    assert qgraph.Lambda(complete(3), 1).value == 3


def test_product_identity_vertex_transitive():
    rep = qgraph.product_identity_check(cycle(5), 1, vertex_transitive=True)
    assert rep["lower_ok"] and rep["equality_ok"]
    assert abs(rep["product"] - 5.0) < 1e-3
    rep2 = qgraph.product_identity_check(cycle(5), 2, vertex_transitive=True)
    assert rep2["lower_ok"] and rep2["equality_ok"]


def test_product_identity_lower_bound_random_graph():
    rng = np.random.default_rng(11)
    edges = [(i, j) for i in range(6) for j in range(i + 1, 6)
             if rng.random() < 0.5]
    g = Graph.from_edges(6, edges)
    rep = qgraph.product_identity_check(g, 1)
    assert rep["lower_ok"]


def test_hierarchy_comparison_corpus():
    for g in CORPUS:
        rep = qgraph.hierarchy_comparison(g, 1)
        assert rep["col_ok"], rep
        assert rep["stab_ok"], rep


def test_level_monotonicity():
    for g in (cycle(5), path(3)):
        s1 = qgraph.xi_stab(g, 1).value
        s2 = qgraph.xi_stab(g, 2).value
        assert s2 <= s1 + 1e-6
        c1 = qgraph.xi_col(g, 1).value
        c2 = qgraph.xi_col(g, 2).value
        assert c2 >= c1 - 1e-6


def test_stability_sandwich():
    for g in CORPUS:
        alpha = stability_number(g)
        greedy = len(greedy_stable_set(g))
        xs = qgraph.xi_stab(g, 1).value
        assert greedy <= alpha
        assert alpha <= math.floor(xs + 1e-6)


def test_gamma_col_below_chromatic():
    for g in CORPUS:
        assert qgraph.gamma_col(g, 1).value <= chromatic_number(g)


def test_col_feasibility_monotone_in_k():
    from ncmoment.qgraph import col_system_feasible

    g = cycle(5)
    feas = [col_system_feasible(g, k, 1)[0] for k in (2, 3, 4, 5)]
    # once feasible, stays feasible
    assert feas == sorted(feas)
    assert feas[-1]


def test_clique_bound_from_solved_col_relaxation():
    g = cycle(5)
    res = qgraph.xi_col(g, 2)
    sol = res.solution
    index = sol.problem.index
    from ncmoment.ncwords import vertex

    for (i, j) in g.edges:
        assert index.var_of((vertex(i), vertex(j))) is None  # zero class
        assert len({i, j}) <= res.value + 1e-4


def test_bracket_error_surfaces():
    # bracket inversion cannot occur on honest inputs, so drive the integer
    # search directly with a test that never passes, and an empty bracket
    with pytest.raises(qgraph.BracketError):
        qgraph._first_passing(range(1, 4), lambda k: False, "never")
    with pytest.raises(qgraph.BracketError):
        qgraph._first_passing(range(3, 2), lambda k: True, "inverted")
    assert qgraph._first_passing(range(5, 0, -1), lambda k: k <= 2, "down") == 2
    with pytest.raises(ValueError):
        qgraph.Strengthening("bogus")


@pytest.mark.parametrize("system", ["col_system_feasible", "stab_system_feasible"])
@pytest.mark.parametrize("k", [2, 3])
def test_margins_unchanged_by_orbit_merging(monkeypatch, system, k):
    g = cycle(5)
    merged_ok, merged = getattr(qgraph, system)(g, k, 1)
    feasibility = conic.feasibility
    monkeypatch.setattr(conic, "feasibility", lambda prob, **kw: feasibility(
        dataclasses.replace(prob, symmetries=[]), **kw))
    full_ok, full = getattr(qgraph, system)(g, k, 1)
    assert merged_ok == full_ok
    assert math.copysign(1.0, merged) == math.copysign(1.0, full)
    assert abs(merged - full) <= 1e-6


def test_building_does_no_symmetry_work(monkeypatch):
    # Symmetries are attached as symbol maps; their variable permutations are
    # read only when a program is solved, so level-3 builds stay as cheap as
    # the word layer.
    calls = []
    permutation = conic._variable_permutation

    def counting(*args):
        calls.append(args)
        return permutation(*args)

    monkeypatch.setattr(conic, "_variable_permutation", counting)
    assert qgraph.build_col_problem(cycle(7), 3).symmetries
    entdim.build_xi_problem(corrlab.realize(corrlab.tsirelson_chsh()), 2)
    assert calls == []
    qgraph.xi_col(cycle(5), 1)
    assert len(calls) == 2  # the two generators of D5
