import itertools
import math
import random
import time

import pytest

from ncmoment.graphs import (
    CliqueCapError,
    Graph,
    GraphFormatError,
    all_cliques,
    automorphism_generators,
    cartesian_product,
    complement,
    complete,
    cycle,
    empty,
    from_dimacs,
    from_json,
    greedy_stable_set,
    path,
    star_product,
    to_json,
)


def brute_cartesian_adjacent(g, k, u, v):
    i, c = divmod(u, k)
    j, cp = divmod(v, k)
    return (g.has_edge(i, j) and c == cp) or (i == j and c != cp)


def brute_star_adjacent(g, k, u, v):
    c, i = divmod(u, g.n)
    cp, j = divmod(v, g.n)
    return ((c != cp and i == j) or (c == cp and i != j)
            or (c != cp and g.has_edge(i, j)))


def small_graphs():
    yield complete(2)
    yield complete(3)
    yield path(3)
    yield cycle(4)
    yield empty(3)
    yield Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)])


def test_cartesian_matches_definition_exhaustively():
    for g in small_graphs():
        for k in (1, 2, 3):
            prod = cartesian_product(g, k)
            assert prod.n == g.n * k
            for u in range(prod.n):
                for v in range(u + 1, prod.n):
                    assert prod.has_edge(u, v) == brute_cartesian_adjacent(
                        g, k, u, v)


def test_star_matches_definition_exhaustively():
    for g in small_graphs():
        for k in (1, 2, 3):
            prod = star_product(k, g)
            assert prod.n == g.n * k
            for u in range(prod.n):
                for v in range(u + 1, prod.n):
                    assert prod.has_edge(u, v) == brute_star_adjacent(
                        g, k, u, v)


def test_cartesian_k2_k2_is_c4():
    prod = cartesian_product(complete(2), 2)
    c4 = cycle(4)
    assert prod.num_edges == 4
    degs = sorted(len(nb) for nb in prod.adjacency())
    assert degs == [2, 2, 2, 2]


def test_cartesian_k3_k3_rooks_graph():
    prod = cartesian_product(complete(3), 3)
    assert prod.n == 9
    assert prod.num_edges == 18


def test_cartesian_k1_is_identity():
    g = cycle(5)
    assert cartesian_product(g, 1).edges == g.edges


def test_star_k1_is_complete():
    # with one index only the same-index different-vertex clause fires
    g = path(3)
    assert star_product(1, g).edges == complete(3).edges


def test_star_k2_single_vertex_is_k2():
    g = empty(1)
    assert star_product(2, g).edges == complete(2).edges


def test_star_k2_k2_is_k4():
    assert star_product(2, complete(2)).edges == complete(4).edges


def test_products_commute_with_relabeling():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    perm = [2, 0, 3, 1]
    relabeled = Graph.from_edges(4, [(perm[i], perm[j]) for i, j in g.edges])
    for k in (2, 3):
        a = cartesian_product(relabeled, k)
        b = cartesian_product(g, k)
        mapped = {(min(perm[u // k] * k + u % k, perm[v // k] * k + v % k),
                   max(perm[u // k] * k + u % k, perm[v // k] * k + v % k))
                  for u, v in b.edges}
        assert a.edges == frozenset(mapped)


def test_complement_c5_self():
    comp = complement(cycle(5))
    assert comp.num_edges == 5
    # explicit isomorphism i -> 2i mod 5
    mapped = {(min(2 * i % 5, 2 * j % 5), max(2 * i % 5, 2 * j % 5))
              for i, j in cycle(5).edges}
    assert comp.edges == frozenset(mapped)


def test_all_cliques_k4_count():
    cl = all_cliques(complete(4))
    assert len(cl.cliques) == 15  # 4 + 6 + 4 + 1


def test_clique_count_cap():
    with pytest.raises(CliqueCapError):
        all_cliques(complete(8), count_cap=10)


def test_greedy_stable_set_is_stable():
    for g in small_graphs():
        ss = greedy_stable_set(g)
        for i, j in itertools.combinations(ss, 2):
            assert not g.has_edge(i, j)
        assert len(ss) >= 1


def test_json_roundtrip():
    g = cycle(5)
    assert from_json(to_json(g)).edges == g.edges


def test_json_rejects_loops_and_duplicates():
    with pytest.raises(GraphFormatError, match="#0: loop"):
        from_json('{"n": 3, "edges": [[1, 1]]}')
    with pytest.raises(GraphFormatError, match="#1: duplicate"):
        from_json('{"n": 3, "edges": [[0, 1], [1, 0]]}')
    with pytest.raises(GraphFormatError, match='"n"'):
        from_json('{"edges": []}')


def test_dimacs_parse():
    g = from_dimacs("c a comment\np edge 3 2\ne 1 2\ne 2 3\n")
    assert g.n == 3
    assert g.edges == frozenset({(0, 1), (1, 2)})


def test_dimacs_errors_positioned():
    with pytest.raises(GraphFormatError, match="line 2: loop"):
        from_dimacs("p edge 3 1\ne 2 2\n")
    with pytest.raises(GraphFormatError, match="line 3: duplicate"):
        from_dimacs("p edge 3 2\ne 1 2\ne 2 1\n")
    with pytest.raises(GraphFormatError, match="declares"):
        from_dimacs("p edge 3 5\ne 1 2\n")
    with pytest.raises(GraphFormatError, match="line 1"):
        from_dimacs("e 1 2\n")


def test_edge_bounds_checked():
    with pytest.raises(GraphFormatError, match="out of range"):
        Graph.from_edges(3, [(0, 7)])


def group_order(gens, n, cap=10_000):
    """Order of the permutation group generated by ``gens``, by closure;
    stops once it passes ``cap``."""
    ident = tuple(range(n))
    seen, stack = {ident}, [ident]
    while stack and len(seen) <= cap:
        p = stack.pop()
        for q in gens:
            r = tuple(q[v] for v in p)
            if r not in seen:
                seen.add(r)
                stack.append(r)
    return len(seen)


def brute_automorphism_count(g):
    return sum(all(g.has_edge(p[a], p[b]) for a, b in g.edges)
               for p in itertools.permutations(range(g.n)))


def relabeled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph.from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges])


def petersen():
    return Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                            + [(i, i + 5) for i in range(5)])


# The smallest asymmetric graphs have six vertices; this is one of them.
ASYMMETRIC = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 4), (4, 5)])
# C6 beside two triangles: 2-regular, so colour refinement alone cannot tell
# a hexagon vertex from a triangle vertex.  |Aut| = 12 * (6 * 6 * 2).
HEXAGON_AND_TRIANGLES = Graph.from_edges(
    12, [(i, (i + 1) % 6) for i in range(6)]
    + [(6, 7), (7, 8), (6, 8), (9, 10), (10, 11), (9, 11)])

GROUP_ORDERS = [
    (relabeled(cycle(5), 1), 10),
    (relabeled(cycle(7), 2), 14),
    (relabeled(cycle(9), 3), 18),
    (petersen(), 120),
    (complete(5), 120),
    (ASYMMETRIC, 1),
    (HEXAGON_AND_TRIANGLES, 864),
    (cartesian_product(cycle(7), 3), 84),
    (star_product(3, cycle(7)), 84),
]


@pytest.mark.parametrize("g,order", GROUP_ORDERS)
def test_automorphism_group_orders(g, order):
    gens = automorphism_generators(g)
    for p in gens:
        assert sorted(p) == list(range(g.n))
        assert {(min(p[a], p[b]), max(p[a], p[b])) for a, b in g.edges} == g.edges
    assert group_order(gens, g.n) == order


def test_automorphism_search_matches_brute_force():
    rng = random.Random(0)
    for _ in range(60):
        n = rng.randint(1, 6)
        density = rng.uniform(0.2, 0.8)
        g = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                 if rng.random() < density])
        assert group_order(automorphism_generators(g), n) == \
            brute_automorphism_count(g)


def test_automorphism_search_is_fast_on_benchmark_graphs():
    # The cycles and every product graph that the theta, gamma and lambda
    # scans of the graph benchmark build on C5 and C7.
    graphs = [relabeled(cycle(n), n) for n in (5, 7, 9)]
    graphs += [cartesian_product(relabeled(cycle(n), n), k)
               for n in (5, 7) for k in (1, 2, 3)]
    graphs += [star_product(k, relabeled(cycle(7), 7)) for k in (2, 3)]
    for g in graphs:
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            automorphism_generators(g)
            best = min(best, time.perf_counter() - t0)
        assert best < 0.05, f"{g}: {best:.3f} s"
