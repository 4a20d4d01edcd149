"""Simple undirected graphs, the two graph products, clique enumeration and
automorphism generators."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional

MAX_CLIQUES = 1_000_000


class GraphFormatError(ValueError):
    pass


class CliqueCapError(RuntimeError):
    pass


@dataclass(frozen=True)
class Graph:
    """Graph on vertices 0..n-1 with a set of unordered edges, no loops."""

    n: int
    edges: frozenset
    labels: Optional[tuple] = None

    @staticmethod
    def from_edges(n: int, edges: Iterable, labels=None) -> "Graph":
        es = set()
        for e in edges:
            i, j = e
            if i == j:
                raise GraphFormatError(f"loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise GraphFormatError(f"edge ({i},{j}) out of range for n={n}")
            es.add((min(i, j), max(i, j)))
        return Graph(n, frozenset(es), tuple(labels) if labels else None)

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    def adjacency(self):
        adj = [set() for _ in range(self.n)]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def __str__(self):
        return f"Graph(n={self.n}, m={self.num_edges})"


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def empty(n: int) -> Graph:
    return Graph.from_edges(n, [])


def complement(g: Graph) -> Graph:
    edges = [
        (i, j)
        for i in range(g.n)
        for j in range(i + 1, g.n)
        if not g.has_edge(i, j)
    ]
    return Graph.from_edges(g.n, edges)


def cartesian_product(g: Graph, k: int) -> Graph:
    """Product with the complete graph K_k on vertex set V x [k].

    (i, c) ~ (j, c') iff ({i,j} in E and c = c') or (i = j and c != c').
    Vertex (i, c) is mapped to index i*k + c.
    """
    if k < 1:
        raise ValueError("k must be positive")
    edges = []
    for i in range(g.n):
        for c in range(k):
            for cp in range(c + 1, k):
                edges.append((i * k + c, i * k + cp))
    for (i, j) in g.edges:
        for c in range(k):
            edges.append((i * k + c, j * k + c))
    return Graph.from_edges(g.n * k, edges)


def star_product(k: int, g: Graph) -> Graph:
    """Homomorphic-type product on vertex set [k] x V.

    (c, i) ~ (c', j) iff (c != c' and i = j) or (c = c' and i != j)
    or (c != c' and {i,j} in E).  Vertex (c, i) is mapped to index c*n + i.
    """
    if k < 1:
        raise ValueError("k must be positive")
    n = g.n
    edges = []
    for c in range(k):
        for cp in range(k):
            for i in range(n):
                for j in range(n):
                    u, v = c * n + i, cp * n + j
                    if u >= v:
                        continue
                    if (c != cp and i == j) or (c == cp and i != j) or (
                        c != cp and g.has_edge(i, j)
                    ):
                        edges.append((u, v))
    return Graph.from_edges(k * n, edges)


@dataclass
class CliqueList:
    cliques: list  # list of frozensets


def all_cliques(g: Graph, count_cap: int = MAX_CLIQUES) -> CliqueList:
    """Every clique, singletons included, sorted by size; CliqueCapError
    past ``count_cap`` cliques."""
    adj = g.adjacency()
    out = []

    def extend(clique, candidates):
        for v in sorted(candidates):
            c2 = clique + [v]
            out.append(frozenset(c2))
            if len(out) > count_cap:
                raise CliqueCapError(f"more than {count_cap} cliques")
            extend(c2, {u for u in candidates if u > v} & adj[v])

    extend([], set(range(g.n)))
    out.sort(key=lambda c: (len(c), sorted(c)))
    return CliqueList(out)


def _refine(adj: list, colours: list) -> tuple:
    """Equitable refinement of a vertex colouring (colour refinement).

    Colours are ranks 0..k-1, and their order is the cell order.  Each round
    splits the cells by the multiset of neighbour colours and ranks the new
    cells by (old colour, multiset), so the result and the returned invariant
    (the sorted signatures of the last round) follow the structure, never the
    vertex labels.
    """
    k = len(set(colours))
    while True:
        sig = [(colours[v], tuple(sorted(colours[u] for u in adj[v])))
               for v in range(len(adj))]
        distinct = sorted(set(sig))
        rank = {s: i for i, s in enumerate(distinct)}
        colours = [rank[s] for s in sig]
        if len(distinct) == k:
            return colours, tuple(distinct)
        k = len(distinct)


def _individualize(adj: list, colours: list, v: int) -> tuple:
    """Refined colouring with v split off in front of the rest of its cell."""
    split = [2 * c + (u != v) for u, c in enumerate(colours)]
    rank = {c: i for i, c in enumerate(sorted(set(split)))}
    return _refine(adj, [rank[c] for c in split])


def _target_cell(colours: list) -> list:
    """Vertices of the first cell with more than one vertex, or []."""
    size = {}
    for c in colours:
        size[c] = size.get(c, 0) + 1
    big = [c for c in sorted(size) if size[c] > 1]
    return [v for v, c in enumerate(colours) if c == big[0]] if big else []


def _orbit(v: int, gens: list) -> set:
    seen, stack = {v}, [v]
    while stack:
        u = stack.pop()
        for p in gens:
            if p[u] not in seen:
                seen.add(p[u])
                stack.append(p[u])
    return seen


def automorphism_generators(g: Graph) -> list:
    """Generators of the automorphism group of ``g``, as tuples p with p[v]
    the image of vertex v; the identity is left out.

    Search by individualization and refinement.  The base path individualizes
    the first vertex b_d of the first non-singleton cell of each refined
    colouring until it is discrete.  Then, from the deepest level up, every
    vertex t of b_d's cell outside the orbit of b_d under the generators found
    so far (which all fix b_0..b_{d-1}) is tried as b_d's image: a
    depth-first search below t, pruned by the refinement invariants of the
    base path, looks for a leaf whose vertex order maps the base leaf onto it
    by an automorphism (checked against the edge set).  The generators are
    Schreier-Sims transversal elements of the stabilizer chain, so the group
    order is the product of the final orbit lengths.
    """
    adj = [sorted(a) for a in g.adjacency()]
    colours, inv = _refine(adj, [0] * g.n)
    levels, invariants = [], [inv]  # levels[d] = (colouring at depth d, b_d)
    while cell := _target_cell(colours):
        levels.append((colours, cell[0]))
        colours, inv = _individualize(adj, colours, cell[0])
        invariants.append(inv)
    base_leaf = sorted(range(g.n), key=colours.__getitem__)

    def search(colours, inv, depth):
        if inv != invariants[depth]:
            return None
        if depth == len(levels):
            p = [0] * g.n
            for u, v in zip(base_leaf, sorted(range(g.n), key=colours.__getitem__)):
                p[u] = v
            if all(g.has_edge(p[a], p[b]) for a, b in g.edges):
                return tuple(p)
            return None
        for v in _target_cell(colours):
            found = search(*_individualize(adj, colours, v), depth + 1)
            if found is not None:
                return found
        return None

    gens = []
    for depth in reversed(range(len(levels))):
        colours, b = levels[depth]
        orbit = _orbit(b, gens)
        for t in _target_cell(colours):
            if t not in orbit:
                found = search(*_individualize(adj, colours, t), depth + 1)
                if found is not None:
                    gens.append(found)
                    orbit = _orbit(b, gens)
    return gens


def greedy_stable_set(g: Graph) -> list:
    """Deterministic greedy stable set (ascending degree order)."""
    adj = g.adjacency()
    order = sorted(range(g.n), key=lambda v: (len(adj[v]), v))
    chosen, blocked = [], set()
    for v in order:
        if v not in blocked:
            chosen.append(v)
            blocked.add(v)
            blocked |= adj[v]
    return chosen


def to_json(g: Graph) -> str:
    return json.dumps(
        {"n": g.n, "edges": sorted([list(e) for e in g.edges])}, sort_keys=True
    )


def from_json(text: str) -> Graph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise GraphFormatError(f"invalid JSON: {e}") from None
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise GraphFormatError('graph JSON needs keys "n" and "edges"')
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise GraphFormatError('"n" must be a nonnegative integer')
    if not isinstance(obj["edges"], list):
        raise GraphFormatError('"edges" must be a list of pairs [i, j]')
    seen = set()
    edges = []
    for pos, e in enumerate(obj["edges"]):
        if not (isinstance(e, list) and len(e) == 2 and all(
                isinstance(v, int) and not isinstance(v, bool) for v in e)):
            raise GraphFormatError(f"edge #{pos}: expected a pair [i, j] of integers")
        i, j = e
        if i == j:
            raise GraphFormatError(f"edge #{pos}: loop at vertex {i}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise GraphFormatError(f"edge #{pos}: duplicate edge {key}")
        seen.add(key)
        edges.append(key)
    return Graph.from_edges(n, edges)


def from_dimacs(text: str) -> Graph:
    """DIMACS edge format: 'p edge n m' then 'e i j' lines, 1-based."""
    n = None
    declared = 0
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphFormatError(f"line {lineno}: expected 'p edge n m'")
            n, declared = int(parts[2]), int(parts[3])
        elif parts[0] == "e":
            if n is None:
                raise GraphFormatError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise GraphFormatError(f"line {lineno}: expected 'e i j'")
            i, j = int(parts[1]) - 1, int(parts[2]) - 1
            if i == j:
                raise GraphFormatError(f"line {lineno}: loop at vertex {i + 1}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise GraphFormatError(f"line {lineno}: duplicate edge")
            seen.add(key)
            edges.append(key)
        else:
            raise GraphFormatError(f"line {lineno}: unrecognized record '{parts[0]}'")
    if n is None:
        raise GraphFormatError("missing 'p edge' problem line")
    if declared != len(edges):
        raise GraphFormatError(
            f"problem line declares {declared} edges, file has {len(edges)}"
        )
    return Graph.from_edges(n, edges)
