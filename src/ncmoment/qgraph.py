"""Graph-parameter hierarchies over tracial and commutative moment problems.

Vertex-variable hierarchies (stability and coloring side), their commutative
Lasserre counterparts, the theta-type order-1 bounds and their strengthenings,
the color/index-labeled feasibility hierarchies, and the graph-product
reductions tying the two families together.  Every integer parameter is the
first count of a monotone scan that passes its test (``_first_passing``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from . import conic
from .conic import SdpSolution, SolveStatus
from .graphs import (
    Graph,
    all_cliques,
    automorphism_generators,
    cartesian_product,
    greedy_stable_set,
    star_product,
)
from .momentize import (
    LinearConstraint,
    Relation,
    SdpProblem,
    VariableIndex,
    assemble,
    ideal_constraints,
    moment_block,
)
from .ncwords import (
    EquivalenceMode,
    NcPolynomial,
    RewriteSystem,
    enumerate_basis,
    vertex,
)

# A product-route stability value within this of its target counts as reaching it.
PRODUCT_TOL = 1e-5


class Strengthening(Enum):
    NONE = "none"
    THETA_PLUS = "theta-plus"
    XI_SDP = "xi-sdp"


@dataclass
class GraphBoundResult:
    parameter: str
    graph: Graph
    r: int
    value: float
    solution: Optional[SdpSolution] = None
    flatness: Optional[conic.FlatnessReport] = None
    anchor: str = ""
    diagnostics: dict = field(default_factory=dict)


class BracketError(RuntimeError):
    """Numerical bracket inversion in an integer parameter search."""


def _vertex_rewrites(g: Graph, commutative: bool = False) -> tuple:
    syms = [vertex(i) for i in range(g.n)]
    zero = set()
    for (i, j) in g.edges:
        zero.add((vertex(i), vertex(j)))
        zero.add((vertex(j), vertex(i)))
    rw = RewriteSystem(
        zero_pairs=frozenset(zero),
        idempotents=frozenset(syms),
        commutative=commutative,
    )
    return syms, rw


def _symbol_maps(g: Graph, k: int = 1) -> list:
    """Symbol maps of the automorphisms of g, acting on the vertex index of
    every vertex(i, c), c < k, together with the transposition (0 1) and
    the k-cycle of the colour (or index) coordinate c."""
    ident_v, ident_c = tuple(range(g.n)), tuple(range(k))
    perms = [(p, ident_c) for p in automorphism_generators(g)]
    if k >= 2:
        perms.append((ident_v, (1, 0) + ident_c[2:]))
    if k >= 3:
        perms.append((ident_v, ident_c[1:] + (0,)))
    return [{vertex(i, c): vertex(p[i], q[c]) for i in range(g.n) for c in range(k)}
            for p, q in perms]


def _mode(commutative: bool) -> EquivalenceMode:
    # Sorted commutative monomials are already canonical, so the plain mode
    # is exact there; the noncommutative layer merges tracial classes.
    return EquivalenceMode.PLAIN if commutative else EquivalenceMode.TRACIAL_SYMMETRIC


def build_stab_problem(g: Graph, r: int, commutative: bool = False) -> SdpProblem:
    syms, rw = _vertex_rewrites(g, commutative)
    mode = _mode(commutative)
    index = VariableIndex(2 * r, rw, mode)
    rows = enumerate_basis(syms, r, rw)
    block = moment_block(rows, index)
    objective = {}
    for i in range(g.n):
        vid = index.var_of((vertex(i),))
        objective[vid] = objective.get(vid, 0.0) + 1.0
    cons = [LinearConstraint({0: 1.0}, 1.0, Relation.EQ)]
    return assemble(
        objective, "max", [block], cons, index,
        description=f"stab hierarchy level {r}", r=r,
        metadata={"commutative": commutative}, symmetries=_symbol_maps(g),
    )


def build_col_problem(
    g: Graph,
    r: int,
    strengthening: Strengthening = Strengthening.NONE,
    commutative: bool = False,
) -> SdpProblem:
    syms, rw = _vertex_rewrites(g, commutative)
    mode = _mode(commutative)
    index = VariableIndex(2 * r, rw, mode)
    rows = enumerate_basis(syms, r, rw)
    block = moment_block(rows, index)
    cons = [
        LinearConstraint({index.var_of((vertex(i),)): 1.0}, 1.0, Relation.EQ)
        for i in range(g.n)
    ]
    if strengthening != Strengthening.NONE:
        cons += _nonnegative_pair_constraints(g, index)
    if strengthening == Strengthening.XI_SDP:
        cons += _clique_constraints(g, index)
    return assemble(
        {0: 1.0}, "min", [block], cons, index,
        description=f"col hierarchy level {r} ({strengthening.value})", r=r,
        metadata={"commutative": commutative}, symmetries=_symbol_maps(g),
    )


def _pair_var(index: VariableIndex, i: int, j: int):
    return index.var_of((vertex(i), vertex(j)))


def _nonnegative_pair_constraints(g: Graph, index: VariableIndex) -> list:
    out = []
    for i in range(g.n):
        for j in range(i + 1, g.n):
            vid = _pair_var(index, i, j)
            if vid is not None:
                out.append(LinearConstraint({vid: 1.0}, 0.0, Relation.GE))
    return out


def _clique_constraints(g: Graph, index: VariableIndex) -> list:
    """Clique inequalities L(x_i g_C) >= 0 and L(g_C g_C') >= 0.

    Here g_C = 1 - sum_{j in C} x_j over all cliques C.  With L(x_i) = 1
    these are the clique sum bounds on pair moments; emitting them in the
    reduced polynomial form drops the rows that rewrite to nothing (which
    would otherwise have identically-zero slack).
    """
    cliques = all_cliques(g).cliques
    gpolys = []
    for C in cliques:
        h = NcPolynomial.one()
        for j in sorted(C):
            h = h - NcPolynomial.from_word((vertex(j),))
        gpolys.append(h)
    out = []
    for h in gpolys:
        for i in range(g.n):
            form = index.form((NcPolynomial.from_word((vertex(i),)) * h).terms.items())
            if form:
                out.append(LinearConstraint(form, 0.0, Relation.GE))
    for a in range(len(gpolys)):
        for b in range(a + 1, len(gpolys)):
            form = index.form((gpolys[a] * gpolys[b]).terms.items())
            if form:
                out.append(LinearConstraint(form, 0.0, Relation.GE))
    return out


def _solved(problem: SdpProblem) -> SdpSolution:
    sol = conic.solve(problem)
    if sol.status in (SolveStatus.INFEASIBLE, SolveStatus.UNBOUNDED):
        raise conic.SolverError(
            f"{problem.description}: solver returned {sol.status.value}"
        )
    return sol


def xi_stab(g: Graph, r: int) -> GraphBoundResult:
    """Tracial stability-side bound; order 1 is the theta number."""
    sol = _solved(build_stab_problem(g, r))
    rep = conic.flatness(sol, r)
    return GraphBoundResult(
        "xi-stab", g, r, sol.objective, sol, rep,
        anchor="upper bound chain toward the projective packing value",
    )


def xi_col(
    g: Graph,
    r: int,
    strengthening: Strengthening = Strengthening.NONE,
) -> GraphBoundResult:
    """Tracial coloring-side bound; order 1 is theta of the complement."""
    sol = _solved(build_col_problem(g, r, strengthening))
    rep = conic.flatness(sol, r)
    name = {
        Strengthening.NONE: "xi-col",
        Strengthening.THETA_PLUS: "theta-plus",
        Strengthening.XI_SDP: "xi-sdp",
    }[strengthening]
    return GraphBoundResult(
        name, g, r, sol.objective, sol, rep,
        anchor="lower bound chain toward the tracial rank",
    )


def theta(g: Graph) -> GraphBoundResult:
    res = xi_stab(g, 1)
    res.parameter = "theta"
    return res


def lasserre_stab(g: Graph, r: int) -> GraphBoundResult:
    sol = _solved(build_stab_problem(g, r, commutative=True))
    rep = conic.flatness(sol, r)
    return GraphBoundResult("las-stab", g, r, sol.objective, sol, rep,
                            anchor="commutative relaxation of the stability number")


def lasserre_col(g: Graph, r: int) -> GraphBoundResult:
    sol = _solved(build_col_problem(g, r, commutative=True))
    rep = conic.flatness(sol, r)
    return GraphBoundResult("las-col", g, r, sol.objective, sol, rep,
                            anchor="commutative relaxation of the chromatic side")


# ---------------------------------------------------------------------------
# Color/index-labeled feasibility hierarchies with integer search
# ---------------------------------------------------------------------------


def _labeled_system(groups: list, zero: set, description: str, r: int,
                    symmetries: list) -> SdpProblem:
    """Moment system over projectors in groups that each sum to one.

    Members of a group are mutually orthogonal; ``zero`` lists the further
    pairs with product zero (either order suffices).  L(1) = 1 normalizes.
    """
    syms = [s for group in groups for s in group]
    zero = set(zero)
    for group in groups:
        zero.update((a, b) for a in group for b in group if a != b)
    zero.update([(b, a) for (a, b) in zero])
    rw = RewriteSystem(zero_pairs=frozenset(zero), idempotents=frozenset(syms))
    mode = EquivalenceMode.TRACIAL_SYMMETRIC
    index = VariableIndex(2 * r, rw, mode)
    rows = enumerate_basis(syms, r, rw)
    block = moment_block(rows, index)
    gens = []
    for group in groups:
        h = NcPolynomial.one()
        for s in group:
            h = h - NcPolynomial.from_word((s,))
        gens.append(h)
    cons = ideal_constraints(gens, 2 * r, index, syms)
    cons.append(LinearConstraint({0: 1.0}, 1.0, Relation.EQ))
    return assemble({}, "min", [block], cons, index, description=description, r=r,
                    symmetries=symmetries)


def col_system_feasible(g: Graph, k: int, r: int):
    """Margin test of the system over {x_i^c}: each vertex gets one color,
    adjacent vertices never share one."""
    groups = [[vertex(i, c) for c in range(k)] for i in range(g.n)]
    zero = {(vertex(i, c), vertex(j, c)) for (i, j) in g.edges for c in range(k)}
    return conic.feasibility(
        _labeled_system(groups, zero, f"coloring system k={k} level {r}", r,
                        _symbol_maps(g, k))
    )


def stab_system_feasible(g: Graph, k: int, r: int):
    """Margin test of the system over {x_c^i}: each index picks one vertex,
    and distinct indices pick distinct, non-adjacent vertices."""
    groups = [[vertex(i, c) for i in range(g.n)] for c in range(k)]
    zero = set()
    for c in range(k):
        for cp in range(k):
            if c != cp:
                zero.update((vertex(i, c), vertex(i, cp)) for i in range(g.n))
                zero.update((vertex(i, c), vertex(j, cp)) for (i, j) in g.edges)
    return conic.feasibility(
        _labeled_system(groups, zero, f"stability system k={k} level {r}", r,
                        _symbol_maps(g, k))
    )


def _first_passing(ks: range, passes, what: str) -> int:
    """First count of the ordered range ``ks`` that passes; BracketError if none.

    Each test here is monotone in k, so a scan that starts on the failing
    side of its bracket stops at the boundary count, the parameter's value.
    """
    for k in ks:
        if passes(k):
            return k
    raise BracketError(f"{what}: no k in {list(ks)} passes")


def _check_product_route(result: GraphBoundResult, via: int):
    result.diagnostics["product_route"] = via
    if via != result.value:
        raise BracketError(
            f"product-route disagreement: direct {int(result.value)} vs product {via}"
        )


def _theta_floor(theta: float) -> int:
    """floor(theta(G)), the order-1 bound on the stability side."""
    return int(math.floor(theta + 1e-6))


def gamma_col(g: Graph, r: int, cross_check: bool = False) -> GraphBoundResult:
    """Smallest color count whose level-r moment system is feasible.

    Feasibility is monotone in k (witness embedding), so the counts are
    scanned upward from the order-1 coloring bound to the vertex count and
    the first feasible one is returned.
    """
    return _gamma_col(g, r, xi_col(g, 1).value, cross_check)


def _gamma_col(g: Graph, r: int, order_one: float,
               cross_check: bool = False) -> GraphBoundResult:
    """gamma_col with the order-1 bound xi_col(g, 1) already solved."""
    bracket_lo = math.ceil(order_one - 1e-6)
    margins = {}

    def feasible(k):
        ok, margins[k] = col_system_feasible(g, k, r)
        return ok

    k = _first_passing(range(max(1, bracket_lo), g.n + 1), feasible,
                       "coloring system")
    result = GraphBoundResult(
        "gamma-col", g, r, float(k),
        anchor="lower bound on the commuting quantum chromatic number",
        diagnostics={"margins": margins, "bracket_lo": bracket_lo},
    )
    if cross_check:
        _check_product_route(result, gamma_col_via_product(g, r))
    return result


def gamma_stab(g: Graph, r: int, cross_check: bool = False) -> GraphBoundResult:
    """Largest index count whose level-r moment system is feasible.

    The counts are scanned downward from floor(theta) to the greedy stable
    set size and the first feasible one is returned.
    """
    return _gamma_stab(g, r, _theta_floor(xi_stab(g, 1).value), cross_check)


def _gamma_stab(g: Graph, r: int, top: int,
                cross_check: bool = False) -> GraphBoundResult:
    """gamma_stab with its scan start top = floor(theta) already solved."""
    lo = max(1, len(greedy_stable_set(g)))
    margins = {}

    def feasible(k):
        ok, margins[k] = stab_system_feasible(g, k, r)
        return ok

    k = _first_passing(range(top, lo - 1, -1), feasible, "stability system")
    result = GraphBoundResult(
        "gamma-stab", g, r, float(k),
        anchor="upper bound on the commuting quantum stability number",
        diagnostics={"margins": margins},
    )
    if cross_check:
        _check_product_route(result, _stab_product_scan(g, r, top))
    return result


def gamma_col_via_product(g: Graph, r: int) -> int:
    """Smallest k with xi_stab(G box K_k, r) reaching |V| (within PRODUCT_TOL)."""
    return _first_passing(
        range(1, g.n + 1),
        lambda k: xi_stab(cartesian_product(g, k), r).value >= g.n - PRODUCT_TOL,
        "coloring product reduction",
    )


def gamma_stab_via_product(g: Graph, r: int) -> int:
    """Largest k with xi_stab(K_k star G, r) staying at k (within PRODUCT_TOL)."""
    return _stab_product_scan(g, r, _theta_floor(xi_stab(g, 1).value))


def _stab_product_scan(g: Graph, r: int, top: int) -> int:
    """gamma_stab_via_product, scanning down from top = floor(theta)."""
    return _first_passing(
        range(top, 0, -1),
        lambda k: xi_stab(star_product(k, g), r).value >= k - PRODUCT_TOL,
        "stability product reduction",
    )


def Lambda(g: Graph, r: int) -> GraphBoundResult:
    """Commutative product reduction: smallest k with las_stab(G box K_k) = |V|."""
    k = _first_passing(
        range(1, g.n + 1),
        lambda k: lasserre_stab(cartesian_product(g, k), r).value >= g.n - PRODUCT_TOL,
        "commutative product reduction",
    )
    return GraphBoundResult(
        "lambda", g, r, float(k),
        anchor="classical chromatic lower bound via product stability",
    )


def product_identity_check(g: Graph, r: int, vertex_transitive: bool = False) -> dict:
    """Check xi_stab * xi_col >= |V|, with equality for vertex-transitive G."""
    a = xi_stab(g, r)
    b = xi_col(g, r)
    product = a.value * b.value
    report = {
        "xi_stab": a.value,
        "xi_col": b.value,
        "product": product,
        "n": g.n,
        "lower_ok": product >= g.n - 1e-3,
        "vertex_transitive": vertex_transitive,
    }
    if vertex_transitive:
        report["equality_ok"] = abs(product - g.n) <= 1e-3
    violations = []
    if not report["lower_ok"]:
        violations.append(f"product {product:.6f} below |V|={g.n}")
    if vertex_transitive and not report["equality_ok"]:
        violations.append(f"product {product:.6f} differs from |V|={g.n}")
    report["violations"] = violations
    return report


def hierarchy_comparison(g: Graph, r: int) -> dict:
    """Check the refinement inequalities between the two hierarchy families."""
    xc = xi_col(g, r).value
    xs = xi_stab(g, r).value
    # The scans start from the order-1 values, which at r = 1 are these.
    col1 = xc if r == 1 else xi_col(g, 1).value
    stab1 = xs if r == 1 else xi_stab(g, 1).value
    gc = _gamma_col(g, r, col1).value
    gs = _gamma_stab(g, r, _theta_floor(stab1)).value
    report = {
        "xi_col": xc,
        "gamma_col": gc,
        "xi_stab": xs,
        "gamma_stab": gs,
        "col_ok": xc <= gc + 1e-4,
        "stab_ok": xs >= gs - 1e-4,
    }
    violations = []
    if not report["col_ok"]:
        violations.append(f"xi_col {xc:.6f} exceeds gamma_col {gc}")
    if not report["stab_ok"]:
        violations.append(f"xi_stab {xs:.6f} below gamma_stab {gs}")
    report["violations"] = violations
    return report
