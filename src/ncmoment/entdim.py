"""Lower bounds on the average entanglement dimension of a bipartite
correlation, computed through the tracial moment hierarchy.

The level-r program minimizes L(1) over tracial symmetric functionals on
words in the measurement symbols and one state symbol, subject to the
measurement quadratic module, the defining ideal (state idempotence and
cross-party commutation, both enforced by rewriting), the state block-swap
relations, and the data constraints pinning the degree-3 moments to the
correlation table.

The alphabet is the Collins–Gisin one: the last answer of every question has
no symbol, and its operator is one minus the other answers' symbols.  So
completeness holds by construction and needs no sum-rule equalities, and
the eliminated operators enter as localizing generators and data polynomials.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import conic
from .conic import FlatnessMode, SdpSolution, SolveStatus
from .momentize import (
    LinearConstraint,
    Relation,
    SdpProblem,
    VariableIndex,
    assemble,
    localizing_block,
    moment_block,
    state_commutator_constraints,
)
from .ncwords import (
    EquivalenceMode,
    NcPolynomial,
    RewriteSystem,
    alice,
    bob,
    enumerate_basis,
    state_symbol,
)


class CorrelationError(ValueError):
    pass


class InfeasibleCorrelationError(RuntimeError):
    """The table lies outside the level-r relaxation (within tolerance)."""

    def __init__(self, r: int, margin: float):
        self.r = r
        self.margin = margin
        super().__init__(
            f"correlation is not within tolerance of the level-{r} relaxation "
            f"of the commuting-model correlation set (feasibility margin "
            f"{margin:.3e})"
        )


@dataclass(frozen=True)
class Scenario:
    nA: int
    nB: int
    nS: int
    nT: int

    def __post_init__(self):
        if min(self.nA, self.nB, self.nS, self.nT) < 1:
            raise CorrelationError("all answer/question counts must be >= 1")

    @property
    def gamma_size(self) -> int:
        return self.nA * self.nB * self.nS * self.nT


@dataclass
class Correlation:
    scenario: Scenario
    table: np.ndarray  # indexed [a, b, s, t]

    def __post_init__(self):
        sc = self.scenario
        t = np.asarray(self.table, dtype=float)
        if t.shape != (sc.nA, sc.nB, sc.nS, sc.nT):
            raise CorrelationError(
                f"table shape {t.shape} does not match scenario "
                f"({sc.nA},{sc.nB},{sc.nS},{sc.nT})"
            )
        if t.min() < -1e-12:
            idx = np.unravel_index(t.argmin(), t.shape)
            raise CorrelationError(
                f"negative probability {t.min():.3e} at (a,b|s,t)={idx}"
            )
        t = np.clip(t, 0.0, None)
        sums = t.sum(axis=(0, 1))
        if np.abs(sums - 1.0).max() > 1e-9:
            st = np.unravel_index(np.abs(sums - 1.0).argmax(), sums.shape)
            raise CorrelationError(
                f"answers for questions (s,t)={st} sum to {sums[st]:.12f}"
            )
        self.table = t

    def permuted(self, pa=None, pb=None, ps=None, pt=None) -> "Correlation":
        """Relabel answers/questions; the hierarchy values are invariant."""
        sc = self.scenario
        pa = list(pa) if pa is not None else list(range(sc.nA))
        pb = list(pb) if pb is not None else list(range(sc.nB))
        ps = list(ps) if ps is not None else list(range(sc.nS))
        pt = list(pt) if pt is not None else list(range(sc.nT))
        t = self.table[np.ix_(pa, pb, ps, pt)]
        return Correlation(sc, t)

    def to_json(self) -> str:
        return json.dumps(
            {
                "A": self.scenario.nA,
                "B": self.scenario.nB,
                "S": self.scenario.nS,
                "T": self.scenario.nT,
                "P": self.table.tolist(),
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "Correlation":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise CorrelationError(f"invalid JSON: {e}") from None
        for key in ("A", "B", "S", "T", "P"):
            if key not in obj:
                raise CorrelationError(f'correlation JSON misses key "{key}"')
        sc = Scenario(obj["A"], obj["B"], obj["S"], obj["T"])
        return Correlation(sc, np.array(obj["P"], dtype=float))


@dataclass
class EntdimConfig:
    tol: float = 1e-8
    eps_feas: float = 1e-6
    basis_cap: int = 20_000
    r_cap: int = 3
    objective_cap: Optional[float] = None


@dataclass
class EntdimSets:
    """Generator data of the level-r program for one scenario."""

    symbols: list
    generators: list  # localizing generators: kept symbols, complements, z
    ideal: list  # the defining ideal, enforced by rewriting (reported only)
    rewrites: RewriteSystem
    r: int


def _outcome(party, question: int, answer: int, n: int) -> NcPolynomial:
    """Operator of ``answer`` to ``question`` in the Collins–Gisin alphabet.

    ``party`` is :func:`alice` or :func:`bob` and ``n`` the number of answers.
    The last answer has no symbol: its operator is one minus the others.
    """
    if answer < n - 1:
        return NcPolynomial.from_word((party(question, answer),))
    out = NcPolynomial.one()
    for a in range(n - 1):
        out = out - NcPolynomial.from_word((party(question, a),))
    return out


def build_entdim_sets(scenario: Scenario, r: int) -> EntdimSets:
    """Collins–Gisin alphabet, generators, ideal and rewrite rules at level r.

    The alphabet keeps x_s^a for a < nA - 1, y_t^b for b < nB - 1, and z, so
    there are no completeness sums.  The localizing generators are the kept
    symbols, then 1 - sum_a x_s^a per question s and 1 - sum_b y_t^b per
    question t (the eliminated operators; skipped where they are the constant
    1, that is with one answer), then z.  State idempotence and the
    cross-party commutators enter the rewrite system; substitution by them
    changes moments by truncated-ideal members only.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    sc = scenario
    z = state_symbol()
    xs = [alice(s, a) for s in range(sc.nS) for a in range(sc.nA - 1)]
    ys = [bob(t, b) for t in range(sc.nT) for b in range(sc.nB - 1)]
    swap = frozenset((y, x) for y in ys for x in xs)
    rw = RewriteSystem(idempotents=frozenset([z]), swap_patterns=swap)

    zpoly = NcPolynomial.from_word((z,))
    ideal = [zpoly - zpoly * zpoly]
    for x in xs:
        for y in ys:
            xy = NcPolynomial.from_word((x, y))
            yx = NcPolynomial.from_word((y, x))
            ideal.append(xy - yx)
    generators = [NcPolynomial.from_word((s,)) for s in xs + ys]
    generators += [_outcome(alice, s, sc.nA - 1, sc.nA) for s in range(sc.nS)]
    generators += [_outcome(bob, t, sc.nB - 1, sc.nB) for t in range(sc.nT)]
    generators = [g for g in generators if g.deg > 0]
    generators.append(zpoly)
    return EntdimSets(xs + ys + [z], generators, ideal, rw, r)


@dataclass
class EntDimResult:
    r: int
    value: float
    solution: SdpSolution
    flatness: conic.FlatnessReport
    note: str = (
        "lower bound on the minimal average entanglement dimension; in "
        "particular a lower bound on the smallest squared local dimension "
        "realizing the table exactly"
    )


def build_xi_problem(
    P: Correlation, r: int, config: Optional[EntdimConfig] = None
) -> SdpProblem:
    """Level-r program of ``P``; raises ValueError above ``config.r_cap``."""
    config = config or EntdimConfig()
    if r > config.r_cap:
        raise ValueError(f"level {r} exceeds the configured cap {config.r_cap}")
    sc = P.scenario
    sets = build_entdim_sets(sc, r)
    rw, syms = sets.rewrites, sets.symbols
    mode = EquivalenceMode.TRACIAL_SYMMETRIC
    index = VariableIndex(syms, 2 * r, rw, mode, cap=config.basis_cap)
    rows = enumerate_basis(syms, r, rw, EquivalenceMode.PLAIN,
                           cap=config.basis_cap)
    blocks = [moment_block(rows, rw, mode, index)]
    for g in sets.generators:
        blocks.append(localizing_block(g, r, rw, mode, index, syms))
    z = state_symbol()
    zpoly = NcPolynomial.from_word((z,))
    cons = state_commutator_constraints(r, syms, z, rw, index)
    cons.append(LinearConstraint({index.var_of((z,)): 1.0}, 1.0, Relation.EQ))
    dropped_data = 0
    if 2 * r >= 3:
        # L(E_s^a F_t^b z) = P(a,b|s,t), expanded where E or F is eliminated;
        # assemble() drops the rows that coincide.
        for s, t, a, b in np.ndindex(sc.nS, sc.nT, sc.nA, sc.nB):
            poly = (_outcome(alice, s, a, sc.nA) * _outcome(bob, t, b, sc.nB)
                    * zpoly)
            terms: dict = {}
            for w, c in poly.terms.items():
                vid = index.var_of(w)
                terms[vid] = terms.get(vid, 0.0) + c
            cons.append(LinearConstraint(terms, float(P.table[a, b, s, t]),
                                         Relation.EQ))
    else:
        dropped_data = sc.gamma_size  # degree-3 data exceeds the truncation
    return assemble(
        {0: 1.0}, "min", blocks, cons, index,
        description=f"entanglement dimension bound, level {r}", r=r,
        metadata={"scenario": (sc.nA, sc.nB, sc.nS, sc.nT),
                  "data_constraints_dropped": dropped_data},
    )


def solve_xi_problem(
    problem: SdpProblem, config: Optional[EntdimConfig] = None
) -> EntDimResult:
    """Solve a program from :func:`build_xi_problem` and certify its value."""
    config = config or EntdimConfig()
    r = problem.r
    sol = conic.solve(problem, tol=config.tol,
                      objective_cap=config.objective_cap)
    if sol.status == SolveStatus.INFEASIBLE:
        import dataclasses

        margin = -math.inf
        try:
            _, margin = conic.feasibility(
                dataclasses.replace(problem, objective={}),
                eps_feas=config.eps_feas,
            )
        except conic.SolverError:
            pass
        raise InfeasibleCorrelationError(r, margin)
    if sol.status not in (SolveStatus.OPTIMAL, SolveStatus.NUMERICAL_LIMIT):
        raise conic.SolverError(f"solver returned {sol.status.value}")
    rep = conic.flatness(sol, r, FlatnessMode.ENTDIM)
    return EntDimResult(r, sol.objective, sol, rep)


def xi_q(
    P: Correlation, r: int, config: Optional[EntdimConfig] = None
) -> EntDimResult:
    """Level-r lower bound on the average entanglement dimension of P."""
    config = config or EntdimConfig()
    return solve_xi_problem(build_xi_problem(P, r, config), config)


def monotonicity_audit(
    P: Correlation, r_max: int, config: Optional[EntdimConfig] = None
) -> list:
    """Values for r = 1..r_max; raises if the sequence fails to be monotone."""
    values = [xi_q(P, r, config).value for r in range(1, r_max + 1)]
    for lo, hi in zip(values, values[1:]):
        if hi < lo - 1e-6:
            raise conic.SolverError(
                f"level values {values} are not nondecreasing within 1e-6"
            )
    return values
