"""Lower bounds on the average entanglement dimension of a bipartite
correlation, computed through the tracial moment hierarchy.

The level-r program minimizes L(1) over tracial symmetric functionals on
words in the measurement symbols and one state symbol, subject to the
measurement quadratic module, the defining ideal (state idempotence and
cross-party commutation, both enforced by rewriting), and the data
constraints pinning the degree-3 moments to the correlation table.  The state
block-swap relations admit no equality below level 4, above ``R_CAP``, so
they are not built.

The alphabet is the Collins–Gisin one: the last answer of every question has
no symbol, and its operator is one minus the other answers' symbols.  So
completeness holds by construction and needs no sum-rule equalities, and
the eliminated operators enter as localizing generators and data polynomials.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import conic
from .conic import SdpSolution, SolveStatus
from .momentize import (
    LinearConstraint,
    Relation,
    SdpProblem,
    VariableIndex,
    assemble,
    localizing_block,
    moment_block,
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
    """The table lies outside the level-r relaxation (within tolerance);
    ``margin`` bounds the value of its margin program from above."""

    def __init__(self, r: int, margin: float):
        self.r = r
        self.margin = margin
        super().__init__(
            f"correlation is not within tolerance of the level-{r} relaxation "
            f"of the commuting-model correlation set (margin bound "
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


# Highest level of the hierarchy that build_xi_problem accepts.  The state
# block-swap equalities (momentize.state_commutator_constraints) are empty up
# to this level, so the build leaves them out; raising the cap to 4 or more
# needs that call back.
R_CAP = 3
# Most words in the level-r row basis and in the variable index.
BASIS_CAP = 20_000


@dataclass
class EntdimSets:
    """Generator data of the level-r program for one scenario."""

    symbols: list
    generators: list  # localizing generators: kept symbols, complements
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
    1, that is with one answer).  z has no block of its own: as z = z^2 under
    the rewrite rules, L(u* z v) = L((zu)* (zv)), so its localizing block is
    the principal submatrix of the moment block on the rows z u.  State
    idempotence and the cross-party commutators enter the rewrite system;
    substitution by them changes moments by truncated-ideal members only.
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


def build_xi_problem(P: Correlation, r: int) -> SdpProblem:
    """Level-r program of ``P``; raises ValueError above ``R_CAP``."""
    if r > R_CAP:
        raise ValueError(f"level {r} exceeds the cap {R_CAP}")
    sc = P.scenario
    sets = build_entdim_sets(sc, r)
    rw, syms = sets.rewrites, sets.symbols
    mode = EquivalenceMode.TRACIAL_SYMMETRIC
    index = VariableIndex(2 * r, rw, mode, cap=BASIS_CAP)
    rows = enumerate_basis(syms, r, rw, cap=BASIS_CAP)
    blocks = [moment_block(rows, index)]
    for g in sets.generators:
        blocks.append(localizing_block(g, r, index, syms))
    z = state_symbol()
    zpoly = NcPolynomial.from_word((z,))
    cons = [LinearConstraint({index.var_of((z,)): 1.0}, 1.0, Relation.EQ)]
    dropped_data = 0
    if 2 * r >= 3:
        # L(E_s^a F_t^b z) = P(a,b|s,t), expanded where E or F is eliminated;
        # assemble() drops the rows that coincide.
        for s, t, a, b in np.ndindex(sc.nS, sc.nT, sc.nA, sc.nB):
            poly = (_outcome(alice, s, a, sc.nA) * _outcome(bob, t, b, sc.nB)
                    * zpoly)
            cons.append(LinearConstraint(index.form(poly.terms.items()),
                                         float(P.table[a, b, s, t]),
                                         Relation.EQ))
    else:
        dropped_data = sc.gamma_size  # degree-3 data exceeds the truncation
    return assemble(
        {0: 1.0}, "min", blocks, cons, index,
        description=f"entanglement dimension bound, level {r}", r=r,
        metadata={"scenario": (sc.nA, sc.nB, sc.nS, sc.nT),
                  "data_constraints_dropped": dropped_data},
    )


def solve_xi_problem(problem: SdpProblem) -> EntDimResult:
    """Solve a program from :func:`build_xi_problem` and certify its value."""
    r = problem.r
    sol = conic.solve(problem)
    if sol.status == SolveStatus.INFEASIBLE:
        raise InfeasibleCorrelationError(r, sol.certificate["margin"])
    if sol.status == SolveStatus.UNBOUNDED:
        raise conic.SolverError(f"{problem.description}: solver returned "
                                f"{sol.status.value}")
    rep = conic.flatness(sol, r)
    return EntDimResult(r, sol.objective, sol, rep)


def xi_q(P: Correlation, r: int) -> EntDimResult:
    """Level-r lower bound on the average entanglement dimension of P."""
    return solve_xi_problem(build_xi_problem(P, r))


def monotonicity_audit(P: Correlation, r_max: int) -> list:
    """Values for r = 1..r_max; raises if the sequence fails to be monotone."""
    values = [xi_q(P, r).value for r in range(1, r_max + 1)]
    for lo, hi in zip(values, values[1:]):
        if hi < lo - 1e-6:
            raise conic.SolverError(
                f"level values {values} are not nondecreasing within 1e-6"
            )
    return values
