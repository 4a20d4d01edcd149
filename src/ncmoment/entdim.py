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

The program does not change under the relabelings of parties, questions and
answers that fix the table.  ``build_xi_problem`` finds them (``_stabilizer``
tries every relabeling, and none when there are more than ``BASIS_CAP``) and
attaches generators as symbol maps: a kept symbol goes to the operator of its
relabelled answer, which is one minus the other answers' symbols when that
answer has none.  The solver checks them and solves on their fixed subspace
(see :mod:`ncmoment.conic`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import permutations, product
from math import factorial, lcm

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
    """The table lies outside the level-r relaxation (within tolerance).

    ``margin`` bounds from above the value of the margin program that the
    solver saw.  When a relabeling that fixes the table flips an answer,
    that is the program restricted to the fixed subspace of the relabelings
    (see :mod:`ncmoment.conic`): its margin is negative exactly when the
    full program's is, but may lie below it."""

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
        if not np.isfinite(t).all():
            raise CorrelationError("the table holds a value that is not finite")
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
        if not isinstance(obj, dict):
            raise CorrelationError("correlation JSON must be an object")
        for key in ("A", "B", "S", "T", "P"):
            if key not in obj:
                raise CorrelationError(f'correlation JSON misses key "{key}"')
        counts = [obj[key] for key in "ABST"]
        if not all(isinstance(c, int) and not isinstance(c, bool) for c in counts):
            raise CorrelationError('"A", "B", "S" and "T" must be integers')
        try:
            table = np.array(obj["P"], dtype=float)
        except (TypeError, ValueError):
            raise CorrelationError('"P" must be a numeric array') from None
        return Correlation(Scenario(*counts), table)


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


def _stabilizer(P: Correlation) -> list:
    """The relabelings that fix the table, or none when there are more than
    ``BASIS_CAP`` relabelings to try.

    A relabeling permutes the questions of each party (pS, pT), the answers
    of each question (sig[s], tau[t]) and, where the two parties have the
    same counts, may swap the parties; it is returned as the permutation g
    of the answer operators, Alice's (s, a) at s * nA + a, then Bob's.  It
    fixes P when P(a, b | s, t) = U(sig_s(a), tau_t(b) | pS(s), pT(t)), with
    U = P, or P with the parties swapped; entries are compared rounded to
    12 digits, as the solver compares constraints.  Every relabeling is
    tried: the answer permutations of all questions at once, for each
    choice of the swap and the question permutations.
    """
    sc = P.scenario
    nA, nB, nS, nT = sc.nA, sc.nB, sc.nS, sc.nT
    table = np.round(P.table, 12)
    views = [table] + ([table.transpose(1, 0, 3, 2)] if (nA, nS) == (nB, nT) else [])
    if (len(views) * factorial(nS) * factorial(nT) * factorial(nA) ** nS
            * factorial(nB) ** nT > BASIS_CAP):
        return []
    pa = np.array(list(permutations(range(nA))))
    pb = np.array(list(permutations(range(nB))))
    # Answer permutations, one per question, Alice's and Bob's questions
    # interleaved in the order (0, Alice), (0, Bob), (1, Alice), ...
    slots = sorted([(s, 0) for s in range(nS)] + [(t, 1) for t in range(nT)])
    pick = np.array(list(product(*[range(len(pb) if side else len(pa))
                                   for _, side in slots])))
    sig = pa[pick[:, [k for k, (_, side) in enumerate(slots) if not side]]]
    tau = pb[pick[:, [k for k, (_, side) in enumerate(slots) if side]]]
    # a[n, a, 0, s, 0] = sig_s(a) and b[n, 0, b, 0, t] = tau_t(b) of choice n
    a = sig.transpose(0, 2, 1)[:, :, None, :, None]
    b = tau.transpose(0, 2, 1)[:, None, :, None, :]
    out = []
    for swap, U in enumerate(views):
        for ps in permutations(range(nS)):
            for pt in permutations(range(nT)):
                fits = (U[a, b, np.array(ps)[:, None], np.array(pt)] == table).all(
                    axis=(1, 2, 3, 4))
                for n in np.flatnonzero(fits).tolist():
                    alice_ = [(nS * nA if swap else 0) + ps[s] * nA + sig[n, s, x]
                              for s in range(nS) for x in range(nA)]
                    bob_ = [(0 if swap else nS * nA) + pt[t] * nB + tau[n, t, y]
                            for t in range(nT) for y in range(nB)]
                    out.append(tuple(int(g) for g in alice_ + bob_))
    return out


def _order(g: tuple) -> int:
    """Order of the permutation g: the lcm of its cycle lengths."""
    seen, out = set(), 1
    for i in range(len(g)):
        k, j = 0, i
        while j not in seen:
            seen.add(j)
            j, k = g[j], k + 1
        out = lcm(out, max(k, 1))
    return out


def _relabelings(P: Correlation) -> list:
    """Symbol maps of generators of the table's stabilizer (``_stabilizer``).

    Generators are picked greedily, each one that the earlier ones do not
    generate: those that map symbols to symbols first, and the others by
    decreasing order, so that few generators (fewer checks in the solver)
    are needed; Tsirelson's table needs two.  A kept symbol goes to
    the operator of its image answer, which is ``1 - sum`` for a last
    answer (``_outcome``); z is fixed.
    """
    sc = P.scenario
    group = _stabilizer(P)
    last = {s * sc.nA + sc.nA - 1 for s in range(sc.nS)} | {
        sc.nS * sc.nA + t * sc.nB + sc.nB - 1 for t in range(sc.nT)}
    group.sort(key=lambda g: ({g[i] for i in last} != last, -_order(g)))
    ident = tuple(range(sc.nS * sc.nA + sc.nT * sc.nB))
    gens, closure = [], {ident}
    for g in group:
        if g in closure:
            continue
        gens.append(g)
        new = list(closure)
        while new:
            new = [x for x in {tuple(h[i] for i in x) for x in new for h in gens}
                   if x not in closure]
            closure.update(new)

    def operator(i):
        party, n, i = (alice, sc.nA, i) if i < sc.nS * sc.nA else (
            bob, sc.nB, i - sc.nS * sc.nA)
        q, ans = divmod(i, n)
        return party(q, ans) if ans < n - 1 else _outcome(party, q, ans, n)

    return [{operator(i): operator(g[i]) for i in range(len(g)) if i not in last}
            for g in gens]


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
        symmetries=_relabelings(P),
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
