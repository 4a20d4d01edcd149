"""Correlation generation with known provenance, synchronous-correlation Gram
constructions, and classical membership testing by linear programming."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np

from ._ipm import BlockData, ConeProgram, solve_ipm
from .entdim import Correlation, CorrelationError, Scenario

# Largest entry of |P - sum_k w_k P_k| accepted for a CLASSICAL verdict.
WEIGHTS_TOL = 1e-8
# Smallest separation margin accepted for a NONCLASSICAL verdict.
MARGIN_TOL = 1e-9


class ValidationError(ValueError):
    pass


class ResourceError(RuntimeError):
    pass


@dataclass
class Realization:
    """Shared state plus local measurement families in local dimension d.

    ``psi`` lives in the d^2-dimensional tensor space (row-major pairing);
    ``E`` has shape (nS, nA, d, d) and ``F`` shape (nT, nB, d, d).
    """

    d: int
    psi: np.ndarray
    E: np.ndarray
    F: np.ndarray

    def scenario(self) -> Scenario:
        return Scenario(self.E.shape[1], self.F.shape[1],
                        self.E.shape[0], self.F.shape[0])

    def validate(self):
        if abs(np.linalg.norm(self.psi) - 1.0) > 1e-12:
            raise ValidationError(
                f"state norm is {np.linalg.norm(self.psi):.15f}, not 1"
            )
        for name, povms in (("E", self.E), ("F", self.F)):
            for q in range(povms.shape[0]):
                total = np.zeros((self.d, self.d), dtype=complex)
                for a in range(povms.shape[1]):
                    m = povms[q, a]
                    if np.abs(m - m.conj().T).max() > 1e-10:
                        raise ValidationError(f"{name}[{q}][{a}] is not Hermitian")
                    if np.linalg.eigvalsh(m)[0] < -1e-10:
                        raise ValidationError(
                            f"{name}[{q}][{a}] has eigenvalue "
                            f"{np.linalg.eigvalsh(m)[0]:.3e} < 0"
                        )
                    total += m
                if np.abs(total - np.eye(self.d)).max() > 1e-10:
                    raise ValidationError(
                        f"{name}[{q}] does not sum to the identity"
                    )

    def to_json(self) -> str:
        return json.dumps(
            {"d": self.d, "psi": _to_pairs(self.psi),
             "E": _to_pairs(self.E), "F": _to_pairs(self.F)},
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "Realization":
        obj = _json_object(text, ("d", "psi", "E", "F"))
        d = obj["d"]
        return Realization(d, _from_pairs(obj, "psi", (d * d,)),
                           _from_pairs(obj, "E", (None, None, d, d)),
                           _from_pairs(obj, "F", (None, None, d, d)))


# The JSON codec of realizations and projector families: an object with the
# local dimension "d" and complex arrays written as [re, im] pairs.

def _to_pairs(arr) -> list:
    a = np.asarray(arr, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _from_pairs(obj: dict, key: str, shape: tuple) -> np.ndarray:
    """The complex array ``obj[key]`` of [re, im] pairs; ValidationError
    unless its shape is ``shape`` (None matches any extent)."""
    try:
        a = np.array(obj[key], dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f'"{key}" must be a numeric array') from None
    if a.ndim != len(shape) + 1 or a.shape[-1] != 2 or any(
            x is not None and x != y for x, y in zip(shape, a.shape)):
        want = ", ".join("*" if x is None else str(x) for x in shape)
        raise ValidationError(f'"{key}" must have shape ({want}) of [re, im] pairs, '
                              f"got {a.shape}")
    return a[..., 0] + 1j * a[..., 1]


def _json_object(text: str, keys: tuple) -> dict:
    """The JSON object ``text``, with every key of ``keys`` and a positive
    integer "d"; ValidationError otherwise."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"invalid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise ValidationError("expected a JSON object")
    for key in keys:
        if key not in obj:
            raise ValidationError(f'JSON misses key "{key}"')
    d = obj["d"]
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ValidationError('"d" must be a positive integer')
    return obj


def family_to_json(fam: np.ndarray, d: int) -> str:
    """JSON of a projector family (nS, nA, d, d), the format of ``sync``."""
    return json.dumps({"d": d, "X": _to_pairs(fam)}, sort_keys=True)


def family_from_json(text: str) -> tuple:
    """(family, d) from the JSON of ``family_to_json``."""
    obj = _json_object(text, ("d", "X"))
    d = obj["d"]
    return _from_pairs(obj, "X", (None, None, d, d)), d


def realize(real: Realization) -> Correlation:
    """Correlation table of a realization; records the dimension bound d^2."""
    real.validate()
    sc = real.scenario()
    table = np.zeros((sc.nA, sc.nB, sc.nS, sc.nT))
    for s in range(sc.nS):
        for t in range(sc.nT):
            for a in range(sc.nA):
                for b in range(sc.nB):
                    op = np.kron(real.E[s, a], real.F[t, b])
                    table[a, b, s, t] = float(
                        np.real(real.psi.conj() @ (op @ real.psi))
                    )
    corr = Correlation(sc, table)
    corr.dq_upper = real.d ** 2
    return corr


def _random_povm(n_outcomes: int, d: int, rng) -> np.ndarray:
    gs = []
    for _ in range(n_outcomes):
        w = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        gs.append(w @ w.conj().T + 1e-6 * np.eye(d))
    total = sum(gs)
    vals, vecs = np.linalg.eigh(total)
    tinv_half = vecs @ np.diag(vals ** -0.5) @ vecs.conj().T
    return np.array([tinv_half @ g @ tinv_half for g in gs])


def random_realization(scenario: Scenario, d: int, seed: int) -> Realization:
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
    psi /= np.linalg.norm(psi)
    E = np.array([_random_povm(scenario.nA, d, rng) for _ in range(scenario.nS)])
    F = np.array([_random_povm(scenario.nB, d, rng) for _ in range(scenario.nT)])
    return Realization(d, psi, E, F)


def tsirelson_chsh() -> Realization:
    """Maximally entangled two-qubit strategy with optimally rotated
    binary measurements; its game functional value is the quantum maximum."""
    Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    eye = np.eye(2, dtype=complex)
    A = [Z, X]
    B = [(Z + X) / np.sqrt(2.0), (Z - X) / np.sqrt(2.0)]
    E = np.array([[(eye + (-1) ** a * A[s]) / 2 for a in range(2)] for s in range(2)])
    F = np.array([[(eye + (-1) ** b * B[t]) / 2 for b in range(2)] for t in range(2)])
    return Realization(2, psi, E, F)


def chsh_game_value(P: Correlation) -> float:
    """Winning probability of the xor game with uniform questions."""
    sc = P.scenario
    if (sc.nA, sc.nB, sc.nS, sc.nT) != (2, 2, 2, 2):
        raise ValueError("the xor game needs the (2,2,2,2) scenario")
    v = 0.0
    for s in range(2):
        for t in range(2):
            for a in range(2):
                for b in range(2):
                    if (a + b) % 2 == (s * t) % 2:
                        v += P.table[a, b, s, t]
    return v / 4.0


def pr_box() -> Correlation:
    sc = Scenario(2, 2, 2, 2)
    table = np.zeros((2, 2, 2, 2))
    for s in range(2):
        for t in range(2):
            for a in range(2):
                for b in range(2):
                    if (a + b) % 2 == (s * t) % 2:
                        table[a, b, s, t] = 0.5
    return Correlation(sc, table)


def deterministic_correlation(scenario: Scenario, g, h) -> Correlation:
    """Strategy pair g: S -> A, h: T -> B as a correlation table."""
    table = np.zeros((scenario.nA, scenario.nB, scenario.nS, scenario.nT))
    for s in range(scenario.nS):
        for t in range(scenario.nT):
            table[g[s], h[t], s, t] = 1.0
    return Correlation(scenario, table)


def random_classical(scenario: Scenario, n_atoms: int, seed: int) -> Correlation:
    """Convex combination of random deterministic strategies."""
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(n_atoms))
    table = np.zeros((scenario.nA, scenario.nB, scenario.nS, scenario.nT))
    for k in range(n_atoms):
        g = rng.integers(0, scenario.nA, scenario.nS)
        h = rng.integers(0, scenario.nB, scenario.nT)
        table += w[k] * deterministic_correlation(scenario, g, h).table
    return Correlation(scenario, table)


# ---------------------------------------------------------------------------
# Synchronous correlations and their Gram matrices
# ---------------------------------------------------------------------------


def random_projector_family(nS: int, nA: int, d: int, seed: int) -> np.ndarray:
    """Projector measurement families: for every question a random unitary
    splits the standard basis into nA groups (possibly empty)."""
    rng = np.random.default_rng(seed)
    fam = np.zeros((nS, nA, d, d), dtype=complex)
    for s in range(nS):
        w = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        u, _ = np.linalg.qr(w)
        labels = rng.integers(0, nA, d)
        for a in range(nA):
            diag = np.diag((labels == a).astype(float))
            fam[s, a] = u @ diag @ u.conj().T
    return fam


def _check_projector_family(fam: np.ndarray):
    nS, nA, d, _ = fam.shape
    for s in range(nS):
        total = np.zeros((d, d), dtype=complex)
        for a in range(nA):
            m = fam[s, a]
            if np.abs(m - m.conj().T).max() > 1e-10:
                raise ValidationError(f"projector [{s}][{a}] is not Hermitian")
            if np.abs(m @ m - m).max() > 1e-10:
                raise ValidationError(f"[{s}][{a}] is not idempotent")
            total += m
        if np.abs(total - np.eye(d)).max() > 1e-10:
            raise ValidationError(f"family [{s}] does not sum to the identity")


def synchronous_from_projectors(fam: np.ndarray, d: int) -> Correlation:
    """Synchronous table P(a,b|s,t) = Tr(X_s^a X_t^b)/d."""
    _check_projector_family(fam)
    nS, nA = fam.shape[0], fam.shape[1]
    table = np.einsum("saij,tbji->abst", fam, fam).real / d
    return Correlation(Scenario(nA, nA, nS, nS), table)


@dataclass
class CpsdGram:
    """Gram matrix of a synchronous correlation, indexed by (question, answer).

    When the correlation was produced from an explicit family, ``factors``
    holds PSD matrices with pairwise inner products equal to the Gram entries
    and ``K`` their common row sum.
    """

    matrix: np.ndarray
    nS: int
    nA: int
    factors: Optional[np.ndarray] = None
    K: Optional[np.ndarray] = None

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.T))[0])


def _sync_check(P: Correlation):
    sc = P.scenario
    if sc.nA != sc.nB or sc.nS != sc.nT:
        raise ValidationError("a synchronous correlation needs A=B and S=T")
    for s in range(sc.nS):
        for a in range(sc.nA):
            for b in range(sc.nA):
                if a != b and P.table[a, b, s, s] > 1e-10:
                    raise ValidationError(
                        f"synchronity violated: P({a},{b}|{s},{s}) = "
                        f"{P.table[a, b, s, s]:.3e}"
                    )


def gram_of_synchronous(P: Correlation) -> CpsdGram:
    """Arrange a synchronous table as its (S x A)-indexed Gram matrix."""
    _sync_check(P)
    sc = P.scenario
    n = sc.nS * sc.nA
    M = P.table.transpose(2, 0, 3, 1).reshape(n, n)  # rows (s, a), columns (t, b)
    return CpsdGram(M, sc.nS, sc.nA)


def cpsd_gram_from_projectors(fam: np.ndarray, d: int) -> CpsdGram:
    """Gram data of the synchronous correlation of a projector family.

    The recorded factors are the projectors scaled by 1/sqrt(d), so their
    plain Frobenius inner products reproduce the table entries.
    """
    factors = fam / np.sqrt(d)
    gram = gram_of_synchronous(synchronous_from_projectors(fam, d))
    return replace(gram, factors=factors, K=factors[0].sum(axis=0))


def factorize(gram: CpsdGram) -> np.ndarray:
    """PSD factors of the Gram matrix.

    Only recorded factorizations are returned; producing one from the matrix
    alone amounts to computing a completely positive semidefinite
    factorization, which this package does not attempt.
    """
    if gram.factors is None:
        raise ValidationError(
            "no factorization recorded with this Gram matrix; build it from "
            "an explicit projector family"
        )
    return gram.factors


def gram_to_realization(factors: np.ndarray) -> Realization:
    """Realization from PSD factors with a common invertible row sum.

    The state is the flattened row sum K, the first party measures
    K^{-1/2} X K^{-1/2}, and the second party the transposes (the transpose
    pairs with the row-major flattening of K).
    """
    nS, nA, d, _ = factors.shape
    Ks = factors.sum(axis=1)
    K = Ks[0]
    spread = max(np.abs(Ks[s] - K).max() for s in range(nS)) if nS else 0.0
    if spread > 1e-8:
        raise ValidationError(
            f"factor row sums differ across questions by {spread:.3e}"
        )
    vals, vecs = np.linalg.eigh(K)
    if vals[0] <= 1e-8:
        raise ValidationError(
            f"row-sum matrix is numerically singular (smallest eigenvalue "
            f"{vals[0]:.3e}); a minimal factorization is required"
        )
    inv_half = vecs @ np.diag(vals ** -0.5) @ vecs.conj().T
    E = np.zeros((nS, nA, d, d), dtype=complex)
    for s in range(nS):
        for a in range(nA):
            E[s, a] = inv_half @ factors[s, a] @ inv_half
    F = np.transpose(E, (0, 1, 3, 2))
    psi = K.reshape(-1)
    psi = psi / np.linalg.norm(psi)
    return Realization(d, psi, E, F)


# ---------------------------------------------------------------------------
# Classical membership: one LP on the interior-point solver, max <c,P> - theta
# over -1 <= c <= 1, theta >= <c,P_k> for every deterministic strategy k.  Its
# dual is min ||P - sum_k w_k P_k||_1 over the simplex: the strategy blocks'
# duals are convex weights.  Neither verdict reads the solver's objective.
# ---------------------------------------------------------------------------


class Verdict(Enum):
    CLASSICAL = "classical"
    NONCLASSICAL = "nonclassical"


@dataclass
class ClassicalityCertificate:
    verdict: Verdict
    weights: Optional[dict] = None  # (g, h) strategy -> weight
    functional: Optional[np.ndarray] = None  # separating coefficients over Gamma
    margin: float = 0.0


def _strategy_vector(scenario: Scenario, g, h) -> np.ndarray:
    return deterministic_correlation(scenario, g, h).table.reshape(-1)


def _all_strategies(scenario: Scenario):
    for g in itertools.product(range(scenario.nA), repeat=scenario.nS):
        for h in itertools.product(range(scenario.nB), repeat=scenario.nT):
            yield g, h


def _best_responses(scenario: Scenario, c: np.ndarray) -> list:
    """((g, h), <c, P_(g,h)>) for every second-party strategy h and the
    first party's best reply g, optimized separately per question; the
    largest value is the exact maximum over all deterministic strategies."""
    ct = c.reshape(scenario.nA, scenario.nB, scenario.nS, scenario.nT)
    out = []
    for h in itertools.product(range(scenario.nB), repeat=scenario.nT):
        sel = np.array([ct[:, h[t], :, t] for t in range(scenario.nT)])
        per_sa = sel.sum(axis=0)  # (nA, nS)
        g = tuple(int(x) for x in per_sa.argmax(axis=0))
        out.append(((g, h), float(per_sa.max(axis=0).sum())))
    return out


def _margin_lp(P: np.ndarray, columns: np.ndarray):
    """max <c,P> - theta  s.t.  theta - <c,P_k> >= 0,  1 -+ c_i >= 0.

    Every constraint is a 1x1 block over the variables (c, theta).  Returns
    the functional clipped to [-1, 1] and the duals of the strategy blocks.
    """
    dim = P.size
    blocks = []
    for col in columns:
        nz = np.flatnonzero(col)
        z = np.zeros(len(nz) + 1, dtype=int)
        blocks.append(BlockData(1, np.zeros((1, 1)), np.append(nz, dim), z, z,
                                np.append(-col[nz], 1.0)))
    z = np.zeros(1, dtype=int)
    blocks += [BlockData(1, np.ones((1, 1)), np.array([i]), z, z,
                         np.array([sign]))
               for i in range(dim) for sign in (-1.0, 1.0)]
    prog = ConeProgram(dim + 1, np.append(P, -1.0), blocks).finalize()
    res = solve_ipm(prog)
    w = np.array([res.X[k][0, 0] for k in range(len(columns))])
    return np.clip(res.y[:dim], -1.0, 1.0), w


def _certificate(P: Correlation, strategies: list, columns: np.ndarray,
                 c: np.ndarray, w: np.ndarray,
                 best_val: float) -> ClassicalityCertificate:
    """Certified verdict from a functional and candidate weights.

    ``best_val`` is the exact maximum of <c, P_k> over every strategy.
    """
    p_vec = P.table.reshape(-1)
    margin = float(c @ p_vec) - best_val
    if margin > MARGIN_TOL:
        return ClassicalityCertificate(
            Verdict.NONCLASSICAL, functional=c.reshape(P.table.shape),
            margin=margin,
        )
    w = np.clip(w, 0.0, None)
    w = w / w.sum()
    resid = float(np.abs(p_vec - w @ columns).max())
    if not resid <= WEIGHTS_TOL:  # also when the weights are NaN
        raise RuntimeError(
            f"classical membership undecided: margin {margin:.3e} <= "
            f"{MARGIN_TOL:.1e} but the weights miss the table by {resid:.3e}"
        )
    weights = {strategies[k]: float(wk) for k, wk in enumerate(w) if wk > 1e-12}
    return ClassicalityCertificate(Verdict.CLASSICAL, weights=weights,
                                   margin=margin)


def classical_membership(
    P: Correlation,
    strategy_cap: int = 10_000_000,
    direct_cap: int = 100_000,
) -> ClassicalityCertificate:
    """Decide membership in the polytope of shared-randomness correlations.

    Column generation on an interior-point LP, with an exact pricing oracle
    over the second party.  Scenarios with at most ``direct_cap`` strategies
    seed it with all of them, so one round decides; larger ones start from 16
    random strategies.  NONCLASSICAL needs the margin of the LP's clipped
    functional, recomputed against every strategy, above ``MARGIN_TOL``;
    CLASSICAL needs the clipped, renormalized dual weights to reproduce the
    table within ``WEIGHTS_TOL``.  Otherwise ``RuntimeError`` is raised.
    """
    sc = P.scenario
    n_strat = sc.nA ** sc.nS * sc.nB ** sc.nT
    if n_strat > strategy_cap:
        raise ResourceError(
            f"{n_strat} deterministic strategies exceed the cap "
            f"{strategy_cap}; reduce the scenario"
        )
    if sc.nB ** sc.nT > direct_cap:
        raise ResourceError(
            "column generation needs the second party's strategy count "
            f"within {direct_cap}; reduce the scenario"
        )
    p_vec = P.table.reshape(-1)
    if n_strat <= direct_cap:
        strategies = list(_all_strategies(sc))
    else:
        rng = np.random.default_rng(0)
        strategies = []
        for _ in range(16):
            g = tuple(int(x) for x in rng.integers(0, sc.nA, sc.nS))
            h = tuple(int(x) for x in rng.integers(0, sc.nB, sc.nT))
            strategies.append((g, h))
        strategies = list(dict.fromkeys(strategies))
    # Column generation on the margin LP with an exact oracle; seeded with
    # every strategy, its first round finds no improving reply.
    for _ in range(10_000):
        columns = np.array([_strategy_vector(sc, g, h) for g, h in strategies])
        c, w = _margin_lp(p_vec, columns)
        replies = _best_responses(sc, c)
        # Every improving best reply enters: each round is a whole IPM solve.
        theta, known = float((columns @ c).max()), set(strategies)
        new = [gh for gh, val in replies
               if val > theta + 1e-12 and gh not in known]
        if new:
            strategies += new
            continue
        best_val = max(val for _, val in replies)
        return _certificate(P, strategies, columns, c, w, best_val)
    raise RuntimeError("column generation did not converge")
