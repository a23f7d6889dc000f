"""Mixed-state monotones via the convex roof.

The outer minimization runs over pure-state decompositions parameterized by
isometries acting on the spectral ensemble; the inner loop evaluates each
member's monotone through the embedded path. A derivative-free coordinate
search (quadratic fit per coordinate, shrinking step) drives the descent.
The result is always an upper bound: every decomposition is feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measurement import ShotPlan, combine_estimates, sample_estimates
from .monotones import EmbeddedEvaluator, MonotoneSpec
from .pauli import MixedState, PauliString, PureState, _ensemble_matrix, dense_matrix

RANK_EPS = 1e-10
RECONSTRUCTION_ATOL = 1e-8
PROB_FLOOR = 1e-14


@dataclass(frozen=True)
class Decomposition:
    """Probabilistic pure-state ensemble {p_i, |psi_i>}."""

    members: tuple[tuple[float, PureState], ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("decomposition needs at least one member")
        probs = [p for p, _ in self.members]
        if any(p <= 0.0 or p > 1.0 + 1e-12 for p in probs):
            raise ValueError("probabilities must lie in (0, 1]")
        if abs(sum(probs) - 1.0) > 1e-10:
            raise ValueError("probabilities must sum to 1 within 1e-10")

    @property
    def size(self) -> int:
        return len(self.members)

    def density_matrix(self) -> np.ndarray:
        return _ensemble_matrix(self.members)

    def reconstructs(self, rho: MixedState, atol: float = RECONSTRUCTION_ATOL) -> bool:
        return bool(np.linalg.norm(self.density_matrix() - rho.matrix) <= atol)


@dataclass(frozen=True)
class RoofConfig:
    extra_terms: int = 2
    max_iterations: int = 500
    restarts: int = 8
    tolerance: float = 1e-6
    seed: int = 0
    shots: ShotPlan | None = None

    def __post_init__(self):
        if self.extra_terms < 0:
            raise ValueError("extra_terms must be >= 0")
        if self.max_iterations < 1 or self.restarts < 1:
            raise ValueError("max_iterations and restarts must be >= 1")
        if not 0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class RoofResult:
    value: float
    decomposition: Decomposition
    iterations: int
    converged: bool
    history: tuple[float, ...]
    """Best objective value after each iteration of the winning restart."""


def _spectral(rho: MixedState) -> np.ndarray:
    """Steering basis sqrt(lam_i) e_i (dim x rank) over eigenvalues > RANK_EPS, largest first."""
    evals, vecs = np.linalg.eigh(rho.matrix)
    keep = evals > RANK_EPS
    return vecs[:, keep][:, ::-1] * np.sqrt(evals[keep][::-1])


def _members_from_isometry(scaled: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized ensemble steering: phi_j = sum_i W_ji sqrt(lam_i) e_i.
    Returns (probabilities, row-stacked normalized states)."""
    phi = scaled @ w.T                       # (dim, k)
    probs = np.sum(np.abs(phi) ** 2, axis=0)
    states = np.zeros_like(phi.T)
    nz = probs > PROB_FLOOR
    states[nz] = (phi[:, nz] / np.sqrt(probs[nz])).T
    return probs, states


def decomposition_from_isometry(rho: MixedState, w: np.ndarray) -> Decomposition:
    w = np.asarray(w, dtype=complex)
    scaled = _spectral(rho)
    r = scaled.shape[1]
    if w.ndim != 2 or w.shape[1] != r:
        raise ValueError(f"isometry must be k x {r} for this state, got {w.shape}")
    if np.max(np.abs(w.conj().T @ w - np.eye(r))) > 1e-10:
        raise ValueError("columns are not orthonormal within 1e-10")
    probs, states = _members_from_isometry(scaled, w)
    members = tuple(
        (float(p), PureState.from_amplitudes(states[j]))
        for j, p in enumerate(probs)
        if p > PROB_FLOOR
    )
    d = Decomposition(members)
    if not d.reconstructs(rho):
        raise ValueError("isometry-steered ensemble failed to reconstruct the state")
    return d


def eigendecomposition_start(rho: MixedState) -> Decomposition:
    """The spectral ensemble: the identity isometry."""
    return decomposition_from_isometry(rho, np.eye(_spectral(rho).shape[1]))


def _ensemble_value(
    evaluator: EmbeddedEvaluator,
    probs: np.ndarray,
    states: np.ndarray,
    shots: ShotPlan | None,
) -> float:
    """sum_j p_j E(phi_j) over the members (rows of `states`) above
    PROB_FLOOR, each evaluated via the embedded path; with shots, member j
    samples its exact (<Z(x)O>, <X(x)O>) pairs with seed shots.seed + j."""
    nz = probs > PROB_FLOOR
    tilde = np.hstack([states.real, states.imag])
    if shots is None:
        return float(probs[nz] @ evaluator.values_batch(tilde[nz]))
    ex = evaluator.antilinear_batch(tilde[nz])
    pairs = np.stack([ex.real, -ex.imag], axis=-1).reshape(ex.shape[0], -1)
    total = 0.0
    for j, exact in zip(np.flatnonzero(nz), pairs):
        plan = ShotPlan(shots.shots, (shots.seed + int(j)) % 2**64)
        total += probs[j] * combine_estimates(evaluator.spec, sample_estimates(exact, plan))
    return float(total)


def roof_objective(
    d: Decomposition, spec: MonotoneSpec, shots: ShotPlan | None = None
) -> float:
    """sum_i p_i E(|psi_i>), every member evaluated via the embedded path."""
    probs = np.array([p for p, _ in d.members])
    states = np.array([psi.amplitudes for _, psi in d.members])
    return _ensemble_value(EmbeddedEvaluator(spec), probs, states, shots)


def _isometry_from_params(x: np.ndarray, upper: tuple, r: int) -> np.ndarray:
    """exp(-iG)[:, :r], G Hermitian with diagonal x[:k] and (re, im) pairs x[k:] at `upper`."""
    k = math.isqrt(x.size)
    g = np.zeros((k, k), dtype=complex)
    np.fill_diagonal(g, x[:k])
    vals = x[k::2] + 1j * x[k + 1::2]
    g[upper] = vals
    g.T[upper] = vals.conj()
    evals, vecs = np.linalg.eigh(g)
    u = (vecs * np.exp(-1j * evals)) @ vecs.conj().T
    return u[:, :r]


def _coordinate_descent(f, x0, max_iterations, tolerance, init_step=0.25):
    """Coordinate-wise quadratic fit with shrinking step, plus a pattern
    (accelerated) move after each productive sweep; returns
    (x, fx, per-iteration best history, converged, iterations used)."""
    x = np.array(x0, dtype=float)
    fx = f(x)
    history = [fx]
    h = init_step
    converged = False
    iterations = 0
    for it in range(max_iterations):
        iterations = it + 1
        x_before = x.copy()
        f_before = fx
        for c in range(x.size):
            xc = x[c]
            x[c] = xc + h
            fp = f(x)
            x[c] = xc - h
            fm = f(x)
            x[c] = xc
            candidates = [(fp, xc + h), (fm, xc - h)]
            curv = (fp + fm - 2.0 * fx) / h**2
            slope = (fp - fm) / (2.0 * h)
            if curv > 1e-12:
                delta = float(np.clip(-slope / curv, -4.0 * h, 4.0 * h))
                if abs(abs(delta) - h) > 1e-15:
                    x[c] = xc + delta
                    candidates.append((f(x), xc + delta))
                    x[c] = xc
            fbest, xbest = min(candidates, key=lambda t: t[0])
            if fbest < fx - 1e-15:
                x[c] = xbest
                fx = fbest
        # pattern move: extend along the net sweep displacement while it helps
        direction = x - x_before
        if fx < f_before and np.any(direction):
            scale = 1.0
            for _ in range(8):
                trial = x + scale * direction
                f_trial = f(trial)
                if f_trial < fx - 1e-15:
                    x, fx = trial, f_trial
                    scale *= 2.0
                else:
                    break
        history.append(fx)
        if fx < 1e-12:
            converged = True
            break
        if f_before - fx < tolerance:
            h *= 0.5
            if h < tolerance:
                converged = True
                break
    return x, fx, history, converged, iterations


def convex_roof_estimate(
    rho: MixedState, spec: MonotoneSpec, cfg: RoofConfig = RoofConfig()
) -> RoofResult:
    """Upper-bound estimate of the convex-roof monotone of rho.

    The decomposition size is k = rank + extra_terms, capped at 4^N (no
    optimal decomposition needs more members than rank^2 <= 4^N).
    """
    scaled = _spectral(rho)
    r = scaled.shape[1]
    k = min(r + cfg.extra_terms, 4**rho.n)
    n_params = k + k * (k - 1)
    upper = np.triu_indices(k, 1)

    evaluator = EmbeddedEvaluator(spec)

    def objective(x: np.ndarray) -> float:
        probs, states = _members_from_isometry(scaled, _isometry_from_params(x, upper, r))
        return _ensemble_value(evaluator, probs, states, cfg.shots)

    rng = np.random.default_rng(cfg.seed)
    best = None
    for restart in range(cfg.restarts):
        x0 = np.zeros(n_params) if restart == 0 else rng.normal(0.0, 0.6, n_params)
        x, fx, history, converged, iterations = _coordinate_descent(
            objective, x0, cfg.max_iterations, cfg.tolerance
        )
        if best is None or fx < best[1]:
            best = (x, fx, history, converged, iterations)
        if fx < 1e-12:
            break

    x, fx, history, converged, iterations = best
    decomposition = decomposition_from_isometry(rho, _isometry_from_params(x, upper, r))
    return RoofResult(
        value=fx,
        decomposition=decomposition,
        iterations=iterations,
        converged=converged,
        history=tuple(history),
    )


def wootters_oracle(rho: MixedState) -> float:
    """Closed-form two-qubit mixed-state concurrence; validation oracle only."""
    if rho.n != 2:
        raise ValueError("the closed form applies to two qubits")
    yy = dense_matrix(PauliString("YY")).real  # YY is real despite two Ys
    m = rho.matrix @ yy @ rho.matrix.conj() @ yy
    evals = np.sort(np.abs(np.linalg.eigvals(m).real))[::-1]
    lam = np.sqrt(evals)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def efficiency_check(k: int, l: int, m: int, n: int) -> bool:
    """Embedded roof beats full tomography when k*l*m < 2^(2N) - 1."""
    if min(k, l, m, n) < 1:
        raise ValueError("all arguments must be positive integers")
    return k * l * m < (1 << (2 * n)) - 1


def werner_state(p: float) -> MixedState:
    """p |Phi+><Phi+| + (1-p) I/4; concurrence max(0, (3p-1)/2)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    return MixedState(p * np.outer(bell, bell.conj()) + (1.0 - p) * np.eye(4) / 4.0)
