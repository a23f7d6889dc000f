"""Mixed-state monotones via the convex roof.

The outer minimization runs over pure-state decompositions parameterized by
isometries acting on the spectral ensemble; the inner loop evaluates each
member's monotone from its embedded pairs, read on its own 2^N vector. A
derivative-free coordinate search (quadratic fit per coordinate, shrinking
step) drives the descent. Its restarts descend in lockstep: the objective
takes a batch of parameter rows, and one call evaluates the probes of every
live restart at each sweep position. The objective is >= 0, so a restart
ending below 1e-12 ends the search; the least final value wins. Without
shots the result is always an upper bound: every decomposition is feasible.
Under `RoofConfig.shots` each member samples on fixed streams at every
objective call, so `value` is the minimum of one noise realisation, an
in-sample estimate that can fall below the roof.
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

    def reconstructs(self, rho: MixedState) -> bool:
        return bool(np.linalg.norm(self.density_matrix() - rho.matrix) <= RECONSTRUCTION_ATOL)


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
    """Unnormalized ensemble steering phi_j = sum_i W_ji sqrt(lam_i) e_i for
    each isometry of the batch w (b, k, r). Returns (probabilities (b, k),
    normalized states (b, k, dim)); a member at or below PROB_FLOOR gets a
    zero state."""
    phi = scaled @ w.transpose(0, 2, 1)      # (b, dim, k)
    probs = np.sum(np.abs(phi) ** 2, axis=1)
    states = np.zeros_like(phi)
    np.divide(phi, np.sqrt(probs)[:, None, :], out=states, where=(probs > PROB_FLOOR)[:, None, :])
    return probs, states.transpose(0, 2, 1)


def decomposition_from_isometry(rho: MixedState, w: np.ndarray) -> Decomposition:
    w = np.asarray(w, dtype=complex)
    scaled = _spectral(rho)
    r = scaled.shape[1]
    if w.ndim != 2 or w.shape[1] != r:
        raise ValueError(f"isometry must be k x {r} for this state, got {w.shape}")
    if np.max(np.abs(w.conj().T @ w - np.eye(r))) > 1e-10:
        raise ValueError("columns are not orthonormal within 1e-10")
    (probs,), (states,) = _members_from_isometry(scaled, w[None])
    members = tuple(
        (float(p), PureState(states[j]))
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
) -> np.ndarray:
    """sum_j p_j E(phi_j) for each ensemble of the batch (probs (b, k),
    states (b, k, dim)) over its members above PROB_FLOOR, each evaluated
    from its embedded pairs on its own state; with shots, member j samples
    its exact (<Z(x)O>, <X(x)O>) pairs with seed shots.seed + j."""
    nz = probs > PROB_FLOOR
    b, k, dim = states.shape
    rows = states.reshape(b * k, dim)
    if shots is None:
        values = evaluator.values_batch(rows).reshape(b, k, 1)
        # a matmul per row keeps the member sum a BLAS dot product; a plain
        # sum over the row rounds differently in the last bit
        return (np.where(nz, probs, 0.0)[:, None, :] @ values)[:, 0, 0]
    ex = evaluator.antilinear_batch(rows)
    pairs = np.stack([ex.real, -ex.imag], axis=-1).reshape(b, k, -1)
    totals = np.zeros(b)
    for i, j in zip(*np.nonzero(nz)):
        plan = ShotPlan(shots.shots, (shots.seed + int(j)) % 2**64)
        totals[i] += probs[i, j] * combine_estimates(evaluator.spec, sample_estimates(pairs[i, j], plan))
    return totals


def roof_objective(
    d: Decomposition, spec: MonotoneSpec, shots: ShotPlan | None = None
) -> float:
    """sum_i p_i E(|psi_i>), every member evaluated via the embedded path."""
    probs = np.array([[p for p, _ in d.members]])
    states = np.array([[psi.amplitudes for _, psi in d.members]])
    return float(_ensemble_value(EmbeddedEvaluator(spec), probs, states, shots)[0])


def _isometry_from_params(x: np.ndarray, upper: tuple, r: int) -> np.ndarray:
    """exp(-iG)[:, :r] for each row of x (b, n): G Hermitian with diagonal
    x[:k] and (re, im) pairs x[k:] at `upper`. Returns (b, k, r)."""
    k = math.isqrt(x.shape[1])
    g = np.zeros((len(x), k, k), dtype=complex)
    diagonal = np.arange(k)
    g[:, diagonal, diagonal] = x[:, :k]
    vals = x[:, k::2] + 1j * x[:, k + 1::2]
    g[:, upper[0], upper[1]] = vals
    g[:, upper[1], upper[0]] = vals.conj()
    evals, vecs = np.linalg.eigh(g)
    u = (vecs * np.exp(-1j * evals)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
    return u[:, :, :r]


def _coordinate_descent(f, x0, max_iterations, tolerance):
    """Coordinate-wise quadratic fit with shrinking step, plus a pattern
    (accelerated) move after each productive sweep, for every row of x0
    (b, n) in lockstep. f maps a batch of points (m, n) to their values
    (m,); one call takes the +h and -h probes of every live row, one the
    quadratic-fit points, one the pattern trials. Each row descends exactly
    as it would alone until one ends an iteration below 1e-12 (f >= 0): that
    ends the search, and rows not yet done report converged=False. Returns
    per row (x, fx, per-iteration best history, converged, iterations used)."""
    x = np.array(x0, dtype=float)
    fx = f(x)
    histories = [[float(v)] for v in fx]
    h = np.full(len(x), 0.25)  # each row's initial step
    converged = np.zeros(len(x), dtype=bool)
    iterations = np.zeros(len(x), dtype=int)
    live = np.arange(len(x))
    for it in range(max_iterations):
        if not live.size:
            break
        iterations[live] = it + 1
        xs, fs, hs = x[live], fx[live], h[live]
        x_before, f_before = xs.copy(), fs.copy()
        m, steps = len(live), np.concatenate([hs, -hs])
        for c in range(x.shape[1]):
            probes = np.concatenate([xs, xs])
            probes[:, c] += steps
            fpm = f(probes)
            fp, fm, xp, xm = fpm[:m], fpm[m:], probes[:m, c], probes[m:, c]
            curv = (fp + fm - 2.0 * fs) / hs**2
            slope = (fp - fm) / (2.0 * hs)
            # candidates in the order +h, -h, fit; the first least one wins
            lower = fm < fp
            fbest, xbest = np.where(lower, fm, fp), np.where(lower, xm, xp)
            fit = np.flatnonzero(curv > 1e-12)
            delta = np.clip(-slope[fit] / curv[fit], -4.0 * hs[fit], 4.0 * hs[fit])
            moved = np.abs(np.abs(delta) - hs[fit]) > 1e-15
            fit, delta = fit[moved], delta[moved]
            if fit.size:
                points = xs[fit]
                points[:, c] += delta
                fq = f(points)
                lower = fq < fbest[fit]
                fbest[fit[lower]], xbest[fit[lower]] = fq[lower], points[lower, c]
            better = fbest < fs - 1e-15
            xs[better, c], fs[better] = xbest[better], fbest[better]
        # pattern move: extend along the net sweep displacement while it helps;
        # the trials are x + d, x + 3d, x + 7d, ... and accepted in order
        direction = xs - x_before
        rows = np.flatnonzero((fs < f_before) & np.any(direction != 0.0, axis=1))
        if rows.size:
            trials, t, d, scale = [], xs[rows], direction[rows], 1.0
            for _ in range(8):
                t = t + scale * d
                trials.append(t)
                scale *= 2.0
            trials = np.stack(trials, axis=1)                 # (rows, 8, n)
            ft = f(trials.reshape(-1, x.shape[1])).reshape(rows.size, -1)
            for i, row in enumerate(rows):
                for point, f_trial in zip(trials[i], ft[i]):
                    if not f_trial < fs[row] - 1e-15:
                        break
                    xs[row], fs[row] = point, f_trial
        for row, value in zip(live, fs):
            histories[row].append(float(value))
        zero = fs < 1e-12
        stalled = f_before - fs < tolerance
        hs[stalled] *= 0.5
        done = zero | (stalled & (hs < tolerance))
        x[live], fx[live], h[live], converged[live] = xs, fs, hs, done
        if zero.any():
            break
        live = live[~done]
    return x, fx, histories, converged, iterations


def convex_roof_estimate(
    rho: MixedState, spec: MonotoneSpec, cfg: RoofConfig = RoofConfig()
) -> RoofResult:
    """Upper-bound estimate of the convex-roof monotone of rho; with
    `cfg.shots`, an in-sample minimum that can fall below the roof.

    The decomposition size is k = rank + extra_terms, capped at 4^N (no
    optimal decomposition needs more members than rank^2 <= 4^N). The
    restart with the least final value wins.
    """
    scaled = _spectral(rho)
    r = scaled.shape[1]
    k = min(r + cfg.extra_terms, 4**rho.n)
    n_params = k + k * (k - 1)
    upper = np.triu_indices(k, 1)

    evaluator = EmbeddedEvaluator(spec)

    def objective(x: np.ndarray) -> np.ndarray:
        probs, states = _members_from_isometry(scaled, _isometry_from_params(x, upper, r))
        return _ensemble_value(evaluator, probs, states, cfg.shots)

    # restart 0 starts at the spectral decomposition, the others at draws
    x0 = np.zeros((cfg.restarts, n_params))
    x0[1:] = np.random.default_rng(cfg.seed).normal(0.0, 0.6, (cfg.restarts - 1, n_params))
    x, fx, histories, converged, iterations = _coordinate_descent(
        objective, x0, cfg.max_iterations, cfg.tolerance
    )
    best = int(np.argmin(fx))
    decomposition = decomposition_from_isometry(rho, _isometry_from_params(x[best:best + 1], upper, r)[0])
    return RoofResult(
        value=float(fx[best]),
        decomposition=decomposition,
        iterations=int(iterations[best]),
        converged=bool(converged[best]),
        history=tuple(histories[best]),
    )


def wootters_oracle(rho: MixedState) -> float:
    """Closed-form two-qubit mixed-state concurrence; validation oracle only.

    With rho = S S^dagger and S = V sqrt(Lambda), the Wootters lambdas are the
    singular values of S^T (Y (x) Y) S, in decreasing order."""
    if rho.n != 2:
        raise ValueError("the closed form applies to two qubits")
    yy = dense_matrix(PauliString("YY")).real  # YY is real despite two Ys
    evals, vecs = np.linalg.eigh(rho.matrix)
    s = vecs * np.sqrt(np.clip(evals, 0.0, None))
    lam = np.linalg.svd(s.T @ yy @ s, compute_uv=False)
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
