"""Mixed-state monotones via the convex roof.

The outer minimization runs over pure-state decompositions steered from the
spectral ensemble by k x rank isometries W (W^dagger W = I): member j is
phi_j = sum_i W_ji sqrt(lam_i) e_i. Each member's antilinear expectations are
quadratic forms in row j of W over r x r steering forms, one per distinct
label, and the monotone is homogeneous in them, so the objective and its
exact gradient never build a 2^N member vector. A Riemannian
conjugate-gradient search (Polak-Ribiere+, QR retraction, Armijo
backtracking) descends on the complex Stiefel manifold; its restarts run in
one batch, each exactly as it would alone. The backtracking evaluates its
trial steps LINE_SEARCH_RUNGS at a time, in one batched call, and accepts
the step a search trying one halving at a time would accept. A restart
stops once the norm of its Riemannian gradient is <= GRADIENT_TOLERANCE,
and `converged` says that the winning restart reached it. The objective is
>= 0, so a restart falling below 1e-12 ends the search; the least final
value wins. The result is an upper bound: every decomposition is feasible.
The search reads no shots: a sampled objective is piecewise constant in W.
A shot readout of the winning decomposition is
`roof_objective(result.decomposition, spec, plan)`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import embed_state
from .measurement import ShotPlan, _integer_fields, _nth_plan, sample_monotone
from .monotones import MonotoneSpec, _expansion, _signed_sum, _signed_sum_derivative, evaluate_monotone
from .pauli import MixedState, PauliString, PureState, _ensemble_matrix, apply_pauli_sum, dense_matrix

RANK_EPS = 1e-10
RECONSTRUCTION_ATOL = 1e-8
PROB_FLOOR = 1e-14
ARMIJO = 1e-4
MAX_HALVINGS = 20
LINE_SEARCH_RUNGS = 4
GRADIENT_TOLERANCE = 1e-6


@dataclass(frozen=True)
class Decomposition:
    """Probabilistic pure-state ensemble {p_i, |psi_i>}."""

    members: tuple[tuple[float, PureState], ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("decomposition needs at least one member")
        probs = [p for p, _ in self.members]
        if any(not 0.0 < p <= 1.0 + 1e-12 for p in probs):  # a NaN fails too
            raise ValueError("probabilities must lie in (0, 1]")
        if not abs(sum(probs) - 1.0) <= 1e-10:
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
    """Search options: k = rank + extra_terms members; each restart stops
    after max_iterations steps or once its Riemannian gradient norm is <=
    GRADIENT_TOLERANCE. Shots belong to the readout, `roof_objective`."""

    extra_terms: int = 2
    max_iterations: int = 500
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        _integer_fields(self, "extra_terms", "max_iterations", "restarts", "seed")
        if self.extra_terms < 0:
            raise ValueError("extra_terms must be >= 0")
        if self.max_iterations < 1 or self.restarts < 1:
            raise ValueError("max_iterations and restarts must be >= 1")
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


def decomposition_from_isometry(rho: MixedState, w: np.ndarray) -> Decomposition:
    """The ensemble phi_j = sum_i W_ji sqrt(lam_i) e_i steered by the k x rank
    isometry w, normalized, without its members at or below PROB_FLOOR."""
    w = np.asarray(w, dtype=complex)
    scaled = _spectral(rho)
    r = scaled.shape[1]
    if w.ndim != 2 or w.shape[1] != r:
        raise ValueError(f"isometry must be k x {r} for this state, got {w.shape}")
    if not np.max(np.abs(w.conj().T @ w - np.eye(r))) <= 1e-10:  # a NaN fails too
        raise ValueError("columns are not orthonormal within 1e-10")
    phi = w @ scaled.T                        # (k, dim)
    probs = np.sum(np.abs(phi) ** 2, axis=1)
    members = tuple(
        (float(p), PureState(v / np.sqrt(p)))
        for p, v in zip(probs, phi)
        if p > PROB_FLOOR
    )
    d = Decomposition(members)
    if not d.reconstructs(rho):
        raise ValueError("isometry-steered ensemble failed to reconstruct the state")
    return d


def roof_objective(
    d: Decomposition, spec: MonotoneSpec, shots: ShotPlan | None = None
) -> float:
    """sum_j p_j E(|psi_j>), every member evaluated via the embedded path on
    its own state; with shots, member j is sampled by `sample_monotone` on
    plan seed + j (mod 2^64)."""
    if shots is None:
        return float(sum(p * evaluate_monotone(psi, spec, "embedded").value for p, psi in d.members))
    return float(sum(p * sample_monotone(embed_state(psi), spec, _nth_plan(shots, j))[0]
                     for j, (p, psi) in enumerate(d.members)))


def _steered_objective(scaled: np.ndarray, spec: MonotoneSpec):
    """The roof objective over isometries W (b, k, r) steering the basis
    `scaled` (dim x r), and its Euclidean gradient 2 df/dW*.

    With z = conj(W_j), member j's antilinear expectations are A_l = z^T M_l z
    for the symmetric r x r forms M_l = S^dagger O_l S*, and its weight is
    p = sum_i lam_i |W_ji|^2. E is homogeneous of degree D in the A_l, so the
    member adds |F(A)| p^(1-D), or 0 at p <= PROB_FLOOR; F, the spec's
    signed product, and dF/dA come from `monotones`. Returns f mapping
    (b, k, r) to (values (b,), gradients (b, k, r)); each row is computed as
    it would be alone."""
    e = _expansion(spec)
    degree = e.index.shape[1]
    s = scaled.conj()
    m = s.T @ np.array([[apply_pauli_sum(o, col) for col in s.T] for o in e.sums]).transpose(0, 2, 1)
    forms = (m + m.transpose(0, 2, 1)) / 2                       # (labels, r, r)
    lam = np.sum(np.abs(scaled) ** 2, axis=0)

    def f(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z = w.conj()
        mz = z[:, None] @ forms                                  # (b, labels, k, r): M_l z_j
        a = (mz * z[:, None]).sum(axis=-1).transpose(0, 2, 1)    # (b, k, labels)
        p = (w * z).real @ lam
        live = p > PROB_FLOOR
        big_f = np.where(live, _signed_sum(e, a), 0.0)
        size = np.abs(big_f)
        u = np.where(live, p, 1.0)
        weight = u ** (1 - degree)
        dfda = _signed_sum_derivative(e, a).transpose(0, 2, 1)   # (b, labels, k)
        # 2 df/dz = 2 p^(1-D) conj(F)/|F| sum_l dF/dA_l M_l z + 2 (1-D) |F| p^-D lam w
        coeff = 2.0 * weight * big_f.conj() / np.maximum(size, 1e-300)  # phase 0 where F = 0
        grad = ((coeff[:, None] * dfda)[..., None] * mz).sum(axis=1)
        radial = 2.0 * (1 - degree) * size * weight / u
        return (size * weight).sum(axis=-1), grad + radial[..., None] * lam * w

    return f


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re tr(a^dagger b) per row of two (b, k, r) batches."""
    return (a.conj() * b).real.sum(axis=(1, 2))


def _tangent(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x projected on the tangent space of the Stiefel manifold at w."""
    wx = w.conj().transpose(0, 2, 1) @ x
    return x - w @ ((wx + wx.conj().transpose(0, 2, 1)) / 2)


def _retract(x: np.ndarray) -> np.ndarray:
    """Q of x = QR, with the phases of R's diagonal moved into Q."""
    q, r = np.linalg.qr(x)
    d = r.diagonal(axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def _conjugate_gradient(f, w0, max_iterations, tolerance):
    """Riemannian Polak-Ribiere+ conjugate gradients on the complex Stiefel
    manifold, for every isometry of w0 (b, k, r) in one batch. f maps a batch
    of isometries to (values, Euclidean gradients). Each step backtracks from
    twice the last accepted step, halving up to MAX_HALVINGS times, to the
    Armijo condition. The trials go LINE_SEARCH_RUNGS at a time into one
    retraction and one f call, and a row takes the first trial of its block
    that passes, so the accepted step is the one a search trying each halving
    in turn would take. The previous direction is transported by projection
    onto the new tangent space. A row leaves the batch when its Riemannian
    gradient norm is <= tolerance, when its line search finds no decrease,
    or after max_iterations steps, and descends exactly as it would alone
    until one row falls below 1e-12 (f >= 0): that ends the search. Returns
    per row (w, f(w), values after each step, converged, steps taken)."""
    w = np.array(w0, dtype=complex)
    fw, g = f(w)
    g = _tangent(w, g)
    gg = _inner(g, g)
    d = -g
    histories = [[float(v)] for v in fw]
    step = np.full(len(w), 0.5)  # the first trial is twice this
    iterations = np.zeros(len(w), dtype=int)
    halvings = 0.5 ** np.arange(MAX_HALVINGS + 1)  # powers of two: t * 0.5^j is exact
    rungs = LINE_SEARCH_RUNGS
    live = np.flatnonzero(np.sqrt(gg) > tolerance) if (fw >= 1e-12).all() else np.arange(0)
    while live.size:
        wl, dl, fl = w[live], d[live], fw[live]
        drop = ARMIJO * _inner(g[live], dl)
        t = 2.0 * step[live]
        new_w, new_f, new_g = np.empty_like(wl), np.empty(live.size), np.empty_like(wl)
        pending = np.arange(live.size)
        for first in range(0, MAX_HALVINGS + 1, rungs):
            # the next `rungs` trials of every pending row, (rows, rungs), in one call
            trial = t[pending, None] * halvings[first:first + rungs]
            ladder = wl[pending, None] + trial[..., None, None] * dl[pending, None]
            points = _retract(ladder.reshape(-1, *wl.shape[1:]))
            fp, gp = f(points)
            ok = fp.reshape(trial.shape) <= fl[pending, None] + trial * drop[pending, None]
            hit = ok.any(axis=1)
            rung = ok[hit].argmax(axis=1)  # the first trial that decreases enough
            pick = np.flatnonzero(hit) * trial.shape[1] + rung
            done = pending[hit]
            new_w[done], new_f[done], new_g[done] = points[pick], fp[pick], gp[pick]
            t[done] = trial[hit, rung]
            pending = pending[~hit]
            if not pending.size:
                break
        moved = np.ones(live.size, dtype=bool)
        moved[pending] = False  # no decrease: the row leaves the batch
        rows = live[moved]
        new_w = new_w[moved]
        new_g = _tangent(new_w, new_g[moved])
        new_gg = _inner(new_g, new_g)
        # <new_g, P(g)> = <new_g, g> for the projection P onto new_w's tangent space
        beta = np.maximum(0.0, (new_gg - _inner(new_g, g[rows])) / gg[rows])
        new_d = beta[:, None, None] * _tangent(new_w, d[rows]) - new_g
        restart = _inner(new_g, new_d) >= 0.0
        new_d[restart] = -new_g[restart]
        w[rows], fw[rows], g[rows], gg[rows], d[rows] = new_w, new_f[moved], new_g, new_gg, new_d
        step[rows] = t[moved]
        iterations[rows] += 1
        for row in rows:
            histories[row].append(float(fw[row]))
        if (fw[rows] < 1e-12).any():
            break
        live = rows[(np.sqrt(new_gg) > tolerance) & (iterations[rows] < max_iterations)]
    return w, fw, histories, np.sqrt(gg) <= tolerance, iterations


def convex_roof_estimate(
    rho: MixedState, spec: MonotoneSpec, cfg: RoofConfig = RoofConfig()
) -> RoofResult:
    """Upper-bound estimate of the convex-roof monotone of rho: the exact
    objective of the winning decomposition; its shot readout is
    `roof_objective(result.decomposition, spec, plan)`.

    The decomposition size is k = rank + extra_terms, capped at 4^N (no
    optimal decomposition needs more members than rank^2 <= 4^N). Restart 0
    starts at the spectral decomposition, the others at seeded isometries
    (the QR of a complex Gaussian matrix); the least final value wins.
    """
    if rho.n != spec.n_qubits:
        raise ValueError(f"state has {rho.n} qubits, spec expects {spec.n_qubits}")
    scaled = _spectral(rho)
    r = scaled.shape[1]
    k = min(r + cfg.extra_terms, 4**rho.n)
    rng = np.random.default_rng(cfg.seed)
    shape = (cfg.restarts - 1, k, r)
    w0 = np.concatenate([np.eye(k, r)[None], _retract(rng.normal(size=shape) + 1j * rng.normal(size=shape))])
    w, fw, histories, converged, iterations = _conjugate_gradient(
        _steered_objective(scaled, spec), w0, cfg.max_iterations, GRADIENT_TOLERANCE
    )
    best = int(np.argmin(fw))
    return RoofResult(
        value=float(fw[best]),
        decomposition=decomposition_from_isometry(rho, w[best]),
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


def werner_state(p: float) -> MixedState:
    """p |Phi+><Phi+| + (1-p) I/4; concurrence max(0, (3p-1)/2)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    return MixedState(p * np.outer(bell, bell.conj()) + (1.0 - p) * np.eye(4) / 4.0)
