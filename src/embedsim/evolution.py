"""Unitary time evolution: exact eigendecomposition propagator and first /
second order product-formula approximations (hbar = 1).

Enlarged-space trajectories stay structurally real in the product-formula
path: each per-term exponential of an imaginary Hermitian Pauli term is a
real rotation, applied in real arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import REALITY_ATOL, EmbeddedHamiltonian, EnlargedState
from .errors import NumericalIntegrityError
from .pauli import PauliString, PauliSum, _apply_string, y_parity

METHODS = ("exact", "trotter1", "trotter2")


@dataclass(frozen=True)
class EvolutionPlan:
    hamiltonian: PauliSum
    time: float
    method: str = "exact"
    steps: int = 1

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not np.isfinite(self.time):
            raise ValueError("evolution time must be finite")
        if self.method != "exact" and self.steps < 1:
            raise ValueError("product-formula evolution needs steps >= 1")


def evolve_exact(s: np.ndarray, h: PauliSum, t: float) -> np.ndarray:
    """exp(-iHt) @ s by projection onto the spectrum of H, which is
    diagonalised once per PauliSum and reused at every later time."""
    evals, vecs = h.spectrum
    coeffs = (np.asarray(s).conj() @ vecs).conj()
    return vecs @ (np.exp(-1j * evals * t) * coeffs)


def _apply_term_exp(coeff: float, string: PauliString, dt: float, s: np.ndarray) -> np.ndarray:
    """exp(-i * coeff * dt * P) @ s using cos(a) I - i sin(a) P."""
    angle = coeff * dt
    if not np.iscomplexobj(s) and y_parity(string) == "odd":
        # -iP is real for odd-parity P: the rotation never leaves real space.
        rotated = (-1j * _apply_string(string, s)).real
        return np.cos(angle) * s + np.sin(angle) * rotated
    return np.cos(angle) * s - 1j * np.sin(angle) * _apply_string(string, s)


def evolve_trotter(
    s: np.ndarray, h: PauliSum, t: float, steps: int, order: int = 1
) -> np.ndarray:
    """Product-formula propagation; order 2 uses the palindromic sequence.

    Terms are applied in the stored order of the PauliSum so trajectories
    are reproducible.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    out = np.array(s, copy=True)
    dt = t / steps
    terms = h.terms
    for _ in range(steps):
        if order == 1:
            for coeff, string in terms:
                out = _apply_term_exp(coeff, string, dt, out)
        else:
            for coeff, string in terms:
                out = _apply_term_exp(coeff, string, dt / 2, out)
            for coeff, string in reversed(terms):
                out = _apply_term_exp(coeff, string, dt / 2, out)
    return out


def evolve(s: np.ndarray, plan: EvolutionPlan) -> np.ndarray:
    if plan.method == "exact":
        return evolve_exact(s, plan.hamiltonian, plan.time)
    order = 1 if plan.method == "trotter1" else 2
    return evolve_trotter(s, plan.hamiltonian, plan.time, plan.steps, order)


def reality_residual(s: np.ndarray) -> float:
    """Max absolute imaginary component accumulated by a propagator."""
    s = np.asarray(s)
    if not np.iscomplexobj(s):
        return 0.0
    return float(np.max(np.abs(s.imag)))


def evolve_enlarged(
    state: EnlargedState,
    h_tilde: EmbeddedHamiltonian,
    t: float,
    method: str = "exact",
    steps: int = 1,
) -> EnlargedState:
    """Evolve an enlarged real state, asserting the reality invariant before
    truncating back to a real vector."""
    plan = EvolutionPlan(h_tilde.operator, t, method, steps)
    evolved = evolve(state.amplitudes, plan)
    residual = reality_residual(evolved)
    if residual >= REALITY_ATOL:
        raise NumericalIntegrityError(
            f"enlarged trajectory grew imaginary residue {residual:.3e}"
        )
    return EnlargedState(np.asarray(evolved).real if np.iscomplexobj(evolved) else evolved)
