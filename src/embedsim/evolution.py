"""Unitary time evolution: exact eigendecomposition propagator and first /
second order product-formula approximations (hbar = 1).

Enlarged-space trajectories stay structurally real in the product-formula
path: each per-term exponential of an imaginary Hermitian Pauli term is a
real rotation, applied in real arithmetic.
"""

from __future__ import annotations

import numpy as np

from .embedding import EmbeddedHamiltonian, EnlargedState
from .pauli import PauliString, PauliSum, _apply_string, y_parity

METHODS = ("exact", "trotter1", "trotter2")


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


def evolve(
    s: np.ndarray, h: PauliSum, t: float, method: str = "exact", steps: int = 1
) -> np.ndarray:
    """exp(-iHt) @ s by the named method; `steps` applies to the product
    formulas only."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if not np.isfinite(t):
        raise ValueError("evolution time must be finite")
    if method == "exact":
        return evolve_exact(s, h, t)
    return evolve_trotter(s, h, t, steps, 1 if method == "trotter1" else 2)


def evolve_enlarged(
    state: EnlargedState,
    h_tilde: EmbeddedHamiltonian,
    t: float,
    method: str = "exact",
    steps: int = 1,
) -> EnlargedState:
    """Evolve an enlarged real state; EnlargedState rejects any imaginary
    residue the propagator grew and keeps the real part."""
    return EnlargedState(evolve(state.amplitudes, h_tilde.operator, t, method, steps))
