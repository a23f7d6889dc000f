"""Unitary time evolution: exact eigendecomposition propagator and first /
second order product-formula approximations (hbar = 1).

Enlarged-space trajectories stay structurally real. In the product-formula
path each per-term exponential of an imaginary Hermitian Pauli term is a
real rotation, applied in real arithmetic. The exact path evolves the
component x - iy of [x; y] in the conserved Y_ancilla = +1 sector, an n-qubit
problem, and rebuilds the real vector [Re a; -Im a] from the result a.
"""

from __future__ import annotations

import math

import numpy as np

from .embedding import EmbeddedHamiltonian, EnlargedState
from .errors import NumericalIntegrityError
from .pauli import PauliSum, _check_dense, _checked, _kernel

METHODS = ("exact", "trotter1", "trotter2")


def evolve_exact(s: np.ndarray, h: PauliSum, t: float) -> np.ndarray:
    """exp(-iHt) @ s by projection onto the spectrum of H, which is
    diagonalised once per PauliSum and reused at every later time."""
    evals, vecs = h.spectrum
    coeffs = (np.asarray(s).conj() @ vecs).conj()
    return vecs @ (np.exp(-1j * evals * t) * coeffs)


def evolve_trotter(
    s: np.ndarray, h: PauliSum, t: float, steps: int, order: int = 1
) -> np.ndarray:
    """Product-formula propagation; order 2 uses the palindromic sequence.

    Terms are applied in the stored order of the PauliSum so trajectories
    are reproducible. Each factor exp(-iaP) s = cos(a) s + sin(a) (-iP) s is
    written in place into one state buffer through one scratch buffer. Both
    are real when s is real and every -iP is, as for the odd-Y terms of an
    EmbeddedHamiltonian.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    s, dt = _checked(s, h.n), t / steps / order
    factors = [(np.cos(c * dt), np.sin(c * dt) * -1j * k.phase, k)
               for c, k in ((c, _kernel(p.symbols)) for c, p in h.terms)]
    real = not np.iscomplexobj(s) and all(w.imag == 0 for _, w, _ in factors)
    out = np.array(s, dtype=float if real else complex)
    scratch = np.empty_like(out)
    for _ in range(steps):
        for cos, w, k in factors if order == 1 else factors + factors[::-1]:
            k.image(out, w, scratch)
            out *= cos
            out += scratch
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
    if not math.isfinite(sum(abs(c) for c, _ in h.terms) * max(1.0, abs(t))):
        raise NumericalIntegrityError(
            f"sum |c| * max(1, |t|) exceeds the float range at t={t}: "
            "the spectrum or the phases would overflow"
        )
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
    """Evolve an enlarged real state.

    Under "exact" the upper and lower halves x, y evolve as a = x - iy under
    `h_tilde.sector`, diagonalised once per EmbeddedHamiltonian at 2^n, and
    [Re a; -Im a] is real by construction; the register is still held to the
    dense cap of the (n+1)-qubit operator. The product formulas rotate the
    real vector under `h_tilde.operator`; EnlargedState rejects any imaginary
    residue they grew and keeps the real part.
    """
    if method != "exact":
        return EnlargedState(evolve(state.amplitudes, h_tilde.operator, t, method, steps))
    _check_dense(h_tilde.n)
    x, y = np.split(state.amplitudes, 2)
    a = evolve(x - 1j * y, h_tilde.sector, t)
    return EnlargedState(np.concatenate([a.real, -a.imag]))
