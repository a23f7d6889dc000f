"""Unitary time evolution: exact eigendecomposition propagator and first /
second order product-formula approximations (hbar = 1).

The product formulas apply the maximal runs of consecutive commuting terms
(`PauliSum.commuting_runs`) in stored order, and merge the runs that the
second-order palindrome repeats back to back into one application at twice
the angle: the merged product is the same operator, up to rounding.

Enlarged-space trajectories stay structurally real. In the product-formula
path each per-term exponential of an imaginary Hermitian Pauli term is a
real rotation, applied in real arithmetic. The exact path evolves the
component x - iy of [x; y] in the conserved Y_ancilla = +1 sector, an n-qubit
problem, and rebuilds the real vector [Re a; -Im a] from the result a.
`evolve` refuses phases that overflow, and a sum |c| * |t| of 2^52 or more,
where the rounding of a phase alone is of order one radian.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .embedding import EmbeddedHamiltonian, EnlargedState
from .errors import NumericalIntegrityError
from .pauli import PauliSum, _check_dense, _checked, _kernel

METHODS = ("exact", "trotter1", "trotter2")
# sum |c| * |t| at which one ulp of a phase lambda*t reaches order one radian
PHASE_LIMIT = 2.0**52


def evolve_exact(s: np.ndarray, h: PauliSum, t: float) -> np.ndarray:
    """exp(-iHt) @ s by projection onto the spectrum of H, which is
    diagonalised once per PauliSum and reused at every later time."""
    evals, vecs = h.spectrum
    coeffs = (np.asarray(s).conj() @ vecs).conj()
    return vecs @ (np.exp(-1j * evals * t) * coeffs)


def evolve_trotter(
    s: np.ndarray, h: PauliSum, t: float, steps: int, order: int = 1
) -> np.ndarray:
    """Product-formula propagation over the commuting runs of h.

    Runs (`PauliSum.commuting_runs`) are applied in stored order, and each
    run's terms in their stored order, so trajectories are reproducible.
    Order 1 applies R1 ... Rm per step; order 2 the palindrome R1 ... Rm Rm
    ... R1 per step, with each run that it repeats back to back merged into
    one application at twice the angle: the middle Rm Rm, and the R1 that
    ends a step with the R1 that starts the next. Exponentials of commuting
    terms combine exactly, so the merged product is the unmerged operator up
    to rounding, and a sum of one run is applied once at c*t for any steps.
    Each factor exp(-iaP) s = cos(a) s + sin(a) (-iP) s is written in place
    into one state buffer through one scratch buffer. Both are real when s
    is real and every -iP is, as for the odd-Y terms of an
    EmbeddedHamiltonian.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    s, runs = _checked(s, h.n), h.commuting_runs
    if len(runs) <= 1:
        lead, body, repeats, tail = _factors(runs, t), [], 0, []
    elif order == 1:
        lead, body, repeats, tail = [], _factors(runs, t / steps), steps, []
    else:
        dt = t / steps / 2
        first, *inner, last = runs
        middle = _factors(inner, dt) + _factors([last], 2 * dt) + _factors(inner[::-1], dt)
        edge = _factors([first], dt)
        lead, tail = edge + middle, edge
        body, repeats = _factors([first], 2 * dt) + middle, steps - 1
    real = not np.iscomplexobj(s) and all(w.imag == 0 for _, w, _ in lead + body + tail)
    out = np.array(s, dtype=float if real else complex)
    scratch = np.empty_like(out)
    for factors in itertools.chain([lead], itertools.repeat(body, repeats), [tail]):
        for cos, w, k in factors:
            k.image(out, w, scratch)
            out *= cos
            out += scratch
    return out


def _factors(runs, a: float) -> list:
    """(cos(ca), -i sin(ca) i^{#Y}, kernel) per term of the runs, in order."""
    kernels = ((c, _kernel(p.symbols)) for run in runs for c, p in run)
    return [(np.cos(c * a), np.sin(c * a) * -1j * k.phase, k) for c, k in kernels]


def evolve(
    s: np.ndarray, h: PauliSum, t: float, method: str = "exact", steps: int = 1
) -> np.ndarray:
    """exp(-iHt) @ s by the named method; `steps` applies to the product
    formulas only."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if not np.isfinite(t):
        raise ValueError("evolution time must be finite")
    norm = sum(abs(c) for c, _ in h.terms)
    if not math.isfinite(norm * max(1.0, abs(t))):
        raise NumericalIntegrityError(
            f"sum |c| * max(1, |t|) exceeds the float range at t={t}: "
            "the spectrum or the phases would overflow"
        )
    if norm * abs(t) >= PHASE_LIMIT:
        raise NumericalIntegrityError(
            f"sum |c| * |t| = {norm * abs(t):.3e} reaches 2^52 at t={t}: "
            "the rounding of the phases alone is of order one radian"
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
