"""Unitary time evolution: exact eigendecomposition propagator and first /
second order product-formula approximations (hbar = 1).

The product formulas follow one schedule: a step is the maximal runs of
consecutive commuting terms (`PauliSum.commuting_runs`) in stored order, and
at second order the same runs in reverse; the steps are chained, and a run
repeated back to back is applied once at the summed angle. The merged
product is the same operator, up to rounding. Every factor rotates one
complex buffer in place.

Enlarged-space trajectories stay structurally real. Every embedded term
conserves Y on the ancilla, so every method evolves the component x - iy of
[x; y] in the Y_ancilla = +1 sector, an n-qubit problem, and rebuilds the
real vector [Re a; -Im a] from the result a.
`evolve` refuses phases that overflow, and a sum |c| * |t| of 2^52 or more,
where the rounding of a phase alone is of order one radian. It is the one norm
check on evolved states, on both paths: a drift beyond NORM_ATOL is refused.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .embedding import EmbeddedHamiltonian, EnlargedState
from .errors import NumericalIntegrityError
from .pauli import NORM_ATOL, PauliSum, _checked, _kernel, _norm

METHODS = ("exact", "trotter1", "trotter2")
# sum |c| * |t| at which one ulp of a phase lambda*t reaches order one radian
PHASE_LIMIT = 2.0**52


def evolve_exact(s: np.ndarray, h: PauliSum, t: float) -> np.ndarray:
    """exp(-iHt) @ s by projection onto the spectrum of H, which is
    diagonalised once per PauliSum and reused at every later time."""
    s = _checked(s, h.n)
    evals, vecs = h.spectrum
    coeffs = (s.conj() @ vecs).conj()
    return vecs @ (np.exp(-1j * evals * t) * coeffs)


def evolve_trotter(
    s: np.ndarray, h: PauliSum, t: float, steps: int, order: int = 1
) -> np.ndarray:
    """Product-formula propagation over the commuting runs of h.

    One step applies the runs (`PauliSum.commuting_runs`) in stored order,
    at order 2 followed by the same runs in reverse, and each run's terms in
    stored order. The steps are chained, and a run repeated n times back to
    back is applied once at the angle n * dt, dt = t / steps / order: its
    terms commute, so this is the unmerged operator up to rounding. Each
    factor exp(-iaP) s = cos(a) s + sin(a) (-iP) s is written in place into
    one complex buffer through one complex scratch buffer. A real s comes
    back complex; its imaginary part is exactly zero when every -iP is real,
    as for an EmbeddedHamiltonian.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    s, runs = _checked(s, h.n), h.commuting_runs
    ahead = list(range(len(runs)))
    step = ahead + ahead[::-1] if order == 2 else ahead
    dt = t / steps / order
    factors = functools.cache(lambda i, n: _factors(runs[i], dt * n))
    out = np.array(s, dtype=complex)
    scratch = np.empty_like(out)
    schedule = itertools.chain.from_iterable(itertools.repeat(step, steps))
    for i, repeats in itertools.groupby(schedule):
        for cos, w, k in factors(i, sum(1 for _ in repeats)):
            np.multiply(k.image(out, scratch), w, out=scratch)
            out *= cos
            out += scratch
    return out


def _factors(run, a: float) -> list:
    """(cos(ca), -i sin(ca) i^{#Y}, kernel) per term of the run, in order."""
    kernels = ((c, _kernel(p.symbols)) for c, p in run)
    return [(np.cos(c * a), np.sin(c * a) * -1j * k.phase, k) for c, k in kernels]


def evolve(
    s: np.ndarray, h: PauliSum, t: float, method: str = "exact", steps: int = 1
) -> np.ndarray:
    """exp(-iHt) @ s by the named method; `steps` applies to the product
    formulas only. A norm drift beyond NORM_ATOL * |s| raises NumericalIntegrityError."""
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
    out = (evolve_exact(s, h, t) if method == "exact"
           else evolve_trotter(s, h, t, steps, 1 if method == "trotter1" else 2))
    norm = _norm(s)
    drift = abs(_norm(out) - norm)
    if not drift <= NORM_ATOL * norm:  # a NaN drift fails too
        raise NumericalIntegrityError(
            f"{method} evolution drifted the norm by {drift:.3e} at t={t}, "
            f"beyond {NORM_ATOL} of the input norm"
        )
    return out


def evolve_enlarged(
    state: EnlargedState,
    h_tilde: EmbeddedHamiltonian,
    t: float,
    method: str = "exact",
    steps: int = 1,
) -> EnlargedState:
    """Evolve an enlarged real state by the named method.

    Every method evolves the halves x, y of the state as a = x - iy under
    `h_tilde.sector`, an n-qubit problem held to the dense cap of n qubits
    under "exact", and returns [Re a; -Im a]. Under the product formulas the
    result is bitwise [Re d; Im d], d the direct result under the Hamiltonian
    that h_tilde embeds. `evolve` refuses a norm drift beyond NORM_ATOL.
    """
    amplitudes = _checked(state.amplitudes, h_tilde.n)
    x, y = np.split(amplitudes, 2)
    a = np.empty(x.size, complex)
    a.real = x
    np.negative(y, out=a.imag)
    a = evolve(a, h_tilde.sector, t, method, steps)
    out = np.concatenate([a.real, a.imag])
    out[x.size:] *= -1
    return EnlargedState(out)
