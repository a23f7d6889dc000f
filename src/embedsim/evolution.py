"""Unitary time evolution: the exact propagator and first / second order
product-formula approximations (hbar = 1).

`evolve` and both propagators take one time, which gives one state, or a
1-D sequence of times, which gives one row per time; more dimensions are
refused. Under "exact" the whole sequence shares one Chebyshev recurrence
v_{k+1} = 2 (H / L) v_k - v_{k-1}, L = sum |c| >= ||H||, and each time
sums its own coefficients
c_k(Lt) = (2 - delta_k0) (-i)^k J_k(Lt) against it (Tal-Ezer & Kosloff, J.
Chem. Phys. 81, 3967 (1984)); the matvec is the dense matrix of H. Where
the series, for its number of terms and of times, would cost more than one
`eigh`, every time is projected onto `PauliSum.spectrum`.

The product formulas propagate each time of a list on its own, through one
shared scratch buffer, by one schedule: a step is the maximal runs of
consecutive commuting terms (`PauliSum.commuting_runs`) in stored order,
and at second order the same runs in reverse; the steps are chained, and
a run repeated back to back is applied once at the summed angle. A run with
at least PHASE_RUN_TERMS I/Z-only terms applies them together as one
diagonal phase exp(-i a d) (`PauliSum._phase_runs`), then its other terms
one by one. The merged and fused product is the same operator, up to
rounding. Every factor rotates the time's row in place.

Enlarged-space trajectories stay structurally real. Every embedded term
conserves Y on the ancilla, so every method evolves the component x - iy of
[x; y] in the Y_ancilla = +1 sector, an n-qubit problem, and rebuilds the
real vector [Re a; -Im a] from the result a.
Every propagator refuses a time that is not finite, phases that overflow,
and a sum |c| * max |t| of 2^52 or more, where the rounding of a phase alone
is of order one radian. `evolve` is the one norm check on evolved states, on
both paths: a drift beyond NORM_ATOL at any time is refused.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence

import numpy as np

from .embedding import EmbeddedHamiltonian, EnlargedState
from .errors import NumericalIntegrityError, integer
from .pauli import NORM_ATOL, PauliSum, _check_dense, _checked, _kernel, _norm

METHODS = ("exact", "trotter1", "trotter2")
# sum |c| * |t| at which one ulp of a phase lambda*t reaches order one radian
PHASE_LIMIT = 2.0**52
# The series costs about K (2^n + SERIES_TIME_COST * T) 2^n multiply-adds
# for K terms and T times (a time's share is its row of each block: one
# vector-matrix product and the numpy calls around it), one `eigh` about
# SERIES_TERMS_PER_DIM * 8^n; the projection of the times onto the vectors
# is left out, which only favours eigh. Measured on one thread of a 2-core
# Intel Xeon, numpy 2.4, for n = 7...10 and T = 1, 8, 64, 512: the two cost
# the same at K / 2^n = 1.2 to 2.1 for T = 1, 1.0 to 1.7 for T = 8, 0.55 to
# 0.97 for T = 64 and 0.24 to 0.36 for T = 512, each at or above what the
# rule allows; below n = 7 eigh takes under a millisecond.
SERIES_TERMS_PER_DIM = 1
SERIES_TIME_COST = 4
# bound on the dropped tail sum_{k >= K} |c_k| of the series
SERIES_TOL = 1e-16
# amplitudes in one block of series terms: about where the fixed cost of a
# numpy call matches the arithmetic of a state of that size. From 2^10
# amplitudes on a block is one term, and the series holds three state-sized
# buffers besides its rows.
SERIES_BLOCK = 1 << 10


def _times(t: float | Sequence[float]) -> np.ndarray:
    """t as a 1-D float array; more dimensions are refused."""
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if times.ndim != 1:
        raise ValueError("evolution times must be one number or a 1-D sequence")
    return times


def _phase_norm(h: PauliSum, times: np.ndarray) -> float:
    """sum |c| of h; refuses a time that is not finite and phases that overflow or reach 2^52."""
    if not np.isfinite(times).all():
        raise ValueError("evolution time must be finite")
    far = max(times.tolist(), key=abs, default=0.0)
    norm = sum(abs(c) for c, _ in h.terms)
    if not math.isfinite(norm * max(1.0, abs(far))):
        raise NumericalIntegrityError(
            f"sum |c| * max(1, |t|) exceeds the float range at t={far}: "
            "the spectrum or the phases would overflow"
        )
    if norm * abs(far) >= PHASE_LIMIT:
        raise NumericalIntegrityError(
            f"sum |c| * |t| = {norm * abs(far):.3e} reaches 2^52 at t={far}: "
            "the rounding of the phases alone is of order one radian"
        )
    return norm


def evolve_exact(s: np.ndarray, h: PauliSum, t: float | Sequence[float]) -> np.ndarray:
    """exp(-iHt) @ s up to rounding: one state for a float t, one row per time
    for a 1-D sequence. Times that `_phase_norm` refuses raise first.

    All times share one Chebyshev recurrence on h.dense(). When the series
    would cost more than one `eigh` (SERIES_TERMS_PER_DIM, SERIES_TIME_COST),
    every time is projected onto `PauliSum.spectrum` instead, which is
    diagonalised once per PauliSum and reused at every later call. The series
    keeps nothing between calls: a caller that evolves one time per call on
    the same sum rebuilds the matrix and reruns the recurrence each time, so
    a trajectory is cheapest as one list. Both need the dense matrix, so a
    register beyond DENSE_QUBIT_CAP is refused before either runs.
    """
    times = _times(t)
    norm = _phase_norm(h, times)
    s = _checked(s, h.n)
    _check_dense(h.n)
    dim = 1 << h.n
    most = SERIES_TERMS_PER_DIM * dim * dim // (dim + SERIES_TIME_COST * times.size)
    terms = _series_terms(norm * np.max(np.abs(times), initial=0.0), most)
    if terms is not None:
        rows = _chebyshev(s, h, norm, times, terms)
    else:
        evals, vecs = h.spectrum
        coeffs = (s.conj() @ vecs).conj()
        rows = (np.exp(-1j * np.multiply.outer(times, evals)) * coeffs) @ vecs.T
    return rows[0] if np.ndim(t) == 0 else rows


def _series_terms(x: float, most: int) -> int | None:
    """The fewest terms K <= most that leave a tail below SERIES_TOL at
    Lt = +-x, or None. |c_k(x)| <= 2 (x/2)^k / k!, and once k + 1 >= x each
    bound is at most half the one before, so the tail is below 4 (x/2)^K / K!."""
    if x == 0.0:
        return 1
    k = np.arange(1, most + 1)
    log_tail = math.log(4.0) + k * (math.log(x) - math.log(2.0)) - np.cumsum(np.log(k))
    fits = (k + 1 >= x) & (log_tail <= math.log(SERIES_TOL))
    return int(k[fits.argmax()]) if fits.any() else None


def _chebyshev_coefficients(x: np.ndarray, terms: int) -> np.ndarray:
    """c[j, k], k < terms: exp(-i x_j y) interpolated at the `terms` Chebyshev
    nodes y = cos(pi (l + 1/2) / terms) in the basis T_k(y). They equal
    (2 - delta_k0) (-i)^k J_k(x_j) up to the dropped tail. One column at a
    time, so no (terms, terms) array is built; the angle k theta_l is reduced
    modulo 2 pi in integers before it is rounded."""
    odd, unit = 2 * np.arange(terms) + 1, np.pi / (2 * terms)  # theta_l = unit * odd_l
    values = np.exp(-1j * np.multiply.outer(x, np.cos(unit * odd)))
    coeffs = np.stack([values @ np.cos(unit * (k * odd % (4 * terms)))
                       for k in range(terms)], axis=-1)
    coeffs *= 2.0 / terms
    coeffs[:, 0] /= 2
    return coeffs


def _chebyshev(s: np.ndarray, h: PauliSum, norm: float, times: np.ndarray,
               terms: int) -> np.ndarray:
    """sum_k c_k(norm * t) T_k(H / norm) s for every t, one row each, and H is
    not divided by `norm`.

    The recurrence fills a block of at most max(1, SERIES_BLOCK >> n) terms
    after the two it carries, and each row adds the block by one
    vector-matrix product written into the dead first carried slot. So a
    time costs two numpy calls per block, not per term, and no (terms, 2^n)
    array is built: besides the rows, width + 2 state-sized buffers."""
    coeffs = _chebyshev_coefficients(norm * times, terms)
    if terms == 1:  # any time under an empty sum: no matrix and no 1 / norm
        return np.multiply.outer(coeffs[:, 0], s)
    m = h.dense()  # first, as its build makes state-sized temporaries
    width = min(terms, max(1, SERIES_BLOCK >> h.n))
    v = np.empty((width + 2, s.size), complex)  # T_{k0-2} s, T_{k0-1} s, then the block
    rows = np.zeros((times.size, s.size), complex)
    for k0 in range(0, terms, width):
        size = min(width, terms - k0)
        for j in range(2, size + 2):  # slot j holds T_k s, k = k0 + j - 2
            if k0 + j == 2:
                v[j] = s
                continue
            np.matmul(m, v[j - 1], out=v[j])
            if k0 + j == 3:
                v[j] /= norm
            else:
                v[j] *= 2.0 / norm
                v[j] -= v[j - 2]
        for row, c in zip(rows, coeffs[:, k0:k0 + size]):
            row += np.matmul(c, v[2:size + 2], out=v[0])
        v[0] = v[size]  # carry T_{k-1} s and T_k s, in this order when size is 1
        v[1] = v[size + 1]
    return rows


def evolve_trotter(
    s: np.ndarray, h: PauliSum, t: float | Sequence[float], steps: int, order: int = 1,
) -> np.ndarray:
    """Product-formula propagation over the commuting runs of h: one state
    for a float t, one row per time for a 1-D sequence, each time propagated
    on its own. Times that `_phase_norm` refuses raise first.

    One step applies the runs (`PauliSum.commuting_runs`) in stored order,
    at order 2 followed by the same runs in reverse. The steps are chained,
    and a run repeated n times back to back is applied once at the angle
    a = n * dt, dt = t / steps / order. Within a run, the I/Z-only terms of a
    run that has at least PHASE_RUN_TERMS of them act first, together, as
    s * exp(-i a d) with d = sum c_j signs_j (`PauliSum._phase_runs`, kept up
    to KERNEL_CACHE_QUBITS qubits), and the other terms follow in stored
    order. The terms of a run commute, so this is the unmerged operator up
    to rounding. Each factor exp(-iaP) s = cos(a) s + sin(a) (-iP) s, and
    each phase, is written in place into the time's row through one complex
    scratch buffer, which all the times share. A real s comes back complex;
    its imaginary part is exactly zero when every -iP is real, as for an
    EmbeddedHamiltonian, which has no I/Z-only term.
    """
    times = _times(t)
    _phase_norm(h, times)
    steps, order = integer(steps, "steps"), integer(order, "order")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    s, runs = _checked(s, h.n), h._phase_runs
    ahead = list(range(len(runs)))
    step = ahead + ahead[::-1] if order == 2 else ahead
    rows = np.empty((times.size, s.size), complex)
    scratch = np.empty(s.size, complex)
    for out, u in zip(rows, times.tolist()):
        dt = u / steps / order
        factors = functools.cache(lambda i, n: _factors(runs[i][1], dt * n))
        out[...] = s
        schedule = itertools.chain.from_iterable(itertools.repeat(step, steps))
        for i, repeats in itertools.groupby(schedule):
            n, d = sum(1 for _ in repeats), runs[i][0]
            if d is not None:  # exp(-i a d), built in the scratch buffer
                np.multiply(d, -dt * n, out=scratch.real)
                np.sin(scratch.real, out=scratch.imag)
                np.cos(scratch.real, out=scratch.real)
                out *= scratch
            for cos, w, k in factors(i, n):
                np.multiply(k.image(out, scratch), w, out=scratch)
                out *= cos
                out += scratch
    return rows[0] if np.ndim(t) == 0 else rows


def _factors(run, a: float) -> list:
    """(cos(ca), -i sin(ca) i^{#Y}, kernel) per term applied factor by factor
    (all but a fused run's I/Z-only terms), in stored order."""
    kernels = ((c, _kernel(p.symbols)) for c, p in run)
    return [(np.cos(c * a), np.sin(c * a) * -1j * k.phase, k) for c, k in kernels]


def evolve(
    s: np.ndarray, h: PauliSum, t: float | Sequence[float], method: str = "exact", steps: int = 1
) -> np.ndarray:
    """exp(-iHt) @ s by the named method: one state for a float t, one row
    per time for a 1-D sequence. `steps` applies to the product formulas
    only, which propagate each time on its own. The propagators refuse bad
    times, and a norm drift beyond NORM_ATOL * |s| raises NumericalIntegrityError."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    times = _times(t)
    if method == "exact":
        rows = evolve_exact(s, h, times)
    else:
        rows = evolve_trotter(s, h, times, steps, 1 if method == "trotter1" else 2)
    norm = _norm(s)
    for u, row in zip(times.tolist(), rows):
        drift = abs(_norm(row) - norm)
        if not drift <= NORM_ATOL * norm:  # a NaN drift fails too
            raise NumericalIntegrityError(
                f"{method} evolution drifted the norm by {drift:.3e} at t={u}, "
                f"beyond {NORM_ATOL} of the input norm"
            )
    return rows[0] if np.ndim(t) == 0 else rows


def evolve_enlarged(
    state: EnlargedState,
    h_tilde: EmbeddedHamiltonian,
    t: float | Sequence[float],
    method: str = "exact",
    steps: int = 1,
) -> EnlargedState | list[EnlargedState]:
    """Evolve an enlarged real state by the named method: one EnlargedState
    for a float t, a list of them, one per time, for a 1-D sequence.

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
    out = np.concatenate([a.real, a.imag], axis=-1)
    out[..., x.size:] *= -1
    return EnlargedState(out) if out.ndim == 1 else [EnlargedState(row) for row in out]
