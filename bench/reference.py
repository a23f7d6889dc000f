"""The benchmark's own numerics, written apart from embedsim.

Every check in the workloads compares embedsim's output with a value computed
here, or with a property the method must have. Nothing in this module imports
embedsim: Pauli matrices, Hamiltonians, propagators, monotone contractions and
the Wootters closed form are all rebuilt from numpy primitives, with a
different algorithm from the package wherever one exists (tensor contraction
instead of bit masks, Hermitian square roots instead of a non-Hermitian
eigenproblem).
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

PAULI = {
    "I": np.array([[1, 0], [0, 1]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
# Contraction metric diag(-1, 1, 0, 1) over (I, X, Y, Z); the Y entry is zero,
# so contracted slots only ever carry I, X or Z.
METRIC = {"I": -1.0, "X": 1.0, "Z": 1.0}


class CheckError(AssertionError):
    """An output of the program disagrees with the benchmark's reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def kron_string(label: str) -> np.ndarray:
    """Dense matrix of a Pauli string; qubit 0 is the leftmost factor."""
    return reduce(np.kron, (PAULI[c] for c in label))


def dense_hamiltonian(terms: list[tuple[float, str]]) -> np.ndarray:
    return sum(c * kron_string(p) for c, p in terms)


def apply_string(label: str, psi: np.ndarray) -> np.ndarray:
    """P @ psi by contracting 2x2 factors into a rank-n tensor."""
    n = len(label)
    t = psi.reshape((2,) * n)
    for q, c in enumerate(label):
        if c != "I":
            t = np.moveaxis(np.tensordot(PAULI[c], t, axes=([1], [q])), 0, q)
    return t.reshape(-1)


def antilinear(psi: np.ndarray, label: str) -> complex:
    """<psi|P|psi*>."""
    return complex(np.vdot(psi, apply_string(label, psi.conj())))


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


def ghz(n: int) -> np.ndarray:
    v = np.zeros(1 << n, dtype=complex)
    v[0] = v[-1] = 1 / math.sqrt(2)
    return v


def w_state(n: int) -> np.ndarray:
    v = np.zeros(1 << n, dtype=complex)
    v[[1 << q for q in range(n)]] = 1 / math.sqrt(n)
    return v


# Monotones -----------------------------------------------------------------
#
# Each preset is written out as its closed contraction:
#   concurrence, even n_qubit   |a(Y..Y)|
#   three_tangle, odd n_qubit   |sum_m g_m a(m Y..Y)^2|,          m in I, X, Z
#   second_order                |sum_mn g_m g_n a(m n)^2|,        m, n in I, X, Z
# with a(P) = <psi|P|psi*>. `labels` lists the distinct antilinear labels in
# the order embedsim expands them (metric index I, X, Z; first contraction
# outermost), which is the order of its per-observable estimates.

def labels(name: str, n: int) -> list[str]:
    if name == "second_order":
        return [m + k for m in "IXZ" for k in "IXZ"]
    if n % 2 == 1:
        return [m + "Y" * (n - 1) for m in "IXZ"]
    return ["Y" * n]


def contract(name: str, n: int, a: dict[str, complex]) -> float:
    if name == "second_order":
        return abs(sum(METRIC[m] * METRIC[k] * a[m + k] ** 2 for m in "IXZ" for k in "IXZ"))
    if n % 2 == 1:
        return abs(sum(METRIC[m] * a[m + "Y" * (n - 1)] ** 2 for m in "IXZ"))
    return abs(a["Y" * n])


def monotone(name: str, psi: np.ndarray) -> float:
    n = int(psi.size).bit_length() - 1
    return contract(name, n, {lab: antilinear(psi, lab) for lab in labels(name, n)})


def observables(name: str, psi: np.ndarray) -> list[float]:
    """Exact <Z(x)P>, <X(x)P> pairs on the embedded state, per label.

    The enlarged pair satisfies <Z(x)P> - i<X(x)P> = a(P)."""
    n = int(psi.size).bit_length() - 1
    out = []
    for lab in labels(name, n):
        a = antilinear(psi, lab)
        out.extend([a.real, -a.imag])
    return out


def contract_estimates(name: str, n: int, per_observable) -> float:
    """The monotone contracted from (Z, X) pair estimates."""
    labs = labels(name, n)
    a = {lab: per_observable[2 * i] - 1j * per_observable[2 * i + 1] for i, lab in enumerate(labs)}
    return contract(name, n, a)


def unembed(tilde: np.ndarray) -> np.ndarray:
    half = tilde.size // 2
    return tilde[:half] + 1j * tilde[half:]


# Sampling ------------------------------------------------------------------

def shot_halfwidth(exact: float, shots: int, delta: float = 1e-12) -> float:
    """Bernstein bound on |mean of S +/-1 outcomes - exact|, failing with
    probability below delta. Variance 1 - exact^2, range 2."""
    var = max(0.0, 1.0 - exact * exact)
    log_term = math.log(2.0 / delta)
    return ((4.0 / 3.0) * log_term + math.sqrt((16.0 / 9.0) * log_term**2 + 8.0 * shots * log_term * var)) / (2.0 * shots)


def check_sampled(per_observable_sampled, exact: list[float], shots: int, what: str) -> None:
    require(len(per_observable_sampled) == len(exact),
            f"{what}: {len(per_observable_sampled)} sampled estimates, expected {len(exact)}")
    for i, (s, e) in enumerate(zip(per_observable_sampled, exact)):
        require(abs(s * shots - round(s * shots)) < 1e-6 and -1.0 <= s <= 1.0,
                f"{what}: estimate {i} = {s} is not a mean of {shots} +/-1 outcomes")
        require(abs(s - e) <= shot_halfwidth(e, shots),
                f"{what}: estimate {i} = {s} is outside the binomial bound of {e}")


# Propagation ---------------------------------------------------------------

def exact_evolve(terms: list[tuple[float, str]], psi0: np.ndarray, t: float) -> np.ndarray:
    evals, vecs = np.linalg.eigh(dense_hamiltonian(terms))
    return vecs @ (np.exp(-1j * evals * t) * (vecs.conj().T @ psi0))


def _comm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def strang_error_bound(terms: list[tuple[float, str]], t: float, steps: int) -> float:
    """Commutator bound on ||S2(dt)^steps - exp(-iHt)|| for the symmetric
    product formula (Childs, Su, Tran, Wiebe & Zhu, PRX 11, 011020 (2021)),
    taken over both orderings of the terms so it holds whichever end the
    palindrome starts from."""
    dt = abs(t) / steps
    mats = [c * kron_string(p) for c, p in terms]
    best = 0.0
    for order in (mats, mats[::-1]):
        total = 0.0
        for j, hj in enumerate(order):
            rest = sum(order[j + 1:], np.zeros_like(hj))
            total += np.linalg.norm(_comm(rest, _comm(rest, hj)), 2) / 12.0
            total += np.linalg.norm(_comm(hj, _comm(hj, rest)), 2) / 24.0
        best = max(best, total)
    return steps * dt**3 * best


# Mixed states --------------------------------------------------------------

def wootters(rho: np.ndarray) -> float:
    """Two-qubit concurrence max(0, l1 - l2 - l3 - l4), with l the square
    roots of the eigenvalues of sqrt(rho) (YY rho* YY) sqrt(rho)."""
    yy = kron_string("YY")
    evals, vecs = np.linalg.eigh(rho)
    root = (vecs * np.sqrt(np.clip(evals, 0.0, None))) @ vecs.conj().T
    m = root @ yy @ rho.conj() @ yy @ root
    lam = np.sqrt(np.clip(np.linalg.eigvalsh((m + m.conj().T) / 2), 0.0, None))[::-1]
    return float(max(0.0, lam[0] - lam[1:].sum()))


def random_mixed(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    """Mixture of `rank` random pure states with weights bounded away from 0."""
    weights = rng.uniform(0.2, 1.0, rank)
    weights /= weights.sum()
    rho = sum(p * np.outer(v, v.conj()) for p, v in zip(weights, (random_state(rng, n) for _ in range(rank))))
    return (rho + rho.conj().T) / 2


def ensemble_matrix(members) -> np.ndarray:
    return sum(p * np.outer(v, v.conj()) for p, v in members)
