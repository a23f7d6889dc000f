import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from embedsim import PauliSum, PureState, evolution
from embedsim.evolution import evolve_exact, evolve_trotter

settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

SYMBOLS = "IXYZ"


def random_state(rng, n):
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return PureState(v / np.linalg.norm(v))


def random_real_state(rng, n):
    v = rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


def random_pauli_sum(rng, n, max_terms=4):
    num = int(rng.integers(1, max_terms + 1))
    terms = [
        (
            float(rng.uniform(-1.0, 1.0)),
            "".join(rng.choice(list(SYMBOLS), size=n)),
        )
        for _ in range(num)
    ]
    return PauliSum.from_terms(terms, n=n)


def drift_propagator(monkeypatch, method, scale, only=None):
    """Patch the propagator behind `method` to scale its result by `scale`;
    with `only`, just the calls made with that Hamiltonian object."""
    inner = evolve_exact if method == "exact" else evolve_trotter

    def drifting(s, h, *args, **kwargs):
        return inner(s, h, *args, **kwargs) * (scale if only is None or h is only else 1.0)

    monkeypatch.setattr(evolution, inner.__name__, drifting)


def random_product_state(rng, n):
    v = np.array([1.0 + 0.0j])
    for _ in range(n):
        q = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = np.kron(v, q / np.linalg.norm(q))
    return PureState(v)


def random_single_qubit_unitary(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
