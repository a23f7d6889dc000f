import tracemalloc

import numpy as np
import pytest

from embedsim import (
    CapacityError,
    EmbeddedHamiltonian,
    EnlargedState,
    NumericalIntegrityError,
    PauliSum,
    PureState,
    dense_matrix,
    embed_hamiltonian,
    embed_state,
    evolve,
    evolve_enlarged,
    evolve_exact,
    evolve_trotter,
    reality_residual,
    unembed_state,
)
from embedsim.evolution import METHODS
from embedsim.pauli import DENSE_QUBIT_CAP, NORM_ATOL

from conftest import random_pauli_sum, random_real_state, random_state


def test_plan_validation():
    h = PauliSum.from_terms([(1.0, "Z")])
    s = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        evolve(s, h, 1.0, method="rk4")
    with pytest.raises(ValueError):
        evolve(s, h, np.inf)
    with pytest.raises(ValueError):
        evolve(s, h, 1.0, method="trotter1", steps=0)


def test_overflowing_spectrum_or_phases_are_refused():
    s = np.array([1.0, 0.0, 0.0, 0.0])
    huge = PauliSum.from_terms([(1e300, "XY"), (1e300, "ZI")])
    for h, t in ((huge, 1e10), (PauliSum.from_terms([(1.7e308, "XY"), (1.7e308, "ZI")]), 1e-300)):
        for method in METHODS:
            with pytest.raises(NumericalIntegrityError):
                evolve(s, h, t, method)
    with pytest.raises(NumericalIntegrityError):
        evolve_enlarged(EnlargedState(np.eye(8)[0]), embed_hamiltonian(huge), 1e10)
    assert np.isfinite(evolve(s, huge, 1e-300)).all()


def test_zero_time_identity(rng):
    h = random_pauli_sum(rng, 2)
    psi = random_state(rng, 2)
    np.testing.assert_allclose(
        evolve_exact(psi.amplitudes, h, 0.0), psi.amplitudes, atol=1e-14
    )


def test_z_rotation_reaches_minus():
    # exp(-i Z pi/2)|+> is |-> up to global phase
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    out = evolve_exact(plus, PauliSum.from_terms([(1.0, "Z")]), np.pi / 2)
    assert abs(np.vdot(minus, out)) == pytest.approx(1.0, abs=1e-12)


def test_dimension_cap():
    h = PauliSum.from_terms([(1.0, "Z" * 14)])
    with pytest.raises(CapacityError):
        evolve_exact(np.zeros(2**14), h, 1.0)


def test_repeated_calls_reuse_one_spectrum(rng, monkeypatch):
    h = random_pauli_sum(rng, 3)
    psi = random_state(rng, 3)
    times = [0.3, 1.1, 2.5]
    first = [evolve_exact(psi.amplitudes, h, t) for t in times]
    eigh = np.linalg.eigh
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
    again = [evolve_exact(psi.amplitudes, h, t) for t in times]
    assert calls == []
    fresh = PauliSum.from_records(h.to_records(), n=3)
    for t, a, b in zip(times, first, again):
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, evolve_exact(psi.amplitudes, fresh, t))
    assert len(calls) == 1


def test_commuting_diagram_seeded(rng):
    # enlarged evolution then unembed equals direct evolution
    for _ in range(100):
        n = int(rng.integers(1, 4))
        h = random_pauli_sum(rng, n)
        psi = random_state(rng, n)
        t = float(rng.uniform(0.1, 3.0))
        direct = evolve_exact(psi.amplitudes, h, t)
        tilde = evolve_enlarged(embed_state(psi), embed_hamiltonian(h), t)
        back = unembed_state(tilde).amplitudes
        np.testing.assert_allclose(back, direct, atol=1e-10)


def test_trotter_exact_for_commuting_terms(rng):
    h = PauliSum.from_terms([(0.7, "ZI"), (-0.3, "IZ")])
    psi = random_state(rng, 2)
    exact = evolve_exact(psi.amplitudes, h, 1.3)
    for steps in (1, 5):
        for order in (1, 2):
            out = evolve_trotter(psi.amplitudes, h, 1.3, steps, order)
            np.testing.assert_allclose(out, exact, atol=1e-12)


def _trotter_slope(order):
    h = PauliSum.from_terms([(1.0, "X"), (1.0, "Z")])
    psi = np.array([1.0, 0.0], dtype=complex)
    exact = evolve_exact(psi, h, 1.0)
    ns = np.array([8, 16, 32, 64])
    errs = [
        np.linalg.norm(evolve_trotter(psi, h, 1.0, int(n), order) - exact) for n in ns
    ]
    return np.polyfit(np.log(ns), np.log(errs), 1)[0]


def test_trotter1_error_scaling():
    assert _trotter_slope(1) == pytest.approx(-1.0, abs=0.15)


def test_trotter2_error_scaling():
    assert _trotter_slope(2) == pytest.approx(-2.0, abs=0.2)


def test_trotter_converges_to_exact(rng):
    h = random_pauli_sum(rng, 2)
    psi = random_state(rng, 2)
    exact = evolve_exact(psi.amplitudes, h, 1.0)
    out = evolve_trotter(psi.amplitudes, h, 1.0, 4096, 2)
    np.testing.assert_allclose(out, exact, atol=1e-5)


def test_reality_residual_cases(rng):
    assert reality_residual(np.array([1.0, 0.0])) == 0.0
    for _ in range(20):
        h = embed_hamiltonian(random_pauli_sum(rng, 2))
        s = random_real_state(rng, 3)
        evolved = evolve_exact(s, h.operator, 1.0)
        assert reality_residual(evolved) < 1e-12


def test_trotter_keeps_enlarged_states_real(rng):
    for _ in range(20):
        h = embed_hamiltonian(random_pauli_sum(rng, 2))
        s = random_real_state(rng, 3)
        out = evolve_trotter(s, h.operator, 1.0, 64, 1)
        assert reality_residual(out) < 1e-12


def test_unitarity_all_methods(rng):
    h = random_pauli_sum(rng, 2)
    psi = random_state(rng, 2)
    for method, steps in (("exact", 1), ("trotter1", 32), ("trotter2", 32)):
        out = evolve(psi.amplitudes, h, 1.7, method, steps)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-10)


def test_composition(rng):
    for _ in range(10):
        h = random_pauli_sum(rng, 2)
        psi = random_state(rng, 2)
        t1, t2 = float(rng.uniform(0, 2)), float(rng.uniform(0, 2))
        once = evolve_exact(psi.amplitudes, h, t1 + t2)
        twice = evolve_exact(evolve_exact(psi.amplitudes, h, t1), h, t2)
        np.testing.assert_allclose(once, twice, atol=1e-10)


def test_real_trotter2_of_embedded_hamiltonian(rng):
    # Reference: each factor as the dense cos(a) I - i sin(a) P, palindromic.
    for _ in range(5):
        h = embed_hamiltonian(random_pauli_sum(rng, 3, max_terms=6)).operator
        s = embed_state(random_state(rng, 3)).amplitudes
        t, steps = float(rng.uniform(0.1, 2.0)), 5
        out = evolve_trotter(s, h, t, steps, order=2)
        assert out.dtype == np.float64
        a = t / steps / 2
        factors = [np.cos(c * a) * np.eye(16) - 1j * np.sin(c * a) * dense_matrix(p)
                   for c, p in h.terms]
        ref = s.astype(complex)
        for _ in range(steps):
            for f in factors + factors[::-1]:
                ref = f @ ref
        assert np.max(np.abs(out - ref)) <= 1e-14


def test_trotter_allocates_no_state_sized_temporaries():
    # The 27-term chain of 14 qubits on its 2^15 real enlarged amplitudes.
    n = 14
    chain = [(0.4, "I" * i + "XX" + "I" * (n - i - 2)) for i in range(n - 1)]
    chain += [(0.3, "I" * i + "Z" + "I" * (n - i - 1)) for i in range(n)]
    h = embed_hamiltonian(PauliSum.from_terms(chain)).operator
    ghz = np.zeros(1 << n, dtype=complex)
    ghz[0] = ghz[-1] = 2**-0.5
    s = embed_state(PureState(ghz)).amplitudes
    evolve_trotter(s, h, 0.2, 1, 2)  # builds the per-string kernels, which are kept
    tracemalloc.start()
    try:
        out = evolve_trotter(s, h, 0.2, 4, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.dtype == np.float64
    assert peak < 4 * s.nbytes


def _enlarged_against_dense(h, psi, t):
    """evolve_enlarged under "exact" against the dense 2^(n+1) propagator of
    H~, within 1e-14 * max(1, sum|c| |t|); returns the enlarged result."""
    h_tilde, s = embed_hamiltonian(h), embed_state(psi)
    out = evolve_enlarged(s, h_tilde, t).amplitudes
    ref = evolve_exact(s.amplitudes, h_tilde.operator, t)
    scale = max(1.0, sum(abs(c) for c, _ in h.terms) * abs(t))
    assert np.max(np.abs(out - ref)) <= 1e-14 * scale
    assert out.dtype == np.float64
    assert abs(np.linalg.norm(out) - 1.0) <= NORM_ATOL
    return out


class TestSectorPropagator:
    """The exact enlarged propagator through the conserved ancilla-Y sector."""

    def test_random_hamiltonians(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 5))
            _enlarged_against_dense(random_pauli_sum(rng, n), random_state(rng, n),
                                    float(rng.uniform(-3.0, 3.0)))

    def test_spectrum_with_a_zero_eigenvalue(self, rng):
        h = PauliSum.from_terms([(1.0, "ZII"), (1.0, "IZI")])
        assert np.min(np.abs(h.spectrum[0])) == 0.0
        for t in (0.4, 2.0):
            _enlarged_against_dense(h, random_state(rng, 3), t)

    def test_single_term(self, rng):
        h = PauliSum.from_terms([(0.8, "XYZ")])
        _enlarged_against_dense(h, random_state(rng, 3), 1.3)

    def test_negative_and_zero_time(self, rng):
        h, psi = random_pauli_sum(rng, 3), random_state(rng, 3)
        _enlarged_against_dense(h, psi, -1.7)
        out = _enlarged_against_dense(h, psi, 0.0)
        np.testing.assert_allclose(out, embed_state(psi).amplitudes, atol=1e-14)

    def test_mixed_spectrum_with_large_coefficients(self, rng):
        # eigenvalues near +-2e5 beside +-0.01
        h = PauliSum.from_terms([(1e5, "ZI"), (1e5, "IZ"), (0.01, "XY")])
        evals = np.sort(np.abs(h.spectrum[0]))
        assert evals[0] == pytest.approx(0.01, rel=1e-6)
        assert evals[-1] == pytest.approx(2e5, rel=1e-6)
        for t in (0.37, -1.0, 10.0):
            _enlarged_against_dense(h, random_state(rng, 2), t)

    def test_composition(self, rng):
        h_tilde = embed_hamiltonian(random_pauli_sum(rng, 3))
        s = embed_state(random_state(rng, 3))
        t1, t2 = 0.6, -1.9
        twice = evolve_enlarged(evolve_enlarged(s, h_tilde, t1), h_tilde, t2)
        once = evolve_enlarged(s, h_tilde, t1 + t2)
        np.testing.assert_allclose(twice.amplitudes, once.amplitudes, atol=1e-14)

    def test_one_eigh_at_2_to_the_n_per_hamiltonian(self, rng, monkeypatch):
        h_tilde = embed_hamiltonian(random_pauli_sum(rng, 3))
        s = embed_state(random_state(rng, 3))
        eigh = np.linalg.eigh
        calls = []
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
        for t in (0.3, 1.1, -2.5):
            evolve_enlarged(s, h_tilde, t)
        assert calls == [(8, 8)]

    def test_sign_flipped_generator_disagrees_with_the_direct_path(self, rng):
        # The sector is built from H~'s terms, so a wrong H~ still shows.
        h = PauliSum.from_terms([(0.7, "XY"), (0.4, "ZI"), (-0.3, "YX")])
        psi = random_state(rng, 2)
        direct = evolve_exact(psi.amplitudes, h, 1.2)
        h_tilde = embed_hamiltonian(h)
        (c, p), *rest = h_tilde.operator.terms
        flipped = EmbeddedHamiltonian(PauliSum(n=3, terms=((-c, p), *rest)))
        for generator, agrees in ((h_tilde, True), (flipped, False)):
            back = unembed_state(evolve_enlarged(embed_state(psi), generator, 1.2))
            assert (np.max(np.abs(back.amplitudes - direct)) < 1e-12) == agrees

    def test_refuses_an_enlarged_register_beyond_the_dense_cap(self, monkeypatch):
        # 13 simulated qubits fit the cap, their 14-qubit register does not.
        n = DENSE_QUBIT_CAP
        h_tilde = embed_hamiltonian(PauliSum.from_terms([(1.0, "X" * n)]))
        s = np.zeros(1 << (n + 1))
        s[0] = 1.0
        monkeypatch.setattr(np.linalg, "eigh", lambda m: pytest.fail("eigh attempted"))
        with pytest.raises(CapacityError):
            evolve_enlarged(EnlargedState(s), h_tilde, 0.3)
