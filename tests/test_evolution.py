import tracemalloc

import numpy as np
import pytest

from embedsim import (
    CapacityError,
    EmbeddedHamiltonian,
    EnlargedState,
    NumericalIntegrityError,
    PauliString,
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
from embedsim.evolution import METHODS, PHASE_LIMIT
from embedsim.pauli import DENSE_QUBIT_CAP, NORM_ATOL, _Kernel

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


def test_phases_beyond_2_to_the_52_are_refused():
    # The W state under 1e5 XYZ + 0.7 ZZI: at t = 1e300 one ulp of a phase
    # is far beyond a radian, and at the bound it reaches one.
    w = np.zeros(8, dtype=complex)
    w[[1, 2, 4]] = 3**-0.5
    h = PauliSum.from_terms([(1e5, "XYZ"), (0.7, "ZZI")])
    norm = 1e5 + 0.7
    below = np.nextafter(PHASE_LIMIT / norm, 0.0)
    while below * norm >= PHASE_LIMIT:
        below = np.nextafter(below, 0.0)
    for method in METHODS:
        for t in (1e300, -1e300, PHASE_LIMIT / norm * 2):
            with pytest.raises(NumericalIntegrityError, match="2\\^52"):
                evolve(w, h, t, method, 4)
        out = evolve(w, h, below, method, 4)
        assert np.isfinite(out).all()
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-9)


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
        assert np.max(np.abs(out - _unmerged_reference(s, h, t, steps, 2))) <= 1e-14


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


def _unmerged_reference(s, h, t, steps, order):
    """Every term applied as the dense cos(a) I - i sin(a) P, once per step
    (order 1) or twice in the palindrome (order 2)."""
    a = t / steps / order
    eye = np.eye(s.size)
    factors = [np.cos(c * a) * eye - 1j * np.sin(c * a) * dense_matrix(p) for c, p in h.terms]
    ref = s.astype(complex)
    for _ in range(steps):
        for f in factors if order == 1 else factors + factors[::-1]:
            ref = f @ ref
    return ref


def _chain(n, bond=0.4, field=0.3):
    terms = [(bond, "I" * i + "XX" + "I" * (n - i - 2)) for i in range(n - 1)]
    return PauliSum.from_terms(terms + [(field, "I" * i + "Z" + "I" * (n - i - 1)) for i in range(n)])


def _anticommuting_neighbours(rng, n, num):
    """A random sum in which every stored term anticommutes with the next."""
    terms = []
    while len(terms) < num:
        p = "".join(rng.choice(list("IXYZ"), size=n))
        if terms:
            a, b = dense_matrix(PauliString(terms[-1][1])), dense_matrix(PauliString(p))
            if not np.array_equal(a @ b, -(b @ a)):
                continue
        terms.append((float(rng.uniform(-1.0, 1.0)), p))
    return PauliSum.from_terms(terms)


@pytest.fixture
def image_calls(monkeypatch):
    """The kernel of every _Kernel.image call, in order."""
    image, calls = _Kernel.image, []
    monkeypatch.setattr(_Kernel, "image", lambda k, *a: calls.append(k) or image(k, *a))
    return calls


class TestMergedRuns:
    """Trotter products over commuting runs, against the unmerged palindrome."""

    @pytest.mark.parametrize("steps", [1, 2, 4])
    @pytest.mark.parametrize("order", [1, 2])
    def test_embedded_chain_matches_the_unmerged_product(self, rng, steps, order):
        h = embed_hamiltonian(_chain(5)).operator
        assert [len(run) for run in h.commuting_runs] == [4, 5]
        s = embed_state(random_state(rng, 5)).amplitudes
        out = evolve_trotter(s, h, 0.9, steps, order)
        assert out.dtype == np.float64
        assert np.max(np.abs(out - _unmerged_reference(s, h, 0.9, steps, order))) <= 1e-14

    @pytest.mark.parametrize("steps", [1, 2, 4])
    @pytest.mark.parametrize("order", [1, 2])
    def test_sums_without_commuting_neighbours(self, rng, steps, order):
        for _ in range(5):
            h = _anticommuting_neighbours(rng, 3, int(rng.integers(2, 7)))
            assert len(h.commuting_runs) == h.num_terms
            psi = random_state(rng, 3).amplitudes
            t = float(rng.uniform(0.1, 2.0))
            out = evolve_trotter(psi, h, t, steps, order)
            assert np.max(np.abs(out - _unmerged_reference(psi, h, t, steps, order))) <= 1e-14

    @pytest.mark.parametrize("order,passes", [(1, 108), (2, 121)])
    def test_kernel_passes_on_the_27_term_chain(self, image_calls, order, passes):
        h = embed_hamiltonian(_chain(14)).operator
        s = np.zeros(1 << 15)
        s[0] = 1.0
        evolve_trotter(s, h, 0.2, 4, order)
        assert len(image_calls) == passes

    @pytest.mark.parametrize("steps", [1, 3, 1000])
    @pytest.mark.parametrize("order", [1, 2])
    def test_a_commuting_sum_applies_each_term_once(self, rng, image_calls, steps, order):
        h = PauliSum.from_terms([(0.7, "ZZI"), (-0.3, "IZZ"), (0.5, "XXX"), (0.2, "YYX")])
        assert len(h.commuting_runs) == 1
        psi = random_state(rng, 3).amplitudes
        out = evolve_trotter(psi, h, 1.3, steps, order)
        assert len(image_calls) == h.num_terms
        np.testing.assert_allclose(out, evolve_exact(psi, h, 1.3), atol=1e-14)


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
