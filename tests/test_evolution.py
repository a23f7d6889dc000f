import functools
import operator
import tracemalloc

import numpy as np
import pytest

from embedsim import (
    CapacityError,
    DimensionError,
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
    evolution,
    reality_residual,
    unembed_state,
)
from embedsim.evolution import METHODS, PHASE_LIMIT
from embedsim import pauli
from embedsim.pauli import DENSE_QUBIT_CAP, NORM_ATOL, _Kernel

from conftest import drift_propagator, random_pauli_sum, random_real_state, random_state


def test_plan_validation():
    h = PauliSum.from_terms([(1.0, "Z")])
    s = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        evolve(s, h, 1.0, method="rk4")
    with pytest.raises(ValueError):
        evolve(s, h, np.inf)
    with pytest.raises(ValueError):
        evolve(s, h, 1.0, method="trotter1", steps=0)
    with pytest.raises(ValueError, match="order"):
        evolve_trotter(s, h, 1.0, 1, order=3)


def test_trotter_takes_no_output_buffer():
    s, h = np.array([1.0, 0.0]), PauliSum.from_terms([(1.0, "X")])
    with pytest.raises(TypeError):
        evolve_trotter(s, h, 1.0, 1, 1, out=np.empty(2, complex))


def propagators(steps=1):
    """`evolve` under each method and the two propagators it calls, each as
    f(s, h, t); every one refuses bad times on its own."""
    return ([functools.partial(evolve, method=m, steps=steps) for m in METHODS] + [evolve_exact]
            + [functools.partial(evolve_trotter, steps=steps, order=o) for o in (1, 2)])


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_times_that_are_not_finite_are_refused(t):
    s = np.array([1.0, 0.0, 0.0, 0.0])
    h = PauliSum.from_terms([(1.0, "XY"), (0.5, "ZI")])
    for propagate in propagators():
        with pytest.raises(ValueError, match="finite"):
            propagate(s, h, t)
    with pytest.raises(ValueError, match="finite"):
        evolve_exact(s, h, [0.5, t])


def test_overflowing_spectrum_or_phases_are_refused():
    s = np.array([1.0, 0.0, 0.0, 0.0])
    huge = PauliSum.from_terms([(1e300, "XY"), (1e300, "ZI")])
    for h, t in ((huge, 1e10), (PauliSum.from_terms([(1.7e308, "XY"), (1.7e308, "ZI")]), 1e-300)):
        for propagate in propagators():
            with pytest.raises(NumericalIntegrityError):
                propagate(s, h, t)
    with pytest.raises(NumericalIntegrityError):
        evolve_enlarged(EnlargedState(np.eye(8)[0]), embed_hamiltonian(huge), 1e10)
    for propagate in propagators():
        assert np.isfinite(propagate(s, huge, 1e-300)).all()


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
    for propagate in propagators(steps=4):
        for t in (1e300, -1e300, PHASE_LIMIT / norm * 2):
            with pytest.raises(NumericalIntegrityError, match="2\\^52"):
                propagate(w, h, t)
        out = propagate(w, h, below)
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
        assert reality_residual(out) == 0.0


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
        h_tilde = embed_hamiltonian(random_pauli_sum(rng, 3, max_terms=6))
        s = embed_state(random_state(rng, 3))
        t, steps = float(rng.uniform(0.1, 2.0)), 5
        out = evolve_enlarged(s, h_tilde, t, "trotter2", steps).amplitudes
        assert out.dtype == np.float64
        ref = _unmerged_reference(s.amplitudes, h_tilde.operator, t, steps, 2)
        assert np.max(np.abs(out - ref)) <= 1e-14


def test_enlarged_trotter_is_bitwise_the_direct_result(rng):
    # [Re a; -Im a] of the sector evolution of a = x - iy is [Re d; Im d].
    for _ in range(40):
        n = int(rng.integers(2, 6))
        h, psi = random_pauli_sum(rng, n, max_terms=6), random_state(rng, n)
        t = float(rng.uniform(-2.0, 2.0))
        for order in (1, 2):
            for steps in (1, 2, 5):
                d = evolve_trotter(psi.amplitudes, h, t, steps, order)
                out = evolve_enlarged(embed_state(psi), embed_hamiltonian(h), t,
                                      f"trotter{order}", steps)
                assert np.array_equal(out.amplitudes, np.concatenate([d.real, d.imag]))
    # Field-heavy Ising-type sums, whose sector fuses the diagonal run: its
    # phase is exp(+i a d) there, the conjugate, bit for bit.
    for _ in range(10):
        n = int(rng.integers(4, 7))
        h, psi = _ising(rng, n), random_state(rng, n)
        assert embed_hamiltonian(h).sector._phase_runs[-1][0] is not None
        t = float(rng.uniform(-2.0, 2.0))
        for order in (1, 2):
            for steps in (1, 2, 5):
                d = evolve_trotter(psi.amplitudes, h, t, steps, order)
                out = evolve_enlarged(embed_state(psi), embed_hamiltonian(h), t,
                                      f"trotter{order}", steps)
                assert np.array_equal(out.amplitudes, np.concatenate([d.real, d.imag]))


@pytest.mark.parametrize("method", METHODS)
def test_a_wrong_length_state_is_a_dimension_error(method):
    h = PauliSum.from_terms([(0.5, "XY"), (0.3, "ZI")])
    s = np.ones(8) / 8**0.5
    with pytest.raises(DimensionError, match=r"\(8,\), expected \(4,\)"):
        evolve(s, h, 0.1, method, 2)
    with pytest.raises(DimensionError, match=r"\(8,\), expected \(4,\)"):
        if method == "exact":
            evolve_exact(s, h, 0.1)
        else:
            evolve_trotter(s, h, 0.1, 2, int(method[-1]))
    with pytest.raises(DimensionError, match=r"\(16,\), expected \(8,\)"):
        evolve_enlarged(EnlargedState(np.ones(16) / 4), embed_hamiltonian(h), 0.1, method, 2)


def _enlarged_chain(n=14):
    """The GHZ state and the 27-term XX+Z chain of 14 qubits, embedded."""
    ghz = np.zeros(1 << n, dtype=complex)
    ghz[0] = ghz[-1] = 2**-0.5
    return embed_state(PureState(ghz)), embed_hamiltonian(_chain(n))


def _peak_bytes(f):
    """Peak bytes that tracemalloc sees allocated while f() runs."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trotter_allocates_no_state_sized_temporaries():
    # The sector of the 27-term chain on the complex start x - iy of its 2^15
    # real enlarged amplitudes: 2^14 complex, the same bytes.
    state, h_tilde = _enlarged_chain()
    x, y = np.split(state.amplitudes, 2)
    s, h = x - 1j * y, h_tilde.sector
    evolve_trotter(s, h, 0.2, 1, 2)  # builds the per-string kernels, which are kept
    assert _peak_bytes(lambda: evolve_trotter(s, h, 0.2, 4, 2)) < 4 * s.nbytes


def test_enlarged_trotter_allocates_three_state_sized_arrays():
    # The start x - iy, the Trotter buffer and its scratch; besides them only
    # the two fixed-size ufunc buffers of a flipped complex kernel pass.
    state, h_tilde = _enlarged_chain()
    evolve_enlarged(state, h_tilde, 0.2, "trotter2", 1)
    peak = _peak_bytes(lambda: evolve_enlarged(state, h_tilde, 0.2, "trotter2", 4))
    size = state.amplitudes.nbytes
    assert peak < 3 * size + 2 * np.getbufsize() * 16 + size / 16


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


def _ising(rng, n):
    """Transverse fields, then ZZ couplings with the all-Y string, then
    longitudinal fields: runs of n, n and n terms, the last two fused."""
    def term(label):
        return float(rng.uniform(-1.0, 1.0)), label
    xs = [term("I" * i + "X" + "I" * (n - i - 1)) for i in range(n)]
    zzs = [term("I" * i + "ZZ" + "I" * (n - i - 2)) for i in range(n - 1)]
    zs = [term("I" * i + "Z" + "I" * (n - i - 1)) for i in range(n)]
    return PauliSum.from_terms(xs + zzs + [term("Y" * n)] + zs)


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
        h_tilde = embed_hamiltonian(_chain(5))
        assert [len(run) for run in h_tilde.operator.commuting_runs] == [4, 5]
        s = embed_state(random_state(rng, 5))
        out = evolve_enlarged(s, h_tilde, 0.9, f"trotter{order}", steps).amplitudes
        assert out.dtype == np.float64
        ref = _unmerged_reference(s.amplitudes, h_tilde.operator, 0.9, steps, order)
        assert np.max(np.abs(out - ref)) <= 1e-14

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

    @pytest.mark.parametrize("steps", [1, 2, 4])
    @pytest.mark.parametrize("order", [1, 2])
    def test_fused_diagonal_runs_match_the_unmerged_product(self, rng, steps, order):
        h = _ising(rng, 5)
        assert [d is not None for d, _ in h._phase_runs] == [False, True, True]
        psi = random_state(rng, 5)
        direct = evolve_trotter(psi.amplitudes, h, 0.9, steps, order)
        ref = _unmerged_reference(psi.amplitudes, h, 0.9, steps, order)
        assert np.max(np.abs(direct - ref)) <= 1e-14
        h_tilde, s = embed_hamiltonian(h), embed_state(psi)
        out = evolve_enlarged(s, h_tilde, 0.9, f"trotter{order}", steps).amplitudes
        ref = _unmerged_reference(s.amplitudes, h_tilde.operator, 0.9, steps, order)
        assert np.max(np.abs(out - ref)) <= 1e-14

    def test_the_sector_chain_takes_65_passes(self, image_calls):
        # 13 XX bonds and 14 Z fields: 5 occurrences of the bond run, each
        # a flipped copy per bond, and 4 of the field run, each one phase.
        state, h_tilde = _enlarged_chain()
        s = state.amplitudes[:1 << 14] - 1j * state.amplitudes[1 << 14:]
        out = evolve_trotter(s, h_tilde.sector, 0.2, 4, 2)
        assert len(image_calls) == 65 and not any(k.signed for k in image_calls)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pauli, "PHASE_RUN_TERMS", 10**9)
            unfused = PauliSum(n=14, terms=h_tilde.sector.terms)
            ref = evolve_trotter(s, unfused, 0.2, 4, 2)
        assert len(image_calls) == 65 + 121
        assert np.max(np.abs(out - ref)) <= 1e-14

    def test_the_phases_are_built_once_per_sum(self, rng, monkeypatch):
        h, psi = _ising(rng, 6), random_state(rng, 6).amplitudes
        evolve_trotter(psi, h, 0.3, 2, 2)
        phases = [d for d, _ in h._phase_runs]
        monkeypatch.setattr(pauli, "_kernel", None)  # a second build would fail
        evolve_trotter(psi, h, 0.3, 2, 2)
        assert all(map(operator.is_, phases, (d for d, _ in h._phase_runs)))

    @pytest.mark.parametrize("steps", [1, 3, 1000, 10**6])
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
        # The sector of DENSE_QUBIT_CAP + 1 simulated qubits is past the cap.
        n = DENSE_QUBIT_CAP + 1
        h_tilde = embed_hamiltonian(PauliSum.from_terms([(1.0, "X" * n)]))
        s = np.zeros(1 << (n + 1))
        s[0] = 1.0
        monkeypatch.setattr(np.linalg, "eigh", lambda m: pytest.fail("eigh attempted"))
        with pytest.raises(CapacityError, match=f"got {n}"):
            evolve_enlarged(EnlargedState(s), h_tilde, 0.3)

    def test_the_dense_cap_reaches_the_sector_build(self, monkeypatch):
        # DENSE_QUBIT_CAP simulated qubits on a register of one more: the
        # sector's dense build is reached, and nothing refuses before it.
        class Reached(Exception):
            pass

        def dense(self):
            assert self.n == DENSE_QUBIT_CAP
            raise Reached

        n = DENSE_QUBIT_CAP
        h_tilde = embed_hamiltonian(PauliSum.from_terms([(1.0, "X" * n)]))
        s = np.zeros(1 << (n + 1))
        s[0] = 1.0
        monkeypatch.setattr(PauliSum, "dense", dense)
        with pytest.raises(Reached):
            evolve_enlarged(EnlargedState(s), h_tilde, 0.3)

    @pytest.mark.parametrize("method", METHODS)
    def test_norm_drift_beyond_norm_atol_is_an_integrity_error(self, rng, monkeypatch, method):
        # The result is not renormalised: a drift of 1e-11 in the propagator
        # is refused by name, by the `evolve` the enlarged path goes through.
        h_tilde = embed_hamiltonian(random_pauli_sum(rng, 2))
        s = embed_state(random_state(rng, 2))
        drift_propagator(monkeypatch, method, 1 + 1e-11)
        with pytest.raises(NumericalIntegrityError, match=f"{method} evolution drifted"):
            evolve_enlarged(s, h_tilde, 0.4, method, 3)
        drift_propagator(monkeypatch, method, 1 + 1e-13)
        evolve_enlarged(s, h_tilde, 0.4, method, 3)


@pytest.mark.parametrize("method", METHODS)
def test_evolve_refuses_a_norm_drift_on_a_raw_vector(rng, monkeypatch, method):
    # The check is on `evolve` itself, so a plain 2-qubit array is held to it.
    h, s = random_pauli_sum(rng, 2), random_state(rng, 2).amplitudes
    drift_propagator(monkeypatch, method, 1 + 1e-11)
    with pytest.raises(NumericalIntegrityError, match=f"{method} evolution drifted the norm"):
        evolve(s, h, 0.4, method, 3)
    drift_propagator(monkeypatch, method, 1 + 1e-13)
    evolve(s, h, 0.4, method, 3)


def test_evolve_holds_the_norm_relative_to_the_input(rng):
    # An unnormalised input keeps its own norm; the bound scales with it.
    h, s = random_pauli_sum(rng, 2), 3.0 * random_state(rng, 2).amplitudes
    for method in METHODS:
        out = evolve(s, h, 0.7, method, 4)
        assert abs(np.linalg.norm(out) - 3.0) <= 3.0 * NORM_ATOL


def _projection(s, h, times):
    """exp(-iHt) s for each t by the eigendecomposition of a fresh dense H."""
    evals, vecs = np.linalg.eigh(h.dense())
    coeffs = vecs.conj().T @ s
    return np.array([vecs @ (np.exp(-1j * evals * t) * coeffs) for t in times])


TIMES = [0.7, -1.3, 0.0, 0.7, 2.9, -0.2]  # negative, zero, repeated and unsorted


class TestChebyshevSeries:
    """Exact evolution of a list of times by one shared Chebyshev recurrence."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_the_spectrum_projection(self, rng, monkeypatch, n):
        h, psi = random_pauli_sum(rng, n, max_terms=3 * n), random_state(rng, n).amplitudes
        eigh = np.linalg.eigh
        monkeypatch.setattr(evolution, "SERIES_TERMS_PER_DIM", 64)
        monkeypatch.setattr(evolution, "SERIES_TIME_COST", 0)
        monkeypatch.setattr(np.linalg, "eigh", lambda m: pytest.fail("eigh called"))
        out = evolve(psi, h, TIMES)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        assert out.shape == (len(TIMES), 1 << n)
        assert np.max(np.abs(out - _projection(psi, h, TIMES))) <= 1e-12
        assert np.max(np.abs(out[2] - psi)) <= 1e-15  # t = 0

    @pytest.mark.parametrize("width", [1, 2, 3, 5, 64])
    def test_any_block_width_gives_the_same_rows(self, rng, monkeypatch, width):
        # Blocks of 1, 2, 3 and 5 terms leave a partial last block; 64 takes all.
        h, psi = random_pauli_sum(rng, 5, max_terms=15), random_state(rng, 5).amplitudes
        monkeypatch.setattr(evolution, "SERIES_BLOCK", width << 5)
        monkeypatch.setattr(evolution, "SERIES_TERMS_PER_DIM", 64)
        monkeypatch.setattr(evolution, "SERIES_TIME_COST", 0)
        out = evolve(psi, h, TIMES)
        assert "spectrum" not in vars(h)
        assert np.max(np.abs(out - _projection(psi, h, TIMES))) <= 1e-12

    def test_a_long_list_of_times_goes_to_the_spectrum(self, rng):
        # 7 qubits to t = 0.8 need a few dozen terms: the series for 8 times,
        # one eigh for 512, where each time's share of the series outweighs it.
        h, psi = random_pauli_sum(rng, 7, max_terms=21), random_state(rng, 7).amplitudes
        short, long = np.linspace(0.1, 0.8, 8), np.linspace(0.1, 0.8, 512)
        evolve(psi, h, short)
        assert "spectrum" not in vars(h)
        out = evolve(psi, h, long)
        assert "spectrum" in vars(h)
        assert np.max(np.abs(out[::73] - _projection(psi, h, long[::73]))) <= 1e-12

    def test_a_vector_of_times_is_the_stacked_scalar_calls(self, rng):
        h, psi = random_pauli_sum(rng, 6, max_terms=12), random_state(rng, 6)
        for method in METHODS:
            rows = evolve(psi.amplitudes, h, TIMES, method, 3)
            single = np.array([evolve(psi.amplitudes, h, t, method, 3) for t in TIMES])
            if method == "exact":  # a shorter series for the smaller times
                assert np.max(np.abs(rows - single)) <= 1e-14
            else:
                assert np.array_equal(rows, single)
                direct = evolve_trotter(psi.amplitudes, h, TIMES, 3, int(method[-1]))
                assert np.array_equal(direct, single)
            states = evolve_enlarged(embed_state(psi), embed_hamiltonian(h), TIMES, method, 3)
            for state, t in zip(states, TIMES):
                one = evolve_enlarged(embed_state(psi), embed_hamiltonian(h), t, method, 3)
                assert np.max(np.abs(state.amplitudes - one.amplitudes)) <= (
                    1e-14 if method == "exact" else 0.0)

    def test_the_coefficients_sum_to_the_exponential(self, rng):
        # sum_k c_k(x) T_k(y) = exp(-ixy), with T_k(y) = cos(k arccos y).
        x = rng.uniform(-20.0, 20.0, size=64)
        terms = evolution._series_terms(np.max(np.abs(x)), 10**4)
        coeffs = evolution._chebyshev_coefficients(x, terms)
        for y in rng.uniform(-1.0, 1.0, size=16):
            chebyshev = np.cos(np.arange(terms) * np.arccos(y))
            assert np.max(np.abs(coeffs @ chebyshev - np.exp(-1j * x * y))) <= 1e-14

    @pytest.mark.parametrize("n", [2, 7], ids=["spectrum", "series"])
    def test_times_of_more_than_one_dimension_are_refused(self, rng, n):
        # a (1, 2) list of times: 2 qubits land on eigh's side of the switch,
        # 7 qubits with a few terms on the series' side
        h, psi = random_pauli_sum(rng, n, max_terms=5), random_state(rng, n).amplitudes
        for call in (evolve, evolve_exact):
            with pytest.raises(ValueError, match="one number or a 1-D sequence"):
                call(psi, h, [[0.1, 0.2]])

    def test_the_cost_switch_falls_back_to_the_spectrum(self, rng):
        # 2 qubits to t = 2.5: the series would need about 30 terms for 4 amplitudes.
        h, psi = random_pauli_sum(rng, 2), random_state(rng, 2).amplitudes
        out = evolve(psi, h, [0.3, 2.5])
        assert "spectrum" in vars(h)
        np.testing.assert_allclose(out, _projection(psi, h, [0.3, 2.5]), atol=1e-13)

    def test_an_empty_sum_is_the_identity_without_a_matrix(self, monkeypatch):
        h = PauliSum.from_terms([(0.4, "XZ"), (-0.4, "XZ")])
        assert h.terms == ()
        monkeypatch.setattr(PauliSum, "dense", lambda self: pytest.fail("dense built"))
        s = np.array([0.6, 0.0, 0.0, 0.8j])
        for method in METHODS:
            assert np.array_equal(evolve(s, h, [0.5, -3.0], method, 2), [s, s])

    def test_an_identity_only_sum_is_a_global_phase(self, rng):
        # H / sum|c| = I: every T_k(H / sum|c|) s is s itself.
        h, s = PauliSum.from_terms([(0.7, "IIIIIII")]), random_state(rng, 7).amplitudes
        out = evolve(s, h, TIMES)
        assert "spectrum" not in vars(h)
        np.testing.assert_allclose(out, np.exp(-0.7j * np.array(TIMES))[:, None] * s, atol=1e-14)

    def test_accumulates_without_a_terms_by_states_array(self):
        # 10 qubits and 8 times: beyond the dense matrix, the 8 rows, the
        # recurrence's three buffers and small coefficient arrays.
        h, times = _chain(10), [0.1 * (k + 1) for k in range(8)]
        s = np.zeros(1 << 10, dtype=complex)
        s[0] = s[-1] = 2**-0.5
        evolve_exact(s, h, times)  # builds the per-string kernels, which are kept
        dense = (1 << 10) ** 2 * 16
        assert _peak_bytes(lambda: evolve_exact(s, h, times)) - dense < (len(times) + 4) * s.nbytes
