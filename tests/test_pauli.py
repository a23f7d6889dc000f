import numpy as np
import pytest
import itertools

from hypothesis import given
from hypothesis import strategies as st

import embedsim

from embedsim import (
    CapacityError,
    DimensionError,
    MixedState,
    PauliString,
    PauliSum,
    PureState,
    apply_pauli_sum,
    dense_matrix,
    expectation,
    y_parity,
)
from embedsim.pauli import (
    KERNEL_CACHE_QUBITS, KERNEL_CACHE_SIZE, SINGLE_QUBIT, _apply_string, _build, _kernel,
)

from conftest import random_pauli_sum, random_real_state, random_state

pauli_labels = st.text(alphabet="IXYZ", min_size=1, max_size=6)


def tensor_oracle(symbols):
    """Index-by-index tensor construction, independent of np.kron."""
    n = len(symbols)
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            val = 1.0 + 0.0j
            for q, c in enumerate(symbols):
                bi = (i >> (n - 1 - q)) & 1
                bj = (j >> (n - 1 - q)) & 1
                val *= SINGLE_QUBIT[c][bi, bj]
            out[i, j] = val
    return out


class TestDenseMatrix:
    def test_identity(self):
        assert np.array_equal(dense_matrix(PauliString("I")), np.eye(2))

    def test_y(self):
        expected = np.array([[0, -1j], [1j, 0]])
        assert np.array_equal(dense_matrix(PauliString("Y")), expected)

    def test_xy_against_tensor_oracle(self):
        assert np.array_equal(dense_matrix(PauliString("XY")), tensor_oracle("XY"))

    @pytest.mark.parametrize("label", ["XYZ", "ZZI", "YIY", "IXZY"])
    def test_multiqubit_against_tensor_oracle(self, label):
        np.testing.assert_allclose(
            dense_matrix(PauliString(label)), tensor_oracle(label), atol=0
        )

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            dense_matrix(PauliString("I" * 14))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_short_string_is_exact(self, n):
        for symbols in itertools.product("IXYZ", repeat=n):
            label = "".join(symbols)
            oracle = tensor_oracle(label)
            assert np.array_equal(dense_matrix(PauliString(label)), oracle)
            assert np.array_equal(PauliSum.from_terms([(1.0, label)]).dense(), oracle)

    @given(pauli_labels)
    def test_hermitian_unitary_traceless(self, label):
        m = dense_matrix(PauliString(label))
        assert np.array_equal(m, m.conj().T)
        np.testing.assert_allclose(m @ m, np.eye(m.shape[0]), atol=1e-14)
        if set(label) != {"I"}:
            assert abs(np.trace(m)) < 1e-14

    @given(pauli_labels)
    def test_real_imaginary_dichotomy(self, label):
        m = dense_matrix(PauliString(label))
        if y_parity(PauliString(label)) == "even":
            assert np.max(np.abs(m.imag)) == 0
        else:
            assert np.max(np.abs(m.real)) == 0


class TestKernel:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_short_string_applies_exactly(self, n, rng):
        for symbols in itertools.product("IXYZ", repeat=n):
            p = PauliString("".join(symbols))
            m = dense_matrix(p)
            for s in (random_real_state(rng, n), random_state(rng, n).amplitudes):
                assert np.array_equal(_apply_string(p, s), m @ s)

    def test_random_strings_apply_exactly(self, rng):
        for n in range(4, 11):
            for _ in range(3):
                p = PauliString("".join(rng.choice(list("IXYZ"), size=n)))
                m = dense_matrix(p)
                for s in (random_real_state(rng, n), random_state(rng, n).amplitudes):
                    assert np.array_equal(_apply_string(p, s), m @ s)

    def test_image_is_real_exactly_for_real_states_and_even_strings(self, rng):
        s = random_real_state(rng, 3)
        assert _apply_string(PauliString("XYY"), s).dtype == np.float64
        assert _apply_string(PauliString("XYZ"), s).dtype == np.complex128
        assert _apply_string(PauliString("XYY"), s + 0j).dtype == np.complex128

    def test_one_bounded_entry_per_label(self):
        a, b = PauliString("XYZIY"), PauliString("XYZIY")
        assert a is not b
        first = _kernel(a.symbols)
        hits = _build.cache_info().hits
        assert _kernel(b.symbols) is first
        assert _build.cache_info().hits == hits + 1
        for label in itertools.islice(itertools.product("IXYZ", repeat=5), 2 * KERNEL_CACHE_SIZE):
            _kernel("".join(label))
        assert _build.cache_info().maxsize == KERNEL_CACHE_SIZE
        assert _build.cache_info().currsize <= KERNEL_CACHE_SIZE

    def test_long_labels_are_not_kept(self):
        label = "XY" + "Z" * (KERNEL_CACHE_QUBITS - 1)
        kept = _build.cache_info().currsize
        assert _kernel(label) is not _kernel(label)
        assert _build.cache_info().currsize == kept
        assert KERNEL_CACHE_SIZE << KERNEL_CACHE_QUBITS <= 16 << 20  # bytes of signs kept

    def test_signs_are_read_only_int8(self):
        signs = _kernel("XYZIY").signs
        assert signs.dtype == np.int8 and signs.size == 2**5
        assert not signs.flags.writeable
        with pytest.raises(ValueError):
            signs[(0,) * 5] = 1


class TestYParity:
    @pytest.mark.parametrize(
        "label,parity", [("XY", "odd"), ("YY", "even"), ("XZ", "even"), ("Y", "odd")]
    )
    def test_cases(self, label, parity):
        assert y_parity(PauliString(label)) == parity


class TestPauliString:
    def test_rejects_bad_symbols(self):
        with pytest.raises(ValueError):
            PauliString("XQ")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PauliString("")

    def test_weight(self):
        assert PauliString("IXYI").weight == 2


class TestPauliSum:
    def test_merges_duplicates_and_drops_zeros(self):
        s = PauliSum.from_terms([(1.0, "XY"), (2.0, "XY"), (1.0, "ZZ"), (-1.0, "ZZ")])
        assert s.to_records() == [{"coeff": 3.0, "pauli": "XY"}]

    def test_rejects_complex_coefficients(self):
        with pytest.raises(ValueError):
            PauliSum.from_terms([(1.0 + 0.5j, "X")])

    def test_rejects_mixed_lengths(self):
        with pytest.raises(DimensionError):
            PauliSum.from_terms([(1.0, "X"), (1.0, "XY")])

    @pytest.mark.parametrize("terms", [
        [(float("nan"), "X")],
        [(float("inf"), "X")],
        [(1e308, "XY"), (1e308, "XY")],  # finite terms that merge to inf
    ], ids=["nan", "inf", "merged-overflow"])
    def test_rejects_non_finite_coefficients(self, terms):
        with pytest.raises(ValueError, match="finite"):
            PauliSum.from_terms(terms)

    def test_dense_hermitian(self, rng):
        for _ in range(20):
            m = random_pauli_sum(rng, 3).dense()
            np.testing.assert_allclose(m, m.conj().T, atol=0)

    def test_dense_matches_kron_reference(self, rng):
        for n in range(1, 9):
            for _ in range(5):
                h = random_pauli_sum(rng, n, max_terms=12)
                ref = np.zeros((1 << n, 1 << n), dtype=complex)
                for coeff, string in h.terms:
                    term = np.ones((1, 1), dtype=complex)
                    for c in string.symbols:
                        term = np.kron(term, SINGLE_QUBIT[c])
                    ref += coeff * term
                np.testing.assert_allclose(h.dense(), ref, rtol=0, atol=1e-14)

    def test_spectrum_cached_and_read_only(self, rng):
        h = random_pauli_sum(rng, 3)
        evals, vecs = h.spectrum
        assert h.spectrum[1] is vecs
        np.testing.assert_allclose((vecs * evals) @ vecs.conj().T, h.dense(), atol=1e-12)
        with pytest.raises(ValueError):
            vecs[0, 0] = 0.0

    def test_spectrum_leaves_equality_and_hash(self, rng):
        h = random_pauli_sum(rng, 3)
        fresh = PauliSum.from_records(h.to_records(), n=3)
        h.spectrum
        assert h == fresh and hash(h) == hash(fresh)

    def test_serialization_roundtrip(self):
        s = PauliSum.from_terms([(0.5, "XYZ"), (-1.25, "IIZ")])
        assert PauliSum.from_records(s.to_records()).terms == s.terms

    def test_commuting_runs_of_the_chain(self):
        n = 6
        bonds = [(0.4, "I" * i + "XX" + "I" * (n - i - 2)) for i in range(n - 1)]
        fields = [(0.3, "I" * i + "Z" + "I" * (n - i - 1)) for i in range(n)]
        h = PauliSum.from_terms(bonds + fields)
        assert h.commuting_runs == (h.terms[:n - 1], h.terms[n - 1:])
        assert h.commuting_runs is h.commuting_runs
        assert PauliSum(n=2, terms=()).commuting_runs == ()

    def test_commuting_runs_are_maximal_and_commute(self, rng):
        def commute(a, b):
            da, db = dense_matrix(a), dense_matrix(b)
            return np.array_equal(da @ db, db @ da)

        for _ in range(40):
            h = random_pauli_sum(rng, 3, max_terms=8)
            runs = h.commuting_runs
            assert tuple(t for run in runs for t in run) == h.terms
            for run in runs:
                assert all(commute(a, b) for (_, a), (_, b) in itertools.combinations(run, 2))
            for run, (_, head) in zip(runs, (nxt[0] for nxt in runs[1:])):
                assert not all(commute(p, head) for _, p in run)


class TestApplyPauliSum:
    def test_z_eigenstate(self):
        s = np.array([1.0, 0.0], dtype=complex)
        out = apply_pauli_sum(PauliSum.from_terms([(1.0, "Z")]), s)
        assert np.array_equal(out, s)

    def test_x_bit_flip(self):
        s = np.array([1.0, 0.0], dtype=complex)
        out = apply_pauli_sum(PauliSum.from_terms([(1.0, "X")]), s)
        assert np.array_equal(out, np.array([0.0, 1.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            apply_pauli_sum(PauliSum.from_terms([(1.0, "XX")]), np.zeros(2))

    def test_matches_dense_on_seeded_cases(self, rng):
        # >= 100 seeded random 2- and 3-qubit instances against the dense oracle
        for n in (2, 3):
            for _ in range(60):
                h = random_pauli_sum(rng, n)
                psi = random_state(rng, n)
                np.testing.assert_allclose(
                    apply_pauli_sum(h, psi.amplitudes),
                    h.dense() @ psi.amplitudes,
                    atol=1e-12,
                )


class TestExpectation:
    def test_z_on_zero(self):
        assert expectation(np.array([1.0, 0.0]), PauliSum.from_terms([(1.0, "Z")])) == 1.0

    def test_x_on_plus(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        assert expectation(plus, PauliSum.from_terms([(1.0, "X")])) == pytest.approx(1.0)

    def test_matches_dense_quadratic_form(self, rng):
        for _ in range(50):
            h = random_pauli_sum(rng, 3)
            psi = random_state(rng, 3)
            v = psi.amplitudes
            expected = (v.conj() @ h.dense() @ v).real
            assert expectation(psi, h) == pytest.approx(expected, abs=1e-12)


    def test_real_states_match_dense_quadratic_form(self, rng):
        for _ in range(50):
            h = random_pauli_sum(rng, 4, max_terms=6)
            v = random_real_state(rng, 4)
            expected = (v @ h.dense() @ v).real
            assert expectation(v, h) == pytest.approx(expected, abs=1e-14)

    def test_real_states_apply_only_even_terms(self, rng, monkeypatch):
        applied = []
        original = embedsim.pauli.apply_pauli_sum
        monkeypatch.setattr(embedsim.pauli, "apply_pauli_sum",
                            lambda h, s: applied.append(h) or original(h, s))
        v = random_real_state(rng, 3)
        assert expectation(v, PauliSum.from_terms([(0.5, "XYZ"), (1.0, "YII")])) == 0.0
        assert [h.terms for h in applied] == [()]
        applied.clear()
        mixed = PauliSum.from_terms([(0.5, "XYZ"), (1.0, "YYI"), (-0.25, "ZIX")])
        value = expectation(v, mixed)
        assert [h.to_records() for h in applied] == [[
            {"coeff": 1.0, "pauli": "YYI"}, {"coeff": -0.25, "pauli": "ZIX"},
        ]]
        assert value == pytest.approx((v @ mixed.dense() @ v).real, abs=1e-14)

    def test_large_coefficients_are_hermitian(self, rng):
        # The imaginary rounding residue grows with sum |c|; a fixed bound
        # rejected most of these valid Hermitian sums.
        for _ in range(50):
            h = random_pauli_sum(rng, 8, max_terms=8)
            h = PauliSum.from_terms([(c * 1e5, p) for c, p in h.terms], n=8)
            v = random_state(rng, 8).amplitudes
            expected = (v.conj() @ h.dense() @ v).real
            assert expectation(v, h) == pytest.approx(expected, rel=1e-9, abs=1e-7)


class TestStates:
    def test_pure_state_norm_enforced(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]))

    def test_from_amplitudes_renormalizes(self):
        s = PureState.from_amplitudes([1.0 + 1e-9, 0.0])
        assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0, abs=1e-15)

    def test_pure_state_immutable(self):
        s = PureState(np.array([1.0, 0.0], dtype=complex))
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.5

    def test_mixed_state_validation(self):
        with pytest.raises(ValueError):
            MixedState(np.array([[0.5, 0.3], [0.2, 0.5]]))  # not Hermitian
        with pytest.raises(ValueError):
            MixedState(np.array([[1.5, 0.0], [0.0, -0.5]]))  # not PSD
        with pytest.raises(ValueError):
            MixedState(np.eye(2))  # trace 2

    @pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_entries_rejected(self, entry):
        with pytest.raises(ValueError):
            PureState(np.array([entry, 0.0]))
        with pytest.raises(ValueError):
            PureState.from_amplitudes([entry, 0.0])
        with pytest.raises(ValueError):
            MixedState(np.array([[1.0, entry], [entry, 0.0]]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_entries_near_the_float_range_are_rejected_without_a_warning(self):
        big = np.array([1e300, 0.0, 0.0, 1.0])
        for make in (PureState, PureState.from_amplitudes, embedsim.EnlargedState):
            with pytest.raises(ValueError, match="inf"):
                make(big)
        with pytest.raises(ValueError, match="Hermitian"):
            MixedState(np.array([[0.5, 1.7e308], [-1.7e308, 0.5]]))

    def test_mixed_state_from_ensemble(self, rng):
        psi = random_state(rng, 2)
        phi = random_state(rng, 2)
        rho = MixedState.from_ensemble([(0.25, psi), (0.75, phi)])
        assert np.trace(rho.matrix).real == pytest.approx(1.0)
