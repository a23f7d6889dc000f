import numpy as np
import pytest
import itertools
import tracemalloc
import warnings

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
from embedsim import pauli
from embedsim.pauli import (
    KERNEL_CACHE_QUBITS, KERNEL_CACHE_SIZE, PHASE_RUN_TERMS, SINGLE_QUBIT, _build, _kernel,
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


def one_term(p: PauliString) -> PauliSum:
    return PauliSum.from_terms([(1.0, p)])


class TestKernel:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_short_string_applies_exactly(self, n, rng):
        for symbols in itertools.product("IXYZ", repeat=n):
            p = PauliString("".join(symbols))
            m = dense_matrix(p)
            for s in (random_real_state(rng, n), random_state(rng, n).amplitudes):
                assert np.array_equal(apply_pauli_sum(one_term(p), s), m @ s)

    def test_random_strings_apply_exactly(self, rng):
        for n in range(4, 11):
            for _ in range(3):
                p = PauliString("".join(rng.choice(list("IXYZ"), size=n)))
                m = dense_matrix(p)
                for s in (random_real_state(rng, n), random_state(rng, n).amplitudes):
                    assert np.array_equal(apply_pauli_sum(one_term(p), s), m @ s)

    def test_image_is_real_exactly_for_real_states_and_even_strings(self, rng):
        # Every image is complex128; its imaginary part is exactly 0 when the
        # state is real and the Y count even.
        s = random_real_state(rng, 3)
        even = apply_pauli_sum(one_term(PauliString("XYY")), s)
        odd = apply_pauli_sum(one_term(PauliString("XYZ")), s)
        assert even.dtype == odd.dtype == np.complex128
        assert not even.imag.any() and odd.imag.any()
        assert apply_pauli_sum(one_term(PauliString("XYY")), s + 0j).dtype == np.complex128

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

    @given(label=st.text(alphabet="IXYZ", min_size=1, max_size=8), seed=st.integers(0, 2**32 - 1))
    def test_only_y_and_z_labels_are_signed(self, label, seed):
        k, rng = _kernel(label), np.random.default_rng(seed)
        assert k.signed == bool(set(label) & set("YZ"))
        assert k.signed or (k.signs == 1).all()
        for s in (random_real_state(rng, len(label)), random_state(rng, len(label)).amplitudes):
            flipped = (k.signs * s.reshape(k.signs.shape)[k.axes]).reshape(-1)
            assert np.array_equal(k.image(s, np.empty_like(s)), flipped)

    @given(label=st.text(alphabet="IX", min_size=1, max_size=8), seed=st.integers(0, 2**32 - 1))
    def test_a_sign_free_image_is_a_flipped_copy(self, label, seed):
        # Bitwise signs * flip(s), and every reader of it bitwise what the
        # signed branch gives.
        p, k, rng = PauliString(label), _kernel(label), np.random.default_rng(seed)
        h = PauliSum.from_terms([(float(rng.uniform(-2.0, 2.0)), label)])
        signed = {label: k._replace(signed=True)}
        for s in (random_real_state(rng, p.n), random_state(rng, p.n).amplitudes):
            image = k.image(s, np.empty_like(s))
            assert np.array_equal(image, (k.signs * s.reshape(k.signs.shape)[k.axes]).reshape(-1))
            assert np.max(np.abs(k.phase * image - dense_matrix(p) @ s)) <= 1e-15
            applied, read = apply_pauli_sum(h, s), expectation(s, h)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pauli, "_kernel", signed.__getitem__)
                assert np.array_equal(apply_pauli_sum(h, s), applied)
                assert expectation(s, h) == read

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


class TestPauliSum:
    def test_merges_duplicates_and_drops_zeros(self):
        s = PauliSum.from_terms([(1.0, "XY"), (2.0, "XY"), (1.0, "ZZ"), (-1.0, "ZZ")])
        assert s.to_records() == [{"coeff": 3.0, "pauli": "XY"}]

    def test_rejects_complex_coefficients(self):
        with pytest.raises(ValueError):
            PauliSum.from_terms([(1.0 + 0.5j, "X")])

    @pytest.mark.parametrize("ctype", [np.complex64, np.complex128, np.clongdouble])
    def test_rejects_numpy_complex_coefficients(self, ctype):
        # its imaginary part is refused, not cast away with a ComplexWarning
        with pytest.raises(ValueError, match="coefficients must be real"):
            PauliSum.from_terms([(ctype(1 + 2j), "XZ")])

    def test_keeps_a_numpy_complex_coefficient_with_no_imaginary_part_as_real(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ((coeff, string),) = PauliSum.from_terms([(np.complex64(0.5 + 0j), "XZ")]).terms
        assert (type(coeff), coeff, string) == (float, 0.5, PauliString("XZ"))

    def test_keeps_a_complex_coefficient_with_no_imaginary_part_as_real(self):
        ((coeff, string),) = PauliSum.from_terms([(2.0 + 0j, "XY")]).terms
        assert (type(coeff), coeff, string) == (float, 2.0, PauliString("XY"))

    def test_rejects_zero_qubits(self):
        with pytest.raises(ValueError, match="qubit count must be >= 1"):
            PauliSum(0, ())
        with pytest.raises(ValueError, match="qubit count required"):
            PauliSum.from_terms([])

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

    def test_phase_runs_fuse_the_diagonal_terms_of_a_run(self, rng):
        n = 5
        xs = [(float(rng.uniform(-1, 1)), "I" * i + "X" + "I" * (n - i - 1)) for i in range(n)]
        zzs = [(float(rng.uniform(-1, 1)), "I" * i + "ZZ" + "I" * (n - i - 2)) for i in range(n - 1)]
        zs = [(float(rng.uniform(-1, 1)), "I" * i + "Z" + "I" * (n - i - 1)) for i in range(n)]
        h = PauliSum.from_terms(xs + zzs + [(0.3, "YYYYY")] + zs)
        assert [len(run) for run in h.commuting_runs] == [n, n, n]
        runs = h._phase_runs
        assert runs is h._phase_runs
        assert runs[0] == (None, h.commuting_runs[0])
        for (d, rest), run in zip(runs[1:], h.commuting_runs[1:]):
            diagonal = [(c, p) for c, p in run if set(p.symbols) <= set("IZ")]
            assert rest == tuple(t for t in run if t not in diagonal)
            assert d.dtype == np.float64 and not d.flags.writeable
            assert np.max(np.abs(d - np.diag(PauliSum.from_terms(diagonal).dense()).real)) <= 1e-15
            with pytest.raises(ValueError):
                d[0] = 0.0

    def test_runs_of_few_diagonal_terms_and_long_registers_are_not_fused(self):
        def fields(n, count):
            return PauliSum.from_terms([(0.1 * (j + 1), "I" * j + "Z" + "I" * (n - j - 1))
                                        for j in range(count)], n=n)

        for h in (fields(PHASE_RUN_TERMS, PHASE_RUN_TERMS - 1),
                  fields(KERNEL_CACHE_QUBITS + 1, KERNEL_CACHE_QUBITS + 1)):
            assert h._phase_runs == ((None, h.terms),)
        assert fields(KERNEL_CACHE_QUBITS, PHASE_RUN_TERMS)._phase_runs[0][0] is not None

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

    def test_real_states_apply_only_even_terms(self, rng):
        # An odd-Y term of a real state adds exactly 0 to the real part, so
        # a sum reads bitwise as its even part alone.
        v = random_real_state(rng, 3)
        assert expectation(v, PauliSum.from_terms([(0.5, "XYZ"), (1.0, "YII")])) == 0.0
        mixed = PauliSum.from_terms([(0.5, "XYZ"), (1.0, "YYI"), (-0.25, "ZIX")])
        even = PauliSum.from_terms([(1.0, "YYI"), (-0.25, "ZIX")])
        value = expectation(v, mixed)
        assert value == expectation(v, even)
        assert value == pytest.approx((v @ mixed.dense() @ v).real, abs=1e-14)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            h = random_pauli_sum(rng, n, max_terms=6)
            v = random_real_state(rng, n)
            odd = PauliSum(n, tuple(t for t in h.terms if y_parity(t[1]) == "odd"))
            even = PauliSum(n, tuple(t for t in h.terms if y_parity(t[1]) == "even"))
            assert expectation(v, odd) == 0.0
            assert expectation(v, h) == expectation(v, even)

    def test_a_real_read_keeps_one_scratch_buffer(self):
        # Three terms on 2^15 real amplitudes: the scratch buffer and the
        # int8 kernels, below two state sizes.
        v = np.random.default_rng(3).standard_normal(1 << 15)
        v /= np.linalg.norm(v)
        h = PauliSum.from_terms([(0.5, "XZ" * 7 + "Y"), (1.0, "Z" * 15), (-0.25, "YY" + "X" * 13)])
        tracemalloc.start()
        try:
            expectation(v, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * v.nbytes

    def test_list_and_integer_states_read(self):
        one = PauliSum.from_terms([(0.5, "Z"), (0.2, "X")])
        two = PauliSum.from_terms([(1.0, "XY"), (0.5, "ZZ"), (0.25, "YY")])
        for state, h, value in [
            ([1, 0], one, 0.5), ([0, 1], one, -0.5), (np.array([1, 0]), one, 0.5),
            ([1.0, 0.0], one, 0.5), ([1j, 0], one, 0.5),
            ([0, 1, 1, 0], two, -0.5), (np.array([1, 1, 1, 1]), two, 0.0),
        ]:
            result = expectation(state, h)
            assert type(result) is float and result == value

    def test_large_coefficients_are_hermitian(self, rng):
        # The imaginary rounding residue grows with sum |c|; a fixed bound
        # rejected most of these valid Hermitian sums.
        for _ in range(50):
            h = random_pauli_sum(rng, 8, max_terms=8)
            h = PauliSum.from_terms([(c * 1e5, p) for c, p in h.terms], n=8)
            v = random_state(rng, 8).amplitudes
            expected = (v.conj() @ h.dense() @ v).real
            assert expectation(v, h) == pytest.approx(expected, rel=1e-9, abs=1e-7)

    def test_a_state_of_large_norm_is_read_as_hermitian(self):
        # The imaginary rounding residue grows with <s|s> too: on this vector
        # scaled by 1e9 it is about 43, far above 1e-12 * sum |c|.
        rng = np.random.default_rng(0)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        h = PauliSum.from_terms([(1.0, "XY"), (0.5, "YZ")])
        assert expectation(v * 1e9, h) == pytest.approx(1e18 * expectation(v, h), rel=1e-12)


class TestStates:
    def test_pure_state_norm_enforced(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]))

    def test_from_amplitudes_renormalizes(self):
        s = PureState.from_amplitudes([1.0 + 1e-9, 0.0])
        assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("arr", [np.eye(2) / np.sqrt(2), np.array([[1.0, 0.0]]),
                                     np.array(1.0)], ids=["2x2", "1x2", "scalar"])
    def test_a_state_is_one_axis(self, arr):
        # a (2, 2) array has the 4 entries of a 2-qubit vector
        for make in (PureState, PureState.from_amplitudes):
            with pytest.raises(DimensionError, match="expected one axis"):
                make(arr)

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

    def test_mixed_state_beyond_the_dense_cap_is_refused_before_allocating(self, monkeypatch):
        v = np.zeros(1 << 14, dtype=complex)
        v[0] = 1.0
        psi = PureState(v)

        def no_outer(*args, **kwargs):
            pytest.fail("a 4^N matrix was built before the cap was checked")

        monkeypatch.setattr(np, "outer", no_outer)
        with pytest.raises(CapacityError, match="capped"):
            MixedState.from_ensemble([(1.0, psi)])
