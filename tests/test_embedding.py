import numpy as np
import pytest

from embedsim import (
    DimensionError,
    EmbeddedHamiltonian,
    EnlargedState,
    NumericalIntegrityError,
    PauliString,
    PauliSum,
    PureState,
    conjugation_gate,
    dense_matrix,
    embed_hamiltonian,
    embed_observable,
    embed_state,
    split_hamiltonian,
    unembed_state,
    unembedding_matrix,
    y_parity,
)
from embedsim.pauli import apply_pauli_sum

from conftest import random_pauli_sum, random_state


def test_embed_real_state_upper_block():
    tilde = embed_state(PureState(np.array([1.0, 0.0], dtype=complex)))
    assert np.array_equal(tilde.amplitudes, [1.0, 0.0, 0.0, 0.0])


def test_embed_layout_interleaving():
    # (a+bi, c+di) -> (a, c, b, d)
    a, b, c, d = 0.1, 0.2, 0.3, np.sqrt(1 - 0.14)
    tilde = embed_state(PureState(np.array([a + 1j * b, c + 1j * d])))
    np.testing.assert_allclose(tilde.amplitudes, [a, c, b, d], atol=0)


def test_embed_hand_expansion():
    tilde = embed_state(PureState(np.array([(1 + 1j) / 2, (1 - 1j) / 2])))
    np.testing.assert_allclose(tilde.amplitudes, [0.5, 0.5, 0.5, -0.5], atol=0)
    assert np.linalg.norm(tilde.amplitudes) == pytest.approx(1.0)


def test_unembed_examples():
    psi = unembed_state(EnlargedState(np.array([1.0, 0.0, 0.0, 0.0])))
    assert np.array_equal(psi.amplitudes, [1.0, 0.0])
    psi = unembed_state(EnlargedState(np.array([0.5, 0.5, 0.5, -0.5])))
    np.testing.assert_allclose(psi.amplitudes, [(1 + 1j) / 2, (1 - 1j) / 2], atol=0)


def test_unembed_preserves_norm_on_all_valid_inputs(rng):
    # ||re||^2 + ||im||^2 = 1 makes the collapsed vector unit-norm for every
    # valid enlarged state, so unembed_state does not renormalise it.
    for _ in range(30):
        v = rng.normal(size=8)
        tilde = EnlargedState(v / np.linalg.norm(v))
        assert np.linalg.norm(unembed_state(tilde).amplitudes) == pytest.approx(
            1.0, abs=1e-14
        )


def test_roundtrip_seeded(rng):
    for _ in range(100):
        n = int(rng.integers(1, 4))
        psi = random_state(rng, n)
        back = unembed_state(embed_state(psi))
        np.testing.assert_allclose(back.amplitudes, psi.amplitudes, atol=1e-14)


def test_norm_preserved_exactly(rng):
    for _ in range(20):
        psi = random_state(rng, 2)
        # identical up to summation-order roundoff
        assert np.linalg.norm(embed_state(psi).amplitudes) == pytest.approx(
            np.linalg.norm(psi.amplitudes), abs=1e-15
        )


class TestConjugationGate:
    def test_single_qubit_form(self):
        gate = conjugation_gate(1)
        assert gate.to_records() == [{"coeff": 1.0, "pauli": "ZI"}]

    def test_conjugates_amplitudes(self):
        psi = PureState(np.array([(1 + 1j) / 2, (1 - 1j) / 2]))
        tilde = embed_state(psi)
        flipped = apply_pauli_sum(conjugation_gate(1), tilde.amplitudes)
        conj = unembed_state(EnlargedState(flipped))
        np.testing.assert_allclose(conj.amplitudes, psi.amplitudes.conj(), atol=1e-14)

    def test_real_states_are_fixed_points(self):
        psi = PureState(np.array([0.6, 0.8], dtype=complex))
        tilde = embed_state(psi)
        flipped = apply_pauli_sum(conjugation_gate(1), tilde.amplitudes)
        np.testing.assert_allclose(flipped.real, tilde.amplitudes, atol=0)

    def test_conjugation_property_seeded(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 4))
            psi = random_state(rng, n)
            flipped = apply_pauli_sum(conjugation_gate(n), embed_state(psi).amplitudes)
            conj = unembed_state(EnlargedState(flipped))
            np.testing.assert_allclose(conj.amplitudes, psi.amplitudes.conj(), atol=1e-14)


class TestSplitHamiltonian:
    def test_real_hamiltonian(self):
        a, ib = split_hamiltonian(PauliSum.from_terms([(1.0, "XZ")]))
        assert a.to_records() == [{"coeff": 1.0, "pauli": "XZ"}]
        assert ib.terms == ()

    def test_imaginary_hamiltonian(self):
        a, ib = split_hamiltonian(PauliSum.from_terms([(1.0, "XY")]))
        assert a.terms == ()
        assert ib.to_records() == [{"coeff": 1.0, "pauli": "XY"}]

    def test_worked_example_split(self):
        h = PauliSum.from_terms([(1.0, "XY"), (1.0, "XZ")])
        a, ib = split_hamiltonian(h)
        assert a.to_records() == [{"coeff": 1.0, "pauli": "XZ"}]
        assert ib.to_records() == [{"coeff": 1.0, "pauli": "XY"}]

    def test_parts_reconstruct(self, rng):
        for _ in range(20):
            h = random_pauli_sum(rng, 3)
            a, ib = split_hamiltonian(h)
            np.testing.assert_allclose(a.dense() + ib.dense(), h.dense(), atol=0)
            # dense forms: A real symmetric, iB purely imaginary
            assert np.max(np.abs(a.dense().imag)) == 0
            assert np.max(np.abs(ib.dense().real)) == 0


class TestEmbedHamiltonian:
    def test_worked_example(self):
        h = PauliSum.from_terms([(1.0, "XY"), (1.0, "XZ")])
        tilde = embed_hamiltonian(h)
        records = sorted(tilde.operator.to_records(), key=lambda r: r["pauli"])
        assert records == [
            {"coeff": 1.0, "pauli": "IXY"},
            {"coeff": -1.0, "pauli": "YXZ"},
        ]

    def test_single_z(self):
        tilde = embed_hamiltonian(PauliSum.from_terms([(1.0, "Z")]))
        assert tilde.operator.to_records() == [{"coeff": -1.0, "pauli": "YZ"}]
        # dense check of the defining relation H M = M H_tilde
        m = unembedding_matrix(1)
        h = dense_matrix(PauliString("Z"))
        np.testing.assert_allclose(h @ m, m @ tilde.operator.dense(), atol=1e-12)

    def test_zero_map(self):
        tilde = embed_hamiltonian(PauliSum(n=2, terms=()))
        assert tilde.operator.terms == ()

    def test_embedded_terms_rejected_if_even(self):
        with pytest.raises(ValueError):
            EmbeddedHamiltonian(PauliSum.from_terms([(1.0, "XZ")]))

    def test_embedded_terms_rejected_unless_the_ancilla_is_i_or_y(self):
        for label in ("XY", "ZYI"):
            with pytest.raises(ValueError, match="ancilla"):
                EmbeddedHamiltonian(PauliSum.from_terms([(1.0, label)]))

    def test_sector_is_the_generator_on_the_plus_y_eigenspace(self, rng):
        for n in (1, 2, 3):
            basis = np.kron(np.array([[1.0], [1.0j]]) / np.sqrt(2), np.eye(1 << n))
            for _ in range(10):
                h = random_pauli_sum(rng, n)
                tilde = embed_hamiltonian(h)
                image = tilde.operator.dense() @ basis
                np.testing.assert_allclose(basis.conj().T @ image, tilde.sector.dense(), atol=1e-12)
                np.testing.assert_allclose(image, basis @ (basis.conj().T @ image), atol=1e-12)
                np.testing.assert_allclose(tilde.sector.dense(), -h.dense().conj(), atol=1e-12)

    def test_intertwining_seeded(self, rng):
        # >= 100 random Hermitian sums on 2-3 qubits
        for n in (2, 3):
            m = unembedding_matrix(n)
            for _ in range(55):
                h = random_pauli_sum(rng, n)
                tilde = embed_hamiltonian(h)
                np.testing.assert_allclose(
                    h.dense() @ m, m @ tilde.operator.dense(), atol=1e-12
                )

    def test_imaginarity(self, rng):
        for _ in range(25):
            h = random_pauli_sum(rng, 2)
            tilde = embed_hamiltonian(h)
            assert all(y_parity(p) == "odd" for _, p in tilde.operator.terms)
            assert np.max(np.abs(tilde.operator.dense().real)) == 0

    def test_body_count_overhead(self, rng):
        # n-local terms map to at most (n+1)-local terms
        for _ in range(25):
            h = random_pauli_sum(rng, 4)
            weights = {p.symbols[1:]: p.weight for _, p in embed_hamiltonian(h).operator.terms}
            for _, p in h.terms:
                assert weights[p.symbols] <= p.weight + 1


class TestEmbedObservable:
    def test_yy_payload(self):
        oz, ox = embed_observable(PauliSum.from_terms([(1.0, "YY")]))
        assert oz.to_records() == [{"coeff": 1.0, "pauli": "ZYY"}]
        assert ox.to_records() == [{"coeff": 1.0, "pauli": "XYY"}]

    def test_identity_payload(self):
        oz, ox = embed_observable(PauliSum.from_terms([(1.0, "I")]))
        assert oz.to_records() == [{"coeff": 1.0, "pauli": "ZI"}]
        assert ox.to_records() == [{"coeff": 1.0, "pauli": "XI"}]

    def test_dense_identity(self):
        # M^dag O M (Z (x) I) = dense(Oz) - i dense(Ox)
        o = PauliSum.from_terms([(1.0, "X")])
        oz, ox = embed_observable(o)
        m = unembedding_matrix(1)
        k_tilde = conjugation_gate(1).dense()
        lhs = m.conj().T @ o.dense() @ m @ k_tilde
        np.testing.assert_allclose(lhs, oz.dense() - 1j * ox.dense(), atol=1e-14)

    def test_dense_identity_seeded(self, rng):
        for _ in range(20):
            o = random_pauli_sum(rng, 2)
            oz, ox = embed_observable(o)
            m = unembedding_matrix(2)
            k_tilde = conjugation_gate(2).dense()
            lhs = m.conj().T @ o.dense() @ m @ k_tilde
            np.testing.assert_allclose(lhs, oz.dense() - 1j * ox.dense(), atol=1e-12)


class TestEnlargedState:
    def test_rejects_large_imaginary_residue(self):
        v = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        v[1] = 1e-6j
        with pytest.raises(NumericalIntegrityError):
            EnlargedState(v)

    def test_truncates_small_residue(self):
        v = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex) + 1e-13j
        s = EnlargedState(v)
        assert not np.iscomplexobj(s.amplitudes)

    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            EnlargedState(np.array([1.0, 1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("size", [1, 2, 3, 6, 12])
    def test_length_is_a_power_of_two_of_at_least_4(self, size):
        # pauli._qubit_count owns the power-of-two rule; N >= 1 sets the floor.
        v = np.zeros(size)
        v[0] = 1.0
        with pytest.raises(DimensionError, match=f"length {size} "):
            EnlargedState(v)
