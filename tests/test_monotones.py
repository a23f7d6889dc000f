import dataclasses

import numpy as np
import pytest

import embedsim
from embedsim import monotones
from embedsim import (
    MonotoneSpec,
    PauliSum,
    PureState,
    antilinear_expectation_direct,
    concurrence,
    concurrence_spec,
    embed_state,
    evaluate_monotone,
    evolve_exact,
    expand_to_observables,
    expectation,
    n_qubit_spec,
    second_order_spec,
    three_tangle,
    three_tangle_spec,
    tomography_baseline,
)
from embedsim.monotones import (
    MONOTONE_PRESETS,
    EmbeddedEvaluator,
    MonotoneValue,
    _expansion,
    _signed_sum,
    _signed_sum_derivative,
    contract,
)

from conftest import (
    random_product_state,
    random_pauli_sum,
    random_single_qubit_unitary,
    random_state,
)

BELL = PureState(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
GHZ = PureState(np.array([1, 0, 0, 0, 0, 0, 0, 1]) / np.sqrt(2))
W = PureState(np.array([0, 1, 1, 0, 1, 0, 0, 0]) / np.sqrt(3))
ZERO2 = PureState(np.eye(4)[0].astype(complex))
ZERO3 = PureState(np.eye(8)[0].astype(complex))


def brute_force_antilinear(psi, symbols):
    """<psi|O|psi*> from an explicit dense loop; independent oracle."""
    from embedsim.pauli import SINGLE_QUBIT

    mat = SINGLE_QUBIT[symbols[0]]
    for c in symbols[1:]:
        mat = np.kron(mat, SINGLE_QUBIT[c])
    v = psi.amplitudes
    return complex(v.conj() @ mat @ v.conj())


def embedded_antilinear(psi, o):
    """<Z(x)O> - i <X(x)O> on the embedding of psi, from the one-image pair read."""
    z, w = monotones._pair_readings(embed_state(psi), (o,))
    return complex(z, -w)


class TestMonotoneSpec:
    def test_degree(self):
        assert concurrence_spec().degree == 0
        assert three_tangle_spec().degree == 1
        assert second_order_spec().degree == 2

    def test_serialization_roundtrip(self):
        for spec in (concurrence_spec(), three_tangle_spec(), second_order_spec()):
            assert MonotoneSpec.from_json(spec.to_json()) == spec

    def test_malformed_contractions_rejected(self):
        with pytest.raises(ValueError):
            MonotoneSpec("bad", 2, ((0, "Y"), (0, "Y")), ((0, 0),))
        with pytest.raises(ValueError):
            MonotoneSpec("bad", 2, ((0, "Y"),), ((0, 1),))
        with pytest.raises(ValueError):
            MonotoneSpec("bad", 2, ((0, 1),), ())

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError, match="n_qubits"):
            MonotoneSpec("none", 0, (("Y",),))

    def test_empty_factors_rejected(self):
        with pytest.raises(ValueError):
            MonotoneSpec("constant", 2, ())

    def test_bad_slots_rejected(self):
        with pytest.raises(ValueError):
            MonotoneSpec("bad", 2, (("Q", "Y"),))
        with pytest.raises(ValueError):
            MonotoneSpec("bad", 2, (("Y",),))


class TestAntilinearExpectation:
    def test_bell_yy_direct(self):
        o = PauliSum.from_terms([(1.0, "YY")])
        assert antilinear_expectation_direct(BELL, o) == pytest.approx(-1.0)

    def test_product_yy_direct(self):
        o = PauliSum.from_terms([(1.0, "YY")])
        assert antilinear_expectation_direct(ZERO2, o) == pytest.approx(0.0)

    def test_identity_gives_sum_of_squares(self, rng):
        o = PauliSum.from_terms([(1.0, "II")])
        for _ in range(10):
            psi = random_state(rng, 2)
            # <psi|psi*> = sum_j conj(psi_j)^2, generally complex
            expected = np.sum(psi.amplitudes.conj() ** 2)
            assert antilinear_expectation_direct(psi, o) == pytest.approx(expected)

    def test_embedded_bell(self):
        o = PauliSum.from_terms([(1.0, "YY")])
        val = embedded_antilinear(BELL, o)
        assert val == pytest.approx(-1.0)

    def test_embedded_product(self):
        o = PauliSum.from_terms([(1.0, "YY")])
        assert embedded_antilinear(ZERO2, o) == pytest.approx(0.0)

    def test_embedded_equals_direct_seeded(self, rng):
        for n in (2, 3):
            for _ in range(50):
                psi = random_state(rng, n)
                o = random_pauli_sum(rng, n)
                direct = antilinear_expectation_direct(psi, o)
                embedded = embedded_antilinear(psi, o)
                assert abs(direct - embedded) < 1e-10

    def test_direct_matches_brute_force(self, rng):
        for _ in range(20):
            psi = random_state(rng, 3)
            label = "".join(rng.choice(list("IXYZ"), size=3))
            direct = antilinear_expectation_direct(
                psi, PauliSum.from_terms([(1.0, label)])
            )
            assert abs(direct - brute_force_antilinear(psi, label)) < 1e-12


    def test_both_reads_match_brute_force_on_multi_term_sums(self, rng):
        for n in (1, 2, 3, 4):
            for _ in range(20):
                psi = random_state(rng, n)
                o = random_pauli_sum(rng, n, max_terms=6)
                want = sum(c * brute_force_antilinear(psi, p.symbols) for c, p in o.terms)
                assert abs(antilinear_expectation_direct(psi, o) - want) < 1e-12
                assert abs(embedded_antilinear(psi, o) - want) < 1e-12

    @pytest.mark.parametrize("spec", [
        *(MONOTONE_PRESETS[name](n) for name, n in (
            ("concurrence", 2), ("second_order", 2), ("three_tangle", 3),
            *(("n_qubit", n) for n in range(2, 9)))),
        # IYZ, XYZ and ZYZ have an odd Y count, IYY, XYY and ZYY an even one
        MonotoneSpec("odd_y", 3, ((0, "Y", "Z"), (1, "Y", "Y")), ((0, 1),)),
    ], ids=lambda spec: spec.name)
    def test_pair_readings_are_the_hermitian_expectations(self, spec, rng):
        # One image of I(x)O per label reads both of its pair's observables.
        observables = expand_to_observables(spec)
        for _ in range(10):
            tilde = embed_state(random_state(rng, spec.n_qubits))
            readings = monotones._pair_readings(tilde, _expansion(spec).sums)
            assert len(readings) == len(observables)
            for got, o in zip(readings, observables):
                assert abs(got - expectation(tilde, o)) <= 1e-15
                if o.terms[0][1].symbols.count("Y") % 2:
                    assert got == 0.0


class TestConcurrence:
    def test_bell(self):
        assert concurrence(BELL).value == pytest.approx(1.0)

    def test_product(self):
        assert concurrence(ZERO2).value == pytest.approx(0.0)

    @pytest.mark.parametrize("theta", [np.pi / 8, np.pi / 6, np.pi / 3])
    def test_schmidt_family(self, theta):
        v = np.zeros(4, dtype=complex)
        v[0], v[3] = np.cos(theta), np.sin(theta)
        for path in ("direct", "embedded"):
            assert concurrence(PureState(v), path).value == pytest.approx(
                abs(np.sin(2 * theta)), abs=1e-12
            )

    def test_wrong_qubit_count(self):
        with pytest.raises(ValueError):
            concurrence(ZERO3)

    def test_unknown_path_rejected(self):
        with pytest.raises(ValueError, match="unknown path 'tomography'"):
            evaluate_monotone(BELL, concurrence_spec(), "tomography")

    def test_direct_path_refuses_an_enlarged_state(self):
        with pytest.raises(ValueError, match="direct path"):
            evaluate_monotone(embed_state(BELL), concurrence_spec(), "direct")

    def test_observable_count(self):
        assert concurrence(BELL, "embedded").observable_count == 2


class TestThreeTangle:
    def test_ghz(self):
        for path in ("direct", "embedded"):
            assert three_tangle(GHZ, path).value == pytest.approx(1.0)

    def test_w(self):
        for path in ("direct", "embedded"):
            assert three_tangle(W, path).value == pytest.approx(0.0, abs=1e-12)

    def test_product(self):
        assert three_tangle(ZERO3).value == pytest.approx(0.0, abs=1e-12)

    def test_only_xyy_survives_on_ghz(self):
        # the compiled labels IYY, XYY, ZYY, one per metric index
        vals = [antilinear_expectation_direct(GHZ, o) for o in _expansion(three_tangle_spec()).sums]
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert vals[1] == pytest.approx(-1.0)
        assert vals[2] == pytest.approx(0.0, abs=1e-12)

    def test_wrong_qubit_count(self):
        with pytest.raises(ValueError):
            three_tangle(ZERO2)


class TestNQubitMonotone:
    def test_ghz4(self):
        v = np.zeros(16, dtype=complex)
        v[0] = v[-1] = 1 / np.sqrt(2)
        for path in ("direct", "embedded"):
            assert evaluate_monotone(PureState(v), n_qubit_spec(4), path).value == pytest.approx(1.0)

    def test_even_formula_vanishes_for_odd_n(self, rng):
        spec = MonotoneSpec("even_form_on_3", 3, (("Y", "Y", "Y"),))
        for _ in range(50):
            psi = random_state(rng, 3)
            assert evaluate_monotone(psi, spec).value < 1e-12

    def test_reduces_to_concurrence_at_two_qubits(self, rng):
        for _ in range(50):
            psi = random_state(rng, 2)
            assert evaluate_monotone(psi, n_qubit_spec(2)).value == pytest.approx(
                concurrence(psi).value, abs=1e-12
            )

    def test_rejects_single_qubit(self):
        with pytest.raises(ValueError):
            n_qubit_spec(1)


class TestSecondOrderMonotone:
    def test_product_state_matches_expansion_oracle(self, rng):
        # full 9-term expansion computed by brute force
        for _ in range(10):
            psi = random_product_state(rng, 2)
            total = 0.0 + 0.0j
            g = (-1.0, 1.0, 0.0, 1.0)
            labels = "IXYZ"
            for mu in (0, 1, 3):
                for lam in (0, 1, 3):
                    e = brute_force_antilinear(psi, labels[mu] + labels[lam])
                    total += g[mu] * g[lam] * e * e
            assert evaluate_monotone(psi, second_order_spec()).value == pytest.approx(
                abs(total), abs=1e-12
            )

    def test_bell_cross_path(self):
        direct = evaluate_monotone(BELL, second_order_spec(), "direct").value
        embedded = evaluate_monotone(BELL, second_order_spec(), "embedded").value
        assert abs(direct - embedded) < 1e-10

    def test_observable_count(self):
        assert evaluate_monotone(BELL, second_order_spec()).observable_count == 18

    def test_wrong_qubit_count(self):
        with pytest.raises(ValueError):
            evaluate_monotone(ZERO3, second_order_spec())


class TestExpandToObservables:
    def test_concurrence_expansion(self):
        obs = expand_to_observables(concurrence_spec())
        labels = [o.terms[0][1].symbols for o in obs]
        assert labels == ["ZYY", "XYY"]

    def test_three_tangle_expansion(self):
        obs = expand_to_observables(three_tangle_spec())
        labels = [o.terms[0][1].symbols for o in obs]
        assert labels == ["ZIYY", "XIYY", "ZXYY", "XXYY", "ZZYY", "XZYY"]

    def test_memoised_per_spec(self):
        obs = expand_to_observables(three_tangle_spec())
        assert isinstance(obs, tuple)
        assert expand_to_observables(three_tangle_spec()) is obs

    def test_a_value_keeps_only_the_scalar_and_the_observable_count(self):
        assert [f.name for f in dataclasses.fields(MonotoneValue)] == ["value", "observable_count"]

    def test_count_law(self):
        assert len(expand_to_observables(concurrence_spec())) == 2
        assert len(expand_to_observables(three_tangle_spec())) == 6
        assert len(expand_to_observables(n_qubit_spec(4))) == 2
        assert len(expand_to_observables(n_qubit_spec(5))) == 6
        assert len(expand_to_observables(second_order_spec())) == 18


class TestTomographyBaseline:
    @pytest.mark.parametrize("n,count", [(1, 3), (2, 15), (3, 63)])
    def test_values(self, n, count):
        assert tomography_baseline(n) == count

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            tomography_baseline(0)


class TestInvariants:
    def test_cross_path_equality_seeded(self, rng):
        cases = [
            (2, concurrence_spec()),
            (3, three_tangle_spec()),
            (4, n_qubit_spec(4)),
            (2, second_order_spec()),
        ]
        for n, spec in cases:
            for _ in range(30):
                psi = random_state(rng, n)
                d = evaluate_monotone(psi, spec, "direct").value
                e = evaluate_monotone(psi, spec, "embedded").value
                assert abs(d - e) < 1e-10

    def test_local_unitary_invariance(self, rng):
        for _ in range(10):
            psi = random_state(rng, 2)
            u = np.kron(
                random_single_qubit_unitary(rng), random_single_qubit_unitary(rng)
            )
            rotated = PureState(u @ psi.amplitudes)
            assert concurrence(rotated).value == pytest.approx(
                concurrence(psi).value, abs=1e-10
            )
        for _ in range(10):
            psi = random_state(rng, 3)
            u = np.kron(
                np.kron(
                    random_single_qubit_unitary(rng), random_single_qubit_unitary(rng)
                ),
                random_single_qubit_unitary(rng),
            )
            rotated = PureState(u @ psi.amplitudes)
            assert three_tangle(rotated).value == pytest.approx(
                three_tangle(psi).value, abs=1e-10
            )

    def test_separable_zero(self, rng):
        for _ in range(20):
            psi2 = random_product_state(rng, 2)
            assert concurrence(psi2).value < 1e-12
            assert evaluate_monotone(psi2, second_order_spec()).value < 1e-12
            psi3 = random_product_state(rng, 3)
            assert three_tangle(psi3).value < 1e-12

    def test_range(self, rng):
        for _ in range(50):
            psi = random_state(rng, 2)
            c = concurrence(psi).value
            assert 0.0 <= c <= 1.0 + 1e-12
            assert evaluate_monotone(psi, second_order_spec()).value >= 0.0

    def test_invariance_under_local_dynamics(self, rng):
        h_local = PauliSum.from_terms([(0.8, "XI"), (-0.4, "IZ"), (0.3, "IY")])
        psi = random_state(rng, 2)
        c0 = concurrence(psi).value
        for t in (0.5, 1.0, 2.5):
            evolved = PureState.from_amplitudes(
                evolve_exact(psi.amplitudes, h_local, t)
            )
            assert concurrence(evolved).value == pytest.approx(c0, abs=1e-9)


PRESET_SPECS = [
    MONOTONE_PRESETS[name](n)
    for name, n in (("concurrence", 2), ("three_tangle", 3), ("second_order", 2),
                    ("n_qubit", 2), ("n_qubit", 3), ("n_qubit", 4), ("n_qubit", 5),
                    ("n_qubit", 6))
]


# An odd number of Ys makes O antisymmetric, so <phi|O|phi*> = 0 on every state.
ODD_Y_SPECS = [
    MonotoneSpec("odd_y", 3, (("Y", "Z", "I"),)),
    MonotoneSpec("odd_y_contracted", 2, ((0, "Y"), (1, "Y")), ((0, 1),)),
]
# Three factors, so each slot's "other factors" are two labels: F = A^3.
CUBED = MonotoneSpec("cubed", 2, (("Y", "Y"),) * 3)


class TestContraction:
    @pytest.mark.parametrize("spec", PRESET_SPECS + ODD_Y_SPECS, ids=lambda s: s.name)
    def test_values_batch_rows_match_embedded_path(self, spec, rng):
        # simulated-space rows: the evaluator reads <phi|O|phi*> on phi itself
        states = [random_state(rng, spec.n_qubits) for _ in range(5)]
        rows = np.array([psi.amplitudes for psi in states])
        batch = EmbeddedEvaluator(spec).values_batch(rows)
        assert batch.shape == (5,)
        for value, psi in zip(batch, states):
            embedded = evaluate_monotone(psi, spec, "embedded").value
            assert abs(value - embedded) < 1e-12

    def test_embedded_path_rebuilds_no_observable(self, monkeypatch, rng):
        # Once the spec is compiled, the embedded path reads its pairs and
        # builds no PauliSum per label.
        psi, spec = random_state(rng, 3), three_tangle_spec()
        evaluate_monotone(psi, spec, "embedded")
        calls = []
        from_terms, embed = PauliSum.from_terms.__func__, embedsim.embedding.embed_observable

        def counting_from_terms(cls, *args, **kwargs):
            calls.append("from_terms")
            return from_terms(cls, *args, **kwargs)

        def counting_embed(o):
            calls.append("embed_observable")
            return embed(o)

        monkeypatch.setattr(PauliSum, "from_terms", classmethod(counting_from_terms))
        monkeypatch.setattr(embedsim.embedding, "embed_observable", counting_embed)
        monkeypatch.setattr(embedsim.monotones, "embed_observable", counting_embed)
        evaluate_monotone(psi, spec, "embedded")
        assert calls == []

    def test_direct_path_rebuilds_no_label_sum(self, monkeypatch, rng):
        # The per-label sums are built once per spec, beside its expansion.
        psi, spec = random_state(rng, 3), three_tangle_spec()
        evaluate_monotone(psi, spec, "direct")
        calls = []
        from_terms = PauliSum.from_terms.__func__
        monkeypatch.setattr(PauliSum, "from_terms", classmethod(
            lambda cls, *args, **kwargs: calls.append(args) or from_terms(cls, *args, **kwargs)))
        evaluate_monotone(psi, spec, "direct")
        assert calls == []

    @pytest.mark.parametrize("path,calls", [("direct", 3), ("embedded", 3)])
    def test_one_application_per_distinct_label(self, path, calls, monkeypatch, rng):
        # The 3-tangle has 3 distinct labels, each used twice per term; each
        # label's read looks up one kernel: of O directly, of I(x)O embedded,
        # whose one image gives both (Z(x)O, X(x)O).
        applied = []
        original = embedsim.pauli._kernel

        def counting(symbols):
            applied.append(symbols)
            return original(symbols)

        monkeypatch.setattr(embedsim.pauli, "_kernel", counting)
        evaluate_monotone(random_state(rng, 3), three_tangle_spec(), path)
        assert len(applied) == calls
        assert len(set(applied)) == calls

    @pytest.mark.parametrize("spec,antilinear,labels,got", [
        (concurrence_spec(), [0.5, 99.0], 1, 2),
        (three_tangle_spec(), [0.5, 0.5], 3, 2),
        (three_tangle_spec(), np.ones((4, 1)), 3, 1),
        (concurrence_spec(), 0.5, 1, 0),
    ], ids=["too-many", "too-few", "batch-too-few", "scalar"])
    def test_contract_refuses_a_wrong_label_count(self, spec, antilinear, labels, got):
        with pytest.raises(ValueError, match=f"has {labels} labels, got {got} antilinear"):
            contract(spec, antilinear)

    @pytest.mark.parametrize("spec", PRESET_SPECS + ODD_Y_SPECS + [CUBED], ids=lambda s: s.name)
    def test_derivative_matches_central_differences(self, spec, rng):
        # F is a polynomial in the complex A, so dF/dA_l is the complex-step
        # difference quotient along label l; leading axes are a batch.
        e = _expansion(spec)
        labels = len(e.sums)
        a = rng.normal(size=(2, 3, labels)) + 1j * rng.normal(size=(2, 3, labels))
        derivative = _signed_sum_derivative(e, a)
        assert derivative.shape == a.shape
        h = 1e-5
        for l in range(labels):
            step = h * np.eye(labels)[l]
            quotient = (_signed_sum(e, a + step) - _signed_sum(e, a - step)) / (2 * h)
            np.testing.assert_allclose(derivative[..., l], quotient, rtol=1e-8, atol=1e-8)
