import numpy as np
import pytest

import embedsim
from embedsim import (
    NumericalIntegrityError,
    PauliString,
    PureState,
    ShotPlan,
    combine_estimates,
    concurrence_spec,
    embed_state,
    evaluate_monotone,
    expand_to_observables,
    expectation,
    sample_estimates,
    sample_expectation,
    sample_monotone,
    three_tangle_spec,
)
from embedsim import measurement, monotones
from embedsim.monotones import MONOTONE_PRESETS
from embedsim.pauli import PauliSum

from conftest import random_state

BELL = PureState(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
GHZ = PureState(np.array([1, 0, 0, 0, 0, 0, 0, 1]) / np.sqrt(2))
PRESETS = (("concurrence", 2), ("three_tangle", 3), ("second_order", 2),
           ("n_qubit", 2), ("n_qubit", 3), ("n_qubit", 4), ("n_qubit", 5))


def test_shot_plan_validation():
    with pytest.raises(ValueError):
        ShotPlan(0, 1)
    with pytest.raises(ValueError):
        ShotPlan(10, -1)


def test_shot_plan_rejects_shots_beyond_int64():
    ShotPlan(2**63 - 1, 0)
    with pytest.raises(ValueError):
        ShotPlan(2**63, 0)


# 10.5 shots once read 0.8|00> + 0.6|11> to a concurrence of 1.0011 (the true
# value is 0.96), True drew one shot, and a float seed failed inside numpy
@pytest.mark.parametrize("shots, seed, field", [
    (10.5, 1, "shots"), (True, 1, "shots"), (10, 1.5, "seed"), (10, np.True_, "seed"), (10, "1", "seed"),
], ids=["float-shots", "bool-shots", "float-seed", "numpy-bool-seed", "string-seed"])
def test_shot_plan_refuses_a_non_integer_field(shots, seed, field):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        ShotPlan(shots, seed)


def test_shot_plan_keeps_numpy_integers_as_python_ints():
    plan = ShotPlan(np.int64(10), np.uint64(2**64 - 1))
    assert plan == ShotPlan(10, 2**64 - 1)
    assert (type(plan.shots), type(plan.seed)) == (int, int)
    assert measurement._nth_plan(plan, 1) == ShotPlan(10, 0)


def test_estimates_from_exact_values_match_the_samplers(rng):
    # Observable i draws from stream i: the estimates from precomputed exact
    # expectations are bit-identical to sample_monotone's and to
    # sample_expectation at the same index.
    spec = three_tangle_spec()
    tilde = embed_state(random_state(rng, 3))
    plan = ShotPlan(1000, 8)
    observables = expand_to_observables(spec)
    estimates = sample_estimates([expectation(tilde, o) for o in observables], plan)
    assert sample_monotone(tilde, spec, plan) == (combine_estimates(spec, estimates), estimates)
    assert estimates == tuple(
        sample_expectation(tilde, o.terms[0][1], plan, index=i)
        for i, o in enumerate(observables)
    )


def test_eigenstate_is_deterministic():
    s = np.array([1.0, 0.0])
    for shots in (1, 10, 1000):
        est = sample_expectation(s, PauliString("Z"), ShotPlan(shots, 0))
        assert est == 1.0


def test_zero_expectation_concentrates():
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    bad = 0
    for seed in range(100):
        est = sample_expectation(plus, PauliString("Z"), ShotPlan(10**6, seed))
        if abs(est) >= 5e-3:
            bad += 1
    assert bad <= 2  # ~0.999 per-seed success probability


def test_fixed_seed_reproducible():
    psi = random_state(np.random.default_rng(7), 2)
    a = sample_expectation(psi, PauliString("XX"), ShotPlan(1000, 42))
    b = sample_expectation(psi, PauliString("XX"), ShotPlan(1000, 42))
    assert a == b


def test_unbiasedness():
    psi = random_state(np.random.default_rng(3), 2)
    p = PauliString("XY")
    exact = expectation(psi, PauliSum.from_terms([(1.0, p.symbols)]))
    shots = 256
    estimates = [
        sample_expectation(psi, p, ShotPlan(shots, seed)) for seed in range(10**4)
    ]
    mean = np.mean(estimates)
    stderr = np.std(estimates) / np.sqrt(len(estimates))
    assert abs(mean - exact) < 3 * stderr + 1e-12


def test_sample_monotone_bell():
    est, per_obs = sample_monotone(embed_state(BELL), concurrence_spec(), ShotPlan(10**5, 11))
    assert est == pytest.approx(1.0, abs=0.02)
    assert len(per_obs) == 2


def test_sample_monotone_ghz_tangle():
    est, per_obs = sample_monotone(embed_state(GHZ), three_tangle_spec(), ShotPlan(10**5, 5))
    assert est == pytest.approx(1.0, abs=0.05)
    assert len(per_obs) == 6


def test_noiseless_limit_equals_embedded_value(rng):
    # The embedded path decodes its exact readings by combine_estimates itself.
    for name, n in PRESETS:
        spec = MONOTONE_PRESETS[name](n)
        for _ in range(10):
            tilde = embed_state(random_state(rng, n))
            exact = monotones._pair_readings(tilde, monotones._expansion(spec).sums)
            assert combine_estimates(spec, exact) == evaluate_monotone(tilde, spec, "embedded").value


def test_the_decode_is_the_one_in_monotones():
    assert measurement.combine_estimates is monotones.combine_estimates
    assert embedsim.combine_estimates is monotones.combine_estimates


def test_determinism_bit_identical():
    tilde = embed_state(BELL)
    plan = ShotPlan(5000, 123)
    a = sample_monotone(tilde, concurrence_spec(), plan)
    b = sample_monotone(tilde, concurrence_spec(), plan)
    assert a == b


def test_convergence_rate():
    # Partially entangled state: both observables carry first-order shot
    # noise, so the estimate sits in the 1/sqrt(S) regime.
    theta = np.pi / 8
    v = np.zeros(4, dtype=complex)
    v[0], v[3] = np.cos(theta), np.sin(theta)
    tilde = embed_state(PureState(v))
    spec = concurrence_spec()
    exact = abs(np.sin(2 * theta))
    shots_grid = [10**3, 10**4, 10**5]
    rms = []
    for shots in shots_grid:
        errors = [
            sample_monotone(tilde, spec, ShotPlan(shots, seed))[0] - exact
            for seed in range(100)
        ]
        rms.append(np.sqrt(np.mean(np.square(errors))))
    slope = np.polyfit(np.log(shots_grid), np.log(rms), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.1)


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        sample_monotone(embed_state(BELL), three_tangle_spec(), ShotPlan(10, 0))


def test_combine_estimates_length_check():
    with pytest.raises(ValueError):
        combine_estimates(concurrence_spec(), [1.0])


@pytest.mark.parametrize("exact", [1.5, -1.5])
def test_an_expectation_outside_the_outcome_range_is_refused(exact):
    # a +/-1 valued observable has its expectation in [-1, 1]
    with pytest.raises(NumericalIntegrityError, match="outside \\[0, 1\\]"):
        sample_estimates([0.5, exact], ShotPlan(10, 0))


def test_a_nan_expectation_is_refused():
    # a NaN lies in no range, so it is refused as one outside [0, 1]
    with pytest.raises(NumericalIntegrityError, match="outside \\[0, 1\\]"):
        sample_estimates([float("nan")], ShotPlan(10, 0))
