import dataclasses
import time

import numpy as np
import pytest

from embedsim import (
    Decomposition,
    MixedState,
    MonotoneSpec,
    PureState,
    RoofConfig,
    ShotPlan,
    concurrence,
    concurrence_spec,
    convex_roof_estimate,
    decomposition_from_isometry,
    embed_state,
    n_qubit_spec,
    roof_objective,
    sample_monotone,
    second_order_spec,
    three_tangle_spec,
    werner_state,
    wootters_oracle,
)
from embedsim import convexroof
from embedsim.convexroof import _conjugate_gradient
from embedsim.monotones import EmbeddedEvaluator

from conftest import random_product_state, random_state

BELL = PureState(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))


def random_rank2_state(rng, n=2):
    a = rng.normal(size=(1 << n, 2)) + 1j * rng.normal(size=(1 << n, 2))
    m = a @ a.conj().T
    return MixedState(m / np.trace(m).real)


class TestDecomposition:
    def test_needs_a_member(self):
        with pytest.raises(ValueError, match="at least one member"):
            Decomposition(())

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            Decomposition(((0.4, BELL), (0.4, BELL)))
        with pytest.raises(ValueError):
            Decomposition(((1.2, BELL), (-0.2, BELL)))

    @pytest.mark.parametrize("probs", [(np.nan,), (0.5, np.nan, 0.5)], ids=["only", "middle"])
    def test_a_nan_probability_is_refused(self, probs):
        # NaN compares false both ways, so each check is a negated chained comparison
        with pytest.raises(ValueError, match="probabilities"):
            Decomposition(tuple((p, BELL) for p in probs))

    def test_density_matrix(self):
        d = Decomposition(((1.0, BELL),))
        np.testing.assert_allclose(
            d.density_matrix(), np.outer(BELL.amplitudes, BELL.amplitudes.conj())
        )


class TestEigendecompositionStart:
    """The spectral ensemble is the one steered by the identity isometry."""

    def test_pure_state(self):
        rho = MixedState.from_pure(BELL)
        d = decomposition_from_isometry(rho, np.eye(1))
        assert d.size == 1
        assert d.members[0][0] == pytest.approx(1.0)

    def test_maximally_mixed(self):
        rho = MixedState(np.eye(4) / 4)
        d = decomposition_from_isometry(rho, np.eye(4))
        assert d.size == 4
        for p, _ in d.members:
            assert p == pytest.approx(0.25)

    def test_rank2_reconstruction(self, rng):
        rho = random_rank2_state(rng)
        d = decomposition_from_isometry(rho, np.eye(2))
        assert d.size == 2
        assert np.linalg.norm(d.density_matrix() - rho.matrix) < 1e-10


class TestDecompositionFromIsometry:
    def test_identity_recovers_eigendecomposition(self, rng):
        rho = random_rank2_state(rng)
        evals, vecs = np.linalg.eigh(rho.matrix)
        d_iso = decomposition_from_isometry(rho, np.eye(2))
        # members in decreasing eigenvalue order, each an eigenvector
        for p1, s1, (p2, s2) in zip(evals[::-1], vecs.T[::-1], d_iso.members):
            assert p1 == pytest.approx(p2)
            # states may differ by a global phase
            assert abs(np.vdot(s1, s2.amplitudes)) == pytest.approx(1.0)

    def test_rotation_reconstructs(self):
        # Bell-diagonal rank-2 mixture
        phi_minus = np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2)
        rho = MixedState(
            0.6 * np.outer(BELL.amplitudes, BELL.amplitudes.conj())
            + 0.4 * np.outer(phi_minus, phi_minus.conj())
        )
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        w = np.array([[c, -s], [s, c]])
        d = decomposition_from_isometry(rho, w)
        assert np.linalg.norm(d.density_matrix() - rho.matrix) < 1e-10

    def test_tall_isometry(self, rng):
        rho = random_rank2_state(rng)
        z = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        w, _ = np.linalg.qr(z)
        d = decomposition_from_isometry(rho, w)
        assert d.size <= 3
        assert np.linalg.norm(d.density_matrix() - rho.matrix) < 1e-10

    def test_non_isometry_rejected(self, rng):
        rho = random_rank2_state(rng)
        with pytest.raises(ValueError):
            decomposition_from_isometry(rho, np.ones((3, 2)))

    def test_an_isometry_with_a_nan_is_not_orthonormal(self):
        # A NaN entry makes W^dagger W - I NaN, which no tolerance admits;
        # once the NaN member is dropped, [1, 1] would steer one pure state.
        rho = MixedState(np.diag([0.6, 0.4, 0.0, 0.0]))
        with pytest.raises(ValueError, match="not orthonormal"):
            decomposition_from_isometry(rho, np.array([[1.0, 1.0], [np.nan, 0.0]]))

    @pytest.mark.parametrize("shape", [(3, 3), (2,), (1, 2, 2)])
    def test_an_isometry_of_the_wrong_shape_is_rejected(self, rng, shape):
        rho = random_rank2_state(rng)
        with pytest.raises(ValueError, match="k x 2"):
            decomposition_from_isometry(rho, np.ones(shape))


class TestRoofObjective:
    def test_pure_state_single_member(self, rng):
        psi = random_state(rng, 2)
        d = Decomposition(((1.0, psi),))
        assert roof_objective(d, concurrence_spec()) == pytest.approx(
            concurrence(psi).value, abs=1e-10
        )

    def test_product_mixture_is_zero(self, rng):
        members = tuple((0.25, random_product_state(rng, 2)) for _ in range(4))
        d = Decomposition(members)
        assert roof_objective(d, concurrence_spec()) < 1e-10

    def test_eigendecomposition_upper_bounds_oracle(self):
        rho = werner_state(0.9)
        d = decomposition_from_isometry(rho, np.eye(4))
        assert roof_objective(d, concurrence_spec()) >= wootters_oracle(rho) - 1e-9

    def test_roof_value_is_the_objective_of_its_decomposition(self):
        cfg = RoofConfig(extra_terms=0, restarts=2, max_iterations=30)
        result = convex_roof_estimate(werner_state(0.8), concurrence_spec(), cfg)
        objective = roof_objective(result.decomposition, concurrence_spec())
        assert result.value == pytest.approx(objective, abs=1e-12)

    def test_search_and_its_shot_readout_are_deterministic(self):
        cfg = RoofConfig(extra_terms=0, restarts=1, max_iterations=10)
        a, b = (convex_roof_estimate(werner_state(0.8), concurrence_spec(), cfg) for _ in range(2))
        assert (a.value, a.history, a.iterations) == (b.value, b.history, b.iterations)
        np.testing.assert_array_equal(a.decomposition.density_matrix(), b.decomposition.density_matrix())
        plan = ShotPlan(500, 13)
        assert (roof_objective(a.decomposition, concurrence_spec(), plan)
                == roof_objective(b.decomposition, concurrence_spec(), plan))

    @pytest.mark.parametrize("seed", [17, 2**64 - 2])
    def test_member_j_samples_on_plan_seed_plus_j(self, seed, rng):
        # The shot roof's stream contract: member j of the decomposition is
        # sampled exactly as sample_monotone samples it on seed + j (mod 2^64).
        members = tuple((p, random_state(rng, 2)) for p in (0.5, 0.3, 0.2))
        expected = sum(
            p * sample_monotone(embed_state(psi), concurrence_spec(),
                                ShotPlan(400, (seed + j) % 2**64))[0]
            for j, (p, psi) in enumerate(members)
        )
        d = Decomposition(members)
        assert roof_objective(d, concurrence_spec(), shots=ShotPlan(400, seed)) == expected

    def test_shot_injected_objective_is_deterministic(self, rng):
        d = Decomposition(((1.0, BELL),))
        plan = ShotPlan(2000, 3)
        a = roof_objective(d, concurrence_spec(), shots=plan)
        b = roof_objective(d, concurrence_spec(), shots=plan)
        assert a == b
        assert a == pytest.approx(1.0, abs=0.1)


class TestWoottersOracle:
    def test_bell_projector(self):
        assert wootters_oracle(MixedState.from_pure(BELL)) == pytest.approx(1.0)

    def test_maximally_mixed(self):
        assert wootters_oracle(MixedState(np.eye(4) / 4)) == pytest.approx(0.0)

    def test_werner_two_thirds(self):
        assert wootters_oracle(werner_state(2 / 3)) == pytest.approx(0.5, abs=1e-12)

    def test_matches_pure_concurrence(self, rng):
        for _ in range(10):
            psi = random_state(rng, 2)
            assert wootters_oracle(MixedState.from_pure(psi)) == pytest.approx(
                concurrence(psi).value, abs=1e-12
            )

    @pytest.mark.parametrize("seed", [1, 4])
    def test_matches_the_numeric_roof_on_rank_two_states(self, seed):
        rho = random_rank2_state(np.random.default_rng(seed))
        oracle = wootters_oracle(rho)
        assert oracle > 0.1
        assert abs(oracle - convex_roof_estimate(rho, concurrence_spec()).value) <= 1e-12


class TestConvexRoofEstimate:
    CFG = RoofConfig(restarts=4, seed=7)

    def test_pure_state(self, rng):
        psi = random_state(rng, 2)
        res = convex_roof_estimate(MixedState.from_pure(psi), concurrence_spec(), self.CFG)
        assert res.value == pytest.approx(concurrence(psi).value, abs=1e-6)

    @pytest.mark.parametrize("p", [0.5, 0.8, 1.0])
    def test_werner_matches_oracle(self, p):
        rho = werner_state(p)
        res = convex_roof_estimate(rho, concurrence_spec(), self.CFG)
        assert res.value == pytest.approx(max(0.0, (3 * p - 1) / 2), abs=1e-3)

    def test_random_rank2_instances(self, rng):
        for _ in range(5):
            rho = random_rank2_state(rng)
            res = convex_roof_estimate(rho, concurrence_spec(), self.CFG)
            oracle = wootters_oracle(rho)
            assert res.value == pytest.approx(oracle, abs=1e-3)
            assert res.value >= oracle - 1e-9

    def test_separable_mixture_detected(self, rng):
        members = tuple((1 / 3, random_product_state(rng, 2)) for _ in range(3))
        rho = MixedState.from_ensemble(members)
        res = convex_roof_estimate(rho, concurrence_spec(), self.CFG)
        assert res.value < 1e-2

    def test_monotone_descent_history(self):
        res = convex_roof_estimate(werner_state(0.8), concurrence_spec(), self.CFG)
        diffs = np.diff(res.history)
        assert np.all(diffs <= 1e-15)

    def test_determinism(self):
        rho = werner_state(0.6)
        cfg = RoofConfig(restarts=2, seed=11)
        a = convex_roof_estimate(rho, concurrence_spec(), cfg)
        b = convex_roof_estimate(rho, concurrence_spec(), cfg)
        assert a.value == b.value
        assert a.history == b.history

    def test_result_decomposition_reconstructs(self):
        rho = werner_state(0.8)
        res = convex_roof_estimate(rho, concurrence_spec(), self.CFG)
        assert res.decomposition.reconstructs(rho)


def solve_start(monkeypatch, rho, spec, cfg):
    """The batched objective and the starting isometries that
    convex_roof_estimate(rho, spec, cfg) descends from, caught on their way
    into the descent."""
    caught = []
    descend = convexroof._conjugate_gradient

    def spy(f, w0, *args):
        caught.append((f, w0))
        return descend(f, w0, *args)

    monkeypatch.setattr(convexroof, "_conjugate_gradient", spy)
    convex_roof_estimate(rho, spec, dataclasses.replace(cfg, max_iterations=1))
    monkeypatch.undo()
    return caught[0]


def random_isometries(rng, b, k, r):
    return convexroof._retract(rng.normal(size=(b, k, r)) + 1j * rng.normal(size=(b, k, r)))


class TestConjugateGradient:
    """The batched search: Riemannian conjugate gradients over isometries,
    one row per restart."""

    def test_quadratic_bowl(self):
        # tr(W^dagger A W) over 5 x 2 isometries is least, at the sum of the
        # two smallest eigenvalues, on A's lowest eigenspace
        rng = np.random.default_rng(5)
        q = random_isometries(rng, 1, 5, 5)[0]
        a = q @ np.diag([0.3, 0.7, 1.5, 2.0, 4.0]) @ q.conj().T

        def f(w):
            aw = a @ w
            return (w.conj() * aw).real.sum(axis=(1, 2)), 2.0 * aw

        w, fw, (history,), (converged,), _ = _conjugate_gradient(
            f, random_isometries(rng, 1, 5, 2), 500, 1e-8
        )
        assert abs(fw[0] - 1.0) < 1e-12
        assert converged
        assert np.all(np.diff(history) <= 1e-15)
        np.testing.assert_allclose(w[0].conj().T @ w[0], np.eye(2), atol=1e-14)

    def test_each_row_descends_as_it_would_alone(self, monkeypatch):
        rho = random_rank2_state(np.random.default_rng(21))
        f, _ = solve_start(monkeypatch, rho, concurrence_spec(), RoofConfig(extra_terms=1))
        w0 = np.concatenate([np.eye(3, 2)[None], random_isometries(np.random.default_rng(4), 3, 3, 2)])
        together = _conjugate_gradient(f, w0, 40, 1e-3)
        assert np.all(together[1] > 1e-12)            # no row stops a later one
        assert len(set(together[4])) > 1              # rows leave the batch at different iterations
        for i, row in enumerate(w0):
            alone = _conjugate_gradient(f, row[None], 40, 1e-3)
            np.testing.assert_array_equal(together[0][i], alone[0][0])
            assert together[1][i] == alone[1][0]
            assert together[2][i] == alone[2][0]
            assert (together[3][i], together[4][i]) == (alone[3][0], alone[4][0])

    def test_a_row_ending_below_1e_12_stops_every_row(self, monkeypatch):
        # a separable mixture: its roof is 0, and one restart reaches it first
        rng = np.random.default_rng(1)
        rho = MixedState.from_ensemble(tuple((1 / 3, random_product_state(rng, 2)) for _ in range(3)))
        f, w0 = solve_start(monkeypatch, rho, concurrence_spec(), RoofConfig(restarts=4, seed=7))
        w, fw, history, converged, iterations = _conjugate_gradient(f, w0, 500, 1e-6)
        (zero,) = np.flatnonzero(fw < 1e-12)
        stop = iterations[zero]
        cut = 0
        for row in set(range(len(w0))) - {zero}:
            alone = _conjugate_gradient(f, w0[row:row + 1], 500, 1e-6)
            # up to the stop, the row descends exactly as it would alone
            assert history[row] == alone[2][0][:len(history[row])]
            if alone[4][0] > stop:
                assert iterations[row] == stop and not converged[row]
                cut += 1
        assert cut

    def test_a_batch_row_of_the_objective_is_its_batch_of_one(self, monkeypatch):
        rho = random_rank2_state(np.random.default_rng(8))
        f, _ = solve_start(monkeypatch, rho, concurrence_spec(), RoofConfig())
        # the first row is the spectral ensemble, padded with members of weight 0
        w = np.concatenate([np.eye(4, 2)[None], random_isometries(np.random.default_rng(2), 4, 4, 2)])
        values, grads = f(w)
        for i, row in enumerate(w):
            value, grad = f(row[None])
            assert value[0] == values[i]
            np.testing.assert_array_equal(grad[0], grads[i])

    def test_the_search_stops_at_the_module_gradient_tolerance(self, monkeypatch):
        caught = []
        descend = convexroof._conjugate_gradient

        def spy(f, w0, *args):
            caught.append(args)
            return descend(f, w0, *args)

        monkeypatch.setattr(convexroof, "_conjugate_gradient", spy)
        result = convex_roof_estimate(werner_state(0.8), concurrence_spec(), RoofConfig(restarts=2))
        assert caught == [(500, convexroof.GRADIENT_TOLERANCE)]
        assert convexroof.GRADIENT_TOLERANCE == 1e-6
        assert result.converged

    def test_werner_solve_makes_few_evaluator_calls(self, monkeypatch):
        evaluator_calls = []
        rows = count_objective_rows(monkeypatch)
        monkeypatch.setattr(EmbeddedEvaluator, "antilinear_batch",
                            lambda self, vecs: evaluator_calls.append(len(vecs)))
        convex_roof_estimate(werner_state(0.8), concurrence_spec())
        # member rows of the r x r forms; no 2^N member vector is evaluated
        assert sum(rows) <= 20_000
        assert not evaluator_calls

    def test_werner_solve_makes_few_objective_calls(self, monkeypatch):
        # one call per line-search block of trials, not one per trial
        calls = count_objective_rows(monkeypatch)
        convex_roof_estimate(werner_state(0.8), concurrence_spec())
        assert len(calls) <= 100

    @pytest.mark.parametrize("case", ["werner", "rank-3", "ghz-w"])
    def test_the_ladder_accepts_the_steps_of_the_one_trial_search(self, monkeypatch, case):
        a = np.random.default_rng(17).normal(size=(4, 3, 2)) @ [1, 1j]
        rho, spec, cfg = {
            "werner": (werner_state(0.8), concurrence_spec(), RoofConfig()),
            "rank-3": (MixedState(a @ a.conj().T / np.linalg.norm(a) ** 2), concurrence_spec(), RoofConfig()),
            "ghz-w": (ghz_w_mixture(0.7), three_tangle_spec(), RoofConfig(extra_terms=1, restarts=2)),
        }[case]
        calls = count_objective_rows(monkeypatch)
        ladder = convex_roof_estimate(rho, spec, cfg)
        blocks = len(calls)
        # one trial per call: the halving-by-halving search
        monkeypatch.setattr(convexroof, "LINE_SEARCH_RUNGS", 1)
        single = convex_roof_estimate(rho, spec, cfg)
        assert len(calls) - blocks > blocks
        assert (ladder.value, ladder.history, ladder.iterations, ladder.converged) == (
            single.value, single.history, single.iterations, single.converged)
        assert len(ladder.decomposition.members) == len(single.decomposition.members)
        for (p, psi), (q, phi) in zip(ladder.decomposition.members, single.decomposition.members):
            assert p == q
            np.testing.assert_array_equal(psi.amplitudes, phi.amplitudes)


def count_objective_rows(monkeypatch):
    """The member rows (isometries x k) of every later call to a roof
    objective, one entry per call."""
    rows = []
    steered = convexroof._steered_objective

    def counting(scaled, spec):
        f = steered(scaled, spec)

        def counted(w):
            rows.append(w.shape[0] * w.shape[1])
            return f(w)

        return counted

    monkeypatch.setattr(convexroof, "_steered_objective", counting)
    return rows


GHZ = np.zeros(8, dtype=complex)
GHZ[[0, 7]] = 1 / np.sqrt(2)
W_STATE = np.zeros(8, dtype=complex)
W_STATE[[1, 2, 4]] = 1 / np.sqrt(3)


def ghz_w_mixture(p):
    return MixedState(p * np.outer(GHZ, GHZ.conj()) + (1 - p) * np.outer(W_STATE, W_STATE.conj()))


class TestGhzWRoof:
    """The 3-tangle roof of p|GHZ><GHZ| + (1-p)|W><W| is 0 below
    p0 ~ 0.627 (Lohmayer, Osterloh, Siewert & Uhlmann, PRL 97, 260502)."""

    @pytest.mark.parametrize("p", [0.3, 0.6])
    def test_zero_below_p0(self, p):
        assert convex_roof_estimate(ghz_w_mixture(p), three_tangle_spec()).value <= 1e-6

    # the values the coordinate search found with the default config
    @pytest.mark.parametrize("p, before", [(0.7, 0.19066740905808754), (0.9, 0.7302008146056176)])
    def test_no_worse_above_p0(self, p, before):
        assert convex_roof_estimate(ghz_w_mixture(p), three_tangle_spec()).value <= before + 1e-6

    def test_two_restarts_leave_the_spectral_start(self):
        # the spectral decomposition has a zero gradient here, at the value p
        res = convex_roof_estimate(ghz_w_mixture(0.3), three_tangle_spec(), RoofConfig(restarts=2))
        assert not (res.value > 0.3 - 1e-9 and res.converged)


class TestShotNoiseRoof:
    def test_descent_runs_on_exact_pairs_and_samples_once(self):
        # the sampled value of the exact minimiser is unbiased around the roof 0.7
        values = []
        for s in range(1, 21):
            d = convex_roof_estimate(werner_state(0.8), concurrence_spec(), RoofConfig(
                restarts=2, max_iterations=40, seed=s)).decomposition
            values.append(roof_objective(d, concurrence_spec(), ShotPlan(100, s)))
        assert np.mean(values) == pytest.approx(0.7, abs=0.03)

    def test_shot_roof_is_fast(self):
        cfg = RoofConfig(restarts=2, max_iterations=30)
        start = time.perf_counter()
        d = convex_roof_estimate(werner_state(0.8), concurrence_spec(), cfg).decomposition
        roof_objective(d, concurrence_spec(), ShotPlan(500, 13))
        assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("spec", [concurrence_spec(), second_order_spec(), three_tangle_spec(),
                                  n_qubit_spec(4), n_qubit_spec(5),
                                  MonotoneSpec("cubed", 2, (("Y", "Y"),) * 3)], ids=lambda s: s.name)
def test_riemannian_gradient_matches_central_differences(spec):
    rng = np.random.default_rng(31)
    dim = 1 << spec.n_qubits
    a = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
    rho = MixedState(a @ a.conj().T / np.linalg.norm(a) ** 2)
    f = convexroof._steered_objective(convexroof._spectral(rho), spec)
    w = random_isometries(rng, 1, 5, 3)
    grad = convexroof._tangent(w, f(w)[1])
    h = 1e-5
    for _ in range(4):
        step = convexroof._tangent(w, rng.normal(size=w.shape) + 1j * rng.normal(size=w.shape))
        ahead, behind = (f(convexroof._retract(w + s * h * step))[0][0] for s in (1, -1))
        analytic = convexroof._inner(grad, step)[0]
        assert abs((ahead - behind) / (2 * h) - analytic) <= 1e-6 * abs(analytic)


def test_werner_state_validation():
    with pytest.raises(ValueError):
        werner_state(1.5)


def test_roof_config_has_no_tolerance_option():
    # the gradient tolerance is the module's constant, not a search option
    assert [f.name for f in dataclasses.fields(RoofConfig)] == [
        "extra_terms", "max_iterations", "restarts", "seed"]
    with pytest.raises(TypeError):
        RoofConfig(tolerance=1e-6)


@pytest.mark.parametrize("options, message", [
    ({"extra_terms": -1}, "extra_terms"),
    ({"max_iterations": 0}, "max_iterations"),
    ({"restarts": 0}, "restarts"),
    ({"seed": -1}, "seed"),
    ({"seed": 2**64}, "seed"),
], ids=["extra_terms", "max_iterations", "restarts", "negative-seed", "seed-2-to-the-64"])
def test_roof_config_rejects_out_of_range_options(options, message):
    with pytest.raises(ValueError, match=message):
        RoofConfig(**options)


# max_iterations=2.5 once ran 3 iterations and restarts=True one restart;
# the other floats failed late, inside numpy, with a TypeError
@pytest.mark.parametrize("field, value", [
    ("max_iterations", 2.5), ("restarts", True), ("extra_terms", 1.5), ("restarts", 2.0), ("seed", 1.5),
    ("seed", np.False_),
], ids=["float-max_iterations", "bool-restarts", "float-extra_terms", "float-restarts", "float-seed",
        "numpy-bool-seed"])
def test_roof_config_refuses_a_non_integer_option(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        RoofConfig(**{field: value})


def test_roof_config_keeps_numpy_integers_as_python_ints():
    cfg = RoofConfig(extra_terms=np.int8(1), max_iterations=np.int64(40), restarts=np.int32(2),
                     seed=np.uint64(2**64 - 1))
    assert cfg == RoofConfig(extra_terms=1, max_iterations=40, restarts=2, seed=2**64 - 1)
    assert {type(getattr(cfg, f.name)) for f in dataclasses.fields(cfg)} == {int}


def test_wootters_oracle_refuses_three_qubits():
    with pytest.raises(ValueError, match="two qubits"):
        wootters_oracle(MixedState(np.eye(8) / 8))


def test_roof_refuses_a_spec_of_another_qubit_count(monkeypatch):
    # refused before the spectral decomposition, with evaluate_monotone's message
    monkeypatch.setattr(convexroof, "_spectral", lambda rho: pytest.fail("decomposed"))
    with pytest.raises(ValueError, match="state has 2 qubits, spec expects 3"):
        convex_roof_estimate(werner_state(0.8), three_tangle_spec())
