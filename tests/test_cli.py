import copy
import csv
import dataclasses
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import embedsim
from embedsim import cli
from embedsim import (
    ConfigError,
    NumericalIntegrityError,
    RoofConfig,
    ShotPlan,
    combine_estimates,
    convex_roof_estimate,
    evolve_enlarged,
    expand_to_observables,
    roof_objective,
    sample_estimates,
)
from embedsim.cli import (
    MAX_EVOLUTION_STEPS,
    MAX_QUBITS,
    MAX_ROOF_EXTRA_TERMS,
    MAX_ROOF_ITERATIONS,
    MAX_ROOF_RESTARTS,
    MAX_SPEC_DEGREE,
    METHODS,
    WORKFLOWS,
    _render,
    emit,
    ghz_state,
    main,
    parse_config,
    run,
    w_state,
)

from conftest import drift_propagator

CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"


def write_config(tmp_path, payload, name="config.json"):
    """Write a config; a str or bytes payload is written verbatim."""
    path = tmp_path / name
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def run_cli(tmp_path, payload, *args):
    """Run the CLI in a fresh interpreter, as a user would."""
    src = os.path.dirname(os.path.dirname(embedsim.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "embedsim.cli", "--config", write_config(tmp_path, payload), *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )


def xx_chain(n):
    return [{"coeff": 0.5, "pauli": "I" * i + "XX" + "I" * (n - i - 2)} for i in range(n - 1)]


BELL_MONOTONE = {
    "workflow": "monotone",
    "initial_state": "bell",
    "monotone": "concurrence",
    "times": [0.0],
}

WORKED_EXAMPLE_EVOLVE = {
    "workflow": "evolve",
    "initial_state": "bell",
    "hamiltonian": [
        {"coeff": 1.0, "pauli": "XY"},
        {"coeff": 1.0, "pauli": "XZ"},
    ],
    "monotone": "concurrence",
    "times": [0.0, 0.4, 0.8, 1.2, 1.6, 2.0],
}


class TestPresets:
    def test_ghz_default(self):
        v = ghz_state().amplitudes
        assert v[0] == pytest.approx(1 / np.sqrt(2))
        assert v[-1] == pytest.approx(1 / np.sqrt(2))

    def test_w_default(self):
        v = w_state().amplitudes
        assert sorted(np.flatnonzero(np.abs(v) > 0)) == [1, 2, 4]


class TestParseConfig:
    def test_minimal_monotone(self):
        config = parse_config(BELL_MONOTONE)
        assert config.workflow == "monotone"
        assert config.initial_state.n == 2

    def test_unknown_workflow(self):
        from embedsim import ConfigError

        with pytest.raises(ConfigError, match="workflow"):
            parse_config({"workflow": "plot"})

    def test_unknown_preset(self):
        from embedsim import ConfigError

        with pytest.raises(ConfigError, match="initial_state"):
            parse_config({**BELL_MONOTONE, "initial_state": "epr"})

    def test_amplitude_list(self):
        config = parse_config(
            {**BELL_MONOTONE, "initial_state": [[0.7071067811865476, 0.0], 0.0, 0.0, [0.7071067811865476, 0.0]]}
        )
        assert config.initial_state.n == 2

    def test_qubit_count_mismatch(self):
        from embedsim import ConfigError

        with pytest.raises(ConfigError, match="monotone"):
            parse_config({**BELL_MONOTONE, "monotone": "three_tangle"})


class TestRun:
    def test_bell_concurrence(self):
        records = run(parse_config(BELL_MONOTONE))
        assert len(records) == 1
        assert records[0].value_direct == pytest.approx(1.0)
        assert records[0].value_embedded == pytest.approx(1.0)
        assert records[0].n_observables == 2
        assert records[0].n_tomography == 15

    def test_count_three_tangle(self):
        records = run(
            parse_config({"workflow": "count", "monotone": "three_tangle", "n_qubits": 3})
        )
        assert records[0].n_observables == 6
        assert records[0].n_tomography == 63

    def test_evolve_worked_example_paths_agree(self):
        records = run(parse_config(WORKED_EXAMPLE_EVOLVE))
        assert len(records) == 6
        for r in records:
            assert abs(r.value_direct - r.value_embedded) < 1e-9

    @pytest.mark.parametrize("method", ["trotter1", "trotter2"])
    def test_trotter_direct_reference_follows_method(self, method):
        config = parse_config({
            "workflow": "evolve",
            "initial_state": "bell",
            "hamiltonian": [{"coeff": 1.0, "pauli": "XY"}, {"coeff": 0.7, "pauli": "ZI"}],
            "monotone": "concurrence",
            "times": [0.5],
            "evolution": {"method": method, "steps": 20},
        })
        (record,) = run(config)
        assert abs(record.value_direct - record.value_embedded) < 1e-12

    def test_trotter_beyond_dense_cap(self, tmp_path):
        payload = {
            "workflow": "evolve",
            "initial_state": "ghz",
            "n_qubits": 14,
            "hamiltonian": xx_chain(14),
            "monotone": "n_qubit",
            "times": [0.3],
            "evolution": {"method": "trotter2", "steps": 2},
        }
        proc = run_cli(tmp_path, payload)
        assert proc.returncode == 0, proc.stderr
        (record,) = json.loads(proc.stdout)
        assert abs(record["value_direct"] - record["value_embedded"]) < 1e-9

    @pytest.mark.parametrize("method", ["exact", "trotter2"])
    def test_a_norm_drift_on_the_direct_path_alone_is_refused(self, monkeypatch, method):
        # The direct result is not renormalised: a 1e-11 drift under H, with
        # the enlarged path under the sector untouched, stops the run.
        config = parse_config({**WORKED_EXAMPLE_EVOLVE, "times": [0.4],
                               "evolution": {"method": method, "steps": 3}})
        drift_propagator(monkeypatch, method, 1 + 1e-11, only=config.hamiltonian)
        with pytest.raises(NumericalIntegrityError, match=f"{method} evolution drifted the norm"):
            run(config)

    def test_trotter_chain_paths_agree_to_rounding(self):
        # Under Trotter the enlarged result is bitwise [Re d; Im d]: with no
        # renormalisation on either path, only the monotone sums differ.
        config = json.loads((CONFIGS / "trotter_chain.json").read_text())
        records = run(parse_config(config))
        assert len(records) == 5
        for r in records:
            assert abs(r.value_direct - r.value_embedded) <= 1e-15

    def test_evolve_diagonalises_each_hamiltonian_once(self, monkeypatch):
        eigh = np.linalg.eigh
        calls = []
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
        payload = {**WORKED_EXAMPLE_EVOLVE, "times": [0.1 * (k + 1) for k in range(8)]}
        records = run(parse_config(payload))
        assert len(records) == 8
        # H on the direct path, and H~ through its 2-qubit ancilla-Y sector
        assert sorted(calls) == [(4, 4), (4, 4)]

    def test_a_seven_qubit_trajectory_builds_one_matrix_per_path_and_no_eigh(
            self, tmp_path, monkeypatch):
        rng = np.random.default_rng(19)
        labels = {"".join(rng.choice(list("IXYZ"), 7)) for _ in range(21)} - {"I" * 7}
        hamiltonian = [{"coeff": float(rng.uniform(-1.0, 1.0)), "pauli": p} for p in sorted(labels)]
        payload = {"workflow": "evolve", "initial_state": "ghz", "n_qubits": 7,
                   "hamiltonian": hamiltonian, "monotone": "n_qubit",
                   "times": [0.1 * (k + 1) for k in range(8)]}
        eigh, dense = np.linalg.eigh, embedsim.PauliSum.dense
        eighs, built = [], []
        monkeypatch.setattr(np.linalg, "eigh", lambda m: eighs.append(m.shape) or eigh(m))
        monkeypatch.setattr(embedsim.PauliSum, "dense",
                            lambda self: built.append(self.to_records()) or dense(self))
        out = tmp_path / "out.json"
        assert main(["--config", write_config(tmp_path, payload), "--output", str(out)]) == 0
        assert len(json.loads(out.read_text())) == 8
        assert eighs == []
        h = embedsim.PauliSum.from_records(hamiltonian)
        sector = embedsim.embed_hamiltonian(h).sector
        assert sorted(built, key=str) == sorted([h.to_records(), sector.to_records()], key=str)

    @pytest.mark.parametrize("hamiltonian", [
        [{"coeff": 0.5, "pauli": "XY"}, {"coeff": -0.5, "pauli": "XY"}],  # cancels to no term
        [{"coeff": 0.7, "pauli": "II"}],
    ], ids=["empty-sum", "identity-only"])
    @pytest.mark.parametrize("method", METHODS)
    def test_a_trivial_hamiltonian_keeps_the_initial_state(self, tmp_path, capsys,
                                                           hamiltonian, method):
        # Under the identity a global phase turns the (<Z O>, <X O>) pairs, so
        # only the monotone values are compared there.
        payload = {**WORKED_EXAMPLE_EVOLVE, "initial_state": [0.6, 0, [0, 0.48], 0.64],
                   "hamiltonian": hamiltonian, "evolution": {"method": method, "steps": 2}}
        assert main(["--config", write_config(tmp_path, payload)]) == 0
        first, *rest = json.loads(capsys.readouterr().out)
        assert first["t"] == 0.0 and len(rest) == 5
        for record in rest:
            if len(hamiltonian) == 2:
                assert {**record, "t": 0.0, "duration_ms": None} == {**first, "duration_ms": None}
            for key in ("value_direct", "value_embedded"):
                assert record[key] == pytest.approx(first[key], abs=1e-12)

    def test_the_evolution_time_is_split_over_the_moving_records(self, monkeypatch):
        # One evolution call per path serves every record with t != 0.
        def slow(*args, **kwargs):
            time.sleep(0.2)
            return evolve_enlarged(*args, **kwargs)

        monkeypatch.setattr(cli, "evolve_enlarged", slow)
        records = run(parse_config({**WORKED_EXAMPLE_EVOLVE, "times": [0.0, 0.5, 0.0, 1.0]}))
        durations = [r.duration_ms for r in records]
        assert durations[0] < 100 and durations[2] < 100
        assert durations[1] >= 100 and durations[3] >= 100

    @pytest.mark.parametrize("method, sizes", [("exact", [4, 3]), ("trotter2", [1] * 7)])
    def test_exact_takes_up_to_2_to_the_n_times_per_call_and_trotter_one(
            self, monkeypatch, method, sizes):
        calls = []
        monkeypatch.setattr(cli, "evolve_enlarged",
                            lambda s, h, t, **kw: calls.append(len(t)) or evolve_enlarged(s, h, t, **kw))
        times = [0.0, 0.3, 0.6, 0.0, 0.9, 1.2, 1.5, 1.8, 2.1]
        config = parse_config({**WORKED_EXAMPLE_EVOLVE, "times": times,
                               "evolution": {"method": method, "steps": 2}})
        records = run(config)
        assert calls == sizes
        assert [r.t for r in records] == times

    def test_a_trotter_trajectory_holds_a_few_states_whatever_its_length(self):
        # One time per call: 16 times peak where 4 do, within one state size.
        n = 12
        hamiltonian = ([{"coeff": 0.3, "pauli": "I" * k + "XX" + "I" * (n - 2 - k)}
                        for k in range(n - 1)]
                       + [{"coeff": 0.5, "pauli": "I" * k + "Z" + "I" * (n - 1 - k)}
                          for k in range(n)])
        peaks = []
        for count in (4, 16):
            config = parse_config({
                "workflow": "evolve", "initial_state": "ghz", "n_qubits": n,
                "hamiltonian": hamiltonian, "monotone": "n_qubit",
                "times": [0.1 * (k + 1) for k in range(count)],
                "evolution": {"method": "trotter2", "steps": 2}})
            run(config)  # builds the per-string kernels, which are kept
            tracemalloc.start()
            try:
                run(config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 16 << n

    def test_evolve_with_shots_evaluates_each_observable_once(self, monkeypatch):
        # per_observable feeds both value_embedded and the shot sampler.
        config = parse_config({
            "workflow": "evolve",
            "initial_state": "w",
            "n_qubits": 3,
            "hamiltonian": [{"coeff": 0.8, "pauli": "XYZ"}, {"coeff": 0.5, "pauli": "ZZI"}],
            "monotone": "three_tangle",
            "times": [0.4],
            "shots": {"shots": 1000, "seed": 5},
        })
        applied = {}
        original = embedsim.pauli._kernel

        def counting(symbols):
            if len(symbols) == 4:  # a kernel lookup on the enlarged register
                applied[symbols] = applied.get(symbols, 0) + 1
            return original(symbols)

        monkeypatch.setattr(embedsim.pauli, "_kernel", counting)
        (record,) = run(config)
        # one image of I(x)O per distinct label gives its pair (Z(x)O, X(x)O)
        labels = [o.terms[0][1].symbols for o in expand_to_observables(config.monotone)]
        assert applied == {"I" + label[1:]: 1 for label in labels}
        assert abs(record.value_direct - record.value_embedded) < 1e-9

    def test_monotone_with_shots(self):
        config = parse_config(
            {**BELL_MONOTONE, "shots": {"shots": 100000, "seed": 9}}
        )
        records = run(config)
        assert records[0].value_sampled == pytest.approx(1.0, abs=0.02)
        assert len(records[0].per_observable_sampled) == 2

    def test_record_k_samples_on_plan_seed_plus_k(self):
        # record 0 draws on the plan itself; the seed wraps at 2^64
        seed = 2**64 - 3
        config = parse_config({**WORKED_EXAMPLE_EVOLVE, "shots": {"shots": 500, "seed": seed}})
        records = run(config)
        for k, record in enumerate(records):
            estimates = sample_estimates(record.per_observable, ShotPlan(500, (seed + k) % 2**64))
            assert record.per_observable_sampled == list(estimates)
            assert record.value_sampled == combine_estimates(config.monotone, estimates)

    def test_records_at_the_same_state_draw_independent_noise(self):
        # no Hamiltonian: every time reads the same state, and each draws anew
        config = parse_config({"workflow": "monotone", "initial_state": "w", "n_qubits": 3,
                               "monotone": "three_tangle", "times": [0.0, 1.0, 2.0],
                               "shots": {"shots": 1000, "seed": 4}})
        records = run(config)
        assert len({tuple(r.per_observable) for r in records}) == 1
        assert len({tuple(r.per_observable_sampled) for r in records}) == 3

    def test_roof_werner(self):
        config = parse_config(
            {
                "workflow": "roof",
                "monotone": "concurrence",
                "n_qubits": 2,
                "mixed_state": {"preset": "werner", "p": 0.8},
                "roof": {"restarts": 3, "seed": 5},
            }
        )
        records = run(config)
        assert records[0].roof_value == pytest.approx(0.7, abs=1e-3)
        assert records[0].roof_converged
        assert records[0].value_sampled is None


class TestEmit:
    def test_empty_csv_header_only(self, capsys):
        emit([], fmt="csv")
        out = capsys.readouterr().out
        assert out == ("t,value_direct,value_embedded,value_sampled,n_observables,n_tomography,"
                       "duration_ms,roof_value,roof_k,roof_iterations,roof_converged\n")

    def test_single_record_csv(self, capsys):
        records = run(parse_config(BELL_MONOTONE))
        emit(records, fmt="csv")
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[4] == "2"
        assert cells[5] == "15"

    def test_json_round_trip_bit_exact(self, tmp_path):
        records = run(parse_config(WORKED_EXAMPLE_EVOLVE))
        dest = tmp_path / "out.json"
        emit(records, fmt="json", destination=str(dest))
        parsed = json.loads(dest.read_text())
        for record, raw in zip(records, parsed):
            for key, val in record.to_dict().items():
                assert raw[key] == val

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        dest = tmp_path / "out.csv"
        emit([], fmt="csv", destination=str(dest))
        assert dest.exists()
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_unknown_format_is_a_config_error(self, capsys):
        with pytest.raises(ConfigError, match="'xml'"):
            emit([], fmt="xml")
        assert capsys.readouterr().out == ""

    def test_a_failed_rename_removes_the_temp_file(self, tmp_path, monkeypatch, capsys):
        def refuse(src, dst):
            raise PermissionError(f"cannot rename {src} to {dst}")

        cfg = write_config(tmp_path, BELL_MONOTONE)
        monkeypatch.setattr(os, "replace", refuse)
        assert main(["--config", cfg, "--output", str(tmp_path / "out.json")]) == 4
        assert "i/o error" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


class TestMainExitCodes:
    def test_success(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BELL_MONOTONE)
        assert main(["--config", cfg]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed[0]["value_direct"] == pytest.approx(1.0)

    def test_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"workflow": "nope"})
        assert main(["--config", cfg]) == 2
        assert "workflow" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["--config", str(path)]) == 2

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "absent.json")]) == 4

    def test_a_config_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        assert main(["--config", write_config(tmp_path, [BELL_MONOTONE])]) == 2
        assert "must be a JSON object" in capsys.readouterr().err

    def test_disagreeing_paths_exit_3(self, tmp_path, monkeypatch, capsys):
        evaluate = cli.evaluate_monotone

        def off(*args, **kwargs):
            value = evaluate(*args, **kwargs)
            return dataclasses.replace(value, value=value.value + 1e-6)

        monkeypatch.setattr(cli, "evaluate_monotone", off)
        assert main(["--config", write_config(tmp_path, BELL_MONOTONE)]) == 3
        err = capsys.readouterr().err
        assert "numerical-integrity error" in err and "disagree at t=0.0" in err

    def test_unwritable_destination(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BELL_MONOTONE)
        dest = tmp_path / "no_such_dir" / "out.json"
        assert main(["--config", cfg, "--output", str(dest)]) == 4
        assert not dest.exists()


class TestUndecodableConfigExits2:
    @pytest.mark.parametrize("payload", [
        '{"workflow": "count", "n_qubits": ' + "1" * 5001 + "}",
        b'{"workflow": "\xff\xfe"}',
        "[" * 100_000 + "]" * 100_000,
    ], ids=["5001-digit-integer", "not-utf8", "nested-100000-deep"])
    def test_exits_2_without_traceback(self, tmp_path, payload):
        proc = run_cli(tmp_path, payload)
        assert proc.returncode == 2
        assert "cannot be read as JSON" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestExitCodesWithoutTraceback:
    def test_exact_beyond_dense_cap(self, tmp_path):
        payload = {
            "workflow": "evolve",
            "initial_state": "ghz",
            "n_qubits": 14,
            "hamiltonian": xx_chain(14),
            "monotone": "n_qubit",
            "times": [0.3],
            "evolution": {"method": "exact"},
        }
        proc = run_cli(tmp_path, payload)
        assert proc.returncode == 2
        assert "evolution.method" in proc.stderr
        assert "got 14" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_product_formula_norm_drift_exits_3(self, tmp_path):
        # 30,000 first-order steps drift the norm by about 1.5e-12.
        payload = {
            "workflow": "evolve",
            "initial_state": [1, 0],
            "hamiltonian": [{"coeff": 1.0, "pauli": "X"}, {"coeff": 0.7, "pauli": "Z"}],
            "monotone": {"name": "y", "n_qubits": 1, "factors": [["Y"]], "contractions": []},
            "times": [10.0],
            "evolution": {"method": "trotter1", "steps": 30000},
        }
        proc = run_cli(tmp_path, payload)
        assert proc.returncode == 3, proc.stderr
        assert "drifted the norm" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_phases_beyond_the_float_range_exit_3(self, tmp_path):
        # found by the whole-run fuzz: EnlargedState's norm check raised on NaN
        payload = {**WORKED_EXAMPLE_EVOLVE, "hamiltonian": [{"coeff": 1e300, "pauli": "XY"}],
                   "times": [1e10]}
        proc = run_cli(tmp_path, payload)
        assert proc.returncode == 3
        assert "float range" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("method", METHODS)
    def test_phases_beyond_2_to_the_52_exit_3(self, tmp_path, method):
        # Found at t = 1e300, where the next float gave another value, exit 0.
        payload = {"workflow": "evolve", "initial_state": "w", "monotone": "three_tangle",
                   "hamiltonian": [{"coeff": 1e5, "pauli": "XYZ"}, {"coeff": 0.7, "pauli": "ZZI"}],
                   "times": [1e300], "evolution": {"method": method, "steps": 4}}
        proc = run_cli(tmp_path, payload)
        assert proc.returncode == 3
        assert "2^52" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_amplitude_near_the_float_range_exits_2_without_a_warning(self, tmp_path):
        proc = run_cli(tmp_path, {**BELL_MONOTONE, "initial_state": [1e300, 0, 0, 1]})
        assert proc.returncode == 2
        assert "initial_state" in proc.stderr
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr

    def test_evolution_given_as_string(self, tmp_path):
        proc = run_cli(tmp_path, {**WORKED_EXAMPLE_EVOLVE, "evolution": "trotter"})
        assert proc.returncode == 2
        assert "'evolution'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_zero_shots_override(self, tmp_path):
        payload = {**BELL_MONOTONE, "shots": {"shots": 100, "seed": 3}}
        proc = run_cli(tmp_path, payload, "--shots", "0")
        assert proc.returncode == 2
        assert "shots" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_negative_seed_override_on_roof(self, tmp_path):
        payload = {
            "workflow": "roof",
            "monotone": "concurrence",
            "n_qubits": 2,
            "mixed_state": {"preset": "werner", "p": 0.8},
            "roof": {"restarts": 1},
        }
        proc = run_cli(tmp_path, payload, "--seed", "-1")
        assert proc.returncode == 2
        assert "seed" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_capacity_error_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        from embedsim import CapacityError, cli

        def too_large(config):
            raise CapacityError("dense materialization capped at 13 qubits, got 14")

        monkeypatch.setattr(cli, "run", too_large)
        assert main(["--config", write_config(tmp_path, BELL_MONOTONE)]) == 2
        assert "capped" in capsys.readouterr().err


ROOF_WERNER = {
    "workflow": "roof",
    "monotone": "concurrence",
    "n_qubits": 2,
    "mixed_state": {"preset": "werner", "p": 0.8},
    "roof": {"restarts": 1},
}


SHIPPED_CONFIGS = sorted(CONFIGS.glob("*.json"))


class TestStrictConfig:
    @pytest.mark.parametrize("payload,field", [
        ({**BELL_MONOTONE, "time": [0.5]}, "'time'"),
        ({**WORKED_EXAMPLE_EVOLVE, "evolution": {"method": "exact", "step": 2}}, "'evolution.step'"),
        ({**BELL_MONOTONE, "shots": {"shots": 10, "sead": 1}}, "'shots.sead'"),
        ({**ROOF_WERNER, "roof": {"restart": 2}}, "'roof.restart'"),
        ({**ROOF_WERNER, "roof": "fast"}, "'roof'"),
        ({**ROOF_WERNER, "mixed_state": {"preset": "werner", "p": 0.8, "q": 1}}, "'mixed_state.q'"),
    ], ids=["top", "evolution", "shots", "roof", "roof-not-object", "mixed_state"])
    def test_unknown_or_malformed_field_exits_2(self, tmp_path, payload, field):
        proc = run_cli(tmp_path, payload)
        assert proc.returncode == 2
        assert field in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
    def test_shipped_configs_parse(self, path):
        parse_config(json.loads(path.read_text()))

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
    def test_shipped_config_yields_its_result_in_both_formats(self, path, capsys):
        key = "roof_value" if json.loads(path.read_text())["workflow"] == "roof" else "value_direct"
        assert main(["--config", str(path), "--format", "json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert main(["--config", str(path), "--format", "csv"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert all(row[key] for row in rows)
        assert [float(row[key]) for row in rows] == [r[key] for r in records]

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
    def test_shipped_config_json_is_the_deep_copied_record(self, path):
        records = run(parse_config(json.loads(path.read_text())))
        reference = json.dumps([dataclasses.asdict(r) for r in records], indent=2) + "\n"
        assert _render(records, "json") == reference

    def test_benchmark_evolve_config_parses(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        workload = importlib.import_module("workloads").TrajectoryExact()
        workload.setup(embedsim, 0, str(tmp_path))
        workload.prepare(0)
        config = parse_config(json.loads(Path(workload.config_path).read_text()))
        assert config.workflow == "evolve" and config.shots is not None


class TestDeterminism:
    def test_identical_config_identical_results(self, tmp_path, capsys):
        payload = {**BELL_MONOTONE, "shots": {"shots": 5000, "seed": 21}}
        cfg = write_config(tmp_path, payload)
        outputs = []
        for _ in range(2):
            assert main(["--config", cfg]) == 0
            outputs.append(json.loads(capsys.readouterr().out))
        # wall-clock duration is the only nondeterministic field
        for a, b in zip(outputs[0], outputs[1]):
            a.pop("duration_ms")
            b.pop("duration_ms")
            assert a == b

    def test_seed_override_changes_samples(self, tmp_path, capsys):
        payload = {**BELL_MONOTONE, "initial_state": [[0.9238795325112867, 0.0], 0.0, 0.0, [0.3826834323650898, 0.0]], "shots": {"shots": 1000, "seed": 21}}
        cfg = write_config(tmp_path, payload)
        assert main(["--config", cfg]) == 0
        base = json.loads(capsys.readouterr().out)
        assert main(["--config", cfg, "--seed", "99"]) == 0
        other = json.loads(capsys.readouterr().out)
        assert base[0]["value_sampled"] != other[0]["value_sampled"]

    def test_shots_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BELL_MONOTONE)
        assert main(["--config", cfg, "--shots", "50"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed[0]["value_sampled"] is not None


class TestStrictShotsAndNestedKeys:
    @pytest.mark.parametrize("payload,field", [
        ({**BELL_MONOTONE, "monotone": {
            "name": "c", "n_qubits": 2, "factors": [["Y", "Y"]], "contractions": [], "factor": 2,
        }}, "'monotone.factor'"),
        ({**WORKED_EXAMPLE_EVOLVE, "hamiltonian": [{"coeff": 1.0, "pauli": "XY", "coef": 2.0}]},
         "'hamiltonian[0].coef'"),
        # a shot plan alone makes the roof readout sample; there is no switch
        ({**ROOF_WERNER, "roof": {"restarts": 1, "use_shots": True}, "shots": {"shots": 10}},
         "'roof.use_shots': unknown key"),
    ], ids=["monotone-key", "hamiltonian-key", "use_shots-unknown-key"])
    def test_exits_2_naming_the_field(self, tmp_path, payload, field):
        proc = run_cli(tmp_path, payload)
        assert proc.returncode == 2
        assert field in proc.stderr
        assert "Traceback" not in proc.stderr


class TestOverflowExitsWithoutTraceback:
    def test_shot_count_beyond_int64(self, tmp_path):
        proc = run_cli(tmp_path, {**BELL_MONOTONE, "shots": {"shots": 1e30}})
        assert proc.returncode == 2
        assert "'shots.shots'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_shots_override_beyond_int64(self, tmp_path):
        proc = run_cli(tmp_path, BELL_MONOTONE, "--shots", "1" + "0" * 30)
        assert proc.returncode == 2
        assert "shots" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_infinite_restarts(self, tmp_path):
        # 1e400 is valid JSON; Python's parser reads it as float infinity.
        text = json.dumps({**ROOF_WERNER, "roof": {"restarts": 0}}).replace(
            '"restarts": 0', '"restarts": 1e400'
        )
        proc = run_cli(tmp_path, text)
        assert proc.returncode == 2
        assert "'roof.restarts'" in proc.stderr
        assert "Traceback" not in proc.stderr


SPEC_OBJECT = {"name": "c", "n_qubits": 2, "factors": [["Y", {"idx": 0}], ["Y", {"idx": 1}]],
               "contractions": [[0, 1]]}


def chained_spec(k):
    """Two k-slot factors tied slot by slot: k contractions, 3^k expansion terms."""
    return {"name": "chained", "n_qubits": k,
            "factors": [[{"idx": i} for i in range(k)], [{"idx": k + i} for i in range(k)]],
            "contractions": [[i, k + i] for i in range(k)]}


class TestLoopCountCaps:
    @pytest.mark.parametrize("payload,field", [
        ({**WORKED_EXAMPLE_EVOLVE, "evolution": {"method": "trotter1", "steps": 10**12}},
         "'evolution.steps'"),
        ({**ROOF_WERNER, "roof": {"restarts": 10**9}}, "'roof.restarts'"),
        ({**ROOF_WERNER, "roof": {"restarts": 1, "max_iterations": 10**12}},
         "'roof.max_iterations'"),
        # found by hand: k = min(1 + 10^6, 4^4) = 256 members ran for about an hour
        ({"workflow": "roof", "initial_state": "ghz", "n_qubits": 4, "monotone": "n_qubit",
          "roof": {"extra_terms": 10**6, "restarts": 1, "max_iterations": 1}},
         "'roof.extra_terms'"),
        ({**ROOF_WERNER, "roof": {"restarts": 1, "extra_terms": MAX_ROOF_EXTRA_TERMS + 1}},
         "'roof.extra_terms'"),
        # found by the whole-run fuzz: a MemoryError and an integer too long to print
        ({**BELL_MONOTONE, "initial_state": "ghz", "n_qubits": 2**64}, "'n_qubits'"),
        ({"workflow": "count", "monotone": "n_qubit", "n_qubits": 10**7}, "'n_qubits'"),
        ({"workflow": "count", "monotone": {**SPEC_OBJECT, "n_qubits": MAX_QUBITS + 1}},
         "'monotone.n_qubits'"),
        ({"workflow": "count", "monotone": chained_spec(MAX_SPEC_DEGREE + 1)},
         "'monotone.contractions'"),
        # found by a whole-run check: the roof built the 4^N density matrix
        # first, and at 24 qubits numpy's allocation error escaped
        ({"workflow": "roof", "initial_state": "ghz", "n_qubits": 14, "monotone": "n_qubit"},
         "capped"),
        ({"workflow": "roof", "initial_state": "ghz", "n_qubits": MAX_QUBITS,
          "monotone": "n_qubit"}, "capped"),
    ], ids=["steps", "restarts", "max_iterations", "extra_terms-huge", "extra_terms", "state-qubits", "count-qubits", "spec-qubits",
            "spec-degree", "roof-qubits-14", "roof-qubits-max"])
    def test_count_beyond_its_cap_exits_2(self, tmp_path, payload, field):
        proc = run_cli(tmp_path, payload)
        assert proc.returncode == 2
        assert field in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_counts_at_their_caps_parse(self):
        evolve = {**WORKED_EXAMPLE_EVOLVE,
                  "evolution": {"method": "trotter1", "steps": MAX_EVOLUTION_STEPS}}
        assert parse_config(evolve).evolution_steps == MAX_EVOLUTION_STEPS
        roof = {**ROOF_WERNER, "roof": {"restarts": MAX_ROOF_RESTARTS,
                                        "max_iterations": MAX_ROOF_ITERATIONS,
                                        "extra_terms": MAX_ROOF_EXTRA_TERMS}}
        config = parse_config(roof)
        assert config.roof.restarts == MAX_ROOF_RESTARTS
        assert config.roof.max_iterations == MAX_ROOF_ITERATIONS
        assert config.roof.extra_terms == MAX_ROOF_EXTRA_TERMS
        count = parse_config({"workflow": "count", "monotone": "n_qubit", "n_qubits": MAX_QUBITS})
        assert count.monotone.n_qubits == MAX_QUBITS

    def test_spec_at_its_degree_cap_counts(self, tmp_path):
        proc = run_cli(tmp_path, {"workflow": "count", "monotone": chained_spec(MAX_SPEC_DEGREE)})
        assert proc.returncode == 0, proc.stderr
        # both factors run over the same 3^8 labels, each measured as a pair
        assert json.loads(proc.stdout)[0]["n_observables"] == 2 * 3**MAX_SPEC_DEGREE


class TestIntegerFields:
    """Each integer field takes a JSON integer only: int() would have read
    2.7 as 2, true as 1 and "1" as 1, and run."""

    @pytest.mark.parametrize("payload,field", [
        ({**BELL_MONOTONE, "n_qubits": True}, "'n_qubits'"),
        ({**WORKED_EXAMPLE_EVOLVE, "evolution": {"steps": True}}, "'evolution.steps'"),
        ({**BELL_MONOTONE, "shots": {"shots": 2.7}}, "'shots.shots'"),
        ({**BELL_MONOTONE, "shots": {"shots": 10, "seed": True}}, "'shots.seed'"),
        ({**ROOF_WERNER, "roof": {"restarts": 1.9}}, "'roof.restarts'"),
        ({**ROOF_WERNER, "roof": {"restarts": 1, "max_iterations": 5.5}}, "'roof.max_iterations'"),
        ({**ROOF_WERNER, "roof": {"restarts": 1, "extra_terms": True}}, "'roof.extra_terms'"),
        ({**ROOF_WERNER, "roof": {"restarts": 1, "seed": 3.7}}, "'roof.seed'"),
        ({**ROOF_WERNER, "roof": {"restarts": "1"}}, "'roof.restarts'"),
        ({**BELL_MONOTONE, "monotone": {**SPEC_OBJECT, "n_qubits": 2.0}}, "'monotone.n_qubits'"),
        ({**BELL_MONOTONE, "monotone": {**SPEC_OBJECT, "factors": [["Y", {"idx": 0.5}],
                                                                   ["Y", {"idx": 1}]]}},
         "'monotone.factors.idx'"),
        ({**BELL_MONOTONE, "monotone": {**SPEC_OBJECT, "contractions": [[0, True]]}},
         "'monotone.contractions'"),
    ], ids=["n_qubits", "steps", "shots", "shots-seed", "restarts", "max_iterations",
            "extra_terms", "roof-seed", "string", "spec-n_qubits", "spec-idx",
            "spec-contraction"])
    def test_non_integer_exits_2_naming_the_field(self, tmp_path, payload, field):
        proc = run_cli(tmp_path, payload)
        assert proc.returncode == 2
        assert field in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_spec_object_with_integer_fields_parses(self):
        spec = parse_config({**BELL_MONOTONE, "monotone": SPEC_OBJECT}).monotone
        assert spec.factors == (("Y", 0), ("Y", 1)) and spec.contractions == ((0, 1),)


def test_nan_roof_tolerance_exits_2(tmp_path):
    # Python's json reads NaN; the roof block has no tolerance key to read it into.
    payload = {**ROOF_WERNER, "roof": {"restarts": 1, "max_iterations": 40,
                                       "tolerance": float("nan")}}
    proc = run_cli(tmp_path, json.dumps(payload))
    assert proc.returncode == 2
    assert "'roof.tolerance': unknown key" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_the_roof_block_has_four_keys(tmp_path, capsys):
    roof = {"extra_terms": 0, "max_iterations": 40, "restarts": 1, "seed": 3}
    assert parse_config({**ROOF_WERNER, "roof": roof}).roof == RoofConfig(**roof)
    # the old default of the removed key fails like any unknown key
    payload = {**ROOF_WERNER, "roof": {**roof, "tolerance": 1e-6}}
    assert main(["--config", write_config(tmp_path, payload)]) == 2
    assert "'roof.tolerance': unknown key" in capsys.readouterr().err


def with_matrix_entry(entry):
    """ROOF_WERNER on |00><00|, with `entry` at [0][0]."""
    matrix = np.zeros((4, 4)).tolist()
    matrix[0][0] = entry
    return {**ROOF_WERNER, "mixed_state": {"matrix": matrix}}


class TestRealFields:
    """Each real field takes a finite JSON number only: float() would have
    read true as 1.0 and "0.5" as 0.5, and run."""

    @pytest.mark.parametrize("payload,field", [
        ({**BELL_MONOTONE, "times": [True]}, "'times[0]'"),
        ({**BELL_MONOTONE, "times": ["0.5"]}, "'times[0]'"),
        ({**BELL_MONOTONE, "initial_state": [True, False, False, False]}, "'initial_state[0]'"),
        ({**BELL_MONOTONE, "initial_state": ["1", 0, 0, 0]}, "'initial_state[0]'"),
        (with_matrix_entry(True), "'mixed_state.matrix[0][0]'"),
        (with_matrix_entry("1"), "'mixed_state.matrix[0][0]'"),
        ({**WORKED_EXAMPLE_EVOLVE, "hamiltonian": [{"coeff": True, "pauli": "XY"}]},
         "'hamiltonian[0].coeff'"),
        ({**WORKED_EXAMPLE_EVOLVE, "hamiltonian": [{"coeff": "2", "pauli": "XY"}]},
         "'hamiltonian[0].coeff'"),
        ({**ROOF_WERNER, "mixed_state": {"preset": "werner", "p": True}}, "'mixed_state.p'"),
        ({**ROOF_WERNER, "mixed_state": {"preset": "werner", "p": "0.5"}}, "'mixed_state.p'"),
    ], ids=["times-true", "times-string", "amplitude-true", "amplitude-string",
            "matrix-entry-true", "matrix-entry-string", "coeff-true", "coeff-string",
            "p-true", "p-string"])
    def test_non_number_exits_2_naming_the_field(self, tmp_path, payload, field):
        proc = run_cli(tmp_path, payload)
        assert proc.returncode == 2
        assert field in proc.stderr
        assert "Traceback" not in proc.stderr


IDENTITY_4 = (np.eye(4) / 4).tolist()


class TestQubitCountsAndStateForms:
    @pytest.mark.parametrize("payload,field", [
        ({**BELL_MONOTONE, "n_qubits": 3}, "'initial_state'"),
        ({**BELL_MONOTONE, "n_qubits": 3, "initial_state": [1, 0, 0, 0]}, "'initial_state'"),
        ({**ROOF_WERNER, "mixed_state": {"preset": "foo", "matrix": IDENTITY_4}}, "'mixed_state'"),
        ({**ROOF_WERNER, "mixed_state": {"preset": "werner", "p": 0.5, "matrix": IDENTITY_4}},
         "'mixed_state'"),
        ({**ROOF_WERNER, "mixed_state": {"p": 0.3, "matrix": IDENTITY_4}}, "'mixed_state'"),
        ({"workflow": "roof", "mixed_state": {"matrix": (np.eye(8) / 8).tolist()},
          "monotone": "concurrence"}, "'mixed_state'"),
        ({"workflow": "roof", "n_qubits": 3, "mixed_state": {"preset": "werner", "p": 0.5},
          "monotone": "three_tangle"}, "'mixed_state'"),
        ({**WORKED_EXAMPLE_EVOLVE, "hamiltonian": [{"coeff": 1.0, "pauli": "XYZ"}]},
         "'hamiltonian'"),
    ], ids=["preset-ignores-n_qubits", "amplitudes-against-n_qubits", "preset-and-matrix",
            "werner-and-matrix", "p-and-matrix", "roof-3-qubit-matrix", "roof-werner-three_tangle",
            "hamiltonian-against-state"])
    def test_exits_2_naming_the_field(self, tmp_path, payload, field):
        proc = run_cli(tmp_path, payload)
        assert proc.returncode == 2
        assert field in proc.stderr
        assert "Traceback" not in proc.stderr


class TestOverridesAreConfigFields:
    @pytest.mark.parametrize("payload,args,field", [
        ({**BELL_MONOTONE, "shots": {"shots": 100, "seed": 3}}, ["--shots", "0"], "'shots.shots'"),
        (ROOF_WERNER, ["--seed", "-1"], "'roof.seed'"),
    ], ids=["shots", "roof-seed"])
    def test_bad_override_exits_2_naming_the_field(self, tmp_path, payload, args, field):
        proc = run_cli(tmp_path, payload, *args)
        assert proc.returncode == 2
        assert field in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_seed_override_on_a_roof_config_with_no_roof_block(self, tmp_path):
        # Without a roof block the seed used to be dropped, and the solve ran on seed 0.
        payload = {**ROOF_WERNER, "mixed_state": {"preset": "werner", "p": 0.6}}
        del payload["roof"]
        rows = []
        for config in (payload, {**payload, "roof": {}}):
            proc = run_cli(tmp_path, config, "--seed", "5", "--format", "csv")
            assert proc.returncode == 0, proc.stderr
            (row,) = csv.DictReader(io.StringIO(proc.stdout))
            row.pop("duration_ms")
            rows.append(row)
        assert rows[0] == rows[1]

    def test_shots_override_supplies_the_roof_shot_plan(self, tmp_path, capsys):
        roof = {"restarts": 1, "max_iterations": 2, "extra_terms": 0}
        outputs = []
        for payload, args in [({**ROOF_WERNER, "roof": roof}, ["--shots", "50"]),
                              ({**ROOF_WERNER, "roof": roof, "shots": {"shots": 50}}, [])]:
            assert main(["--config", write_config(tmp_path, payload), *args]) == 0
            (record,) = json.loads(capsys.readouterr().out)
            record.pop("duration_ms")
            outputs.append(record)
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize("payload,args,plan", [
    (json.loads((CONFIGS / "werner_roof.json").read_text()), ["--shots", "50"], ShotPlan(50, 0)),
    ({**{k: v for k, v in ROOF_WERNER.items() if k != "roof"}, "shots": {"shots": 50, "seed": 7}},
     [], ShotPlan(50, 7)),
], ids=["shipped-config-with-shots-override", "shots-block-and-no-roof-block"])
def test_a_shot_plan_reads_the_roof_out_in_value_sampled(tmp_path, capsys, payload, args, plan):
    # the search runs exactly, and roof_value is its value with or without a
    # plan; the plan samples the winning decomposition once, into value_sampled
    config = parse_config(payload)
    result = convex_roof_estimate(config.mixed_state, config.monotone, config.roof or RoofConfig())
    sampled = roof_objective(result.decomposition, config.monotone, plan)
    assert main(["--config", write_config(tmp_path, payload), *args]) == 0
    (record,) = json.loads(capsys.readouterr().out)
    assert (record["roof_value"], record["value_sampled"]) == (result.value, sampled)
    assert sampled != result.value
    without = {k: v for k, v in payload.items() if k != "shots"}
    assert main(["--config", write_config(tmp_path, without, "exact.json")]) == 0
    (exact,) = json.loads(capsys.readouterr().out)
    assert exact["roof_value"] == record["roof_value"] and exact["value_sampled"] is None


FUZZ_BASE = {
    "workflow": "evolve",
    "n_qubits": 2,
    "initial_state": "bell",
    "hamiltonian": [{"coeff": 1.0, "pauli": "XY"}, {"coeff": 0.5, "pauli": "ZI"}],
    "monotone": {"name": "c", "n_qubits": 2, "factors": [["Y", {"idx": 0}], ["Y", {"idx": 1}]],
                 "contractions": [[0, 1]]},
    "times": [0.0, 0.5],
    "evolution": {"method": "trotter2", "steps": 4},
    "shots": {"shots": 100, "seed": 1},
    "roof": {"extra_terms": 1, "max_iterations": 10, "restarts": 1, "seed": 0},
    "mixed_state": {"preset": "werner", "p": 0.8},
}
# The same config with the state and the mixed state given as numbers.
LISTS_BASE = {
    **FUZZ_BASE,
    "initial_state": [[0.6, 0.0], 0.0, 0.0, [0.0, 0.8]],
    "mixed_state": {"matrix": [[0.5, 0.0], [0.0, [0.5, 0.0]]]},
}
# Every field of the two bases, as (base, path of keys). The state presets
# ignore n_qubits or get 2, so no value makes the parser allocate a large state.
FUZZ_FIELDS = [(FUZZ_BASE, path) for path in [
    *((key,) for key in FUZZ_BASE),
    ("hamiltonian", 0), ("hamiltonian", 0, "coeff"), ("hamiltonian", 0, "pauli"),
    ("monotone", "name"), ("monotone", "n_qubits"), ("monotone", "factors"),
    ("monotone", "factors", 0), ("monotone", "factors", 0, 1), ("monotone", "factors", 0, 1, "idx"),
    ("monotone", "contractions"), ("monotone", "contractions", 0),
    ("monotone", "contractions", 0, 1), ("times", 1),
    ("evolution", "method"), ("evolution", "steps"), ("shots", "shots"), ("shots", "seed"),
    *(("roof", key) for key in FUZZ_BASE["roof"]),
    ("mixed_state", "preset"), ("mixed_state", "p"),
]] + [(LISTS_BASE, path) for path in [
    ("initial_state",), ("initial_state", 0), ("initial_state", 0, 1), ("initial_state", 3),
    ("mixed_state", "matrix"), ("mixed_state", "matrix", 1), ("mixed_state", "matrix", 1, 1),
    ("mixed_state", "matrix", 1, 1, 0), ("mixed_state", "preset"),
]]
# Values at the edges of what the parser converts (int64, float range, NaN,
# names it knows), drawn as often as arbitrary scalars.
EDGE_VALUES = [
    -1, 0, 1, 2, 2**63, 10**400, -(10**400), 1e300, float("inf"), float("-inf"), float("nan"),
    "", "1", "bell", "ghz", "exact", "trotter1", "werner", "concurrence", "XY", "Y", "idx",
]
JSON_VALUES = st.recursive(
    st.sampled_from(EDGE_VALUES)
    | (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(["idx", "coeff", "pauli", "p", "x"]), children, max_size=3),
    max_leaves=8,
)


def with_value(field, value):
    """A copy of field's base config with the value at field's path."""
    base, path = field
    raw = copy.deepcopy(base)
    target = raw
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return raw


class TestConfigFuzz:
    """parse_config returns a config or raises ConfigError, whatever JSON
    value a field holds."""

    def test_edge_values_in_every_field(self):
        parse_config(FUZZ_BASE)
        parse_config(LISTS_BASE)
        escaped = []
        for field in FUZZ_FIELDS:
            for value in EDGE_VALUES:
                try:
                    parse_config(with_value(field, value))
                except ConfigError:
                    pass
                except Exception as exc:  # noqa: BLE001 - any other type is the failure
                    escaped.append((field[1], value, repr(exc)))
        assert escaped == []

    @settings(max_examples=300)
    @given(field=st.sampled_from(FUZZ_FIELDS), value=JSON_VALUES)
    def test_json_values_in_any_field(self, field, value):
        try:
            parse_config(with_value(field, value))
        except ConfigError:
            pass


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_edge_values_raise_no_runtime_warning():
    # A numpy warning raised as an error escapes as one more exception: an
    # entry near 1e300 must meet its config error without a warning first.
    TestConfigFuzz().test_edge_values_in_every_field()


# Whole-run fuzz: a well-formed document of every workflow, with huge and
# tiny coefficients, times and shot counts, then up to two fields set to a
# malformed or edge value or removed. Registers stay at 2 or 3 qubits and
# loop counts small or past their caps, so a document that parses runs in
# milliseconds.
FINITE = st.sampled_from([
    0.0, 1.0, -1.0, 0.3, 1e-300, 5e-324, 1e5, -2.5e5, 1e150, -1e300, 1.7e308,
]) | st.floats(-10.0, 10.0)
EDGE = st.sampled_from([
    None, True, 0, 1, -1, 2.5, 10**7, 2**64, float("inf"), float("nan"), "", "x", "2", [], {},
    [1, 2], {"x": 1}, "bell", "ghz", "werner", "exact", "trotter1", "concurrence", "XY",
])
REMOVE = object()
MUTABLE_PATHS = [
    ("workflow",), ("n_qubits",), ("initial_state",), ("hamiltonian",), ("hamiltonian", 0),
    ("hamiltonian", 0, "coeff"), ("hamiltonian", 0, "pauli"), ("monotone",), ("times",),
    ("times", 0), ("evolution",), ("evolution", "method"), ("evolution", "steps"), ("shots",),
    ("shots", "shots"), ("shots", "seed"), ("roof",), ("roof", "extra_terms"),
    ("roof", "max_iterations"), ("roof", "restarts"), ("roof", "seed"),
    ("mixed_state",), ("mixed_state", "p"),
]


def mutate(doc, path, value):
    """Set the value at path, or remove it, where its parent still exists."""
    parent = doc
    for key in path[:-1]:
        try:
            parent = parent[key]
        except (KeyError, IndexError, TypeError):
            return
    key = path[-1]
    if isinstance(parent, dict):
        if value is REMOVE:
            parent.pop(key, None)
        else:
            parent[key] = value
    elif isinstance(parent, list) and isinstance(key, int) and key < len(parent):
        if value is not REMOVE:
            parent[key] = value


@st.composite
def documents(draw):
    n = draw(st.sampled_from([2, 3]))
    v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=2 << n, max_size=2 << n)))
    norm = np.linalg.norm(v)
    amplitudes = (v / norm).reshape(-1, 2).tolist() if norm > 0.1 else "w"
    doc = {
        "workflow": draw(st.sampled_from(WORKFLOWS)),
        "n_qubits": n,
        "initial_state": draw(st.sampled_from(["ghz", "w", "product", amplitudes])),
        "hamiltonian": draw(st.lists(
            st.fixed_dictionaries({"coeff": FINITE, "pauli": st.text("IXYZ", min_size=n, max_size=n)}),
            min_size=1, max_size=4)),
        "monotone": draw(st.sampled_from(["n_qubit", "concurrence" if n == 2 else "three_tangle"])),
        "times": draw(st.lists(FINITE, min_size=1, max_size=3)),
        "evolution": {"method": draw(st.sampled_from(METHODS)), "steps": draw(st.integers(1, 3))},
        "roof": {"extra_terms": draw(st.integers(0, 1)), "max_iterations": draw(st.integers(1, 3)),
                 "restarts": draw(st.integers(1, 2)), "seed": draw(st.integers(0, 2**64 - 1))},
    }
    if draw(st.booleans()):
        doc["shots"] = {"shots": draw(st.sampled_from([1, 1000, 2**62])),
                        "seed": draw(st.integers(0, 2**64 - 1))}
    if n == 2 and draw(st.booleans()):
        doc["mixed_state"] = {"preset": "werner", "p": draw(FINITE | st.floats(0.0, 1.0))}
    changes = st.tuples(st.sampled_from(MUTABLE_PATHS), EDGE | st.just(REMOVE))
    for path, value in draw(st.lists(changes, max_size=2)):
        mutate(doc, path, value)
    return doc


OVERRIDES = st.sampled_from([
    [], ["--format", "csv"], ["--seed", "3"], ["--seed", "-1"], ["--shots", "50"], ["--shots", "0"],
])


class TestWholeRunFuzz:
    """main returns an exit code of its contract, whatever the document."""

    @settings(max_examples=300, deadline=None)
    @given(document=documents(), overrides=OVERRIDES)
    def test_main_exits_0_2_3_or_4(self, document, overrides):
        with tempfile.TemporaryDirectory() as tmp:
            config = os.path.join(tmp, "config.json")
            with open(config, "w") as fh:
                json.dump(document, fh)
            code = main(["--config", config, "--output", os.path.join(tmp, "out"), *overrides])
        assert code in (0, 2, 3, 4)
