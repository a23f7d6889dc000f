"""Experiment runner: configure states, Hamiltonians and monotones from a
JSON document, run a workflow, emit machine-readable records.

Exit codes: 0 success, 2 config error, 3 numerical-integrity error, 4 I/O
error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .convexroof import RoofConfig, convex_roof_estimate, roof_objective, werner_state
from .embedding import embed_hamiltonian, embed_state
from .errors import CapacityError, ConfigError, NumericalIntegrityError
from .evolution import METHODS, evolve, evolve_enlarged
from .measurement import ShotPlan, _nth_plan, sample_estimates
from .monotones import (
    MONOTONE_PRESETS,
    MonotoneSpec,
    _expansion,
    _pair_readings,
    combine_estimates,
    evaluate_monotone,
    expand_to_observables,
    tomography_baseline,
)
from .pauli import MixedState, PauliSum, PureState

WORKFLOWS = ("evolve", "monotone", "roof", "count")
CONFIG_KEYS = (
    "workflow", "n_qubits", "initial_state", "hamiltonian", "monotone", "times",
    "evolution", "shots", "roof", "mixed_state",
)
PATH_AGREEMENT_ATOL = 1e-9
# Caps on a config's loop counts, far above the 20 steps, 8 restarts, 500
# iterations and 2 extra terms any shipped config, test or benchmark asks for.
MAX_EVOLUTION_STEPS = 10**6
MAX_ROOF_RESTARTS = 10**3
MAX_ROOF_ITERATIONS = 10**5
MAX_ROOF_EXTRA_TERMS = 64
# Cap on a config's qubit counts: a preset state of 24 qubits holds 256 MiB of
# amplitudes, and larger counts would allocate past memory or emit a
# tomography baseline too long to print.
MAX_QUBITS = 24
# Cap on a spec's contractions: k expand to 3^k terms; the presets use at most 2.
MAX_SPEC_DEGREE = 8


def ghz_state(n: int = 3) -> PureState:
    v = np.zeros(1 << n, dtype=complex)
    v[0] = v[-1] = 1.0 / np.sqrt(2.0)
    return PureState(v)


def w_state(n: int = 3) -> PureState:
    v = np.zeros(1 << n, dtype=complex)
    for q in range(n):
        v[1 << q] = 1.0 / np.sqrt(n)
    return PureState(v)


def product_state(n: int) -> PureState:
    v = np.zeros(1 << n, dtype=complex)
    v[0] = 1.0
    return PureState(v)


STATE_PRESETS = {
    "bell": lambda n=2: ghz_state(2),
    "ghz": ghz_state,
    "w": w_state,
    "product": product_state,
    "zero": product_state,
}


@dataclass(frozen=True)
class ExperimentConfig:
    workflow: str
    initial_state: PureState | None = None
    hamiltonian: PauliSum | None = None
    evolution_method: str = "exact"
    evolution_steps: int = 1
    times: tuple[float, ...] = (0.0,)
    monotone: MonotoneSpec | None = None
    shots: ShotPlan | None = None
    roof: RoofConfig | None = None
    mixed_state: MixedState | None = None


@dataclass
class ResultRecord:
    t: float | None = None
    value_direct: float | None = None
    value_embedded: float | None = None
    value_sampled: float | None = None
    per_observable: list[float] | None = None
    per_observable_sampled: list[float] | None = None
    n_observables: int | None = None
    n_tomography: int | None = None
    duration_ms: float | None = None
    roof_value: float | None = None
    roof_k: int | None = None
    roof_iterations: int | None = None
    roof_converged: bool | None = None

    def to_dict(self) -> dict:
        """The fields by name; the lists are the record's own, not copies."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}


def _fail(field: str, message: str):
    raise ConfigError(f"config field '{field}': {message}")


@contextlib.contextmanager
def _field(field: str):
    """Turn a bad value met while building `field` into a ConfigError that
    names it."""
    try:
        yield
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        _fail(field, str(exc))


def _integer(value, field: str, lo: float, hi: float) -> int:
    """`value` if a JSON integer in [lo, hi], else fail naming `field` (int() takes 0.5 or true)."""
    if type(value) is not int or not lo <= value <= hi:
        _fail(field, f"must be an integer in [{lo}, {hi}], got {value!r}")
    return value


def _number(value, field: str) -> float:
    """`value` as a float if a finite JSON number, else fail naming `field`
    (float() takes true or "1e-3"; it is called only once the range holds)."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        _fail(field, f"must be a finite number, got {value!r}")
    return float(value)


def _object(raw, field: str, keys: tuple[str, ...]) -> dict:
    """`raw` as a config object; an unknown key fails with its field path."""
    if not isinstance(raw, dict):
        _fail(field, "expected an object")
    for key in raw:
        if key not in keys:
            _fail(f"{field}.{key}" if field else key, f"unknown key; expected one of {keys}")
    return raw


def _amplitude(entry, field: str) -> complex:
    """A plain number or an [re, im] pair of numbers."""
    if isinstance(entry, list) and len(entry) == 2:
        return complex(_number(entry[0], field), _number(entry[1], field))
    return complex(_number(entry, field))


def _parse_state(raw, n_qubits: int | None) -> PureState:
    if isinstance(raw, str):
        if raw not in STATE_PRESETS:
            _fail("initial_state", f"unknown preset {raw!r}")
        with _field("initial_state"):
            return STATE_PRESETS[raw]() if n_qubits is None else STATE_PRESETS[raw](n_qubits)
    if isinstance(raw, list):
        with _field("initial_state"):
            amplitudes = [_amplitude(a, f"initial_state[{i}]") for i, a in enumerate(raw)]
            return PureState.from_amplitudes(amplitudes)
    _fail("initial_state", "expected a preset name or an amplitude list")


def _parse_monotone(raw, n_qubits: int | None) -> MonotoneSpec:
    if isinstance(raw, str):
        if raw not in MONOTONE_PRESETS:
            _fail("monotone", f"unknown preset {raw!r}")
        with _field("monotone"):
            return MONOTONE_PRESETS[raw]() if n_qubits is None else MONOTONE_PRESETS[raw](n_qubits)
    if isinstance(raw, dict):
        _object(raw, "monotone", ("name", "n_qubits", "factors", "contractions"))
        with _field("monotone"):
            _integer(raw.get("n_qubits"), "monotone.n_qubits", 1, MAX_QUBITS)
            for slot in (s for factor in raw["factors"] for s in factor if isinstance(s, dict)):
                _integer(slot.get("idx"), "monotone.factors.idx", -np.inf, np.inf)
            pairs = raw["contractions"]
            if len(pairs) > MAX_SPEC_DEGREE:
                _fail("monotone.contractions", f"at most {MAX_SPEC_DEGREE} pairs, got {len(pairs)}")
            for label in (label for pair in pairs for label in pair):
                _integer(label, "monotone.contractions", -np.inf, np.inf)
            return MonotoneSpec.from_json(raw)
    _fail("monotone", "expected a preset name or a spec object")


def _parse_mixed_state(raw) -> MixedState:
    _object(raw, "mixed_state", ("preset", "p", "matrix"))
    with _field("mixed_state"):
        if raw.keys() == {"preset", "p"} and raw["preset"] == "werner":
            return werner_state(_number(raw["p"], "mixed_state.p"))
        if raw.keys() == {"matrix"}:
            rows = [[_amplitude(e, f"mixed_state.matrix[{i}][{j}]") for j, e in enumerate(row)]
                    for i, row in enumerate(raw["matrix"])]
            return MixedState(np.array(rows, dtype=complex))
    _fail("mixed_state", "expected {'preset': 'werner', 'p': ...} or {'matrix': ...}")


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    _object(raw, "", CONFIG_KEYS)
    workflow = raw.get("workflow")
    if workflow not in WORKFLOWS:
        _fail("workflow", f"expected one of {WORKFLOWS}, got {workflow!r}")

    n_qubits = raw.get("n_qubits")
    if n_qubits is not None:
        _integer(n_qubits, "n_qubits", 1, MAX_QUBITS)

    hamiltonian = None
    if raw.get("hamiltonian") is not None:
        if not isinstance(raw["hamiltonian"], list):
            _fail("hamiltonian", "expected a list of {'coeff': ..., 'pauli': ...} records")
        for i, record in enumerate(raw["hamiltonian"]):
            _object(record, f"hamiltonian[{i}]", ("coeff", "pauli"))
            _number(record.get("coeff"), f"hamiltonian[{i}].coeff")
        with _field("hamiltonian"):
            hamiltonian = PauliSum.from_records(raw["hamiltonian"])

    state = None
    if raw.get("initial_state") is not None:
        state = _parse_state(raw["initial_state"], n_qubits)
        if n_qubits is not None and state.n != n_qubits:
            _fail("initial_state", f"has {state.n} qubits, n_qubits is {n_qubits}")
        if hamiltonian is not None and hamiltonian.n != state.n:
            _fail("hamiltonian", f"acts on {hamiltonian.n} qubits, state has {state.n}")
        n_qubits = state.n

    monotone = None
    if raw.get("monotone") is not None:
        monotone = _parse_monotone(raw["monotone"], n_qubits)
        if n_qubits is not None and monotone.n_qubits != n_qubits:
            _fail("monotone", f"spec is for {monotone.n_qubits} qubits, expected {n_qubits}")

    times = raw.get("times", [0.0])
    if not isinstance(times, list):
        _fail("times", "must be a list of finite numbers")
    times = tuple(_number(t, f"times[{i}]") for i, t in enumerate(times))

    evolution = _object(raw.get("evolution", {}), "evolution", ("method", "steps"))
    method = evolution.get("method", "exact")
    if method not in METHODS:
        _fail("evolution.method", f"expected one of {METHODS}")
    steps = _integer(evolution.get("steps", 1), "evolution.steps", 1, MAX_EVOLUTION_STEPS)

    shots = None
    if raw.get("shots") is not None:
        plan = _object(raw["shots"], "shots", ("shots", "seed"))
        shots = ShotPlan(_integer(plan.get("shots"), "shots.shots", 1, 2**63 - 1),
                         _integer(plan.get("seed", 0), "shots.seed", 0, 2**64 - 1))

    roof = None
    if raw.get("roof") is not None:
        bounds = {"extra_terms": (0, MAX_ROOF_EXTRA_TERMS),
                  "max_iterations": (1, MAX_ROOF_ITERATIONS),
                  "restarts": (1, MAX_ROOF_RESTARTS), "seed": (0, 2**64 - 1)}
        opts = _object(raw["roof"], "roof", tuple(bounds))
        with _field("roof"):
            roof = RoofConfig(**{k: _integer(opts[k], f"roof.{k}", *b)
                                 for k, b in bounds.items() if k in opts})

    mixed = None
    if raw.get("mixed_state") is not None:
        mixed = _parse_mixed_state(raw["mixed_state"])

    return ExperimentConfig(
        workflow=workflow,
        initial_state=state,
        hamiltonian=hamiltonian,
        evolution_method=method,
        evolution_steps=steps,
        times=times,
        monotone=monotone,
        shots=shots,
        roof=roof,
        mixed_state=mixed,
    )


def _require(config: ExperimentConfig, field: str):
    if getattr(config, field) is None:
        _fail(field, f"required for the {config.workflow!r} workflow")


def run(config: ExperimentConfig) -> list[ResultRecord]:
    if config.workflow == "count":
        _require(config, "monotone")
        start = time.perf_counter()
        record = ResultRecord(
            n_observables=len(expand_to_observables(config.monotone)),
            n_tomography=tomography_baseline(config.monotone.n_qubits),
            duration_ms=(time.perf_counter() - start) * 1e3,
        )
        return [record]

    if config.workflow == "roof":
        _require(config, "monotone")
        rho = config.mixed_state
        if rho is None:
            if config.initial_state is None:
                _fail("mixed_state", "roof workflow needs a mixed_state or initial_state")
            rho = MixedState.from_pure(config.initial_state)
        if rho.n != config.monotone.n_qubits:
            _fail("mixed_state", f"has {rho.n} qubits, monotone has {config.monotone.n_qubits}")
        start = time.perf_counter()
        result = convex_roof_estimate(rho, config.monotone, config.roof or RoofConfig())
        return [
            ResultRecord(
                roof_value=result.value,
                value_sampled=(None if config.shots is None else
                               roof_objective(result.decomposition, config.monotone, config.shots)),
                roof_k=result.decomposition.size,
                roof_iterations=result.iterations,
                roof_converged=result.converged,
                n_observables=len(expand_to_observables(config.monotone)),
                n_tomography=tomography_baseline(config.monotone.n_qubits),
                duration_ms=(time.perf_counter() - start) * 1e3,
            )
        ]

    # evolve / monotone: trajectory of monotone values along the dynamics
    _require(config, "initial_state")
    _require(config, "monotone")
    if config.workflow == "evolve":
        _require(config, "hamiltonian")
    psi0 = config.initial_state
    spec = config.monotone
    h_tilde = embed_hamiltonian(config.hamiltonian) if config.hamiltonian else None
    sums = _expansion(spec).sums
    moving = [t for t in config.times if t != 0.0] if h_tilde is not None else []
    trajectory = _trajectory(config, h_tilde, moving)
    records = []
    for k, t in enumerate(config.times):
        start = time.perf_counter()
        if h_tilde is None or t == 0.0:
            psi_t, tilde_t, evolved_ms = psi0, embed_state(psi0), 0.0
        else:
            tilde_t, psi_t, evolved_ms = next(trajectory)
            start = time.perf_counter()  # the evolution comes in evolved_ms
        direct = evaluate_monotone(psi_t, spec, path="direct").value
        # The embedded value is the exact-expectation limit of the sampled one.
        per_observable = _pair_readings(tilde_t, sums)
        embedded = combine_estimates(spec, per_observable)
        if abs(direct - embedded) >= PATH_AGREEMENT_ATOL:
            raise NumericalIntegrityError(
                f"direct/embedded paths disagree at t={t}: {direct} vs {embedded}"
            )
        record = ResultRecord(
            t=t,
            value_direct=direct,
            value_embedded=embedded,
            per_observable=per_observable,
            n_observables=len(per_observable),
            n_tomography=tomography_baseline(spec.n_qubits),
        )
        if config.shots is not None:
            per_obs = sample_estimates(per_observable, _nth_plan(config.shots, k))
            record.value_sampled = combine_estimates(spec, per_obs)
            record.per_observable_sampled = list(per_obs)
        record.duration_ms = (time.perf_counter() - start) * 1e3 + evolved_ms
        records.append(record)
    return records


def _trajectory(config: ExperimentConfig, h_tilde, times: list[float]):
    """(enlarged state, direct state, evolution ms) per time, each path
    evolved from its own Hamiltonian; the enlarged one goes first, so a dense
    cap names evolution.method.

    Under "exact" one call per path serves up to 2^N times, as they share
    one Chebyshev recurrence, so a call's rows take no more memory than the
    dense matrix it builds. The product formulas gain nothing from a list
    and go one time per call, holding a few states per path. A call's time
    is split evenly over its times."""
    size = 1 << config.hamiltonian.n if config.evolution_method == "exact" else 1
    for i in range(0, len(times), size):
        chunk = times[i:i + size]
        start = time.perf_counter()
        try:
            tildes = evolve_enlarged(
                embed_state(config.initial_state), h_tilde, chunk,
                method=config.evolution_method, steps=config.evolution_steps,
            )
        except CapacityError as exc:
            _fail("evolution.method", f"{exc}; use 'trotter1' or 'trotter2'")
        psis = [PureState(a) for a in evolve(
            config.initial_state.amplitudes, config.hamiltonian, chunk,
            config.evolution_method, config.evolution_steps)]
        share_ms = (time.perf_counter() - start) * 1e3 / len(chunk)
        for tilde, psi in zip(tildes, psis):
            yield tilde, psi, share_ms
        del tildes, psis  # before the next call, which makes their successors


# The record's scalar fields, in declaration order; the lists are JSON-only.
CSV_COLUMNS = tuple(
    f.name for f in dataclasses.fields(ResultRecord) if not f.type.startswith("list")
)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _render(records: list[ResultRecord], fmt: str) -> str:
    if fmt == "json":
        return json.dumps([r.to_dict() for r in records], indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow(_csv_cell(getattr(r, col)) for col in CSV_COLUMNS)
        return buf.getvalue()
    raise ConfigError(f"unknown output format {fmt!r}")


def emit(records: list[ResultRecord], fmt: str = "json", destination: str | None = None):
    """Write records; file output is atomic (temp file + rename)."""
    text = _render(records, fmt)
    if destination is None or destination == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(destination))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp_path, destination)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="embedsim",
        description="Enlarged-space simulation of entanglement-monotone workflows",
    )
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--output", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--seed", type=int, default=None, help="override all config seeds")
    parser.add_argument("--shots", type=int, default=None, help="override the shot count")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # bad syntax or encoding, an integer beyond Python's digit limit, deep nesting
            raise ConfigError(f"config cannot be read as JSON: {exc}") from exc
        if isinstance(raw, dict):
            # --shots and --seed go into the fields they set, so the one parse
            # checks them; a block that is not an object is left to it.
            if args.shots is not None and raw.get("shots") is None:
                raw["shots"] = {}
            if args.seed is not None and raw.get("workflow") == "roof" and raw.get("roof") is None:
                raw["roof"] = {}
            for block, key, value in (("shots", "shots", args.shots),
                                      ("shots", "seed", args.seed), ("roof", "seed", args.seed)):
                if value is not None and isinstance(raw.get(block), dict):
                    raw[block][key] = value
        records = run(parse_config(raw))
        emit(records, fmt=args.format, destination=args.output)
    except (ConfigError, CapacityError) as exc:
        print(f"embedsim: config error: {exc}", file=sys.stderr)
        return 2
    except NumericalIntegrityError as exc:
        print(f"embedsim: numerical-integrity error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"embedsim: i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
