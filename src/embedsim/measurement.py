"""Finite-shot emulation of the enlarged-space observable measurements.

Every expanded observable is a single Pauli string, i.e. a +/-1 valued
measurement; an estimate is the mean of S simulated outcomes. Observables
draw from independent generators derived deterministically from the plan
seed, so results do not depend on evaluation order. The estimates are
decoded into a monotone by `monotones.combine_estimates`, the decode the
embedded path applies to exact expectations; it is importable from here too.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .embedding import EnlargedState
from .errors import NumericalIntegrityError
from .monotones import MonotoneSpec, _expansion, _pair_readings, combine_estimates
from .pauli import PauliString, PauliSum, expectation


@dataclass(frozen=True)
class ShotPlan:
    shots: int
    seed: int

    def __post_init__(self):
        _integer_fields(self, "shots", "seed")
        if not 1 <= self.shots < 2**63:
            raise ValueError("shots must lie in [1, 2^63)")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


def _integer_fields(obj, *fields: str) -> None:
    """Store each named field of the frozen dataclass `obj` as a Python int.
    A Python or numpy integer passes (`operator.index`); a bool, a float or
    anything else raises ValueError naming the field."""
    for field in fields:
        value = getattr(obj, field)
        try:
            if isinstance(value, (bool, np.bool_)):
                raise TypeError
            object.__setattr__(obj, field, operator.index(value))
        except TypeError:
            raise ValueError(f"{field} must be an integer, got {value!r}") from None


def _nth_plan(plan: ShotPlan, k: int) -> ShotPlan:
    """The plan of state k of a run: seed + k (mod 2^64); state 0 keeps `plan`."""
    return ShotPlan(plan.shots, (plan.seed + k) % 2**64)


def _rng_for(plan: ShotPlan, index: int) -> np.random.Generator:
    # Independent stream per observable: SeedSequence(entropy, spawn_key)
    # is the documented mixing function.
    return np.random.default_rng(
        np.random.SeedSequence(entropy=plan.seed, spawn_key=(index,))
    )


def _draw(exact: float, plan: ShotPlan, index: int) -> float:
    """Mean of S simulated +/-1 outcomes with p(+1) = (1 + exact)/2, drawn
    from stream `index` of the plan."""
    p_plus = (1.0 + exact) / 2.0
    if not -1e-10 <= p_plus <= 1.0 + 1e-10:  # a NaN fails too
        raise NumericalIntegrityError(
            f"outcome probability {p_plus} outside [0, 1]: observable not +/-1 valued"
        )
    p_plus = min(max(p_plus, 0.0), 1.0)
    successes = _rng_for(plan, index).binomial(plan.shots, p_plus)
    return 2.0 * successes / plan.shots - 1.0


def sample_expectation(s, p: PauliString, plan: ShotPlan, index: int = 0) -> float:
    """Shot estimate of <P> on s, drawn from stream `index` of the plan."""
    return _draw(expectation(s, PauliSum.from_terms([(1.0, p)])), plan, index)


def sample_estimates(exact, plan: ShotPlan) -> tuple[float, ...]:
    """Shot estimates of +/-1 valued observables from their exact
    expectations; observable i draws from stream i of the plan."""
    return tuple([_draw(e, plan, i) for i, e in enumerate(exact)])


def sample_monotone(
    tilde: EnlargedState, spec: MonotoneSpec, plan: ShotPlan
) -> tuple[float, tuple[float, ...]]:
    """Shot-sampled monotone estimate plus the raw per-observable estimates."""
    if tilde.n != spec.n_qubits:
        raise ValueError(
            f"state simulates {tilde.n} qubits, spec expects {spec.n_qubits}"
        )
    estimates = sample_estimates(_pair_readings(tilde, _expansion(spec).sums), plan)
    return combine_estimates(spec, estimates), estimates
