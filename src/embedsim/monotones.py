"""Antilinear entanglement monotones and their observable expansions.

The monotone family is generated by the conjugation operator K, sigma_y, and
contractions through the fixed metric diag(-1, 1, 0, 1). Each monotone is the
modulus of a signed sum of products of antilinear expectations <psi|O|psi*>,
which the enlarged space turns into pairs of ordinary Hermitian expectations
<Z(x)O> - i <X(x)O>.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .embedding import EnlargedState, embed_observable, embed_state
from .pauli import PauliSum, PureState, apply_pauli_sum, expectation

PAULI_SYMBOLS = ("I", "X", "Y", "Z")
G_DIAGONAL = (-1.0, 1.0, 0.0, 1.0)
_NONZERO_G = (0, 1, 3)

CROSS_PATH_ATOL = 1e-10


@dataclass(frozen=True)
class GTensor:
    """The fixed contraction metric diag(-1, 1, 0, 1); the zero entry removes
    sigma_y from contracted slots."""

    diagonal: tuple[float, float, float, float] = G_DIAGONAL

    def __post_init__(self):
        if tuple(self.diagonal) != G_DIAGONAL:
            raise ValueError(f"contraction metric is fixed at {G_DIAGONAL}")

    def __getitem__(self, idx: int) -> float:
        return self.diagonal[idx]


Slot = str | int  # fixed Pauli symbol or contraction index label


@dataclass(frozen=True)
class MonotoneSpec:
    """Symbolic description of a monotone: factors are antilinear-expectation
    templates whose integer slots are tied pairwise through the metric."""

    name: str
    n_qubits: int
    factors: tuple[tuple[Slot, ...], ...]
    contractions: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        object.__setattr__(
            self, "factors", tuple(tuple(f) for f in self.factors)
        )
        object.__setattr__(
            self, "contractions", tuple(tuple(c) for c in self.contractions)
        )
        slot_labels: list[int] = []
        for f in self.factors:
            if len(f) != self.n_qubits:
                raise ValueError(
                    f"factor {f} has {len(f)} slots, expected {self.n_qubits}"
                )
            for slot in f:
                if isinstance(slot, str):
                    if slot not in PAULI_SYMBOLS:
                        raise ValueError(f"invalid fixed slot {slot!r}")
                else:
                    slot_labels.append(slot)
        contracted: list[int] = []
        for pair in self.contractions:
            if len(pair) != 2:
                raise ValueError(f"contraction {pair} is not an index pair")
            contracted.extend(pair)
        if sorted(contracted) != sorted(set(contracted)):
            raise ValueError("a contraction index appears in more than one pair")
        if sorted(contracted) != sorted(slot_labels):
            raise ValueError(
                "contraction indices must each occupy exactly one factor slot"
            )

    @property
    def degree(self) -> int:
        """Number of metric contractions k; the expansion has 3^k terms."""
        return len(self.contractions)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "n_qubits": self.n_qubits,
            "factors": [
                [s if isinstance(s, str) else {"idx": s} for s in f]
                for f in self.factors
            ],
            "contractions": [list(c) for c in self.contractions],
        }

    @classmethod
    def from_json(cls, data: dict) -> "MonotoneSpec":
        factors = tuple(
            tuple(s if isinstance(s, str) else int(s["idx"]) for s in f)
            for f in data["factors"]
        )
        return cls(
            name=data["name"],
            n_qubits=int(data["n_qubits"]),
            factors=factors,
            contractions=tuple(tuple(int(i) for i in c) for c in data["contractions"]),
        )


@dataclass(frozen=True)
class MonotoneValue:
    """Audit record: the scalar plus every antilinear expectation it was
    contracted from (one tuple of factor expectations per expansion term)."""

    value: float
    signs: tuple[float, ...]
    term_expectations: tuple[tuple[complex, ...], ...]
    observable_count: int

    def recompute(self) -> float:
        total = sum(
            s * np.prod(facs) for s, facs in zip(self.signs, self.term_expectations)
        )
        return float(abs(total))


@functools.lru_cache(maxsize=32)
def _expansion(spec: MonotoneSpec) -> tuple[tuple[float, tuple[str, ...]], ...]:
    """Expand contractions over the nonzero metric entries: (sign,
    per-factor Pauli labels) per term. Memoised per spec."""
    g = GTensor()
    terms = []
    for assignment in itertools.product(_NONZERO_G, repeat=spec.degree):
        sign = 1.0
        symbol_of: dict[int, str] = {}
        for (a, b), idx in zip(spec.contractions, assignment):
            sign *= g[idx]
            symbol_of[a] = symbol_of[b] = PAULI_SYMBOLS[idx]
        ops = tuple(
            "".join(s if isinstance(s, str) else symbol_of[s] for s in f)
            for f in spec.factors
        )
        terms.append((sign, ops))
    return tuple(terms)


@functools.lru_cache(maxsize=32)
def expand_to_observables(spec: MonotoneSpec) -> tuple[PauliSum, ...]:
    """Enlarged-space Hermitian observables sufficient to evaluate the
    monotone: pre-deduplication count is 2 * 3^k. Memoised per spec."""
    observables: list[PauliSum] = []
    seen: set[str] = set()
    for _, ops in _expansion(spec):
        for op in dict.fromkeys(ops):  # distinct per term, order preserved
            if op in seen:
                continue
            seen.add(op)
            oz, ox = embed_observable(PauliSum.from_terms([(1.0, op)]))
            observables.extend([oz, ox])
    return tuple(observables)


def antilinear_expectation_direct(psi: PureState, o: PauliSum) -> complex:
    """<psi|O|psi*>: the classical reference path in the simulated space."""
    v = psi.amplitudes
    return complex(np.vdot(v, apply_pauli_sum(o, v.conj())))


def antilinear_expectation_embedded(tilde: EnlargedState, o: PauliSum) -> complex:
    """<Z(x)O> - i <X(x)O> on the enlarged state."""
    oz, ox = embed_observable(o)
    return complex(expectation(tilde, oz) - 1j * expectation(tilde, ox))


def evaluate_monotone(state: PureState | EnlargedState, spec: MonotoneSpec,
                      path: str = "direct") -> MonotoneValue:
    """Contract the spec's expansion on one state along the requested path."""
    if path not in ("direct", "embedded"):
        raise ValueError(f"unknown path {path!r}")
    if path == "embedded":
        tilde = embed_state(state) if isinstance(state, PureState) else state
        if tilde.n != spec.n_qubits:
            raise ValueError(
                f"state has {tilde.n} qubits, spec expects {spec.n_qubits}"
            )
        def antilinear(label: str) -> complex:
            return antilinear_expectation_embedded(
                tilde, PauliSum.from_terms([(1.0, label)])
            )
    else:
        if isinstance(state, EnlargedState):
            raise ValueError("direct path needs a simulated-space PureState")
        if state.n != spec.n_qubits:
            raise ValueError(
                f"state has {state.n} qubits, spec expects {spec.n_qubits}"
            )
        def antilinear(label: str) -> complex:
            return antilinear_expectation_direct(
                state, PauliSum.from_terms([(1.0, label)])
            )

    signs = []
    per_term = []
    total = 0.0 + 0.0j
    cache: dict[str, complex] = {}
    for sign, ops in _expansion(spec):
        facs = tuple(cache.setdefault(op, antilinear(op)) for op in ops)
        signs.append(sign)
        per_term.append(facs)
        total += sign * np.prod(facs)
    return MonotoneValue(
        value=float(abs(total)),
        signs=tuple(signs),
        term_expectations=tuple(per_term),
        observable_count=len(expand_to_observables(spec)),
    )


class EmbeddedEvaluator:
    """Precompiled embedded-path evaluator for tight inner loops: dense
    observable pairs are materialized once and reused on many states."""

    def __init__(self, spec: MonotoneSpec):
        self.spec = spec
        self._terms = _expansion(spec)
        # Z(x)O - i X(x)O collapsed into one complex quadratic form; valid
        # because the evaluator only sees real enlarged vectors.
        self._combined: dict[str, np.ndarray] = {}
        for _, ops in self._terms:
            for op in ops:
                if op not in self._combined:
                    oz, ox = embed_observable(PauliSum.from_terms([(1.0, op)]))
                    self._combined[op] = oz.dense() - 1j * ox.dense()

    def value(self, tilde_vec: np.ndarray) -> float:
        ex = {
            op: tilde_vec @ (m @ tilde_vec) for op, m in self._combined.items()
        }
        total = 0.0 + 0.0j
        for sign, ops in self._terms:
            prod = 1.0 + 0.0j
            for op in ops:
                prod *= ex[op]
            total += sign * prod
        return float(abs(total))

    def values_batch(self, tilde_vecs: np.ndarray) -> np.ndarray:
        """Evaluate many enlarged vectors at once (rows of tilde_vecs)."""
        ex = {
            op: np.einsum("ij,jk,ik->i", tilde_vecs, m, tilde_vecs)
            for op, m in self._combined.items()
        }
        total = np.zeros(tilde_vecs.shape[0], dtype=complex)
        for sign, ops in self._terms:
            prod = np.ones(tilde_vecs.shape[0], dtype=complex)
            for op in ops:
                prod = prod * ex[op]
            total += sign * prod
        return np.abs(total)


# Preset specs ---------------------------------------------------------------

def concurrence_spec() -> MonotoneSpec:
    return MonotoneSpec("concurrence", 2, (("Y", "Y"),))


def three_tangle_spec() -> MonotoneSpec:
    return MonotoneSpec(
        "three_tangle", 3, ((0, "Y", "Y"), (1, "Y", "Y")), ((0, 1),)
    )


def n_qubit_spec(n: int) -> MonotoneSpec:
    if n < 2:
        raise ValueError("the monotone family starts at 2 qubits")
    if n % 2 == 0:
        return MonotoneSpec(f"n_qubit_{n}", n, (("Y",) * n,))
    tail = ("Y",) * (n - 1)
    return MonotoneSpec(
        f"n_qubit_{n}", n, ((0, *tail), (1, *tail)), ((0, 1),)
    )


def second_order_spec() -> MonotoneSpec:
    return MonotoneSpec(
        "second_order", 2, ((0, 2), (1, 3)), ((0, 1), (2, 3))
    )


MONOTONE_PRESETS = {
    "concurrence": lambda n=2: concurrence_spec(),
    "three_tangle": lambda n=3: three_tangle_spec(),
    "n_qubit": n_qubit_spec,
    "second_order": lambda n=2: second_order_spec(),
}


def _check_qubits(psi: PureState, n: int, what: str):
    if psi.n != n:
        raise ValueError(f"{what} is defined for {n} qubits, state has {psi.n}")


def concurrence(psi: PureState, path: str = "direct") -> MonotoneValue:
    _check_qubits(psi, 2, "concurrence")
    return evaluate_monotone(psi, concurrence_spec(), path)


def three_tangle(psi: PureState, path: str = "direct") -> MonotoneValue:
    _check_qubits(psi, 3, "the 3-tangle")
    return evaluate_monotone(psi, three_tangle_spec(), path)


def n_qubit_monotone(psi: PureState, path: str = "direct") -> MonotoneValue:
    if psi.n < 2:
        raise ValueError("the monotone family starts at 2 qubits")
    return evaluate_monotone(psi, n_qubit_spec(psi.n), path)


def second_order_two_qubit_monotone(psi: PureState, path: str = "direct") -> MonotoneValue:
    _check_qubits(psi, 2, "the second-order monotone")
    return evaluate_monotone(psi, second_order_spec(), path)


def tomography_baseline(n: int) -> int:
    """Observables needed for full state reconstruction: 2^(2N) - 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (1 << (2 * n)) - 1
