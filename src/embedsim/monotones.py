"""Antilinear entanglement monotones and their observable expansions.

The monotone family is generated by the conjugation operator K, sigma_y, and
contractions through the fixed metric diag(-1, 1, 0, 1). Each monotone is the
modulus of a signed sum of products of antilinear expectations <psi|O|psi*>,
which the enlarged space turns into pairs of ordinary Hermitian expectations
<Z(x)O> - i <X(x)O>. This module owns the whole read: a spec is compiled once
(`_expansion`), `_signed_sum` is the one signed product F(A), with its one
derivative beside it, `contract` is |F|, and `combine_estimates` is the one
decode of (Z(x)O, X(x)O) readings, exact or sampled, into a value; a term c P
reads both of its pair's readings from one Pauli image, of I(x)P.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import pauli
from .embedding import EnlargedState, embed_observable, embed_state
from .pauli import PauliSum, PureState, _freeze

PAULI_SYMBOLS = ("I", "X", "Y", "Z")
# The contraction metric; its zero entry removes sigma_y from contracted slots.
G_DIAGONAL = (-1.0, 1.0, 0.0, 1.0)
_NONZERO_G = (0, 1, 3)


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
        if not self.factors:
            raise ValueError("a monotone needs at least one factor")
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
    """The monotone of one state, and how many enlarged-space observables its
    embedded read takes."""

    value: float
    observable_count: int


class _Expansion(NamedTuple):
    """A spec compiled for contraction: a one-term sum per distinct Pauli
    label, their embedded pairs (Z(x)O, X(x)O) in the same order, one metric
    sign per term, the (term x factor) label index of every factor, and per
    slot (t, i) the labels of term t's other factors and a (slot x label) row
    holding sign_t at label[t, i]: the data of dF/dA."""

    sums: tuple[PauliSum, ...]
    observables: tuple[PauliSum, ...]
    signs: np.ndarray
    index: np.ndarray
    others: np.ndarray
    scatter: np.ndarray


@functools.lru_cache(maxsize=32)
def _expansion(spec: MonotoneSpec) -> _Expansion:
    """Expand contractions over the nonzero metric entries. Memoised per spec;
    labels come in first-use order, term by term."""
    signs = []
    terms = []
    for assignment in itertools.product(_NONZERO_G, repeat=spec.degree):
        sign = 1.0
        symbol_of: dict[int, str] = {}
        for (a, b), idx in zip(spec.contractions, assignment):
            sign *= G_DIAGONAL[idx]
            symbol_of[a] = symbol_of[b] = PAULI_SYMBOLS[idx]
        signs.append(sign)
        terms.append(tuple(
            "".join(s if isinstance(s, str) else symbol_of[s] for s in f)
            for f in spec.factors
        ))
    position = {op: i for i, op in enumerate(dict.fromkeys(itertools.chain(*terms)))}
    index = np.array([[position[op] for op in ops] for ops in terms], dtype=np.intp)
    sums = tuple(PauliSum.from_terms([(1.0, label)]) for label in position)
    observables = tuple(itertools.chain.from_iterable(map(embed_observable, sums)))
    terms, degree = index.shape
    others = np.stack([np.delete(index, i, axis=1) for i in range(degree)], axis=1)
    scatter = np.zeros((terms * degree, len(sums)))
    scatter[np.arange(terms * degree), index.ravel()] = np.repeat(signs, degree)
    return _Expansion(sums, observables, _freeze(np.array(signs)), _freeze(index),
                      _freeze(others), _freeze(scatter))


def _signed_sum(e: _Expansion, a: np.ndarray) -> np.ndarray:
    """F(A) = sum_t sign_t prod_i A[..., label_ti], labels on the last axis of a."""
    return a[..., e.index].prod(axis=-1) @ e.signs


def _signed_sum_derivative(e: _Expansion, a: np.ndarray) -> np.ndarray:
    """dF/dA_l, labels on the last axis of a and of the result: the sum of
    sign_t times the other factors of term t over each slot (t, i) holding l."""
    return a[..., e.others].prod(axis=-1).reshape(*a.shape[:-1], -1) @ e.scatter


def contract(spec: MonotoneSpec, antilinear) -> np.ndarray:
    """|F(A)|: the monotone from the antilinear expectations A of the spec's
    distinct labels, ordered as in expand_to_observables, shape (labels,) for
    one state, (..., labels) for a batch."""
    e = _expansion(spec)
    a = np.asarray(antilinear)
    if a.shape[-1:] != (len(e.sums),):
        got = a.shape[-1] if a.ndim else 0
        raise ValueError(f"{spec.name} has {len(e.sums)} labels, got {got} antilinear expectations")
    return np.abs(_signed_sum(e, a))


def combine_estimates(spec: MonotoneSpec, per_observable: list[float]) -> float:
    """The monotone from readings of expand_to_observables(spec), in its
    order: each (Z(x)O, X(x)O) pair is read as <Z(x)O> - i <X(x)O>. Exact
    expectations give the embedded value, shot estimates the sampled one."""
    est = np.asarray(per_observable, dtype=float)
    expected = len(_expansion(spec).observables)
    if est.shape != (expected,):
        raise ValueError(f"expected {expected} estimates, got shape {est.shape}")
    return float(contract(spec, est[0::2] - 1j * est[1::2]))


def expand_to_observables(spec: MonotoneSpec) -> tuple[PauliSum, ...]:
    """Enlarged-space Hermitian observables sufficient to evaluate the
    monotone: the pair (Z(x)O, X(x)O) per distinct label O, at most 2 * 3^k
    of them, compiled once per spec."""
    return _expansion(spec).observables


def antilinear_expectation_direct(psi: PureState, o: PauliSum) -> complex:
    """<psi|O|psi*>, the classical reference path: with P = i^{#Y} S, S real,
    a term c P adds c i^{#Y} conj(psi . S psi), from one image of psi."""
    v = pauli._checked(psi.amplitudes, o.n)
    scratch, val = np.empty_like(v), 0j
    for coeff, string in o.terms:
        k = pauli._kernel(string.symbols)
        val += coeff * k.phase.conjugate() * np.dot(v, k.image(v, scratch))
    return complex(val).conjugate()


def _pair_readings(tilde: EnlargedState, sums: tuple[PauliSum, ...]) -> list[float]:
    """(<Z(x)O>, <X(x)O>) per sum O, flat, through one scratch buffer; on a spec's
    `_expansion(spec).sums`, the exact readings of expand_to_observables(spec).
    A term c P reads r (x.Sx - y.Sy) and r (x.Sy + y.Sx) from one image [Sx; Sy]
    of I(x)P, r = c Re(i^{#Y}), so an odd-Y term reads exactly 0."""
    v = pauli._checked(tilde.amplitudes, sums[0].n + 1)
    scratch, h, out = np.empty_like(v), v.size // 2, []
    x, y, sx, sy = v[:h], v[h:], scratch[:h], scratch[h:]
    for o in sums:
        z = w = 0.0
        for coeff, string in o.terms:
            k = pauli._kernel("I" + string.symbols)
            if not k.phase.imag:
                k.image(v, scratch)
                r = coeff * k.phase.real
                z += r * (np.dot(x, sx) - np.dot(y, sy))
                w += r * (np.dot(x, sy) + np.dot(y, sx))
        out += (z, w)
    return out


def evaluate_monotone(state: PureState | EnlargedState, spec: MonotoneSpec,
                      path: str = "direct") -> MonotoneValue:
    """Contract the spec's expansion on one state along the requested path."""
    if path not in ("direct", "embedded"):
        raise ValueError(f"unknown path {path!r}")
    if path == "direct" and isinstance(state, EnlargedState):
        raise ValueError("direct path needs a simulated-space PureState")
    if state.n != spec.n_qubits:
        raise ValueError(f"state has {state.n} qubits, spec expects {spec.n_qubits}")

    e = _expansion(spec)
    if path == "embedded":
        tilde = embed_state(state) if isinstance(state, PureState) else state
        value = combine_estimates(spec, _pair_readings(tilde, e.sums))
    else:
        value = float(contract(spec, [antilinear_expectation_direct(state, o) for o in e.sums]))
    return MonotoneValue(value, len(e.observables))


class EmbeddedEvaluator:
    """Precompiled embedded-path evaluator for tight inner loops: one dense
    N-qubit form O per distinct label, reused on many states phi = x + iy, as
    <Z(x)O> - i <X(x)O> on [x; y] is (x - iy)^T O (x - iy) = <phi|O|phi*>."""

    def __init__(self, spec: MonotoneSpec):
        self.spec = spec
        self._forms = np.stack([o.dense() for o in _expansion(spec).sums])

    def antilinear_batch(self, vecs: np.ndarray) -> np.ndarray:
        """<phi|O|phi*>, shape (rows, labels), on the simulated-space rows of vecs."""
        a = vecs.conj()
        return ((a @ self._forms) * a).sum(axis=-1).T

    def values_batch(self, vecs: np.ndarray) -> np.ndarray:
        """Evaluate many simulated-space states at once (rows of vecs)."""
        return contract(self.spec, self.antilinear_batch(vecs))


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


def concurrence(psi: PureState, path: str = "direct") -> MonotoneValue:
    return evaluate_monotone(psi, concurrence_spec(), path)


def three_tangle(psi: PureState, path: str = "direct") -> MonotoneValue:
    return evaluate_monotone(psi, three_tangle_spec(), path)


def tomography_baseline(n: int) -> int:
    """Observables needed for full state reconstruction: 2^(2N) - 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (1 << (2 * n)) - 1
