"""Complex-to-real state embedding and the matching operator constructions.

An n-qubit complex state is stacked into a real (n+1)-qubit vector: the
upper half holds the real parts, the lower half the imaginary parts. The
ancilla occupies the leftmost (most significant) position. In the enlarged
space complex conjugation becomes the gate Z (x) I, and any real-coefficient
Hermitian Hamiltonian maps to a purely imaginary Hermitian one via a
per-term rule on the Y parity.

Every embedded term carries I or Y on the ancilla, so Y (x) I is conserved.
A real enlarged vector [x; y] has the component (x - iy)/sqrt(2) in the
Y_ancilla = +1 sector and its conjugate in the -1 sector, and the generator
restricted to that sector (`EmbeddedHamiltonian.sector`) is an n-qubit sum:
the embedded terms with the ancilla symbol dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, NumericalIntegrityError
from .pauli import (NORM_ATOL, PauliString, PauliSum, PureState, _freeze, _norm, _qubit_count,
                    y_parity)

REALITY_ATOL = 1e-10


def reality_residual(s: np.ndarray) -> float:
    """Max absolute imaginary component accumulated by a propagator."""
    return float(np.max(np.abs(np.imag(s)), initial=0.0))


@dataclass(frozen=True)
class EnlargedState:
    """Real amplitude vector over n+1 qubits simulating an n-qubit state."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.amplitudes)
        if np.iscomplexobj(arr):
            residual = reality_residual(arr)
            if residual >= REALITY_ATOL:
                raise NumericalIntegrityError(
                    f"imaginary residue {residual:.3e} exceeds {REALITY_ATOL}"
                )
            arr = arr.real
        arr = np.asarray(arr, dtype=float)
        if _qubit_count(arr.shape, "enlarged vector") < 2:
            raise DimensionError(f"enlarged vector length {arr.size} is below 4")
        norm = _norm(arr)
        if not abs(norm - 1.0) <= NORM_ATOL:
            raise ValueError(f"enlarged state norm {norm} deviates from 1")
        object.__setattr__(self, "amplitudes", _freeze(arr.copy()))

    @property
    def n(self) -> int:
        """Simulated qubit count (one less than the enlarged register)."""
        return int(self.amplitudes.size).bit_length() - 2


@dataclass(frozen=True)
class EmbeddedHamiltonian:
    """Purely imaginary Hermitian generator acting on the enlarged register;
    every term carries I or Y on the ancilla, so it conserves Y (x) I."""

    operator: PauliSum

    def __post_init__(self):
        for _, string in self.operator.terms:
            if y_parity(string) != "odd":
                raise ValueError(
                    f"embedded Hamiltonian term {string} has even Y parity"
                )
            if string.symbols[0] not in "IY":
                raise ValueError(
                    f"embedded Hamiltonian term {string} does not conserve the ancilla Y"
                )

    @property
    def n(self) -> int:
        return self.operator.n

    @cached_property
    def sector(self) -> PauliSum:
        """The generator on the Y_ancilla = +1 eigenspace, where I and Y both
        act as 1: its own terms and coefficients with the ancilla dropped.
        Built from the embedded terms, not from the simulated Hamiltonian."""
        return PauliSum(
            n=self.n - 1,
            terms=tuple((c, PauliString(p.symbols[1:])) for c, p in self.operator.terms),
        )


def embed_state(psi: PureState) -> EnlargedState:
    v = psi.amplitudes
    return EnlargedState(np.concatenate([v.real, v.imag]))


def unembed_state(tilde: EnlargedState) -> PureState:
    """The collapse [x; y] -> x + iy; it keeps a valid state's norm, so it does not renormalise."""
    x, y = np.split(tilde.amplitudes, 2)
    return PureState(x + 1j * y)


def conjugation_gate(n: int) -> PauliSum:
    """The conjugation gate Z (x) I on the enlarged register."""
    return PauliSum.from_terms([(1.0, "Z" + "I" * n)])


def unembedding_matrix(n: int) -> np.ndarray:
    """Dense [I | iI] collapsing an enlarged vector back to complex form."""
    eye = np.eye(1 << n, dtype=complex)
    return np.hstack([eye, 1j * eye])


def embed_hamiltonian(h: PauliSum) -> EmbeddedHamiltonian:
    """Per-term rule: even-parity c*P -> (-c)*(Y P); odd-parity c*P -> c*(I P)."""
    terms = []
    for coeff, string in h.terms:
        if y_parity(string) == "even":
            terms.append((-coeff, PauliString("Y" + string.symbols)))
        else:
            terms.append((coeff, PauliString("I" + string.symbols)))
    return EmbeddedHamiltonian(PauliSum(n=h.n + 1, terms=tuple(terms)))


def embed_observable(o: PauliSum) -> tuple[PauliSum, PauliSum]:
    """(Z (x) O, X (x) O): the Hermitian pair whose combination Oz - i*Ox
    reproduces the antilinear expectation <psi|O|psi*> in the enlarged space."""
    oz = [(c, PauliString("Z" + p.symbols)) for c, p in o.terms]
    ox = [(c, PauliString("X" + p.symbols)) for c, p in o.terms]
    return (
        PauliSum(n=o.n + 1, terms=tuple(oz)),
        PauliSum(n=o.n + 1, terms=tuple(ox)),
    )
