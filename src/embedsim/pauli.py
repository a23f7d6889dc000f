"""Pauli-string algebra and state containers.

Conventions: qubit 0 is the leftmost tensor factor and the most significant
bit of the amplitude index. Pauli sums carry real coefficients only, so every
PauliSum is Hermitian by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import CapacityError, DimensionError

SINGLE_QUBIT = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

# Dense materialization cap: 2^13 = 8192 amplitudes.
DENSE_QUBIT_CAP = 13

NORM_ATOL = 1e-12
HERMITICITY_ATOL = 1e-12
PSD_SLACK = -1e-10


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Paulis, e.g. "XYZI". No phase."""

    symbols: str

    def __post_init__(self):
        if len(self.symbols) < 1:
            raise ValueError("Pauli string must act on at least one qubit")
        bad = set(self.symbols) - set("IXYZ")
        if bad:
            raise ValueError(f"invalid Pauli symbols: {sorted(bad)}")

    @property
    def n(self) -> int:
        return len(self.symbols)

    @property
    def weight(self) -> int:
        """Number of non-identity factors (locality of the term)."""
        return sum(1 for c in self.symbols if c != "I")

    def __str__(self) -> str:
        return self.symbols


def y_parity(p: PauliString) -> str:
    """Parity of the Y count: "even" strings have real dense matrices,
    "odd" ones purely imaginary."""
    return "odd" if p.symbols.count("Y") % 2 else "even"


def dense_matrix(p: PauliString) -> np.ndarray:
    """Dense matrix of one string; leftmost symbol acts on the most
    significant qubit."""
    return _dense(p.n, ((1.0, p),))


# Per-qubit sign factors of P s = i^{#Y} * signs * flip(s); Y's is Z's, flipped.
_SIGN_FACTORS = {"I": (1, 1), "X": (1, 1), "Z": (1, -1), "Y": (-1, 1)}
KERNEL_CACHE_SIZE = 256  # distinct labels kept, 2^n bytes each
KERNEL_CACHE_QUBITS = 16  # longer labels are built per use, so at most 16 MiB is kept


class _Kernel(NamedTuple):
    """P s = phase * signs * flip(s), flip reversing the X/Y axes (`axes`) of the
    (2,)*n view of s, `signs` read-only int8 +/-1, already flipped; phase = i^{#Y}."""

    axes: tuple[slice, ...]
    signs: np.ndarray
    phase: complex

    def image(self, s: np.ndarray, weight: complex, out: np.ndarray) -> np.ndarray:
        """out = weight * signs * flip(s), in place. A real `out` takes the
        real part of the weight, which its caller has made real."""
        shape = self.signs.shape
        np.multiply(self.signs, s.reshape(shape)[self.axes], out=out.reshape(shape))
        return np.multiply(out, weight.real if out.dtype.kind == "f" else weight, out=out)


def _kernel(symbols: str) -> _Kernel:
    """The kernel of a label, shared by all its PauliStrings up to KERNEL_CACHE_QUBITS."""
    return (_build if len(symbols) <= KERNEL_CACHE_QUBITS else _build.__wrapped__)(symbols)


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _build(symbols: str) -> _Kernel:
    signs = reduce(np.multiply.outer, (np.array(_SIGN_FACTORS[c], np.int8) for c in symbols))
    return _Kernel(
        axes=tuple(slice(None, None, -1 if c in "XY" else 1) for c in symbols),
        signs=_freeze(signs),
        phase=(1 + 0j, 1j, -1 + 0j, -1j)[symbols.count("Y") % 4],
    )


def _xz_masks(symbols: str) -> tuple[int, int]:
    """Bitmasks of the qubits carrying X or Y, and Z or Y."""
    return (sum(1 << i for i, c in enumerate(symbols) if c in "XY"),
            sum(1 << i for i, c in enumerate(symbols) if c in "ZY"))


def _commute(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Two strings commute iff they anticommute at an even number of qubits."""
    return ((a[0] & b[1]) ^ (a[1] & b[0])).bit_count() % 2 == 0


def _checked(s, n: int) -> np.ndarray:
    s = np.asarray(s)
    if s.shape != (1 << n,):
        raise DimensionError(f"state has shape {s.shape}, expected ({1 << n},)")
    return s


def _apply_string(p: PauliString, s: np.ndarray, weight: float = 1.0) -> np.ndarray:
    """weight * P @ s, matrix-free; real when s and weight * i^{#Y} are."""
    s, k = _checked(s, p.n), _kernel(p.symbols)
    w = weight * k.phase
    return k.image(s, w, np.empty(s.size, complex if w.imag or np.iscomplexobj(s) else float))


def _check_dense(n: int) -> None:
    """Refuse dense work on a register of more than DENSE_QUBIT_CAP qubits."""
    if n > DENSE_QUBIT_CAP:
        raise CapacityError(
            f"dense materialization capped at {DENSE_QUBIT_CAP} qubits, got {n}"
        )


def _dense(n: int, terms: Iterable[tuple[float, PauliString]]) -> np.ndarray:
    """Dense sum of weighted strings, scattered one nonzero per row and
    term: O(2^n) work per term."""
    _check_dense(n)
    idx = np.arange(1 << n)
    out = np.zeros((idx.size, idx.size), dtype=complex)
    for coeff, string in terms:
        k = _kernel(string.symbols)
        cols = idx.reshape(k.signs.shape)[k.axes].reshape(-1)  # idx ^ the X/Y bit mask
        out[idx, cols] += (coeff * k.phase) * k.signs.reshape(-1)
    return out


@dataclass(frozen=True)
class PauliSum:
    """Real-weighted combination of Pauli strings; Hermitian by construction.

    Duplicate strings are merged and zero-coefficient terms dropped at
    construction time.
    """

    n: int
    terms: tuple[tuple[float, PauliString], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("qubit count must be >= 1")
        merged: dict[str, float] = {}
        for coeff, string in self.terms:
            if isinstance(coeff, complex):
                if abs(coeff.imag) > 0:
                    raise ValueError("PauliSum coefficients must be real")
                coeff = coeff.real
            if string.n != self.n:
                raise DimensionError(
                    f"term {string} acts on {string.n} qubits, sum declares {self.n}"
                )
            merged[string.symbols] = merged.get(string.symbols, 0.0) + float(coeff)
        if not all(map(math.isfinite, merged.values())):
            raise ValueError("PauliSum coefficients must be finite")
        canonical = tuple(
            (c, PauliString(s)) for s, c in merged.items() if c != 0.0
        )
        object.__setattr__(self, "terms", canonical)

    @classmethod
    def from_terms(
        cls, terms: Iterable[tuple[float, str | PauliString]], n: int | None = None
    ) -> "PauliSum":
        normalized = [
            (c, p if isinstance(p, PauliString) else PauliString(p))
            for c, p in terms
        ]
        if n is None:
            if not normalized:
                raise ValueError("qubit count required for an empty sum")
            n = normalized[0][1].n
        return cls(n=n, terms=tuple(normalized))

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    def dense(self) -> np.ndarray:
        return _dense(self.n, self.terms)

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues, eigenvectors) of the dense matrix, computed on first
        use and kept, read-only, for the lifetime of this sum."""
        evals, vecs = np.linalg.eigh(self.dense())
        return _freeze(evals), _freeze(vecs)

    @cached_property
    def commuting_runs(self) -> tuple[tuple[tuple[float, PauliString], ...], ...]:
        """The stored terms cut, in order, into maximal consecutive runs of
        mutually commuting strings, computed on first use and kept."""
        runs: list[list] = []  # [(term, its x/z masks)] per run
        for term in self.terms:
            xz = _xz_masks(term[1].symbols)
            if runs and all(_commute(xz, other) for _, other in runs[-1]):
                runs[-1].append((term, xz))
            else:
                runs.append([(term, xz)])
        return tuple(tuple(term for term, _ in run) for run in runs)

    def to_records(self) -> list[dict]:
        return [{"coeff": c, "pauli": p.symbols} for c, p in self.terms]

    @classmethod
    def from_records(cls, records: Sequence[dict], n: int | None = None) -> "PauliSum":
        return cls.from_terms([(r["coeff"], r["pauli"]) for r in records], n=n)


def apply_pauli_sum(h: PauliSum, s: np.ndarray) -> np.ndarray:
    """H @ s without materializing H; real when s is real and every term
    has even Y parity."""
    s = _checked(s, h.n)
    images = (_apply_string(string, s, coeff) for coeff, string in h.terms)
    out = next(images, None)
    for image in images:
        out = out + image
    return np.zeros(s.size, np.result_type(s, 1.0)) if out is None else out


def expectation(s, o: PauliSum) -> float:
    """<s|O|s> for Hermitian O. On a real s only the even-Y terms are
    applied, in real arithmetic: an odd-Y term is iA with A real
    antisymmetric, and s.(iA)s = 0. On a complex s the imaginary residue is
    asserted tiny relative to sum |c| (at least 1), and discarded."""
    vec = _checked(s.amplitudes if hasattr(s, "amplitudes") else s, o.n)
    if not np.iscomplexobj(vec):
        even = tuple(t for t in o.terms if y_parity(t[1]) == "even")
        if len(even) < o.num_terms:
            o = PauliSum(o.n, even)
        return float(np.dot(vec, apply_pauli_sum(o, vec)))
    val = np.vdot(vec, apply_pauli_sum(o, vec))
    scale = max(1.0, sum(abs(c) for c, _ in o.terms))
    if abs(val.imag) >= HERMITICITY_ATOL * scale:
        raise ValueError(
            f"expectation has imaginary residue {val.imag:.3e}; operator not Hermitian?"
        )
    return float(val.real)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _norm(arr: np.ndarray) -> float:
    """2-norm of a state; inf past the float range, without numpy's overflow
    warning, since every caller rejects a norm away from 1."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(arr))


def _qubit_count(dim: int, what: str) -> int:
    n = int(dim).bit_length() - 1
    if dim < 2 or (1 << n) != dim:
        raise DimensionError(f"{what} length {dim} is not a power of two >= 2")
    return n


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector over n qubits."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.amplitudes, dtype=complex)
        _qubit_count(arr.size, "amplitude vector")
        norm = _norm(arr)
        if not abs(norm - 1.0) <= NORM_ATOL:  # a NaN norm fails too
            raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_ATOL}")
        object.__setattr__(self, "amplitudes", _freeze(arr.copy()))

    @classmethod
    def from_amplitudes(cls, amplitudes, atol: float = 1e-8) -> "PureState":
        """Renormalize a nearly normalized vector (tolerance atol)."""
        arr = np.asarray(amplitudes, dtype=complex)
        norm = _norm(arr)
        if not abs(norm - 1.0) <= atol:
            raise ValueError(f"amplitudes have norm {norm}, outside tolerance {atol}")
        return cls(arr / norm)

    @property
    def n(self) -> int:
        return int(self.amplitudes.size).bit_length() - 1


def _ensemble_matrix(members: Sequence[tuple[float, PureState]]) -> np.ndarray:
    """sum_i p_i |psi_i><psi_i| of a nonempty ensemble."""
    dim = members[0][1].amplitudes.size
    mat = np.zeros((dim, dim), dtype=complex)
    for p, psi in members:
        v = psi.amplitudes
        mat += p * np.outer(v, v.conj())
    return mat


@dataclass(frozen=True)
class MixedState:
    """Density matrix: Hermitian, positive semidefinite, unit trace."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionError(f"density matrix must be square, got {mat.shape}")
        _qubit_count(mat.shape[0], "density matrix")
        if not np.isfinite(mat).all():
            raise ValueError("density matrix has non-finite entries")
        with np.errstate(over="ignore"):  # entries near the float range fail as inf
            asymmetry = np.max(np.abs(mat - mat.conj().T))
        if asymmetry > HERMITICITY_ATOL:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        if abs(np.trace(mat).real - 1.0) > NORM_ATOL:
            raise ValueError("density matrix trace deviates from 1 beyond 1e-12")
        if np.min(np.linalg.eigvalsh(mat)) < PSD_SLACK:
            raise ValueError("density matrix has an eigenvalue below -1e-10")
        object.__setattr__(self, "matrix", _freeze(mat.copy()))

    @classmethod
    def from_pure(cls, psi: PureState) -> "MixedState":
        v = psi.amplitudes
        return cls(np.outer(v, v.conj()))

    @classmethod
    def from_ensemble(
        cls, members: Iterable[tuple[float, PureState]]
    ) -> "MixedState":
        return cls(_ensemble_matrix(list(members)))

    @property
    def n(self) -> int:
        return int(self.matrix.shape[0]).bit_length() - 1
