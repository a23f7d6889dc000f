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
# I/Z-only terms in a commuting run from which the product formulas apply
# them as one diagonal phase (`PauliSum._phase_runs`). One phase costs as
# much as 0.8, 2.0, 3.3, 3.9 and 3.6 Z factors at n = 6, 10, 14, 16 and 18
# (one thread of a 2-core Intel Xeon, numpy 2.4).
PHASE_RUN_TERMS = 4


class _Kernel(NamedTuple):
    """P s = phase * signs * flip(s), flip reversing the X/Y axes (`axes`) of the
    (2,)*n view of s, `signs` read-only int8 +/-1, already flipped; phase = i^{#Y}.
    `signed` is False for an I/X-only label, whose signs are all +1."""

    axes: tuple[slice, ...]
    signs: np.ndarray
    phase: complex
    signed: bool

    def image(self, s: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = signs * flip(s), in place: P s up to its phase; for an
        unsigned label a flipped copy, with no int8 cast. Callers scale the
        image, or the scalar they read from it."""
        shape = self.signs.shape
        flipped = s.reshape(shape)[self.axes]
        if self.signed:
            np.multiply(self.signs, flipped, out=out.reshape(shape))
        else:
            np.copyto(out.reshape(shape), flipped)
        return out


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
        signed=not set(symbols) <= set("IX"),
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
            if isinstance(coeff, (complex, np.complexfloating)):  # numpy's complex64 too
                if coeff.imag != 0:  # a NaN part fails too
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

    @cached_property
    def _phase_runs(self) -> tuple[tuple[np.ndarray | None, tuple], ...]:
        """(d, the other terms) per commuting run, computed on first use and
        kept: d = sum c_j signs_j, read-only float64, over the run's I/Z-only
        terms in stored order, so that they act together as exp(-i a d).
        A run with fewer than PHASE_RUN_TERMS such terms, or any run above
        KERNEL_CACHE_QUBITS qubits, keeps d = None and all its terms."""
        out = []
        for run in self.commuting_runs:
            diagonal = [(c, p) for c, p in run if set(p.symbols) <= set("IZ")]
            if self.n > KERNEL_CACHE_QUBITS or len(diagonal) < PHASE_RUN_TERMS:
                out.append((None, run))
                continue
            d = np.zeros(1 << self.n)
            for c, p in diagonal:
                d += np.multiply(c, _kernel(p.symbols).signs.reshape(-1), dtype=float)
            out.append((_freeze(d), tuple(t for t in run if t not in diagonal)))
        return tuple(out)

    def to_records(self) -> list[dict]:
        return [{"coeff": c, "pauli": p.symbols} for c, p in self.terms]

    @classmethod
    def from_records(cls, records: Sequence[dict], n: int | None = None) -> "PauliSum":
        return cls.from_terms([(r["coeff"], r["pauli"]) for r in records], n=n)


def apply_pauli_sum(h: PauliSum, s: np.ndarray) -> np.ndarray:
    """H @ s without materializing H, as complex128: each term's image is
    scaled by c * i^{#Y} in one scratch buffer and added into the result."""
    s = _checked(s, h.n)
    out, scratch = np.zeros(s.size, complex), np.empty(s.size, complex)
    for coeff, string in h.terms:
        k = _kernel(string.symbols)
        out += np.multiply(k.image(s, scratch), coeff * k.phase, out=scratch)
    return out


def expectation(s, o: PauliSum) -> float:
    """<s|O|s> for Hermitian O: c * i^{#Y} * <s|signs*flip(s)> per term, read
    through one scratch buffer of the state's own dtype. On a real s an odd-Y
    term adds exactly 0 to the real part. The imaginary residue is asserted
    tiny relative to sum |c| times <s|s> (each at least 1), and discarded."""
    vec = _checked(s.amplitudes if hasattr(s, "amplitudes") else s, o.n)
    scratch = np.empty(vec.size, np.result_type(vec, 1.0))
    val = 0j
    for coeff, string in o.terms:
        k = _kernel(string.symbols)
        val += coeff * k.phase * np.vdot(vec, k.image(vec, scratch))
    bound = HERMITICITY_ATOL * max(1.0, sum(abs(c) for c, _ in o.terms))
    # The rounding residue grows with <s|s>; it is read only past the unit
    # bound, so a unit state's read costs no more.
    if abs(val.imag) >= bound and abs(val.imag) >= bound * max(1.0, np.vdot(vec, vec).real):
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
    def from_amplitudes(cls, amplitudes) -> "PureState":
        """Renormalize a vector whose norm is within 1e-8 of 1."""
        arr = np.asarray(amplitudes, dtype=complex)
        norm = _norm(arr)
        if not abs(norm - 1.0) <= 1e-8:
            raise ValueError(f"amplitudes have norm {norm}, outside tolerance 1e-8")
        return cls(arr / norm)

    @property
    def n(self) -> int:
        return int(self.amplitudes.size).bit_length() - 1


def _ensemble_matrix(members: Sequence[tuple[float, PureState]]) -> np.ndarray:
    """sum_i p_i |psi_i><psi_i| of a nonempty ensemble within DENSE_QUBIT_CAP."""
    _check_dense(members[0][1].n)
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
        _check_dense(_qubit_count(mat.shape[0], "density matrix"))
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
        return cls(_ensemble_matrix([(1.0, psi)]))

    @classmethod
    def from_ensemble(
        cls, members: Iterable[tuple[float, PureState]]
    ) -> "MixedState":
        return cls(_ensemble_matrix(list(members)))

    @property
    def n(self) -> int:
        return int(self.matrix.shape[0]).bit_length() - 1
