"""Dense complex linear algebra over multi-qubit Hilbert spaces.

States are explicit complex matrices. Subsystems are qubit groups ordered
slowest-to-fastest in the tensor product; the control qubit of a DQC1
circuit is conventionally subsystem 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

TRACE_ATOL = 1e-10
HERMITIAN_ATOL = 1e-10
PSD_FLOOR = -1e-9

SIGMA_I = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"I": SIGMA_I, "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}


def square_complex(m) -> np.ndarray:
    """Copy of m as a finite, square complex matrix; the one entry check
    shared by states, observables and unitaries."""
    out = np.array(m, dtype=complex)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError("matrix entries must be finite (no NaN or inf)")
    return out


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state over qubit groups.

    qubit_dims lists the qubit count of each tensor factor, e.g. (1, n) for
    one control qubit followed by an n-qubit register.
    """

    entries: np.ndarray
    qubit_dims: tuple[int, ...]

    def __post_init__(self):
        entries = square_complex(self.entries)
        dims = tuple(int(k) for k in self.qubit_dims)
        if not dims or any(k < 1 for k in dims):
            raise ValueError(f"qubit_dims must be positive integers, got {dims}")
        dim = 2 ** sum(dims)
        if entries.shape != (dim, dim):
            raise ValueError(
                f"entries shape {entries.shape} does not match qubit_dims {dims}"
            )
        tr = complex(np.trace(entries))
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"trace must be 1 within {TRACE_ATOL}, got {tr}")
        if np.max(np.abs(entries - entries.conj().T)) > HERMITIAN_ATOL:
            raise ValueError("entries are not Hermitian")
        if float(np.linalg.eigvalsh(entries)[0]) < PSD_FLOOR:
            raise ValueError("entries are not positive semidefinite")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "qubit_dims", dims)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def n_qubits(self) -> int:
        return sum(self.qubit_dims)

    @property
    def subsystem_dims(self) -> tuple[int, ...]:
        return tuple(2**k for k in self.qubit_dims)


@dataclass(frozen=True)
class HermitianObservable:
    """Hermitian matrix measured against a state."""

    entries: np.ndarray

    def __post_init__(self):
        entries = square_complex(self.entries)
        if np.max(np.abs(entries - entries.conj().T)) > 1e-12:
            raise ValueError("observable is not Hermitian")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def pauli_observable(labels: str) -> HermitianObservable:
    """Tensor product of single-qubit Paulis, e.g. "XZ" for X on qubit 0."""
    try:
        mats = [PAULIS[c] for c in labels]
    except KeyError as exc:
        raise ValueError(f"unknown Pauli label {exc.args[0]!r}") from None
    if not mats:
        raise ValueError("empty Pauli label string")
    return HermitianObservable(reduce(np.kron, mats))


def pure_state(amplitudes, qubit_dims) -> DensityMatrix:
    """Density matrix |psi><psi| of a (normalized) amplitude vector."""
    v = np.asarray(amplitudes, dtype=complex).ravel()
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("zero state vector")
    v = v / norm
    return DensityMatrix(np.outer(v, v.conj()), tuple(qubit_dims))


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with a's index slowest."""
    return np.kron(np.asarray(a), np.asarray(b))


def repartition(rho: DensityMatrix, qubit_dims) -> DensityMatrix:
    """Same state with the qubits regrouped into a new subsystem split."""
    dims = tuple(int(k) for k in qubit_dims)
    if sum(dims) != rho.n_qubits:
        raise ValueError(
            f"qubit_dims {dims} do not cover {rho.n_qubits} qubits"
        )
    return DensityMatrix(rho.entries, dims)


def partial_trace(rho: DensityMatrix, keep: int) -> DensityMatrix:
    """Reduced state of one subsystem, tracing out all others.

    keep indexes into rho.qubit_dims; unit trace and Hermiticity are
    preserved by construction.
    """
    dims = list(rho.subsystem_dims)
    n_sub = len(dims)
    if n_sub < 2:
        raise ValueError("state has no subsystem to trace out")
    if not 0 <= keep < n_sub:
        raise ValueError(f"invalid subsystem index {keep} for {n_sub} subsystems")
    t = rho.entries.reshape(dims + dims)
    for idx in sorted((i for i in range(n_sub) if i != keep), reverse=True):
        t = np.trace(t, axis1=idx, axis2=idx + len(dims))
        dims.pop(idx)
    d = dims[0]
    return DensityMatrix(t.reshape(d, d), (rho.qubit_dims[keep],))


def vn_entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy in bits: -sum(lam * log2(lam)) over eigenvalues.

    Eigenvalues in [-1e-9, 0) are treated as reconstruction round-off and
    clamped to zero; anything lower already fails the state invariants.
    """
    lam = np.linalg.eigvalsh(rho.entries)
    lam = np.clip(lam, 0.0, None)
    lam = lam[lam > 0.0]
    return float(-np.sum(lam * np.log2(lam)))


def expectation(rho: DensityMatrix, obs: HermitianObservable | np.ndarray) -> float:
    """Real expectation value trace(rho @ obs)."""
    if not isinstance(obs, HermitianObservable):
        obs = HermitianObservable(obs)
    if obs.dim != rho.dim:
        raise ValueError(
            f"dimension mismatch: state is {rho.dim}x{rho.dim}, "
            f"observable is {obs.dim}x{obs.dim}"
        )
    val = complex(np.einsum("ij,ji->", rho.entries, obs.entries))
    if abs(val.imag) > 1e-10:
        raise ValueError(f"expectation has imaginary residue {val.imag}")
    return float(val.real)


def eigvals_hermitian(m: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, sorted descending."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if np.max(np.abs(m - m.conj().T)) > 1e-9:
        raise ValueError("matrix is not Hermitian")
    return np.linalg.eigvalsh(m)[::-1]


def _hermitian_sqrt(m: np.ndarray) -> np.ndarray:
    lam, vec = np.linalg.eigh(m)
    lam = np.clip(lam, 0.0, None)
    return (vec * np.sqrt(lam)) @ vec.conj().T


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity (trace sqrt(sqrt(rho) sigma sqrt(rho)))**2 in [0, 1]."""
    if rho.dim != sigma.dim:
        raise ValueError(
            f"dimension mismatch: {rho.dim}x{rho.dim} vs {sigma.dim}x{sigma.dim}"
        )
    sq = _hermitian_sqrt(rho.entries)
    inner = _hermitian_sqrt(sq @ sigma.entries @ sq)
    f = float(np.trace(inner).real) ** 2
    return min(max(f, 0.0), 1.0)
