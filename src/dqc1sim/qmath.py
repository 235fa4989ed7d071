"""Dense complex linear algebra over multi-qubit Hilbert spaces.

States are explicit complex matrices. Subsystems are qubit groups ordered
slowest-to-fastest in the tensor product; the control qubit of a DQC1
circuit is conventionally subsystem 0.

A state is validated once, where its entries enter the program: the public
DensityMatrix constructor (and so pure_state and serialize.density_from_json)
checks shape, finiteness, trace, Hermiticity and positivity, the last with an
O(d^3) eigensolve. Builders whose output is a valid state whenever their
input is wrap it with _trusted_state and skip that check: partial_trace and
repartition here, dqc1.output_state and dqc1.reduced_control,
clifford._clifford_output_state and tomography.reconstruct. The tests run
the full check on each of their outputs (tests/test_invariants.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    shared by states, unitaries and tomography estimates."""
    out = np.array(m, dtype=complex)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError("matrix entries must be finite (no NaN or inf)")
    return out


def qubit_count(dim: int) -> int:
    """n with 2**n == dim; the one power-of-two dimension check."""
    if dim < 1 or dim & (dim - 1):
        raise ValueError(f"dimension {dim} is not a power of 2")
    return dim.bit_length() - 1


def register_size(n: int) -> int:
    """n as an int; the one check that a register has at least one qubit."""
    n = int(n)
    if n < 1:
        raise ValueError(f"register size must be >= 1, got {n}")
    return n


def check_range(name: str, value: float, low: float = -math.inf,
                high: float = math.inf, *, open_low: bool = False,
                open_high: bool = False) -> None:
    """Reject a scalar that is not finite or lies outside the interval from
    low to high; the one range check shared by alpha, theta, epsilon,
    p_error and mean_counts. NaN and inf always fail, so an infinite bound
    means no bound on that side.
    """
    if not (
        math.isfinite(value)
        and (low < value if open_low else low <= value)
        and (value < high if open_high else value <= high)
    ):
        if math.isinf(low) and math.isinf(high):
            raise ValueError(f"{name} must be finite, got {value}")
        left = "(" if open_low or math.isinf(low) else "["
        right = ")" if open_high or math.isinf(high) else "]"
        raise ValueError(f"{name} must be in {left}{low:g}, {high:g}{right}, got {value}")


def _qubit_dims(qubit_dims) -> tuple[int, ...]:
    dims = tuple(int(k) for k in qubit_dims)
    if not dims or any(k < 1 for k in dims):
        raise ValueError(f"qubit_dims must be positive integers, got {dims}")
    return dims


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state over qubit groups.

    qubit_dims lists the qubit count of each tensor factor, e.g. (1, n) for
    one control qubit followed by an n-qubit register.

    The constructor copies the entries and checks every invariant, so a
    state built from outside data is valid or raises ValueError. The
    builders named in the module docstring bypass it through _trusted_state,
    because their output is valid by construction.
    """

    entries: np.ndarray
    qubit_dims: tuple[int, ...]

    def __post_init__(self):
        entries = square_complex(self.entries)
        dims = _qubit_dims(self.qubit_dims)
        # Bit lengths first, so that a huge count read from a file never
        # builds the integer 2**sum(dims).
        dim = entries.shape[0]
        if dim.bit_length() - 1 != sum(dims) or dim != 2 ** sum(dims):
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


def _trusted_state(entries: np.ndarray, qubit_dims) -> DensityMatrix:
    """DensityMatrix over complex entries that are a valid state by
    construction, without the copy and the checks of the constructor.

    Only for builders whose output is valid whenever their input is; the
    entries are made read-only in place, so the caller must not keep a
    writable reference to them.
    """
    entries.setflags(write=False)
    rho = object.__new__(DensityMatrix)
    object.__setattr__(rho, "entries", entries)
    object.__setattr__(rho, "qubit_dims", tuple(int(k) for k in qubit_dims))
    return rho


def pure_state(amplitudes, qubit_dims) -> DensityMatrix:
    """Density matrix |psi><psi| of a (normalized) amplitude vector."""
    v = np.asarray(amplitudes, dtype=complex).ravel()
    if not np.isfinite(v).all():
        raise ValueError("amplitudes must be finite (no NaN or inf)")
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("zero state vector")
    v = v / norm
    return DensityMatrix(np.outer(v, v.conj()), tuple(qubit_dims))


def repartition(rho: DensityMatrix, qubit_dims) -> DensityMatrix:
    """Same state with the qubits regrouped into a new subsystem split."""
    dims = _qubit_dims(qubit_dims)
    if sum(dims) != rho.n_qubits:
        raise ValueError(
            f"qubit_dims {dims} do not cover {rho.n_qubits} qubits"
        )
    return _trusted_state(rho.entries, dims)


def partial_trace(rho: DensityMatrix, keep: int) -> DensityMatrix:
    """Reduced state of one subsystem, tracing out all others.

    keep indexes into rho.qubit_dims; unit trace, Hermiticity and
    positivity are preserved by construction.
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
    return _trusted_state(t.reshape(d, d), (rho.qubit_dims[keep],))


def vn_entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy in bits: -sum(lam * log2(lam)) over eigenvalues.

    Eigenvalues in [-1e-9, 0) are treated as reconstruction round-off and
    clamped to zero; anything lower already fails the state invariants.
    """
    lam = np.linalg.eigvalsh(rho.entries)
    lam = np.clip(lam, 0.0, None)
    lam = lam[lam > 0.0]
    return float(-np.sum(lam * np.log2(lam)))


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
