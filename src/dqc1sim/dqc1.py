"""DQC1 circuit construction and exact outputs.

The circuit applies a Hadamard to a single (partially pure) control qubit
followed by a controlled register unitary U. The output state in block form
over the control index is (1/2N) [[I, a U+], [a U, I]] with N = 2**n and
a the control purity parameter, so the control coherences carry the
normalized trace Tr(U)/N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmath import DensityMatrix, square_complex, tensor

UNITARY_ATOL = 1e-8

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


@dataclass(frozen=True)
class UnitaryMatrix:
    """Register unitary on n qubits, validated against U+ U = I."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        n = int(self.n)
        if n < 1:
            raise ValueError(f"register size must be >= 1, got {n}")
        entries = square_complex(self.entries)
        dim = 2**n
        if entries.shape != (dim, dim):
            raise ValueError(
                f"entries shape {entries.shape} does not match n={n} qubits"
            )
        dev = np.max(np.abs(entries.conj().T @ entries - np.eye(dim)))
        if not dev <= UNITARY_ATOL:
            raise ValueError(f"matrix is not unitary: max |U+U - I| = {dev:.3e}")
        entries.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_matrix(cls, m) -> "UnitaryMatrix":
        m = np.asarray(m)
        dim = m.shape[0]
        n = int(round(np.log2(dim)))
        if 2**n != dim:
            raise ValueError(f"dimension {dim} is not a power of 2")
        return cls(n, m)

    @property
    def dim(self) -> int:
        return 2**self.n


@dataclass(frozen=True)
class Dqc1Config:
    """Register size, control purity alpha, and phase angle for Z_theta."""

    n: int
    alpha: float
    theta: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"register size must be >= 1, got {self.n}")
        _check_alpha(self.alpha)

    @property
    def purity(self) -> float:
        return (1.0 + self.alpha**2) / 2.0


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")


def z_theta(theta: float) -> UnitaryMatrix:
    """Single-qubit phase unitary diag(1, exp(i theta))."""
    if not np.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    return UnitaryMatrix(1, np.diag([1.0, np.exp(1j * theta)]))


def build_input(n: int, alpha: float) -> DensityMatrix:
    """Input state (1/2^(n+1)) (I + alpha Z (x) I^n), diagonal in the logical basis."""
    if n < 1:
        raise ValueError(f"register size must be >= 1, got {n}")
    _check_alpha(alpha)
    big = 2 ** (n + 1)
    diag = np.concatenate(
        [np.full(big // 2, 1.0 + alpha), np.full(big // 2, 1.0 - alpha)]
    ) / big
    return DensityMatrix(np.diag(diag).astype(complex), (1, n))


def controlled_unitary(u: UnitaryMatrix) -> np.ndarray:
    """Block-diagonal diag(I, U) with the control as qubit 0."""
    dim = u.dim
    cu = np.zeros((2 * dim, 2 * dim), dtype=complex)
    cu[:dim, :dim] = np.eye(dim)
    cu[dim:, dim:] = u.entries
    return cu


def output_state(u: UnitaryMatrix, alpha: float) -> DensityMatrix:
    """Closed-form circuit output (1/2N) [[I, alpha U+], [alpha U, I]]."""
    _check_alpha(alpha)
    dim = u.dim
    m = np.zeros((2 * dim, 2 * dim), dtype=complex)
    eye = np.eye(dim)
    m[:dim, :dim] = eye
    m[dim:, dim:] = eye
    m[:dim, dim:] = alpha * u.entries.conj().T
    m[dim:, :dim] = alpha * u.entries
    return DensityMatrix(m / (2 * dim), (1, u.n))


def circuit_output_state(u: UnitaryMatrix, alpha: float) -> DensityMatrix:
    """Output obtained by conjugating the input with the explicit gate sequence.

    Must agree with output_state to 1e-12; kept as an independent path for
    cross-checks.
    """
    w = controlled_unitary(u) @ tensor(HADAMARD, np.eye(u.dim))
    rho_in = build_input(u.n, alpha).entries
    return DensityMatrix(w @ rho_in @ w.conj().T, (1, u.n))


def normalized_trace(u: UnitaryMatrix) -> complex:
    """Tr(U) / 2**n; magnitude is at most 1."""
    return complex(np.trace(u.entries)) / u.dim


def reduced_control(u: UnitaryMatrix, alpha: float) -> DensityMatrix:
    """Control qubit after tracing out the register.

    Off-diagonals are alpha Tr(U)/2N, i.e. the normalized trace scaled by
    alpha/2; equals partial_trace(output_state(u, alpha), keep=0).
    """
    _check_alpha(alpha)
    t = complex(np.trace(u.entries))
    off = alpha * t / (2 * u.dim)
    m = np.array([[0.5, np.conj(off)], [off, 0.5]], dtype=complex)
    return DensityMatrix(m, (1,))


def exact_expectations(u: UnitaryMatrix, alpha: float) -> tuple[float, float]:
    """Exact control-qubit (<X>, <Y>) = alpha * (Re, Im) of Tr(U)/N.

    For U = Z_theta at alpha = 1 this gives (1 + cos theta)/2 and
    (sin theta)/2.
    """
    _check_alpha(alpha)
    z = normalized_trace(u)
    return alpha * z.real, alpha * z.imag
