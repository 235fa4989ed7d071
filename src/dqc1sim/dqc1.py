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

from .qmath import (
    DensityMatrix,
    _trusted_state,
    check_integer,
    check_qubit_shape,
    check_range,
    square_complex,
)

UNITARY_ATOL = 1e-8


@dataclass(frozen=True)
class UnitaryMatrix:
    """Register unitary on n qubits, validated against U+ U = I; a failure
    names the worst-violating entry."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        check_integer("register size", self.n, 1)
        n = int(self.n)
        entries = square_complex(self.entries)
        check_qubit_shape(entries, n, f"n={n} qubits")
        gram = entries.conj().T @ entries
        gram[np.diag_indices_from(gram)] -= 1  # U+U - I, in place
        delta = np.abs(gram)
        i, j = np.unravel_index(int(np.argmax(delta)), delta.shape)
        if not delta[i, j] <= UNITARY_ATOL:
            raise ValueError(
                f"matrix is not unitary: |(U+U - I)[{i},{j}]| = {delta[i, j]:.3e} "
                f"exceeds {UNITARY_ATOL:g}"
            )
        entries.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return 2**self.n


def z_theta(theta: float) -> UnitaryMatrix:
    """Single-qubit phase unitary diag(1, exp(i theta)).

    Unitary by construction, so it is wrapped without the constructor's
    copy and unitarity check, as qmath._trusted_state wraps states.
    """
    check_range("theta", theta)
    entries = np.diag([1.0, np.exp(1j * theta)])
    entries.setflags(write=False)
    u = object.__new__(UnitaryMatrix)
    object.__setattr__(u, "n", 1)
    object.__setattr__(u, "entries", entries)
    return u


def output_state(u: UnitaryMatrix, alpha: float) -> DensityMatrix:
    """Closed-form circuit output (1/2N) [[I, alpha U+], [alpha U, I]].

    Valid by construction, so it is not re-checked: Hermitian and of unit
    trace exactly, with eigenvalues (1 +- alpha s)/2N over the singular
    values s of U. Those are 1 for a unitary; for a U that passes the
    UNITARY_ATOL check the eigenvalues stay >= -UNITARY_ATOL/4.
    """
    check_range("alpha", alpha, 0.0, 1.0)
    dim = u.dim
    m = np.zeros((2 * dim, 2 * dim), dtype=complex)
    # alpha U and alpha U+, each divided by 2N in that order inside its own
    # block: no dim x dim temporaries, and the rounding of (alpha U) / 2N,
    # signed zeros included.
    lower, upper = m[dim:, :dim], m[:dim, dim:]
    np.multiply(alpha, u.entries, out=lower)
    np.conjugate(u.entries.T, out=upper)
    np.multiply(alpha, upper, out=upper)
    lower /= 2 * dim
    upper /= 2 * dim
    np.fill_diagonal(m, 1 / (2 * dim))
    return _trusted_state(m, (1, u.n))


def normalized_trace(u: UnitaryMatrix) -> complex:
    """Tr(U) / 2**n; magnitude is at most 1."""
    return complex(np.trace(u.entries)) / u.dim


def reduced_control(u: UnitaryMatrix, alpha: float) -> DensityMatrix:
    """Control qubit of output_state(u, alpha) after tracing out the
    register: [[1/2, conj(c)], [c, 1/2]] with c = alpha Tr(U)/2N, the
    normalized trace scaled by alpha/2.
    """
    check_range("alpha", alpha, 0.0, 1.0)
    off = alpha * normalized_trace(u) / 2
    m = np.array([[0.5, np.conj(off)], [off, 0.5]], dtype=complex)
    return _trusted_state(m, (1,))


def exact_expectations(u: UnitaryMatrix, alpha: float) -> tuple[float, float]:
    """Exact control-qubit (<X>, <Y>) = alpha * (Re, Im) of Tr(U)/N.

    For U = Z_theta at alpha = 1 this gives (1 + cos theta)/2 and
    (sin theta)/2.
    """
    check_range("alpha", alpha, 0.0, 1.0)
    z = normalized_trace(u)
    return alpha * z.real, alpha * z.imag
