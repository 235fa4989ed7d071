"""Dense complex linear algebra over multi-qubit Hilbert spaces.

States are explicit complex matrices. Subsystems are qubit groups ordered
slowest-to-fastest in the tensor product; the control qubit of a DQC1
circuit is conventionally subsystem 0.

A state is validated once, where its entries enter the program: the public
DensityMatrix constructor, the one way a state enters (read from JSON by
serialize.density_from_json too), checks shape, finiteness, trace,
Hermiticity and positivity, the last with an O(d^3) eigensolve. The size
rule, that a matrix over n qubits is 2**n square, is check_qubit_shape's
alone: DensityMatrix and dqc1.UnitaryMatrix both call it, once their qubit
counts have passed check_integer, the one integer rule. Builders
whose output is a valid state whenever their input is wrap it with
_trusted_state and skip that check: dqc1.output_state and
dqc1.reduced_control, clifford._clifford_output_state and
tomography.reconstruct. dqc1.z_theta wraps its closed-form
diag(1, e^{i theta}) the same way, without UnitaryMatrix's unitarity
check. The same rule holds for the values that only the program builds:
the constructor of the record clifford.SignedPauliString checks nothing,
the counts array of tomography.simulate_counts and the direction dict of
correlations._bloch_direction are not re-checked where they are read,
tomography.psd_project does not check linear_estimate's output, the
stack_* functions take their (S, D, D) entries arrays unchecked, and
tomography.linear_estimate and stack_reconstruct take the frequencies of
tomography.pair_frequencies unchecked: pair_frequencies is the one
empty-basis-pair rule, run by reconstruct and by each sweep point.
tests/test_invariants.py holds every one of these conditions as a property
of the builders' outputs.

A state's square root is hermitian_sqrt's alone, for the fidelity here and
the concurrence in correlations. It drops the eigenvalues that eigh cannot
tell from 0, so that no root of round-off (near sqrt(eps)) enters a printed
digit; the fidelity then needs no second root, as the trace norm of
sqrt(rho) sqrt(sigma).
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
# The +1 and -1 eigenvectors of X, Y and Z, keyed like PAULIS.
PAULI_EIGENSTATES = {
    "Z": (np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)),
    "X": (np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
          np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)),
    "Y": (np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
          np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0)),
}


def square_complex(m) -> np.ndarray:
    """Copy of m as a finite, square complex matrix; the one entry check
    shared by states and unitaries."""
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


def check_qubit_shape(entries: np.ndarray, n_qubits: int, what: str) -> None:
    """Reject square entries that are not 2**n_qubits on a side: the one size
    rule, by bit lengths, so that a huge count never builds 2**n_qubits."""
    dim = entries.shape[0]
    if dim.bit_length() - 1 != n_qubits or dim & (dim - 1):
        raise ValueError(f"entries shape {entries.shape} does not match {what}")


def check_range(name: str, value: float, low: float = -math.inf,
                high: float = math.inf, *, open_low: bool = False,
                open_high: bool = False) -> None:
    """Reject a value that is not a Python or numpy real number, is a bool
    (True would count as 1.0), is not finite or lies outside the interval
    from low to high; the one range check shared by alpha, theta, epsilon,
    p_error and mean_counts. NaN and inf always fail, so an infinite bound
    means no bound on that side.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
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


def check_integer(name: str, value, low: float = -math.inf, high: float = math.inf) -> None:
    """Reject a value that is not a Python or numpy integer, is a bool (True
    would count as 1) or lies outside low..high; the one integer check of
    steps, shots, seeds, measured sides and qubit counts."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if value > high:
        raise ValueError(f"{name} must be <= {high}, got {value}")


def _qubit_dims(qubit_dims) -> tuple[int, ...]:
    dims = tuple(qubit_dims)
    if not dims:
        raise ValueError("qubit_dims must be positive integers, got ()")
    for k in dims:
        check_integer("qubit_dims entry", k, 1)
    return tuple(map(int, dims))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state over qubit groups.

    qubit_dims lists the qubit count of each tensor factor, e.g. (1, n) for
    one control qubit followed by an n-qubit register.

    The constructor copies the entries and checks every invariant, so a
    state built from outside data is valid or raises ValueError. The
    builders named in the module docstring bypass it through _trusted_state,
    because their output is valid by construction; tests/test_invariants.py
    runs this constructor on their outputs. Unlike SignedPauliString,
    which only the program builds and whose constructor checks nothing,
    this is an input boundary.
    """

    entries: np.ndarray
    qubit_dims: tuple[int, ...]

    def __post_init__(self):
        entries = square_complex(self.entries)
        dims = _qubit_dims(self.qubit_dims)
        check_qubit_shape(entries, sum(dims), f"qubit_dims {dims}")
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
    def subsystem_dims(self) -> tuple[int, ...]:
        return tuple(2**k for k in self.qubit_dims)


def _trusted_state(entries: np.ndarray, qubit_dims) -> DensityMatrix:
    """DensityMatrix over complex entries that are a valid state by
    construction, and qubit_dims of Python ints, without the copy and the
    checks of the constructor.

    Only for builders whose output is valid whenever their input is; the
    entries are made read-only in place, so the caller must not keep a
    writable reference to them.
    """
    entries.setflags(write=False)
    rho = object.__new__(DensityMatrix)
    object.__setattr__(rho, "entries", entries)
    object.__setattr__(rho, "qubit_dims", tuple(qubit_dims))
    return rho


def spectrum_entropy(lam: np.ndarray) -> np.ndarray:
    """Von Neumann entropy in bits of each spectrum along the last axis of
    lam: -sum(lam * log2(lam)) over the positive eigenvalues.

    Eigenvalues in [-1e-9, 0) are treated as reconstruction round-off and
    count as zero; anything lower already fails the state invariants.
    """
    lam = np.maximum(lam, 0.0)
    return -(lam * np.log2(np.where(lam > 0.0, lam, 1.0))).sum(axis=-1)


def hermitian_sqrt(m: np.ndarray) -> np.ndarray:
    """Square root of each PSD matrix in a stack (..., d, d). Eigenvalues at
    or below d * eps * lambda_max are round-off to eigh and count as 0."""
    lam, vec = np.linalg.eigh(m)
    lam = np.where(lam > m.shape[-1] * np.finfo(float).eps * lam[..., -1:], lam, 0.0)
    return (vec * np.sqrt(lam)[..., None, :]) @ vec.conj().swapaxes(-1, -2)


def stack_fidelity(rhos: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Uhlmann fidelity of each pair of states of two stacks of entries of
    one shape (S, D, D): the trace norm of sqrt(rho) sqrt(sigma), squared as
    r * r and clipped to [0, 1]."""
    roots = np.linalg.norm(hermitian_sqrt(rhos) @ hermitian_sqrt(sigmas), "nuc", axis=(-2, -1))
    return np.clip(roots * roots, 0.0, 1.0)


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity (trace sqrt(sqrt(rho) sigma sqrt(rho)))**2 in [0, 1]."""
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim}x{rho.dim} vs {sigma.dim}x{sigma.dim}")
    return float(stack_fidelity(rho.entries[None], sigma.entries[None])[0])
