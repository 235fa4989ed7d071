"""Reference numerics the benchmark checks dqc1sim's outputs against.

Everything here is written from textbook definitions with numpy alone. It
imports nothing from dqc1sim or from the repository's tests, so a defect in
the program cannot hide in its own oracle.

Conventions match the program's documented ones: the control qubit is the
slowest tensor index, entropies are in bits, and a (1, n) state has the
control as subsystem 0.
"""

from __future__ import annotations

import functools
import math

import numpy as np

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Single-qubit eigenstates named as in the tomography run format ("x+", ...).
KETS = {
    "z+": np.array([1, 0], dtype=complex),
    "z-": np.array([0, 1], dtype=complex),
    "x+": np.array([1, 1], dtype=complex) / math.sqrt(2.0),
    "x-": np.array([1, -1], dtype=complex) / math.sqrt(2.0),
    "y+": np.array([1, 1j], dtype=complex) / math.sqrt(2.0),
    "y-": np.array([1, -1j], dtype=complex) / math.sqrt(2.0),
}

# Grid sizes (polar x azimuth) of the brute-force measurement search over
# the upper hemisphere: directions n and -n give the same two outcomes. Qubit
# conditional blocks have closed-form eigenvalues, so that grid is fine (one
# degree); larger blocks need a batched eigensolve and get a coarser grid.
QUBIT_GRID = (91, 360)
REGISTER_GRID = (17, 64)


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary by QR of a complex Ginibre matrix, phases fixed."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def z_theta(theta: float) -> np.ndarray:
    return np.diag([1.0, np.exp(1j * theta)])


def dqc1_state(u: np.ndarray, alpha: float) -> np.ndarray:
    """(1/2N) [[I, alpha U+], [alpha U, I]] for an N x N register unitary."""
    n = u.shape[0]
    rho = np.zeros((2 * n, 2 * n), dtype=complex)
    rho[:n, :n] = np.eye(n)
    rho[n:, n:] = np.eye(n)
    rho[:n, n:] = alpha * u.conj().T
    rho[n:, :n] = alpha * u
    return rho / (2 * n)


def dqc1_state_error(entries: np.ndarray, u: np.ndarray, alpha: float) -> float:
    """max |entries - dqc1_state(u, alpha)|, one N x N block at a time."""
    n = u.shape[0]
    scale = 1.0 / (2 * n)
    eye = np.eye(n) * scale
    return float(max(
        np.max(np.abs(entries[:n, :n] - eye)),
        np.max(np.abs(entries[n:, n:] - eye)),
        np.max(np.abs(entries[n:, :n] - (alpha * scale) * u)),
        np.max(np.abs(entries[:n, n:] - (alpha * scale) * u.conj().T)),
    ))


def normalized_trace(u: np.ndarray) -> complex:
    """Tr(U)/N, summing the diagonal with math.fsum."""
    d = np.diagonal(u)
    return complex(math.fsum(d.real), math.fsum(d.imag)) / u.shape[0]


def entropy_bits(eigenvalues) -> float:
    lam = np.clip(np.asarray(eigenvalues, dtype=float), 0.0, None)
    lam = lam[lam > 0.0]
    return float(-np.sum(lam * np.log2(lam)))


def _blocks(rho: np.ndarray, d0: int):
    d1 = rho.shape[0] // d0
    return rho.reshape(d0, d1, d0, d1)


def reduced(rho: np.ndarray, d0: int, keep: int) -> np.ndarray:
    t = _blocks(rho, d0)
    return np.einsum("aibi->ab", t) if keep == 0 else np.einsum("aiaj->ij", t)


def mutual_information(rho: np.ndarray, d0: int) -> float:
    h0 = entropy_bits(np.linalg.eigvalsh(reduced(rho, d0, 0)))
    h1 = entropy_bits(np.linalg.eigvalsh(reduced(rho, d0, 1)))
    return h0 + h1 - entropy_bits(np.linalg.eigvalsh(rho))


def _conditional_parts(rho: np.ndarray, d0: int, measured: int):
    """(R, K): the other side's unnormalized state after projecting the
    measured qubit on (I + n.sigma)/2 is (R + n.K)/2."""
    t = _blocks(rho, d0)
    if measured == 0:
        apply = lambda p: np.einsum("ba,aibj->ij", p, t)  # noqa: E731
    else:
        apply = lambda p: np.einsum("ji,aibj->ab", p, t)  # noqa: E731
    return apply(PAULI["I"]), np.stack([apply(PAULI[k]) for k in "XYZ"])


@functools.lru_cache(maxsize=None)  # two fixed sizes
def _grid(polar: int, azimuth: int) -> np.ndarray:
    pol = np.linspace(0.0, math.pi / 2.0, polar)
    az = np.linspace(0.0, 2.0 * math.pi, azimuth, endpoint=False)
    p, a = np.meshgrid(pol, az, indexing="ij")
    return np.stack([np.sin(p) * np.cos(a), np.sin(p) * np.sin(a), np.cos(p)], axis=-1).reshape(-1, 3)


def _qubit_eigenvalues(a, d, b) -> np.ndarray:
    """Closed-form eigenvalues of 2x2 Hermitian matrices [[a, b], [b*, d]]."""
    half = 0.5 * (a - d)
    r = np.sqrt(half * half + np.abs(b) ** 2)
    mid = 0.5 * (a + d)
    return np.stack([mid - r, mid + r], axis=-1)


def _weighted_entropy(mu: np.ndarray) -> np.ndarray:
    """sum_k p_k S(block_k / p_k) from the blocks' eigenvalues (last axis)."""
    mu = np.clip(mu, 0.0, None)
    p = mu.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(mu > 0.0, mu * (np.log2(mu) - np.log2(p)), 0.0)
    return -terms.sum(axis=-1)


def grid_discord(rho: np.ndarray, d0: int, measured: int) -> float:
    """Discord I - J with J from the best measurement on a fixed grid.

    The grid minimum bounds the true minimum conditional entropy from above,
    so this value bounds the true discord from above: a correct minimiser
    may not report more.
    """
    r, k = _conditional_parts(rho, d0, measured)
    if r.shape[0] == 2:
        grid = _grid(*QUBIT_GRID)
        m00, m11, m01 = grid @ k[:, 0, 0].real, grid @ k[:, 1, 1].real, grid @ k[:, 0, 1]
        mu = np.stack([
            _qubit_eigenvalues((r[0, 0].real + s * m00) / 2, (r[1, 1].real + s * m11) / 2, (r[0, 1] + s * m01) / 2)
            for s in (1.0, -1.0)
        ], axis=1)
    else:
        m = np.einsum("gk,kab->gab", _grid(*REGISTER_GRID), k)
        mu = np.linalg.eigvalsh(np.stack([(r + m) / 2.0, (r - m) / 2.0], axis=1))
    h_min = float(_weighted_entropy(mu).sum(axis=1).min())
    h_other = entropy_bits(np.linalg.eigvalsh(r))
    return mutual_information(rho, d0) - (h_other - h_min)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    lam, vec = np.linalg.eigh(m)
    return (vec * np.sqrt(np.clip(lam, 0.0, None))) @ vec.conj().T


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence from the Hermitian sqrt(sqrt(rho) rho~ sqrt(rho))."""
    yy = np.kron(PAULI["Y"], PAULI["Y"])
    flipped = yy @ rho.conj() @ yy
    s = _psd_sqrt(rho)
    lam = np.sort(np.sqrt(np.clip(np.linalg.eigvalsh(s @ flipped @ s), 0.0, None)))[::-1]
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity as (sum of square roots of the eigenvalues of rho sigma)^2."""
    lam = np.linalg.eigvals(rho @ sigma).real
    return float(np.sum(np.sqrt(np.clip(lam, 0.0, None))) ** 2)


def shots_required(epsilon: float, p_error: float, alpha: float) -> int:
    """Hoeffding shot budget ceil(ln(2/P_e) / (2 eps^2) / alpha^2)."""
    return math.ceil(math.log(2.0 / p_error) / (2.0 * epsilon**2) / alpha**2)


def hoeffding_halfwidth(shots: float, delta: float) -> float:
    """t with P(|mean of shots +-1 outcomes - expectation| >= t) <= delta."""
    return math.sqrt(2.0 * math.log(2.0 / delta) / shots)


def poisson_halfwidth(mean: float, delta: float) -> float:
    """t with P(|X - mean| >= t) <= delta for X ~ Poisson(mean) (Bernstein)."""
    log_term = math.log(2.0 / delta)
    return log_term / 3.0 + math.sqrt((log_term / 3.0) ** 2 + 2.0 * mean * log_term)


def pauli_string_matrix(labels: str) -> np.ndarray:
    m = np.array([[1.0 + 0j]])
    for c in labels:
        m = np.kron(m, PAULI[c])
    return m


_GATES = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0),
    "S": np.diag([1.0, 1.0j]),
    "X": PAULI["X"],
    "Z": PAULI["Z"],
}


def circuit_unitary(n_qubits: int, gates: list[dict]) -> np.ndarray:
    """Dense product of a circuit in the documented JSON gate format."""
    dim = 2**n_qubits
    w = np.eye(dim, dtype=complex)
    idx = np.arange(dim)
    bit = lambda q: (idx >> (n_qubits - 1 - q)) & 1  # noqa: E731  qubit 0 is slowest
    for g in gates:
        name, q = g["g"], g["q"]
        if name in _GATES:
            ops = [_GATES[name] if k == q else PAULI["I"] for k in range(n_qubits)]
            gate = ops[0]
            for op in ops[1:]:
                gate = np.kron(gate, op)
        elif name == "CZ":
            gate = np.diag(np.where(bit(q[0]) & bit(q[1]), -1.0, 1.0)).astype(complex)
        elif name == "CNOT":
            gate = np.eye(dim, dtype=complex)[:, idx ^ (bit(q[0]) << (n_qubits - 1 - q[1]))]
        else:
            raise ValueError(f"unknown gate {name!r}")
        w = gate @ w
    return w
