"""Shared test utilities: random states, circuit JSON, JSON writers, and
independent brute-force oracles.

The oracles here deliberately avoid the package's optimized code paths
(block reductions, zoomed grids, X/Z bit propagation, the array circuit
reader) so they can serve as independent cross-checks: explicit projectors
and dense partial traces, dense gate matrices built from circuit JSON,
and an entry-by-entry circuit reader.
"""

from __future__ import annotations

import json
import os
from functools import reduce
from pathlib import Path

import numpy as np

import dqc1sim
from dqc1sim import DensityMatrix, UnitaryMatrix
from dqc1sim.clifford import MAX_QUBITS, CliffordCircuit, SignedPauliString, circuit_from_json
from dqc1sim.serialize import matrix_to_json

I2 = np.eye(2, dtype=complex)
PX = np.array([[0, 1], [1, 0]], dtype=complex)
PY = np.array([[0, -1j], [1j, 0]], dtype=complex)
PZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_density_matrix(rng, qubit_dims, rank=None) -> DensityMatrix:
    """Random mixed state from a Ginibre factor (full rank by default)."""
    dim = 2 ** sum(qubit_dims)
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, tuple(qubit_dims))


def random_pure_density(rng, qubit_dims) -> DensityMatrix:
    return random_density_matrix(rng, qubit_dims, rank=1)


def random_unitary(rng, dim) -> np.ndarray:
    """Haar-ish unitary via QR of a Ginibre matrix with phase fixing."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def disk_unitary(z: complex) -> UnitaryMatrix:
    """One-qubit diag(e^{i phi1}, e^{i phi2}) with Tr/2 = z, a point of the
    unit disk: phi = arg z +- arccos |z|. At alpha = 1 the control's X and Y
    quadratures then have exact values Re z and Im z (up to rounding)."""
    centre = float(np.angle(z))
    half = float(np.arccos(min(abs(z), 1.0)))
    return UnitaryMatrix(1, np.diag(np.exp(1j * np.array([centre + half, centre - half]))))


def quadrature_draws(seed, shots: int, expectations, mode: str = "binomial") -> list:
    """(N+, N-) for the X and Y quadratures, drawn straight from numpy's
    generators on SeedSequence(seed).spawn(2): the independent oracle of
    the sampler's counts."""
    counts = []
    for child, e in zip(np.random.SeedSequence(seed).spawn(2), expectations):
        gen, p = np.random.default_rng(child), (1.0 + e) / 2.0
        if mode == "binomial":
            n_plus = int(gen.binomial(shots, p))
            counts.append((n_plus, shots - n_plus))
        else:
            counts.append((int(gen.poisson(shots * p)), int(gen.poisson(shots * (1.0 - p)))))
    return counts


def circuit_output_state(u: np.ndarray, alpha: float) -> np.ndarray:
    """DQC1 output by conjugating the input (I + alpha Z)/2 (x) I/N with the
    explicit gates, a Hadamard on the control and then controlled-U."""
    dim = u.shape[0]
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
    cu = np.zeros((2 * dim, 2 * dim), dtype=complex)
    cu[:dim, :dim] = np.eye(dim)
    cu[dim:, dim:] = u
    w = cu @ np.kron(hadamard, np.eye(dim))
    rho_in = np.kron(np.diag([1.0 + alpha, 1.0 - alpha]) / 2.0, np.eye(dim) / dim)
    return w @ rho_in @ w.conj().T


# Single-qubit Pauli eigenstates and the 36 two-qubit tomography settings,
# written out independently of dqc1sim.tomography.
TOMO_KETS = {
    "z+": np.array([1, 0], dtype=complex),
    "z-": np.array([0, 1], dtype=complex),
    "x+": np.array([1, 1], dtype=complex) / np.sqrt(2.0),
    "x-": np.array([1, -1], dtype=complex) / np.sqrt(2.0),
    "y+": np.array([1, 1j], dtype=complex) / np.sqrt(2.0),
    "y-": np.array([1, -1j], dtype=complex) / np.sqrt(2.0),
}
TOMO_LABELS = tuple(a + b for a in TOMO_KETS for b in TOMO_KETS)


def setting_probability(rho: np.ndarray, label: str) -> float:
    """<ab| rho |ab> for a setting label such as "x+z-"."""
    ket = np.kron(TOMO_KETS[label[:2]], TOMO_KETS[label[2:]])
    return float(np.real(ket.conj() @ rho @ ket))


def noiseless_run(rho: DensityMatrix, mean_counts: float = 1.0) -> np.ndarray:
    """Counts replaced by exact probabilities times the mean (no noise)."""
    probs = [setting_probability(rho.entries, lab) for lab in TOMO_LABELS]
    return mean_counts * np.array(probs)


# The least-squares oracle's unknowns, the 15 Pauli products sigma_i (x)
# sigma_j other than II, and its design: row |ab> holds <ab|P|ab> / 4.
TOMO_PAULI_PRODUCTS = [np.kron(p, q) for p in (I2, PX, PY, PZ) for q in (I2, PX, PY, PZ)][1:]
TOMO_DESIGN = np.array([
    [np.real(ket.conj() @ p @ ket) / 4.0 for p in TOMO_PAULI_PRODUCTS]
    for ket in (np.kron(TOMO_KETS[lab[:2]], TOMO_KETS[lab[2:]]) for lab in TOMO_LABELS)
])


def least_squares_estimate(counts) -> np.ndarray:
    """Linear-inversion oracle: (1/4) sum s_ij sigma_i (x) sigma_j from
    counts in TOMO_LABELS order, each normalized by the total of its basis
    pair, with the 15 unknown s_ij (s_II = 1) solved by np.linalg.lstsq
    over TOMO_DESIGN."""
    pairs = [lab[0] + lab[2] for lab in TOMO_LABELS]
    totals = {pair: sum(c for c, q in zip(counts, pairs) if q == pair) for pair in pairs}
    probs = np.array([c / totals[q] for c, q in zip(counts, pairs)])
    coef = np.linalg.lstsq(TOMO_DESIGN, probs - 0.25, rcond=None)[0]
    return (np.eye(4) + sum(c * p for c, p in zip(coef, TOMO_PAULI_PRODUCTS))) / 4.0


def bell_state() -> DensityMatrix:
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return DensityMatrix(np.outer(v, v.conj()), (1, 1))


def oracle_min_conditional_entropy(rho: DensityMatrix, measured: int,
                                   n_polar: int = 100, n_azimuth: int = 200) -> float:
    """Brute-force grid minimum of the average post-measurement entropy.

    Uses explicit rank-1 projectors and dense partial traces, one polar row
    of the grid at a time; independent of the production optimizer.
    """
    d0, d1 = rho.subsystem_dims
    m = rho.entries
    azimuths = np.linspace(0.0, 2 * np.pi, n_azimuth, endpoint=False)
    best = np.inf
    for pol in np.linspace(0.0, np.pi, n_polar):
        nx, ny = np.sin(pol) * np.cos(azimuths), np.sin(pol) * np.sin(azimuths)
        proj = (I2 + nx[:, None, None] * PX + ny[:, None, None] * PY + np.cos(pol) * PZ) / 2.0
        # (azimuth, outcome, row, column): each projector and its complement
        p_ops = np.stack([proj, I2 - proj], axis=1)
        full = np.kron(p_ops, np.eye(d1)) if measured == 0 else np.kron(np.eye(d0), p_ops)
        after = full @ m @ full
        p = np.trace(after, axis1=-2, axis2=-1).real
        kept = ~(p < 1e-14)
        t = after.reshape(*p.shape, d0, d1, d0, d1)
        cond = (np.einsum("...iaib->...ab", t) if measured == 0
                else np.einsum("...arbr->...ab", t)) / np.where(kept, p, 1.0)[..., None, None]
        lam = np.clip(np.linalg.eigvalsh(cond), 0.0, None)
        positive = lam > 0
        h = -np.where(positive, lam * np.log2(np.where(positive, lam, 1.0)), 0.0).sum(axis=-1)
        best = min(best, float(np.where(kept, p * h, 0.0).sum(axis=1).min()))
    return best


def oracle_discord(rho: DensityMatrix, measured: int, n_polar: int = 100,
                   n_azimuth: int = 200) -> float:
    """Grid-oracle discord: entropies computed from scratch."""
    def entropy(mat):
        lam = np.clip(np.linalg.eigvalsh(mat), 0.0, None)
        lam = lam[lam > 0]
        return float(-(lam * np.log2(lam)).sum())

    d0, d1 = rho.subsystem_dims
    t = rho.entries.reshape(d0, d1, d0, d1)
    rho_c = np.einsum("arbr->ab", t)
    rho_r = np.einsum("iaib->ab", t)
    info = entropy(rho_c) + entropy(rho_r) - entropy(rho.entries)
    h_other = entropy(rho_r if measured == 0 else rho_c)
    hmin = oracle_min_conditional_entropy(rho, measured, n_polar, n_azimuth)
    return info - (h_other - hmin)


def z_theta_control_hmin(theta: float, alpha: float) -> float:
    """Closed-form control-side Hmin of the DQC1 output for U = diag(1, e^{i theta}).

    The optimal measurement on the control is equatorial, at azimuth
    beta = theta/2 or theta/2 + pi/2; each is evaluated with explicit
    projectors on the output of circuit_output_state and a dense partial
    trace over the control.
    """
    rho = circuit_output_state(np.diag([1.0, np.exp(1j * theta)]), alpha)
    best = np.inf
    for beta in (theta / 2.0, theta / 2.0 + np.pi / 2.0):
        proj = (I2 + np.cos(beta) * PX + np.sin(beta) * PY) / 2.0
        h = 0.0
        for p_op in (proj, I2 - proj):
            full = np.kron(p_op, I2)
            cond = np.einsum("iaib->ab", (full @ rho @ full).reshape(2, 2, 2, 2))
            lam = np.linalg.eigvalsh(cond)
            p, lam = lam.sum(), lam[lam > 0.0]
            h -= float((lam * np.log2(lam / p)).sum())
        best = min(best, h)
    return best


def read_circuit(obj: dict) -> CliffordCircuit:
    """A circuit as users give one: the JSON text of obj, read back by
    circuit_from_json."""
    return circuit_from_json(json.loads(json.dumps(obj)))


def controlled_pauli_circuit(labels: str, phase_power: int) -> dict:
    """Circuit JSON of the full DQC1 circuit (Hadamard + controlled-U) for
    U = i^k * Pauli string.

    The control is qubit 0; the i^k phase becomes S^k on the control, and
    each non-identity register factor becomes a controlled X, Y, or Z.
    """
    gates = [{"g": "H", "q": 0}] + [{"g": "S", "q": 0}] * (phase_power % 4)
    for i, lab in enumerate(labels):
        target = i + 1
        if lab == "X":
            gates.append({"g": "CNOT", "q": [0, target]})
        elif lab == "Z":
            gates.append({"g": "CZ", "q": [0, target]})
        elif lab == "Y":
            # CY = (I (x) S^3) CNOT (I (x) S)
            gates += [{"g": "S", "q": target}] * 3
            gates.append({"g": "CNOT", "q": [0, target]})
            gates.append({"g": "S", "q": target})
    return {"n": len(labels) + 1, "gates": gates}


def dense_pauli(labels: str, phase: complex = 1.0) -> np.ndarray:
    m = np.array([[phase]], dtype=complex)
    for c in labels:
        m = np.kron(m, {"I": I2, "X": PX, "Y": PY, "Z": PZ}[c])
    return m


def random_pauli_string(rng, n_qubits: int, allow_identity: bool = True) -> SignedPauliString:
    labels = "".join("IXYZ"[int(k)] for k in rng.integers(0, 4, n_qubits))
    if not allow_identity and set(labels) == {"I"}:
        labels = "Z" + labels[1:]
    return SignedPauliString(1 if rng.random() < 0.5 else -1, labels)


# Dense Clifford gates, written out independently of dqc1sim.clifford: the
# single-qubit matrices, and for each controlled gate the operator it
# applies to the target when the control is |1>.
ONE_QUBIT_GATES = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0),
    "S": np.diag([1.0, 1.0j]),
    "X": PX,
    "Z": PZ,
}
CONTROLLED_GATES = {"CZ": PZ, "CNOT": PX}
GATE_ARITY = {**dict.fromkeys(ONE_QUBIT_GATES, 1), **dict.fromkeys(CONTROLLED_GATES, 2)}


def _on_qubits(ops: dict, n_qubits: int) -> np.ndarray:
    """Kronecker product with ops[q] on qubit q, identity elsewhere."""
    return reduce(np.kron, [ops.get(q, I2) for q in range(n_qubits)], np.eye(1))


def gate_unitary(gate: dict, n_qubits: int) -> np.ndarray:
    """Dense matrix of a JSON gate in an n-qubit register (qubit 0 slowest)."""
    name, q = gate["g"], gate["q"]
    if name in CONTROLLED_GATES:
        c, t = q
        off = _on_qubits({c: np.diag([1.0, 0.0])}, n_qubits)
        on = _on_qubits({c: np.diag([0.0, 1.0]), t: CONTROLLED_GATES[name]}, n_qubits)
        return off + on
    (target,) = q if isinstance(q, list) else [q]
    return _on_qubits({target: ONE_QUBIT_GATES[name]}, n_qubits)


def circuit_unitary(obj: dict) -> np.ndarray:
    """Dense product of a circuit JSON's gates (first gate applied first)."""
    w = np.eye(2**obj["n"], dtype=complex)
    for gate in obj["gates"]:
        w = gate_unitary(gate, obj["n"]) @ w
    return w


def reference_circuit(obj: dict) -> tuple[int, list]:
    """(n, [(name, qubits), ...]) of circuit JSON whose "n" is an integer,
    read one entry at a time: the slow reference for circuit_from_json. A
    bad circuit raises the reader's message for its first failing check:
    each entry in index order (keys, qubit types, name, arity, distinct
    qubits), then the qubit count, then the first gate out of range."""
    n, gates = obj["n"], []
    for i, item in enumerate(obj["gates"]):
        try:
            name, q = item["g"], item["q"]
            qubits = tuple(q) if isinstance(q, list) else (q,)
            for k in qubits:
                if type(k) is not int:
                    raise ValueError(f"qubit index must be an integer, got {json.dumps(k)[:40]}")
            if name not in GATE_ARITY:
                raise ValueError(f"unknown gate {name!r}")
            if len(qubits) != GATE_ARITY[name]:
                raise ValueError(f"{name} takes {GATE_ARITY[name]} qubit(s), got {qubits}")
            if len(set(qubits)) != len(qubits):
                raise ValueError(f"{name} qubits must be distinct, got {qubits}")
        except (TypeError, KeyError, ValueError) as exc:
            raise ValueError(f"bad gate at index {i}: {exc}") from None
        gates.append((name, qubits))
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be {'>= 1' if n < 1 else f'<= {MAX_QUBITS}'}, got {n}")
    for i, (name, qubits) in enumerate(gates):
        if any(not 0 <= k < n for k in qubits):
            raise ValueError(f"gate {i} ({name} on {qubits}) out of range for {n} qubits")
    return n, gates


def random_clifford_circuit(n_qubits: int, n_gates: int, rng) -> dict:
    """Circuit JSON of a uniformly random gate sequence over the supported
    gate set."""
    rng = np.random.default_rng(rng)
    names = [g for g in GATE_ARITY if GATE_ARITY[g] <= n_qubits]
    gates = []
    for _ in range(n_gates):
        name = names[rng.integers(len(names))]
        if GATE_ARITY[name] == 1:
            gates.append({"g": name, "q": int(rng.integers(n_qubits))})
        else:
            a, b = rng.choice(n_qubits, size=2, replace=False)
            gates.append({"g": name, "q": [int(a), int(b)]})
    return {"n": n_qubits, "gates": gates}


def unitary_to_json(u: UnitaryMatrix) -> dict:
    return matrix_to_json(u.entries)


def save_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def package_env() -> dict:
    """Environment for a child interpreter that imports this dqc1sim."""
    src = str(Path(dqc1sim.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
