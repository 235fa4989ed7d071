"""Shared test utilities that build or read dqc1sim objects and inputs:
random states, circuit JSON, JSON writers, the entry-by-entry reference
reader of circuit JSON, the sweep CSV reader, and the environment of a
child interpreter.

The independent oracles, which import nothing from dqc1sim, are in
reference_oracles.py.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

import dqc1sim
from dqc1sim import DensityMatrix, UnitaryMatrix
from dqc1sim.clifford import MAX_QUBITS, CliffordCircuit, SignedPauliString, circuit_from_json
from dqc1sim.serialize import matrix_to_json

from reference_oracles import GATE_ARITY, TOMO_LABELS, bell_matrix, setting_probability


def random_density_matrix(rng, qubit_dims, rank=None) -> DensityMatrix:
    """Random mixed state from a Ginibre factor (full rank by default)."""
    dim = 2 ** sum(qubit_dims)
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, tuple(qubit_dims))


def pure_density(amplitudes, qubit_dims) -> DensityMatrix:
    """|psi><psi| of the normalized amplitude vector, as a user builds it."""
    v = np.asarray(amplitudes, dtype=complex).ravel()
    v = v / np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()), tuple(qubit_dims))


def random_pure_density(rng, qubit_dims) -> DensityMatrix:
    return random_density_matrix(rng, qubit_dims, rank=1)


def disk_unitary(z: complex) -> UnitaryMatrix:
    """One-qubit diag(e^{i phi1}, e^{i phi2}) with Tr/2 = z, a point of the
    unit disk: phi = arg z +- arccos |z|. At alpha = 1 the control's X and Y
    quadratures then have exact values Re z and Im z (up to rounding)."""
    centre = float(np.angle(z))
    half = float(np.arccos(min(abs(z), 1.0)))
    return UnitaryMatrix(1, np.diag(np.exp(1j * np.array([centre + half, centre - half]))))


def noiseless_run(rho: DensityMatrix, mean_counts: float = 1.0) -> np.ndarray:
    """Counts replaced by exact probabilities times the mean (no noise)."""
    probs = [setting_probability(rho.entries, lab) for lab in TOMO_LABELS]
    return mean_counts * np.array(probs)


def stacked(states) -> np.ndarray:
    """The entries (S, D, D) of a sequence of states, as the stack_*
    functions take them."""
    return np.array([rho.entries for rho in states])


def bell_state() -> DensityMatrix:
    return DensityMatrix(bell_matrix(), (1, 1))


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


def random_pauli_string(rng, n_qubits: int, allow_identity: bool = True) -> SignedPauliString:
    labels = "".join("IXYZ"[int(k)] for k in rng.integers(0, 4, n_qubits))
    if not allow_identity and set(labels) == {"I"}:
        labels = "Z" + labels[1:]
    return SignedPauliString(1 if rng.random() < 0.5 else -1, labels)


def reference_circuit(obj: dict) -> tuple[int, list]:
    """(n, [(name, qubits), ...]) of circuit JSON whose "n" is an integer,
    read one entry at a time: the slow reference for circuit_from_json. A
    bad circuit raises the reader's message for its first failing check:
    each entry in index order (shape, qubit types, name, arity, distinct
    qubits), then the qubit count, then the first gate out of range."""
    n, gates = obj["n"], []
    for i, item in enumerate(obj["gates"]):
        try:
            if type(item) is not dict or not isinstance(item.get("g"), str) or "q" not in item:
                raise ValueError('expected an object with a string "g" and a "q", '
                                 f"got {json.dumps(item)[:40]}")
            name, q = item["g"], item["q"]
            qubits = tuple(q) if type(q) is list else (q,)
            for k in qubits:
                if type(k) is not int:
                    raise ValueError(f"qubit index must be an integer, got {json.dumps(k)[:40]}")
            if name not in GATE_ARITY:
                raise ValueError(f"unknown gate {name!r}")
            if len(qubits) != GATE_ARITY[name]:
                raise ValueError(f"{name} takes {GATE_ARITY[name]} qubit(s), got {qubits}")
            if len(set(qubits)) != len(qubits):
                raise ValueError(f"{name} qubits must be distinct, got {qubits}")
        except ValueError as exc:
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


def read_sweep_csv(path) -> tuple[dict, list[str], list[dict]]:
    """The config, the header's columns and the rows, by column, of a sweep CSV."""
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("# config: ")
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    return json.loads(lines[0][len("# config: "):]), header, rows


def package_env() -> dict:
    """Environment for a child interpreter that imports this dqc1sim."""
    src = str(Path(dqc1sim.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
