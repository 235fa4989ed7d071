"""Signed-Pauli propagation through Clifford circuits.

Clifford gates map Pauli strings to Pauli strings under conjugation, so a
DQC1 instance whose whole circuit is Clifford reduces to tracking a single
signed Pauli string: the output state is (1/2^(n+1)) (I + alpha W Z_0 W+),
which is diagonal in a product basis and therefore carries no discord.

Circuits are gate-code and qubit arrays, read in one pass by circuit_from_json;
strings are X/Z bit vectors plus a sign, with O(1) updates per gate.
Conjugating a Hermitian Pauli by a Clifford keeps the phase in {+1, -1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .qmath import DensityMatrix, PAULI_EIGENSTATES, PAULIS, _trusted_state, check_integer, check_range
from .serialize import json_excerpt, json_int, json_list
from . import correlations

GATE_ARITY = {"H": 1, "S": 1, "X": 1, "Z": 1, "CZ": 2, "CNOT": 2}
GATE_NAMES = tuple(GATE_ARITY)
_GATES = {name: (code, GATE_ARITY[name]) for code, name in enumerate(GATE_NAMES)}
# verify-clifford needs about 1.2 KB per qubit (149 MB peak RSS at this
# bound); 10x the largest circuit the benchmark runs.
MAX_QUBITS = 100_000
# Both dense discords of a verified circuit lie below this, in bits.
ZERO_DISCORD_THRESHOLD = 1e-6

# Local rotations (applied left to right) taking each Pauli to I or Z.
_DIAGONALIZING_ROTATION = {"I": (), "Z": (), "X": ("H",), "Y": ("Sdg", "H")}


@dataclass(frozen=True)
class SignedPauliString:
    """Sign in {+1, -1} plus one of I, X, Y, Z per qubit (qubit 0 first).
    Built by z_on and propagate, both valid by construction; the
    constructor checks nothing."""

    phase: int
    labels: str

    @classmethod
    def z_on(cls, qubit: int, n_qubits: int) -> "SignedPauliString":
        labels = ["I"] * n_qubits
        labels[qubit] = "Z"
        return cls(1, "".join(labels))

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    def __str__(self) -> str:
        return ("+" if self.phase == 1 else "-") + self.labels


@dataclass(frozen=True, eq=False)
class CliffordCircuit:
    """Read-only int8 codes into GATE_NAMES and an (n_gates, 2) qubit array
    (a one-qubit gate repeats its qubit), built by circuit_from_json."""

    n_qubits: int
    gates: np.ndarray
    qubits: np.ndarray


def circuit_from_json(obj: dict) -> CliffordCircuit:
    """Read {"n": n, "gates": [{"g": name, "q": qubits}, ...]} in one pass.
    The loop checks each entry once, in this order: its shape (an object
    with a string "g" and a "q"), the type of each qubit (a list of them, or
    one), the name, the arity, distinct qubits; the first check that fails
    names the entry by its index. Then come the qubit count and the qubit
    range."""
    if not isinstance(obj, dict) or "n" not in obj or "gates" not in obj:
        raise ValueError("circuit JSON must be an object with 'n' and 'gates'")
    n = json_int(obj["n"], "n")
    items = json_list(obj["gates"], "gates")
    codes, first, second = [], [], []
    for i, item in enumerate(items):
        try:
            if not (isinstance(item, dict) and type(item.get("g")) is str and "q" in item):
                raise ValueError(
                    f'expected an object with a string "g" and a "q", got {json_excerpt(item)}'
                )
            name, q = item["g"], item["q"]
            qs = q if type(q) is list else [q]
            for k in qs:
                if type(k) is not int:  # spares good qubits the call
                    json_int(k, "qubit index")
            if name not in _GATES:
                raise ValueError(f"unknown gate {name!r}")
            code, arity = _GATES[name]
            if len(qs) != arity:
                raise ValueError(f"{name} takes {arity} qubit(s), got {tuple(qs)}")
            if arity == 2 and qs[0] == qs[1]:
                raise ValueError(f"{name} qubits must be distinct, got {tuple(qs)}")
        except ValueError as exc:
            raise ValueError(f"bad gate at index {i}: {exc}") from None
        codes.append(code)
        first.append(qs[0])
        second.append(qs[-1])
    check_integer("n_qubits", n, 1, MAX_QUBITS)
    both = first + second
    if both and not 0 <= min(both) <= max(both) < n:
        i = next(i for i, ab in enumerate(zip(first, second)) if not 0 <= min(ab) <= max(ab) < n)
        name = GATE_NAMES[codes[i]]
        qubits = (first[i], second[i])[:GATE_ARITY[name]]
        raise ValueError(f"gate {i} ({name} on {qubits}) out of range for {n} qubits")
    gates, qubits = np.array(codes, dtype=np.int8), np.array((first, second), dtype=np.int64).T
    for array in (gates, qubits):
        array.setflags(write=False)
    return CliffordCircuit(n, gates, qubits)


def propagate(circuit: CliffordCircuit, p: SignedPauliString) -> SignedPauliString:
    """W P W+ for the circuit's unitary W, conjugating by one gate at a time
    (first gate first) on the X/Z bits of the string."""
    if circuit.n_qubits != p.n_qubits:
        raise ValueError(f"circuit acts on {circuit.n_qubits} qubits but string has {p.n_qubits}")
    # The X and Z bits of a label: X = (1, 0), Y = (1, 1), Z = (0, 1).
    x = [int(c in "XY") for c in p.labels]
    z = [int(c in "YZ") for c in p.labels]
    sign = 0
    # Codes index GATE_NAMES: H, S, X, Z, CZ, CNOT (control a, target b).
    for g, a, b in zip(circuit.gates.tolist(), *circuit.qubits.T.tolist()):
        if g == 0:
            sign ^= x[a] & z[a]
            x[a], z[a] = z[a], x[a]
        elif g == 1:
            sign ^= x[a] & z[a]
            z[a] ^= x[a]
        elif g == 2:
            sign ^= z[a]
        elif g == 3:
            sign ^= x[a]
        elif g == 4:
            sign ^= x[a] & x[b] & (z[a] ^ z[b])
            z[a] ^= x[b]
            z[b] ^= x[a]
        else:
            sign ^= x[a] & z[b] & (x[b] ^ z[a] ^ 1)
            x[b] ^= x[a]
            z[a] ^= z[b]
    labels = "".join("IXZY"[xi + 2 * zi] for xi, zi in zip(x, z))
    return SignedPauliString(p.phase * (-1) ** sign, labels)


def pauli_matrix(p: SignedPauliString) -> np.ndarray:
    """Dense matrix of a signed Pauli string."""
    m = np.array([[p.phase]], dtype=complex)
    for c in p.labels:
        m = np.kron(m, PAULIS[c])
    return m


def dqc1_clifford_expectations(circuit: CliffordCircuit, alpha: float) -> tuple[float, float]:
    """Exact control-qubit (<X>, <Y>) of a Clifford DQC1 instance.

    Propagates Z on qubit 0 through the circuit in O(gates * n); the
    expectation is alpha * sign when the propagated string is X (or Y) on
    the control and identity elsewhere, and 0 otherwise.
    """
    check_range("alpha", alpha, 0.0, 1.0)
    out = propagate(circuit, SignedPauliString.z_on(0, circuit.n_qubits))
    rest = "I" * (circuit.n_qubits - 1)
    x = alpha * out.phase if out.labels == "X" + rest else 0.0
    y = alpha * out.phase if out.labels == "Y" + rest else 0.0
    return x, y


def _clifford_output_state(out: SignedPauliString) -> DensityMatrix:
    """(I + P)/d for the propagated string P: a Hermitian Pauli has
    eigenvalues +-1 and zero trace, so this is a valid state by construction."""
    dim = 2**out.n_qubits
    return _trusted_state(
        (np.eye(dim) + pauli_matrix(out)) / dim, (1, out.n_qubits - 1)
    )


def verify_zero_discord(circuit: CliffordCircuit) -> dict:
    """Structural zero-discord report for a Clifford DQC1 circuit.

    Reports the propagated Pauli string and the per-qubit local rotations
    that diagonalize the output state in a product basis. For up to 4 qubits
    the output state is also built densely and both discords are checked
    numerically: the control side by full minimization (correlations.discord),
    and the register side too with a one-qubit register; otherwise by
    correlations.basis_discord in the product eigenbasis of the propagated
    string, where J = I, so the gap bounds the discord from above.
    """
    out = propagate(circuit, SignedPauliString.z_on(0, circuit.n_qubits))
    rotations = []
    for i, lab in enumerate(out.labels):
        rotations.append(
            {
                "qubit": i,
                "pauli": lab,
                "rotation": list(_DIAGONALIZING_ROTATION[lab]),
                "maps_to": "I" if lab == "I" else "Z",
            }
        )
    report = {
        "n_qubits": circuit.n_qubits,
        "n_gates": len(circuit.gates),
        "input_pauli": str(SignedPauliString.z_on(0, circuit.n_qubits)),
        "propagated_pauli": str(out),
        "local_rotations": rotations,
        "locally_diagonal_labels": "".join(r["maps_to"] for r in rotations),
        "verified": True,
    }
    if 2 <= circuit.n_qubits <= 4:
        rho = _clifford_output_state(out)
        d_control = correlations.discord(rho, correlations.MEASURE_CONTROL)
        if circuit.n_qubits == 2:
            d_register = correlations.discord(rho, correlations.MEASURE_REGISTER)
            method = "full minimization"
        else:
            # Row k is the product eigenvector of outcome k, register qubit
            # 0 slowest; any basis diagonalizes I, so I takes Z's.
            basis = reduce(np.kron, [np.array(PAULI_EIGENSTATES["Z" if lab == "I" else lab])
                                     for lab in out.labels[1:]])
            d_register = correlations.basis_discord(rho, basis)
            method = "diagonalizing-basis certificate"
        report["dense_check"] = {
            "discord_measure_control": d_control,
            "discord_measure_register": d_register,
            "register_method": method,
            "threshold": ZERO_DISCORD_THRESHOLD,
        }
        report["verified"] = bool(
            d_control < ZERO_DISCORD_THRESHOLD and d_register < ZERO_DISCORD_THRESHOLD)
    return report
