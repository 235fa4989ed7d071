"""Signed-Pauli propagation through Clifford circuits.

Clifford gates map Pauli strings to Pauli strings under conjugation, so a
DQC1 instance whose whole circuit is Clifford reduces to tracking a single
signed Pauli string: the output state is (1/2^(n+1)) (I + alpha W Z_0 W+),
which is diagonal in a product basis and therefore carries no discord.

Strings are stored as X/Z bit vectors plus a sign, giving O(1) updates per
gate; conjugating a Hermitian Pauli by a Clifford keeps the phase in {+1, -1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmath import DensityMatrix, PAULIS, _trusted_state, check_range
from .serialize import json_int, json_list
from . import correlations

GATE_ARITY = {"H": 1, "S": 1, "X": 1, "Z": 1, "CZ": 2, "CNOT": 2}
# verify-clifford needs about 1.2 KB per qubit (149 MB peak RSS at this
# bound); 10x the largest circuit the benchmark runs.
MAX_QUBITS = 100_000

_LABEL_TO_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_XZ_TO_LABEL = {v: k for k, v in _LABEL_TO_XZ.items()}

# Local rotations (applied left to right) taking each Pauli to I or Z.
_DIAGONALIZING_ROTATION = {"I": (), "Z": (), "X": ("H",), "Y": ("Sdg", "H")}


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple[int, ...]

    def __post_init__(self):
        if self.name not in GATE_ARITY:
            raise ValueError(f"unknown gate {self.name!r}")
        qubits = tuple(int(q) for q in self.qubits)
        if len(qubits) != GATE_ARITY[self.name]:
            raise ValueError(f"{self.name} takes {GATE_ARITY[self.name]} qubit(s), got {qubits}")
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"{self.name} qubits must be distinct, got {qubits}")
        object.__setattr__(self, "qubits", qubits)


@dataclass(frozen=True)
class SignedPauliString:
    """Sign in {+1, -1} plus one of I, X, Y, Z per qubit (qubit 0 first)."""

    phase: int
    labels: str

    def __post_init__(self):
        if self.phase not in (1, -1):
            raise ValueError(f"phase must be +1 or -1, got {self.phase}")
        if not self.labels or any(c not in "IXYZ" for c in self.labels):
            raise ValueError(f"labels must be a nonempty string over IXYZ, got {self.labels!r}")

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


@dataclass(frozen=True)
class CliffordCircuit:
    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        if self.n_qubits > MAX_QUBITS:
            raise ValueError(f"n_qubits must be <= {MAX_QUBITS}, got {self.n_qubits}")
        gates = tuple(self.gates)
        for i, g in enumerate(gates):
            if any(not 0 <= q < self.n_qubits for q in g.qubits):
                raise ValueError(
                    f"gate {i} ({g.name} on {g.qubits}) out of range for {self.n_qubits} qubits"
                )
        object.__setattr__(self, "gates", gates)


def circuit_from_json(obj: dict) -> CliffordCircuit:
    if not isinstance(obj, dict) or "n" not in obj or "gates" not in obj:
        raise ValueError("circuit JSON must be an object with 'n' and 'gates'")
    n = json_int(obj["n"], "n")
    gates = []
    for i, item in enumerate(json_list(obj["gates"], "gates")):
        try:
            name, q = item["g"], item["q"]
            qubits = tuple(q) if isinstance(q, list) else (q,)
            for k in qubits:
                json_int(k, "qubit index")
            gates.append(Gate(name, qubits))
        except (TypeError, KeyError, ValueError) as exc:
            raise ValueError(f"bad gate at index {i}: {exc}") from None
    return CliffordCircuit(n, tuple(gates))


def _apply_gate_bits(name: str, qubits: tuple[int, ...], x: list, z: list) -> int:
    """Update (x, z) bit vectors in place; return the sign-flip bit."""
    if name == "H":
        q = qubits[0]
        flip = x[q] & z[q]
        x[q], z[q] = z[q], x[q]
        return flip
    if name == "S":
        q = qubits[0]
        flip = x[q] & z[q]
        z[q] ^= x[q]
        return flip
    if name == "X":
        return z[qubits[0]]
    if name == "Z":
        return x[qubits[0]]
    if name == "CNOT":
        c, t = qubits
        flip = x[c] & z[t] & (x[t] ^ z[c] ^ 1)
        x[t] ^= x[c]
        z[c] ^= z[t]
        return flip
    if name == "CZ":
        a, b = qubits
        flip = x[a] & x[b] & (z[a] ^ z[b])
        z[a] ^= x[b]
        z[b] ^= x[a]
        return flip
    raise ValueError(f"unknown gate {name!r}")


def propagate(circuit: CliffordCircuit, p: SignedPauliString) -> SignedPauliString:
    """W P W+ for the circuit's unitary W, conjugating by one gate at a time
    (first gate first) on the X/Z bits of the string."""
    if circuit.n_qubits != p.n_qubits:
        raise ValueError(
            f"circuit acts on {circuit.n_qubits} qubits but string has {p.n_qubits}"
        )
    x = [_LABEL_TO_XZ[c][0] for c in p.labels]
    z = [_LABEL_TO_XZ[c][1] for c in p.labels]
    sign = 0
    for g in circuit.gates:
        sign ^= _apply_gate_bits(g.name, g.qubits, x, z)
    labels = "".join(_XZ_TO_LABEL[(xi, zi)] for xi, zi in zip(x, z))
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


_BASIS_VECTORS = {
    "I": (np.array([1.0, 0.0]), np.array([0.0, 1.0])),
    "Z": (np.array([1.0, 0.0]), np.array([0.0, 1.0])),
    "X": (np.array([1.0, 1.0]) / np.sqrt(2.0), np.array([1.0, -1.0]) / np.sqrt(2.0)),
    "Y": (np.array([1.0, 1.0j]) / np.sqrt(2.0), np.array([1.0, -1.0j]) / np.sqrt(2.0)),
}


def _clifford_output_state(out: SignedPauliString) -> DensityMatrix:
    """(I + P)/d for the propagated string P: a Hermitian Pauli has
    eigenvalues +-1 and zero trace, so this is a valid state by construction."""
    dim = 2**out.n_qubits
    return _trusted_state(
        (np.eye(dim) + pauli_matrix(out)) / dim, (1, out.n_qubits - 1)
    )


def _register_discord_certificate(rho: DensityMatrix, out: SignedPauliString) -> float:
    """Upper bound on the register-side discord via the diagonalizing basis.

    Measuring the register in the product basis that diagonalizes the
    propagated Pauli string attains J = I for these states; since I - J is
    nonnegative for every measurement, the returned gap bounds the discord
    from above.
    """
    n = out.n_qubits - 1
    h_c, h_r, h_cr = correlations._entropies(rho)
    info = h_c + h_r - h_cr
    t = rho.entries.reshape(2, 2**n, 2, 2**n)
    blocks = []
    for k in range(2**n):
        vec = np.array([1.0], dtype=complex)
        for i, lab in enumerate(out.labels[1:]):
            vec = np.kron(vec, _BASIS_VECTORS[lab][(k >> (n - 1 - i)) & 1])
        blocks.append(np.einsum("s,asbr,r->ab", vec.conj(), t, vec))
    cond = correlations._weighted_entropy(np.linalg.eigvalsh(np.stack(blocks)))
    return info - (h_c - float(cond.sum()))


def verify_zero_discord(circuit: CliffordCircuit) -> dict:
    """Structural zero-discord report for a Clifford DQC1 circuit.

    Reports the propagated Pauli string and the per-qubit local rotations
    that diagonalize the output state in a product basis. For up to 4 qubits
    the output state is also built densely and both discords are checked
    numerically: the control side by full minimization, the register side by
    full minimization when the register is a single qubit and by the
    diagonalizing-basis certificate otherwise.
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
            d_register = _register_discord_certificate(rho, out)
            method = "diagonalizing-basis certificate"
        report["dense_check"] = {
            "discord_measure_control": d_control,
            "discord_measure_register": d_register,
            "register_method": method,
            "threshold": 1e-6,
        }
        report["verified"] = bool(d_control < 1e-6 and d_register < 1e-6)
    return report
