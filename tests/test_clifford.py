import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dqc1sim import (
    MEASURE_REGISTER,
    SignedPauliString,
    UnitaryMatrix,
    discord,
    dqc1_clifford_expectations,
    exact_expectations,
    propagate,
    verify_zero_discord,
)
from dqc1sim.clifford import GATE_ARITY, GATE_NAMES, circuit_from_json
from dqc1sim.correlations import basis_discord
from dqc1sim.qmath import PAULI_EIGENSTATES

from helpers import (
    controlled_pauli_circuit,
    random_clifford_circuit,
    random_pauli_string,
    read_circuit,
    reference_circuit,
)
from reference_oracles import GATE_ARITY as ORACLE_ARITY
from reference_oracles import HADAMARD, ONE_QUBIT_GATES, circuit_unitary, dense_pauli, gate_unitary

seeds = st.integers(min_value=0, max_value=2**32 - 1)
CONTROLLED_Z = {"n": 2, "gates": [{"g": "H", "q": 0}, {"g": "CZ", "q": [0, 1]}]}


class TestSignedPauliString:
    def test_z_on(self):
        p = SignedPauliString.z_on(0, 3)
        assert p.labels == "ZII" and p.phase == 1
        assert str(p) == "+ZII"


def conjugate(gate: dict, p: SignedPauliString) -> SignedPauliString:
    """g P g+ through propagate on a one-gate circuit."""
    return propagate(read_circuit({"n": p.n_qubits, "gates": [gate]}), p)


def matrix_of(p: SignedPauliString) -> np.ndarray:
    return dense_pauli(p.labels, p.phase)


class TestConjugationTable:
    def test_hadamard_swaps_x_z(self):
        h = {"g": "H", "q": 0}
        assert conjugate(h, SignedPauliString(1, "Z")) == SignedPauliString(1, "X")
        assert conjugate(h, SignedPauliString(1, "X")) == SignedPauliString(1, "Z")
        assert conjugate(h, SignedPauliString(1, "Y")) == SignedPauliString(-1, "Y")

    def test_phase_gate(self):
        s = {"g": "S", "q": 0}
        assert conjugate(s, SignedPauliString(1, "X")) == SignedPauliString(1, "Y")
        assert conjugate(s, SignedPauliString(1, "Y")) == SignedPauliString(-1, "X")
        assert conjugate(s, SignedPauliString(1, "Z")) == SignedPauliString(1, "Z")

    def test_cz_spreads_x(self):
        cz = {"g": "CZ", "q": [0, 1]}
        assert conjugate(cz, SignedPauliString(1, "XI")) == SignedPauliString(1, "XZ")

    def test_every_gate_matches_dense(self):
        # exhaustive one- and two-qubit conjugation versus dense matrices,
        # over every gate the library knows
        assert GATE_ARITY == ORACLE_ARITY
        singles = [{"g": name, "q": 0} for name in ONE_QUBIT_GATES]
        for gate in singles:
            for lab in "IXYZ":
                for phase in (1, -1):
                    p = SignedPauliString(phase, lab)
                    out = conjugate(gate, p)
                    g = gate_unitary(gate, 1)
                    expected = g @ matrix_of(p) @ g.conj().T
                    assert np.allclose(expected, matrix_of(out), atol=1e-12)
        for gate in ({"g": "CZ", "q": [0, 1]}, {"g": "CNOT", "q": [0, 1]},
                     {"g": "CNOT", "q": [1, 0]}):
            for la in "IXYZ":
                for lb in "IXYZ":
                    p = SignedPauliString(1, la + lb)
                    out = conjugate(gate, p)
                    g = gate_unitary(gate, 2)
                    expected = g @ matrix_of(p) @ g.conj().T
                    assert np.allclose(expected, matrix_of(out), atol=1e-12)

    def test_self_inverse_gates_are_involutions(self):
        gates = [{"g": "H", "q": 0}, {"g": "X", "q": 0}, {"g": "Z", "q": 0},
                 {"g": "CZ", "q": [0, 1]}, {"g": "CNOT", "q": [0, 1]}]
        for g_index, gate in enumerate(gates):
            rng = np.random.default_rng(1000 + g_index)
            for _ in range(20):
                p = random_pauli_string(rng, 2)
                assert conjugate(gate, conjugate(gate, p)) == p

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            conjugate({"g": "H", "q": 3}, SignedPauliString(1, "XZ"))


class TestPropagate:
    def test_empty_circuit(self):
        p = SignedPauliString(1, "ZI")
        assert propagate(read_circuit({"n": 2, "gates": []}), p) == p

    def test_single_hadamard(self):
        circuit = read_circuit({"n": 2, "gates": [{"g": "H", "q": 0}]})
        assert propagate(circuit, SignedPauliString(1, "ZI")) == SignedPauliString(1, "XI")

    def test_controlled_z_endpoint(self):
        circuit = read_circuit(CONTROLLED_Z)
        assert propagate(circuit, SignedPauliString(1, "ZI")) == SignedPauliString(1, "XZ")

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="qubits"):
            propagate(read_circuit({"n": 3, "gates": []}), SignedPauliString(1, "ZI"))

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_conjugation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        obj = random_clifford_circuit(n, int(rng.integers(0, 25)), rng)
        p = random_pauli_string(rng, n)
        out = propagate(read_circuit(obj), p)
        w = circuit_unitary(obj)
        assert np.allclose(w @ matrix_of(p) @ w.conj().T, matrix_of(out), atol=1e-12)

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_stays_in_pauli_group(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        circuit = read_circuit(random_clifford_circuit(n, 30, rng))
        out = propagate(circuit, random_pauli_string(rng, n))
        assert out.phase in (1, -1)
        assert set(out.labels) <= set("IXYZ")

    def test_linear_runtime_scaling(self):
        # 10x the gates should cost no more than ~12x the time at n = 50
        rng = np.random.default_rng(77)
        small = read_circuit(random_clifford_circuit(50, 2000, rng))
        large = read_circuit(random_clifford_circuit(50, 20000, rng))
        p = SignedPauliString.z_on(0, 50)

        # interleaved, so that a change in host load hits both sizes alike
        t_small, t_large = [], []
        for _ in range(7):
            for circuit, times in ((small, t_small), (large, t_large)):
                t0 = time.perf_counter()
                propagate(circuit, p)
                times.append(time.perf_counter() - t0)
        assert min(t_large) <= 12.0 * min(t_small) + 1e-3


class TestCliffordExpectations:
    def test_identity_register(self):
        circuit = read_circuit({"n": 2, "gates": [{"g": "H", "q": 0}]})
        assert dqc1_clifford_expectations(circuit, 0.7) == (0.7, 0.0)

    def test_controlled_z_endpoint(self):
        circuit = read_circuit(CONTROLLED_Z)
        assert dqc1_clifford_expectations(circuit, 1.0) == (0.0, 0.0)

    def test_two_controlled_z(self):
        circuit = read_circuit({"n": 3, "gates": [{"g": "H", "q": 0}, {"g": "CZ", "q": [0, 1]},
                                                  {"g": "CZ", "q": [0, 2]}]})
        assert dqc1_clifford_expectations(circuit, 1.0) == (0.0, 0.0)

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_matches_dense_simulator(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        labels = "".join("IXYZ"[int(k)] for k in rng.integers(0, 4, n))
        k = int(rng.integers(0, 4))
        alpha = float(rng.uniform(0.0, 1.0))
        circuit = read_circuit(controlled_pauli_circuit(labels, k))
        u = UnitaryMatrix(n, (1j) ** k * dense_pauli(labels))
        fast = dqc1_clifford_expectations(circuit, alpha)
        exact = exact_expectations(u, alpha)
        assert abs(fast[0] - exact[0]) < 1e-12
        assert abs(fast[1] - exact[1]) < 1e-12


class TestVerifyZeroDiscord:
    def test_controlled_z_report(self):
        report = verify_zero_discord(read_circuit(CONTROLLED_Z))
        assert report["propagated_pauli"] == "+XZ"
        rot = {r["qubit"]: r for r in report["local_rotations"]}
        assert rot[0]["pauli"] == "X" and rot[0]["rotation"] == ["H"]
        assert rot[1]["pauli"] == "Z" and rot[1]["maps_to"] == "Z"
        assert report["locally_diagonal_labels"] == "ZZ"
        dense = report["dense_check"]
        assert dense["discord_measure_control"] < 1e-6
        assert dense["discord_measure_register"] < 1e-6
        assert report["verified"]

    def test_empty_circuit_trivially_diagonal(self):
        report = verify_zero_discord(read_circuit({"n": 2, "gates": []}))
        assert report["propagated_pauli"] == "+ZI"
        assert report["locally_diagonal_labels"] == "ZI"
        assert report["verified"]

    @given(seeds)
    @settings(max_examples=8, deadline=None)
    def test_random_circuits_have_no_discord(self, seed):
        rng = np.random.default_rng(seed)
        circuit = read_circuit(random_clifford_circuit(4, 20, rng))
        report = verify_zero_discord(circuit)
        dense = report["dense_check"]
        assert dense["discord_measure_control"] < 1e-6
        assert dense["discord_measure_register"] < 1e-6

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_reported_rotations_diagonalize_the_state(self, seed):
        # applying the per-qubit rotations from the report must leave the
        # dense output state diagonal in the computational basis
        gate_mats = {"H": HADAMARD, "Sdg": np.diag([1.0, -1.0j])}
        rng = np.random.default_rng(seed)
        n_qubits = int(rng.integers(2, 5))
        circuit = read_circuit(random_clifford_circuit(n_qubits, 15, rng))
        report = verify_zero_discord(circuit)
        rotation = np.array([[1.0]], dtype=complex)
        for entry in report["local_rotations"]:
            local = np.eye(2, dtype=complex)
            for gate_name in entry["rotation"]:
                local = gate_mats[gate_name] @ local
            rotation = np.kron(rotation, local)
        out = propagate(circuit, SignedPauliString.z_on(0, n_qubits))
        rho = (np.eye(2**n_qubits) + matrix_of(out)) / 2**n_qubits
        rotated = rotation @ rho @ rotation.conj().T
        off_diagonal = rotated - np.diag(np.diag(rotated))
        assert np.max(np.abs(off_diagonal)) < 1e-12

    def test_register_certificate_agrees_with_full_minimization(self):
        # for 2-qubit outputs both register-side methods are available
        rng = np.random.default_rng(5)
        from dqc1sim.clifford import _clifford_output_state

        for _ in range(10):
            circuit = read_circuit(random_clifford_circuit(2, 12, rng))
            out = propagate(circuit, SignedPauliString.z_on(0, 2))
            rho = _clifford_output_state(out)
            # the eigenbasis of the register's label; any basis for I
            register = out.labels[1]
            cert = basis_discord(rho, np.array(PAULI_EIGENSTATES["Z" if register == "I" else register]))
            full = discord(rho, MEASURE_REGISTER)
            assert cert >= full - 1e-9
            assert cert < 1e-6


class _QubitList(list):
    """Not a JSON list: the reader takes it for one qubit, as it does a tuple."""


# Reader errors word for word, as (circuit JSON, message). The first bad
# entry in index order is named first, then the qubit count, then the first
# gate out of range. The last four rows are entries the Hypothesis
# strategy below never builds.
SHAPE_ERROR = 'bad gate at index 0: expected an object with a string "g" and a "q", got '
READER_ERRORS = {
    "unknown_name": ({"n": 2, "gates": [{"g": "T", "q": 0}]},
                     "bad gate at index 0: unknown gate 'T'"),
    "one_qubit_gate_on_two": ({"n": 2, "gates": [{"g": "H", "q": [0, 1]}]},
                              "bad gate at index 0: H takes 1 qubit(s), got (0, 1)"),
    "two_qubit_gate_on_one": ({"n": 2, "gates": [{"g": "CZ", "q": 0}]},
                              "bad gate at index 0: CZ takes 2 qubit(s), got (0,)"),
    "repeated_qubit": ({"n": 2, "gates": [{"g": "CZ", "q": [1, 1]}]},
                       "bad gate at index 0: CZ qubits must be distinct, got (1, 1)"),
    "bool_qubit": ({"n": 2, "gates": [{"g": "H", "q": True}]},
                   "bad gate at index 0: qubit index must be an integer, got true"),
    "float_qubit": ({"n": 2, "gates": [{"g": "H", "q": 1.0}]},
                    "bad gate at index 0: qubit index must be an integer, got 1.0"),
    "missing_name": ({"n": 2, "gates": [{"q": 0}]}, SHAPE_ERROR + '{"q": 0}'),
    "gate_not_an_object": ({"n": 2, "gates": [3]}, SHAPE_ERROR + "3"),
    "list_name": ({"n": 2, "gates": [{"g": ["H"], "q": 0}]},
                  SHAPE_ERROR + '{"g": ["H"], "q": 0}'),
    "qubit_above_range": ({"n": 2, "gates": [{"g": "H", "q": 5}]},
                          "gate 0 (H on (5,)) out of range for 2 qubits"),
    "negative_qubit": ({"n": 2, "gates": [{"g": "CNOT", "q": [0, -1]}]},
                       "gate 0 (CNOT on (0, -1)) out of range for 2 qubits"),
    "gate_error_before_range": (
        {"n": 2, "gates": [{"g": "H", "q": 5}, {"g": "CZ", "q": [1, 1]}]},
        "bad gate at index 1: CZ qubits must be distinct, got (1, 1)"),
    "no_qubits": ({"n": 0, "gates": [{"g": "H", "q": 0}]}, "n_qubits must be >= 1, got 0"),
    "gate_error_before_qubit_count": ({"n": 0, "gates": [{"g": "T", "q": 0}]},
                                      "bad gate at index 0: unknown gate 'T'"),
    "empty_qubit_list": ({"n": 2, "gates": [{"g": "H", "q": []}]},
                         "bad gate at index 0: H takes 1 qubit(s), got ()"),
    "qubit_beyond_int64": ({"n": 2, "gates": [{"g": "X", "q": 10**30}]},
                           f"gate 0 (X on ({10**30},)) out of range for 2 qubits"),
    "list_subclass_qubits": ({"n": 2, "gates": [{"g": "CZ", "q": _QubitList([0, 1])}]},
                             "bad gate at index 0: qubit index must be an integer, got [0, 1]"),
    "missing_qubits": ({"n": 2, "gates": [{"g": "H"}]}, SHAPE_ERROR + '{"g": "H"}'),
    "null_name": ({"n": 2, "gates": [{"g": None, "q": 0}]},
                  SHAPE_ERROR + '{"g": null, "q": 0}'),
    "object_name": ({"n": 2, "gates": [{"g": {}, "q": 0}]},
                    SHAPE_ERROR + '{"g": {}, "q": 0}'),
    "null_entry": ({"n": 2, "gates": [None]}, SHAPE_ERROR + "null"),
    "list_entry": ({"n": 2, "gates": [{"g": "H", "q": 0}, ["H", 0]]},
                   SHAPE_ERROR.replace("index 0", "index 1") + '["H", 0]'),
    "number_name": ({"n": 2, "gates": [{"g": 3, "q": 0}]},
                    SHAPE_ERROR + '{"g": 3, "q": 0}'),
    "long_entry_excerpt": ({"n": 2, "gates": [{"q": 0, "pad": "x" * 100}]},
                           SHAPE_ERROR + '{"q": 0, "pad": "xxxxxxxxxxxxxxxxxxxxxxx'),
}

# Near-valid circuit JSON, so that every check of the reader is reached.
_qubit = st.integers(-1, 4) | st.sampled_from([True, 1.0, None, "0", 10**30])
_gate_json = st.fixed_dictionaries({
    "g": st.sampled_from(GATE_NAMES + ("T",)),
    "q": _qubit | st.lists(_qubit, max_size=3),
})
_circuit_json = st.fixed_dictionaries({
    "n": st.integers(0, 4) | st.just(100_001),
    "gates": st.lists(_gate_json | st.sampled_from([3, {"q": 0}, None, ["H", 0]]), max_size=6),
})


class ListSubclass(list):
    """A list that the reader, like JSON, does not take for a qubit list."""


class TestCircuitJson:
    def test_round_trip(self):
        obj = {"n": 3, "gates": [{"g": "H", "q": 0}, {"g": "CZ", "q": [0, 1]},
                                 {"g": "CNOT", "q": [2, 1]}, {"g": "S", "q": 2},
                                 {"g": "X", "q": 1}, {"g": "Z", "q": 0}]}
        circuit = circuit_from_json(obj)
        assert circuit.n_qubits == 3 and len(circuit.gates) == 6
        assert circuit.gates.dtype == np.int8
        assert circuit.qubits.tolist() == [[0, 0], [0, 1], [2, 1], [2, 2], [1, 1], [0, 0]]
        for array in (circuit.gates, circuit.qubits):
            assert not array.flags.writeable
        gates = [{"g": GATE_NAMES[g], "q": [a, b] if GATE_ARITY[GATE_NAMES[g]] == 2 else a}
                 for g, (a, b) in zip(circuit.gates.tolist(), circuit.qubits.tolist())]
        assert {"n": circuit.n_qubits, "gates": gates} == obj

    def test_parse_error_names_gate_index(self):
        obj = {"n": 2, "gates": [{"g": "H", "q": 0}, {"g": "WOBBLE", "q": 1}]}
        with pytest.raises(ValueError, match="index 1"):
            circuit_from_json(obj)

    def test_gate_validation(self):
        for gate, message in (({"g": "CZ", "q": [1, 1]}, "distinct"),
                              ({"g": "T", "q": 0}, "unknown gate"),
                              ({"g": "H", "q": 5}, "out of range")):
            with pytest.raises(ValueError, match=message):
                circuit_from_json({"n": 2, "gates": [gate]})

    def test_empty_circuit(self):
        circuit = circuit_from_json({"n": 2, "gates": []})
        assert circuit.gates.shape == (0,) and circuit.qubits.shape == (0, 2)

    def test_one_element_qubit_list(self):
        circuit = circuit_from_json({"n": 2, "gates": [{"g": "H", "q": [0]}]})
        assert circuit.qubits.tolist() == [[0, 0]]

    @pytest.mark.parametrize("case", list(READER_ERRORS))
    def test_pinned_error(self, case):
        obj, message = READER_ERRORS[case]
        with pytest.raises(ValueError) as exc:
            circuit_from_json(obj)
        assert str(exc.value) == message

    @given(seed=seeds, n_qubits=st.integers(1, 6), n_gates=st.integers(0, 30))
    @settings(max_examples=40, deadline=None)
    def test_arrays_match_the_gate_list(self, seed, n_qubits, n_gates):
        obj = random_clifford_circuit(n_qubits, n_gates, seed)
        circuit = read_circuit(obj)
        assert circuit.n_qubits == n_qubits and len(circuit.gates) == n_gates
        for gate, code, (a, b) in zip(obj["gates"], circuit.gates, circuit.qubits.tolist()):
            assert GATE_NAMES[code] == gate["g"]
            assert [a, b] == (gate["q"] if GATE_ARITY[gate["g"]] == 2 else [gate["q"]] * 2)

    @given(obj=_circuit_json)
    @example(obj={"n": 2, "gates": [{"g": "CZ", "q": ListSubclass([0, 1])}]})
    @settings(max_examples=300, deadline=None)
    def test_matches_the_reference_reader(self, obj):
        try:
            n, gates = reference_circuit(obj)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                circuit_from_json(obj)
            assert str(got.value) == str(exc)
        else:
            circuit = circuit_from_json(obj)
            assert circuit.n_qubits == n
            read = [(GATE_NAMES[g], (a, b)[:GATE_ARITY[GATE_NAMES[g]]])
                    for g, (a, b) in zip(circuit.gates.tolist(), circuit.qubits.tolist())]
            assert read == gates
