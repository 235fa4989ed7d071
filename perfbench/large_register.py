"""One pass of the large-register workload through dqc1sim's public API.

    python perfbench/large_register.py INPUT_DIR OUT_JSON

INPUT_DIR holds what ``workloads.LargeRegister`` generated: ``spec.json``,
one ``u<n>.npy`` Haar unitary per register size, the n = 9 unitary as
``unitary.json`` and the wide Clifford circuit as ``circuit.json``. The
pass writes compact results to OUT_JSON; the parent checks them against
its own oracles. dqc1sim must be importable (the benchmark puts the
checkout's ``src`` on PYTHONPATH).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import dqc1sim
from dqc1sim import clifford, serialize

import oracles


def run_pass(inputs: Path) -> dict:
    # Every call goes through a module attribute, so the traced run's
    # wrappers see it.
    spec = json.loads((inputs / "spec.json").read_text())
    alpha, shots = spec["alpha"], spec["shots"]
    dense, states = [], {}
    for n in range(1, spec["max_dense_n"] + 1):
        m = np.load(inputs / f"u{n}.npy")
        u = dqc1sim.UnitaryMatrix(n, m)
        rho = dqc1sim.output_state(u, alpha)
        ctrl = dqc1sim.reduced_control(u, alpha)
        x, y = dqc1sim.exact_expectations(u, alpha)
        est = dqc1sim.estimate_trace(u, alpha, shots, spec["seed"] + n)
        dense.append({
            "n": n,
            "exact": [x, y],
            "estimate": [est.real, est.imag],
            "reduced_control": [[c.real, c.imag] for c in ctrl.entries.ravel().tolist()],
            "state_error": oracles.dqc1_state_error(rho.entries, m, alpha),
        })
        if n <= spec["max_discord_n"]:
            states[n] = rho
        if n == spec["json_n"]:
            json_matrix = m
    discords = [
        {"n": n, "value": dqc1sim.discord(rho, dqc1sim.MEASURE_CONTROL)}
        for n, rho in sorted(states.items())
    ]
    loaded = serialize.unitary_from_json(serialize.load_json(inputs / "unitary.json"))
    circuit = clifford.circuit_from_json(serialize.load_json(inputs / "circuit.json"))
    out = dqc1sim.propagate(circuit, dqc1sim.SignedPauliString.z_on(0, circuit.n_qubits))
    x, y = dqc1sim.dqc1_clifford_expectations(circuit, alpha)
    return {
        "dense": dense,
        "discord": discords,
        "unitary_json": {
            "n": loaded.n,
            "max_abs_diff": float(np.max(np.abs(loaded.entries - json_matrix))),
        },
        "clifford": {
            "n_qubits": circuit.n_qubits,
            "n_gates": len(circuit.gates),
            "phase": out.phase,
            "head": out.labels[0],
            "rest_identity": set(out.labels[1:]) == {"I"},
            "expectations": [x, y],
        },
    }


def main(argv=None) -> int:
    inputs, out = (argv if argv is not None else sys.argv[1:])
    Path(out).write_text(json.dumps(run_pass(Path(inputs)), sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
