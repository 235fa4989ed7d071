"""One shrunken pass of the benchmark's large-register workload.

perfbench/large_register.py drives the library API: it reads a circuit's
size through len(circuit.gates) and circuit.n_qubits and calls propagate
with SignedPauliString.z_on, besides the dense DQC1 functions. Running the
pass here, checked by the workload's own oracles, makes a change to that
API fail these tests and not only the benchmark's suite.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's workloads and large_register modules, imported afresh;
    they import each other and the benchmark's oracles by bare name, so their
    directory goes on sys.path."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("workloads", "large_register"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module("workloads"), importlib.import_module("large_register")


def test_shrunken_large_register_pass(bench, tmp_path):
    workloads, large_register = bench

    class SmallLargeRegister(workloads.LargeRegister):
        max_dense_n = 4
        max_discord_n = 2
        json_n = 3
        clifford_qubits = 50
        clifford_gates = 400

    workload = SmallLargeRegister(101, tmp_path)
    result = large_register.run_pass(tmp_path)
    assert workload.check(json.dumps(result, sort_keys=True)) == []
    assert (result["clifford"]["n_qubits"], result["clifford"]["n_gates"]) == (50, workload.n_gates)


# Traced names that no longer exist in dqc1sim and that the benchmark still
# lists; a benchmark change deletes them. No other traced name may go.
STALE_TARGETS = {"qmath.vn_entropy", "qmath.partial_trace",
                 "correlations.minimize", "correlations.mutual_information"}


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    tracer = importlib.import_module("spans").Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert set(tracer.missing) <= STALE_TARGETS
