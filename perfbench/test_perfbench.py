"""Tests of the benchmark itself: python3 -m pytest perfbench

They run shrunken copies of the workloads in-process, so the whole file
takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import catalog  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class SmallZSweep(workloads.ZSweepCorr):
    steps = 5


class SmallCliMix(workloads.CliMix):
    sweep_steps = 5


class SmallLargeRegister(workloads.LargeRegister):
    max_dense_n = 4
    max_discord_n = 2
    json_n = 3
    clifford_qubits = 50
    clifford_gates = 400


SMALL = {"zsweep-corr": SmallZSweep, "cli-mix": SmallCliMix, "large-register": SmallLargeRegister}


def test_benchmark_json_lists_what_the_code_measures():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(catalog.PREDICTIONS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(SMALL))
@pytest.mark.parametrize("trace", [0, 1])
def test_short_pass_emits_every_metric_with_its_unit(name, trace, tmp_path):
    workload = SMALL[name](7, tmp_path)
    checker, facts = run.Checker(), {}
    measure = run.traced_run if trace else run.untraced_run
    values = measure(workload, run._env(), 0, checker, facts)
    declared = run._declared_metrics(bool(trace))
    assert set(values) == set(declared)
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values())
    assert checker.failures == [] and checker.attempted >= 1
    if trace:
        assert values["bench.traced_wall_s"] > 0
        assert values["import.total_s"] >= values["import.numpy_s"] + values["import.scipy_s"]
    else:
        assert all(v > 0 for v in values.values())


def _single_pass(workload):
    checker = run.Checker()
    outputs = {}
    for inv in workload.invocations():
        returncode, error = run._call(inv)
        assert returncode == 0, error
        outputs[inv.key] = (inv, inv.out.read_text())
        checker.record(inv, returncode, error)
    assert checker.failures == []
    return outputs


def test_flipped_csv_digit_is_a_failure(tmp_path):
    import dqc1sim.cli  # noqa: F401

    inv, text = _single_pass(SmallZSweep(3, tmp_path))["sweep"]
    header, row = text.splitlines()[1:3]
    column = header.split(",").index("re_exact")
    cells = row.split(",")
    cells[column] = cells[column][:-1] + str((int(cells[column][-1]) + 1) % 10)
    corrupted = text.replace(row, ",".join(cells))
    assert inv.check(corrupted)
    checker = run.Checker()
    inv.out.write_text(corrupted)
    checker.record(inv, 0)
    assert (checker.attempted, checker.failed) == (1, 1)


def test_shifted_discord_is_a_failure(tmp_path):
    import dqc1sim.cli  # noqa: F401

    workload = SmallCliMix(5, tmp_path)
    inv, text = _single_pass(workload)["discord"]
    report = json.loads(text)
    report["discord_rc"] += 1e-3  # above the brute-force grid bound
    assert any("discord_rc" in f for f in inv.check(json.dumps(report)))
    sweep_inv, sweep_text = _single_pass(SmallZSweep(5, tmp_path))["sweep"]
    lines = sweep_text.splitlines()
    column = lines[1].split(",").index("discord_rc")
    cells = lines[3].split(",")
    cells[column] = repr(float(cells[column]) + 1e-3)
    lines[3] = ",".join(cells)
    assert sweep_inv.check("\n".join(lines) + "\n")


def test_rerun_that_differs_is_a_failure_not_a_crash(tmp_path):
    import dqc1sim.cli  # noqa: F401

    workload = SmallCliMix(5, tmp_path)
    checker = run.Checker()
    inv = workload.invocations()[0]
    for rerun in range(2):
        returncode, _ = run._call(inv)
        if rerun:
            inv.out.write_text(inv.out.read_text().replace("\n", "\r\n"))
        checker.record(inv, returncode)
    assert (checker.attempted, checker.failed) == (2, 1)
    assert "differs from the first pass" in checker.failures[0]


def test_traced_run_tolerates_a_missing_name(tmp_path):
    import dqc1sim.cli  # noqa: F401

    targets = spans.TARGETS + (
        spans.Target("cli.gone", "cli", "cli", "no_such_function"),
        spans.Target("moved.module", "cli", "no_such_module", "main"),
        spans.Target("qmath.Gone", "qmath", "qmath", "NoSuchClass.__post_init__"),
    )
    tracer = spans.Tracer(targets)
    checker = run.Checker()
    wall, metrics = run._pass(SmallCliMix(2, tmp_path), checker, tracer)
    assert checker.failures == []
    assert tracer.missing == ["cli.gone", "moved.module", "qmath.Gone"]
    assert metrics["cli.main_s"] > 0 and metrics["bench.traced_wall_s"] == wall
    assert not hasattr(dqc1sim.cli.main, "__wrapped__")  # wrappers removed after the pass


def test_oracles_on_known_states():
    bell = np.zeros((4, 4), dtype=complex)
    bell[np.ix_([0, 3], [0, 3])] = 0.5
    assert oracles.concurrence(bell) == pytest.approx(1.0, abs=1e-12)
    assert oracles.grid_discord(bell, 2, 0) == pytest.approx(1.0, abs=1e-9)
    classical = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    assert oracles.grid_discord(classical, 2, 1) == pytest.approx(0.0, abs=1e-12)
    rho = oracles.dqc1_state(oracles.z_theta(0.0), 1.0)
    assert oracles.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-7)
    h, s = {"g": "H", "q": 0}, {"g": "S", "q": 0}
    w = oracles.circuit_unitary(2, [h, s, {"g": "CNOT", "q": [0, 1]}])
    zi = oracles.pauli_string_matrix("ZI")
    assert np.allclose(w @ zi @ w.conj().T, oracles.pauli_string_matrix("YX"))


def test_tail_is_the_highest_percentile_with_ten_beyond():
    values = list(range(28))
    assert run._tail(values) == (17, 100.0 * 18 / 28)
    assert run._tail([3.0, 1.0]) == (3.0, 100.0)


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
