"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; stated runtime budgets are asserted alongside the tolerances.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from dqc1sim import (
    DensityMatrix,
    MEASURE_CONTROL,
    MEASURE_REGISTER,
    UnitaryMatrix,
    correlation_report,
    discord,
    dqc1_clifford_expectations,
    exact_expectations,
    estimate_trace,
    output_state,
    propagate,
    reconstruct,
    shots_required,
    simulate_counts,
    tangle,
    verify_zero_discord,
    z_theta,
)
from dqc1sim.cli import SweepConfig, main as cli_main, sweep_columns
from dqc1sim.tomography import linear_estimate, pair_frequencies

from helpers import (
    bell_state,
    controlled_pauli_circuit,
    disk_unitary,
    noiseless_run,
    random_clifford_circuit,
    random_density_matrix,
    random_pauli_string,
    read_circuit,
    save_json,
    unitary_to_json,
)
from reference_oracles import circuit_unitary, dense_pauli, witness_matrix


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {number} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s"
    )
    print(f"[acceptance] criterion {number} ({description}): PASS ({elapsed:.1f}s)")


def _exact_sweep(alpha: float) -> dict[str, list]:
    config = SweepConfig(
        theta_min=-np.pi, theta_max=np.pi, steps=41, alpha=alpha,
        shots=0, seed=0, outputs=("trace",), mean_counts=1e4, mode="binomial",
    )
    return sweep_columns(config)


def test_criterion_1_exact_trace_curves():
    with criterion(1, "exact trace curves match (1+cos)/2 and sin/2", 1.0):
        sweep = _exact_sweep(1.0)
        for theta, re_exact, im_exact in zip(sweep["theta"], sweep["re_exact"], sweep["im_exact"]):
            assert abs(re_exact - (1 + np.cos(theta)) / 2) <= 1e-12
            assert abs(im_exact - np.sin(theta) / 2) <= 1e-12


def test_criterion_2_purity_scaling():
    with criterion(2, "alpha scaling exact and 2x RMS at alpha=0.5", 60.0):
        full, mixed = _exact_sweep(1.0), _exact_sweep(0.58)
        for column in ("re_exact", "im_exact"):
            for f, m in zip(full[column], mixed[column]):
                assert abs(m - 0.58 * f) <= 1e-12

        shots = 10**4
        u = z_theta(np.pi / 2)
        target = 0.5 + 0.5j

        def rms(alpha, tag):
            errs = [
                abs(estimate_trace(u, alpha, shots, np.random.SeedSequence([101, tag, k]))
                    - target)
                for k in range(1000)
            ]
            return float(np.sqrt(np.mean(np.square(errs))))

        ratio = rms(0.5, 1) / rms(1.0, 0)
        assert abs(ratio - 2.0) <= 0.15 * 2.0


def test_criterion_3_shot_complexity():
    # The budget L = ln(2/P_e)/(2 eps^2) is the two-sided Hoeffding bound for
    # the per-quadrature outcome probability, so the guaranteed deviation is
    # eps on the probability scale, i.e. 2*eps for the [-1, 1] estimator.
    with criterion(3, "Hoeffding failure fraction within P_e", 120.0):
        for eps, p_err in ((0.1, 0.05), (0.05, 0.01)):
            shots = shots_required(eps, p_err, 1.0)
            assert shots == int(np.ceil(np.log(2.0 / p_err) / (2.0 * eps**2)))
            for true_val in (0.0, 0.6, -0.9):
                u = disk_unitary(true_val)
                failures = sum(
                    abs(
                        estimate_trace(u, 1.0, shots, np.random.SeedSequence([103, k])).real
                        - true_val
                    )
                    > 2 * eps
                    for k in range(1000)
                )
                assert failures / 1000 <= p_err, (eps, p_err, true_val, failures)


def test_criterion_4_discord_tangle_sweep():
    with criterion(4, "tangle-free sweep with discord peaks and symmetry", 120.0):
        config = SweepConfig(
            theta_min=-np.pi, theta_max=np.pi, steps=41, alpha=0.997,
            shots=0, seed=0, outputs=("trace", "discord", "tangle"), mean_counts=1e4,
            mode="binomial",
        )
        sweep = sweep_columns(config)
        assert all(t < 1e-9 for t in sweep["tangle"])
        discords = sweep["discord_rc"]
        by_theta = {round(theta, 12): d for theta, d in zip(sweep["theta"], discords)}
        for theta in (0.0, np.pi, -np.pi):
            assert by_theta[round(theta, 12)] < 1e-6
        for theta in (np.pi / 2, -np.pi / 2):
            assert by_theta[round(theta, 12)] > 10 * 1e-8
        for d_pos, d_neg in zip(discords, reversed(discords)):
            assert abs(d_pos - d_neg) < 1e-6


def test_criterion_5_clifford_theorem():
    with criterion(5, "Clifford circuits yield zero discord and exact propagation", 300.0):
        rng = np.random.default_rng(105)
        for trial in range(50):
            n_qubits = int(rng.integers(2, 5))
            circuit = read_circuit(random_clifford_circuit(n_qubits, 20, rng))
            report = verify_zero_discord(circuit)
            dense = report["dense_check"]
            assert dense["discord_measure_control"] < 1e-6, trial
            assert dense["discord_measure_register"] < 1e-6, trial
        for trial in range(200):
            n_qubits = int(rng.integers(1, 6))
            obj = random_clifford_circuit(n_qubits, int(rng.integers(0, 30)), rng)
            p = random_pauli_string(rng, n_qubits)
            out = propagate(read_circuit(obj), p)
            w = circuit_unitary(obj)
            conjugated = w @ dense_pauli(p.labels, p.phase) @ w.conj().T
            assert np.allclose(conjugated, dense_pauli(out.labels, out.phase), atol=1e-12), trial


def test_criterion_6_clifford_versus_dense_expectations():
    with criterion(6, "stabilizer expectations equal dense simulator", 60.0):
        cases = [
            ({"n": 2, "gates": [{"g": "H", "q": 0}]}, UnitaryMatrix(1, np.eye(2))),
            ({"n": 2, "gates": [{"g": "H", "q": 0}, {"g": "CZ", "q": [0, 1]}]}, z_theta(np.pi)),
        ]
        rng = np.random.default_rng(106)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            labels = "".join("IXYZ"[int(k)] for k in rng.integers(0, 4, n))
            k = int(rng.integers(0, 4))
            cases.append(
                (
                    controlled_pauli_circuit(labels, k),
                    UnitaryMatrix(n, (1j) ** k * dense_pauli(labels)),
                )
            )
        for obj, u in cases:
            for alpha in (1.0, 0.58):
                fast = dqc1_clifford_expectations(read_circuit(obj), alpha)
                exact = exact_expectations(u, alpha)
                assert abs(fast[0] - exact[0]) <= 1e-12
                assert abs(fast[1] - exact[1]) <= 1e-12


def test_criterion_7_tomography_pipeline():
    with criterion(7, "tomography reconstruction and correlation recovery", 300.0):
        rng = np.random.default_rng(107)
        for _ in range(50):
            rho = random_density_matrix(rng, (1, 1))
            estimate = linear_estimate(pair_frequencies(noiseless_run(rho, 1e4)))
            assert np.max(np.abs(estimate - rho.entries)) <= 1e-10
        rho = output_state(z_theta(np.pi / 2), 1.0)
        exact_discord = discord(rho, MEASURE_CONTROL)
        good = 0
        for seed in range(100):
            recon = reconstruct(simulate_counts(rho, 1e4, seed))
            ok_tangle = tangle(recon) <= 0.02
            ok_discord = abs(discord(recon, MEASURE_CONTROL) - exact_discord) <= 0.05
            good += ok_tangle and ok_discord
        assert good >= 90, f"only {good}/100 seeds recovered the correlations"


def test_criterion_8_correlation_oracles():
    with criterion(8, "Bell, product, and classical-quantum oracle values", 60.0):
        bell = bell_state()
        assert correlation_report(bell)["mutual_info"] == pytest.approx(2.0, abs=1e-4)
        assert discord(bell, MEASURE_CONTROL) == pytest.approx(1.0, abs=1e-4)
        assert tangle(bell) == pytest.approx(1.0, abs=1e-4)

        rng = np.random.default_rng(108)
        for _ in range(3):
            a = random_density_matrix(rng, (1,))
            b = random_density_matrix(rng, (1,))
            product = DensityMatrix(np.kron(a.entries, b.entries), (1, 1))
            assert abs(correlation_report(product)["mutual_info"]) < 1e-6
            assert abs(discord(product, MEASURE_CONTROL)) < 1e-6
            assert abs(discord(product, MEASURE_REGISTER)) < 1e-6
            assert tangle(product) < 1e-6

        witness = DensityMatrix(witness_matrix(), (1, 1))
        assert discord(witness, MEASURE_REGISTER) > 0.05
        assert discord(witness, MEASURE_CONTROL) < 1e-4


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "identical seeds give byte-identical CLI output", 120.0):
        sweep_args = ["sweep", "--steps", "11", "--shots", "400", "--alpha", "0.9",
                      "--seed", "17"]
        blobs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert cli_main(sweep_args + ["--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

        unitary_file = tmp_path / "u.json"
        save_json(unitary_file, unitary_to_json(z_theta(0.9)))
        blobs = []
        for name in ("t1.json", "t2.json"):
            out = tmp_path / name
            assert cli_main(["trace", str(unitary_file), "--seed", "23",
                             "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

        circuit_file = tmp_path / "circuit.json"
        save_json(circuit_file, {"n": 2, "gates": [{"g": "H", "q": 0}, {"g": "CZ", "q": [0, 1]}]})
        blobs = []
        for name in ("v1.json", "v2.json"):
            out = tmp_path / name
            assert cli_main(["verify-clifford", str(circuit_file),
                             "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
