import json

import numpy as np
import pytest

from dqc1sim import output_state, z_theta
from dqc1sim.cli import main, sweep_workers
from dqc1sim.clifford import CZ, CliffordCircuit, H, circuit_to_json
from dqc1sim.serialize import density_to_json, matrix_to_json, save_json, unitary_to_json


def run_cli(args, capsys=None):
    code = main([str(a) for a in args])
    return code


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    config = json.loads(lines[0][len("# config: "):])
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    return config, header, rows


@pytest.fixture
def identity_unitary(tmp_path):
    path = tmp_path / "identity.json"
    save_json(path, unitary_to_json(z_theta(0.0)))
    return path


@pytest.fixture
def pauli_z_unitary(tmp_path):
    path = tmp_path / "z.json"
    save_json(path, unitary_to_json(z_theta(np.pi)))
    return path


class TestSweep:
    def test_exact_trace_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--steps", 41, "--alpha", 1.0, "--shots", 0,
                        "--out", out]) == 0
        config, header, rows = read_csv(out)
        assert config["steps"] == 41 and config["alpha"] == 1.0
        assert header[:8] == ["theta", "alpha", "re_exact", "im_exact",
                              "re_est", "im_est", "shots", "seed"]
        for row in rows:
            theta = float(row["theta"])
            assert abs(float(row["re_exact"]) - (1 + np.cos(theta)) / 2) < 1e-12
            assert abs(float(row["im_exact"]) - np.sin(theta) / 2) < 1e-12

    def test_alpha_scaling(self, tmp_path):
        out1 = tmp_path / "a1.csv"
        out2 = tmp_path / "a058.csv"
        run_cli(["sweep", "--steps", 21, "--alpha", 1.0, "--out", out1])
        run_cli(["sweep", "--steps", 21, "--alpha", 0.58, "--out", out2])
        _, _, rows1 = read_csv(out1)
        _, _, rows2 = read_csv(out2)
        for r1, r2 in zip(rows1, rows2):
            assert abs(float(r2["re_exact"]) - 0.58 * float(r1["re_exact"])) < 1e-12
            assert abs(float(r2["im_exact"]) - 0.58 * float(r1["im_exact"])) < 1e-12

    def test_discord_and_tangle_columns(self, tmp_path):
        out = tmp_path / "corr.csv"
        run_cli(["sweep", "--steps", 5, "--alpha", 0.997,
                 "--outputs", "trace,discord,tangle", "--out", out])
        _, header, rows = read_csv(out)
        assert {"discord_rc", "discord_cr", "tangle"} <= set(header)
        for row in rows:
            assert float(row["tangle"]) < 1e-9
        endpoints = [r for r in rows if abs(abs(float(r["theta"])) - np.pi) < 1e-9]
        assert endpoints and all(float(r["discord_rc"]) < 1e-6 for r in endpoints)

    def test_sampled_sweep_deterministic(self, tmp_path):
        out1 = tmp_path / "s1.csv"
        out2 = tmp_path / "s2.csv"
        args = ["sweep", "--steps", 9, "--shots", 500, "--seed", 31, "--out"]
        run_cli(args + [out1])
        run_cli(args + [out2])
        assert out1.read_bytes() == out2.read_bytes()

    def test_jobs_do_not_change_output(self, tmp_path):
        out1 = tmp_path / "serial.csv"
        out2 = tmp_path / "parallel.csv"
        run_cli(["sweep", "--steps", 7, "--shots", 200, "--seed", 5, "--out", out1])
        run_cli(["sweep", "--steps", 7, "--shots", 200, "--seed", 5,
                 "--jobs", 2, "--out", out2])
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "sweep.json"
        run_cli(["sweep", "--steps", 5, "--format", "json", "--out", out])
        payload = json.loads(out.read_text())
        assert payload["config"]["command"] == "sweep"
        assert len(payload["rows"]) == 5

    def test_tomo_columns(self, tmp_path):
        out = tmp_path / "tomo_sweep.csv"
        run_cli(["sweep", "--steps", 3, "--outputs", "trace,tomo",
                 "--mean-counts", 3000, "--seed", 2, "--out", out])
        _, header, rows = read_csv(out)
        assert {"tomo_fidelity", "tomo_discord_rc", "tomo_tangle"} <= set(header)
        for row in rows:
            assert float(row["tomo_fidelity"]) > 0.95
            assert float(row["tomo_tangle"]) < 0.05

    def test_poisson_mode(self, tmp_path):
        out1 = tmp_path / "p1.csv"
        out2 = tmp_path / "p2.csv"
        args = ["sweep", "--steps", 5, "--shots", 300, "--mode", "poisson",
                "--seed", 6, "--out"]
        run_cli(args + [out1])
        run_cli(args + [out2])
        assert out1.read_bytes() == out2.read_bytes()
        config, _, _ = read_csv(out1)
        assert config["mode"] == "poisson"
        binom = tmp_path / "b.csv"
        run_cli(["sweep", "--steps", 5, "--shots", 300, "--seed", 6, "--out", binom])
        assert binom.read_bytes() != out1.read_bytes()

    def test_unwritable_path(self, capsys):
        code = run_cli(["sweep", "--steps", 5, "--out", "/nonexistent-dir/x.csv"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert "/nonexistent-dir/x.csv" in err["message"]

    def test_bad_config(self, capsys):
        assert run_cli(["sweep", "--steps", 1]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"


class TestTrace:
    def test_identity_report(self, identity_unitary, tmp_path):
        out = tmp_path / "trace.json"
        assert run_cli(["trace", identity_unitary, "--epsilon", 0.1,
                        "--p-error", 0.05, "--seed", 3, "--out", out]) == 0
        report = json.loads(out.read_text())
        assert report["shots_used"] == 185
        assert report["exact_re"] == 1.0 and report["exact_im"] == 0.0
        assert report["estimate_re"] == 1.0  # deterministic +1 outcome
        assert abs(report["abs_error"]) < 0.3

    def test_traceless_unitary(self, pauli_z_unitary, tmp_path):
        out = tmp_path / "tracez.json"
        run_cli(["trace", pauli_z_unitary, "--seed", 4, "--out", out])
        report = json.loads(out.read_text())
        assert abs(report["exact_re"]) < 1e-12 and abs(report["exact_im"]) < 1e-12

    def test_zero_alpha_is_an_error(self, identity_unitary, capsys):
        assert run_cli(["trace", identity_unitary, "--alpha", 0.0]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "no pure fraction" in err["message"]

    def test_non_unitary_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        m = np.eye(2, dtype=complex)
        m[0, 0] = 0.5
        save_json(bad, matrix_to_json(m))
        assert run_cli(["trace", bad]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "[0,0]" in err["message"]

    def test_deterministic(self, identity_unitary, tmp_path):
        outs = []
        for name in ("t1.json", "t2.json"):
            out = tmp_path / name
            run_cli(["trace", identity_unitary, "--seed", 8, "--out", out])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_seed_ensemble_meets_accuracy_budget(self, identity_unitary, tmp_path):
        # the (eps, P_e) budget guarantees per-quadrature probability
        # deviations of at most eps, i.e. 2*eps on the expectation scale
        eps = 0.1
        out = tmp_path / "ens.json"
        good = 0
        for seed in range(100):
            run_cli(["trace", identity_unitary, "--epsilon", eps,
                     "--p-error", 0.05, "--seed", seed, "--out", out])
            report = json.loads(out.read_text())
            ok_re = abs(report["estimate_re"] - report["exact_re"]) <= 2 * eps
            ok_im = abs(report["estimate_im"] - report["exact_im"]) <= 2 * eps
            good += ok_re and ok_im
        assert good >= 95


class TestStateCommands:
    def test_discord_from_theta(self, tmp_path):
        out = tmp_path / "discord.json"
        assert run_cli(["discord", "--theta", np.pi / 2, "--alpha", 1.0,
                        "--out", out]) == 0
        report = json.loads(out.read_text())
        assert report["discord_rc"] == pytest.approx(0.201752073, abs=1e-6)
        assert report["tangle"] < 1e-9
        assert "argmin_direction" in report

    def test_discord_from_file(self, tmp_path):
        from dqc1sim import output_state
        from dqc1sim.serialize import density_to_json

        state = tmp_path / "state.json"
        save_json(state, density_to_json(output_state(z_theta(1.0), 0.9)))
        out = tmp_path / "d.json"
        assert run_cli(["discord", state, "--out", out]) == 0
        assert json.loads(out.read_text())["config"]["state"] == str(state)

    def test_tangle_command(self, tmp_path):
        out = tmp_path / "tangle.json"
        run_cli(["tangle", "--theta", 1.0, "--out", out])
        report = json.loads(out.read_text())
        assert report["tangle"] < 1e-9 and report["concurrence"] < 1e-6

    def test_missing_state_source(self, capsys):
        assert run_cli(["discord"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "--theta" in err["message"]

    def test_tomo_command(self, tmp_path):
        out = tmp_path / "tomo.json"
        assert run_cli(["tomo", "--theta", np.pi / 2, "--mean-counts", 5000,
                        "--seed", 12, "--out", out]) == 0
        report = json.loads(out.read_text())
        assert report["fidelity"] > 0.98
        assert report["tangle"] < 0.05
        assert len(report["run"]["counts"]) == 36
        assert report["run"]["seed"] == 12

    def test_tomo_deterministic(self, tmp_path):
        blobs = []
        for name in ("m1.json", "m2.json"):
            out = tmp_path / name
            run_cli(["tomo", "--theta", 0.7, "--seed", 21, "--out", out])
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_csv_format_rejected(self, capsys):
        assert run_cli(["discord", "--theta", 1.0, "--format", "csv"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "JSON only" in err["message"]


class TestVerifyClifford:
    def test_controlled_z_circuit(self, tmp_path):
        circuit_file = tmp_path / "circuit.json"
        save_json(circuit_file, circuit_to_json(CliffordCircuit(2, (H(0), CZ(0, 1)))))
        out = tmp_path / "verify.json"
        assert run_cli(["verify-clifford", circuit_file, "--out", out]) == 0
        report = json.loads(out.read_text())
        assert report["verified"] is True
        assert report["propagated_pauli"] == "+XZ"
        assert report["dense_check"]["discord_measure_control"] < 1e-6

    def test_empty_circuit(self, tmp_path):
        circuit_file = tmp_path / "empty.json"
        save_json(circuit_file, {"n": 2, "gates": []})
        out = tmp_path / "verify.json"
        assert run_cli(["verify-clifford", circuit_file, "--out", out]) == 0
        assert json.loads(out.read_text())["verified"] is True

    def test_malformed_circuit_names_gate_index(self, tmp_path, capsys):
        circuit_file = tmp_path / "bad.json"
        save_json(circuit_file, {"n": 2, "gates": [{"g": "H", "q": 0}, {"g": "Q", "q": 1}]})
        assert run_cli(["verify-clifford", circuit_file]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "index 1" in err["message"]

    def test_invalid_json_file(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        assert run_cli(["verify-clifford", path]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "JSONDecodeError"


class TestBadInputs:
    @pytest.fixture
    def bad_files(self, tmp_path):
        state = density_to_json(output_state(z_theta(1.0), 1.0))
        state["re"][0][0] = float("nan")
        unitary = unitary_to_json(z_theta(1.0))
        unitary["im"][1][1] = float("inf")
        # json.dumps writes NaN and Infinity, which json.loads reads back
        (tmp_path / "nan_state.json").write_text(json.dumps(state))
        (tmp_path / "inf_unitary.json").write_text(json.dumps(unitary))
        return tmp_path

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("args, needle", [
        (["discord", "--theta", "nan"], "theta must be finite"),
        (["discord", "--theta", "inf"], "theta must be finite"),
        (["tangle", "--theta=-inf"], "theta must be finite"),
        (["discord", "--theta", "1", "--alpha", "nan"], "alpha"),
        (["tomo", "--theta", "1", "--mean-counts", "nan"], "mean_counts"),
        (["tomo", "--theta", "1", "--mean-counts", "inf"], "mean_counts"),
        (["sweep", "--theta-max", "inf"], "finite"),
        (["sweep", "--theta-min", "nan"], "finite"),
        (["sweep", "--alpha", "nan"], "alpha"),
        (["sweep", "--steps", "3", "--outputs", "tomo", "--mean-counts", "nan"], "mean_counts"),
        (["sweep", "--jobs", "-2"], "jobs"),
        (["discord", "{dir}/nan_state.json"], "finite"),
        (["trace", "{dir}/inf_unitary.json"], "finite"),
        (["trace", "{dir}/inf_unitary.json", "--alpha", "nan"], "finite"),
    ])
    def test_one_json_error_line(self, args, needle, bad_files, capsys):
        out = bad_files / "out.json"
        argv = [a.format(dir=bad_files) for a in args] + ["--out", out]
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert len(lines) == 1, err
        payload = json.loads(lines[0])
        assert payload["error"] == "ValueError"
        assert needle in payload["message"]
        assert not out.exists()


class TestSweepWorkers:
    @pytest.mark.parametrize("jobs, steps, cpus, expected", [
        (0, 41, 8, 1),
        (1, 41, 8, 1),
        (4, 41, 8, 4),
        (10**9, 41, 8, 8),
        (10**9, 3, 64, 3),
        (16, 41, 2, 2),
        (5, 41, 1, 1),
    ])
    def test_clamped_to_points_and_cores(self, jobs, steps, cpus, expected):
        assert sweep_workers(jobs, steps, cpus) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            sweep_workers(-1, 41, 8)
