import contextlib
import io
import json
import re
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqc1sim import (
    DensityMatrix, cli, correlations, output_state, simulate_counts, tangle, tomography, z_theta,
)
from dqc1sim.cli import MAX_STEPS, SweepConfig, main, render_csv, sweep_columns
from dqc1sim.sampling import MAX_SHOTS
from dqc1sim.serialize import density_from_json, density_to_json, matrix_to_json
from dqc1sim.tomography import SETTING_LABELS, ReconstructionError

from helpers import package_env, random_density_matrix, read_sweep_csv, save_json, unitary_to_json


def run_cli(args):
    return main([str(a) for a in args])


def chunks_of_seven(monkeypatch):
    """Make a sweep cut its grid into chunks of 7 points, so that a 61-step
    sweep crosses eight chunk boundaries and ends with a chunk of 5."""
    monkeypatch.setattr(cli, "STACK_STATES", 7)


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


def test_commands_load_no_unused_module():
    # No command needs scipy or a process pool, and numpy.ma, which
    # np.unique imports, would cost about 15 ms of start-up.
    code = (
        "import os, sys\n"
        "from dqc1sim.cli import main\n"
        "print(main(['discord', '--theta', '1', '--alpha', '0.9', '--out', os.devnull]),\n"
        "      main(['sweep', '--steps', '3', '--shots', '100', '--outputs',\n"
        "            'trace,discord,tangle,tomo', '--out', os.devnull]))\n"
        "print([m for m in ('scipy', 'numpy.ma', 'concurrent.futures.process',\n"
        "                   'multiprocessing') if m in sys.modules])\n"
    )
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, env=package_env(), check=True)
    assert out.stdout.splitlines() == ["0 0", "[]"]


class TestSweep:
    def test_exact_trace_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--steps", 41, "--alpha", 1.0, "--shots", 0,
                        "--out", out]) == 0
        config, header, rows = read_sweep_csv(out)
        assert config["steps"] == 41 and config["alpha"] == 1.0
        assert header[:8] == ["theta", "alpha", "re_exact", "im_exact",
                              "re_est", "im_est", "shots", "seed"]
        for row in rows:
            theta = float(row["theta"])
            assert abs(float(row["re_exact"]) - (1 + np.cos(theta)) / 2) < 1e-12
            assert abs(float(row["im_exact"]) - np.sin(theta) / 2) < 1e-12

    def test_alpha_zero_with_exact_values(self, tmp_path):
        # no pure fraction: nothing to sample, but the exact sweep still runs
        out = tmp_path / "a0.csv"
        assert run_cli(["sweep", "--steps", 3, "--alpha", 0, "--shots", 0, "--out", out]) == 0
        _, _, rows = read_sweep_csv(out)
        assert len(rows) == 3
        assert all(float(r["re_exact"]) == 0.0 == float(r["re_est"]) for r in rows)

    def test_alpha_scaling(self, tmp_path):
        out1 = tmp_path / "a1.csv"
        out2 = tmp_path / "a058.csv"
        run_cli(["sweep", "--steps", 21, "--alpha", 1.0, "--out", out1])
        run_cli(["sweep", "--steps", 21, "--alpha", 0.58, "--out", out2])
        _, _, rows1 = read_sweep_csv(out1)
        _, _, rows2 = read_sweep_csv(out2)
        for r1, r2 in zip(rows1, rows2):
            assert abs(float(r2["re_exact"]) - 0.58 * float(r1["re_exact"])) < 1e-12
            assert abs(float(r2["im_exact"]) - 0.58 * float(r1["im_exact"])) < 1e-12

    def test_discord_and_tangle_columns(self, tmp_path):
        out = tmp_path / "corr.csv"
        run_cli(["sweep", "--steps", 5, "--alpha", 0.997,
                 "--outputs", "trace,discord,tangle", "--out", out])
        _, header, rows = read_sweep_csv(out)
        assert {"discord_rc", "discord_cr", "tangle"} <= set(header)
        for row in rows:
            assert float(row["tangle"]) < 1e-9
        endpoints = [r for r in rows if abs(abs(float(r["theta"])) - np.pi) < 1e-9]
        assert endpoints and all(float(r["discord_rc"]) < 1e-6 for r in endpoints)

    def test_csv_floats_parse_back_exactly(self, tmp_path):
        out = tmp_path / "corr.csv"
        args = ["sweep", "--steps", 7, "--alpha", 0.997, "--shots", 300, "--seed", 4,
                "--outputs", "discord,tangle,tomo", "--mean-counts", 3000]
        assert run_cli([*args, "--out", out]) == 0
        _, header, cells = read_sweep_csv(out)
        columns = sweep_columns(SweepConfig(
            theta_min=-np.pi, theta_max=np.pi, steps=7, alpha=0.997, shots=300, seed=4,
            outputs=("discord", "tangle", "tomo"), mean_counts=3000.0, mode="binomial"))
        assert header == list(columns)
        assert {len(values) for values in columns.values()} == {len(cells)}
        floats = 0
        for i, line in enumerate(cells):
            for column in header:
                value = columns[column][i]
                if isinstance(value, float):
                    floats += 1
                    # repr tells -0.0 from 0.0
                    assert repr(float(line[column])) == repr(value), column
                else:
                    assert line[column] == str(value), column
        assert floats == 7 * 14

    @pytest.mark.parametrize("extra", [[], ["discord"], ["tangle"], ["tomo"], ["discord", "tangle"],
                                       ["discord", "tomo"], ["tangle", "tomo"],
                                       ["discord", "tangle", "tomo"]], ids=",".join)
    def test_column_order_is_fixed(self, extra, tmp_path):
        order = ["theta", "alpha", "re_exact", "im_exact", "re_est", "im_est", "shots", "seed",
                 "re_trace", "im_trace", "discord_rc", "discord_cr", "tangle", "tomo_fidelity",
                 "tomo_discord_rc", "tomo_tangle"]
        names = ["trace", *extra]
        # each state column's name starts with the output that selects it
        expected = order[:10] + [c for c in order[10:] if c.split("_")[0] in extra]
        for listed in (names, names[::-1]):
            args = ["sweep", "--steps", 2, "--outputs", ",".join(listed)]
            csv_out, json_out = tmp_path / "sweep.csv", tmp_path / "sweep.json"
            assert run_cli([*args, "--out", csv_out]) == 0
            assert run_cli([*args, "--format", "json", "--out", json_out]) == 0
            _, header, _ = read_sweep_csv(csv_out)
            assert header == json.loads(json_out.read_text())["columns"] == expected

    def test_sampled_sweep_deterministic(self, tmp_path):
        out1 = tmp_path / "s1.csv"
        out2 = tmp_path / "s2.csv"
        args = ["sweep", "--steps", 9, "--shots", 500, "--seed", 31, "--out"]
        run_cli(args + [out1])
        run_cli(args + [out2])
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
        _, header, rows = read_sweep_csv(out)
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
        config, _, _ = read_sweep_csv(out1)
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

    def test_steps_bound_rejects_before_allocating(self, tmp_path):
        # A 2 GiB address-space cap turns any large allocation into a
        # MemoryError traceback instead of a load on the host.
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        out = tmp_path / "sweep.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "dqc1sim", "sweep", "--steps", "1000000000", "--out", str(out)],
            capture_output=True, text=True, env=package_env(), preexec_fn=cap_memory, timeout=120,
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert f"steps must be <= {MAX_STEPS}" in json.loads(lines[0])["message"]
        assert not out.exists()

    def test_theta_grid_built_once(self, monkeypatch):
        calls = []
        linspace = np.linspace
        monkeypatch.setattr(np, "linspace", lambda *a, **k: calls.append(a) or linspace(*a, **k))
        config = SweepConfig(-1.0, 1.0, 50, 1.0, 0, 0, ("trace",), 1e4, "binomial")
        assert sweep_columns(config)["theta"] == list(linspace(-1.0, 1.0, 50))
        assert len(calls) == 1

    def test_state_columns_are_stacked(self, monkeypatch):
        # The discord search runs once per chunk on a stack of states, not
        # once per point: the number of stacked calls does not grow with
        # the steps within a chunk, and no one-state search runs.
        calls = []
        stacked = cli.stack_discords

        def counted(entries, qubit_dims, measured):
            calls.append(len(entries))
            return stacked(entries, qubit_dims, measured)

        def one_state(*args):
            raise AssertionError("one-state discord search in a sweep")

        monkeypatch.setattr(cli, "stack_discords", counted)
        monkeypatch.setattr(cli, "discord", one_state)
        counts = {}
        for steps in (3, 61):
            calls.clear()
            sweep_columns(SweepConfig(-np.pi, np.pi, steps, 0.997, 0, 101,
                                      ("discord", "tangle", "tomo"), 1e4, "binomial"))
            counts[steps] = list(calls)
        assert counts == {3: [3, 3], 61: [61, 61]}
        chunks_of_seven(monkeypatch)
        calls.clear()
        sweep_columns(SweepConfig(-np.pi, np.pi, 61, 0.997, 0, 101, ("discord", "tangle", "tomo"),
                                  1e4, "binomial"))
        # the output states' search, then the reconstructions', per chunk
        assert calls == 8 * [7, 7] + [5, 5]

    def test_reconstructions_are_not_wrapped_one_by_one(self, monkeypatch):
        # The sweep hands the reconstructions on as one (S, 4, 4) array: no
        # reconstruction becomes a DensityMatrix, while reconstruct still
        # wraps its one state.
        calls = []
        trusted = tomography._trusted_state

        def counted(entries, qubit_dims):
            calls.append(qubit_dims)
            return trusted(entries, qubit_dims)

        monkeypatch.setattr(tomography, "_trusted_state", counted)
        config = SweepConfig(-np.pi, np.pi, 61, 0.997, 0, 101, ("tomo",), 1e4, "binomial")
        columns = sweep_columns(config)
        assert {len(values) for values in columns.values()} == {61} and calls == []
        counts = simulate_counts(output_state(z_theta(1.0), 0.997), 1e4, 0)
        tomography.reconstruct(counts)
        assert calls == [(1, 1)]

    @pytest.mark.parametrize("alpha, shots, mode",
                             [(0.997, 0, "binomial"), (0.997, 2000, "poisson"),
                              (0.0, 0, "binomial")],
                             ids=["exact", "poisson", "alpha-0-exact"])
    def test_chunks_do_not_change_rows(self, alpha, shots, mode, monkeypatch):
        # Compared by their CSV bytes, which tell -0.0 from 0.0 where ==
        # does not: at alpha 0, im_exact holds zeros of both signs.
        config = SweepConfig(-np.pi, np.pi, 61, alpha, shots, 101,
                             ("trace", "discord", "tangle", "tomo"), mean_counts=1e4, mode=mode)
        whole = render_csv({}, sweep_columns(config))
        chunks_of_seven(monkeypatch)
        assert render_csv({}, sweep_columns(config)) == whole

    def test_failure_in_a_later_chunk_names_its_point(self, monkeypatch):
        # With 5 mean counts per basis pair, point 18 (chunk 2, its fifth
        # point) is the first whose tomography counts leave a pair empty.
        config = SweepConfig(-np.pi, np.pi, 61, 0.997, 0, 9, ("tomo",), mean_counts=5.0,
                             mode="binomial")
        message = f"at theta={float(config.thetas[18])!r}: no signal in basis pair ZX"
        with pytest.raises(ReconstructionError, match=f"^{re.escape(message)}$"):
            sweep_columns(config)
        chunks_of_seven(monkeypatch)
        with pytest.raises(ReconstructionError, match=f"^{re.escape(message)}$"):
            sweep_columns(config)

    def test_sweep_stops_at_its_first_failing_point(self, monkeypatch):
        # At 0.001 mean counts the first point's counts leave a pair empty:
        # no later point of its chunk runs.
        calls = []
        point = cli.sweep_point
        monkeypatch.setattr(cli, "sweep_point",
                            lambda config, index: calls.append(index) or point(config, index))
        config = SweepConfig(-np.pi, np.pi, 61, 0.997, 0, 0, ("tomo",), mean_counts=0.001,
                             mode="binomial")
        with pytest.raises(ReconstructionError, match="^at theta=-3.141592653589793: "):
            sweep_columns(config)
        assert calls == [0]

    @given(steps=st.integers(2, 20),
           outputs=st.sets(st.sampled_from(("trace", "discord", "tangle"))),
           mean_counts=st.floats(0.001, 5.0), shots=st.integers(0, 3),
           seed=st.integers(0, 2**70))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_sweep_fails_as_its_first_failing_point(self, steps, outputs, mean_counts, shots,
                                                    seed):
        # Chunks of 7 points: a sweep either gives its columns or raises
        # the error of the first point that fails when run on its own.
        config = SweepConfig(-np.pi, np.pi, steps, 0.997, shots, seed, (*outputs, "tomo"),
                             mean_counts=mean_counts, mode="poisson" if shots else "binomial")
        first = None
        for index in range(steps):
            try:
                cli.sweep_point(config, index)
            except ValueError as exc:
                first = exc
                break
        with pytest.MonkeyPatch.context() as patch:
            chunks_of_seven(patch)
            try:
                columns = sweep_columns(config)
            except ValueError as exc:
                assert (type(exc), str(exc)) == (type(first), str(first))
            else:
                assert first is None and {len(values) for values in columns.values()} == {steps}

    def test_import_loads_no_process_pool(self):
        code = ("import sys, dqc1sim.cli; print([m for m in "
                "('concurrent.futures.process', 'multiprocessing') if m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, env=package_env(), check=True)
        assert out.stdout.strip() == "[]"

    def test_shot_bound(self):
        with pytest.raises(ValueError, match="shots must be <="):
            SweepConfig(-1.0, 1.0, 5, 1.0, MAX_SHOTS + 1, 0, ("trace",), 1e4, "binomial")
        with pytest.raises(ValueError, match="shots must be >= 0"):
            SweepConfig(-1.0, 1.0, 5, 1.0, -1, 0, ("trace",), 1e4, "binomial")

    @pytest.mark.parametrize("steps, seed, message", [
        (5, True, "seed must be an integer, got True"),
        (5, np.True_, "seed must be an integer, got np.True_"),
        (5, "3", "seed must be an integer, got '3'"),
        (5, 1.5, "seed must be an integer, got 1.5"),
        (5, -1, "seed must be >= 0, got -1"),
        (5.0, 0, "steps must be an integer, got 5.0"),
        (False, 0, "steps must be an integer, got False"),
        ("5", 0, "steps must be an integer, got '5'"),
    ])
    def test_steps_and_seed_are_integers(self, steps, seed, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SweepConfig(-1.0, 1.0, steps, 1.0, 0, seed, ("trace",), 1e4, "binomial")

    def test_integer_seeds_of_any_size_run(self):
        for seed in (np.int64(3), np.uint64(2**63), 2**70):
            config = SweepConfig(-1.0, 1.0, np.int64(3), 1.0, 5, seed, ("trace",), 1e4, "binomial")
            assert sweep_columns(config)["seed"] == [int(seed)] * 3

    def test_zero_alpha_sweep_is_exact(self):
        columns = sweep_columns(SweepConfig(-1.0, 1.0, 3, 0.0, 0, 0, ("trace",), 1e4, "binomial"))
        for theta, re_est, re_exact, re_trace in zip(
                columns["theta"], columns["re_est"], columns["re_exact"], columns["re_trace"]):
            assert re_est == re_exact == 0.0
            assert re_trace == (1 + np.cos(theta)) / 2

    def test_unknown_mode(self):
        # argparse choices catch it on the command line; the library call
        # goes through the same check as estimate_trace
        with pytest.raises(ValueError, match="sampling mode"):
            SweepConfig(-1.0, 1.0, 5, 1.0, 0, 0, ("trace",), mean_counts=1e4, mode="exact")


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

    @pytest.mark.parametrize("mode", ["binomial", "poisson"])
    def test_unitary_within_tolerance_is_sampled(self, mode, tmp_path):
        # unitary within UNITARY_ATOL with Tr/2 = 1.000000004: the outcome
        # probability is clipped to 1, so every shot is +1
        near = tmp_path / "near.json"
        save_json(near, {"dim": 2, "re": [[1.000000004, 0], [0, 1.000000004]],
                         "im": [[0, 0], [0, 0]]})
        out = tmp_path / "near_trace.json"
        assert run_cli(["trace", near, "--mode", mode, "--out", out]) == 0
        report = json.loads(out.read_text())
        assert report["exact_re"] == 1.000000004
        assert report["estimate_re"] == 1.0

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


TRACE_KEYS = {"command", "unitary", "alpha", "epsilon", "p_error", "seed", "mode"}
SWEEP_KEYS = {"command", "theta_min", "theta_max", "steps", "alpha", "shots", "seed", "outputs",
              "mean_counts", "mode"}


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

    def test_tangle_report_squares_as_the_library_does(self, tmp_path):
        # Entangled states, whose tangle is not 0: the report's tangle is
        # its concurrence squared and the library's tangle, to the bit.
        rng = np.random.default_rng(3)
        for i in range(8):
            psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi /= np.linalg.norm(psi)
            state, out = tmp_path / f"state{i}.json", tmp_path / f"tangle{i}.json"
            save_json(state, density_to_json(DensityMatrix(np.outer(psi, psi.conj()), (1, 1))))
            assert run_cli(["tangle", state, "--out", out]) == 0
            report = json.loads(out.read_text())
            rho = density_from_json(json.loads(state.read_text()))
            assert report["tangle"] > 0.0
            assert report["tangle"] == report["concurrence"] * report["concurrence"] == tangle(rho)

    @pytest.mark.parametrize("name, bad, message", [
        ("tangle", lambda rho: 1.5, "tangle must be in [0, 1], got 1.5"),
        ("stack_discords", lambda entries, qubit_dims, measured: (
            np.zeros(1), [(np.full(1, -1e-6), np.eye(3)[2:], np.ones(1, int))] * len(measured)),
         "discord values must be >= -1e-9"),
    ], ids=["tangle", "discord"])
    def test_discord_out_of_range_is_a_json_error(self, monkeypatch, capsys, name, bad, message):
        monkeypatch.setattr(correlations, name, bad)
        assert run_cli(["discord", "--theta", 1]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err) == {"error": "ValueError", "message": message}

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
        run = report["run"]
        assert run["settings"] == list(SETTING_LABELS)
        assert len(run["counts"]) == 36
        assert all(type(c) is int for c in run["counts"])
        # the library's counts, each written exactly
        counts = simulate_counts(output_state(z_theta(np.pi / 2), 1.0), 5000.0, 12)
        assert np.array_equal(run["counts"], counts)
        assert type(run["mean"]) is float and run["mean"] == 5000.0
        assert type(run["seed"]) is int and run["seed"] == 12

    def test_tomo_at_the_mean_counts_bound(self, tmp_path):
        out = tmp_path / "tomo.json"
        assert run_cli(["tomo", "--theta", 1, "--mean-counts", 1e18, "--out", out]) == 0
        assert json.loads(out.read_text())["run"]["mean"] == 1e18

    def test_tomo_deterministic(self, tmp_path):
        blobs = []
        for name in ("m1.json", "m2.json"):
            out = tmp_path / name
            run_cli(["tomo", "--theta", 0.7, "--seed", 21, "--out", out])
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("args, keys", [
        (["discord", "--theta", "1"], {"command", "theta", "alpha"}),
        (["discord", "{state}"], {"command", "state"}),
        (["tangle", "--theta", "1", "--alpha", "0.5"], {"command", "theta", "alpha"}),
        (["tangle", "{state}"], {"command", "state"}),
        (["tomo", "--theta", "1"], {"command", "theta", "alpha", "seed", "mean_counts"}),
        (["tomo", "{state}"], {"command", "state", "seed", "mean_counts"}),
        (["verify-clifford", "{circuit}"], {"command", "circuit"}),
        (["trace", "{unitary}"], TRACE_KEYS),
        (["trace", "{unitary}", "--alpha", "0.5", "--mode", "poisson", "--seed", "3"], TRACE_KEYS),
        (["sweep", "--steps", "3"], SWEEP_KEYS),
        (["sweep", "--steps", "3", "--outputs", "tangle,trace,tangle", "--shots", "10",
          "--format", "json", "--theta-min=-1", "--mean-counts", "50"], SWEEP_KEYS),
    ])
    def test_config_names_only_the_inputs_used(self, args, keys, tmp_path):
        state, circuit = tmp_path / "state.json", tmp_path / "circuit.json"
        unitary = tmp_path / "unitary.json"
        save_json(state, density_to_json(output_state(z_theta(1.0), 0.9)))
        save_json(circuit, {"n": 2, "gates": [{"g": "H", "q": 0}]})
        save_json(unitary, unitary_to_json(z_theta(1.0)))
        out = tmp_path / "report.json"
        argv = [a.format(state=state, circuit=circuit, unitary=unitary) for a in args]
        assert run_cli(argv + ["--out", out]) == 0
        if out.read_text().startswith("# config: "):
            config, _, _ = read_sweep_csv(out)
        else:
            config = json.loads(out.read_text())["config"]
        assert set(config) == keys
        if args[1] == "--theta" and "--alpha" not in args:
            assert config["alpha"] == 1.0
        # the config is the parsed arguments, so a flag it leaves out fails
        parsed = vars(cli.build_parser().parse_args(argv))
        expected = {k: v for k, v in parsed.items()
                    if v is not None and k not in ("out", "format", "func")}
        if "theta" in expected:
            expected.setdefault("alpha", 1.0)
        if "outputs" in expected:
            expected["outputs"] = list(expected["outputs"])
        assert config == expected

    def test_csv_format_rejected(self, capsys):
        assert run_cli(["discord", "--theta", 1.0, "--format", "csv"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "unrecognized arguments" in err["message"]


class TestVerifyClifford:
    def test_controlled_z_circuit(self, tmp_path):
        circuit_file = tmp_path / "circuit.json"
        save_json(circuit_file, {"n": 2, "gates": [{"g": "H", "q": 0}, {"g": "CZ", "q": [0, 1]}]})
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
        mixed = matrix_to_json(np.eye(4) / 4)
        cz = {"g": "CZ", "q": [0, 1]}
        malformed = {
            "gates_5": {"n": 2, "gates": 5},
            "n_null": {"n": None, "gates": []},
            "n_float": {"n": 2.7, "gates": [{"g": "CZ", "q": [0, 1.9]}]},
            "qubit_float": {"n": 2, "gates": [{"g": "CZ", "q": [0, 1.9]}]},
            "qubit_bool": {"n": 2, "gates": [cz, {"g": "H", "q": True}]},
            "qubit_string": {"n": 2, "gates": [{"g": "CZ", "q": "01"}]},
            "n_huge": {"n": 1000000000, "gates": []},
            "five": 5,
            "dim_null": {**mixed, "dim": None},
            "dim_string": {**mixed, "dim": "4"},
            "qubit_dims_5": {**mixed, "qubit_dims": 5},
            "qubit_dims_null": {**mixed, "qubit_dims": None},
            "qubit_dims_float": {**mixed, "qubit_dims": [1, 1.0]},
            "qubit_dims_huge": {**mixed, "qubit_dims": [10**12, 1]},
            "entries_object": {**mixed, "re": {"a": 1}},
            "entries_string": {**mixed, "re": [[repr(x) for x in row] for row in mixed["re"]]},
            "entries_bool": {**mixed, "im": [[False] * 4] * 4},
            "entries_null": {**mixed, "im": [[None, 0, 0, 0]] + mixed["im"][1:]},
            "rows_ragged": {**mixed, "re": mixed["re"][:3] + [mixed["re"][3][:3]]},
            # 400 digits: within Python's digit limit, beyond the float range
            "entry_huge_int": {**mixed, "re": [[10**399, 0, 0, 0]] + mixed["re"][1:]},
            "one_qubit": matrix_to_json(np.eye(2) / 2),
            "three_qubits": matrix_to_json(np.eye(8) / 8),
            "gate_list_entry": {"n": 2, "gates": [cz, ["H", 0]]},
            "gate_null_entry": {"n": 2, "gates": [None]},
            "gate_missing_name": {"n": 2, "gates": [{"q": 0}]},
        }
        valid = {
            "state": density_to_json(output_state(z_theta(1.0), 0.9)),
            "unitary": unitary_to_json(z_theta(1.0)),
            "circuit": {"n": 2, "gates": [cz]},
        }
        for name, value in {**malformed, **valid}.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(value))
        (tmp_path / "deep.json").write_text("[" * 10**5)
        (tmp_path / "latin1.json").write_bytes(b'{"n": 2, "gates": [], "note": "\xe9"}')
        (tmp_path / "long_int.json").write_text('{"n": ' + "1" * 5000 + ', "gates": []}')
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
        (["sweep", "--steps", "abc"], "--steps"),
        (["tangle", "--theta", "-inf"], "--theta"),
        (["bogus"], "invalid choice"),
        (["sweep", "--mean-counts", "nan"], "mean_counts"),
        (["sweep", "--mean-counts", "-5"], "mean_counts"),
        (["discord", "--theta", "1", "--jobs", "2"], "unrecognized arguments"),
        (["verify-clifford", "{dir}/gates_5.json"], "gates must be a list"),
        (["verify-clifford", "{dir}/n_null.json"], "n must be an integer"),
        (["verify-clifford", "{dir}/n_float.json"], "n must be an integer"),
        (["verify-clifford", "{dir}/qubit_float.json"], "qubit index must be an integer"),
        (["verify-clifford", "{dir}/qubit_bool.json"], "index 1: qubit index"),
        (["verify-clifford", "{dir}/qubit_string.json"], "qubit index must be an integer"),
        (["verify-clifford", "{dir}/n_huge.json"], "n_qubits must be <= 100000"),
        (["verify-clifford", "{dir}/five.json"], "must be an object"),
        (["tangle", "{dir}/five.json"], "must be an object"),
        (["trace", "{dir}/five.json"], "must be an object"),
        (["tangle", "{dir}/dim_null.json"], "dim must be an integer"),
        (["trace", "{dir}/dim_null.json"], "dim must be an integer"),
        (["trace", "{dir}/dim_string.json"], "dim must be an integer"),
        (["tangle", "{dir}/qubit_dims_5.json"], "qubit_dims must be a list"),
        (["tangle", "{dir}/qubit_dims_null.json"], "qubit_dims must be a list"),
        (["tangle", "{dir}/qubit_dims_float.json"], "qubit_dims entry must be an integer"),
        (["tangle", "{dir}/qubit_dims_huge.json"], "does not match qubit_dims"),
        (["tangle", "{dir}/entries_object.json"], "entries must be numbers"),
        (["sweep", "--steps", "100001"], "steps must be <= 100000"),
        (["sweep", "--jobs", "2"], "unrecognized arguments"),
        (["discord", "--theta", "1", "--format", "json"], "unrecognized arguments"),
        (["tomo", "--theta", "1", "--seed", "-1"], "seed"),
        (["sweep", "--seed", "-1"], "seed"),
        (["sweep", "--steps", "2", "--shots", "99999999999999999999999"], "shots must be <="),
        (["trace", "{dir}/unitary.json", "--alpha", "1e-9"], "shot budget"),
        (["trace", "{dir}/unitary.json", "--alpha", "5e-324"], "shot budget"),
        (["trace", "{dir}/unitary.json", "--epsilon", "1e-200"], "shot budget"),
        (["trace", "{dir}/unitary.json", "--p-error", "5e-324"], "shot budget"),
        (["discord", "--theta", "1", "--seed", "7"], "unrecognized arguments"),
        (["tangle", "{dir}/state.json", "--seed", "0"], "unrecognized arguments"),
        (["verify-clifford", "{dir}/circuit.json", "--seed", "1"], "unrecognized arguments"),
        (["tangle", "{dir}/state.json", "--theta", "1"], "not both"),
        (["discord", "{dir}/state.json", "--alpha", "0.5"], "not both"),
        (["tomo", "{dir}/state.json", "--theta", "1"], "not both"),
        (["tomo", "--theta", "1", "--mean-counts", "1e300"], "mean_counts must be in (0, 1e+18]"),
        (["sweep", "--steps", "2", "--outputs", "tomo", "--mean-counts", "1e19"], "mean_counts"),
        (["sweep", "--steps", "41", "--shots", "1", "--mode", "poisson"], "no counts recorded"),
        (["sweep", "--steps", "3", "--shots", "5", "--alpha", "0"],
         "alpha=0 leaves no pure fraction to sample with shots=5"),
        (["sweep", "--steps", "3", "--outputs", "tomo", "--mean-counts", "0.001"],
         "at theta=-3.141592653589793: no signal in basis pair ZZ"),
        *[([command, "{dir}/deep.json"], "deep.json' is nested too deeply")
          for command in ("discord", "tangle", "tomo", "trace", "verify-clifford")],
        (["sweep", "--steps", "2", "--alpha", "1e-309", "--shots", "5"],
         "alpha=1e-309 is too small"),
        # the first point fails at reconstruction, the second already at
        # sampling: the first point's error is the one reported
        (["sweep", "--steps", "4", "--outputs", "tomo", "--shots", "1", "--mode", "poisson",
          "--mean-counts", "0.001", "--seed", "2"],
         "at theta=-3.141592653589793: no signal in basis pair ZZ"),
        # both ends finite, the span between them not: rejected before linspace
        (["sweep", "--theta-min=-1e308", "--theta-max=1e308", "--steps", "3"],
         "theta_max - theta_min must be finite, got inf"),
        # checked before the state is split into control and register
        (["discord", "{dir}/one_qubit.json"],
         "correlation report requires a two-qubit state, got dim 2"),
        (["discord", "{dir}/three_qubits.json"],
         "correlation report requires a two-qubit state, got dim 8"),
        # numpy alone would read these as numbers or name its own error
        *[([command, f"{{dir}}/{name}.json"], needle) for command in ("trace", "discord", "tangle")
          for name, needle in (("entries_string", "entries must be numbers"),
                               ("entries_bool", "entries must be numbers"),
                               ("entries_null", "entries must be numbers"),
                               ("rows_ragged", "matrix JSON rows must be lists of one length"))],
        # each reader error in the reader's own words, not Python's
        (["verify-clifford", "{dir}/gate_list_entry.json"],
         'bad gate at index 1: expected an object with a string "g" and a "q", got ["H", 0]'),
        (["verify-clifford", "{dir}/gate_null_entry.json"],
         'bad gate at index 0: expected an object with a string "g" and a "q", got null'),
        (["verify-clifford", "{dir}/gate_missing_name.json"],
         'bad gate at index 0: expected an object with a string "g" and a "q", got {"q": 0}'),
        *[([command, "{dir}/latin1.json"], "latin1.json' is not UTF-8 text")
          for command in ("discord", "tangle", "tomo", "trace", "verify-clifford")],
        *[([command, "{dir}/long_int.json"], "long_int.json' holds an integer of more than 4300")
          for command in ("discord", "tangle", "tomo", "trace", "verify-clifford")],
        # checked before the counts are simulated
        (["tomo", "{dir}/one_qubit.json"], "tomography requires a two-qubit state, got dim 2"),
        (["tomo", "{dir}/three_qubits.json"], "tomography requires a two-qubit state, got dim 8"),
        *[([command, "{dir}/entry_huge_int.json"], "matrix JSON entries must be numbers")
          for command in ("trace", "discord", "tangle")],
        (["sweep", "--steps", "3", "--outputs", "trace,bogus"], "unknown sweep outputs ['bogus']"),
    ])
    def test_one_json_error_line(self, args, needle, bad_files, capsys):
        out = bad_files / "out.json"
        argv = [a.format(dir=bad_files) for a in args] + ["--out", out]
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert len(lines) == 1, err
        payload = json.loads(lines[0])
        # a sweep point's error keeps its class: tomography raises the
        # ValueError subclass ReconstructionError
        assert payload["error"] == ("ReconstructionError" if "no signal" in needle else "ValueError")
        assert needle in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["1e-320", "1e-309"])
    def test_unsampleable_alpha_fails_before_the_first_point(self, alpha, capsys):
        assert run_cli(["sweep", "--steps", "3", "--alpha", alpha, "--shots", "5"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        message = json.loads(lines[0])["message"]
        assert message.startswith(f"alpha={alpha} ") and "at theta=" not in message

    @pytest.mark.parametrize("args, where", [
        (["sweep", "--steps", "41", "--shots", "1", "--mode", "poisson"],
         "at theta=-2.827433388230814: "),
        # trace has no --shots flag: this epsilon and p_error ask for one shot
        (["trace", "{dir}/unitary.json", "--epsilon", "0.9", "--p-error", "0.9",
          "--mode", "poisson", "--seed", "1"], ""),
    ])
    def test_empty_quadrature_names_its_cause(self, args, where, bad_files, capsys):
        assert run_cli([a.format(dir=bad_files) for a in args]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "ValueError", "message": (
            f"{where}no counts recorded, cannot form a ratio: with shots=1 "
            "a Poisson quadrature is empty with probability e^-shots = 0.368")}

    @pytest.mark.parametrize("command, slot", [
        ("discord", "%s"),
        ("verify-clifford", '{"n": %s, "gates": []}'),
        ("tangle", '{"dim": %s, "re": [], "im": []}'),
    ], ids=["discord", "verify-clifford", "tangle"])
    def test_every_depth_near_the_recursion_limit(self, command, slot, tmp_path, capsys):
        # Around the limit a file can parse and still be too deep for an
        # error message to encode it from the deeper stack of the reader.
        path = tmp_path / "deep.json"
        limit = sys.getrecursionlimit()
        for depth in range(limit - 200, limit + 10):
            path.write_text(slot % ("[" * depth + "]" * depth))
            assert run_cli([command, path]) == 1
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1, (depth, lines[-1])

    @pytest.mark.parametrize("args", [["--help"], ["sweep", "--help"]])
    def test_help_exits_zero(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


# Each subcommand's parser, by name.
_SUBPARSERS = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
# (command, flag) for every flag whose type reads "1" as a number: the ints,
# the floats and --seed.
NUMERIC_FLAGS = [(command, action.option_strings[0])
                 for command, sub in _SUBPARSERS.items()
                 for action in sub._actions
                 if action.type and isinstance(action.type("1"), (int, float))]


class TestNegativeNumbers:
    @pytest.mark.parametrize("command, flag", NUMERIC_FLAGS, ids=map(" ".join, NUMERIC_FLAGS))
    def test_own_word_reads_like_joined(self, command, flag, identity_unitary, tmp_path, capsys):
        # -1e-3 as its own word is the flag's value, as when joined by "=";
        # the flag follows a call that completes, and its later value wins
        base = {"sweep": ["--steps", 2], "trace": [identity_unitary]}.get(command, ["--theta", 1])
        out = tmp_path / "out"
        for word in ("-1e-3", "-2.5E+1"):
            results = []
            for value in ([flag, word], [f"{flag}={word}"]):
                code = run_cli([command, *base, *value, "--out", out])
                results.append((code, *capsys.readouterr(), out.exists() and out.read_bytes()))
                out.unlink(missing_ok=True)
            assert results[0] == results[1] and "expected one argument" not in results[0][2]

    def test_parser_sets_the_pattern_argparse_reads(self):
        # The fix sets argparse's private _negative_number_matcher: with a
        # pattern that matches nothing, argparse reads even -1 as a flag.
        parser = cli._Parser()
        parser.add_argument("--x", type=float)
        for word in ("-1", "-0.5", "-.5", "-1e-3", "-2.5E+1", "-7e2"):
            assert parser.parse_args(["--x", word]).x == float(word)
        for word in ("-inf", "-1.", "-e3", "-1e"):
            with pytest.raises(ValueError, match="expected one argument"):
                parser.parse_args(["--x", word])
        parser._negative_number_matcher = re.compile(r"(?!)")
        with pytest.raises(ValueError, match="expected one argument"):
            parser.parse_args(["--x", "-1"])


GATE_NAMES = ("H", "S", "X", "Z", "CZ", "CNOT")
_leaves = (st.none() | st.booleans() | st.integers(-2, 5) | st.integers() | st.floats()
           | st.sampled_from(GATE_NAMES) | st.text(max_size=3))
_any_json = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(("n", "gates", "g", "q", "dim", "re", "im", "qubit_dims"))
        | st.text(max_size=2),
        inner, max_size=6),
    max_leaves=24,
)
_number_grid = st.integers(0, 4).flatmap(lambda d: st.lists(
    st.lists(st.floats(-1, 1) | st.integers(-1, 1), min_size=d, max_size=d),
    min_size=d, max_size=d))
_small = st.integers(-1, 5) | _any_json
# Near-valid shapes, so that the fuzz also reaches the checks behind the
# top-level ones.
_circuit_like = st.fixed_dictionaries({
    "n": _small,
    "gates": st.lists(st.fixed_dictionaries(
        {"g": st.sampled_from(GATE_NAMES) | _any_json,
         "q": _small | st.lists(_small, max_size=3)}), max_size=4) | _any_json,
})
_matrix_like = st.fixed_dictionaries(
    {"dim": _small, "re": _number_grid | _any_json, "im": _number_grid | _any_json},
    optional={"qubit_dims": st.lists(_small, max_size=3) | _any_json},
)
# A valid random two-qubit state, whose qubit_dims is absent, either split of
# two qubits, or drawn, so that discord and tomo also reach a state's split.
_state_like = st.builds(
    lambda seed, dims: {**matrix_to_json(
        random_density_matrix(np.random.default_rng(seed), (1, 1)).entries), **dims},
    st.integers(0, 2**32 - 1),
    st.just({}) | (st.sampled_from(([1, 1], [2])) | st.lists(_small, max_size=3) | _any_json)
    .map(lambda dims: {"qubit_dims": dims}),
)


# Text nested to a drawn depth, closed or not, in one of the places a
# reader looks; the depths cluster at the recursion limit.
_DEEP_SLOTS = ("%s", '{"n": %s, "gates": []}', '{"n": 2, "gates": [{"g": "H", "q": %s}]}',
               '{"n": 2, "gates": [{"g": %s, "q": 0}]}', '{"dim": %s, "re": [], "im": []}',
               '{"dim": 2, "re": %s, "im": [[0, 0], [0, 0]]}',
               '{"dim": 1, "re": [[1]], "im": [[0]], "qubit_dims": [%s]}')
_depth = (st.integers(1, 2 * sys.getrecursionlimit())
          | st.integers(sys.getrecursionlimit() - 200, sys.getrecursionlimit()) | st.just(10**5))
_deep_text = st.builds(lambda slot, depth, closed: slot % ("[" * depth + "]" * depth * closed),
                       st.sampled_from(_DEEP_SLOTS), _depth, st.booleans())


class TestJsonFuzz:
    @pytest.mark.parametrize("command", ["verify-clifford", "tangle", "trace", "discord", "tomo"])
    @given(text=st.one_of(_any_json, _circuit_like, _matrix_like, _state_like).map(json.dumps)
           | _deep_text)
    @settings(max_examples=60, deadline=None)
    def test_report_or_one_json_error_line(self, command, text):
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "input.json", Path(tmp) / "out.json"
            path.write_text(text)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, str(path), "--out", str(out)])
            if code == 0:
                assert out.exists() and not err.getvalue()
            else:
                assert code == 1
                lines = err.getvalue().splitlines()
                assert len(lines) == 1, lines
                assert set(json.loads(lines[0])) == {"error", "message"}
                assert not out.exists()


_LITERALS = ("nan", "inf", "-inf", "-1", "5e-324", "1e-309", "1e-200", "1e300",
             "99999999999999999999999", "abc", "1e308", "-1e308")
# Literals a quarter of the time; the rest are mostly in range, so that
# reports are written too.
_number_text = (st.sampled_from(_LITERALS) | st.integers(0, 5000).map(str)
                | st.floats(0, 1).map(repr) | st.floats(-10, 10).map(repr))
# The values of the flags that take words; every other flag takes _number_text.
_WORD_FLAGS = {
    "--outputs": st.lists(st.sampled_from(("trace", "discord", "tangle", "tomo", "bogus")),
                          min_size=1, max_size=4).map(",".join) | _number_text,
    "--mode": st.sampled_from(("binomial", "poisson", "exact")) | _number_text,
    "--format": st.sampled_from(("csv", "json", "xml")),
}
# Each subcommand's own flags, read from its parser, so that a new flag is
# fuzzed too; -h exits, and _argv and the test set --steps and --out
# themselves. The fuzz also draws from the others' flags and from flags no
# subcommand has, so misplaced and unknown flags are exercised too.
_FLAGS = {command: {flag: _WORD_FLAGS.get(flag, _number_text)
                    for action in sub._actions for flag in action.option_strings[:1]
                    if flag not in ("-h", "--steps", "--out")}
          for command, sub in _SUBPARSERS.items()}
_ALL_FLAGS = {"--jobs": _number_text, "--bogus": _number_text,
              **{flag: values for flags in _FLAGS.values() for flag, values in flags.items()}}
# The positional file each subcommand reads: the state file is optional.
_INPUTS = {"trace": ["unitary"], "discord": ["state", None], "tangle": ["state", None],
           "tomo": ["state", None], "verify-clifford": ["circuit"], "sweep": [None]}


@st.composite
def _argv(draw, command):
    argv = [command]
    source = draw(st.sampled_from(_INPUTS[command]))
    if source is not None:
        argv.append("{%s}" % source)
    if command == "sweep":
        # a sweep defaults to 41 steps, so it always gets a small --steps
        argv += ["--steps", draw(st.integers(-1, 3).map(str) | st.sampled_from(_LITERALS))]
    own = list(_FLAGS[command])
    names = draw(st.lists(st.sampled_from(own), max_size=5, unique=True)) if own else []
    names += draw(st.lists(st.sampled_from(sorted(_ALL_FLAGS)), max_size=1))
    for name in names:
        value = draw(_ALL_FLAGS[name])
        # Both spellings of a flag and its value: "--flag=value" and
        # "--flag value".
        argv += [f"{name}={value}"] if draw(st.booleans()) else [name, value]
    return argv


class TestArgvFuzz:
    @pytest.mark.parametrize("command", sorted(_FLAGS))
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_report_or_one_json_error_line(self, command, data):
        argv = data.draw(_argv(command))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            files = {"state": tmp / "state.json", "unitary": tmp / "unitary.json",
                     "circuit": tmp / "circuit.json"}
            save_json(files["state"], density_to_json(output_state(z_theta(1.0), 0.9)))
            save_json(files["unitary"], unitary_to_json(z_theta(1.0)))
            save_json(files["circuit"], {"n": 2, "gates": [{"g": "H", "q": 0}]})
            out = tmp / "out"
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([a.format(**files) for a in argv] + ["--out", str(out)])
            assert not stdout.getvalue()
            if code == 0:
                assert out.exists() and not stderr.getvalue()
            else:
                assert code == 1
                lines = stderr.getvalue().splitlines()
                assert len(lines) == 1, lines
                assert set(json.loads(lines[0])) == {"error", "message"}
                assert not out.exists()
