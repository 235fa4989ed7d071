"""The benchmark's workloads: inputs generated from the seed, the invocations
of one pass, and the checks each invocation's output must pass.

All three are closed loops with one client: an invocation starts when the
previous one has ended. A check returns a list of failure messages; an empty
list means the output is correct.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

# Failure probability allowed to one sampled estimate. A run checks a few
# thousand, so a correct sampler fails a run with probability below 1e-6.
DELTA = 1e-10
EXACT_TOL = 1e-12
ZERO_TOL = 1e-9  # discord >= -ZERO_TOL; one-sided oracle slack; zero tangle
DISCORD_ZERO = 1e-6  # discord at the Clifford points; symmetry under theta -> -theta


@dataclass
class Invocation:
    """One program call: ``python -m dqc1sim ARGV`` or the large-register pass."""

    key: str
    program: str  # "cli" or "large_register"
    argv: list
    out: Path
    check: Callable[[str], list]
    points: int = 0  # work items for points_per_s


def _cli(workdir: Path, key: str, args: list, out_name: str, check, points: int = 0) -> Invocation:
    out = workdir / out_name
    return Invocation(key, "cli", [*args, "--out", str(out)], out, check, points)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj))


def _matrix_json(m: np.ndarray, **extra) -> dict:
    return {"dim": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist(), **extra}


def _close(name: str, got, want, tol: float) -> list:
    if abs(got - want) <= tol:
        return []
    return [f"{name}: got {got!r}, expected {want!r} within {tol:g}"]


def _discord_bounds(name: str, value: float, grid: float) -> list:
    """The one-sided discord oracle: -ZERO_TOL <= value <= grid + ZERO_TOL."""
    if -ZERO_TOL <= value <= grid + ZERO_TOL:
        return []
    return [f"{name} = {value!r} outside [-{ZERO_TOL:g}, grid minimum {grid!r} + {ZERO_TOL:g}]"]


class _ThetaReference:
    """Brute-force grid discords of the Z_theta instance, memoised per theta."""

    def __init__(self):
        self._memo = {}

    def __call__(self, theta: float, alpha: float) -> tuple:
        key = (theta, alpha)
        if key not in self._memo:
            rho = oracles.dqc1_state(oracles.z_theta(theta), alpha)
            self._memo[key] = (oracles.grid_discord(rho, 2, 0), oracles.grid_discord(rho, 2, 1))
        return self._memo[key]


def check_sweep_csv(text: str, *, steps: int, alpha: float, shots: int, mode: str,
                    seed: int, reference: _ThetaReference) -> list:
    lines = text.splitlines()
    prefix = "# config: "
    if not lines or not lines[0].startswith(prefix):
        return ["sweep CSV has no config line"]
    config = json.loads(lines[0][len(prefix):])
    fails = []
    for key, want in (("steps", steps), ("alpha", alpha), ("shots", shots), ("mode", mode), ("seed", seed)):
        if config.get(key) != want:
            fails.append(f"config {key} = {config.get(key)!r}, expected {want!r}")
    header = lines[1].split(",")
    rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[2:]]
    if len(rows) != steps:
        return fails + [f"sweep has {len(rows)} rows, expected {steps}"]
    thetas = [r["theta"] for r in rows]
    fails += _close("first theta", thetas[0], -math.pi, EXACT_TOL)
    fails += _close("last theta", thetas[-1], math.pi, EXACT_TOL)
    if any(b <= a for a, b in zip(thetas, thetas[1:])):
        fails.append("theta column is not increasing")
    if shots:
        # Poisson mode draws a Poisson(shots) total; below shots/2 has probability < e^-150.
        width = oracles.hoeffding_halfwidth(shots if mode == "binomial" else shots / 2, DELTA)
    for r in rows:
        th = r["theta"]
        x, y = alpha * (1.0 + math.cos(th)) / 2.0, alpha * math.sin(th) / 2.0
        fails += _close(f"re_exact at theta={th!r}", r["re_exact"], x, EXACT_TOL)
        fails += _close(f"im_exact at theta={th!r}", r["im_exact"], y, EXACT_TOL)
        if shots:
            fails += _close(f"re_est at theta={th!r}", r["re_est"], x, width)
            fails += _close(f"im_est at theta={th!r}", r["im_est"], y, width)
            fails += _close(f"re_trace at theta={th!r}", alpha * r["re_trace"], r["re_est"], EXACT_TOL)
            fails += _close(f"im_trace at theta={th!r}", alpha * r["im_trace"], r["im_est"], EXACT_TOL)
        else:
            fails += _close(f"re_est at theta={th!r}", r["re_est"], r["re_exact"], 0.0)
            fails += _close(f"im_est at theta={th!r}", r["im_est"], r["im_exact"], 0.0)
            fails += _close(f"re_trace at theta={th!r}", r["re_trace"], x / alpha, EXACT_TOL)
            fails += _close(f"im_trace at theta={th!r}", r["im_trace"], y / alpha, EXACT_TOL)
        if "tangle" in r and not 0.0 <= r["tangle"] < ZERO_TOL:
            fails.append(f"tangle = {r['tangle']!r} at theta={th!r}, expected 0")
        if "discord_rc" in r:
            grid_rc, grid_cr = reference(th, alpha)
            fails += _discord_bounds(f"discord_rc at theta={th!r}", r["discord_rc"], grid_rc)
            fails += _discord_bounds(f"discord_cr at theta={th!r}", r["discord_cr"], grid_cr)
            if min(abs(th), abs(abs(th) - math.pi)) < EXACT_TOL and r["discord_rc"] >= DISCORD_ZERO:
                fails.append(f"discord_rc = {r['discord_rc']!r} at Clifford point theta={th!r}")
        if "tomo_fidelity" in r:
            if not 0.0 <= r["tomo_fidelity"] <= 1.0:
                fails.append(f"tomo_fidelity = {r['tomo_fidelity']!r} outside [0, 1]")
            if r["tomo_discord_rc"] < -ZERO_TOL or not 0.0 <= r["tomo_tangle"] <= 1.0:
                fails.append(f"tomography correlations out of range at theta={th!r}")
    if "discord_rc" in header:
        for a, b in zip(rows[: steps // 2], reversed(rows)):
            for col in ("discord_rc", "discord_cr"):
                if abs(a[col] - b[col]) > DISCORD_ZERO:
                    fails.append(f"{col} not symmetric: {a[col]!r} at {a['theta']!r}, {b[col]!r} at {b['theta']!r}")
    return fails


class ZSweepCorr:
    """The paper's Z_theta sweep with every correlation output, one CLI call per pass."""

    name = "zsweep-corr"
    nominal_pass_s = 5.0
    steps = 61  # odd, so theta = 0 is a grid point
    alpha = 0.997
    shots = 2000

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self._reference = _ThetaReference()

    def invocations(self) -> list:
        args = ["sweep", "--outputs", "trace,discord,tangle,tomo", "--shots", str(self.shots),
                "--alpha", repr(self.alpha), "--mean-counts", "1e4", "--steps", str(self.steps),
                "--seed", str(self.seed)]
        check = lambda text: check_sweep_csv(  # noqa: E731
            text, steps=self.steps, alpha=self.alpha, shots=self.shots, mode="binomial",
            seed=self.seed, reference=self._reference)
        return [_cli(self.workdir, "sweep", args, "zsweep.csv", check, points=self.steps)]


def _random_circuit(rng: np.random.Generator, n_qubits: int, n_gates: int) -> list:
    names = ("H", "S", "X", "Z", "CZ", "CNOT")
    kinds = rng.integers(len(names), size=n_gates)
    first = rng.integers(n_qubits, size=n_gates)
    second = (first + rng.integers(1, n_qubits, size=n_gates)) % n_qubits
    return [
        {"g": names[k], "q": [int(a), int(b)]} if k >= 4 else {"g": names[k], "q": int(a)}
        for k, a, b in zip(kinds, first, second)
    ]


class CliMix:
    """Fresh short calls of every subcommand, in a fixed cycle."""

    name = "cli-mix"
    nominal_pass_s = 6.3
    sweep_steps = 41
    shots = 2000
    mean_counts = 1e4

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        self.unitary = oracles.haar_unitary(rng, 8)
        self.trace_args = (0.5 + 0.5 * rng.random(), 0.05 + 0.1 * rng.random(), 0.01 + 0.09 * rng.random())
        self.discord_args = (rng.uniform(-math.pi, math.pi), rng.uniform(0.5, 1.0))
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        purity = rng.uniform(0.7, 0.95)
        self.density = purity * np.outer(psi, psi.conj()) + (1.0 - purity) * np.eye(4) / 4.0
        self.tomo_args = (rng.uniform(-math.pi, math.pi), rng.uniform(0.5, 1.0))
        self.circuit = _random_circuit(rng, 3, 30)
        _write_json(workdir / "unitary3.json", _matrix_json(self.unitary))
        _write_json(workdir / "density2.json", _matrix_json(self.density, qubit_dims=[1, 1]))
        _write_json(workdir / "circuit3.json", {"n": 3, "gates": self.circuit})
        self._reference = _ThetaReference()
        # Known from the generated inputs alone, so computed once per run.
        theta, alpha = self.discord_args
        rho = oracles.dqc1_state(oracles.z_theta(theta), alpha)
        self.discord_grid = (oracles.grid_discord(rho, 2, 0), oracles.grid_discord(rho, 2, 1))
        self.discord_info = oracles.mutual_information(rho, 2)
        w = oracles.circuit_unitary(3, self.circuit)
        self.propagated = w @ oracles.pauli_string_matrix("ZII") @ w.conj().T

    def invocations(self) -> list:
        d, s = self.workdir, str(self.seed)
        alpha_t, eps, p_err = self.trace_args
        theta_d, alpha_d = self.discord_args
        theta_t, alpha_t2 = self.tomo_args
        steps = str(self.sweep_steps)

        def sweep_check(shots, mode):
            return lambda text: check_sweep_csv(
                text, steps=self.sweep_steps, alpha=1.0, shots=shots, mode=mode,
                seed=self.seed, reference=self._reference)

        return [
            _cli(d, "sweep-exact", ["sweep", "--steps", steps, "--seed", s], "sweep-exact.csv",
                 sweep_check(0, "binomial"), points=self.sweep_steps),
            _cli(d, "sweep-poisson", ["sweep", "--steps", steps, "--shots", str(self.shots), "--mode", "poisson",
                                      "--seed", s], "sweep-poisson.csv",
                 sweep_check(self.shots, "poisson"), points=self.sweep_steps),
            _cli(d, "trace", ["trace", str(d / "unitary3.json"), "--alpha", repr(alpha_t), "--epsilon", repr(eps),
                              "--p-error", repr(p_err), "--seed", s], "trace.json", self.check_trace),
            _cli(d, "discord", ["discord", "--theta", repr(theta_d), "--alpha", repr(alpha_d)], "discord.json",
                 self.check_discord),
            _cli(d, "tangle", ["tangle", str(d / "density2.json")], "tangle.json", self.check_tangle),
            _cli(d, "tomo", ["tomo", "--theta", repr(theta_t), "--alpha", repr(alpha_t2), "--mean-counts",
                             repr(self.mean_counts), "--seed", s], "tomo.json", self.check_tomo),
            _cli(d, "verify-clifford", ["verify-clifford", str(d / "circuit3.json")], "clifford.json",
                 self.check_clifford),
        ]

    def check_trace(self, text: str) -> list:
        r = json.loads(text)
        alpha, eps, p_err = self.trace_args
        tr = oracles.normalized_trace(self.unitary)
        shots = oracles.shots_required(eps, p_err, alpha)
        fails = [] if r["shots_used"] == shots else [f"shots_used = {r['shots_used']}, expected {shots}"]
        width = oracles.hoeffding_halfwidth(shots, DELTA)
        fails += _close("exact_re", r["exact_re"], tr.real, EXACT_TOL)
        fails += _close("exact_im", r["exact_im"], tr.imag, EXACT_TOL)
        fails += _close("raw_re", r["raw_re"], alpha * tr.real, width)
        fails += _close("raw_im", r["raw_im"], alpha * tr.imag, width)
        fails += _close("estimate_re", alpha * r["estimate_re"], r["raw_re"], EXACT_TOL)
        fails += _close("estimate_im", alpha * r["estimate_im"], r["raw_im"], EXACT_TOL)
        return fails

    def check_discord(self, text: str) -> list:
        r = json.loads(text)
        grid_rc, grid_cr = self.discord_grid
        fails = _discord_bounds("discord_rc", r["discord_rc"], grid_rc)
        fails += _discord_bounds("discord_cr", r["discord_cr"], grid_cr)
        fails += _close("mutual_info", r["mutual_info"], self.discord_info, ZERO_TOL)
        if not 0.0 <= r["tangle"] < ZERO_TOL:
            fails.append(f"tangle = {r['tangle']!r}, expected 0")
        if not (isinstance(r["optimizer_evals"], int) and r["optimizer_evals"] > 0):
            fails.append(f"optimizer_evals = {r['optimizer_evals']!r}, expected a positive count")
        return fails

    def check_tangle(self, text: str) -> list:
        r = json.loads(text)
        c = oracles.concurrence(self.density)
        return _close("concurrence", r["concurrence"], c, ZERO_TOL) + _close("tangle", r["tangle"], c * c, ZERO_TOL)

    def check_tomo(self, text: str) -> list:
        r = json.loads(text)
        theta, alpha = self.tomo_args
        rho = oracles.dqc1_state(oracles.z_theta(theta), alpha)
        run = r["run"]
        fails = []
        if len(run["settings"]) != 36 or len(run["counts"]) != 36:
            fails.append("tomography run does not have 36 settings and counts")
        for label, count in zip(run["settings"], run["counts"]):
            ket = np.kron(oracles.KETS[label[:2]], oracles.KETS[label[2:]])
            mean = self.mean_counts * float(np.real(ket.conj() @ rho @ ket))
            fails += _close(f"count {label}", count, mean, oracles.poisson_halfwidth(mean, DELTA))
        rec = r["reconstruction"]
        sigma = np.asarray(rec["re"]) + 1j * np.asarray(rec["im"])
        if np.max(np.abs(sigma - sigma.conj().T)) > ZERO_TOL or abs(np.trace(sigma) - 1.0) > ZERO_TOL:
            fails.append("reconstruction is not Hermitian with unit trace")
        if np.linalg.eigvalsh(sigma)[0] < -ZERO_TOL:
            fails.append("reconstruction is not positive semidefinite")
        fails += _close("fidelity", r["fidelity"], oracles.fidelity(sigma, rho), 1e-6)
        fails += _discord_bounds("discord_rc", r["discord_rc"], oracles.grid_discord(sigma, 2, 0))
        fails += _close("tangle", r["tangle"], oracles.concurrence(sigma) ** 2, 1e-7)
        return fails

    def check_clifford(self, text: str) -> list:
        r = json.loads(text)
        fails = []
        if r["n_qubits"] != 3 or r["n_gates"] != len(self.circuit):
            fails.append(f"circuit size {r['n_qubits']} qubits, {r['n_gates']} gates")
        pauli = r["propagated_pauli"]
        sign = {"+": 1.0, "-": -1.0}[pauli[0]]
        if np.max(np.abs(sign * oracles.pauli_string_matrix(pauli[1:]) - self.propagated)) > 1e-9:
            fails.append(f"propagated_pauli {pauli} differs from the dense W Z0 W+")
        if r["verified"] is not True:
            fails.append("circuit not verified as zero-discord")
        dense = r.get("dense_check", {})
        for key in ("discord_measure_control", "discord_measure_register"):
            if key not in dense or not -ZERO_TOL <= dense[key] < DISCORD_ZERO:
                fails.append(f"dense_check {key} = {dense.get(key)!r}, expected 0")
        return fails


class LargeRegister:
    """The public library API at large register size, one fresh process per pass."""

    name = "large-register"
    nominal_pass_s = 9.5
    max_dense_n = 10
    max_discord_n = 5  # n = 8 would ask the generic discord for 8 GiB
    json_n = 9
    clifford_qubits = 10_000
    clifford_gates = 100_000
    shots = 2000

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        self.alpha = float(rng.uniform(0.6, 1.0))
        self.traces, self.discord_grid = {}, {}
        for n in range(1, self.max_dense_n + 1):
            u = oracles.haar_unitary(rng, 2**n)
            np.save(workdir / f"u{n}.npy", u)
            self.traces[n] = oracles.normalized_trace(u)
            if n <= self.max_discord_n:
                rho = oracles.dqc1_state(u, self.alpha)
                self.discord_grid[n] = oracles.grid_discord(rho, 2, 0)
            if n == self.json_n:
                _write_json(workdir / "unitary.json", _matrix_json(u))
        gates, self.expect = self._self_inverting_circuit(rng)
        _write_json(workdir / "circuit.json", {"n": self.clifford_qubits, "gates": gates})
        self.n_gates = len(gates)
        _write_json(workdir / "spec.json", {
            "alpha": self.alpha, "shots": self.shots, "seed": seed, "max_dense_n": self.max_dense_n,
            "max_discord_n": self.max_discord_n, "json_n": self.json_n,
        })

    def _self_inverting_circuit(self, rng: np.random.Generator):
        """W, then W^-1, then H(0) and maybe S(0): Z0 ends as +X0 or +Y0."""
        tail = [{"g": "H", "q": 0}]
        if rng.random() < 0.5:
            tail.append({"g": "S", "q": 0})
        # Each gate costs itself plus its inverse, and S^-1 = S^3.
        candidates = _random_circuit(rng, self.clifford_qubits, self.clifford_gates // 2)
        cost = np.cumsum([4 if g["g"] == "S" else 2 for g in candidates])
        forward = candidates[: int(np.searchsorted(cost, self.clifford_gates - len(tail), side="right"))]
        inverse = [u for g in reversed(forward) for u in [g] * (3 if g["g"] == "S" else 1)]
        return forward + inverse + tail, "X" if len(tail) == 1 else "Y"

    def invocations(self) -> list:
        out = self.workdir / "large-register.json"
        points = self.max_dense_n + self.max_discord_n
        return [Invocation("large-register", "large_register", [str(self.workdir), str(out)], out,
                           self.check, points=points)]

    def check(self, text: str) -> list:
        r = json.loads(text)
        a = self.alpha
        fails = []
        width = oracles.hoeffding_halfwidth(self.shots, DELTA)
        for row in r["dense"]:
            n, tr = row["n"], self.traces[row["n"]]
            fails += _close(f"exact x at n={n}", row["exact"][0], a * tr.real, EXACT_TOL)
            fails += _close(f"exact y at n={n}", row["exact"][1], a * tr.imag, EXACT_TOL)
            fails += _close(f"sampled x at n={n}", a * row["estimate"][0], a * tr.real, width)
            fails += _close(f"sampled y at n={n}", a * row["estimate"][1], a * tr.imag, width)
            off = a * tr / 2.0
            want = [[0.5, 0.0], [off.real, -off.imag], [off.real, off.imag], [0.5, 0.0]]
            for k, (got, exp) in enumerate(zip(row["reduced_control"], want)):
                fails += _close(f"reduced_control[{k}] at n={n}", complex(*got), complex(*exp), EXACT_TOL)
            fails += _close(f"output_state at n={n}", row["state_error"], 0.0, EXACT_TOL)
        if [row["n"] for row in r["dense"]] != list(range(1, self.max_dense_n + 1)):
            fails.append("dense ladder is incomplete")
        for row in r["discord"]:
            fails += _discord_bounds(f"discord at n={row['n']}", row["value"], self.discord_grid[row["n"]])
        if [row["n"] for row in r["discord"]] != list(range(1, self.max_discord_n + 1)):
            fails.append("discord ladder is incomplete")
        uj = r["unitary_json"]
        if uj["n"] != self.json_n or uj["max_abs_diff"] != 0.0:
            fails.append(f"unitary read from JSON differs: {uj}")
        c = r["clifford"]
        want = [a, 0.0] if self.expect == "X" else [0.0, a]
        if (c["n_qubits"], c["n_gates"]) != (self.clifford_qubits, self.n_gates):
            fails.append(f"circuit size {c['n_qubits']} qubits, {c['n_gates']} gates")
        if (c["phase"], c["head"], c["rest_identity"]) != (1, self.expect, True):
            fails.append(f"propagated Z0 is {c['phase']:+d}{c['head']}..., expected +{self.expect}I...I")
        if c["expectations"] != want:
            fails.append(f"Clifford expectations {c['expectations']}, expected exactly {want}")
        return fails


WORKLOADS = {w.name: w for w in (ZSweepCorr, CliMix, LargeRegister)}
