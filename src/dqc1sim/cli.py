"""Command-line surface: sweeps, trace estimation, correlation analysis.

Every output embeds the resolved configuration and seed, and repeated runs
with identical arguments are byte-identical. Numeric CSV columns use 17
significant digits so downstream plotting is language-neutral.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .correlations import MEASURE_CONTROL, MEASURE_REGISTER, correlation_report, discord, tangle, concurrence
from .clifford import circuit_from_json, verify_zero_discord
from .dqc1 import exact_expectations, normalized_trace, output_state, z_theta
from .qmath import fidelity
from .sampling import SAMPLING_MODES, estimate_trace, shots_required
from .serialize import (
    density_from_json,
    density_to_json,
    load_json,
    unitary_from_json,
)
from .tomography import reconstruct, simulate_counts

SWEEP_OUTPUTS = ("trace", "discord", "tangle", "tomo")

BASE_COLUMNS = (
    "theta", "alpha", "re_exact", "im_exact", "re_est", "im_est",
    "shots", "seed", "re_trace", "im_trace",
)


@dataclass(frozen=True)
class SweepConfig:
    """Resolved settings for a theta sweep."""

    theta_min: float
    theta_max: float
    steps: int
    alpha: float
    shots: int
    seed: int
    outputs: tuple[str, ...]
    mean_counts: float = 1e4
    mode: str = "binomial"

    def __post_init__(self):
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        if not -np.inf < self.theta_min < self.theta_max < np.inf:
            raise ValueError(
                "theta_min and theta_max must be finite with theta_min < theta_max, "
                f"got {self.theta_min} and {self.theta_max}"
            )
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.shots < 0:
            raise ValueError(f"shots must be >= 0, got {self.shots}")
        if self.mode not in SAMPLING_MODES:
            raise ValueError(f"mode must be one of {SAMPLING_MODES}, got {self.mode!r}")
        bad = set(self.outputs) - set(SWEEP_OUTPUTS)
        if bad:
            raise ValueError(f"unknown sweep outputs {sorted(bad)}; choose from {SWEEP_OUTPUTS}")

    @property
    def thetas(self) -> np.ndarray:
        return np.linspace(self.theta_min, self.theta_max, self.steps)

    @property
    def columns(self) -> tuple[str, ...]:
        cols = list(BASE_COLUMNS)
        if "discord" in self.outputs:
            cols += ["discord_rc", "discord_cr"]
        if "tangle" in self.outputs:
            cols += ["tangle"]
        if "tomo" in self.outputs:
            cols += ["tomo_fidelity", "tomo_discord_rc", "tomo_tangle"]
        return tuple(cols)

    def to_dict(self) -> dict:
        return {
            "command": "sweep",
            "theta_min": self.theta_min,
            "theta_max": self.theta_max,
            "steps": self.steps,
            "alpha": self.alpha,
            "shots": self.shots,
            "seed": self.seed,
            "outputs": sorted(self.outputs),
            "mean_counts": self.mean_counts,
            "mode": self.mode,
        }


def sweep_point(config: SweepConfig, index: int) -> dict:
    """All requested quantities for one theta grid point."""
    theta = float(config.thetas[index])
    u = z_theta(theta)
    x, y = exact_expectations(u, config.alpha)
    row = {
        "theta": theta,
        "alpha": config.alpha,
        "re_exact": x,
        "im_exact": y,
        "shots": config.shots,
        "seed": config.seed,
    }
    if config.shots > 0:
        est = estimate_trace(
            u, config.alpha, config.shots,
            np.random.SeedSequence([config.seed, index]),
            mode=config.mode,
        )
        row["re_est"] = config.alpha * est.real
        row["im_est"] = config.alpha * est.imag
        row["re_trace"] = est.real
        row["im_trace"] = est.imag
    else:
        exact = normalized_trace(u)
        row["re_est"] = x
        row["im_est"] = y
        row["re_trace"] = exact.real
        row["im_trace"] = exact.imag
    needs_state = {"discord", "tangle", "tomo"} & set(config.outputs)
    if needs_state:
        rho = output_state(u, config.alpha)
        if "discord" in config.outputs:
            row["discord_rc"] = discord(rho, MEASURE_CONTROL)
            row["discord_cr"] = discord(rho, MEASURE_REGISTER)
        if "tangle" in config.outputs:
            row["tangle"] = tangle(rho)
        if "tomo" in config.outputs:
            run = simulate_counts(
                rho, config.mean_counts,
                np.random.SeedSequence([config.seed, index, 1]),
            )
            recon = reconstruct(run)
            row["tomo_fidelity"] = fidelity(recon, rho)
            row["tomo_discord_rc"] = discord(recon, MEASURE_CONTROL)
            row["tomo_tangle"] = tangle(recon)
    return row


def _sweep_worker(payload) -> dict:
    config, index = payload
    return sweep_point(config, index)


def sweep_workers(jobs: int, steps: int, cpus: int) -> int:
    """Worker processes for a sweep: jobs, capped by the points and the cores.

    0 and 1 both mean in-process; negative values are rejected.
    """
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return max(1, min(jobs, steps, cpus))


def sweep_rows(config: SweepConfig, jobs: int = 1) -> list[dict]:
    """Rows in theta order; points are independent, so jobs > 1 is safe."""
    indices = range(config.steps)
    workers = sweep_workers(jobs, config.steps, os.cpu_count() or 1)
    if workers == 1:
        return [sweep_point(config, i) for i in indices]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_sweep_worker, [(config, i) for i in indices]))


def _fmt(value) -> str:
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _render_csv(config_dict: dict, columns, rows) -> str:
    lines = ["# config: " + json.dumps(config_dict, sort_keys=True)]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_output(path, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write output file {str(path)!r}: {exc.strerror or exc}") from None


def _load_state(args):
    if args.state is not None:
        return density_from_json(load_json(args.state))
    if args.theta is None:
        raise ValueError("provide a state JSON file or --theta")
    return output_state(z_theta(args.theta), args.alpha)


def _state_config(args, command: str) -> dict:
    cfg = {"command": command, "seed": args.seed}
    if args.state is not None:
        cfg["state"] = str(args.state)
    else:
        cfg["theta"] = args.theta
        cfg["alpha"] = args.alpha
    return cfg


def _cmd_sweep(args) -> int:
    config = SweepConfig(
        theta_min=args.theta_min,
        theta_max=args.theta_max,
        steps=args.steps,
        alpha=args.alpha,
        shots=args.shots,
        seed=args.seed,
        outputs=tuple(sorted(set(args.outputs.split(",")))),
        mean_counts=args.mean_counts,
        mode=args.mode,
    )
    rows = sweep_rows(config, jobs=args.jobs)
    if args.format in (None, "csv"):
        text = _render_csv(config.to_dict(), config.columns, rows)
    else:
        text = _render_json(
            {"config": config.to_dict(), "columns": list(config.columns), "rows": rows}
        )
    _write_output(args.out, text)
    return 0


def _cmd_trace(args) -> int:
    _require_json_format(args, "trace")
    u = unitary_from_json(load_json(args.unitary))
    shots = shots_required(args.epsilon, args.p_error, args.alpha)
    est = estimate_trace(u, args.alpha, shots, args.seed, mode=args.mode)
    exact = normalized_trace(u)
    report = {
        "config": {
            "command": "trace",
            "unitary": str(args.unitary),
            "alpha": args.alpha,
            "epsilon": args.epsilon,
            "p_error": args.p_error,
            "seed": args.seed,
            "mode": args.mode,
        },
        "shots_used": shots,
        "estimate_re": est.real,
        "estimate_im": est.imag,
        "raw_re": args.alpha * est.real,
        "raw_im": args.alpha * est.imag,
        "exact_re": exact.real,
        "exact_im": exact.imag,
        "abs_error": abs(est - exact),
    }
    _write_output(args.out, _render_json(report))
    return 0


def _cmd_discord(args) -> int:
    _require_json_format(args, "discord")
    rho = _load_state(args)
    report = correlation_report(rho).to_dict()
    report["config"] = _state_config(args, "discord")
    _write_output(args.out, _render_json(report))
    return 0


def _cmd_tangle(args) -> int:
    _require_json_format(args, "tangle")
    rho = _load_state(args)
    report = {
        "config": _state_config(args, "tangle"),
        "concurrence": concurrence(rho),
        "tangle": tangle(rho),
    }
    _write_output(args.out, _render_json(report))
    return 0


def _cmd_tomo(args) -> int:
    _require_json_format(args, "tomo")
    rho = _load_state(args)
    run = simulate_counts(rho, args.mean_counts, args.seed)
    recon = reconstruct(run)
    report = {
        "config": {**_state_config(args, "tomo"), "mean_counts": args.mean_counts},
        "run": run.to_json(),
        "reconstruction": density_to_json(recon),
        "fidelity": fidelity(recon, rho),
        "discord_rc": discord(recon, MEASURE_CONTROL),
        "tangle": tangle(recon),
    }
    report["run"]["seed"] = args.seed
    _write_output(args.out, _render_json(report))
    return 0


def _cmd_verify_clifford(args) -> int:
    _require_json_format(args, "verify-clifford")
    circuit = circuit_from_json(load_json(args.circuit))
    report = verify_zero_discord(circuit)
    report["config"] = {
        "command": "verify-clifford",
        "circuit": str(args.circuit),
        "seed": args.seed,
    }
    _write_output(args.out, _render_json(report))
    return 0


def _require_json_format(args, command: str) -> None:
    if args.format == "csv":
        raise ValueError(f"{command} emits JSON only; drop --format csv")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed (nonnegative)")
    parser.add_argument("--jobs", type=int, default=1, help="parallel workers for sweeps")
    parser.add_argument("--out", default="-", help="output path, - for stdout")
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format (sweep only; reports are JSON)")


def _add_state_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("state", nargs="?", default=None,
                        help="density-matrix JSON file; omit to build a circuit output")
    parser.add_argument("--theta", type=float, default=None,
                        help="phase angle for the built-in Z_theta instance")
    parser.add_argument("--alpha", type=float, default=1.0, help="control purity")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqc1sim",
        description="One-clean-qubit trace-estimation simulator and analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="theta sweep with exact and sampled outputs")
    p.add_argument("--theta-min", type=float, default=-np.pi)
    p.add_argument("--theta-max", type=float, default=np.pi)
    p.add_argument("--steps", type=int, default=41)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--shots", type=int, default=0, help="shots per quadrature, 0 = exact")
    p.add_argument("--outputs", default="trace",
                   help="comma list from trace,discord,tangle,tomo")
    p.add_argument("--mean-counts", type=float, default=1e4, dest="mean_counts")
    p.add_argument("--mode", choices=SAMPLING_MODES, default="binomial",
                   help="shot noise model")
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("trace", help="estimate the normalized trace of a unitary")
    p.add_argument("unitary", help="unitary matrix JSON file")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--p-error", type=float, default=0.05, dest="p_error")
    p.add_argument("--mode", choices=SAMPLING_MODES, default="binomial",
                   help="shot noise model")
    _add_common(p)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("discord", help="full correlation report for a two-qubit state")
    _add_state_source(p)
    _add_common(p)
    p.set_defaults(func=_cmd_discord)

    p = sub.add_parser("tangle", help="concurrence and tangle of a two-qubit state")
    _add_state_source(p)
    _add_common(p)
    p.set_defaults(func=_cmd_tangle)

    p = sub.add_parser("tomo", help="simulate tomography and reconstruct")
    _add_state_source(p)
    p.add_argument("--mean-counts", type=float, default=1e4, dest="mean_counts")
    _add_common(p)
    p.set_defaults(func=_cmd_tomo)

    p = sub.add_parser("verify-clifford", help="zero-discord report for a Clifford circuit")
    p.add_argument("circuit", help="circuit JSON file")
    _add_common(p)
    p.set_defaults(func=_cmd_verify_clifford)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(error) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
