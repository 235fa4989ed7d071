"""Command-line surface: sweeps, trace estimation, correlation analysis.

Every output embeds the resolved configuration, which _config alone builds:
every argument the command parsed, defaults included, except --out and
--format. The seed is among them wherever numbers are drawn, and repeated
runs with identical arguments are byte-identical. Numeric CSV columns use
17 significant digits so downstream plotting is language-neutral.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .correlations import (
    MEASURE_CONTROL, MEASURE_REGISTER, STACK_STATES, concurrence, correlation_report, discord,
    stack_discords, stack_tangle, tangle,
)
from .clifford import circuit_from_json, verify_zero_discord
from .dqc1 import exact_expectations, normalized_trace, output_state, z_theta
from .qmath import check_integer, check_range, fidelity, stack_fidelity
from .sampling import (
    SAMPLING_MODES, check_mode, check_pure_fraction, check_shots, estimate_trace, shots_required,
)
from .serialize import (
    density_from_json,
    density_to_json,
    load_json,
    unitary_from_json,
)
from .tomography import (
    SETTING_LABELS, check_mean_counts, pair_frequencies, reconstruct, simulate_counts,
    stack_reconstruct,
)

SWEEP_OUTPUTS = ("trace", "discord", "tangle", "tomo")
# Largest sweep grid, so that no --steps makes a sweep's time or memory
# unbounded: the columns are held in memory until rendered (a sweep of every
# output peaks at 68.5 MB RSS at 10 000 steps and 190.8 MB at 100 000), and
# the state columns are computed STACK_STATES = 1024 points at a time.
MAX_STEPS = 100_000

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
    mean_counts: float
    mode: str

    def __post_init__(self):
        check_integer("steps", self.steps, 2, MAX_STEPS)
        check_integer("seed", self.seed, 0)
        check_range("theta_min", self.theta_min)
        check_range("theta_max", self.theta_max)
        if not self.theta_min < self.theta_max:
            raise ValueError(
                f"theta_min must be < theta_max, got {self.theta_min} and {self.theta_max}"
            )
        check_range("theta_max - theta_min", self.theta_max - self.theta_min)
        check_range("alpha", self.alpha, 0.0, 1.0)
        check_mean_counts(self.mean_counts)
        check_shots(self.shots)
        check_mode(self.mode)
        bad = set(self.outputs) - set(SWEEP_OUTPUTS)
        if bad:
            raise ValueError(f"unknown sweep outputs {sorted(bad)}; choose from {SWEEP_OUTPUTS}")
        check_pure_fraction(self.alpha, self.shots)

    @cached_property
    def thetas(self) -> np.ndarray:
        """The theta grid, built on first use and kept for every point."""
        return np.linspace(self.theta_min, self.theta_max, self.steps)


def sweep_point(config: SweepConfig, index: int) -> tuple:
    """The steps of one theta grid point that run point by point: the exact
    expectations x and y, the trace estimate est and, when the outputs need
    them, the output state and the pair_frequencies of its tomography counts
    (else None), as (x, y, est, rho, freqs). Every error of a sweep is
    raised here: it keeps its class and names the point's theta."""
    theta = float(config.thetas[index])
    try:
        u = z_theta(theta)
        x, y = exact_expectations(u, config.alpha)
        est = estimate_trace(
            u, config.alpha, config.shots,
            np.random.SeedSequence([config.seed, index]),
            mode=config.mode,
        )
        rho = freqs = None
        if {"discord", "tangle", "tomo"} & set(config.outputs):
            rho = output_state(u, config.alpha)
        if "tomo" in config.outputs:
            freqs = pair_frequencies(simulate_counts(
                rho, config.mean_counts, np.random.SeedSequence([config.seed, index, 1]),
            ))
    except ValueError as exc:
        raise type(exc)(f"at theta={theta!r}: {exc}") from None
    return x, y, est, rho, freqs


def _sweep_chunk(config: SweepConfig, indices: range) -> dict:
    """The columns of the grid points in indices, one 1-D array each, in
    column order: sweep_point runs at each point, then the discord, tangle
    and tomography columns come from stacked calls over all their states."""
    x, y, est, rhos, freqs = zip(*[sweep_point(config, index) for index in indices])
    est = np.array(est)
    n = len(indices)
    columns = {
        "theta": config.thetas[indices.start:indices.stop],
        "alpha": np.full(n, config.alpha),
        "re_exact": np.array(x),
        "im_exact": np.array(y),
        "re_est": config.alpha * est.real,
        "im_est": config.alpha * est.imag,
        "shots": np.full(n, config.shots),
        "seed": np.full(n, config.seed),
        "re_trace": est.real,
        "im_trace": est.imag,
    }
    if rhos[0] is None:
        return columns
    states = np.array([rho.entries for rho in rhos])
    qubit_dims = rhos[0].qubit_dims
    if "discord" in config.outputs:
        _, [(columns["discord_rc"], _, _), (columns["discord_cr"], _, _)] = stack_discords(
            states, qubit_dims, (MEASURE_CONTROL, MEASURE_REGISTER))
    if "tangle" in config.outputs:
        columns["tangle"] = stack_tangle(states)
    if "tomo" in config.outputs:
        recons = stack_reconstruct(np.stack(freqs))
        columns["tomo_fidelity"] = stack_fidelity(recons, states)
        _, [(columns["tomo_discord_rc"], _, _)] = stack_discords(recons, qubit_dims, (MEASURE_CONTROL,))
        columns["tomo_tangle"] = stack_tangle(recons)
    return columns


def sweep_columns(config: SweepConfig) -> dict[str, list]:
    """Each column's values in theta order, by column name in column order.
    The grid is cut into chunks of STACK_STATES points, each run by
    _sweep_chunk. Only sweep_point raises, point by point in theta order, so
    a sweep that fails reports its first failing point."""
    chunks = [_sweep_chunk(config, range(start, min(start + STACK_STATES, config.steps)))
              for start in range(0, config.steps, STACK_STATES)]
    return {name: np.concatenate([chunk[name] for chunk in chunks]).tolist() for name in chunks[0]}


def _fmt(value) -> str:
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def render_csv(config_dict: dict, columns: dict) -> str:
    """The config line, the header of column names, then one line per theta."""
    lines = ["# config: " + json.dumps(config_dict, sort_keys=True), ",".join(columns)]
    lines += [",".join(map(_fmt, row)) for row in zip(*columns.values())]
    return "\n".join(lines) + "\n"


def _render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_output(path, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write output file {str(path)!r}: {exc.strerror or exc}") from None


def _config(args) -> dict:
    """The one config rule: every argument the command parsed that has a
    value, except --out, --format and the dispatch function."""
    return {k: v for k, v in vars(args).items()
            if v is not None and k not in ("out", "format", "func")}


def _report(args, body: dict) -> str:
    """A JSON report: the body and the command's config. Called once the
    handler has run, so the config holds what _state wrote into args."""
    return _render_json({**body, "config": _config(args)})


def _state(args):
    """The state from a JSON file, or the Z_theta output built from --theta
    and --alpha, never both. The --alpha default, 1.0, is written into args
    so that the config shows it."""
    if args.state is not None:
        if args.theta is not None or args.alpha is not None:
            raise ValueError("give a state JSON file or --theta/--alpha, not both")
        return density_from_json(load_json(args.state))
    if args.theta is None:
        raise ValueError("provide a state JSON file or --theta")
    if args.alpha is None:
        args.alpha = 1.0
    return output_state(z_theta(args.theta), args.alpha)


def _cmd_sweep(args) -> str:
    config = SweepConfig(**{f.name: getattr(args, f.name) for f in fields(SweepConfig)})
    columns = sweep_columns(config)
    if args.format == "csv":
        return render_csv(_config(args), columns)
    rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
    return _report(args, {"columns": list(columns), "rows": rows})


def _cmd_trace(args) -> str:
    u = unitary_from_json(load_json(args.unitary))
    shots = shots_required(args.epsilon, args.p_error, args.alpha)
    est = estimate_trace(u, args.alpha, shots, args.seed, mode=args.mode)
    exact = normalized_trace(u)
    return _report(args, {
        "shots_used": shots,
        "estimate_re": est.real,
        "estimate_im": est.imag,
        "raw_re": args.alpha * est.real,
        "raw_im": args.alpha * est.imag,
        "exact_re": exact.real,
        "exact_im": exact.imag,
        "abs_error": abs(est - exact),
    })


def _cmd_discord(args) -> str:
    return _report(args, correlation_report(_state(args)))


def _cmd_tangle(args) -> str:
    c = concurrence(_state(args))
    return _report(args, {"concurrence": c, "tangle": c * c})


def _cmd_tomo(args) -> str:
    rho = _state(args)
    counts = simulate_counts(rho, args.mean_counts, args.seed)
    recon = reconstruct(counts)
    return _report(args, {
        "run": {
            "settings": list(SETTING_LABELS),
            "counts": [int(c) for c in counts],
            "mean": args.mean_counts,
            "seed": args.seed,
        },
        "reconstruction": density_to_json(recon),
        "fidelity": fidelity(recon, rho),
        "discord_rc": discord(recon, MEASURE_CONTROL),
        "tangle": tangle(recon),
    })


def _cmd_verify_clifford(args) -> str:
    circuit = circuit_from_json(load_json(args.circuit))
    return _report(args, verify_zero_discord(circuit))


def _seed(text: str) -> int:
    """--seed as an int >= 0, the only seeds numpy's generators take."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be a nonnegative integer, got {text!r}")
    return seed


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default="-", help="output path, - for stdout")


def _add_state_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("state", nargs="?", default=None,
                        help="density-matrix JSON file; omit to build a circuit output")
    parser.add_argument("--theta", type=float, default=None,
                        help="phase angle for the built-in Z_theta instance")
    parser.add_argument("--alpha", type=float, default=None,
                        help="control purity with --theta (default 1.0)")


class _Parser(argparse.ArgumentParser):
    """Raises a bad argument as ValueError, so main reports it as one JSON
    line with exit 1 like every other input error; subparsers inherit it.
    Reads -1e-3 as a number, not a flag, on every Python (3.11's argparse does not)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(?:\d+|\d*\.\d+)(?:[eE][+-]?\d+)?$")

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
                   type=lambda text: tuple(sorted(set(text.split(",")))),
                   help="comma list from trace,discord,tangle,tomo")
    p.add_argument("--mean-counts", type=float, default=1e4, dest="mean_counts")
    p.add_argument("--mode", choices=SAMPLING_MODES, default="binomial",
                   help="shot noise model")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    p.add_argument("--seed", type=_seed, default=0, help="master RNG seed (nonnegative)")
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("trace", help="estimate the normalized trace of a unitary")
    p.add_argument("unitary", help="unitary matrix JSON file")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--p-error", type=float, default=0.05, dest="p_error")
    p.add_argument("--mode", choices=SAMPLING_MODES, default="binomial",
                   help="shot noise model")
    p.add_argument("--seed", type=_seed, default=0, help="master RNG seed (nonnegative)")
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
    p.add_argument("--seed", type=_seed, default=0, help="master RNG seed (nonnegative)")
    _add_common(p)
    p.set_defaults(func=_cmd_tomo)

    p = sub.add_parser("verify-clifford", help="zero-discord report for a Clifford circuit")
    p.add_argument("circuit", help="circuit JSON file")
    _add_common(p)
    p.set_defaults(func=_cmd_verify_clifford)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _write_output(args.out, args.func(args))
        return 0
    except (ValueError, OSError) as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(error) + "\n")
        return 1
