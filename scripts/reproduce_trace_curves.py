#!/usr/bin/env python3
"""Trace-estimation curves for a pure and a partially mixed control qubit.

Runs `dqc1sim sweep` over theta in [-pi, pi] for alpha = 1.0 and
alpha = 0.58, with a finite shot budget chosen from the accuracy target,
reads each sweep CSV back, and prints the reduced chi-square of the
sampled points against the ideal curves (three fitted degrees of freedom:
amplitude, frequency, phase). Exits 1 if a sweep fails.

Usage: python3 scripts/reproduce_trace_curves.py [outdir]
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dqc1sim import chi2_reduced, shots_required
from dqc1sim.cli import main as cli_main

EPSILON = 0.1
P_ERROR = 0.05
SEED = 2026
STEPS = 41


def run_alpha(alpha: float, outdir: Path) -> None:
    shots = shots_required(EPSILON, P_ERROR, alpha)
    path = outdir / f"trace_alpha_{alpha:.2f}.csv"
    if cli_main(["sweep", f"--theta-min={-np.pi!r}", f"--theta-max={np.pi!r}",
                  f"--steps={STEPS}", f"--alpha={alpha!r}", f"--shots={shots}",
                  f"--seed={SEED}", "--outputs=trace", "--out", str(path)]):
        sys.exit(1)
    # the columns by name, past the config line; %.17g reads back exactly
    columns = np.genfromtxt(path, delimiter=",", skip_header=1, names=True)

    for part in ("re", "im"):
        observed = columns[f"{part}_est"]
        expected = columns[f"{part}_exact"]
        prob = (1.0 + expected) / 2.0
        sigma = np.clip(2.0 * np.sqrt(prob * (1.0 - prob) / shots), 1e-4, None)
        chi2 = chi2_reduced(observed, expected, sigma)
        print(
            f"alpha={alpha:.2f} {part}: shots={shots} "
            f"reduced chi2={chi2:.2f} over {len(observed)} points"
        )
    print(f"  wrote {path}")


def main() -> int:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out")
    outdir.mkdir(parents=True, exist_ok=True)
    for alpha in (1.0, 0.58):
        run_alpha(alpha, outdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
