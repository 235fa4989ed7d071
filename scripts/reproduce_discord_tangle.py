#!/usr/bin/env python3
"""Discord and tangle across the theta sweep at alpha = 0.997.

Runs `dqc1sim sweep` over theta in [-pi, pi] and summarises the CSV it
writes, read back: the tangle stays at zero for every theta while the
control-side discord vanishes only at the Clifford points theta in
{0, +-pi}. With --tomo the sweep also reconstructs each output state from
simulated Poissonian tomography counts, and the summary reports the
recovered discord. Exits 1 if the sweep fails.

Usage: python3 scripts/reproduce_discord_tangle.py [outdir] [--tomo]
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dqc1sim.cli import main as cli_main

ALPHA = 0.997
SEED = 2026
STEPS = 41


def main() -> int:
    args = [a for a in sys.argv[1:] if a != "--tomo"]
    with_tomo = "--tomo" in sys.argv[1:]
    outdir = Path(args[0]) if args else Path("out")
    outdir.mkdir(parents=True, exist_ok=True)

    outputs = "trace,discord,tangle" + (",tomo" if with_tomo else "")
    path = outdir / "discord_tangle_alpha_0.997.csv"
    if cli_main(["sweep", f"--theta-min={-np.pi!r}", f"--theta-max={np.pi!r}",
                  f"--steps={STEPS}", f"--alpha={ALPHA!r}", "--shots=0", f"--seed={SEED}",
                  f"--outputs={outputs}", "--mean-counts=1e4", "--out", str(path)]):
        return 1
    # the columns by name, past the config line; %.17g reads back exactly
    columns = np.genfromtxt(path, delimiter=",", skip_header=1, names=True)

    discords = columns["discord_rc"]
    tangles = columns["tangle"]
    thetas = columns["theta"]
    peak = thetas[int(np.argmax(discords))]
    print(f"max tangle over sweep: {tangles.max():.2e}")
    print(f"discord peak {discords.max():.6f} at theta = {peak:.3f}")
    zero_points = discords[np.isin(np.round(np.abs(thetas), 12), [0.0, round(np.pi, 12)])]
    print(f"discord at theta in {{0, +-pi}}: max {zero_points.max():.2e}")
    if with_tomo:
        recon_dev = np.abs(columns["tomo_discord_rc"] - discords)
        print(f"tomographic discord deviation: mean {recon_dev.mean():.4f}, "
              f"max {recon_dev.max():.4f}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
