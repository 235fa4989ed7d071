#!/usr/bin/env python3
"""Write the golden correlation fixtures under tests/fixtures/: how the
committed ones were made.

Each fixture stores a two-qubit state, the four pinned values of the
package's correlation report at generation time (regression pin), and an
independent brute-force value for the discord on a grid of explicit
projectors. The oracle and the witness and Werner states come from
tests/reference_oracles.py, shared with the tests and sharing no code with
the package.

The committed fixtures are frozen records, and the tests pin them without
regenerating them. A run no longer reproduces them: it writes another
oracle method string and values that move in their last bits, because the
oracles have moved since the fixtures were written. Do not commit a rerun.
tests/test_scripts.py checks that fixture_states() still equals the
committed states within 1e-15.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from dqc1sim import DensityMatrix, correlation_report, output_state, z_theta
from dqc1sim.serialize import density_to_json
from reference_oracles import oracle_discord, werner_matrix, witness_matrix

FIXTURE_DIR = ROOT / "tests" / "fixtures"

# The report values tests/test_correlations.py pins at 1e-7; the fixture
# stores these and nothing else of the report.
PINNED = ("mutual_info", "discord_rc", "discord_cr", "tangle")

GRID_POLAR = 800
GRID_AZIMUTH = 1600


def fixture_states() -> dict[str, DensityMatrix]:
    return {
        "dqc1_quarter_phase": output_state(z_theta(np.pi / 2), 1.0),
        "dqc1_third_phase_alpha_0p997": output_state(z_theta(np.pi / 3), 0.997),
        "classical_quantum_witness": DensityMatrix(witness_matrix(), (1, 1)),
        "werner_p0p8": DensityMatrix(werner_matrix(0.8), (1, 1)),
    }


def main() -> int:
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    for name, rho in fixture_states().items():
        full = correlation_report(rho)
        report = {key: full[key] for key in PINNED}
        grid_discord = [oracle_discord(rho.entries, rho.subsystem_dims, measured,
                                       GRID_POLAR, GRID_AZIMUTH) for measured in (0, 1)]
        fixture = {
            "name": name,
            "state": density_to_json(rho),
            "report": report,
            "oracle": {
                "discord_rc_grid": grid_discord[0],
                "discord_cr_grid": grid_discord[1],
                "grid": [GRID_POLAR, GRID_AZIMUTH],
                "method": "dense projector grid, eigvalsh",
            },
            "provenance": "generated by scripts/make_golden_fixtures.py",
        }
        path = FIXTURE_DIR / f"{name}.json"
        path.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
        print(f"  report: discord_rc={report['discord_rc']:.9f} discord_cr={report['discord_cr']:.9f}")
        oracle = fixture["oracle"]
        print(f"  oracle: discord_rc={oracle['discord_rc_grid']:.9f} "
              f"discord_cr={oracle['discord_cr_grid']:.9f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
