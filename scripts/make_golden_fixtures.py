#!/usr/bin/env python3
"""Regenerate the golden correlation fixtures under tests/fixtures/.

Each fixture stores a two-qubit state, the four pinned values of the
package's correlation report at generation time (regression pin), and an
independent brute-force grid value for the discord. The oracle here builds
explicit projectors and uses closed-form 2x2 eigenvalues, sharing no code
with the package optimizer.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dqc1sim import DensityMatrix, correlation_report, output_state, pure_state, z_theta
from dqc1sim.serialize import density_to_json

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "tests" / "fixtures"

# The report values tests/test_correlations.py pins at 1e-7; the fixture
# stores these and nothing else of the report.
PINNED = ("mutual_info", "discord_rc", "discord_cr", "tangle")

GRID_POLAR = 800
GRID_AZIMUTH = 1600

I2 = np.eye(2, dtype=complex)
PX = np.array([[0, 1], [1, 0]], dtype=complex)
PY = np.array([[0, -1j], [1j, 0]], dtype=complex)
PZ = np.array([[1, 0], [0, -1]], dtype=complex)


def entropy_bits(mat: np.ndarray) -> float:
    lam = np.clip(np.linalg.eigvalsh(mat), 0.0, None)
    lam = lam[lam > 0]
    return float(-(lam * np.log2(lam)).sum())


def eig2x2(batch: np.ndarray):
    """Closed-form eigenvalues of a batch of 2x2 Hermitian matrices."""
    a = batch[..., 0, 0].real
    d = batch[..., 1, 1].real
    off = np.abs(batch[..., 0, 1])
    mean = (a + d) / 2.0
    rad = np.sqrt(((a - d) / 2.0) ** 2 + off**2)
    return mean - rad, mean + rad


def oracle_grid_discord(rho: DensityMatrix, measured: int) -> float:
    m = rho.entries
    polar = np.linspace(0.0, np.pi, GRID_POLAR)
    azim = np.linspace(0.0, 2.0 * np.pi, GRID_AZIMUTH, endpoint=False)
    pg, ag = np.meshgrid(polar, azim, indexing="ij")
    nx = (np.sin(pg) * np.cos(ag)).ravel()
    ny = (np.sin(pg) * np.sin(ag)).ravel()
    nz = np.cos(pg).ravel()
    proj = 0.5 * (
        I2[None, :, :]
        + nx[:, None, None] * PX
        + ny[:, None, None] * PY
        + nz[:, None, None] * PZ
    )

    total = np.zeros(len(nx))
    for branch in (proj, I2[None, :, :] - proj):
        if measured == 0:
            full = np.einsum("gij,kl->gikjl", branch, I2).reshape(-1, 4, 4)
        else:
            full = np.einsum("ij,gkl->gikjl", I2, branch).reshape(-1, 4, 4)
        after = np.einsum("gij,jk,gkl->gil", full, m, full)
        t = after.reshape(-1, 2, 2, 2, 2)
        cond = np.einsum("giaib->gab", t) if measured == 0 else np.einsum("garbr->gab", t)
        p = np.einsum("gaa->g", cond).real
        lo, hi = eig2x2(cond)
        val = np.zeros(len(p))
        for lam in (np.clip(lo, 0.0, None), np.clip(hi, 0.0, None)):
            with np.errstate(divide="ignore", invalid="ignore"):
                term = lam * (np.log2(lam) - np.log2(p))
            val -= np.where(lam > 0, term, 0.0)
        total += val
    hmin = float(total.min())

    t = m.reshape(2, 2, 2, 2)
    rho_c = np.einsum("arbr->ab", t)
    rho_r = np.einsum("iaib->ab", t)
    info = entropy_bits(rho_c) + entropy_bits(rho_r) - entropy_bits(m)
    h_other = entropy_bits(rho_r if measured == 0 else rho_c)
    return info - (h_other - hmin)


def fixture_states() -> dict[str, DensityMatrix]:
    zero = np.zeros((2, 2), dtype=complex)
    zero[0, 0] = 1.0
    one = np.zeros((2, 2), dtype=complex)
    one[1, 1] = 1.0
    plus = np.full((2, 2), 0.5, dtype=complex)
    witness = DensityMatrix(0.5 * np.kron(zero, zero) + 0.5 * np.kron(one, plus), (1, 1))
    bell = pure_state([1, 0, 0, 1], (1, 1))
    werner = DensityMatrix(0.8 * bell.entries + 0.2 * np.eye(4) / 4, (1, 1))
    return {
        "dqc1_quarter_phase": output_state(z_theta(np.pi / 2), 1.0),
        "dqc1_third_phase_alpha_0p997": output_state(z_theta(np.pi / 3), 0.997),
        "classical_quantum_witness": witness,
        "werner_p0p8": werner,
    }


def main() -> int:
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    for name, rho in fixture_states().items():
        full = correlation_report(rho)
        report = {key: full[key] for key in PINNED}
        fixture = {
            "name": name,
            "state": density_to_json(rho),
            "report": report,
            "oracle": {
                "discord_rc_grid": oracle_grid_discord(rho, 0),
                "discord_cr_grid": oracle_grid_discord(rho, 1),
                "grid": [GRID_POLAR, GRID_AZIMUTH],
                "method": "dense projector grid, closed-form 2x2 eigenvalues",
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
