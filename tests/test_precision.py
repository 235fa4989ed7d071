"""The printed tangle, concurrence and fidelity against 40-digit references
(tests/precision_oracles.py) on the same binary entries: the rank-2 state of
the rank2-* transcripts, and the tomography column of zsweep-corr's seed-101
sweep, one chunk of 61 reconstructions of DQC1 outputs."""

import numpy as np
import pytest

import precision_oracles
from cli_transcripts import STATE_SEED
from dqc1sim import cli
from dqc1sim.correlations import concurrence, tangle
from dqc1sim.tomography import stack_reconstruct

from helpers import random_density_matrix

# The reference rounds once; the program's doubles may be a few eps off
# these O(1) values, not more.
ACCURACY = 1e-13


def test_rank2_tangle_and_concurrence():
    rho = random_density_matrix(np.random.default_rng(STATE_SEED), (1, 1), 2)
    assert concurrence(rho) == pytest.approx(precision_oracles.concurrence(rho.entries), abs=ACCURACY)
    assert tangle(rho) == pytest.approx(precision_oracles.tangle(rho.entries), abs=ACCURACY)


def test_zsweep_tomo_fidelity():
    # zsweep-corr's settings at seed 101; the tomography streams do not
    # depend on the other outputs
    config = cli.SweepConfig(-np.pi, np.pi, 61, 0.997, 2000, 101, ("tomo",), 1e4, "binomial")
    points = [cli.sweep_point(config, index) for index in range(config.steps)]
    recons = stack_reconstruct(np.stack([freqs for *_, freqs in points]))
    want = [precision_oracles.fidelity(recon, rho.entries)
            for recon, (*_, rho, _) in zip(recons, points)]
    assert cli.sweep_columns(config)["tomo_fidelity"] == pytest.approx(want, abs=ACCURACY, rel=0)
