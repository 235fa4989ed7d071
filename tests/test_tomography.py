import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dqc1sim import (
    DensityMatrix,
    ReconstructionError,
    fidelity,
    output_state,
    reconstruct,
    simulate_counts,
    z_theta,
)
from dqc1sim.cli import main
from dqc1sim.serialize import density_to_json
from dqc1sim.tomography import (
    PROJECTORS, SETTING_LABELS, linear_estimate, pair_frequencies, psd_project,
)

from helpers import bell_state, noiseless_run, pure_density, random_density_matrix
from reference_oracles import TOMO_KETS, TOMO_LABELS, least_squares_estimate, setting_probability

seeds = st.integers(min_value=0, max_value=2**32 - 1)
# The nine basis pairs, qubit 0's axis first.
PAIRS = [a + b for a in "ZXY" for b in "ZXY"]


def trace_distance(a, b):
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


class TestSettings:
    def test_36_unique_settings(self):
        # product order of z+, z-, x+, x-, y+, y-, qubit 0 slowest
        assert SETTING_LABELS == TOMO_LABELS
        assert len(set(SETTING_LABELS)) == 36
        assert SETTING_LABELS[:3] == ("z+z+", "z+z-", "z+x+")
        assert SETTING_LABELS[-1] == "y-y-"

    def test_projectors_are_rank_one_idempotent(self):
        assert PROJECTORS.shape == (36, 4, 4)
        for label, p in zip(SETTING_LABELS, PROJECTORS):
            assert np.max(np.abs(p @ p - p)) < 1e-12
            assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)
            ket = np.kron(TOMO_KETS[label[:2]], TOMO_KETS[label[2:]])
            assert np.max(np.abs(p - np.outer(ket, ket.conj()))) < 1e-15


class TestSimulateCounts:
    def test_logical_zero_projections(self):
        rho = pure_density([1, 0, 0, 0], (1, 1))
        by_label = dict(zip(SETTING_LABELS, simulate_counts(rho, 500.0, 1)))
        for label in TOMO_LABELS:
            if setting_probability(rho.entries, label) == 0.0:
                assert by_label[label] == 0  # orthogonal projectors never fire
        assert by_label["z+z+"] > 300  # mean equals the full flux

    def test_maximally_mixed_rates(self):
        rho = DensityMatrix(np.eye(4) / 4, (1, 1))
        totals = np.zeros(36)
        for k in range(40):
            totals += simulate_counts(rho, 400.0, k)
        means = totals / 40
        # every projector overlaps I/4 with probability 1/4
        assert np.all(np.abs(means - 100.0) < 5 * np.sqrt(100.0 / 40) + 8)

    def test_rate_oracle_for_circuit_output(self):
        rho = output_state(z_theta(np.pi / 2), 1.0)
        mean_counts = 2000.0
        oracle_mean = mean_counts * setting_probability(rho.entries, "x+z+")
        idx = SETTING_LABELS.index("x+z+")
        draws = [simulate_counts(rho, mean_counts, k)[idx] for k in range(60)]
        assert abs(np.mean(draws) - oracle_mean) < 5 * np.sqrt(oracle_mean / 60)

    def test_reproducible_per_seed(self):
        rho = bell_state()
        a = simulate_counts(rho, 1000.0, 42)
        b = simulate_counts(rho, 1000.0, 42)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [None, 2.5, "2", pytest.param(True, id="True"),
                                      pytest.param(np.True_, id="np.True_"),
                                      pytest.param(-1, id="-1"),
                                      pytest.param(np.int64(-3), id="np.int64(-3)")])
    def test_seed_is_an_integer_or_a_seed_sequence(self, seed):
        # None would draw fresh OS entropy, so no rerun could repeat the counts
        message = (f"seed must be >= 0, got {seed}" if type(seed) in (int, np.int64)
                   else f"seed must be an integer, got {seed!r}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            simulate_counts(bell_state(), 1000.0, seed)

    def test_rejects_bad_mean(self):
        with pytest.raises(ValueError, match="mean_counts"):
            simulate_counts(bell_state(), 0.0, 1)


class TestPairFrequencies:
    @given(seed=seeds, mean_counts=st.floats(1.0, 1e18),
           zeroed=st.just(set()) | st.sets(st.sampled_from(PAIRS), min_size=1))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_names_the_first_empty_pair_or_normalizes(self, seed, mean_counts, zeroed):
        # A noiseless row holds mean_counts in each basis pair; the drawn
        # pairs are emptied. The first one a scan of the labels meets is
        # named; with none emptied, each pair's frequencies sum to 1.
        rho = random_density_matrix(np.random.default_rng(seed), (1, 1))
        pairs = [(lab[0] + lab[2]).upper() for lab in TOMO_LABELS]
        counts = np.array([0.0 if pair in zeroed else c
                           for pair, c in zip(pairs, noiseless_run(rho, mean_counts))])
        if zeroed:
            first = next(pair for pair in pairs if pair in zeroed)
            with pytest.raises(ReconstructionError, match=f"^no signal in basis pair {first}$"):
                pair_frequencies(counts)
        else:
            p = pair_frequencies(counts)
            assert p.shape == (3, 2, 3, 2)
            assert np.max(np.abs(p.sum(axis=(1, 3)) - 1.0)) <= 4 * np.spacing(1.0)


class TestLinearEstimate:
    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_noiseless_inversion_exact(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(rng, (1, 1))
        estimate = linear_estimate(pair_frequencies(noiseless_run(rho, 1e4)))
        assert np.max(np.abs(estimate - rho.entries)) < 1e-10

    def test_least_squares_on_noisy_counts(self):
        # noiseless counts fit every consistent inverse exactly; Poisson
        # counts leave residuals, and only the least-squares solution
        # matches the oracle's
        rng = np.random.default_rng(115)
        checked = 0
        for k in range(400):
            rho = (random_density_matrix(rng, (1, 1), rank=1 + k % 4) if k % 2 == 0
                   else output_state(z_theta(rng.uniform(-np.pi, np.pi)), rng.uniform(0.0, 1.0)))
            rates = noiseless_run(rho, 10.0 ** rng.uniform(0.0, 6.0))
            counts = rng.poisson(np.clip(rates, 0.0, None)).astype(float)
            try:
                p = pair_frequencies(counts)
            except ReconstructionError:
                continue  # a basis pair drew no counts
            estimate = linear_estimate(p)
            assert np.max(np.abs(estimate - least_squares_estimate(counts))) <= 1e-13
            checked += 1
        assert checked >= 300

    @pytest.mark.parametrize("pair", PAIRS)
    def test_zero_signal_group_is_an_error(self, pair):
        # every basis pair of a Bell state carries 1/9 of the counts
        counts = np.array([0.0 if (lab[0] + lab[2]).upper() == pair else c
                           for lab, c in zip(TOMO_LABELS, noiseless_run(bell_state(), 100.0))])
        with pytest.raises(ReconstructionError, match=f"^no signal in basis pair {pair}$"):
            reconstruct(counts)


class TestPsdProject:
    def test_leaves_physical_states_alone(self):
        rng = np.random.default_rng(3)
        rho = random_density_matrix(rng, (1, 1))
        assert np.max(np.abs(psd_project(rho.entries) - rho.entries)) < 1e-12

    def test_truncates_negative_eigenvalue(self):
        assert_allclose(psd_project(np.diag([1.1, -0.1])), np.diag([1.0, 0.0]), atol=1e-12)

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        noisy = random_density_matrix(rng, (1, 1)).entries + 0.1 * _hermitian_noise(rng, 4)
        once = psd_project(noisy)
        twice = psd_project(once)
        assert np.max(np.abs(once - twice)) < 1e-12

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_closer_than_random_alternatives(self, seed):
        # random-search oracle: no sampled physical state beats the projection
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(rng, (1, 1))
        noisy = rho.entries + 0.08 * _hermitian_noise(rng, 4)
        projected = psd_project(noisy)
        assert np.linalg.eigvalsh(projected)[0] >= -1e-12
        assert np.trace(projected).real == pytest.approx(1.0, abs=1e-10)
        best = np.linalg.norm(noisy - projected)
        for _ in range(150):
            candidate = random_density_matrix(rng, (1, 1)).entries
            mix = rng.uniform(0.0, 1.0)
            candidate = mix * candidate + (1 - mix) * projected
            assert np.linalg.norm(noisy - candidate) >= best - 1e-12


def _hermitian_noise(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (g + g.conj().T) / 2
    return h - np.eye(dim) * np.trace(h) / dim


class TestReconstruct:
    def test_bell_state_high_fidelity(self):
        good = 0
        for seed in range(100):
            recon = reconstruct(simulate_counts(bell_state(), 1e4, seed))
            if fidelity(recon, bell_state()) >= 0.99:
                good += 1
        assert good >= 95

    def test_output_is_valid_density_matrix(self):
        recon = reconstruct(simulate_counts(output_state(z_theta(1.0), 1.0), 300.0, 7))
        assert recon.qubit_dims == (1, 1)  # construction enforces the invariants

    def test_error_scales_with_counts(self):
        # trace-distance error ~ 1/sqrt(mean counts) between 1e3 and 1e5
        rho = output_state(z_theta(np.pi / 2), 1.0)

        def mean_error(mean_counts, tag):
            errs = []
            for k in range(40):
                counts = simulate_counts(rho, mean_counts, 1000 * tag + k)
                errs.append(trace_distance(reconstruct(counts).entries, rho.entries))
            return float(np.mean(errs))

        ratio = mean_error(1e3, 1) / mean_error(1e5, 2)
        assert abs(ratio - 10.0) < 3.0


class TestRunJson:
    def test_round_trip(self, tmp_path):
        # counts -> the run record tomo writes -> the same counts and reconstruction
        out = tmp_path / "tomo.json"
        assert main(["tomo", "--theta", "1.0", "--mean-counts", "500",
                     "--seed", "9", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        run = report["run"]
        assert run["mean"] == 500.0 and run["seed"] == 9
        assert run["settings"] == list(TOMO_LABELS)
        assert all(isinstance(c, int) for c in run["counts"])
        counts = simulate_counts(output_state(z_theta(1.0), 1.0), 500.0, 9)
        assert np.array_equal(run["counts"], counts)
        recon = reconstruct(np.array(run["counts"], dtype=float))
        assert json.loads(json.dumps(density_to_json(recon))) == report["reconstruction"]
