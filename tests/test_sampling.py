import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqc1sim import (
    MeasurementRecord,
    chi2_reduced,
    chi2_report,
    estimate_trace,
    exact_expectations,
    poisson_counts,
    sample_expectation,
    shots_required,
    z_theta,
)
from dqc1sim.sampling import MAX_SHOTS

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestShotsRequired:
    def test_baseline_budget(self):
        # oracle: ceil(ln(40) / 0.02)
        assert math.ceil(math.log(40.0) / 0.02) == 185
        assert shots_required(0.1, 0.05, 1.0) == 185

    def test_purity_overhead(self):
        # oracle: pre-ceiling value divided by 0.25, then ceil
        assert math.ceil(math.log(40.0) / 0.02 / 0.25) == 738
        assert shots_required(0.1, 0.05, 0.5) == 738

    def test_zero_purity_forbidden(self):
        with pytest.raises(ValueError, match="no pure fraction"):
            shots_required(0.1, 0.05, 0.0)

    def test_monotone(self):
        assert shots_required(0.2, 0.05, 1.0) < shots_required(0.1, 0.05, 1.0)
        assert shots_required(0.1, 0.10, 1.0) < shots_required(0.1, 0.05, 1.0)
        assert shots_required(0.1, 0.05, 1.0) < shots_required(0.1, 0.05, 0.9)

    @pytest.mark.parametrize("eps,pe", [(0.0, 0.05), (1.0, 0.05), (0.1, 0.0), (0.1, 1.0),
                                        (math.nan, 0.05), (0.1, math.nan)])
    def test_invalid_ranges(self, eps, pe):
        with pytest.raises(ValueError):
            shots_required(eps, pe, 1.0)

    @pytest.mark.parametrize("eps,pe,alpha", [
        (1e-9, 0.05, 1.0),      # 1.84e18 shots
        (0.1, 0.05, 1e-9),      # 1.8e20 shots
        (0.1, 0.05, 5e-324),    # alpha**2 underflows to 0
        (1e-200, 0.05, 1.0),    # eps**2 underflows to 0
        (0.1, 5e-324, 1.0),     # 2 / P_e overflows to inf
    ])
    def test_budget_beyond_max_shots(self, eps, pe, alpha):
        with pytest.raises(ValueError, match="shot budget"):
            shots_required(eps, pe, alpha)

    def test_budget_just_inside_max_shots(self):
        eps = 1.3582e-9
        budget = math.log(2.0 / 0.05) / (2.0 * eps**2) / 1.0**2
        assert shots_required(eps, 0.05, 1.0) == math.ceil(budget) <= MAX_SHOTS


class TestSampleExpectation:
    @pytest.mark.parametrize("true_val,expected", [(1.0, 1.0), (-1.0, -1.0)])
    def test_deterministic_endpoints(self, true_val, expected):
        for seed in (0, 1, 99):
            assert sample_expectation(true_val, 50, seed) == expected

    def test_recorded_seed_value(self):
        # frozen from the recorded seed; regenerating must be bit-exact
        est = sample_expectation(0.0, 10**6, 20260810)
        assert est == -0.000624
        assert abs(est) < 0.005

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_seed_determinism(self, seed):
        a = sample_expectation(0.3, 500, seed)
        b = sample_expectation(0.3, 500, seed)
        assert a == b

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            sample_expectation(1.2, 10, 0)
        with pytest.raises(ValueError):
            sample_expectation(0.0, 0, 0)
        with pytest.raises(ValueError, match="shots must be <="):
            sample_expectation(0.0, MAX_SHOTS + 1, 0)
        assert sample_expectation(1.0, MAX_SHOTS, 0) == 1.0

    @pytest.mark.parametrize("true_val", [-0.9, 0.0, 0.5, 0.9])
    def test_unbiased(self, true_val):
        shots = 400
        n_seeds = 1200
        ests = np.array(
            [sample_expectation(true_val, shots, np.random.SeedSequence([7, k]))
             for k in range(n_seeds)]
        )
        se = ests.std(ddof=1) / np.sqrt(n_seeds)
        se = max(se, 1e-12)
        assert abs(ests.mean() - true_val) < 3.0 * se + 1e-9

    def test_std_scales_with_shots(self):
        # std ~ c / sqrt(L) within 20%
        true_val = 0.3
        n_seeds = 2000
        stds = {}
        for shots in (100, 1000, 10000):
            ests = [
                sample_expectation(true_val, shots, np.random.SeedSequence([13, shots, k]))
                for k in range(n_seeds)
            ]
            stds[shots] = np.std(ests, ddof=1)
        for a, b in ((100, 1000), (1000, 10000)):
            ratio = stds[a] / stds[b]
            assert abs(ratio - np.sqrt(b / a)) < 0.2 * np.sqrt(b / a)

    @pytest.mark.parametrize("eps,pe", [(0.1, 0.05)])
    @pytest.mark.parametrize("true_val", [0.0, 0.6])
    def test_failure_fraction_within_budget(self, eps, pe, true_val):
        # the budget implements the two-sided Hoeffding bound for the
        # Bernoulli mean, so the guaranteed event is a deviation of at most
        # eps in the outcome probability, i.e. 2*eps on the [-1, 1] scale
        shots = shots_required(eps, pe, 1.0)
        n_trials = 1000
        failures = sum(
            abs(sample_expectation(true_val, shots, np.random.SeedSequence([29, k])) - true_val)
            > 2 * eps
            for k in range(n_trials)
        )
        assert failures / n_trials <= pe


class TestEstimateTrace:
    def test_exact_mode(self):
        assert estimate_trace(z_theta(0.0), 1.0, 0, 0) == 1 + 0j

    def test_zero_purity(self):
        with pytest.raises(ValueError, match="no pure fraction"):
            estimate_trace(z_theta(0.0), 0.0, 100, 0)
        # the exact value needs no pure fraction
        assert estimate_trace(z_theta(0.0), 0.0, 0, 0) == 1 + 0j

    @pytest.mark.parametrize("shots", [0, 100])
    @pytest.mark.parametrize("alpha", [-0.1, 1.5, math.nan, math.inf])
    def test_alpha_out_of_range(self, alpha, shots):
        with pytest.raises(ValueError, match="alpha"):
            estimate_trace(z_theta(0.0), alpha, shots, 0)

    @pytest.mark.parametrize("mode", ["binomial", "poisson"])
    def test_shot_bound(self, mode):
        with pytest.raises(ValueError, match="shots must be <="):
            estimate_trace(z_theta(0.0), 1.0, MAX_SHOTS + 1, 0, mode=mode)
        with pytest.raises(ValueError, match="shots must be >= 0"):
            estimate_trace(z_theta(0.0), 1.0, -1, 0, mode=mode)
        est = estimate_trace(z_theta(0.0), 1.0, MAX_SHOTS, 0, mode=mode)
        assert abs(est - 1) < 1e-6

    def test_seed_determinism(self):
        a = estimate_trace(z_theta(1.0), 0.8, 2000, 42)
        b = estimate_trace(z_theta(1.0), 0.8, 2000, 42)
        assert a == b

    def test_quarter_phase_ensemble(self):
        shots = 10**5
        target = 0.5 + 0.5j
        errs = [
            abs(estimate_trace(z_theta(np.pi / 2), 1.0, shots, np.random.SeedSequence([31, k]))
                - target)
            for k in range(100)
        ]
        rms = float(np.sqrt(np.mean(np.square(errs))))
        assert rms <= 2.0 / np.sqrt(shots)
        assert max(errs) < 0.02

    def test_purity_widens_spread(self):
        shots = 10**4
        target = 0.5 + 0.5j
        u = z_theta(np.pi / 2)

        def rms(alpha, tag):
            errs = [
                abs(estimate_trace(u, alpha, shots, np.random.SeedSequence([37, tag, k])) - target)
                for k in range(300)
            ]
            return float(np.sqrt(np.mean(np.square(errs))))

        ratio = rms(0.58, 1) / rms(1.0, 0)
        assert abs(ratio - 1 / 0.58) < 0.15 * (1 / 0.58)

    def test_poisson_mode_runs(self):
        est = estimate_trace(z_theta(0.7), 1.0, 5000, 5, mode="poisson")
        exact = (1 + np.exp(0.7j)) / 2
        assert abs(est - exact) < 0.1
        with pytest.raises(ValueError, match="sampling mode"):
            estimate_trace(z_theta(0.7), 1.0, 100, 5, mode="exact")


class TestPoissonCounts:
    def test_dark_port(self):
        rec = poisson_counts(0.0, 100.0, 3)
        assert rec.n_plus == 0
        assert rec.n_minus > 0

    def test_no_signal(self):
        with pytest.raises(ValueError, match="no signal"):
            poisson_counts(0.0, 0.0, 3)

    def test_balanced_ensemble_statistics(self):
        # ensemble oracle (200k direct draws): the ratio of two Poisson(50)
        # ports has mean 0 and std sqrt(E[1/(N+ + N-)]) = 0.1005, i.e.
        # 1/sqrt(expected total counts) up to a Jensen correction
        oracle_std = 0.1005
        vals = [poisson_counts(50.0, 50.0, np.random.SeedSequence([41, k])).expectation
                for k in range(4000)]
        assert abs(np.mean(vals)) < 5.0 * oracle_std / np.sqrt(4000)
        assert abs(np.std(vals) - oracle_std) < 0.08 * oracle_std

    def test_ratio_requires_counts(self):
        rec = MeasurementRecord(0, 0)
        with pytest.raises(ValueError, match="ratio"):
            _ = rec.expectation


class TestChi2:
    def test_perfect_agreement(self):
        obs = np.linspace(0, 1, 10)
        assert chi2_reduced(obs, obs, np.ones(10)) == 0.0

    def test_single_two_sigma_point(self):
        obs = np.zeros(23)
        exp = np.zeros(23)
        obs[5] = 2.0
        assert chi2_reduced(obs, exp, np.ones(23), dof_subtract=3) == pytest.approx(4 / 20)

    def test_errors(self):
        with pytest.raises(ValueError, match="equal length"):
            chi2_reduced([1, 2], [1, 2, 3], [1, 1, 1])
        with pytest.raises(ValueError, match="positive"):
            chi2_reduced([1, 2, 3, 4], [1, 2, 3, 4], [1, 1, 0, 1])
        with pytest.raises(ValueError, match="points"):
            chi2_reduced([1, 2], [1, 2], [1, 1], dof_subtract=3)

    def test_sweep_self_consistency(self):
        # simulated sweep versus ideal curve should give reduced chi2 near 1
        shots = 10**4
        thetas = np.linspace(-np.pi, np.pi, 23)
        exact = [exact_expectations(z_theta(t), 1.0) for t in thetas]
        sigma = [2 * np.sqrt((1 + x) / 2 * (1 - x) / 2 / shots) for x, _ in exact]
        sigma = np.clip(sigma, 1e-6, None)
        values = []
        for trial in range(100):
            obs = [
                estimate_trace(z_theta(t), 1.0, shots, np.random.SeedSequence([43, trial, k])).real
                for k, t in enumerate(thetas)
            ]
            values.append(chi2_reduced(obs, [x for x, _ in exact], sigma, dof_subtract=3))
        mean = float(np.mean(values))
        assert 0.5 <= mean <= 2.0

    def test_report_shape(self):
        rep = chi2_report([1.0, 2, 3, 4, 5], [1.0, 2, 3, 4, 5], [1.0] * 5)
        assert rep == {"chi2_reduced": 0.0, "dof": 2, "n_points": 5}
