import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqc1sim import (
    UnitaryMatrix,
    chi2_reduced,
    estimate_trace,
    exact_expectations,
    shots_required,
    z_theta,
)
from dqc1sim.sampling import FITTED_PARAMETERS, MAX_SHOTS

from helpers import disk_unitary
from reference_oracles import quadrature_draws

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

    def test_zero_purity_worded_once(self):
        """The budget and the draws word alpha = 0 from one stem."""
        messages = []
        for call in (lambda: shots_required(0.1, 0.05, 0.0),
                     lambda: estimate_trace(z_theta(0.0), 0.0, 100, 0)):
            with pytest.raises(ValueError) as info:
                call()
            messages.append(str(info.value))
        stem = "alpha=0 leaves no pure fraction to sample"
        assert all(m.startswith(stem) for m in messages), messages

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


def x_estimate(true_val, shots, seed, mode="binomial"):
    """The X quadrature's estimate from estimate_trace at alpha = 1, with
    the exact value set to true_val by a one-qubit diagonal unitary."""
    return estimate_trace(disk_unitary(true_val), 1.0, shots, seed, mode=mode).real


class TestSampleExpectation:
    """One quadrature's binomial draw, (N+ - N-)/(N+ + N-), through
    estimate_trace."""

    @pytest.mark.parametrize("true_val,expected", [(1.0, 1.0), (-1.0, -1.0)])
    def test_deterministic_endpoints(self, true_val, expected):
        for seed in (0, 1, 99):
            assert x_estimate(true_val, 50, seed) == expected

    def test_recorded_seed_value(self):
        # frozen from numpy's binomial draws on SeedSequence(20260810).spawn(2);
        # regenerating must be bit-exact
        u = UnitaryMatrix(1, np.diag([1j, -1j]))
        (x_plus, x_minus), (y_plus, y_minus) = quadrature_draws(20260810, 10**6, (0.0, 0.0))
        assert (x_plus, y_plus) == (500088, 499614)
        est = estimate_trace(u, 1.0, 10**6, 20260810)
        assert est == complex(0.000176, -0.000772)
        assert est == complex((x_plus - x_minus) / 10**6, (y_plus - y_minus) / 10**6)

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_seed_determinism(self, seed):
        # both modes match the counts drawn straight from numpy, in order
        u = disk_unitary(0.3 + 0.4j)
        z = np.trace(u.entries) / 2
        for mode in ("binomial", "poisson"):
            a = estimate_trace(u, 1.0, 500, seed, mode=mode)
            assert a == estimate_trace(u, 1.0, 500, seed, mode=mode)
            (xp, xm), (yp, ym) = quadrature_draws(seed, 500, (z.real, z.imag), mode=mode)
            assert a == complex((xp - xm) / (xp + xm), (yp - ym) / (yp + ym))

    def test_out_of_range(self):
        # unitary within UNITARY_ATOL but Tr/2 > 1: the outcome probability
        # is clipped to 1, not rejected
        near = UnitaryMatrix(1, (1 + 4e-9) * np.eye(2))
        for mode in ("binomial", "poisson"):
            with pytest.raises(ValueError, match="shots must be >= 0"):
                x_estimate(0.0, -1, 0, mode)
            with pytest.raises(ValueError, match="shots must be <="):
                x_estimate(0.0, MAX_SHOTS + 1, 0, mode)
            assert x_estimate(1.0, MAX_SHOTS, 0, mode) == 1.0
            assert estimate_trace(near, 1.0, 185, 0, mode=mode).real == 1.0

    @pytest.mark.parametrize("true_val", [-0.9, 0.0, 0.5, 0.9])
    def test_unbiased(self, true_val):
        shots = 400
        n_seeds = 1200
        u = disk_unitary(true_val)
        ests = np.array(
            [estimate_trace(u, 1.0, shots, np.random.SeedSequence([7, k])).real
             for k in range(n_seeds)]
        )
        se = ests.std(ddof=1) / np.sqrt(n_seeds)
        se = max(se, 1e-12)
        assert abs(ests.mean() - true_val) < 3.0 * se + 1e-9

    def test_std_scales_with_shots(self):
        # std ~ c / sqrt(L) within 20%
        u = disk_unitary(0.3)
        n_seeds = 2000
        stds = {}
        for shots in (100, 1000, 10000):
            ests = [
                estimate_trace(u, 1.0, shots, np.random.SeedSequence([13, shots, k])).real
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
        u = disk_unitary(true_val)
        n_trials = 1000
        failures = sum(
            abs(estimate_trace(u, 1.0, shots, np.random.SeedSequence([29, k])).real - true_val)
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

    @pytest.mark.parametrize("alpha", [5e-324, 1e-309, 5.56e-309])
    def test_alpha_with_an_overflowing_reciprocal(self, alpha):
        with pytest.raises(ValueError, match=f"^alpha={alpha} is too small"):
            estimate_trace(z_theta(1.0), alpha, 100, 0)
        assert estimate_trace(z_theta(1.0), alpha, 0, 0) == estimate_trace(z_theta(1.0), 1.0, 0, 0)

    def test_smallest_alpha_with_a_finite_reciprocal(self):
        alpha = np.nextafter(1.0 / np.finfo(float).max, 1.0)
        est = estimate_trace(z_theta(0.0), float(alpha), 100, 0)
        assert math.isfinite(est.real) and math.isfinite(est.imag)

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
        # a fractional count would reach the draws: N- = 2.5 - N+
        for shots in (2.5, 2.0, np.float64(3.0), True, False, np.True_):
            with pytest.raises(ValueError, match=r"^shots must be an integer, got "):
                estimate_trace(z_theta(0.4), 1.0, shots, 0, mode=mode)
        for shots in (np.int64(5), np.uint16(5)):
            assert estimate_trace(z_theta(0.4), 1.0, shots, 0, mode=mode) == estimate_trace(
                z_theta(0.4), 1.0, 5, 0, mode=mode)
        est = estimate_trace(z_theta(0.0), 1.0, MAX_SHOTS, 0, mode=mode)
        assert abs(est - 1) < 1e-6

    def test_seed_determinism(self):
        a = estimate_trace(z_theta(1.0), 0.8, 2000, 42)
        b = estimate_trace(z_theta(1.0), 0.8, 2000, 42)
        assert a == b

    @pytest.mark.parametrize("seed", [
        None, 2.3, 2.7, np.float64(2.0), "2", pytest.param(True, id="True"),
        pytest.param(np.True_, id="np.True_"), pytest.param(b"2", id="bytes"),
        pytest.param(2j, id="2j"), pytest.param([2], id="list"),
        pytest.param(-1, id="-1"), pytest.param(np.int64(-3), id="np.int64(-3)")])
    @pytest.mark.parametrize("shots", [0, 100])
    def test_seed_is_an_integer_or_a_seed_sequence(self, seed, shots):
        # read with int(), 2.3, 2.7 and "2" would all draw the shots of seed 2,
        # numpy reads True as the seed 1, and it rejects -1 without naming it
        message = (f"seed must be >= 0, got {seed}" if type(seed) in (int, np.int64)
                   else f"seed must be an integer, got {seed!r}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            estimate_trace(z_theta(1.0), 1.0, shots, seed)

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
    """Poisson mode: N+ ~ Poisson(shots p), then N- ~ Poisson(shots (1 - p)),
    through estimate_trace."""

    def test_dark_port(self):
        # Tr/2 = -1: the + port's rate is 0, so only the - port counts
        (x_plus, x_minus), _ = quadrature_draws(3, 100, (-1.0, 0.0), mode="poisson")
        assert x_plus == 0 and x_minus > 0
        assert x_estimate(-1.0, 100, 3, mode="poisson") == -1.0

    def test_no_signal(self):
        # at seed 3 both X ports draw 0 counts from numpy's Poisson(0.5)
        ((x_plus, x_minus), _) = quadrature_draws(3, 1, (0.0, 0.0), mode="poisson")
        assert x_plus == x_minus == 0
        with pytest.raises(ValueError, match="no counts recorded"):
            x_estimate(0.0, 1, 3, mode="poisson")

    def test_balanced_ensemble_statistics(self):
        # ensemble oracle (200k direct draws): the ratio of two Poisson(50)
        # ports has mean 0 and std sqrt(E[1/(N+ + N-)]) = 0.1005, i.e.
        # 1/sqrt(expected total counts) up to a Jensen correction
        oracle_std = 0.1005
        u = disk_unitary(0.0)
        vals = [estimate_trace(u, 1.0, 100, np.random.SeedSequence([41, k]), mode="poisson").real
                for k in range(4000)]
        assert abs(np.mean(vals)) < 5.0 * oracle_std / np.sqrt(4000)
        assert abs(np.std(vals) - oracle_std) < 0.08 * oracle_std

    def test_ratio_requires_counts(self):
        # at seed 1 the X ports count (1, 1) and both Y ports draw 0: an
        # empty quadrature is an error whichever it is
        (x_counts, y_counts) = quadrature_draws(1, 1, (0.0, 0.0), mode="poisson")
        assert sum(x_counts) > 0 and sum(y_counts) == 0
        with pytest.raises(ValueError, match="ratio"):
            estimate_trace(disk_unitary(0.0), 1.0, 1, 1, mode="poisson")


class TestChi2:
    def test_perfect_agreement(self):
        obs = np.linspace(0, 1, 10)
        assert chi2_reduced(obs, obs, np.ones(10)) == 0.0

    def test_single_two_sigma_point(self):
        obs = np.zeros(23)
        exp = np.zeros(23)
        obs[5] = 2.0
        assert chi2_reduced(obs, exp, np.ones(23)) == pytest.approx(4 / 20)

    def test_errors(self):
        with pytest.raises(ValueError, match="equal length"):
            chi2_reduced([1, 2], [1, 2, 3], [1, 1, 1])
        with pytest.raises(ValueError, match="positive"):
            chi2_reduced([1, 2, 3, 4], [1, 2, 3, 4], [1, 1, 0, 1])
        for sigma in ([1, 1, np.nan, 1], [1, 1, np.inf, 1]):
            with pytest.raises(ValueError, match="^sigma values must be positive and finite$"):
                chi2_reduced([1, 2, 3, 4], [1, 2, 3, 4], sigma)
        with pytest.raises(ValueError, match="^observed and expected values must be finite$"):
            chi2_reduced([1, np.nan, 3, 4], [1, 2, 3, 4], [1, 1, 1, 1])
        with pytest.raises(ValueError, match="points"):
            chi2_reduced([1, 2, 3], [1, 2, 3], [1, 1, 1])

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
            values.append(chi2_reduced(obs, [x for x, _ in exact], sigma))
        mean = float(np.mean(values))
        assert 0.5 <= mean <= 2.0

    def test_three_fitted_parameters(self):
        # amplitude, frequency and phase: 5 points leave 2 degrees of freedom
        assert FITTED_PARAMETERS == 3
        assert chi2_reduced([1.0, 2, 3, 4, 5], [1.0, 2, 3, 4, 4], [1.0] * 5) == 0.5
