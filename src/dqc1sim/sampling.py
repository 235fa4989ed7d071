"""Finite-shot simulation of the repeated-run estimation protocol.

Each circuit run yields a +/-1 outcome per measured quadrature; expectation
values are estimated as (N+ - N-)/(N+ + N-). Shot budgets follow the
two-sided Hoeffding bound L = ln(2/P_e) / (2 eps^2), inflated by 1/alpha^2
when the control qubit is only partially pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dqc1 import UnitaryMatrix, exact_expectations, normalized_trace
from .qmath import check_range

SAMPLING_MODES = ("binomial", "poisson")
# Largest shot count per quadrature. numpy's binomial takes n up to 2**63 - 1
# and its Poisson a rate up to about 9.2e18, so both modes can draw it.
MAX_SHOTS = 10**18


def check_mode(mode: str) -> None:
    """The one check of a sampling mode name."""
    if mode not in SAMPLING_MODES:
        raise ValueError(f"unknown sampling mode {mode!r}, expected one of {SAMPLING_MODES}")


def check_shots(shots: int, low: int) -> None:
    """The one check of a shot count: an integer from low to MAX_SHOTS."""
    if shots < low:
        raise ValueError(f"shots must be >= {low}, got {shots}")
    if shots > MAX_SHOTS:
        raise ValueError(f"shots must be <= {MAX_SHOTS}, got {shots}")


@dataclass(frozen=True)
class MeasurementRecord:
    """Counts in the +/- ports of one measurement basis."""

    n_plus: int
    n_minus: int

    def __post_init__(self):
        if self.n_plus < 0 or self.n_minus < 0:
            raise ValueError("counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.n_plus + self.n_minus

    @property
    def expectation(self) -> float:
        if self.total < 1:
            raise ValueError("no counts recorded, cannot form a ratio")
        return (self.n_plus - self.n_minus) / self.total


def _check_pure_fraction(alpha: float) -> None:
    if alpha == 0.0:
        raise ValueError("no pure fraction: estimation impossible")
    check_range("alpha", alpha, 0.0, 1.0, open_low=True)


def shots_required(epsilon: float, p_error: float, alpha: float) -> int:
    """Shot budget ceil(ln(2/P_e) / (2 eps^2) / alpha^2).

    Monotone decreasing in every argument; the 1/alpha^2 factor is the
    purity overhead L' = L / alpha^2. A budget above MAX_SHOTS, or one
    that overflows or whose eps^2 or alpha^2 underflows to 0, is an error.
    """
    check_range("epsilon", epsilon, 0.0, 1.0, open_low=True, open_high=True)
    check_range("p_error", p_error, 0.0, 1.0, open_low=True, open_high=True)
    _check_pure_fraction(alpha)
    try:
        budget = math.log(2.0 / p_error) / (2.0 * epsilon**2) / alpha**2
    except ZeroDivisionError:
        budget = math.inf
    if not budget <= MAX_SHOTS:
        raise ValueError(
            f"shot budget for epsilon={epsilon}, p_error={p_error}, alpha={alpha} "
            f"exceeds {MAX_SHOTS} shots"
        )
    return math.ceil(budget)


def sample_expectation(true_expectation: float, shots: int, seed) -> float:
    """Finite-shot estimate (N+ - N-)/L with N+ ~ Binomial(L, (1+e)/2).

    Deterministic for a fixed seed; seed may be an int, a SeedSequence, or
    an existing Generator.
    """
    check_range("expectation", true_expectation, -1.0, 1.0)
    check_shots(shots, 1)
    rng = np.random.default_rng(seed)
    n_plus = int(rng.binomial(shots, (1.0 + true_expectation) / 2.0))
    return (2 * n_plus - shots) / shots


def poisson_counts(rate_plus: float, rate_minus: float, seed) -> MeasurementRecord:
    """Independent Poisson draws for the two detector ports."""
    if rate_plus < 0 or rate_minus < 0:
        raise ValueError("rates must be nonnegative")
    if rate_plus == 0 and rate_minus == 0:
        raise ValueError("no signal")
    rng = np.random.default_rng(seed)
    return MeasurementRecord(
        n_plus=int(rng.poisson(rate_plus)),
        n_minus=int(rng.poisson(rate_minus)),
    )


def _sampled_quadrature(true_expectation: float, shots: int, rng, mode: str) -> float:
    if mode == "binomial":
        return sample_expectation(true_expectation, shots, rng)
    p_plus = (1.0 + true_expectation) / 2.0
    return poisson_counts(shots * p_plus, shots * (1.0 - p_plus), rng).expectation


def estimate_trace(u: UnitaryMatrix, alpha: float, shots: int, seed,
                   mode: str = "binomial") -> complex:
    """Sampled estimate of the normalized trace Tr(U)/N.

    The X and Y quadratures use independent shot streams spawned from the
    seed, an int or a SeedSequence, and the result is divided by alpha so
    it estimates the trace itself. shots = 0 bypasses sampling and returns
    the exact value, which needs no pure fraction, so alpha may then be 0.
    """
    check_range("alpha", alpha, 0.0, 1.0)
    check_mode(mode)
    check_shots(shots, 0)
    if shots == 0:
        return normalized_trace(u)
    _check_pure_fraction(alpha)
    x, y = exact_expectations(u, alpha)
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(int(seed))
    gen_x, gen_y = (np.random.default_rng(c) for c in ss.spawn(2))
    x_est = _sampled_quadrature(x, shots, gen_x, mode)
    y_est = _sampled_quadrature(y, shots, gen_y, mode)
    return complex(x_est, y_est) / alpha


def chi2_reduced(observed, expected, sigma, dof_subtract: int = 3) -> float:
    """Reduced chi-square: sum(((obs-exp)/sigma)^2) / (len - dof_subtract)."""
    obs = np.asarray(observed, dtype=float)
    exp = np.asarray(expected, dtype=float)
    sig = np.asarray(sigma, dtype=float)
    if not (obs.shape == exp.shape == sig.shape) or obs.ndim != 1:
        raise ValueError("observed, expected, and sigma must be 1-d and equal length")
    if len(obs) < dof_subtract + 1:
        raise ValueError(
            f"need at least {dof_subtract + 1} points for {dof_subtract} degrees of freedom"
        )
    if np.any(sig <= 0):
        raise ValueError("sigma values must be positive")
    return float(np.sum(((obs - exp) / sig) ** 2) / (len(obs) - dof_subtract))


def chi2_report(observed, expected, sigma, dof_subtract: int = 3) -> dict:
    """JSON-ready reduced chi-square summary."""
    value = chi2_reduced(observed, expected, sigma, dof_subtract)
    n = len(np.asarray(observed))
    return {"chi2_reduced": value, "dof": n - dof_subtract, "n_points": n}
