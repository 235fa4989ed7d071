"""Finite-shot simulation of the repeated-run estimation protocol.

Each circuit run yields a +/-1 outcome per measured quadrature; expectation
values are estimated as (N+ - N-)/(N+ + N-). Shot budgets follow the
two-sided Hoeffding bound L = ln(2/P_e) / (2 eps^2), inflated by 1/alpha^2
when the control qubit is only partially pure. Shot counts and seeds pass
qmath.check_integer, so a negative seed fails with its name, not in numpy.
"""

from __future__ import annotations

import math

import numpy as np

from .dqc1 import UnitaryMatrix, normalized_trace
from .qmath import check_integer, check_range

SAMPLING_MODES = ("binomial", "poisson")
# Largest shot count per quadrature. numpy's binomial takes n up to 2**63 - 1
# and its Poisson a rate up to about 9.2e18, so both modes can draw it.
MAX_SHOTS = 10**18
# Parameters fitted to a trace curve (amplitude, frequency and phase), which
# chi2_reduced takes from the degrees of freedom.
FITTED_PARAMETERS = 3
# The start of both errors for alpha = 0, the shot budget's and the draws'.
_NO_PURE_FRACTION = "alpha=0 leaves no pure fraction to sample"


def check_mode(mode: str) -> None:
    """The one check of a sampling mode name."""
    if mode not in SAMPLING_MODES:
        raise ValueError(f"unknown sampling mode {mode!r}, expected one of {SAMPLING_MODES}")


def check_shots(shots: int) -> None:
    """The one check of a shot count: an integer from 0 to MAX_SHOTS. A float
    (2.0 too) or a bool is an error: either would reach the draws as a count."""
    check_integer("shots", shots, 0, MAX_SHOTS)


def check_pure_fraction(alpha: float, shots: int) -> None:
    """The one check that alpha leaves a pure fraction to sample with shots:
    with shots > 0, alpha = 0 is an error, and so is an alpha whose
    reciprocal overflows (below about 5.56e-309), since the estimate is
    divided by alpha. The caller checks alpha's range."""
    if shots == 0:
        return
    if alpha == 0.0:
        raise ValueError(
            f"{_NO_PURE_FRACTION} with shots={shots}; use alpha > 0 or shots 0"
        )
    if 1.0 / alpha == math.inf:
        raise ValueError(f"alpha={alpha} is too small to divide the estimate by: 1/alpha overflows")


def seed_sequence(seed) -> np.random.SeedSequence:
    """The one seed rule of both samplers: a SeedSequence as it is, an integer
    >= 0 as np.random.SeedSequence(seed). Anything else, None (fresh OS entropy
    that no rerun repeats), a bool and a negative seed among them, is an error."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    check_integer("seed", seed, 0)
    return np.random.SeedSequence(seed)


def shots_required(epsilon: float, p_error: float, alpha: float) -> int:
    """Shot budget ceil(ln(2/P_e) / (2 eps^2) / alpha^2).

    Monotone decreasing in every argument; the 1/alpha^2 factor is the
    purity overhead L' = L / alpha^2. A budget above MAX_SHOTS, or one
    that overflows or whose eps^2 or alpha^2 underflows to 0, is an error.
    """
    check_range("epsilon", epsilon, 0.0, 1.0, open_low=True, open_high=True)
    check_range("p_error", p_error, 0.0, 1.0, open_low=True, open_high=True)
    if alpha == 0.0:
        raise ValueError(f"{_NO_PURE_FRACTION}: no shot budget reaches the accuracy target")
    check_range("alpha", alpha, 0.0, 1.0, open_low=True)
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


def _draw_quadrature(expectation: float, shots: int, rng, mode: str) -> float:
    """(N+ - N-)/(N+ + N-) for one quadrature with exact value expectation.

    With p = (1 + expectation)/2, binomial mode draws N+ ~ Binomial(shots, p)
    and sets N- = shots - N+; Poisson mode draws N+ ~ Poisson(shots p), then
    N- ~ Poisson(shots (1 - p)). p is clipped to [0, 1], because a unitary
    accepted within UNITARY_ATOL can put |expectation| just above 1.
    """
    p_plus = min(max((1.0 + expectation) / 2.0, 0.0), 1.0)
    if mode == "binomial":
        n_plus = int(rng.binomial(shots, p_plus))
        n_minus = shots - n_plus
    else:
        n_plus = int(rng.poisson(shots * p_plus))
        n_minus = int(rng.poisson(shots * (1.0 - p_plus)))
    if n_plus + n_minus < 1:
        raise ValueError(
            f"no counts recorded, cannot form a ratio: with shots={shots} a Poisson "
            f"quadrature is empty with probability e^-shots = {math.exp(-shots):.3g}"
        )
    return (n_plus - n_minus) / (n_plus + n_minus)


def estimate_trace(u: UnitaryMatrix, alpha: float, shots: int, seed,
                   mode: str = "binomial") -> complex:
    """Sampled estimate of the normalized trace Tr(U)/N.

    The X and Y quadratures, of exact values alpha (Re, Im) Tr(U)/N, use
    independent shot streams spawned from the seed, which seed_sequence
    reads, and the result is divided by alpha so it estimates the trace
    itself, so alpha must pass check_pure_fraction. shots = 0 bypasses
    sampling and returns the exact value, which needs no pure fraction, so
    alpha may then be 0; the seed is checked all the same.
    """
    check_range("alpha", alpha, 0.0, 1.0)
    check_mode(mode)
    check_shots(shots)
    check_pure_fraction(alpha, shots)
    ss = seed_sequence(seed)
    trace = normalized_trace(u)
    if shots == 0:
        return trace
    gen_x, gen_y = (np.random.default_rng(c) for c in ss.spawn(2))
    x_est = _draw_quadrature(alpha * trace.real, shots, gen_x, mode)
    y_est = _draw_quadrature(alpha * trace.imag, shots, gen_y, mode)
    return complex(x_est, y_est) / alpha


def chi2_reduced(observed, expected, sigma) -> float:
    """Reduced chi-square: sum(((obs-exp)/sigma)^2) / (len - FITTED_PARAMETERS)."""
    obs = np.asarray(observed, dtype=float)
    exp = np.asarray(expected, dtype=float)
    sig = np.asarray(sigma, dtype=float)
    if not (obs.shape == exp.shape == sig.shape) or obs.ndim != 1:
        raise ValueError("observed, expected, and sigma must be 1-d and equal length")
    if len(obs) <= FITTED_PARAMETERS:
        raise ValueError(
            f"need at least {FITTED_PARAMETERS + 1} points for {FITTED_PARAMETERS} fitted parameters"
        )
    if not (np.isfinite(obs).all() and np.isfinite(exp).all()):
        raise ValueError("observed and expected values must be finite")
    if not ((sig > 0) & np.isfinite(sig)).all():
        raise ValueError("sigma values must be positive and finite")
    return float(np.sum(((obs - exp) / sig) ** 2) / (len(obs) - FITTED_PARAMETERS))
