"""40-digit references for the tangle, the concurrence and the fidelity.

Each function takes the exact binary entries of float64 states, as numpy
arrays, and recomputes in mpmath at mp.dps = 40 what the program computes
in doubles. Kept apart from reference_oracles.py, which imports only numpy
and the standard library.

Every square root here clamps the eigenvalues by the program's rule, the
ones at or below d * eps * lambda_max count as 0 (qmath.hermitian_sqrt).
The rule defines what is printed, not just how: a tomographic
reconstruction's water-filled zeros come back from its eigenvectors as
exact binary eigenvalues near 1e-17, and their square roots, near 3e-9,
move an unclamped reference's fidelity by up to 3.5e-10 on zsweep-corr's
seed-101 sweep. Those digits are round-off of the double-precision input,
and the clamp reads them as the zeros they stand for.
"""

from __future__ import annotations

import mpmath
import numpy as np

DIGITS = 40
_EPS = mpmath.mpf(np.finfo(float).eps)


def _hermitian(entries: np.ndarray) -> mpmath.matrix:
    """The Hermitian matrix of the entries' lower triangle, the one that
    numpy's eigh reads, each double converted exactly."""
    d = len(entries)
    return mpmath.matrix([[mpmath.mpc(float(z.real), float(z.imag)) for z in
                           (entries[i, j] if j <= i else np.conj(entries[j, i]) for j in range(d))]
                          for i in range(d)])


def _sqrt(entries: np.ndarray) -> mpmath.matrix:
    """Square root of a Hermitian PSD matrix, eigenvalues at or below
    d * eps * lambda_max counting as 0."""
    lam, vec = mpmath.eighe(_hermitian(entries))
    floor = len(entries) * _EPS * max(lam)
    return vec * mpmath.diag([mpmath.sqrt(x) if x > floor else 0 for x in lam]) * vec.H


def _concurrence(entries: np.ndarray) -> mpmath.mpf:
    sq = _sqrt(entries)
    yy = mpmath.matrix([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
    lam = sorted(mpmath.svd_c(sq * yy * sq.conjugate(), compute_uv=False), reverse=True)
    return max(mpmath.mpf(0), lam[0] - lam[1] - lam[2] - lam[3])


def concurrence(entries: np.ndarray) -> float:
    """Wootters concurrence max(0, l1 - l2 - l3 - l4) of a two-qubit state,
    the l_i the singular values of sqrt(rho) (Y x Y) conj(sqrt(rho))."""
    with mpmath.workdps(DIGITS):
        return float(_concurrence(entries))


def tangle(entries: np.ndarray) -> float:
    """The concurrence squared, rounded once."""
    with mpmath.workdps(DIGITS):
        return float(_concurrence(entries) ** 2)


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity, the squared trace norm of sqrt(rho) sqrt(sigma)."""
    with mpmath.workdps(DIGITS):
        trace_norm = mpmath.fsum(mpmath.svd_c(_sqrt(rho) * _sqrt(sigma), compute_uv=False))
        return float(trace_norm ** 2)
