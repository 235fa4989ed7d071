"""Two-qubit state tomography with Poissonian counts.

Simulates the 36-setting over-complete measurement scheme (all products of
the six single-qubit Pauli eigenstates) and reconstructs density matrices
by least-squares inversion, in closed form, to the 16 two-qubit Pauli
expectations followed by projection onto the physical (PSD, unit-trace)
set. A counts row is checked once, by check_counts, before it is
reconstructed; the reconstruction steps take it unchecked.
"""

from __future__ import annotations

import itertools

import numpy as np

from .qmath import DensityMatrix, PAULI_EIGENSTATES, PAULIS, _trusted_state, check_range
from .sampling import MAX_SHOTS

# Axis-major: label 2k + s is Pauli axis "zxy"[k] with sign "+-"[s].
BASIS_LABELS = ("z+", "z-", "x+", "x-", "y+", "y-")

# The one scheme: setting 6a + b measures qubit 0 in BASIS_LABELS[a] and
# qubit 1 in BASIS_LABELS[b], e.g. "x+z-".
SETTING_LABELS = tuple(a + b for a, b in itertools.product(BASIS_LABELS, repeat=2))


def _ket(label: str) -> np.ndarray:
    """The one-qubit state of a basis label: "x-" is the -1 eigenvector of X."""
    return PAULI_EIGENSTATES[label[0].upper()]["+-".index(label[1])]


def _projector(label: str) -> np.ndarray:
    ket = np.kron(_ket(label[:2]), _ket(label[2:]))
    return np.outer(ket, ket.conj())


PROJECTORS = np.array([_projector(lab) for lab in SETTING_LABELS])
PROJECTORS.setflags(write=False)

# I, then the Pauli axes in BASIS_LABELS order: Z, X, Y.
_PAULI_STACK = np.array([PAULIS[c] for c in "IZXY"])
_SIGNS = np.array([1.0, -1.0])


def check_mean_counts(mean_counts: float) -> None:
    """The one check of a mean count per setting: in (0, MAX_SHOTS], so
    numpy's Poisson draw takes the rate of every setting."""
    check_range("mean_counts", mean_counts, 0.0, MAX_SHOTS, open_low=True)


class ReconstructionError(ValueError):
    """Raised when a counts row cannot be normalized into probabilities."""


def simulate_counts(rho: DensityMatrix, mean_counts: float, seed) -> np.ndarray:
    """Poisson counts with mean mean_counts * Tr(rho P) per setting: a
    read-only float array of 36 whole, nonnegative counts in SETTING_LABELS
    order."""
    check_mean_counts(mean_counts)
    if rho.dim != 4:
        raise ValueError(f"tomography requires a two-qubit state, got dim {rho.dim}")
    probs = np.einsum("ij,pji->p", rho.entries, PROJECTORS).real
    rng = np.random.default_rng(seed)
    counts = rng.poisson(mean_counts * np.clip(probs, 0.0, None)).astype(float)
    counts.setflags(write=False)
    return counts


def check_counts(counts: np.ndarray) -> None:
    """The one check of a counts row (36,) before reconstruction: each basis
    pair (the four sign outcomes of one Pauli axis pair) must hold counts,
    so that it can be normalized. The first empty pair, in ZXY x ZXY order,
    is named."""
    totals = counts.reshape(3, 2, 3, 2).sum(axis=(1, 3))
    if (totals <= 0).any():
        a, b = np.argwhere(totals <= 0)[0].tolist()
        raise ReconstructionError(f"no signal in basis pair {'ZXY'[a]}{'ZXY'[b]}")


def linear_estimate(counts: np.ndarray) -> np.ndarray:
    """Least-squares inversion of each count row (..., 36) to the 16 Pauli
    expectations (no projection). Each row is normalized within its basis
    pairs and is not checked: check_counts is the one check that it can be.

    Setting (a, sa, b, sb) has probability (1 + sa s_aI + sb s_Ib +
    sa sb s_ab) / 4. Over each basis pair's four outcomes sa, sb and sa sb
    sum to zero and are orthogonal, so the 36 x 15 design has orthogonal
    columns and least squares decouples: s_ab = sum sa sb p over its one
    pair, and s_aI (s_Ib) is the mean of sum sa p (sum sb p) over its three.

    Returns (1/4) sum s_ij sigma_i (x) sigma_j with s_II = 1, (..., 4, 4),
    exactly Hermitian: real coefficients times Pauli entries in {0, +-1,
    +-i}, summed in the same order on both sides of the diagonal. It may
    have small negative eigenvalues.
    """
    # last four axes: (axis of qubit 0, sign of qubit 0, axis of qubit 1,
    # sign of qubit 1)
    groups = counts.reshape(counts.shape[:-1] + (3, 2, 3, 2))
    p = groups / groups.sum(axis=(-3, -1), keepdims=True)
    s = np.ones(p.shape[:-4] + (4, 4))
    s[..., 1:, 1:] = np.einsum("s,r,...asbr->...ab", _SIGNS, _SIGNS, p)
    s[..., 1:, 0] = np.einsum("s,...asbr->...ab", _SIGNS, p).mean(axis=-1)
    s[..., 0, 1:] = np.einsum("r,...asbr->...ab", _SIGNS, p).mean(axis=-2)
    rho = np.einsum("...ij,ikl,jmn->...kmln", s, _PAULI_STACK, _PAULI_STACK)
    return rho.reshape(p.shape[:-4] + (4, 4)) / 4.0


def _simplex_projection(lam: np.ndarray) -> np.ndarray:
    """Euclidean projection of each spectrum along the last axis of lam onto
    {lam >= 0, sum = 1}."""
    srt = np.sort(lam, axis=-1)[..., ::-1]
    csum = np.cumsum(srt, axis=-1)
    ks = np.arange(1, lam.shape[-1] + 1)
    taus = (csum - 1.0) / ks
    # the last k with srt - taus > 0; k = 1 always qualifies
    k = lam.shape[-1] - np.argmax((srt - taus > 0)[..., ::-1], axis=-1)
    tau = (np.take_along_axis(csum, k[..., None] - 1, axis=-1)[..., 0] - 1.0) / k
    return np.clip(lam - tau[..., None], 0.0, None)


def psd_project(m: np.ndarray) -> np.ndarray:
    """Nearest (Frobenius) PSD matrix with unit trace to each Hermitian
    matrix in a stack m (..., d, d).

    Shares the input's eigenvectors; the eigenvalues are water-filled onto
    the probability simplex. m is not checked: its one caller passes
    linear_estimate's output, which is Hermitian by construction.
    """
    lam, vec = np.linalg.eigh(m)
    return (vec * _simplex_projection(lam)[..., None, :]) @ vec.conj().swapaxes(-1, -2)


def stack_reconstruct(counts: np.ndarray) -> np.ndarray:
    """reconstruct of each row of an (S, 36) counts array, as the entries
    (S, 4, 4) of the states. The rows are not checked: each must have passed
    check_counts."""
    return psd_project(linear_estimate(counts))


def reconstruct(counts: np.ndarray) -> DensityMatrix:
    """Full pipeline: check_counts, then least-squares inversion and
    physical projection.

    psd_project's water-filled spectrum is nonnegative and sums to one, so
    the result is a valid state by construction and is not re-checked.
    The one-state case of stack_reconstruct.
    """
    check_counts(counts)
    return _trusted_state(stack_reconstruct(counts[None])[0], (1, 1))
