"""Two-qubit state tomography with Poissonian counts.

Simulates the 36-setting over-complete measurement scheme (all products of
the six single-qubit Pauli eigenstates) and reconstructs density matrices
by least-squares inversion, in closed form, to the 16 two-qubit Pauli
expectations followed by projection onto the physical (PSD, unit-trace)
set. A counts row is checked once, by pair_frequencies, which also
normalizes it within its basis pairs; the reconstruction steps take its
frequencies unchecked.
"""

from __future__ import annotations

import itertools

import numpy as np

from .qmath import DensityMatrix, PAULI_EIGENSTATES, PAULIS, _trusted_state, check_range
from .sampling import MAX_SHOTS, seed_sequence

# The one axis order: basis label 2k + s is Pauli axis _AXES[k] with sign
# "+-"[s], e.g. "x-".
_AXES = "ZXY"
BASIS_LABELS = tuple(a.lower() + s for a in _AXES for s in "+-")

# The one scheme: setting 6a + b measures qubit 0 in BASIS_LABELS[a] and
# qubit 1 in BASIS_LABELS[b], e.g. "x+z-".
SETTING_LABELS = tuple(a + b for a, b in itertools.product(BASIS_LABELS, repeat=2))

_KETS = [ket for a in _AXES for ket in PAULI_EIGENSTATES[a]]  # in BASIS_LABELS order
PROJECTORS = np.array([np.outer(ket, ket.conj())
                       for ket in itertools.starmap(np.kron, itertools.product(_KETS, repeat=2))])
PROJECTORS.setflags(write=False)

_PAULI_STACK = np.array([PAULIS[c] for c in "I" + _AXES])
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
    order, drawn from the seed that seed_sequence reads."""
    check_mean_counts(mean_counts)
    if rho.dim != 4:
        raise ValueError(f"tomography requires a two-qubit state, got dim {rho.dim}")
    probs = np.einsum("ij,pji->p", rho.entries, PROJECTORS).real
    rng = np.random.default_rng(seed_sequence(seed))
    counts = rng.poisson(mean_counts * np.clip(probs, 0.0, None)).astype(float)
    counts.setflags(write=False)
    return counts


def pair_frequencies(counts: np.ndarray) -> np.ndarray:
    """The one check of a counts row (36,), which also makes the
    estimator's input. Each basis pair (the four sign outcomes of one Pauli
    axis pair) must hold counts, else ReconstructionError names the first
    empty pair, in _AXES x _AXES order. Returns the row normalized within its
    pairs, as frequencies (3, 2, 3, 2): axis of qubit 0, sign of qubit 0,
    axis of qubit 1, sign of qubit 1."""
    groups = counts.reshape(3, 2, 3, 2)
    totals = groups.sum(axis=(-3, -1), keepdims=True)
    if (totals <= 0).any():
        a, _, b, _ = np.argwhere(totals <= 0)[0].tolist()
        raise ReconstructionError(f"no signal in basis pair {_AXES[a]}{_AXES[b]}")
    return groups / totals


def linear_estimate(p: np.ndarray) -> np.ndarray:
    """Least-squares inversion of pair_frequencies' output, a stack
    (..., 3, 2, 3, 2), to the 16 Pauli expectations (no projection).

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


def stack_reconstruct(p: np.ndarray) -> np.ndarray:
    """reconstruct of each row of a stack (S, 3, 2, 3, 2) of
    pair_frequencies' outputs, as the entries (S, 4, 4) of the states."""
    return psd_project(linear_estimate(p))


def reconstruct(counts: np.ndarray) -> DensityMatrix:
    """Full pipeline: pair_frequencies, then least-squares inversion and
    physical projection.

    psd_project's water-filled spectrum is nonnegative and sums to one, so
    the result is a valid state by construction and is not re-checked.
    The one-state case of stack_reconstruct.
    """
    return _trusted_state(stack_reconstruct(pair_frequencies(counts)[None])[0], (1, 1))
