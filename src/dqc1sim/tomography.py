"""Two-qubit state tomography with Poissonian counts.

Simulates the 36-setting over-complete measurement scheme (all products of
the six single-qubit Pauli eigenstates) and reconstructs density matrices
by linear least squares over the 16 two-qubit Pauli expectations followed
by projection onto the physical (PSD, unit-trace) set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .qmath import DensityMatrix, PAULIS

BASIS_LABELS = ("z+", "z-", "x+", "x-", "y+", "y-")

_KETS = {
    "z+": np.array([1.0, 0.0], dtype=complex),
    "z-": np.array([0.0, 1.0], dtype=complex),
    "x+": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "x-": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
    "y+": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
    "y-": np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0),
}

_PAULI_ORDER = ("I", "X", "Y", "Z")


class ReconstructionError(ValueError):
    """Raised when counts cannot be normalized or inverted."""


@dataclass(frozen=True)
class TomographySetting:
    """One product projector, e.g. basis_a='x+', basis_b='z-'."""

    basis_a: str
    basis_b: str

    def __post_init__(self):
        for lab in (self.basis_a, self.basis_b):
            if lab not in _KETS:
                raise ValueError(f"unknown basis label {lab!r}")

    @property
    def label(self) -> str:
        return self.basis_a + self.basis_b

    @property
    def projector(self) -> np.ndarray:
        ket = np.kron(_KETS[self.basis_a], _KETS[self.basis_b])
        return np.outer(ket, ket.conj())

    @property
    def pauli_pair(self) -> tuple[str, str]:
        return self.basis_a[0].upper(), self.basis_b[0].upper()

    @property
    def signs(self) -> tuple[int, int]:
        return (1 if self.basis_a[1] == "+" else -1,
                1 if self.basis_b[1] == "+" else -1)


def all_settings() -> tuple[TomographySetting, ...]:
    """The canonical 36 over-complete settings, in product order."""
    return tuple(
        TomographySetting(a, b) for a, b in itertools.product(BASIS_LABELS, repeat=2)
    )


def minimal_settings() -> tuple[TomographySetting, ...]:
    """A minimal 16-projector subset: {z+, z-, x+, y+} on each qubit.

    The complete z (x) z group provides the flux normalization.
    """
    labels = ("z+", "z-", "x+", "y+")
    return tuple(
        TomographySetting(a, b) for a, b in itertools.product(labels, repeat=2)
    )


def setting_from_label(label: str) -> TomographySetting:
    if len(label) != 4:
        raise ValueError(f"setting label must be 4 characters, got {label!r}")
    return TomographySetting(label[:2], label[2:])


def _check_mean_counts(mean_counts: float) -> None:
    if not 0.0 < mean_counts < np.inf:
        raise ValueError(f"mean_counts must be positive and finite, got {mean_counts}")


@dataclass(frozen=True)
class TomographyRun:
    """Counts for a list of settings at a common mean flux per setting."""

    settings: tuple[TomographySetting, ...]
    counts: np.ndarray
    mean_counts: float
    seed: int | None = None

    def __post_init__(self):
        settings = tuple(self.settings)
        counts = np.array(self.counts, dtype=float)
        if counts.ndim != 1 or len(counts) != len(settings):
            raise ValueError(
                f"counts length {counts.shape} does not match {len(settings)} settings"
            )
        if not np.all((counts >= 0) & np.isfinite(counts)):
            raise ValueError("counts must be finite and nonnegative")
        _check_mean_counts(self.mean_counts)
        counts.setflags(write=False)
        object.__setattr__(self, "settings", settings)
        object.__setattr__(self, "counts", counts)

    def to_json(self) -> dict:
        counts = [
            int(c) if float(c).is_integer() else float(c) for c in self.counts
        ]
        return {
            "settings": [s.label for s in self.settings],
            "counts": counts,
            "mean": self.mean_counts,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TomographyRun":
        return cls(
            settings=tuple(setting_from_label(lab) for lab in obj["settings"]),
            counts=np.asarray(obj["counts"], dtype=float),
            mean_counts=float(obj["mean"]),
            seed=obj.get("seed"),
        )


def _setting_probabilities(rho: DensityMatrix, settings) -> np.ndarray:
    if rho.dim != 4:
        raise ValueError(f"tomography requires a two-qubit state, got dim {rho.dim}")
    return np.array(
        [float(np.einsum("ij,ji->", rho.entries, s.projector).real) for s in settings]
    )


def simulate_counts(rho: DensityMatrix, mean_counts: float, seed) -> TomographyRun:
    """Poisson counts with mean mean_counts * Tr(rho P) per setting."""
    _check_mean_counts(mean_counts)
    settings = all_settings()
    probs = np.clip(_setting_probabilities(rho, settings), 0.0, None)
    rng = np.random.default_rng(seed)
    counts = rng.poisson(mean_counts * probs).astype(float)
    stored_seed = seed if isinstance(seed, (int, np.integer)) else None
    return TomographyRun(settings, counts, float(mean_counts),
                         seed=None if stored_seed is None else int(stored_seed))


def noiseless_run(rho: DensityMatrix, mean_counts: float = 1.0) -> TomographyRun:
    """Counts replaced by exact probabilities times the mean (no noise)."""
    settings = all_settings()
    probs = _setting_probabilities(rho, settings)
    return TomographyRun(settings, mean_counts * probs, float(mean_counts))


def _group_probabilities(run: TomographyRun) -> np.ndarray:
    """Counts -> probabilities, normalizing within complete projector groups.

    Settings whose basis pair has all four outcomes present are normalized by
    their own group total; leftover settings use the mean flux of the
    complete groups. Zero-signal groups are an explicit error.
    """
    groups: dict[tuple[str, str], list[int]] = {}
    for i, s in enumerate(run.settings):
        groups.setdefault(s.pauli_pair, []).append(i)
    probs = np.empty(len(run.counts))
    fluxes = []
    incomplete = []
    for pair, idx in groups.items():
        sign_sets = {run.settings[i].signs for i in idx}
        if len(idx) == 4 and len(sign_sets) == 4:
            total = float(run.counts[idx].sum())
            if total <= 0:
                raise ReconstructionError(
                    f"no signal in basis pair {pair[0]}{pair[1]}"
                )
            probs[idx] = run.counts[idx] / total
            fluxes.append(total)
        else:
            incomplete.extend(idx)
    if incomplete:
        if not fluxes:
            raise ReconstructionError(
                "no complete basis pair available for flux normalization"
            )
        flux = float(np.mean(fluxes))
        probs[incomplete] = run.counts[incomplete] / flux
    return probs


def linear_estimate(run: TomographyRun) -> np.ndarray:
    """Least-squares inversion to the 16 Pauli expectations (no projection).

    Returns the Hermitian matrix (1/4) sum s_ij sigma_i (x) sigma_j with
    s_II fixed at 1; the result may have small negative eigenvalues.
    """
    probs = _group_probabilities(run)
    unknowns = [(i, j) for i in _PAULI_ORDER for j in _PAULI_ORDER if (i, j) != ("I", "I")]
    col = {pair: k for k, pair in enumerate(unknowns)}
    design = np.zeros((len(run.settings), len(unknowns)))
    for row, s in enumerate(run.settings):
        a_pauli, b_pauli = s.pauli_pair
        sa, sb = s.signs
        design[row, col[(a_pauli, "I")]] = sa / 4.0
        design[row, col[("I", b_pauli)]] = sb / 4.0
        design[row, col[(a_pauli, b_pauli)]] = sa * sb / 4.0
    rhs = probs - 0.25
    sol, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
    if rank < len(unknowns):
        raise ReconstructionError(
            f"settings determine only {rank} of {len(unknowns)} Pauli components"
        )
    rho = np.eye(4, dtype=complex)
    for (i, j), s_val in zip(unknowns, sol):
        rho += s_val * np.kron(PAULIS[i], PAULIS[j])
    return rho / 4.0


def _simplex_projection(lam: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection of eigenvalues onto {lam >= 0, sum = total}."""
    srt = np.sort(lam)[::-1]
    csum = np.cumsum(srt)
    ks = np.arange(1, len(lam) + 1)
    taus = (csum - total) / ks
    k = int(np.nonzero(srt - taus > 0)[0][-1]) + 1
    tau = (csum[k - 1] - total) / k
    return np.clip(lam - tau, 0.0, None)


def psd_project(m: np.ndarray, target_trace: float = 1.0) -> np.ndarray:
    """Nearest (Frobenius) PSD matrix with the given trace.

    Shares the input's eigenvectors; the eigenvalues are water-filled onto
    the simplex of the target trace.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if np.max(np.abs(m - m.conj().T)) > 1e-8:
        raise ValueError("matrix is not Hermitian")
    lam, vec = np.linalg.eigh(m)
    lam = _simplex_projection(lam, float(target_trace))
    return (vec * lam) @ vec.conj().T


def reconstruct(run: TomographyRun) -> DensityMatrix:
    """Full pipeline: least-squares inversion then physical projection."""
    return DensityMatrix(psd_project(linear_estimate(run)), (1, 1))
