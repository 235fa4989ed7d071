"""Non-classical correlation measures on bipartite states.

Mutual information H(A) + H(B) - H(AB) captures total correlations. The
classical share accessible by measuring one side is J = H(other) - Hmin,
where Hmin is the average post-measurement entropy of the unmeasured side,
minimized over all rank-1 projective measurements on the measured qubit.
Quantum discord is the gap I - J; it is directional, since measuring one
side is not equivalent to measuring the other. Entanglement is tracked
separately by the Wootters concurrence and its square, the tangle.

Hmin is found by a deterministic, vectorised search: a 32x64 polar-azimuth
grid over the upper hemisphere (n and -n give the same measurement), then
six rounds of an 11x11 grid zoom in the plane tangent to the best direction,
each spanning +-1 step of the previous grid, plus the minimum of a quadratic
fitted to each round's grid. When the unmeasured side is a qubit, the
conditional blocks are 2x2 and their eigenvalues come in closed form; larger
blocks go to batched eigvalsh in chunks of BLOCK_CHUNK_BYTES. The evaluation
count reported is the grid plus the zoom and model points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmath import (
    DensityMatrix,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    partial_trace,
    repartition,
    vn_entropy,
)

MEASURE_CONTROL = "measure_control"
MEASURE_REGISTER = "measure_register"

HEMISPHERE_POLAR = 32
HEMISPHERE_AZIMUTH = 64
ZOOM_ROUNDS = 6
ZOOM_POINTS = 11
BLOCK_CHUNK_BYTES = 1 << 24


@dataclass(frozen=True)
class BlochDirection:
    """Measurement axis on the Bloch sphere."""

    polar: float
    azimuth: float

    def __post_init__(self):
        if not 0.0 <= self.polar <= np.pi:
            raise ValueError(f"polar angle must be in [0, pi], got {self.polar}")
        if not 0.0 <= self.azimuth < 2.0 * np.pi:
            raise ValueError(f"azimuth must be in [0, 2*pi), got {self.azimuth}")

    @property
    def unit_vector(self) -> np.ndarray:
        sp = np.sin(self.polar)
        return np.array(
            [sp * np.cos(self.azimuth), sp * np.sin(self.azimuth), np.cos(self.polar)]
        )


@dataclass(frozen=True)
class CorrelationReport:
    """All correlation measures for one two-qubit state.

    discord_rc measures on the control (subsystem 0), discord_cr on the
    register; argmin_direction is the minimizing measurement axis on the
    control.
    """

    mutual_info: float
    discord_rc: float
    discord_cr: float
    tangle: float
    argmin_direction: BlochDirection
    optimizer_evals: int

    def __post_init__(self):
        if self.discord_rc < -1e-9 or self.discord_cr < -1e-9:
            raise ValueError("discord values must be >= -1e-9")
        if not -1e-9 <= self.tangle <= 1.0 + 1e-9:
            raise ValueError(f"tangle must be in [0, 1], got {self.tangle}")

    def to_dict(self) -> dict:
        return {
            "mutual_info": self.mutual_info,
            "discord_rc": self.discord_rc,
            "discord_cr": self.discord_cr,
            "tangle": self.tangle,
            "argmin_direction": {
                "polar": self.argmin_direction.polar,
                "azimuth": self.argmin_direction.azimuth,
            },
            "optimizer_evals": self.optimizer_evals,
        }


def _bipartite(rho: DensityMatrix, split) -> DensityMatrix:
    if split is not None:
        rho = repartition(rho, split)
    if len(rho.qubit_dims) != 2:
        raise ValueError(
            f"state is not bipartite: qubit_dims = {rho.qubit_dims}"
        )
    return rho


def mutual_information(rho: DensityMatrix, split=None) -> float:
    """H(A) + H(B) - H(AB) in bits; nonnegative up to round-off."""
    rho = _bipartite(rho, split)
    h_a = vn_entropy(partial_trace(rho, 0))
    h_b = vn_entropy(partial_trace(rho, 1))
    return h_a + h_b - vn_entropy(rho)


def _weighted_entropy(mu: np.ndarray) -> np.ndarray:
    """-sum mu log2(mu/p) over the last axis, with p = sum(mu) and 0 log 0 = 0.

    mu holds eigenvalues of unnormalized conditional blocks, so each term is
    the outcome probability times the entropy of the normalized state.
    """
    mu = np.clip(mu, 0.0, None)
    p = mu.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = mu * (np.log2(mu) - np.log2(p))
    terms = np.where(mu > 0.0, terms, 0.0)
    return -terms.sum(axis=-1)


def _measurement_blocks(rho: DensityMatrix, measured: int):
    """Reduce the conditional-state computation to B(n) = (R + n.K)/2.

    For a projector (I + n.sigma)/2 on the measured qubit, the unnormalized
    conditional state of the other side is (R + sum_k n_k K_k)/2 with R the
    reduced other-side state and K_k fixed Hermitian matrices.
    """
    d0, d1 = rho.subsystem_dims
    t = rho.entries.reshape(d0, d1, d0, d1)
    if measured == 0:
        r = np.einsum("iaib->ab", t)
        k = np.stack(
            [np.einsum("ij,jaib->ab", s, t) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)]
        )
    else:
        r = np.einsum("arbr->ab", t)
        k = np.stack(
            [np.einsum("rs,asbr->ab", s, t) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)]
        )
    return r, k


def _hemisphere_grid() -> np.ndarray:
    polar = np.linspace(0.0, np.pi / 2.0, HEMISPHERE_POLAR)
    azim = np.linspace(0.0, 2.0 * np.pi, HEMISPHERE_AZIMUTH, endpoint=False)
    pg, ag = np.meshgrid(polar, azim, indexing="ij")
    nvec = np.stack(
        [np.sin(pg) * np.cos(ag), np.sin(pg) * np.sin(ag), np.cos(pg)], axis=-1
    )
    return nvec.reshape(-1, 3)


_HEMISPHERE = _hemisphere_grid()
# Polar step of the hemisphere grid, the half-width of the first zoom window.
# The grid points of later rounds reach 1.25 of it in all, which covers the
# half-diagonal of a grid cell even at the equator, where the azimuth step is
# twice as wide; the quadratic-model points may go further.
_COARSE_STEP = (np.pi / 2.0) / (HEMISPHERE_POLAR - 1)
_ZOOM_OFFSETS = np.stack(
    np.meshgrid(*2 * [np.linspace(-1.0, 1.0, ZOOM_POINTS)], indexing="ij"), axis=-1
).reshape(-1, 2)


def _quadratic_fit(offsets: np.ndarray) -> np.ndarray:
    """Least-squares map from values at offsets (u, v) to the coefficients
    of c0 + c1 u + c2 v + c3 u^2 + c4 u v + c5 v^2."""
    u, v = offsets.T
    return np.linalg.pinv(np.stack([np.ones_like(u), u, v, u * u, u * v, v * v], axis=1))


_ZOOM_FIT = _quadratic_fit(_ZOOM_OFFSETS)


# Both spectra builders take the blocks of _measurement_blocks and return a
# function from directions (G, 3) to the eigenvalues (G, 2, d) of the
# conditional blocks (R + n.K)/2 and (R - n.K)/2.

def _qubit_spectra(r: np.ndarray, k: np.ndarray):
    """Closed form for 2x2 blocks: X = (tr X I + x.sigma)/2 with
    x_j = tr(X sigma_j) has eigenvalues (tr X +- |x|)/2."""
    paulis = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])
    tr_r = np.trace(r).real
    vec_r = np.einsum("jab,ba->j", paulis, r).real
    tr_k = np.einsum("kaa->k", k).real
    vec_k = np.einsum("jab,kba->kj", paulis, k).real
    sign = np.array([1.0, -1.0])[:, None]  # outcomes +n and -n

    def spectra(nvec: np.ndarray) -> np.ndarray:
        tr = tr_r + sign * (nvec @ tr_k)
        rad = np.linalg.norm(vec_r + sign[..., None] * (nvec @ vec_k), axis=-1)
        return np.stack([tr - rad, tr + rad], axis=-1).transpose(1, 0, 2) / 4.0

    return spectra


def _dense_spectra(r: np.ndarray, k: np.ndarray):
    """Batched eigvalsh, in chunks of directions whose stacked blocks fit in
    BLOCK_CHUNK_BYTES, so memory stays bounded for any register size."""
    d = r.shape[0]
    chunk = max(1, BLOCK_CHUNK_BYTES // (2 * d * d * r.itemsize))

    def spectra(nvec: np.ndarray) -> np.ndarray:
        mu = np.empty((len(nvec), 2, d))
        for start in range(0, len(nvec), chunk):
            m = np.einsum("gk,kab->gab", nvec[start:start + chunk], k)
            mu[start:start + chunk] = np.linalg.eigvalsh(
                np.stack([(r + m) / 2.0, (r - m) / 2.0], axis=1)
            )
        return mu

    return spectra


def _tangent_frame(n: np.ndarray) -> np.ndarray:
    """Rows: the unit polar and azimuth directions at the unit vector n.

    Both are defined at the poles too (with azimuth 0 there), so the zoom
    has no coordinate singularity.
    """
    polar = math.acos(max(-1.0, min(1.0, float(n[2]))))
    azimuth = math.atan2(float(n[1]), float(n[0]))
    cp, sp = math.cos(polar), math.sin(polar)
    ca, sa = math.cos(azimuth), math.sin(azimuth)
    return np.array([[cp * ca, cp * sa, -sp], [-sa, ca, 0.0]])


def _model_minimum(vals: np.ndarray):
    """Minimum of the least-squares quadratic through the zoom-grid values,
    in units of the window half-width, or None if the fit has no minimum."""
    c = _ZOOM_FIT @ vals
    hess = np.array([[2.0 * c[3], c[4]], [c[4], 2.0 * c[5]]])
    if not (hess[0, 0] > 0.0 and np.linalg.det(hess) > 0.0):
        return None
    return np.linalg.solve(hess, -c[1:3])


def _unit_rows(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _minimize_conditional_entropy(rho: DensityMatrix, measured: int):
    """Hemisphere grid, then ZOOM_ROUNDS of local grid zoom.

    Each zoom round evaluates a ZOOM_POINTS^2 grid in the plane tangent to
    the best direction so far, spanning +-1 step of the previous grid, so
    the step shrinks (ZOOM_POINTS - 1)/2 times per round. The grid alone
    can lose the minimum of a narrow valley that runs across it (near the
    Clifford points, or any state under a local rotation), so each round
    also tries the minimum of the quadratic fitted to its grid values.

    Returns (value, BlochDirection, objective evaluations); the direction
    is reported on the upper hemisphere. Fully deterministic.
    """
    if len(rho.qubit_dims) != 2:
        raise ValueError(f"state is not bipartite: qubit_dims = {rho.qubit_dims}")
    if measured not in (0, 1):
        raise ValueError(f"measured subsystem index must be 0 or 1, got {measured}")
    if rho.qubit_dims[measured] != 1:
        raise ValueError("measured subsystem must be a single qubit")

    r, k = _measurement_blocks(rho, measured)
    spectra = (_qubit_spectra if r.shape[0] == 2 else _dense_spectra)(r, k)

    def objective(nvec: np.ndarray) -> np.ndarray:
        return _weighted_entropy(spectra(nvec)).sum(axis=1)

    vals = objective(_HEMISPHERE)
    best = int(np.argmin(vals))
    n, value = _HEMISPHERE[best], float(vals[best])
    evals = len(vals)
    half = _COARSE_STEP
    for _ in range(ZOOM_ROUNDS):
        frame = _tangent_frame(n)
        cand = _unit_rows(n + half * (_ZOOM_OFFSETS @ frame))
        vals = objective(cand)
        step = _model_minimum(vals)
        if step is not None:
            model = _unit_rows(n + half * (step @ frame))
            cand = np.vstack([cand, model])
            vals = np.append(vals, objective(model[None]))
        evals += len(vals)
        best = int(np.argmin(vals))
        if vals[best] < value:
            n, value = cand[best], float(vals[best])
        half *= 2.0 / (ZOOM_POINTS - 1)
    if n[2] < 0.0:
        n = -n
    polar = float(np.arccos(min(n[2], 1.0)))
    azimuth = float(np.arctan2(n[1], n[0]) % (2.0 * np.pi))
    if azimuth >= 2.0 * np.pi:  # float modulo can round up to the period
        azimuth = 0.0
    return value, BlochDirection(polar, azimuth), evals


def min_conditional_entropy(rho: DensityMatrix, measured: int):
    """Minimum average entropy of the unmeasured side over projective
    measurements on the measured qubit, with the achieving direction."""
    value, direction, _ = _minimize_conditional_entropy(rho, measured)
    return value, direction


def _discord_detail(rho: DensityMatrix, measured: int):
    other = 1 - measured
    info = mutual_information(rho)
    h_other = vn_entropy(partial_trace(rho, other))
    h_min, direction, evals = _minimize_conditional_entropy(rho, measured)
    return info - (h_other - h_min), direction, evals


def discord(rho: DensityMatrix, direction: str) -> float:
    """Quantum discord I - J in bits for the given measurement side.

    measure_control measures subsystem 0, measure_register subsystem 1; the
    measured subsystem must be a single qubit.
    """
    if direction == MEASURE_CONTROL:
        measured = 0
    elif direction == MEASURE_REGISTER:
        measured = 1
    else:
        raise ValueError(
            f"direction must be {MEASURE_CONTROL!r} or {MEASURE_REGISTER!r}, got {direction!r}"
        )
    value, _, _ = _discord_detail(rho, measured)
    return value


def concurrence(rho: DensityMatrix) -> float:
    """Wootters spin-flip concurrence of a two-qubit state."""
    if rho.dim != 4:
        raise ValueError(f"concurrence requires a two-qubit state, got dim {rho.dim}")
    yy = np.kron(SIGMA_Y, SIGMA_Y)
    rt = rho.entries @ yy @ rho.entries.conj() @ yy
    lam = np.linalg.eigvals(rt)
    # eigenvalues of rho rho~ are real and nonnegative up to round-off
    lam = np.sqrt(np.clip(np.sort(lam.real)[::-1], 0.0, None))
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def tangle(rho: DensityMatrix) -> float:
    """Concurrence squared."""
    return concurrence(rho) ** 2


def correlation_report(rho: DensityMatrix) -> CorrelationReport:
    """Full correlation analysis of a two-qubit state."""
    if rho.qubit_dims != (1, 1):
        rho = repartition(rho, (1, 1))
    info = mutual_information(rho)
    d_rc, direction, evals_c = _discord_detail(rho, 0)
    d_cr, _, evals_r = _discord_detail(rho, 1)
    return CorrelationReport(
        mutual_info=info,
        discord_rc=d_rc,
        discord_cr=d_cr,
        tangle=tangle(rho),
        argmin_direction=direction,
        optimizer_evals=evals_c + evals_r,
    )
