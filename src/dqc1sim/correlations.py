"""Non-classical correlation measures on bipartite states.

Mutual information H(A) + H(B) - H(AB) captures total correlations. The
classical share accessible by measuring one side is J = H(other) - Hmin,
where Hmin is the average post-measurement entropy of the unmeasured side,
minimized over all rank-1 projective measurements on the measured qubit.
Quantum discord is the gap I - J; it is directional, since measuring one
side is not equivalent to measuring the other. Entanglement is tracked
separately by the Wootters concurrence and its square, the tangle.

Hmin is found by a deterministic, vectorised search. The unnormalized
conditional blocks are (R +- n.K)/2, so the objective depends on the axis n
only through n.K, and it is concave on the Bloch ball; its minimum over the
sphere is therefore its minimum over the unit sphere of the row space of the
three K matrices, whose dimension (the rank) an SVD gives:

- rank 3: a 32x64 polar-azimuth grid over the upper hemisphere (n and -n
  give the same measurement), then six rounds of an 11x11 grid zoom in the
  plane tangent to the best direction, each spanning +-1 step of the
  previous grid, plus the minimum of a quadratic fitted to each round's
  grid: at most 2048 + 6 x 122 = 2780 evaluations;
- rank 2: a 64-point half great circle, then six rounds of the same zoom
  along the circle with 11 points and a model point: at most 64 + 6 x 12 =
  136 evaluations;
- rank 1 or 0: one axis, one evaluation.

A DQC1 output has equal diagonal blocks, so K_z = 0 and the control side
has rank at most 2 (the optimum lies on the equator); it is classical on
the register, so with a one-qubit register the register side has rank 1.
When the unmeasured side is a qubit, the conditional blocks are 2x2 and
their eigenvalues come in closed form; larger blocks go to batched eigvalsh
in chunks of BLOCK_CHUNK_BYTES. The evaluation count reported is the grid
plus the zoom and model points.
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
CIRCLE_POINTS = 64
# Singular values of the K matrices at or below this fraction of the largest
# count as zero when the searched axes are chosen; min_conditional_entropy
# bounds the entropy error this allows.
AXIS_RANK_RTOL = 1e-13
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


def _check_bipartite(rho: DensityMatrix) -> None:
    if len(rho.qubit_dims) != 2:
        raise ValueError(
            f"state is not bipartite: qubit_dims = {rho.qubit_dims}"
        )


def _entropies(rho: DensityMatrix) -> tuple[float, float, float]:
    """H(A), H(B) and H(AB) in bits of a bipartite state."""
    _check_bipartite(rho)
    return (
        vn_entropy(partial_trace(rho, 0)),
        vn_entropy(partial_trace(rho, 1)),
        vn_entropy(rho),
    )


def mutual_information(rho: DensityMatrix) -> float:
    """H(A) + H(B) - H(AB) in bits; nonnegative up to round-off."""
    h_a, h_b, h_ab = _entropies(rho)
    return h_a + h_b - h_ab


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


def _zoom_stencil(dim: int):
    """The ZOOM_POINTS^dim grid of offsets in [-1, 1]^dim, the least-squares
    map from values on it to the coefficients of a quadratic in dim
    variables (the constant, the linear terms, then u_i u_j for i <= j; for
    dim 2: c0 + c1 u + c2 v + c3 u^2 + c4 u v + c5 v^2), and the index and
    scale arrays with which c[index] * scale is the quadratic's Hessian."""
    offsets = np.stack(
        np.meshgrid(*dim * [np.linspace(-1.0, 1.0, ZOOM_POINTS)], indexing="ij"), axis=-1
    ).reshape(-1, dim)
    i, j = np.triu_indices(dim)
    design = np.column_stack([np.ones(len(offsets)), offsets, offsets[:, i] * offsets[:, j]])
    index = np.empty((dim, dim), dtype=int)
    index[i, j] = index[j, i] = 1 + dim + np.arange(len(i))
    return offsets, np.linalg.pinv(design), index, 1.0 + np.eye(dim)


_SPHERE_ZOOM = _zoom_stencil(2)
_CIRCLE_ZOOM = _zoom_stencil(1)


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


def _model_minimum(stencil, vals: np.ndarray):
    """Minimum of the least-squares quadratic through the zoom-grid values,
    in units of the window half-width, or None if the fit has no minimum.

    For dim 1 or 2 the two tests below are exactly a positive definite
    Hessian.
    """
    _, fit, index, scale = stencil
    c = fit @ vals
    hess = c[index] * scale
    if not (hess[0, 0] > 0.0 and np.linalg.det(hess) > 0.0):
        return None
    return np.linalg.solve(hess, -c[1:1 + len(hess)])


def _unit_rows(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _zoom(objective, n, value, frame_of, stencil, half):
    """ZOOM_ROUNDS of local grid zoom from the direction n of value value.

    Each round evaluates the stencil's grid along the tangent directions
    frame_of(n) (rows) at the best direction so far, spanning +-half, so
    the step shrinks (ZOOM_POINTS - 1)/2 times per round. The grid alone
    can lose the minimum of a narrow valley that runs across it (near the
    Clifford points, or any state under a local rotation), so each round
    also tries the minimum of the quadratic fitted to its grid values.
    Returns the best direction, its value and the evaluations made.
    """
    offsets = stencil[0]
    evals = 0
    for _ in range(ZOOM_ROUNDS):
        frame = frame_of(n)
        cand = _unit_rows(n + half * (offsets @ frame))
        vals = objective(cand)
        step = _model_minimum(stencil, vals)
        if step is not None:
            model = _unit_rows(n + half * (step @ frame))
            cand = np.vstack([cand, model])
            vals = np.append(vals, objective(model[None]))
        evals += len(vals)
        best = int(np.argmin(vals))
        if vals[best] < value:
            n, value = cand[best], float(vals[best])
        half *= 2.0 / (ZOOM_POINTS - 1)
    return n, value, evals


def _axis_rank(k: np.ndarray):
    """Rank of the three K matrices as real vectors, and the left singular
    vectors (columns, largest singular value first) of the real 3 x 2d^2
    matrix of their real and imaginary parts, whose first rank columns span
    the axes the conditional blocks depend on."""
    u, s, _ = np.linalg.svd(k.reshape(3, -1).view(np.float64), full_matrices=False)
    return int(np.count_nonzero(s > AXIS_RANK_RTOL * s[0])), u


def _circle_grid(e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """CIRCLE_POINTS directions on the half great circle from e1 towards e2
    (n and -n give the same measurement)."""
    phi = np.arange(CIRCLE_POINTS) * (np.pi / CIRCLE_POINTS)
    return np.outer(np.cos(phi), e1) + np.outer(np.sin(phi), e2)


def _bloch_direction(n: np.ndarray) -> BlochDirection:
    """The measurement axis of the unit vector n, on the upper hemisphere."""
    if n[2] < 0.0:
        n = -n
    polar = float(np.arccos(min(n[2], 1.0)))
    azimuth = float(np.arctan2(n[1], n[0]) % (2.0 * np.pi))
    if azimuth >= 2.0 * np.pi:  # float modulo can round up to the period
        azimuth = 0.0
    return BlochDirection(polar, azimuth)


def min_conditional_entropy(rho: DensityMatrix, measured: int):
    """Minimum average entropy of the unmeasured side over projective
    measurements on the measured qubit of a bipartite state.

    The search runs over the unit sphere of the row space of the K matrices
    only (see the module docstring): with rank 3 a hemisphere grid, with
    rank 2 a half great circle, each followed by ZOOM_ROUNDS of local grid
    zoom (_zoom), and with rank 1 or 0 the one axis. Singular values at or
    below AXIS_RANK_RTOL times the largest count as zero. The largest is at
    most sqrt(3), as each K_k has trace norm at most 1, so the dropped part
    of n.K has Frobenius norm at most sqrt(3) AXIS_RANK_RTOL and trace norm
    T = sqrt(3 d) AXIS_RANK_RTOL / 2 on a d-dimensional unmeasured side. By
    concavity the reduced minimum exceeds the full one by at most the change
    of the two block entropies under that perturbation, 2 T log2(d / T^2)
    (Mirsky's inequality and |eta(x) - eta(y)| <= eta(|x - y|) for
    eta(x) = -x log2 x): 2.1e-11 bits for a qubit partner and 1.5e-11
    sqrt(d) bits in general.

    Returns (value, BlochDirection, objective evaluations); the direction
    is reported on the upper hemisphere. Fully deterministic.
    """
    _check_bipartite(rho)
    if measured not in (0, 1):
        raise ValueError(f"measured subsystem index must be 0 or 1, got {measured}")
    if rho.qubit_dims[measured] != 1:
        raise ValueError("measured subsystem must be a single qubit")

    r, k = _measurement_blocks(rho, measured)
    spectra = (_qubit_spectra if r.shape[0] == 2 else _dense_spectra)(r, k)

    def objective(nvec: np.ndarray) -> np.ndarray:
        return _weighted_entropy(spectra(nvec)).sum(axis=1)

    rank, axes = _axis_rank(k)
    if rank <= 1:
        n = axes[:, 0]
        return float(objective(n[None])[0]), _bloch_direction(n), 1
    if rank == 2:
        e1, e2 = axes[:, 0], axes[:, 1]
        grid = _circle_grid(e1, e2)
        turn = np.outer(e2, e1) - np.outer(e1, e2)  # a quarter turn in the plane

        def frame_of(n: np.ndarray) -> np.ndarray:
            return (turn @ n)[None]

        stencil, half = _CIRCLE_ZOOM, np.pi / CIRCLE_POINTS
    else:
        grid, frame_of, stencil, half = _HEMISPHERE, _tangent_frame, _SPHERE_ZOOM, _COARSE_STEP
    vals = objective(grid)
    best = int(np.argmin(vals))
    n, value, evals = _zoom(objective, grid[best], float(vals[best]), frame_of, stencil, half)
    return value, _bloch_direction(n), len(vals) + evals


def _discord_detail(rho: DensityMatrix, measured: int, entropies):
    """Discord, minimising direction and evaluations for one measured side;
    entropies is _entropies(rho), computed once per state by the caller."""
    h_a, h_b, h_ab = entropies
    info = h_a + h_b - h_ab
    h_other = entropies[1 - measured]
    h_min, direction, evals = min_conditional_entropy(rho, measured)
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
    value, _, _ = _discord_detail(rho, measured, _entropies(rho))
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
    entropies = _entropies(rho)
    d_rc, direction, evals_c = _discord_detail(rho, 0, entropies)
    d_cr, _, evals_r = _discord_detail(rho, 1, entropies)
    h_a, h_b, h_ab = entropies
    return CorrelationReport(
        mutual_info=h_a + h_b - h_ab,
        discord_rc=d_rc,
        discord_cr=d_cr,
        tangle=tangle(rho),
        argmin_direction=direction,
        optimizer_evals=evals_c + evals_r,
    )
