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

- rank 3: an 8x16 polar-azimuth grid over the upper hemisphere (n and -n
  give the same measurement), then six rounds of an 11x11 grid zoom in the
  plane tangent to the best direction, each spanning +-1 step of the
  previous grid, plus the minimum of a quadratic fitted to each round's
  grid: at most 128 + 6 x 122 = 860 evaluations;
- rank 2: a 16-point half great circle, then six rounds of the same zoom
  along the circle with 11 points and a model point: at most 16 + 6 x 12 =
  88 evaluations;
- rank 1 or 0: one axis, one evaluation.

On a 4x4 state an objective call costs nearly as much at 1 point as at a
hundred (numpy's fixed cost per operation dominates), so the search is
built to make few calls: the first grid is coarse, and each zoom round
evaluates its grid together with the previous round's model point, in one
call. A rank 3 or rank 2 search makes at most 8 calls.

The search runs on a stack of states with the same qubit_dims
(stack_discords), so that this fixed cost is paid once per stack rather
than once per state: the states are grouped by rank, each first grid and
each zoom round is one objective call for the whole group, and the rank 3
tangent frames (closed form in x, y and z), the quadratic fits and the
strict-improvement updates are array arithmetic over it, with no loop over
states. Every state goes through exactly the search it would get alone, to
the bit: the same directions, the same strict-improvement and model-point
rules, and the same evaluation count, so the counts per state are those of
a one-state search. A state whose fitted quadratic has no minimum in a round
where others in its group have one gets a padding candidate in that call,
which is neither counted nor chosen.
discords, discord and correlation_report are the one-state case. H(A), H(B)
and H(AB) come from batched eigvalsh (_entropies), for the register
certificate basis_discord too. A stack is searched whole, so its caller keeps
it within stack_chunk(dim) states, as many as keep one hemisphere grid's
conditional blocks within BLOCK_CHUNK_BYTES (1024 two-qubit states); the
sweep cuts its grid into such chunks.

A DQC1 output has equal diagonal blocks, so K_z = 0 and the control side
has rank at most 2 (the optimum lies on the equator); it is classical on
the register, so with a one-qubit register the register side has rank 1.
When the unmeasured side is a qubit, the conditional blocks are 2x2 and
their eigenvalues come in closed form; larger blocks go to batched eigvalsh
in chunks of BLOCK_CHUNK_BYTES. The evaluation count reported is the grid
plus the zoom and model points.
"""

from __future__ import annotations

import numpy as np

from .qmath import (
    DensityMatrix,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    repartition,
    spectrum_entropy,
)

_PAULIS = np.stack([np.eye(2), SIGMA_X, SIGMA_Y, SIGMA_Z])  # I, X, Y, Z
_YY = np.kron(SIGMA_Y, SIGMA_Y)
_SMALLEST_DOUBLE = np.nextafter(0.0, 1.0)
_SIGN = np.array([1.0, -1.0])  # outcomes +n and -n

MEASURE_CONTROL = "measure_control"
MEASURE_REGISTER = "measure_register"

HEMISPHERE_POLAR = 8
HEMISPHERE_AZIMUTH = 16
ZOOM_ROUNDS = 6
ZOOM_POINTS = 11
CIRCLE_POINTS = 16
# Singular values of the K matrices at or below this fraction of the largest
# count as zero when the searched axes are chosen; _search's docstring bounds
# the entropy error this allows.
AXIS_RANK_RTOL = 1e-13
BLOCK_CHUNK_BYTES = 1 << 24


def _stacked(states) -> tuple[np.ndarray, tuple[int, ...]]:
    """The entries (S, D, D) and the common qubit_dims of a nonempty
    sequence of states."""
    if not states:
        raise ValueError("a stack needs at least one state")
    dims = states[0].qubit_dims
    for rho in states:
        if rho.qubit_dims != dims:
            raise ValueError(
                f"stacked states must share qubit_dims: {dims} and {rho.qubit_dims}"
            )
    return np.array([rho.entries for rho in states]), dims


def _check_bipartite(qubit_dims) -> None:
    if len(qubit_dims) != 2:
        raise ValueError(f"state is not bipartite: qubit_dims = {qubit_dims}")


def _check_measured(qubit_dims, measured) -> None:
    # True == 1 and 0.0 == 0: only a Python or numpy integer names a side
    integer = isinstance(measured, (int, np.integer)) and not isinstance(measured, bool)
    if not integer or measured not in (0, 1):
        raise ValueError(f"measured subsystem index must be 0 or 1, got {measured}")
    if qubit_dims[measured] != 1:
        raise ValueError("measured subsystem must be a single qubit")


def stack_chunk(dim: int) -> int:
    """How many dim x dim bipartite states a caller puts in one stacked
    search: as many as keep the conditional blocks of one hemisphere grid
    (two complex blocks per direction, on a partner of dimension dim / 2)
    within BLOCK_CHUNK_BYTES."""
    block_bytes = len(_HEMISPHERE) * 2 * (dim // 2) ** 2 * 16
    return max(1, BLOCK_CHUNK_BYTES // block_bytes)


def _entropies(entries: np.ndarray, subsystem_dims) -> tuple:
    """H(A), H(B) and H(AB) in bits of each bipartite state in a stack."""
    d0, d1 = subsystem_dims
    t = entries.reshape(-1, d0, d1, d0, d1)
    reduced_a = np.trace(t, axis1=2, axis2=4)
    reduced_b = np.trace(t, axis1=1, axis2=3)
    return tuple(spectrum_entropy(np.linalg.eigvalsh(m)) for m in (reduced_a, reduced_b, entries))


def _weighted_entropy(mu: np.ndarray) -> np.ndarray:
    """-sum mu log2(mu/p) over the last axis, with p = sum(mu) and 0 log 0 = 0.

    mu holds eigenvalues of unnormalized conditional blocks, so each term is
    the outcome probability times the entropy of the normalized state.
    """
    mu = np.maximum(mu, 0.0)
    p = mu.sum(axis=-1, keepdims=True)
    # Logarithms of at least the smallest positive double: every positive
    # value is kept as it is, and each zero term is 0 * finite = 0.
    logs = np.log2(np.maximum(mu, _SMALLEST_DOUBLE)) - np.log2(np.maximum(p, _SMALLEST_DOUBLE))
    return -(mu * logs).sum(axis=-1)


def _measurement_blocks(entries: np.ndarray, subsystem_dims, measured: int):
    """Reduce the conditional-state computation to B(n) = (R + n.K)/2.

    For a projector (I + n.sigma)/2 on the measured qubit, the unnormalized
    conditional state of the other side is (R + sum_k n_k K_k)/2 with R the
    reduced other-side state and K_k fixed Hermitian matrices. Returns R
    (S, d, d) and K (S, 3, d, d) for each state of the stack entries.
    """
    d0, d1 = subsystem_dims
    t = entries.reshape(-1, d0, d1, d0, d1)
    if measured == 0:
        return np.einsum("niaib->nab", t), np.einsum("kij,njaib->nkab", _PAULIS[1:], t)
    return np.einsum("narbr->nab", t), np.einsum("krs,nasbr->nkab", _PAULIS[1:], t)


def _hemisphere_grid() -> np.ndarray:
    polar = np.linspace(0.0, np.pi / 2.0, HEMISPHERE_POLAR)
    azim = np.linspace(0.0, 2.0 * np.pi, HEMISPHERE_AZIMUTH, endpoint=False)
    pg, ag = np.meshgrid(polar, azim, indexing="ij")
    nvec = np.stack(
        [np.sin(pg) * np.cos(ag), np.sin(pg) * np.sin(ag), np.cos(pg)], axis=-1
    )
    return nvec.reshape(-1, 3)


_HEMISPHERE = _hemisphere_grid()
# Half-width of the first zoom window on the hemisphere: the larger of the
# polar step and half the azimuth step. The grid points of later rounds reach
# 1.25 of it in all, which covers the half-diagonal of a grid cell even at
# the equator; the quadratic-model points may go further.
_COARSE_STEP = max((np.pi / 2.0) / (HEMISPHERE_POLAR - 1), np.pi / HEMISPHERE_AZIMUTH)


def _zoom_stencil(dim: int):
    """The ZOOM_POINTS^dim grid of offsets in [-1, 1]^dim and the
    least-squares map from values on it to the coefficients of a quadratic
    in dim variables (the constant, the linear terms, then u_i u_j for
    i <= j; for dim 2: c0 + c1 u + c2 v + c3 u^2 + c4 u v + c5 v^2)."""
    offsets = np.stack(
        np.meshgrid(*dim * [np.linspace(-1.0, 1.0, ZOOM_POINTS)], indexing="ij"), axis=-1
    ).reshape(-1, dim)
    i, j = np.triu_indices(dim)
    design = np.column_stack([np.ones(len(offsets)), offsets, offsets[:, i] * offsets[:, j]])
    return offsets, np.linalg.pinv(design)


_SPHERE_ZOOM = _zoom_stencil(2)
_CIRCLE_ZOOM = _zoom_stencil(1)


# Both spectra builders take the blocks of _measurement_blocks and return a
# function from directions (S, G, 3), G per state, to the eigenvalues
# (S, G, 2, d) of the conditional blocks (R + n.K)/2 and (R - n.K)/2.

def _qubit_spectra(r: np.ndarray, k: np.ndarray):
    """Closed form for 2x2 blocks: X = (tr X I + x.sigma)/2 with
    x_j = tr(X sigma_j) has eigenvalues (tr X +- |x|)/2."""
    # Rows (tr X, x) of R, K_x, K_y and K_z, over 4: exact, and it saves a
    # division per call.
    coef = (np.einsum("jab,nmba->nmj", _PAULIS, np.concatenate([r[:, None], k], axis=1)) / 4.0).real
    tr_r, vec_r = coef[:, 0, 0, None, None], coef[:, 0, None, 1:]
    tr_k, vec_k = coef[:, 1:, :1], coef[:, 1:, 1:]

    # vec (outcomes +n, -n) and mu (eigenvalues tr - rad, tr + rad) are
    # written as a + b and a - b into the halves of one array: to the bit
    # what adding a sign array times b gives, and cheaper than broadcasting
    # one over these larger arrays.
    def spectra(nvec: np.ndarray) -> np.ndarray:
        tr = tr_r + (nvec @ tr_k) * _SIGN
        b = nvec @ vec_k
        vec = np.empty(b.shape[:2] + (2, 3))
        np.add(vec_r, b, out=vec[:, :, 0])
        np.subtract(vec_r, b, out=vec[:, :, 1])
        rad = np.sqrt((vec * vec).sum(axis=-1))
        mu = np.empty(tr.shape + (2,))  # ascending: tr - rad, tr + rad
        np.subtract(tr, rad, out=mu[..., 0])
        np.add(tr, rad, out=mu[..., 1])
        return mu

    return spectra


def _dense_spectra(r: np.ndarray, k: np.ndarray):
    """Batched eigvalsh, in chunks of directions whose stacked blocks fit in
    BLOCK_CHUNK_BYTES, so memory stays bounded for any register size."""
    d = r.shape[-1]
    chunk = max(1, BLOCK_CHUNK_BYTES // (len(r) * 2 * d * d * r.itemsize))
    r = r[:, None]

    def spectra(nvec: np.ndarray) -> np.ndarray:
        mu = np.empty(nvec.shape[:2] + (2, d))
        for start in range(0, nvec.shape[1], chunk):
            m = np.einsum("ngk,nkab->ngab", nvec[:, start:start + chunk], k)
            mu[:, start:start + chunk] = np.linalg.eigvalsh(
                np.stack([(r + m) / 2.0, (r - m) / 2.0], axis=2)
            )
        return mu

    return spectra


def _tangent_frames(n: np.ndarray) -> np.ndarray:
    """Rows: the unit polar and azimuth directions at each unit vector of n
    (S, 3), as (S, 2, 3), in closed form from (x, y, z) with s = hypot(x, y):
    (z x/s, z y/s, -s) and (-y/s, x/s, 0).

    Both are defined at the poles too (azimuth 0 there: (z, 0, -0) and
    (0, 1, 0)), so the zoom has no coordinate singularity. hypot keeps s
    exact where x^2 + y^2 would underflow.
    """
    x, y, z = n.T
    s = np.hypot(x, y)
    pole = s == 0.0
    d = np.where(pole, 1.0, s)
    ca, sa = np.where(pole, 1.0, x / d), y / d  # y / d is 0 at a pole
    return np.stack([z * ca, z * sa, -s, -sa, ca, np.zeros_like(s)], axis=-1).reshape(-1, 2, 3)


def _model_minimum(fit: np.ndarray, vals: np.ndarray):
    """Minimum of the least-squares quadratic through each state's zoom-grid
    values (S, P), in units of the window half-width (S, dim), and whether
    each fit has one (S,): its Hessian is positive definite. Closed forms in
    +, -, * and /, which round as Python floats do. A fit without a minimum
    gets step 0, and np.where gives it a divisor of 1, so no division warns."""
    c = (fit @ vals[:, :, None])[:, :, 0].T
    if len(c) == 3:  # c0 + c1 u + c2 u^2
        found = c[2] > 0.0
        steps = [-c[1] / np.where(found, 2.0 * c[2], 1.0)]
    else:
        _, c1, c2, c3, c4, c5 = c  # Hessian [[2 c3, c4], [c4, 2 c5]]
        det = 4.0 * c3 * c5 - c4 * c4
        found = (c3 > 0.0) & (det > 0.0)
        det = np.where(found, det, 1.0)
        steps = [(c4 * c2 - 2.0 * c5 * c1) / det, (c4 * c1 - 2.0 * c3 * c2) / det]
    return np.where(found[:, None], np.stack(steps, axis=1), 0.0), found


def _unit_rows(v: np.ndarray) -> np.ndarray:
    return v / np.sqrt((v * v).sum(axis=-1, keepdims=True))


def _zoom(objective, n, value, frame_of, stencil, half):
    """ZOOM_ROUNDS of local grid zoom from the directions n (S, 3) of values
    value (S,), one per state.

    Each round evaluates the stencil's grid along the tangent directions
    frame_of(n) (S, dim, 3) at the best direction known, spanning +-half, so
    the step shrinks (ZOOM_POINTS - 1)/2 times per round. The grid alone can
    lose the minimum of a narrow valley that runs across it (near the
    Clifford points, or any state under a local rotation), so each round
    also tries the minimum of the quadratic fitted to its grid values. That
    model point is evaluated in the next pass's call, stacked after its
    grid; a last pass, after the rounds, evaluates the last one alone: one
    objective call per round, plus one. A state whose fit has no minimum
    evaluates its grid centre there instead, as padding that is neither
    counted nor chosen; a call where no state has a model point has no such
    column. The calls, the frames, the fits and the strict-improvement
    update all run on the whole stack as arrays. Returns the best
    directions, their values and the evaluations made.
    """
    offsets, fit = stencil
    n, value = n.copy(), value.copy()
    evals = np.full(len(n), ZOOM_ROUNDS * len(offsets))
    rows = np.arange(len(n))
    model = None
    for round_ in range(ZOOM_ROUNDS + 1):
        grid = round_ < ZOOM_ROUNDS
        if not grid and model is None:
            break
        columns = [model[:, None]] if model is not None else []
        if grid:
            frame = frame_of(n)
            columns.insert(0, n[:, None] + half * (offsets @ frame))
        cand = _unit_rows(np.concatenate(columns, axis=1))  # the model point too, row by row
        vals = objective(cand)
        if model is not None:
            evals += found
            vals[~found, -1] = np.inf
        if grid:
            step, found = _model_minimum(fit, vals[:, :len(offsets)])
            model = n + half * (step[:, None] @ frame)[:, 0] if found.any() else None
        best = vals.argmin(axis=1)
        better = vals[rows, best] < value
        n[better], value[better] = cand[better, best[better]], vals[better, best[better]]
        half *= 2.0 / (ZOOM_POINTS - 1)
    return n, value, evals


def _axis_rank(k: np.ndarray):
    """Rank of each state's three K matrices as real vectors (S,), and
    the left singular vectors (columns, largest singular value first) of the
    real 3 x 2d^2 matrix of their real and imaginary parts, whose first rank
    columns span the axes the conditional blocks depend on."""
    u, s, _ = np.linalg.svd(k.reshape(len(k), 3, -1).view(np.float64), full_matrices=False)
    return (s > AXIS_RANK_RTOL * s[:, :1]).sum(axis=1), u


_CIRCLE_PHI = np.arange(CIRCLE_POINTS)[:, None] * (np.pi / CIRCLE_POINTS)
_CIRCLE_COS, _CIRCLE_SIN = np.cos(_CIRCLE_PHI), np.sin(_CIRCLE_PHI)


def _circle_grid(e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """CIRCLE_POINTS directions on each half great circle from e1 towards
    e2 (S, 3) (n and -n give the same measurement)."""
    return _CIRCLE_COS * e1[:, None] + _CIRCLE_SIN * e2[:, None]


def _bloch_direction(n: np.ndarray) -> dict:
    """The measurement axis of the unit vector n on the upper Bloch
    hemisphere: {"polar": in [0, pi/2], "azimuth": in [0, 2 pi)}."""
    if n[2] < 0.0:
        n = -n
    polar = float(np.arccos(min(n[2], 1.0)))
    azimuth = float(np.arctan2(n[1], n[0]) % (2.0 * np.pi))
    if azimuth >= 2.0 * np.pi:  # float modulo can round up to the period
        azimuth = 0.0
    return {"polar": polar, "azimuth": azimuth}


def _rank_search(r, k, axes, rank):
    """The search of one rank group: blocks r (S, d, d) and k (S, 3, d, d),
    the left singular vectors axes (S, 3, 3) of _axis_rank. Returns the
    minima, their unit axes and the evaluations, per state."""
    spectra = (_qubit_spectra if r.shape[-1] == 2 else _dense_spectra)(r, k)

    def objective(nvec: np.ndarray) -> np.ndarray:
        s, g = nvec.shape[:2]
        mu = spectra(nvec)
        return _weighted_entropy(mu.reshape(s * g, 2, -1)).sum(axis=1).reshape(s, g)

    if rank <= 1:
        n = axes[:, :, 0]
        return objective(n[:, None])[:, 0], n, np.ones(len(n), dtype=int)
    if rank == 2:
        e1, e2 = axes[:, :, 0], axes[:, :, 1]
        grid = _circle_grid(e1, e2)
        # a quarter turn in each state's plane
        turn = e2[:, :, None] * e1[:, None, :] - e1[:, :, None] * e2[:, None, :]

        def frame_of(n: np.ndarray) -> np.ndarray:
            return (turn @ n[:, :, None]).reshape(-1, 1, 3)

        stencil, half = _CIRCLE_ZOOM, np.pi / CIRCLE_POINTS
    else:
        grid = np.broadcast_to(_HEMISPHERE, (len(r),) + _HEMISPHERE.shape)
        frame_of, stencil, half = _tangent_frames, _SPHERE_ZOOM, _COARSE_STEP
    vals = objective(grid)
    best = vals.argmin(axis=1)
    rows = np.arange(len(r))
    n, value, evals = _zoom(objective, grid[rows, best], vals[rows, best], frame_of, stencil, half)
    return value, n, evals + grid.shape[1]


def _search(entries: np.ndarray, subsystem_dims, measured: int):
    """Hmin, its unit axis and the evaluations for each state of the stack
    entries, as arrays (S,), (S, 3) and (S,), one rank group at a time.
    Fully deterministic.

    The search runs over the unit sphere of the row space of the K matrices
    only (see the module docstring): with rank 3 a coarse hemisphere grid,
    with rank 2 a coarse half great circle, each followed by ZOOM_ROUNDS of
    local grid zoom (_zoom) in at most 8 objective calls in all, and with
    rank 1 or 0 the one axis. Singular values at or below AXIS_RANK_RTOL
    times the largest count as zero. The largest is at most sqrt(3), as
    each K_k has trace norm at most 1, so the dropped part
    of n.K has Frobenius norm at most sqrt(3) AXIS_RANK_RTOL and trace norm
    T = sqrt(3 d) AXIS_RANK_RTOL / 2 on a d-dimensional unmeasured side. By
    concavity the reduced minimum exceeds the full one by at most the change
    of the two block entropies under that perturbation, 2 T log2(d / T^2)
    (Mirsky's inequality and |eta(x) - eta(y)| <= eta(|x - y|) for
    eta(x) = -x log2 x): 2.1e-11 bits for a qubit partner and 1.5e-11
    sqrt(d) bits in general.
    """
    r, k = _measurement_blocks(entries, subsystem_dims, measured)
    rank, axes = _axis_rank(k)
    rank = np.maximum(rank, 1)  # rank 0 has one axis too
    values, axes_out = np.empty(len(entries)), np.empty((len(entries), 3))
    evals = np.empty(len(entries), dtype=int)
    # The ranks present, ascending; np.unique would import numpy.ma (about 15 ms).
    for g in np.flatnonzero(np.bincount(rank)):
        members = np.flatnonzero(rank == g)
        values[members], axes_out[members], evals[members] = _rank_search(
            r[members], k[members], axes[members], g)
    return values, axes_out, evals


def stack_discords(states, measured) -> tuple:
    """discords of each state in a nonempty sequence of bipartite states
    with the same qubit_dims, as arrays over the stack: the mutual
    information (S,) and, for each measured side, the tuple of discords
    (S,), unit measurement axes (S, 3) and evaluations (S,). H(A), H(B) and
    H(AB) are computed once for all sides. The stack is searched whole: the
    caller sizes it, within stack_chunk(dim) states to bound its memory."""
    entries, dims = _stacked(states)
    _check_bipartite(dims)
    for m in measured:
        _check_measured(dims, m)
    subsystem_dims = states[0].subsystem_dims
    h_a, h_b, h_ab = _entropies(entries, subsystem_dims)
    info = h_a + h_b - h_ab
    sides = []
    for m in measured:
        h_min, axes, evals = _search(entries, subsystem_dims, m)
        sides.append((info - ((h_a, h_b)[1 - m] - h_min), axes, evals))
    return info, sides


def discords(rho: DensityMatrix, measured) -> tuple[float, list]:
    """Mutual information and, for each measured subsystem in measured (0
    or 1, in that order), the tuple (discord, direction, evaluations) of its
    search, where direction is _bloch_direction's {"polar", "azimuth"} dict
    on the upper hemisphere. The one-state case of stack_discords."""
    info, sides = stack_discords([rho], measured)
    return float(info[0]), [
        (float(values[0]), _bloch_direction(axes[0]), int(evals[0]))
        for values, axes, evals in sides
    ]


def basis_discord(rho: DensityMatrix, basis: np.ndarray) -> float:
    """I - J for measuring subsystem 1 in the orthonormal basis whose rows
    are basis: an upper bound on the discord of that side, since I - J is
    nonnegative for every measurement and the discord is its minimum."""
    _check_bipartite(rho.qubit_dims)
    h_a, h_b, h_ab = (float(h[0]) for h in _entropies(rho.entries[None], rho.subsystem_dims))
    info = h_a + h_b - h_ab
    d0, d1 = rho.subsystem_dims
    t = rho.entries.reshape(d0, d1, d0, d1)
    blocks = np.einsum("ks,asbr,kr->kab", basis.conj(), t, basis)
    cond = float(_weighted_entropy(np.linalg.eigvalsh(blocks)).sum())
    return info - (h_a - cond)


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
    _, [(value, _, _)] = discords(rho, (measured,))
    return value


def stack_concurrence(states) -> np.ndarray:
    """Wootters spin-flip concurrence of each state in a nonempty sequence
    of two-qubit states."""
    entries, _ = _stacked(states)
    if entries.shape[-1] != 4:
        raise ValueError(f"concurrence requires a two-qubit state, got dim {entries.shape[-1]}")
    rt = entries @ _YY @ entries.conj() @ _YY
    lam = np.linalg.eigvals(rt)
    # eigenvalues of rho rho~ are real and nonnegative up to round-off
    lam = np.sqrt(np.clip(np.sort(lam.real, axis=-1)[:, ::-1], 0.0, None))
    return np.maximum(0.0, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3])


def concurrence(rho: DensityMatrix) -> float:
    """Wootters spin-flip concurrence of a two-qubit state."""
    return float(stack_concurrence([rho])[0])


def stack_tangle(states) -> np.ndarray:
    """Concurrence squared, c * c, of each state in a nonempty sequence of
    two-qubit states."""
    c = stack_concurrence(states)
    return c * c


def tangle(rho: DensityMatrix) -> float:
    """Concurrence squared."""
    return float(stack_tangle([rho])[0])


def correlation_report(rho: DensityMatrix) -> dict:
    """Full correlation analysis of a two-qubit state.

    discord_rc measures on the control (subsystem 0), discord_cr on the
    register; argmin_direction is the minimizing measurement axis on the
    control, and optimizer_evals counts both searches' evaluations.
    """
    if rho.dim != 4:
        raise ValueError(f"correlation report requires a two-qubit state, got dim {rho.dim}")
    if rho.qubit_dims != (1, 1):
        rho = repartition(rho, (1, 1))
    info, [(d_rc, direction, evals_c), (d_cr, _, evals_r)] = discords(rho, (0, 1))
    tau = tangle(rho)
    if d_rc < -1e-9 or d_cr < -1e-9:
        raise ValueError("discord values must be >= -1e-9")
    if not -1e-9 <= tau <= 1.0 + 1e-9:
        raise ValueError(f"tangle must be in [0, 1], got {tau}")
    return {
        "mutual_info": info,
        "discord_rc": d_rc,
        "discord_cr": d_cr,
        "tangle": tau,
        "argmin_direction": direction,
        "optimizer_evals": evals_c + evals_r,
    }
