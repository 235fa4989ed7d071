"""Non-classical correlation measures on bipartite states.

Mutual information H(A) + H(B) - H(AB) captures total correlations. The
classical share accessible by measuring one side is J = H(other) - Hmin,
where Hmin is the average post-measurement entropy of the unmeasured side,
minimized over all rank-1 projective measurements on the measured qubit.
Quantum discord is the gap I - J; it is directional, since measuring one
side is not equivalent to measuring the other. Entanglement is tracked
separately by the Wootters concurrence and its square, the tangle; the
concurrence's lambdas are singular values built on qmath.hermitian_sqrt,
the square root the fidelity uses too.

Hmin is found by a deterministic, vectorised search. The unnormalized
conditional blocks are (R +- n.K)/2, so the objective depends on the axis n
only through n.K, and it is concave on the Bloch ball; its minimum over the
sphere is therefore its minimum over the unit sphere of the row space of the
three K matrices, whose dimension (the rank) an SVD gives. A coarse grid of
that sphere comes first: with rank 3 an 8x16 polar-azimuth grid over the
upper hemisphere (n and -n give the same measurement), with rank 2 a
16-point half great circle from the larger singular axis, with rank 1 or 0
the one axis and nothing more. From each state's best grid point a
saddle-free Riemannian Newton search (_newton) finishes, with derivatives
from the blocks' eigendecomposition for any partner dimension
(_derivatives); it takes only drops larger than LINE_DROP, so that its
steps do not turn on round-off. The evaluations reported are the grid
points, the line-search points and one per derivative evaluation: per side
at most 128 + 16 x 9 = 272 (rank 3), 16 + 16 x 9 = 160 (rank 2) or 1 (rank
1 or 0). The rank split keeps DQC1 outputs cheap: K_z = 0 gives the control
side rank at most 2 (the optimum lies on the equator), a one-qubit register
side has rank 1, and a Z_theta output's circle starts on one candidate
optimum and passes the other, so its search stops at the first derivative
evaluation.

The search runs on a stack of states, one (S, D, D) entries array over one
qubit_dims (stack_discords), grouped by rank, so that numpy's fixed cost
per operation is paid once per group: each grid, derivative evaluation and
line search is one call, with a mask for the states that have stopped. Each
state's arithmetic is its own, so it gets the search it would get alone, to
the bit, evaluation count included; discord and correlation_report are
the one-state case, which passes rho.entries[None]. Only the program
builds a stack, so its entries are not checked again; the stacked tangle
takes the same arrays. H(A), H(B) and H(AB) come from batched eigvalsh
(_entropies), for the register certificate basis_discord too. A stack is
searched whole, so its caller keeps it within STACK_STATES two-qubit
states, as many as keep one hemisphere grid's conditional blocks within
BLOCK_CHUNK_BYTES (1024); the sweep cuts its grid into such chunks. The
objective's 2x2 blocks of a qubit partner have closed-form eigenvalues;
larger blocks go to batched eigvalsh in chunks of BLOCK_CHUNK_BYTES.
"""

from __future__ import annotations

import numpy as np

from .qmath import (
    DensityMatrix,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    check_integer,
    hermitian_sqrt,
    spectrum_entropy,
)

_PAULIS = np.stack([np.eye(2), SIGMA_X, SIGMA_Y, SIGMA_Z])  # I, X, Y, Z
_YY = np.kron(SIGMA_Y, SIGMA_Y)
_SMALLEST_DOUBLE = np.nextafter(0.0, 1.0)
_SIGN = np.array([1.0, -1.0])  # outcomes +n and -n
_LN2 = np.log(2.0)
_EIGEN_FLOOR = np.finfo(float).eps  # the eigensolver's round-off

# A measured side is named by the index of its subsystem, and only so:
# qmath.check_integer takes 0 or 1, not True or 0.0.
MEASURE_CONTROL = 0
MEASURE_REGISTER = 1

HEMISPHERE_POLAR = 8
HEMISPHERE_AZIMUTH = 16
CIRCLE_POINTS = 16
# At most NEWTON_STEPS Newton steps, a state stopping once its gradient
# along the sphere is below NEWTON_GTOL; each tries LINE_POINTS step lengths.
NEWTON_STEPS = 16
NEWTON_GTOL = 1e-13
LINE_POINTS = 8
# A state moves only if its best line-search value is LINE_DROP below its
# value: values are O(1) bits, so a smaller drop is round-off, and taking it
# would make the steps and the evaluation count depend on the BLAS kernels.
LINE_DROP = 1e-14
_STEP_LENGTHS = 0.5 ** np.arange(LINE_POINTS)[:, None]
# Singular values of the K matrices at or below this fraction of the largest
# count as zero when the searched axes are chosen; _search's docstring bounds
# the entropy error this allows.
AXIS_RANK_RTOL = 1e-13
BLOCK_CHUNK_BYTES = 1 << 24


def _check_bipartite(qubit_dims) -> None:
    if len(qubit_dims) != 2:
        raise ValueError(f"state is not bipartite: qubit_dims = {qubit_dims}")


def _check_measured(qubit_dims, measured) -> None:
    check_integer("measured subsystem index", measured, 0, 1)
    if qubit_dims[measured] != 1:
        raise ValueError("measured subsystem must be a single qubit")


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
# How many states the sweep puts in one stacked search: as many two-qubit
# states (1024) as keep one hemisphere grid's conditional blocks, two
# complex 2x2 blocks per direction, within BLOCK_CHUNK_BYTES.
STACK_STATES = BLOCK_CHUNK_BYTES // (len(_HEMISPHERE) * 2 * 2 * 2 * 16)


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


def _unit_rows(v: np.ndarray) -> np.ndarray:
    return v / np.sqrt((v * v).sum(axis=-1, keepdims=True))


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


def _derivatives(r: np.ndarray, k: np.ndarray, n: np.ndarray):
    """The gradient (S, 3) and Hessian (S, 3, 3) of the objective in the
    axis, at the axes n (S, 3), for blocks r (S, d, d) and k (S, 3, d, d) of
    any partner dimension d.

    With eta(x) = -x log2 x, the objective is sum_j eta(mu_j) - eta(p) over
    the eigenvalues mu_j and the trace p of each block (R +- n.K)/2. Axis
    component k moves them by +-(V+ K_k V)_jj / 2 (first-order perturbation
    in the eigenvectors V of eigh) and +-tr(K_k) / 2, so the gradient is
    sum_s +-(log2 p tr(K_k) - sum_j log2 mu_j (V+ K_k V)_jj) / 2; the
    constant part of eta' cancels, as the (V+ K_k V)_jj sum to tr(K_k). The
    Hessian takes the Daleckii-Krein divided differences
    (eta'(mu_i) - eta'(mu_j)) / (mu_i - mu_j), written as
    -log1p(x)/x / (mu_j ln 2) with x = mu_i/mu_j - 1, which is eta''(mu_j)
    where the two eigenvalues coincide. The eigenvalues are floored at
    _EIGEN_FLOOR.
    """
    m = (n[:, :, None, None] * k).sum(axis=1)
    mu, v = np.linalg.eigh(np.stack([(r + m) / 2.0, (r - m) / 2.0], axis=1))
    mu = np.maximum(mu, _EIGEN_FLOOR)
    p = mu.sum(axis=-1)
    kt = v.conj().swapaxes(-1, -2)[:, :, None] @ k[:, None] @ v[:, :, None]  # (S, 2, 3, d, d)
    tr_k = np.trace(k, axis1=-2, axis2=-1).real
    diag = np.diagonal(kt, axis1=-2, axis2=-1).real
    slope = np.log2(p)[..., None] * tr_k[:, None] - (diag @ np.log2(mu)[..., None])[..., 0]
    grad = (slope * (_SIGN[:, None] / 2.0)).sum(axis=1)
    x = mu[..., :, None] / mu[..., None, :] - 1.0
    safe = np.where(x == 0.0, 1.0, x)
    weight = np.where(x == 0.0, 1.0, np.log1p(safe) / safe) / mu[..., None, :]
    a = (np.sqrt(weight)[:, :, None] * kt).reshape(len(n), 2, 3, -1)
    curv = (a @ a.conj().swapaxes(-1, -2)).real
    outer = tr_k[:, None, :, None] * tr_k[:, None, None, :] / p[..., None, None]
    return grad, (outer - curv).sum(axis=1) / (4.0 * _LN2)


def _newton(objective, r, k, q, n, value):
    """Saddle-free Riemannian Newton search from the axes n (S, 3) of values
    value (S,) over the unit sphere of the span of the columns of q
    (S, 3, rank), on the whole rank group at once. Returns the axes, their
    values and the evaluations made per state: one per derivative
    evaluation and one per line-search point.

    With the tangent projector P = q q^T - n n^T, each step takes the
    Riemannian gradient g = P grad and Hessian H = P Hess P - (n.grad) P,
    and the direction -|H|^-1 g over the tangent eigenvectors (from H plus
    the normal projector I - P, whose eigenvalue 1 leaves the tangent part
    alone), or -g where that is not a descent direction, shortened to
    length 1 if longer (a tangent step of 1 turns the axis by 45 degrees
    once normalised; a nearly flat direction can ask for far more). One
    objective call tries the LINE_POINTS step lengths 1, 1/2, ..., retracted
    by normalising, and the state moves to the lowest if it is more than
    LINE_DROP below its value. Taking the lowest rather than the first that
    drops matters at a sharp minimum, where a conditional state is pure: the
    full step can land just below the start on the far side of it. A state
    stops once its tangent gradient norm is below NEWTON_GTOL or no step
    length lowers its value by more than LINE_DROP, and after NEWTON_STEPS
    steps, so it ends at or below its start. Every state's arithmetic is its
    own, so a state gets the same search in any stack.
    """
    n, value = n.copy(), value.copy()
    evals = np.zeros(len(n), dtype=int)
    searching = np.ones(len(n), dtype=bool)
    rows = np.arange(len(n))
    span = q @ q.swapaxes(1, 2)
    for _ in range(NEWTON_STEPS):
        grad, hess = _derivatives(r, k, n)
        evals += searching
        proj = span - n[:, :, None] * n[:, None, :]
        g = (proj @ grad[:, :, None])[:, :, 0]
        searching &= np.sqrt((g * g).sum(axis=1)) >= NEWTON_GTOL
        if not searching.any():
            break
        h = proj @ hess @ proj - (n * grad).sum(axis=1)[:, None, None] * proj
        lam, w = np.linalg.eigh(h + np.eye(3) - proj)
        with np.errstate(divide="ignore", invalid="ignore"):
            d = -(w @ ((g[:, None] @ w)[:, 0] / np.abs(lam))[:, :, None])[:, :, 0]
        descent = np.isfinite(d).all(axis=1) & ((d * g).sum(axis=1) < 0.0)
        d = np.where(descent[:, None], d, -g)
        d /= np.maximum(np.sqrt((d * d).sum(axis=1, keepdims=True)), 1.0)
        cand = _unit_rows(n[:, None] + _STEP_LENGTHS * d[:, None])
        vals = objective(cand)
        evals += searching * len(_STEP_LENGTHS)
        best = vals.argmin(axis=1)
        drop = searching & (vals[rows, best] < value - LINE_DROP)
        n[drop], value[drop] = cand[drop, best[drop]], vals[drop, best[drop]]
        searching = drop
        if not searching.any():
            break
    return n, value, evals


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
        grid = _circle_grid(axes[:, :, 0], axes[:, :, 1])
    else:
        grid = np.broadcast_to(_HEMISPHERE, (len(r),) + _HEMISPHERE.shape)
    vals = objective(grid)
    best = vals.argmin(axis=1)
    rows = np.arange(len(r))
    n, value, evals = _newton(objective, r, k, axes[:, :, :rank], grid[rows, best], vals[rows, best])
    return value, n, evals + grid.shape[1]


def _search(entries: np.ndarray, subsystem_dims, measured: int):
    """Hmin, its unit axis and the evaluations for each state of the stack
    entries, as arrays (S,), (S, 3) and (S,), one rank group at a time.
    Fully deterministic.

    The search runs over the unit sphere of the row space of the K matrices
    only (see the module docstring): with rank 3 a coarse hemisphere grid,
    with rank 2 a coarse half great circle, each followed by the Newton
    search (_newton), and with rank 1 or 0 the one axis. Singular values at
    or below AXIS_RANK_RTOL times the largest count as zero. The largest is
    at most sqrt(3), as each K_k has trace norm at most 1, so the dropped part
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


def stack_discords(entries: np.ndarray, qubit_dims, measured) -> tuple:
    """discords of each state of a stack entries (S, D, D) of bipartite
    states over qubit_dims, as arrays over the stack: the mutual
    information (S,) and, for each measured side, the tuple of discords
    (S,), unit measurement axes (S, 3) and evaluations (S,). H(A), H(B) and
    H(AB) are computed once for all sides. The stack is searched whole: the
    caller sizes it, within STACK_STATES two-qubit states to bound its
    memory."""
    _check_bipartite(qubit_dims)
    for m in measured:
        _check_measured(qubit_dims, m)
    subsystem_dims = tuple(2**k for k in qubit_dims)
    h_a, h_b, h_ab = _entropies(entries, subsystem_dims)
    info = h_a + h_b - h_ab
    sides = []
    for m in measured:
        h_min, axes, evals = _search(entries, subsystem_dims, m)
        sides.append((info - ((h_a, h_b)[1 - m] - h_min), axes, evals))
    return info, sides


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


def discord(rho: DensityMatrix, measured: int) -> float:
    """Quantum discord I - J in bits with measured, MEASURE_CONTROL (0) or
    MEASURE_REGISTER (1), the measured subsystem, which must be a single
    qubit: stack_discords on a stack of one state."""
    _, [(values, _, _)] = stack_discords(rho.entries[None], rho.qubit_dims, (measured,))
    return float(values[0])


def stack_concurrence(entries: np.ndarray) -> np.ndarray:
    """Wootters spin-flip concurrence of each state of a stack entries
    (S, 4, 4) of two-qubit states: max(0, l1 - l2 - l3 - l4) over the
    singular values of sqrt(rho) (Y x Y) conj(sqrt(rho)), which are the
    square roots of the eigenvalues of rho rho~."""
    if entries.shape[-1] != 4:
        raise ValueError(f"concurrence requires a two-qubit state, got dim {entries.shape[-1]}")
    sq = hermitian_sqrt(entries)
    lam = np.linalg.svd(sq @ _YY @ sq.conj(), compute_uv=False)
    return np.maximum(0.0, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3])


def concurrence(rho: DensityMatrix) -> float:
    """Wootters spin-flip concurrence of a two-qubit state."""
    return float(stack_concurrence(rho.entries[None])[0])


def stack_tangle(entries: np.ndarray) -> np.ndarray:
    """Concurrence squared, c * c, of each state of a stack entries
    (S, 4, 4) of two-qubit states."""
    c = stack_concurrence(entries)
    return c * c


def tangle(rho: DensityMatrix) -> float:
    """Concurrence squared."""
    return float(stack_tangle(rho.entries[None])[0])


def correlation_report(rho: DensityMatrix) -> dict:
    """Full correlation analysis of a two-qubit state.

    Any split of the two qubits, (1, 1) or one four-level subsystem (2,),
    is read as control (the first qubit) and register (the second).
    discord_rc measures on the control (subsystem 0), discord_cr on the
    register; argmin_direction is the minimizing measurement axis on the
    control, and optimizer_evals counts both searches' evaluations.
    """
    if rho.dim != 4:
        raise ValueError(f"correlation report requires a two-qubit state, got dim {rho.dim}")
    info, [(d_rc, axes, evals_c), (d_cr, _, evals_r)] = stack_discords(
        rho.entries[None], (1, 1), (MEASURE_CONTROL, MEASURE_REGISTER))
    info, d_rc, d_cr = float(info[0]), float(d_rc[0]), float(d_cr[0])
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
        "argmin_direction": _bloch_direction(axes[0]),
        "optimizer_evals": int(evals_c[0] + evals_r[0]),
    }
