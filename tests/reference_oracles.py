"""Independent brute-force oracles of the tests and the fixture script, on
plain numpy arrays. Only numpy and the standard library are imported, never
dqc1sim or the test helpers (tests/test_scripts.py checks it), and none of
the package's optimized paths is copied: explicit projectors and dense
partial traces, dense gates from circuit JSON, numpy's generators drawn
directly. So a defect in the package cannot hide in its own oracle.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

I2 = np.eye(2, dtype=complex)
PX = np.array([[0, 1], [1, 0]], dtype=complex)
PY = np.array([[0, -1j], [1j, 0]], dtype=complex)
PZ = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


def random_unitary(rng, dim) -> np.ndarray:
    """Haar-ish unitary via QR of a Ginibre matrix with phase fixing."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def quadrature_draws(seed, shots: int, expectations, mode: str = "binomial") -> list:
    """(N+, N-) for the X and Y quadratures, drawn straight from numpy's
    generators on SeedSequence(seed).spawn(2): the independent oracle of
    the sampler's counts."""
    counts = []
    for child, e in zip(np.random.SeedSequence(seed).spawn(2), expectations):
        gen, p = np.random.default_rng(child), (1.0 + e) / 2.0
        if mode == "binomial":
            n_plus = int(gen.binomial(shots, p))
            counts.append((n_plus, shots - n_plus))
        else:
            counts.append((int(gen.poisson(shots * p)), int(gen.poisson(shots * (1.0 - p)))))
    return counts


def entropy_bits(mat: np.ndarray):
    """-sum p log2 p over the positive eigenvalues of each Hermitian matrix
    on the last two axes."""
    lam = np.clip(np.linalg.eigvalsh(mat), 0.0, None)
    positive = lam > 0
    return -np.where(positive, lam * np.log2(np.where(positive, lam, 1.0)), 0.0).sum(axis=-1)


def reduced_states(entries: np.ndarray, subsystem_dims) -> tuple[np.ndarray, np.ndarray]:
    """The two reduced states (subsystem 0, subsystem 1) of a bipartite
    state, by dense partial traces."""
    d0, d1 = subsystem_dims
    t = entries.reshape(d0, d1, d0, d1)
    return np.einsum("arbr->ab", t), np.einsum("iaib->ab", t)


def bell_matrix() -> np.ndarray:
    """|Phi+><Phi+| with |Phi+> = (|00> + |11>) / sqrt(2)."""
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return np.outer(v, v.conj())


def werner_matrix(p: float) -> np.ndarray:
    """p bell_matrix() + (1 - p) I/4; entangled for p > 1/3."""
    return p * bell_matrix() + (1 - p) * np.eye(4) / 4


def witness_matrix() -> np.ndarray:
    """(|00><00| + |1+><1+|) / 2, classical-quantum: no discord measured on
    qubit 0, some measured on qubit 1."""
    zero, one = np.diag([1.0 + 0j, 0.0]), np.diag([0.0, 1.0 + 0j])
    return 0.5 * np.kron(zero, zero) + 0.5 * np.kron(one, np.full((2, 2), 0.5 + 0j))


def circuit_output_state(u: np.ndarray, alpha: float) -> np.ndarray:
    """DQC1 output by conjugating the input (I + alpha Z)/2 (x) I/N with the
    explicit gates, a Hadamard on the control and then controlled-U."""
    dim = u.shape[0]
    cu = np.zeros((2 * dim, 2 * dim), dtype=complex)
    cu[:dim, :dim] = np.eye(dim)
    cu[dim:, dim:] = u
    w = cu @ np.kron(HADAMARD, np.eye(dim))
    rho_in = np.kron(np.diag([1.0 + alpha, 1.0 - alpha]) / 2.0, np.eye(dim) / dim)
    return w @ rho_in @ w.conj().T


# Single-qubit Pauli eigenstates and the 36 two-qubit tomography settings,
# written out independently of dqc1sim.tomography.
TOMO_KETS = {
    "z+": np.array([1, 0], dtype=complex),
    "z-": np.array([0, 1], dtype=complex),
    "x+": np.array([1, 1], dtype=complex) / np.sqrt(2.0),
    "x-": np.array([1, -1], dtype=complex) / np.sqrt(2.0),
    "y+": np.array([1, 1j], dtype=complex) / np.sqrt(2.0),
    "y-": np.array([1, -1j], dtype=complex) / np.sqrt(2.0),
}
TOMO_LABELS = tuple(a + b for a in TOMO_KETS for b in TOMO_KETS)


def setting_probability(rho: np.ndarray, label: str) -> float:
    """<ab| rho |ab> for a setting label such as "x+z-"."""
    ket = np.kron(TOMO_KETS[label[:2]], TOMO_KETS[label[2:]])
    return float(np.real(ket.conj() @ rho @ ket))


# The least-squares oracle's unknowns, the 15 Pauli products sigma_i (x)
# sigma_j other than II, and its design: row |ab> holds <ab|P|ab> / 4.
TOMO_PAULI_PRODUCTS = [np.kron(p, q) for p in (I2, PX, PY, PZ) for q in (I2, PX, PY, PZ)][1:]
TOMO_DESIGN = np.array([
    [np.real(ket.conj() @ p @ ket) / 4.0 for p in TOMO_PAULI_PRODUCTS]
    for ket in (np.kron(TOMO_KETS[lab[:2]], TOMO_KETS[lab[2:]]) for lab in TOMO_LABELS)
])


def least_squares_estimate(counts) -> np.ndarray:
    """Linear-inversion oracle: (1/4) sum s_ij sigma_i (x) sigma_j from
    counts in TOMO_LABELS order, each normalized by the total of its basis
    pair, with the 15 unknown s_ij (s_II = 1) solved by np.linalg.lstsq
    over TOMO_DESIGN."""
    pairs = [lab[0] + lab[2] for lab in TOMO_LABELS]
    totals = {pair: sum(c for c, q in zip(counts, pairs) if q == pair) for pair in pairs}
    probs = np.array([c / totals[q] for c, q in zip(counts, pairs)])
    coef = np.linalg.lstsq(TOMO_DESIGN, probs - 0.25, rcond=None)[0]
    return (np.eye(4) + sum(c * p for c, p in zip(coef, TOMO_PAULI_PRODUCTS))) / 4.0


def oracle_min_conditional_entropy(entries: np.ndarray, subsystem_dims, measured: int,
                                   n_polar: int = 100, n_azimuth: int = 200) -> float:
    """Brute-force grid minimum of the average post-measurement entropy of
    the bipartite state entries, measuring qubit subsystem `measured`.

    Uses explicit rank-1 projectors and dense partial traces, one polar row
    of the grid at a time; independent of the production optimizer.
    """
    d0, d1 = subsystem_dims
    azimuths = np.linspace(0.0, 2 * np.pi, n_azimuth, endpoint=False)
    best = np.inf
    for pol in np.linspace(0.0, np.pi, n_polar):
        nx, ny = np.sin(pol) * np.cos(azimuths), np.sin(pol) * np.sin(azimuths)
        proj = (I2 + nx[:, None, None] * PX + ny[:, None, None] * PY + np.cos(pol) * PZ) / 2.0
        # (azimuth, outcome, row, column): each projector and its complement
        p_ops = np.stack([proj, I2 - proj], axis=1)
        full = np.kron(p_ops, np.eye(d1)) if measured == 0 else np.kron(np.eye(d0), p_ops)
        after = full @ entries @ full
        p = np.trace(after, axis1=-2, axis2=-1).real
        kept = ~(p < 1e-14)
        t = after.reshape(*p.shape, d0, d1, d0, d1)
        cond = (np.einsum("...iaib->...ab", t) if measured == 0
                else np.einsum("...arbr->...ab", t)) / np.where(kept, p, 1.0)[..., None, None]
        h = entropy_bits(cond)
        best = min(best, float(np.where(kept, p * h, 0.0).sum(axis=1).min()))
    return best


def equator_min_conditional_entropy(entries: np.ndarray, subsystem_dims, points: int = 20001,
                                    chunk: int = 5000) -> float:
    """Minimum over `points` equatorial axes, azimuth beta = k pi / points,
    of the average post-measurement entropy of subsystem 1 after measuring
    qubit 0 in the basis (|0> +- e^{i beta} |1>) / sqrt(2): each outcome's
    unnormalized state (<v| (x) I) rho (|v> (x) I) is contracted from its
    basis vector v, `chunk` axes at a time."""
    d0, d1 = subsystem_dims
    t = entries.reshape(d0, d1, d0, d1)
    best = np.inf
    for start in range(0, points, chunk):
        phase = np.exp(1j * np.pi * np.arange(start, min(start + chunk, points)) / points)
        # (axis, outcome, component) of the two basis vectors
        v = np.stack([np.stack([np.ones_like(phase), s * phase], axis=-1) for s in (1, -1)],
                     axis=1) / np.sqrt(2.0)
        cond = np.einsum("xoi,iajb,xoj->xoab", v.conj(), t, v)
        p = np.trace(cond, axis1=-2, axis2=-1).real
        kept = p > 1e-14
        h = entropy_bits(cond / np.where(kept, p, 1.0)[..., None, None])
        best = min(best, float(np.where(kept, p * h, 0.0).sum(axis=1).min()))
    return best


def oracle_discord(entries: np.ndarray, subsystem_dims, measured: int, n_polar: int = 100,
                   n_azimuth: int = 200) -> float:
    """Grid-oracle discord, with every entropy computed here from eigenvalues."""
    rho_c, rho_r = reduced_states(entries, subsystem_dims)
    info = entropy_bits(rho_c) + entropy_bits(rho_r) - entropy_bits(entries)
    h_other = entropy_bits(rho_r if measured == 0 else rho_c)
    hmin = oracle_min_conditional_entropy(entries, subsystem_dims, measured, n_polar, n_azimuth)
    return info - (h_other - hmin)


def z_theta_control_hmin(theta: float, alpha: float) -> float:
    """Closed-form control-side Hmin of the DQC1 output for U = diag(1, e^{i theta}).

    The optimal measurement on the control is equatorial, at azimuth
    beta = theta/2 or theta/2 + pi/2; each is evaluated with explicit
    projectors on the output of circuit_output_state and a dense partial
    trace over the control.
    """
    rho = circuit_output_state(np.diag([1.0, np.exp(1j * theta)]), alpha)
    best = np.inf
    for beta in (theta / 2.0, theta / 2.0 + np.pi / 2.0):
        proj = (I2 + np.cos(beta) * PX + np.sin(beta) * PY) / 2.0
        h = 0.0
        for p_op in (proj, I2 - proj):
            full = np.kron(p_op, I2)
            cond = np.einsum("iaib->ab", (full @ rho @ full).reshape(2, 2, 2, 2))
            lam = np.linalg.eigvalsh(cond)
            p, lam = lam.sum(), lam[lam > 0.0]
            h -= float((lam * np.log2(lam / p)).sum())
        best = min(best, h)
    return best


def _eta_sum(x: np.ndarray) -> np.ndarray:
    """-sum x log2 x over the last axis of x >= 0, with 0 log 0 = 0."""
    return -(x * np.log2(np.maximum(x, np.finfo(float).tiny))).sum(axis=-1)


def eigenphase_control_discord(u: np.ndarray, alpha: float, points: int = 200001,
                               chunk: int = 2000) -> float:
    """Control-side discord of the DQC1 output (1/2N) [[I, alpha U+], [alpha U, I]]
    from the eigenphases phi_j of U (Datta, Shaji & Caves, PRL 100, 050502
    (2008)), with no density matrix formed.

    Measuring the control in (|0> +- e^{i psi} |1>) / sqrt(2) leaves the
    register, in U's eigenbasis, in diag((1 +- alpha cos(phi_j - psi)) / 2N),
    so Hmin(psi) = sum over +- of [sum_j eta((1 +- alpha cos(phi_j - psi))/2N)
    - eta(p_+-)], minimised over `points` equator angles psi = k pi / points
    (the optimum lies on the equator, and psi + pi swaps the outcomes).
    H(AB) comes from the spectrum (1 +- alpha)/2N, each N-fold, and H(A) from
    the control state [[1/2, conj(c)], [c, 1/2]] with c = alpha Tr(U)/2N.
    """
    dim = u.shape[0]
    phases = np.angle(np.linalg.eigvals(u))
    unit = np.stack([np.cos(phases), np.sin(phases)])
    hmin = np.inf
    for start in range(0, points, chunk):
        psi = np.pi * np.arange(start, min(start + chunk, points)) / points
        # cos(phi_j - psi) = cos psi cos phi_j + sin psi sin phi_j
        cos = np.stack([np.cos(psi), np.sin(psi)], axis=1) @ unit
        h = 0.0
        for sign in (1.0, -1.0):
            mu = (1.0 + sign * alpha * cos) / (2 * dim)
            h = h + _eta_sum(mu) - _eta_sum(mu.sum(axis=1)[:, None])
        hmin = min(hmin, float(h.min()))
    h_ab = dim * float(_eta_sum(np.array([1.0 + alpha, 1.0 - alpha]) / (2 * dim)))
    c = abs(alpha * np.trace(u) / (2 * dim))
    h_a = float(_eta_sum(np.array([0.5 + c, 0.5 - c])))
    return h_a - h_ab + hmin


# (xx, yy, zz) eigenvalues of the Bell states Phi+, Phi-, Psi+ and Psi-.
BELL_SIGNS = np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]])


def bell_diagonal_matrix(c) -> np.ndarray:
    """The Bell-diagonal state (I + sum_i c_i sigma_i (x) sigma_i) / 4."""
    return (np.eye(4) + sum(ci * np.kron(p, p) for ci, p in zip(c, (PX, PY, PZ)))) / 4.0


def bell_diagonal_discord(c) -> float:
    """Luo's closed form (PRA 77, 042303 (2008)) for the discord of
    bell_diagonal_matrix(c), the same on either side: both marginals are
    maximally mixed, the spectrum is (1 + BELL_SIGNS c) / 4, and the best
    measurement is along the axis of the largest |c_i|, which leaves the
    other qubit with Bloch vectors +-c_max, so Hmin = h2((1 + c_max) / 2)."""
    lam = (1.0 + BELL_SIGNS @ np.asarray(c, dtype=float)) / 4.0
    lam = lam[lam > 0.0]
    q = (1.0 + max(abs(float(x)) for x in c)) / 2.0
    hmin = -sum(x * np.log2(x) for x in (q, 1.0 - q) if x > 0.0)
    return 2.0 + float((lam * np.log2(lam)).sum()) - (1.0 - hmin)


def dense_pauli(labels: str, phase: complex = 1.0) -> np.ndarray:
    m = np.array([[phase]], dtype=complex)
    for c in labels:
        m = np.kron(m, {"I": I2, "X": PX, "Y": PY, "Z": PZ}[c])
    return m


# Dense Clifford gates, written out independently of dqc1sim.clifford: the
# single-qubit matrices, and for each controlled gate the operator it
# applies to the target when the control is |1>.
ONE_QUBIT_GATES = {"H": HADAMARD, "S": np.diag([1.0, 1.0j]), "X": PX, "Z": PZ}
CONTROLLED_GATES = {"CZ": PZ, "CNOT": PX}
GATE_ARITY = {**dict.fromkeys(ONE_QUBIT_GATES, 1), **dict.fromkeys(CONTROLLED_GATES, 2)}


def _on_qubits(ops: dict, n_qubits: int) -> np.ndarray:
    """Kronecker product with ops[q] on qubit q, identity elsewhere."""
    return reduce(np.kron, [ops.get(q, I2) for q in range(n_qubits)], np.eye(1))


def gate_unitary(gate: dict, n_qubits: int) -> np.ndarray:
    """Dense matrix of a JSON gate in an n-qubit register (qubit 0 slowest)."""
    name, q = gate["g"], gate["q"]
    if name in CONTROLLED_GATES:
        c, t = q
        off = _on_qubits({c: np.diag([1.0, 0.0])}, n_qubits)
        on = _on_qubits({c: np.diag([0.0, 1.0]), t: CONTROLLED_GATES[name]}, n_qubits)
        return off + on
    (target,) = q if isinstance(q, list) else [q]
    return _on_qubits({target: ONE_QUBIT_GATES[name]}, n_qubits)


def circuit_unitary(obj: dict) -> np.ndarray:
    """Dense product of a circuit JSON's gates (first gate applied first)."""
    w = np.eye(2**obj["n"], dtype=complex)
    for gate in obj["gates"]:
        w = gate_unitary(gate, obj["n"]) @ w
    return w
