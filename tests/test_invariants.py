"""Invariants of the values the program builds and does not check again.

output_state, reduced_control, _clifford_output_state and reconstruct
wrap their results without running DensityMatrix's validation, and z_theta
without UnitaryMatrix's, because the results are valid by construction.
Here every such result goes back through the public constructor, which
runs the full check (finite entries, matching qubit_dims, unit trace,
Hermiticity, positivity, or unitarity), over Haar-random registers,
purities, phases, Clifford circuits and simulated tomography counts.

The other values that only the program builds are not checked where they
are read, so their conditions live here as properties of their builders:
the counts array (simulate_counts; pair_frequencies tests only what the
draw decides, that no basis pair is empty), the least-squares estimate
that psd_project takes unchecked (linear_estimate of pair_frequencies'
output), the direction dict (_bloch_direction of stack_discords' axes)
and the record SignedPauliString, whose constructor checks nothing (z_on
and propagate).
The stacked discord search, tangle and fidelity give each state of a stack
what its own stack of one gives.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from dqc1sim import (
    MEASURE_CONTROL,
    MEASURE_REGISTER,
    DensityMatrix,
    SignedPauliString,
    UnitaryMatrix,
    discord,
    output_state,
    propagate,
    reconstruct,
    reduced_control,
    simulate_counts,
    tangle,
    z_theta,
)
from dqc1sim import correlations
from dqc1sim.clifford import _clifford_output_state
from dqc1sim.correlations import _bloch_direction, stack_discords
from dqc1sim.qmath import fidelity, stack_fidelity
from dqc1sim.sampling import MAX_SHOTS
from dqc1sim.tomography import SETTING_LABELS, linear_estimate, pair_frequencies

from helpers import (
    random_clifford_circuit,
    random_density_matrix,
    random_pauli_string,
    read_circuit,
    stacked,
)
from reference_oracles import random_unitary

seeds = st.integers(min_value=0, max_value=2**32 - 1)
alphas = st.floats(min_value=0.0, max_value=1.0)
thetas = st.floats(min_value=-np.pi, max_value=np.pi)
# Every seed form simulate_counts takes: a Python int, a numpy integer or a
# SeedSequence.
count_seeds = st.one_of(
    seeds, seeds.map(np.uint32), seeds.map(lambda s: np.random.SeedSequence([s, 1])),
)
DISCORD_FLOOR = -1e-9


def checked(rho: DensityMatrix) -> DensityMatrix:
    """rho after the public constructor's full validation; also checks the
    form the trusted builders promise: read-only complex entries and a
    tuple of ints for qubit_dims."""
    DensityMatrix(rho.entries, rho.qubit_dims)
    assert rho.entries.dtype == complex
    assert not rho.entries.flags.writeable
    assert isinstance(rho.qubit_dims, tuple)
    assert all(type(k) is int for k in rho.qubit_dims)
    return rho


@given(seed=seeds, n=st.integers(1, 4), alpha=alphas)
@settings(max_examples=60, deadline=None)
def test_dqc1_builders(seed, n, alpha):
    rng = np.random.default_rng(seed)
    u = UnitaryMatrix(n, random_unitary(rng, 2**n))
    rho = checked(output_state(u, alpha))
    assert rho.qubit_dims == (1, n)
    checked(reduced_control(u, alpha))
    if n == 1:
        assert tangle(rho) <= 1e-12
        assert discord(rho, MEASURE_REGISTER) >= DISCORD_FLOOR
    if n <= 2:
        assert discord(rho, MEASURE_CONTROL) >= DISCORD_FLOOR


def test_z_theta_is_unitary():
    edges = [0.0, np.pi, -np.pi, 1e-300, -1e-300, 5e-324]
    for theta in edges + np.linspace(-np.pi, np.pi, 61).tolist():
        u = z_theta(theta)
        checked_u = UnitaryMatrix(u.n, u.entries)
        assert_array_equal(checked_u.entries, u.entries)
        assert type(u.n) is int and u.n == 1
        assert u.entries.dtype == complex and not u.entries.flags.writeable


@given(theta=thetas, alpha=alphas)
@settings(max_examples=40, deadline=None)
def test_phase_instance_symmetry(theta, alpha):
    plus = checked(output_state(z_theta(theta), alpha))
    minus = checked(output_state(z_theta(-theta), alpha))
    for rho in (plus, minus):
        assert tangle(rho) <= 1e-12
    for side in (MEASURE_CONTROL, MEASURE_REGISTER):
        d_plus, d_minus = discord(plus, side), discord(minus, side)
        assert min(d_plus, d_minus) >= DISCORD_FLOOR
        assert d_plus == pytest.approx(d_minus, abs=1e-9)


@pytest.mark.parametrize("theta", [0.0, np.pi, -np.pi])
@given(alpha=alphas)
@settings(max_examples=15, deadline=None)
def test_zero_discord_at_clifford_points(theta, alpha):
    rho = checked(output_state(z_theta(theta), alpha))
    for side in (MEASURE_CONTROL, MEASURE_REGISTER):
        assert abs(discord(rho, side)) <= 1e-9


@given(seed=seeds, n_qubits=st.integers(2, 4), n_gates=st.integers(0, 20))
@settings(max_examples=45, deadline=None)
def test_clifford_output_state(seed, n_qubits, n_gates):
    circuit = read_circuit(random_clifford_circuit(n_qubits, n_gates, seed))
    rho = checked(_clifford_output_state(propagate(circuit, SignedPauliString.z_on(0, n_qubits))))
    assert rho.qubit_dims == (1, n_qubits - 1)


@given(seed=seeds, theta=thetas, alpha=alphas,
       mean_counts=st.floats(min_value=20.0, max_value=1e5))
@settings(max_examples=45, deadline=None)
def test_reconstruct_dqc1_counts(seed, theta, alpha, mean_counts):
    rho = output_state(z_theta(theta), alpha)
    recon = checked(reconstruct(simulate_counts(rho, mean_counts, seed)))
    assert recon.qubit_dims == (1, 1)
    assert discord(recon, MEASURE_CONTROL) >= DISCORD_FLOOR
    assert 0.0 <= tangle(recon) <= 1.0


@given(seed=seeds, rank=st.integers(1, 4), mean_counts=st.floats(min_value=20.0, max_value=1e5))
@settings(max_examples=30, deadline=None)
def test_reconstruct_random_state_counts(seed, rank, mean_counts):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng, (1, 1), rank=rank)
    checked(reconstruct(simulate_counts(rho, mean_counts, seed)))


@given(seed=seeds, rank=st.integers(1, 4), run_seed=count_seeds,
       mean_counts=st.floats(min_value=0.0, max_value=MAX_SHOTS, exclude_min=True))
@settings(max_examples=60, deadline=None)
def test_simulated_counts(seed, rank, run_seed, mean_counts):
    rho = random_density_matrix(np.random.default_rng(seed), (1, 1), rank=rank)
    counts = simulate_counts(rho, mean_counts, run_seed)
    assert counts.shape == (len(SETTING_LABELS),) and counts.dtype == float
    assert np.isfinite(counts).all() and (counts >= 0).all()
    # whole, so the tomo report's int() of each count is exact
    assert_array_equal(counts, np.floor(counts))
    assert not counts.flags.writeable


@given(seed=seeds, rank=st.integers(1, 4), mean_counts=st.floats(min_value=20.0, max_value=1e8))
@settings(max_examples=60, deadline=None)
def test_linear_estimate_is_hermitian(seed, rank, mean_counts):
    rho = random_density_matrix(np.random.default_rng(seed), (1, 1), rank=rank)
    counts = simulate_counts(rho, mean_counts, seed)
    m = linear_estimate(pair_frequencies(counts))
    assert m.shape == (4, 4) and m.dtype == complex
    assert np.isfinite(m).all()
    assert_array_equal(m, m.conj().T)  # exactly, as psd_project does not check


def _assert_upper_hemisphere(direction):
    assert set(direction) == {"polar", "azimuth"}
    polar, azimuth = direction["polar"], direction["azimuth"]
    assert type(polar) is float and type(azimuth) is float
    assert 0.0 <= polar <= np.pi / 2
    assert 0.0 <= azimuth < 2 * np.pi


@given(seed=seeds, rank=st.integers(1, 4), theta=thetas, alpha=alphas)
@settings(max_examples=40, deadline=None)
def test_minimiser_directions(seed, rank, theta, alpha):
    # random states take the hemisphere search; DQC1 outputs the circle
    # (control side) and the one-axis search (register side)
    states = (random_density_matrix(np.random.default_rng(seed), (1, 1), rank=rank),
              output_state(z_theta(theta), alpha))
    for rho in states:
        _, sides = stack_discords(rho.entries[None], (1, 1), (0, 1))
        for _, axes, _ in sides:
            _assert_upper_hemisphere(_bloch_direction(axes[0]))


@given(seed=seeds, size=st.integers(1, 6), theta=thetas, alpha=alphas)
@settings(max_examples=25, deadline=None)
def test_stacked_search_is_each_state_alone(seed, size, theta, alpha):
    # A stack of random states of any rank and DQC1 outputs gives each
    # state what its own stack of one gives: discords, axes, evaluations,
    # tangle and fidelity (against a second drawn stack), to the bit.
    rng = np.random.default_rng(seed)
    states = [random_density_matrix(rng, (1, 1), rank=int(rng.integers(1, 5)))
              for _ in range(size)]
    states.insert(int(rng.integers(size + 1)), output_state(z_theta(theta), alpha))
    others = [random_density_matrix(rng, (1, 1), rank=int(rng.integers(1, 5))) for _ in states]
    entries = stacked(states)
    info, sides = stack_discords(entries, (1, 1), (0, 1))
    tangles = correlations.stack_tangle(entries)
    fidelities = stack_fidelity(entries, stacked(others))
    for i, (rho, sigma) in enumerate(zip(states, others)):
        one_info, one_sides = stack_discords(rho.entries[None], (1, 1), (0, 1))
        assert info[i] == one_info[0]
        for (values, axes, evals), (value, axis, count) in zip(sides, one_sides):
            assert (values[i], evals[i]) == (value[0], count[0])
            assert axes[i].tolist() == axis[0].tolist()
        assert (tangles[i], fidelities[i]) == (tangle(rho), fidelity(rho, sigma))


@pytest.mark.parametrize("axis, polar, azimuth", [
    ((1.0, -1e-17, 0.0), np.pi / 2, 0.0),  # 2 pi - 1e-17 rounds up to 2 pi
    ((0.0, 0.0, -1.0), 0.0, np.pi),  # flipped to (-0, -0, 1)
    ((0.0, 0.0, 1.0), 0.0, 0.0),
])
def test_bloch_direction_edges(axis, polar, azimuth):
    direction = _bloch_direction(np.array(axis))
    _assert_upper_hemisphere(direction)
    assert (direction["polar"], direction["azimuth"]) == (polar, azimuth)


@given(seed=seeds, n_qubits=st.integers(1, 8), n_gates=st.integers(0, 60))
@settings(max_examples=60, deadline=None)
def test_signed_pauli_strings(seed, n_qubits, n_gates):
    rng = np.random.default_rng(seed)
    circuit = read_circuit(random_clifford_circuit(n_qubits, n_gates, rng))
    start = SignedPauliString.z_on(int(rng.integers(n_qubits)), n_qubits)
    for p in (start, propagate(circuit, start),
              propagate(circuit, random_pauli_string(rng, n_qubits))):
        assert type(p.phase) is int and p.phase in (1, -1)
        assert type(p.labels) is str and len(p.labels) == n_qubits
        assert set(p.labels) <= set("IXYZ")


class TestNoEigensolve:
    """The trusted builders do no O(d^3) positivity check of their own."""

    @pytest.fixture
    def eigensolves(self, monkeypatch):
        calls = {"eigvalsh": 0, "eigh": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        return calls

    def test_dqc1_and_qmath_builders(self, eigensolves):
        rng = np.random.default_rng(7)
        u = UnitaryMatrix(3, random_unitary(rng, 8))
        output_state(u, 0.8)
        reduced_control(u, 0.8)
        assert eigensolves == {"eigvalsh": 0, "eigh": 0}

    def test_clifford_output_state(self, eigensolves):
        circuit = read_circuit(random_clifford_circuit(3, 10, 3))
        _clifford_output_state(propagate(circuit, SignedPauliString.z_on(0, 3)))
        assert eigensolves == {"eigvalsh": 0, "eigh": 0}

    def test_reconstruct(self, eigensolves):
        counts = simulate_counts(output_state(z_theta(0.4), 0.9), 1e4, 5)
        eigensolves.update(eigvalsh=0, eigh=0)
        reconstruct(counts)
        # the one eigendecomposition is psd_project's own
        assert eigensolves == {"eigvalsh": 0, "eigh": 1}

    def test_public_constructor_still_checks(self, eigensolves):
        DensityMatrix(np.eye(4) / 4, (1, 1))
        assert eigensolves["eigvalsh"] == 1
