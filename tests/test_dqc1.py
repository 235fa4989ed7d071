import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dqc1sim import (
    UnitaryMatrix,
    exact_expectations,
    normalized_trace,
    output_state,
    reduced_control,
    z_theta,
)
from dqc1sim.dqc1 import UNITARY_ATOL
from dqc1sim.qmath import SIGMA_Z
from dqc1sim.serialize import matrix_to_json, unitary_from_json

from reference_oracles import circuit_output_state, random_unitary

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestZTheta:
    def test_zero_is_identity(self):
        assert_allclose(z_theta(0.0).entries, np.eye(2), atol=1e-15)

    def test_pi_is_pauli_z(self):
        assert_allclose(z_theta(np.pi).entries, SIGMA_Z, atol=1e-15)

    def test_quarter_phase(self):
        assert_allclose(z_theta(np.pi / 2).entries, np.diag([1.0, 1.0j]), atol=1e-15)


class TestUnitaryMatrix:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            UnitaryMatrix(1, np.array([[1.0, 0.0], [0.0, 0.5]]))

    def test_from_json_infers_size(self):
        u = unitary_from_json(matrix_to_json(np.kron(SIGMA_Z, SIGMA_Z)))
        assert u.n == 2 and u.dim == 4

    def test_from_json_rejects_odd_dim(self):
        with pytest.raises(ValueError, match="power of 2"):
            unitary_from_json(matrix_to_json(np.eye(3)))

    def test_empty_register(self):
        with pytest.raises(ValueError, match="register size must be >= 1"):
            UnitaryMatrix(0, np.eye(1))

    @pytest.mark.parametrize("n", [1.9, True, "1"], ids=["1.9", "True", "str"])
    def test_register_size_is_an_integer(self, n):
        # read with int(), each would be a one-qubit register
        with pytest.raises(ValueError, match=f"^register size must be an integer, got {n!r}$"):
            UnitaryMatrix(n, np.eye(2))

    @pytest.mark.parametrize("dim", [3, 4])
    def test_wrong_size_names_the_register(self, dim):
        with pytest.raises(ValueError) as exc:
            UnitaryMatrix(1, np.eye(dim))
        assert str(exc.value) == f"entries shape ({dim}, {dim}) does not match n=1 qubits"

    def test_huge_register_is_rejected_without_forming_its_size(self):
        # The size rule compares bit lengths: 2**(10**8) would take about a
        # second and 45 MB to form before the comparison could fail.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as exc:
                UnitaryMatrix(10**8, np.eye(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == "entries shape (2, 2) does not match n=100000000 qubits"
        assert peak < 2**20

    @given(seed=seeds, n=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_residual_is_the_dense_formula(self, seed, n):
        # The diagonal is shifted in place, not by a dense identity: the
        # verdict and the worst entry stay those of |U+U - I|.
        rng = np.random.default_rng(seed)
        dim = 2**n
        noise = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = random_unitary(rng, dim) + 10.0 ** rng.uniform(-10, -7) * noise
        delta = np.abs(m.conj().T @ m - np.eye(dim))
        i, j = np.unravel_index(int(np.argmax(delta)), delta.shape)
        if delta[i, j] <= UNITARY_ATOL:
            UnitaryMatrix(n, m)
        else:
            with pytest.raises(ValueError) as exc:
                UnitaryMatrix(n, m)
            assert str(exc.value) == (f"matrix is not unitary: |(U+U - I)[{i},{j}]| = "
                                      f"{delta[i, j]:.3e} exceeds {UNITARY_ATOL:g}")


class TestOutputState:
    def test_identity_register(self):
        rho = output_state(z_theta(0.0), 1.0)
        assert_allclose(rho.entries, np.full((4, 4), 0.25) * np.array(
            [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]]
        ), atol=1e-15)

    def test_controlled_z_endpoint(self):
        rho = output_state(z_theta(np.pi), 1.0)
        expected = np.zeros((4, 4), dtype=complex)
        expected[:2, :2] = np.eye(2)
        expected[2:, 2:] = np.eye(2)
        expected[:2, 2:] = SIGMA_Z
        expected[2:, :2] = SIGMA_Z
        assert_allclose(rho.entries, expected / 4, atol=1e-12)

    def test_zero_purity_erases_coherence(self):
        assert_allclose(output_state(z_theta(np.pi / 2), 0.0).entries, np.eye(4) / 4, atol=1e-15)

    @given(seeds, st.integers(min_value=1, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_matches_circuit_conjugation(self, seed, n):
        rng = np.random.default_rng(seed)
        u = UnitaryMatrix(n, random_unitary(rng, 2**n))
        alpha = float(rng.uniform(0.0, 1.0))
        closed = output_state(u, alpha)
        circuit = circuit_output_state(u.entries, alpha)
        assert np.max(np.abs(closed.entries - circuit)) < 1e-12

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_output_is_valid_state(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        u = UnitaryMatrix(n, random_unitary(rng, 2**n))
        rho = output_state(u, float(rng.uniform(0.0, 1.0)))
        # construction enforces trace 1, Hermiticity, eigenvalues >= -1e-9
        assert rho.qubit_dims == (1, n)


class TestReducedControl:
    def test_traceless_register_unitary(self):
        assert_allclose(reduced_control(z_theta(np.pi), 1.0).entries, np.eye(2) / 2, atol=1e-14)

    def test_identity_gives_plus_state(self):
        assert_allclose(
            reduced_control(z_theta(0.0), 1.0).entries, np.full((2, 2), 0.5), atol=1e-14
        )

    def test_mixed_control_off_diagonal_magnitude(self):
        # |alpha Tr(Z_{pi/2})| / 2N = 0.58 * sqrt(2) / 4
        rho = reduced_control(z_theta(np.pi / 2), 0.58)
        assert abs(rho.entries[1, 0]) == pytest.approx(0.58 * np.sqrt(2) / 4, abs=1e-12)
        assert abs(rho.entries[1, 0]) == pytest.approx(0.2051, abs=5e-5)

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_matches_partial_trace(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        u = UnitaryMatrix(n, random_unitary(rng, 2**n))
        alpha = float(rng.uniform(0.0, 1.0))
        direct = reduced_control(u, alpha)
        # the register traced out of the (control, register) output
        traced = np.einsum("aibi->ab", output_state(u, alpha).entries.reshape(2, 2**n, 2, 2**n))
        assert np.max(np.abs(direct.entries - traced)) < 1e-12


class TestExactExpectations:
    def test_quarter_phase(self):
        assert exact_expectations(z_theta(np.pi / 2), 1.0) == pytest.approx((0.5, 0.5), abs=1e-14)

    def test_half_phase_vanishes(self):
        x, y = exact_expectations(z_theta(np.pi), 1.0)
        assert abs(x) < 1e-14 and abs(y) < 1e-14

    def test_identity_scales_with_alpha(self):
        assert exact_expectations(z_theta(0.0), 0.58) == pytest.approx((0.58, 0.0), abs=1e-14)

    def test_trigonometric_curve(self):
        for theta in np.linspace(-np.pi, np.pi, 100):
            x, y = exact_expectations(z_theta(theta), 1.0)
            assert abs(x - (1 + np.cos(theta)) / 2) < 1e-12
            assert abs(y - np.sin(theta) / 2) < 1e-12

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_linear_in_alpha(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        u = UnitaryMatrix(n, random_unitary(rng, 2**n))
        alpha = float(rng.uniform(0.0, 1.0))
        x1, y1 = exact_expectations(u, 1.0)
        xa, ya = exact_expectations(u, alpha)
        assert abs(xa - alpha * x1) < 1e-12
        assert abs(ya - alpha * y1) < 1e-12
        assert xa**2 + ya**2 <= alpha**2 + 1e-12


class TestNormalizedTrace:
    def test_identity(self):
        assert normalized_trace(z_theta(0.0)) == pytest.approx(1 + 0j, abs=1e-15)

    def test_z_theta_closed_form(self):
        for theta in (0.4, -2.2, np.pi / 3):
            assert normalized_trace(z_theta(theta)) == pytest.approx(
                (1 + np.exp(1j * theta)) / 2, abs=1e-14
            )

    def test_traceless_two_qubit(self):
        u = UnitaryMatrix(2, np.kron(SIGMA_Z, SIGMA_Z))
        assert normalized_trace(u) == pytest.approx(0 + 0j, abs=1e-15)

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_magnitude_bound(self, seed):
        rng = np.random.default_rng(seed)
        u = UnitaryMatrix(2, random_unitary(rng, 4))
        assert abs(normalized_trace(u)) <= 1.0 + 1e-12
