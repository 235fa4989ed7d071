import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dqc1sim import (
    DensityMatrix,
    fidelity,
    partial_trace,
    pure_state,
    repartition,
    vn_entropy,
)
from dqc1sim.dqc1 import output_state, z_theta

from helpers import bell_state, random_density_matrix, random_pure_density, random_unitary

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestDensityMatrixInvariants:
    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2), (1,))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m, (1,))

    def test_rejects_negative_eigenvalues(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            DensityMatrix(np.diag([1.5, -0.5]), (1,))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError, match="qubit_dims"):
            DensityMatrix(np.eye(4) / 4, (1,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(m, (1,))

    def test_pure_state_checks_its_input(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                pure_state([1.0, bad], (1,))
        with pytest.raises(ValueError, match="qubit_dims"):
            pure_state([1.0, 0.0], (2,))
        with pytest.raises(ValueError, match="zero state"):
            pure_state([0.0, 0.0], (1,))

    def test_entries_are_frozen(self):
        rho = DensityMatrix(np.eye(2) / 2, (1,))
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 0.7


class TestPartialTrace:
    @pytest.mark.parametrize("theta", [0.3, np.pi / 2, -1.7, np.pi])
    def test_circuit_output_reduction(self, theta):
        rho = output_state(z_theta(theta), 1.0)
        reduced = partial_trace(rho, 0)
        expected = 0.5 * np.array(
            [[1.0, (1 + np.exp(-1j * theta)) / 2], [(1 + np.exp(1j * theta)) / 2, 1.0]]
        )
        assert_allclose(reduced.entries, expected, atol=1e-14)

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(0)
        rho_a = random_density_matrix(rng, (1,))
        rho_b = random_density_matrix(rng, (2,))
        joint = DensityMatrix(np.kron(rho_a.entries, rho_b.entries), (1, 2))
        assert_allclose(partial_trace(joint, 0).entries, rho_a.entries, atol=1e-12)
        assert_allclose(partial_trace(joint, 1).entries, rho_b.entries, atol=1e-12)

    def test_bell_reduces_to_mixed(self):
        for keep in (0, 1):
            assert_allclose(partial_trace(bell_state(), keep).entries, np.eye(2) / 2, atol=1e-14)

    def test_invalid_index(self):
        with pytest.raises(ValueError, match="invalid subsystem"):
            partial_trace(bell_state(), 2)

    @pytest.mark.parametrize("dims, needle", [
        ((0, 2), "positive integers"), ((1, 2), "do not cover"), ((), "positive integers"),
    ])
    def test_repartition_checks_the_split(self, dims, needle):
        with pytest.raises(ValueError, match=needle):
            repartition(bell_state(), dims)

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_preserves_trace_and_hermiticity(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(rng, (1, 2))
        red = partial_trace(rho, 0)
        assert abs(np.trace(red.entries) - 1.0) < 1e-12
        assert np.max(np.abs(red.entries - red.entries.conj().T)) < 1e-12


class TestVnEntropy:
    def test_maximally_mixed_qubit(self):
        assert vn_entropy(DensityMatrix(np.eye(2) / 2, (1,))) == pytest.approx(1.0, abs=1e-14)

    def test_pure_state_zero(self):
        rng = np.random.default_rng(1)
        assert vn_entropy(random_pure_density(rng, (2,))) == pytest.approx(0.0, abs=1e-9)

    def test_biased_diagonal(self):
        # Shannon oracle: -(0.75 log2 0.75 + 0.25 log2 0.25)
        expected = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25))
        assert expected == pytest.approx(0.811278, abs=1e-6)
        rho = DensityMatrix(np.diag([0.75, 0.25]), (1,))
        assert vn_entropy(rho) == pytest.approx(expected, abs=1e-12)

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_additive_on_products(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(rng, (1,))
        sig = random_density_matrix(rng, (1,))
        joint = DensityMatrix(np.kron(rho.entries, sig.entries), (1, 1))
        assert vn_entropy(joint) == pytest.approx(vn_entropy(rho) + vn_entropy(sig), abs=1e-9)

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_unitary_invariance(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(rng, (2,))
        u = random_unitary(rng, 4)
        rotated = DensityMatrix(u @ rho.entries @ u.conj().T, (2,))
        assert vn_entropy(rotated) == pytest.approx(vn_entropy(rho), abs=1e-9)

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            rho = random_density_matrix(rng, (2,))
            assert 0.0 <= vn_entropy(rho) <= 2.0 + 1e-12


class TestFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(4)
        rho = random_density_matrix(rng, (1, 1))
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_pure_states(self):
        assert fidelity(pure_state([1, 0], (1,)), pure_state([0, 1], (1,))) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_pure_versus_mixed(self):
        rho = pure_state([1, 0], (1,))
        sig = DensityMatrix(np.eye(2) / 2, (1,))
        assert fidelity(rho, sig) == pytest.approx(0.5, abs=1e-12)

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(rng, (1,))
        sig = random_density_matrix(rng, (1,))
        assert fidelity(rho, sig) == pytest.approx(fidelity(sig, rho), abs=1e-8)

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_unity_iff_equal(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(rng, (1,))
        sig = random_density_matrix(rng, (1,))
        if np.max(np.abs(rho.entries - sig.entries)) > 1e-8:
            assert fidelity(rho, sig) < 1.0 - 1e-10
        assert fidelity(rho, rho) > 1.0 - 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            fidelity(bell_state(), pure_state([1, 0], (1,)))

