import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dqc1sim import (
    DensityMatrix,
    UnitaryMatrix,
    fidelity,
    reduced_control,
)
from dqc1sim.correlations import _entropies
from dqc1sim.dqc1 import z_theta
from dqc1sim.qmath import spectrum_entropy

from helpers import bell_state, pure_density, random_density_matrix, random_pure_density
from reference_oracles import random_unitary

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def vn_entropy(rho: DensityMatrix) -> float:
    """The library's spectrum entropy of rho's eigenvalues."""
    return float(spectrum_entropy(np.linalg.eigvalsh(rho.entries)))


def entropies(rho: DensityMatrix) -> list[float]:
    """The library's H(A), H(B) and H(AB) of one bipartite state."""
    return [float(h[0]) for h in _entropies(rho.entries[None], rho.subsystem_dims)]


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

    def test_rejects_a_size_that_is_no_power_of_two(self):
        # 3 has the bit length of 2**1, so only the power-of-two half of the
        # size rule rejects it
        with pytest.raises(ValueError, match=r"^entries shape \(3, 3\) does not match qubit_dims \(1,\)$"):
            DensityMatrix(np.eye(3) / 3, (1,))

    @pytest.mark.parametrize("shape", [(2, 3), (2,), (2, 1)])
    @pytest.mark.parametrize("build", [lambda m: DensityMatrix(m, (1,)),
                                       lambda m: UnitaryMatrix(1, m)],
                             ids=["DensityMatrix", "UnitaryMatrix"])
    def test_rejects_entries_that_are_not_square(self, build, shape):
        # both constructors share the one entry check, square_complex
        message = f"expected a square matrix, got shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(m, (1,))

    @pytest.mark.parametrize("dims, message", [
        ((0, 2), "qubit_dims entry must be >= 1, got 0"),
        ((), "qubit_dims must be positive integers, got ()"),
        ((1, 2), "entries shape (4, 4) does not match qubit_dims (1, 2)"),
        ((1.9, 1.2), "qubit_dims entry must be an integer, got 1.9"),
        ((True, True), "qubit_dims entry must be an integer, got True"),
        (("1", "1"), "qubit_dims entry must be an integer, got '1'"),
    ], ids=["zero", "empty", "mismatch", "float", "bool", "str"])
    def test_checks_the_split(self, dims, message):
        # a state is regrouped only through this constructor
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DensityMatrix(bell_state().entries, dims)

    def test_entries_are_frozen(self):
        rho = DensityMatrix(np.eye(2) / 2, (1,))
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 0.7


class TestPartialTrace:
    @pytest.mark.parametrize("theta", [0.3, np.pi / 2, -1.7, np.pi])
    def test_circuit_output_reduction(self, theta):
        reduced = reduced_control(z_theta(theta), 1.0)
        expected = 0.5 * np.array(
            [[1.0, (1 + np.exp(-1j * theta)) / 2], [(1 + np.exp(1j * theta)) / 2, 1.0]]
        )
        assert_allclose(reduced.entries, expected, atol=1e-14)

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(0)
        rho_a = random_density_matrix(rng, (1,))
        rho_b = random_density_matrix(rng, (2,))
        joint = DensityMatrix(np.kron(rho_a.entries, rho_b.entries), (1, 2))
        h_a, h_b = vn_entropy(rho_a), vn_entropy(rho_b)
        assert_allclose(entropies(joint), [h_a, h_b, h_a + h_b], atol=1e-12)

    def test_bell_reduces_to_mixed(self):
        # both halves maximally mixed, the whole pure
        assert_allclose(entropies(bell_state()), [1.0, 1.0, 0.0], atol=1e-12)


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
        assert fidelity(pure_density([1, 0], (1,)), pure_density([0, 1], (1,))) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_pure_versus_mixed(self):
        rho = pure_density([1, 0], (1,))
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
            fidelity(bell_state(), pure_density([1, 0], (1,)))
