import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqc1sim import (
    DensityMatrix,
    UnitaryMatrix,
    MEASURE_CONTROL,
    MEASURE_REGISTER,
    BlochDirection,
    concurrence,
    correlation_report,
    discord,
    min_conditional_entropy,
    mutual_information,
    output_state,
    pure_state,
    tangle,
    vn_entropy,
    z_theta,
)
from dqc1sim import correlations
from dqc1sim.qmath import partial_trace
from dqc1sim.serialize import density_from_json

from helpers import (
    bell_state,
    oracle_min_conditional_entropy,
    package_env,
    random_density_matrix,
    random_pure_density,
    random_unitary,
)

FIXTURE_DIR = Path(__file__).parent / "fixtures"

# Documented evaluation bounds per measured side: the hemisphere grid plus six
# rounds of an 11x11 zoom and a model point, and the half great circle plus
# six rounds of an 11-point zoom and a model point.
SPHERE_EVALS = 2048 + 6 * 122
CIRCLE_EVALS = 64 + 6 * 12

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def classical_mixture():
    """(|00><00| + |11><11|) / 2, classically correlated."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 0.5
    m[3, 3] = 0.5
    return DensityMatrix(m, (1, 1))


def witness_state():
    """(|0><0| (x) |0><0| + |1><1| (x) |+><+|) / 2, classical-quantum."""
    zero = np.zeros((2, 2), dtype=complex)
    zero[0, 0] = 1.0
    one = np.zeros((2, 2), dtype=complex)
    one[1, 1] = 1.0
    plus = np.full((2, 2), 0.5, dtype=complex)
    return DensityMatrix(0.5 * np.kron(zero, zero) + 0.5 * np.kron(one, plus), (1, 1))


class TestMutualInformation:
    def test_product_state(self):
        rng = np.random.default_rng(0)
        a = random_density_matrix(rng, (1,))
        b = random_density_matrix(rng, (1,))
        joint = DensityMatrix(np.kron(a.entries, b.entries), (1, 1))
        assert mutual_information(joint) == pytest.approx(0.0, abs=1e-12)

    def test_bell_state(self):
        assert mutual_information(bell_state()) == pytest.approx(2.0, abs=1e-12)

    def test_classical_mixture(self):
        assert mutual_information(classical_mixture()) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_bipartite(self):
        rho = DensityMatrix(np.eye(8) / 8, (1, 1, 1))
        with pytest.raises(ValueError, match="bipartite"):
            mutual_information(rho)
        with pytest.raises(ValueError, match="bipartite"):
            min_conditional_entropy(rho, 0)


class TestMinConditionalEntropy:
    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4, (1, 1))
        for side in (0, 1):
            value, _, _ = min_conditional_entropy(rho, side)
            assert value == pytest.approx(1.0, abs=1e-9)

    def test_bell_state_collapses(self):
        value, _, _ = min_conditional_entropy(bell_state(), 0)
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_classical_mixture_z_readout(self):
        value, direction, _ = min_conditional_entropy(classical_mixture(), 0)
        assert value == pytest.approx(0.0, abs=1e-9)
        # optimal axis is the z axis (either pole)
        assert min(direction.polar, np.pi - direction.polar) < 1e-3

    def test_rejects_wide_measured_subsystem(self):
        rho = DensityMatrix(np.eye(8) / 8, (2, 1))
        with pytest.raises(ValueError, match="single qubit"):
            min_conditional_entropy(rho, 0)

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_bounded_by_reduced_entropy(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(rng, (1, 1))
        value, _, evals = min_conditional_entropy(rho, 0)
        assert -1e-12 <= value <= vn_entropy(partial_trace(rho, 1)) + 1e-9
        # a full-rank state distinguishes every axis: the hemisphere search
        assert CIRCLE_EVALS < evals <= SPHERE_EVALS


class TestDiscord:
    def test_product_state_both_directions(self):
        rng = np.random.default_rng(1)
        a = random_density_matrix(rng, (1,))
        b = random_density_matrix(rng, (1,))
        joint = DensityMatrix(np.kron(a.entries, b.entries), (1, 1))
        assert discord(joint, MEASURE_CONTROL) == pytest.approx(0.0, abs=1e-9)
        assert discord(joint, MEASURE_REGISTER) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("theta", [0.0, np.pi, -np.pi])
    def test_clifford_points_have_no_discord(self, theta):
        rho = output_state(z_theta(theta), 1.0)
        assert discord(rho, MEASURE_CONTROL) < 1e-6

    def test_quarter_phase_golden_value(self):
        fixture = json.loads((FIXTURE_DIR / "dqc1_quarter_phase.json").read_text())
        rho = output_state(z_theta(np.pi / 2), 1.0)
        value = discord(rho, MEASURE_CONTROL)
        assert value > 0.1
        assert value == pytest.approx(fixture["report"]["discord_rc"], abs=1e-7)
        assert value == pytest.approx(fixture["oracle"]["discord_rc_grid"], abs=2e-4)

    def test_directionality_witness(self):
        rho = witness_state()
        assert discord(rho, MEASURE_CONTROL) < 1e-4
        assert discord(rho, MEASURE_REGISTER) > 0.05

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_nonnegative_on_random_states(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(rng, (1, 1))
        assert discord(rho, MEASURE_CONTROL) >= -1e-6
        assert discord(rho, MEASURE_REGISTER) >= -1e-6

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_pure_state_discord_is_entanglement(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_pure_density(rng, (1, 1))
        ent = vn_entropy(partial_trace(rho, 1))
        assert discord(rho, MEASURE_CONTROL) == pytest.approx(ent, abs=1e-4)
        # for amplitudes (a, b, c, d) the concurrence is 2|ad - bc|
        vec = np.linalg.eigh(rho.entries)[1][:, -1]
        c_oracle = 2 * abs(vec[0] * vec[3] - vec[1] * vec[2])
        assert concurrence(rho) == pytest.approx(c_oracle, abs=1e-6)
        assert tangle(rho) == pytest.approx(c_oracle**2, abs=1e-6)

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_product_basis_diagonal_states(self, seed):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(4))
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        rho = DensityMatrix(u @ np.diag(probs).astype(complex) @ u.conj().T, (1, 1))
        assert discord(rho, MEASURE_CONTROL) < 1e-6
        assert discord(rho, MEASURE_REGISTER) < 1e-6

    def test_sweep_symmetry(self):
        for theta in (0.4, 1.1, 2.0, np.pi / 2):
            d_pos = discord(output_state(z_theta(theta), 0.997), MEASURE_CONTROL)
            d_neg = discord(output_state(z_theta(-theta), 0.997), MEASURE_CONTROL)
            assert abs(d_pos - d_neg) < 1e-6

    def test_bad_direction(self):
        with pytest.raises(ValueError, match="direction"):
            discord(bell_state(), "sideways")


class TestOptimizerAgainstBruteForce:
    @pytest.mark.parametrize(
        "fixture_name",
        [p.stem for p in sorted(FIXTURE_DIR.glob("*.json"))],
    )
    def test_refined_minimum_beats_grid(self, fixture_name):
        fixture = json.loads((FIXTURE_DIR / f"{fixture_name}.json").read_text())
        rho = density_from_json(fixture["state"])
        for measured in (0, 1):
            refined, _, _ = min_conditional_entropy(rho, measured)
            grid = oracle_min_conditional_entropy(rho, measured, 100, 200)
            assert refined <= grid + 1e-9


class TestGoldenFixtures:
    @pytest.mark.parametrize(
        "fixture_name",
        [p.stem for p in sorted(FIXTURE_DIR.glob("*.json"))],
    )
    def test_report_matches_fixture(self, fixture_name):
        fixture = json.loads((FIXTURE_DIR / f"{fixture_name}.json").read_text())
        rho = density_from_json(fixture["state"])
        report = correlation_report(rho).to_dict()
        stored = fixture["report"]
        for key in ("mutual_info", "discord_rc", "discord_cr", "tangle"):
            assert report[key] == pytest.approx(stored[key], abs=1e-7), key
        oracle = fixture["oracle"]
        assert report["discord_rc"] == pytest.approx(oracle["discord_rc_grid"], abs=2e-4)
        assert report["discord_cr"] == pytest.approx(oracle["discord_cr_grid"], abs=2e-4)


class TestConcurrenceAndTangle:
    def test_bell_state(self):
        assert concurrence(bell_state()) == pytest.approx(1.0, abs=1e-9)
        assert tangle(bell_state()) == pytest.approx(1.0, abs=1e-9)

    def test_product_state(self):
        rng = np.random.default_rng(2)
        a = random_density_matrix(rng, (1,))
        b = random_density_matrix(rng, (1,))
        joint = DensityMatrix(np.kron(a.entries, b.entries), (1, 1))
        assert concurrence(joint) == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("p", [0.2, 1 / 3, 0.6, 1.0])
    def test_werner_closed_form(self, p):
        # oracle: concurrence of p*Bell + (1-p)*I/4 is max(0, (3p-1)/2)
        rho = DensityMatrix(p * bell_state().entries + (1 - p) * np.eye(4) / 4, (1, 1))
        assert concurrence(rho) == pytest.approx(max(0.0, (3 * p - 1) / 2), abs=1e-10)

    def test_dqc1_outputs_never_entangle(self):
        for theta in np.linspace(-np.pi, np.pi, 21):
            assert tangle(output_state(z_theta(theta), 1.0)) < 1e-9

    def test_wrong_dimension(self):
        with pytest.raises(ValueError, match="two-qubit"):
            concurrence(DensityMatrix(np.eye(8) / 8, (1, 2)))


class TestReportAndDirection:
    def test_bloch_direction_validation(self):
        with pytest.raises(ValueError):
            BlochDirection(-0.1, 0.0)
        with pytest.raises(ValueError):
            BlochDirection(0.5, 7.0)
        d = BlochDirection(np.pi / 2, np.pi)
        assert np.linalg.norm(d.unit_vector) == pytest.approx(1.0, abs=1e-12)

    def test_report_fields(self):
        report = correlation_report(bell_state())
        assert report.mutual_info == pytest.approx(2.0, abs=1e-4)
        assert report.discord_rc == pytest.approx(1.0, abs=1e-4)
        assert report.discord_cr == pytest.approx(1.0, abs=1e-4)
        assert report.tangle == pytest.approx(1.0, abs=1e-4)
        assert report.optimizer_evals > 0
        payload = report.to_dict()
        assert set(payload) == {
            "mutual_info", "discord_rc", "discord_cr", "tangle",
            "argmin_direction", "optimizer_evals",
        }


class TestMinimiserContract:
    def test_import_loads_no_scipy(self):
        out = subprocess.run(
            [sys.executable, "-c", "import sys, dqc1sim; print('scipy' in sys.modules)"],
            capture_output=True, text=True, env=package_env(), check=True,
        )
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("n", [2, 3])
    def test_chunked_blocks_match_one_batch(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        rho = output_state(UnitaryMatrix(n, random_unitary(rng, 2**n)), 0.9)
        monkeypatch.setattr(correlations, "BLOCK_CHUNK_BYTES", 1 << 40)
        whole = min_conditional_entropy(rho, 0)
        # seven directions per chunk, so the last chunk is ragged
        monkeypatch.setattr(correlations, "BLOCK_CHUNK_BYTES", 7 * 2 * 4**n * 16)
        chunked = min_conditional_entropy(rho, 0)
        assert chunked[0] == pytest.approx(whole[0], abs=1e-12)
        assert chunked[2] == whole[2]

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_qubit_closed_form_matches_eigvalsh(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(rng, (1, 1))
        nvec = rng.normal(size=(50, 3))
        nvec /= np.linalg.norm(nvec, axis=1, keepdims=True)
        for measured in (0, 1):
            r, k = correlations._measurement_blocks(rho, measured)
            closed = np.sort(correlations._qubit_spectra(r, k)(nvec), axis=-1)
            dense = correlations._dense_spectra(r, k)(nvec)
            np.testing.assert_allclose(closed, dense, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("theta, alpha", [(0.1047, 0.997), (0.01, 1.0), (3.0369, 0.997)])
    def test_invariant_under_local_rotations(self, theta, alpha):
        # Near the Clifford points the objective has a narrow valley; a local
        # unitary turns it across the zoom grid but leaves Hmin unchanged.
        # 1e-10 is ten times inside the slack of the benchmark discord oracle.
        # The rotation also turns the axes the state cannot tell apart, so
        # the reduced search must find them off the coordinate axes too.
        rho = output_state(z_theta(theta), alpha)
        plain = [min_conditional_entropy(rho, m)[0] for m in (0, 1)]
        rng = np.random.default_rng(4)
        for _ in range(4):
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            turned = DensityMatrix(u @ rho.entries @ u.conj().T, (1, 1))
            for measured, bound in ((0, CIRCLE_EVALS), (1, 1)):
                value, _, evals = min_conditional_entropy(turned, measured)
                assert value == pytest.approx(plain[measured], abs=1e-10)
                assert evals <= bound

    @pytest.mark.parametrize("n", [
        (0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (0.0, 1.0, -0.0), (1.0, 0.0, 0.0),
        (0.6, 0.0, -0.8), (0.48, -0.6, 0.64),
    ])
    def test_tangent_frame_is_orthonormal(self, n):
        frame = np.vstack([n, correlations._tangent_frame(np.array(n))])
        np.testing.assert_allclose(frame @ frame.T, np.eye(3), atol=1e-15)

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_direction_on_upper_hemisphere(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(rng, (1, 1), rank=int(rng.integers(1, 5)))
        for measured in (0, 1):
            _, direction, _ = min_conditional_entropy(rho, measured)
            assert 0.0 <= direction.polar <= np.pi / 2
        report_direction = correlation_report(rho).argmin_direction
        assert 0.0 <= report_direction.polar <= np.pi / 2


class TestReducedSearch:
    """The minimiser searches the unit sphere of the row space of the K
    matrices: one axis, a half great circle or the hemisphere."""

    @pytest.mark.parametrize("alpha", [0.5, 0.997, 1.0])
    @pytest.mark.parametrize("theta", [0.0, 0.1047, np.pi / 2, 2.0, -3.0369, np.pi])
    def test_z_theta_sweep_states(self, theta, alpha):
        rho = output_state(z_theta(theta), alpha)
        # classical on the register, whose K_x and K_y vanish: one axis
        assert min_conditional_entropy(rho, 1)[2] == 1
        # equal diagonal blocks make K_z vanish: the equator
        _, direction, evals = min_conditional_entropy(rho, 0)
        assert evals <= CIRCLE_EVALS
        assert direction.polar == pytest.approx(np.pi / 2, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_haar_dqc1_control_side(self, n):
        rng = np.random.default_rng(10 + n)
        rho = output_state(UnitaryMatrix(n, random_unitary(rng, 2**n)), 0.9)
        # a local unitary on the measured qubit tilts the null axis off z
        v = np.kron(random_unitary(rng, 2), np.eye(2**n))
        turned = DensityMatrix(v @ rho.entries @ v.conj().T, (1, n))
        plain, rotated = (min_conditional_entropy(state, 0) for state in (rho, turned))
        assert plain[2] <= CIRCLE_EVALS and rotated[2] <= CIRCLE_EVALS
        assert rotated[0] == pytest.approx(plain[0], abs=1e-10)
        for state, (value, _, _) in ((rho, plain), (turned, rotated)):
            assert value <= oracle_min_conditional_entropy(state, 0, 36, 72) + 1e-9

    @pytest.mark.parametrize("n", [1, 2])
    def test_equal_block_states_match_the_hemisphere_search(self, n):
        # [[A, B], [B+, A]] / 2 with B = sqrt(A) C sqrt(A), |C| <= 1, is a
        # state with K_z = 0 whose optimum may lie anywhere on the circle.
        rng = np.random.default_rng(20 + n)
        for _ in range(100):
            a = random_density_matrix(rng, (n,)).entries
            w, v = np.linalg.eigh(a)
            root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
            b = root @ random_unitary(rng, 2**n) @ root * rng.uniform(0.2, 1.0)
            rho = DensityMatrix(np.block([[a, b], [b.conj().T, a]]) / 2, (1, n))
            value, _, evals = min_conditional_entropy(rho, 0)
            assert evals <= CIRCLE_EVALS
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(correlations, "AXIS_RANK_RTOL", -1.0)  # every axis counts
                full, _, full_evals = min_conditional_entropy(rho, 0)
            assert full_evals > CIRCLE_EVALS
            assert value <= full + 1e-12

    def test_full_rank_state_keeps_the_hemisphere_search(self):
        rho = random_density_matrix(np.random.default_rng(0), (1, 1))
        for measured in (0, 1):
            assert min_conditional_entropy(rho, measured)[2] == SPHERE_EVALS

    @pytest.mark.parametrize("scale", [0.8, 1.25])
    def test_rank_tolerance_boundary(self, scale):
        # A tilt sigma_z (x) Y adds 2 Y to K_z only; for a generic Y it leaves
        # the span of K_x and K_y, so the third singular value of the K
        # matrices grows linearly from zero.
        rng = np.random.default_rng(7)
        base = output_state(UnitaryMatrix(1, random_unitary(rng, 2)), 0.9)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        tilt = np.kron(np.diag([1.0, -1.0]), g + g.conj().T) / 8

        def tilted(delta):
            return DensityMatrix(base.entries + delta * tilt, (1, 1))

        def third_ratio(rho):
            _, k = correlations._measurement_blocks(rho, 0)
            flat = np.concatenate([k.real, k.imag], axis=-1).reshape(3, -1)
            s = np.linalg.svd(flat, compute_uv=False)
            return s[2] / s[0]

        delta = scale * correlations.AXIS_RANK_RTOL * 1e-6 / third_ratio(tilted(1e-6))
        rho = tilted(delta)
        above = scale > 1.0
        assert (third_ratio(rho) > correlations.AXIS_RANK_RTOL) == above
        value, _, evals = min_conditional_entropy(rho, 0)
        assert (evals > CIRCLE_EVALS) == above
        assert value <= oracle_min_conditional_entropy(rho, 0, 36, 72) + 1e-9
        assert value == pytest.approx(min_conditional_entropy(base, 0)[0], abs=1e-10)
