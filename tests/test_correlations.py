import json
import re
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
    concurrence,
    correlation_report,
    discord,
    output_state,
    reconstruct,
    simulate_counts,
    tangle,
    z_theta,
)
from dqc1sim import cli, correlations
from dqc1sim.correlations import (
    basis_discord, stack_concurrence, stack_discords, stack_tangle,
)
from dqc1sim.qmath import fidelity, stack_fidelity
from dqc1sim.serialize import density_from_json
from dqc1sim.tomography import pair_frequencies, stack_reconstruct

from helpers import bell_state, package_env, random_density_matrix, random_pure_density, stacked
from reference_oracles import (
    BELL_SIGNS,
    HADAMARD,
    bell_diagonal_discord,
    bell_diagonal_matrix,
    eigenphase_control_discord,
    entropy_bits,
    equator_min_conditional_entropy,
    oracle_min_conditional_entropy,
    random_unitary,
    reduced_states,
    werner_matrix,
    witness_matrix,
    z_theta_control_hmin,
)

FIXTURE_DIR = Path(__file__).parent / "fixtures"
FIXTURES = [p.stem for p in sorted(FIXTURE_DIR.glob("*.json"))]
# The builders of the frozen fixtures' states. The fixtures are records and
# are never regenerated; these pin that today's builders still make them.
FIXTURE_STATES = {
    "dqc1_quarter_phase": lambda: output_state(z_theta(np.pi / 2), 1.0),
    "dqc1_third_phase_alpha_0p997": lambda: output_state(z_theta(np.pi / 3), 0.997),
    "classical_quantum_witness": lambda: DensityMatrix(witness_matrix(), (1, 1)),
    "werner_p0p8": lambda: DensityMatrix(werner_matrix(0.8), (1, 1)),
}

# Documented evaluation bounds per measured side: the 8x16 hemisphere grid
# or the 16-point half great circle, plus at most 16 Newton steps, each one
# derivative evaluation and 8 line-search points.
NEWTON_EVALS = 16 * (1 + 8)
SPHERE_EVALS = 128 + NEWTON_EVALS
CIRCLE_EVALS = 16 + NEWTON_EVALS

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def one_state_search(rho, measured):
    """The library's own search (not an oracle) on a stack of one state:
    Hmin, its direction dict and the evaluations."""
    values, axes, evals = correlations._search(rho.entries[None], rho.subsystem_dims, measured)
    return float(values[0]), correlations._bloch_direction(axes[0]), int(evals[0])


def counted_search(rho, measured):
    """one_state_search, with the number of points of each objective call
    (the first is the coarse grid) and the number of derivative
    evaluations it made."""
    sizes, derivatives = [], []
    inner_entropy, inner_derivatives = correlations._weighted_entropy, correlations._derivatives

    def points(mu):
        sizes.append(len(mu))
        return inner_entropy(mu)

    def derivative(r, k, n):
        derivatives.append(len(n))
        return inner_derivatives(r, k, n)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(correlations, "_weighted_entropy", points)
        patch.setattr(correlations, "_derivatives", derivative)
        search = one_state_search(rho, measured)
    return search, sizes, len(derivatives)


def classical_mixture():
    """(|00><00| + |11><11|) / 2, classically correlated."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 0.5
    m[3, 3] = 0.5
    return DensityMatrix(m, (1, 1))


class TestMutualInformation:
    def test_product_state(self):
        rng = np.random.default_rng(0)
        a = random_density_matrix(rng, (1,))
        b = random_density_matrix(rng, (1,))
        joint = DensityMatrix(np.kron(a.entries, b.entries), (1, 1))
        assert correlation_report(joint)["mutual_info"] == pytest.approx(0.0, abs=1e-12)

    def test_bell_state(self):
        assert correlation_report(bell_state())["mutual_info"] == pytest.approx(2.0, abs=1e-12)

    def test_classical_mixture(self):
        assert correlation_report(classical_mixture())["mutual_info"] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_bipartite(self):
        rho = DensityMatrix(np.eye(8) / 8, (1, 1, 1))
        with pytest.raises(ValueError, match="bipartite"):
            discord(rho, MEASURE_CONTROL)
        with pytest.raises(ValueError, match="bipartite"):
            stack_discords(rho.entries[None], rho.qubit_dims, (0,))


class TestMinConditionalEntropy:
    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4, (1, 1))
        for side in (0, 1):
            value, _, _ = one_state_search(rho, side)
            assert value == pytest.approx(1.0, abs=1e-9)

    def test_bell_state_collapses(self):
        value, _, _ = one_state_search(bell_state(), 0)
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_classical_mixture_z_readout(self):
        value, direction, _ = one_state_search(classical_mixture(), 0)
        assert value == pytest.approx(0.0, abs=1e-9)
        # optimal axis is the z axis (either pole)
        assert min(direction["polar"], np.pi - direction["polar"]) < 1e-3

    def test_rejects_wide_measured_subsystem(self):
        rho = DensityMatrix(np.eye(8) / 8, (2, 1))
        with pytest.raises(ValueError, match="single qubit"):
            stack_discords(rho.entries[None], rho.qubit_dims, (0,))

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_bounded_by_reduced_entropy(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(rng, (1, 1))
        value, _, evals = one_state_search(rho, 0)
        assert -1e-12 <= value <= entropy_bits(reduced_states(rho.entries, (2, 2))[1]) + 1e-9
        # a full-rank state distinguishes every axis: the hemisphere search
        assert len(correlations._HEMISPHERE) < evals <= SPHERE_EVALS


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
        rho = DensityMatrix(witness_matrix(), (1, 1))
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
        ent = entropy_bits(reduced_states(rho.entries, (2, 2))[1])
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

    def test_discord_is_the_one_side_case_of_stack_discords(self):
        """A side is named by its index alone, checked in one place."""
        assert (MEASURE_CONTROL, MEASURE_REGISTER) == (0, 1)
        rng = np.random.default_rng(28)
        for rank in (1, 2, 3, 4):
            for _ in range(5):
                rho = random_density_matrix(rng, (1, 1), rank=rank)
                _, [(d_rc, _, _), (d_cr, _, _)] = stack_discords(rho.entries[None], (1, 1), (0, 1))
                assert discord(rho, MEASURE_CONTROL) == d_rc[0]
                assert discord(rho, MEASURE_REGISTER) == d_cr[0]
        for bad, message in (("measure_control", "an integer, got 'measure_control'"),
                             (True, "an integer, got True"), (2, "<= 1, got 2"),
                             (np.int64(2), "<= 1, got 2")):
            with pytest.raises(ValueError,
                               match=f"^measured subsystem index must be {re.escape(message)}$"):
                discord(bell_state(), bad)

    def test_bad_direction(self):
        with pytest.raises(ValueError,
                           match="^measured subsystem index must be an integer, got 'sideways'$"):
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
            refined, _, _ = one_state_search(rho, measured)
            grid = oracle_min_conditional_entropy(
                rho.entries, rho.subsystem_dims, measured, 100, 200)
            assert refined <= grid + 1e-9

    @pytest.mark.parametrize("seed, index, theta", [(120, 29, -0.105), (108, 27, -0.314)])
    def test_reconstructed_sweep_state(self, seed, index, theta):
        # Two states of the 61-step sweep's tomography column whose minimum
        # lies far from the best coarse grid point along a nearly flat
        # direction: a search that stops short there stays up to 1.5e-4
        # (seed 120) or 3.3e-4 (seed 108) above this grid. At seed 108 the
        # first Newton step is 65 long before it is shortened to 1.
        config = cli.SweepConfig(-np.pi, np.pi, 61, 0.997, 2000, seed, ("tomo",), 1e4, "binomial")
        *_, p = cli.sweep_point(config, index)
        assert config.thetas[index] == pytest.approx(theta, abs=1e-3)
        recon = DensityMatrix(stack_reconstruct(p[None])[0], (1, 1))
        value, _, _ = one_state_search(recon, 0)
        assert value <= oracle_min_conditional_entropy(recon.entries, recon.subsystem_dims, 0, 100, 200)

    @pytest.mark.parametrize("alpha", [0.8, 1.0])
    @pytest.mark.parametrize("n", [2, 3])
    def test_dense_partner_against_an_equator_scan(self, n, alpha):
        # K_z = 0 puts the control-side optimum of a DQC1 output on the
        # equator, which the oracle scans at 20 001 axes.
        rng = np.random.default_rng([n, int(10 * alpha)])
        for _ in range(2):
            rho = output_state(UnitaryMatrix(n, random_unitary(rng, 2**n)), alpha)
            value, _, _ = one_state_search(rho, 0)
            assert value <= equator_min_conditional_entropy(rho.entries, rho.subsystem_dims) + 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_haar_control_discord_against_the_eigenphase_scan(self, n):
        # The eigenphase form of the control-side discord scans 200 001
        # equator angles without forming a state: the search may not be
        # above the scan, nor further below it than the scan's grid error.
        u = random_unitary(np.random.default_rng([31, n]), 2**n)
        for alpha in (1.0, 0.9, 0.58):
            value = discord(output_state(UnitaryMatrix(n, u), alpha), MEASURE_CONTROL)
            scan = eigenphase_control_discord(u, alpha)
            assert scan - 1e-9 <= value <= scan + 1e-12


class TestLuoClosedForm:
    """Locally rotated Bell-diagonal states, whose discord on either side is
    Luo's closed form, through stack_discords."""

    @staticmethod
    def _coefficients(rng) -> list:
        cs = [rng.dirichlet(np.ones(4)) @ BELL_SIGNS for _ in range(200)]
        for _ in range(200):
            # The two largest |c_i| a factor 1 - delta apart, which leaves
            # the objective nearly flat along the great circle through their
            # axes; |c_1| + |c_2| + |c_3| <= 1 keeps every Bell weight >= 0.
            delta = 10.0 ** rng.uniform(-6.0, np.log10(0.3))
            mags = np.array([1.0, 1.0 - delta, rng.uniform(0.0, 1.0 - delta)])
            c = mags * (rng.uniform(0.05, 1.0) / mags.sum()) * rng.choice([-1.0, 1.0], 3)
            cs.append(c[rng.permutation(3)])
        return cs

    def test_both_sides_match_luo(self):
        rng = np.random.default_rng(2008)
        cs = self._coefficients(rng)
        states = []
        for c in cs:
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            states.append(DensityMatrix(u @ bell_diagonal_matrix(c) @ u.conj().T, (1, 1)))
        _, sides = stack_discords(stacked(states), (1, 1), (0, 1))
        luo = np.array([bell_diagonal_discord(c) for c in cs])
        for values, _, _ in sides:
            gap = values - luo
            assert np.abs(gap).max() <= 1e-10
            assert gap.min() >= -1e-12


def _fixture(name: str) -> dict:
    return json.loads((FIXTURE_DIR / f"{name}.json").read_text())


class TestGoldenFixtures:
    def test_every_fixture_has_a_builder(self):
        assert sorted(FIXTURE_STATES) == FIXTURES

    @pytest.mark.parametrize("fixture_name", FIXTURES)
    def test_state_is_its_builders(self, fixture_name):
        stored = density_from_json(_fixture(fixture_name)["state"])
        rho = FIXTURE_STATES[fixture_name]()
        assert rho.qubit_dims == stored.qubit_dims
        assert np.max(np.abs(rho.entries - stored.entries)) <= 1e-15

    @pytest.mark.parametrize("fixture_name", FIXTURES)
    def test_report_matches_fixture(self, fixture_name):
        fixture = _fixture(fixture_name)
        rho = density_from_json(fixture["state"])
        report = correlation_report(rho)
        stored = fixture["report"]
        assert set(stored) == {"mutual_info", "discord_rc", "discord_cr", "tangle"}
        for key in stored:
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
        rho = DensityMatrix(werner_matrix(p), (1, 1))
        assert concurrence(rho) == pytest.approx(max(0.0, (3 * p - 1) / 2), abs=1e-10)

    def test_dqc1_outputs_never_entangle(self):
        for theta in np.linspace(-np.pi, np.pi, 21):
            assert tangle(output_state(z_theta(theta), 1.0)) < 1e-9

    def test_wrong_dimension(self):
        with pytest.raises(ValueError, match="two-qubit"):
            concurrence(DensityMatrix(np.eye(8) / 8, (1, 2)))


class TestReportAndDirection:
    def test_report_fields(self):
        report = correlation_report(bell_state())
        assert report["mutual_info"] == pytest.approx(2.0, abs=1e-4)
        assert report["discord_rc"] == pytest.approx(1.0, abs=1e-4)
        assert report["discord_cr"] == pytest.approx(1.0, abs=1e-4)
        assert report["tangle"] == pytest.approx(1.0, abs=1e-4)
        assert report["optimizer_evals"] > 0
        assert set(report) == {
            "mutual_info", "discord_rc", "discord_cr", "tangle",
            "argmin_direction", "optimizer_evals",
        }
        assert set(report["argmin_direction"]) == {"polar", "azimuth"}

    def test_rejects_tangle_above_one(self, monkeypatch):
        monkeypatch.setattr(correlations, "tangle", lambda rho: 1.5)
        with pytest.raises(ValueError, match=r"^tangle must be in \[0, 1\], got 1\.5$"):
            correlation_report(bell_state())

    def test_rejects_negative_discord(self, monkeypatch):
        inner = correlations.stack_discords

        def negative(entries, qubit_dims, measured):
            info, sides = inner(entries, qubit_dims, measured)
            return info, [(np.full(len(entries), -1e-6), axes, evals) for _, axes, evals in sides]

        monkeypatch.setattr(correlations, "stack_discords", negative)
        with pytest.raises(ValueError, match=r"^discord values must be >= -1e-9$"):
            correlation_report(bell_state())

    @given(seed=seeds, rank=st.integers(1, 4))
    @settings(max_examples=15, deadline=None)
    def test_any_two_qubit_split_reads_as_control_and_register(self, seed, rank):
        # a state stored as one four-level subsystem reports as (1, 1)
        rho = random_density_matrix(np.random.default_rng(seed), (1, 1), rank)
        assert correlation_report(DensityMatrix(rho.entries, (2,))) == correlation_report(rho)


ORACLE_STATES = {
    "bell": bell_state,
    "werner": lambda: DensityMatrix(werner_matrix(0.6), (1, 1)),
    "z_theta_1.0": lambda: output_state(z_theta(1.0), 0.9),
    "z_theta_-2.5": lambda: output_state(z_theta(-2.5), 0.997),
    "z_theta_pi/2": lambda: output_state(z_theta(np.pi / 2), 1.0),
}


def stack_of_one(rho, measured):
    """stack_discords on a stack of rho alone, with each side's arrays as
    lists, so that two calls compare with == to the bit."""
    info, sides = stack_discords(rho.entries[None], rho.qubit_dims, measured)
    return info.tolist(), [[a.tolist() for a in side] for side in sides]


class TestDiscords:
    """discord and correlation_report are stack_discords on a stack of one."""

    @pytest.mark.parametrize("state", ORACLE_STATES.values(), ids=ORACLE_STATES)
    def test_agrees_with_discord_and_report(self, state):
        rho = state()
        [info], [([d_rc], [axis], [evals_c]), ([d_cr], _, [evals_r])] = stack_of_one(rho, (0, 1))
        assert d_rc == discord(rho, MEASURE_CONTROL)
        assert d_cr == discord(rho, MEASURE_REGISTER)
        report = correlation_report(rho)
        assert report["mutual_info"] == info
        assert report["discord_rc"] == d_rc
        assert report["discord_cr"] == d_cr
        assert report["argmin_direction"] == correlations._bloch_direction(np.array(axis))
        assert report["optimizer_evals"] == evals_c + evals_r
        # Python numbers, as the JSON writer takes them
        assert [type(report[k]) for k in ("mutual_info", "discord_rc", "discord_cr",
                                          "optimizer_evals")] == [float, float, float, int]

    def test_sides_follow_the_order_asked(self):
        rho = ORACLE_STATES["werner"]()
        info, sides = stack_of_one(rho, (0, 1))
        assert stack_of_one(rho, (1, 0)) == (info, sides[::-1])
        assert stack_of_one(rho, ()) == (info, [])

    def test_one_call_computes_three_entropies(self, monkeypatch):
        calls = []
        inner = correlations.spectrum_entropy

        def counted(lam):
            calls.append(lam.shape)
            return inner(lam)

        monkeypatch.setattr(correlations, "spectrum_entropy", counted)
        correlation_report(output_state(z_theta(1.0), 0.9))
        # H(A), H(B) and H(AB), each from one batched eigvalsh
        assert sorted(calls) == [(1, 2), (1, 2), (1, 4)]

    def test_rejects_a_bad_side(self):
        # True == 1 and 0.0 == 0, but only an integer names a side
        for measured, got in (((0, 2), "<= 1, got 2"), ([True], "an integer, got True"),
                              ((0.0,), "an integer, got 0.0")):
            with pytest.raises(ValueError, match=f"must be {re.escape(got)}$"):
                stack_of_one(bell_state(), measured)
        assert discord(bell_state(), np.int64(1)) == discord(bell_state(), 1)


class TestBasisDiscord:
    def test_classical_mixture_closed_form(self):
        # I = 1; the Z basis reads the correlation out (J = 1), the X basis
        # leaves the control maximally mixed (J = 0)
        assert basis_discord(classical_mixture(), np.eye(2)) == pytest.approx(0.0, abs=1e-12)
        assert basis_discord(classical_mixture(), HADAMARD) == pytest.approx(1.0, abs=1e-12)

    @given(seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_zero_in_the_basis_of_a_classical_quantum_state(self, seed):
        # (|0><0| (x) |u0><u0| + |1><1| (x) |u1><u1|) / 2 with u_k the rows
        # of a random unitary: measuring the register in that basis reads
        # the control out
        rng = np.random.default_rng(seed)
        basis = random_unitary(rng, 2)
        rho = DensityMatrix(sum(
            np.kron(np.diag(np.eye(2)[k]), np.outer(basis[k], basis[k].conj())) for k in range(2)
        ) / 2, (1, 1))
        assert basis_discord(rho, basis) == pytest.approx(0.0, abs=1e-9)

    @given(seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_bounds_the_register_discord(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(rng, (1, 1))
        assert basis_discord(rho, random_unitary(rng, 2)) >= discord(rho, MEASURE_REGISTER) - 1e-9


class TestMinimiserContract:
    def test_import_loads_no_scipy(self):
        out = subprocess.run(
            [sys.executable, "-c", "import sys, dqc1sim; print('scipy' in sys.modules)"],
            capture_output=True, text=True, env=package_env(), check=True,
        )
        assert out.stdout.strip() == "False"

    def test_search_loads_no_masked_arrays(self):
        # numpy.ma, which np.unique imports, costs about 15 ms of start-up.
        code = ("import sys; from dqc1sim import correlation_report, output_state, z_theta; "
                "correlation_report(output_state(z_theta(1.0), 0.9)); print('numpy.ma' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, env=package_env(), check=True)
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("n", [2, 3])
    def test_chunked_blocks_match_one_batch(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        rho = output_state(UnitaryMatrix(n, random_unitary(rng, 2**n)), 0.9)
        monkeypatch.setattr(correlations, "BLOCK_CHUNK_BYTES", 1 << 40)
        whole = one_state_search(rho, 0)
        # seven directions per chunk, so the last chunk is ragged
        monkeypatch.setattr(correlations, "BLOCK_CHUNK_BYTES", 7 * 2 * 4**n * 16)
        chunked = one_state_search(rho, 0)
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
            r, k = correlations._measurement_blocks(rho.entries[None], rho.subsystem_dims, measured)
            closed = np.sort(correlations._qubit_spectra(r, k)(nvec[None]), axis=-1)
            dense = correlations._dense_spectra(r, k)(nvec[None])
            np.testing.assert_allclose(closed, dense, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("theta, alpha", [(0.1047, 0.997), (0.01, 1.0), (3.0369, 0.997)])
    def test_invariant_under_local_rotations(self, theta, alpha):
        # Near the Clifford points the objective has a narrow valley; a local
        # unitary turns it across the coarse grid but leaves Hmin unchanged.
        # 1e-10 is ten times inside the slack of the benchmark discord oracle.
        # The rotation also turns the axes the state cannot tell apart, so
        # the reduced search must find them off the coordinate axes too.
        rho = output_state(z_theta(theta), alpha)
        plain = [one_state_search(rho, m)[0] for m in (0, 1)]
        rng = np.random.default_rng(4)
        for _ in range(4):
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            turned = DensityMatrix(u @ rho.entries @ u.conj().T, (1, 1))
            for measured, bound in ((0, CIRCLE_EVALS), (1, 1)):
                value, _, evals = one_state_search(turned, measured)
                assert value == pytest.approx(plain[measured], abs=1e-10)
                assert evals <= bound

    @pytest.mark.parametrize("qubit_dims", [(1, 1), (1, 2)])
    def test_derivatives_match_finite_differences(self, qubit_dims):
        # Central differences of the objective in the axis, inside the Bloch
        # ball, where every block is positive definite. The last state's
        # blocks are multiples of I, whose coinciding eigenvalues take the
        # eta'' branch; its objective is constant, so both derivatives are 0.
        rng = np.random.default_rng(sum(qubit_dims))
        d = 2 ** qubit_dims[1]
        control = random_density_matrix(rng, (1,)).entries
        states = [random_density_matrix(rng, qubit_dims) for _ in range(4)]
        states.append(DensityMatrix(np.kron(control, np.eye(d) / d), qubit_dims))
        entries = np.array([rho.entries for rho in states])
        r, k = correlations._measurement_blocks(entries, states[0].subsystem_dims, 0)
        spectra = correlations._dense_spectra(r, k)

        def f(n):
            return correlations._weighted_entropy(spectra(n[:, None])[:, 0]).sum(axis=-1)

        n = rng.normal(size=(len(states), 3))
        n *= 0.8 / np.linalg.norm(n, axis=1, keepdims=True)
        grad, hess = correlations._derivatives(r, k, n)
        eye = np.eye(3)
        h = 1e-5
        diff_grad = np.stack([(f(n + h * e) - f(n - h * e)) / (2 * h) for e in eye], axis=1)
        np.testing.assert_allclose(grad, diff_grad, rtol=0, atol=1e-8)
        h = 1e-4
        diff_hess = np.stack([np.stack([
            (f(n + h * (a + b)) - f(n + h * (a - b)) - f(n - h * (a - b)) + f(n - h * (a + b)))
            / (4 * h * h) for b in eye], axis=1) for a in eye], axis=1)
        np.testing.assert_allclose(hess, diff_hess, rtol=0, atol=1e-5)
        assert np.abs(hess).max() > 0.1  # the random states' Hessians are not small
        np.testing.assert_allclose(grad[-1], 0.0, atol=1e-14)
        np.testing.assert_allclose(hess[-1], 0.0, atol=1e-12)

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_direction_on_upper_hemisphere(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(rng, (1, 1), rank=int(rng.integers(1, 5)))
        for measured in (0, 1):
            _, direction, _ = one_state_search(rho, measured)
            assert 0.0 <= direction["polar"] <= np.pi / 2
        report_direction = correlation_report(rho)["argmin_direction"]
        assert 0.0 <= report_direction["polar"] <= np.pi / 2


class TestReducedSearch:
    """The minimiser searches the unit sphere of the row space of the K
    matrices: one axis, a half great circle or the hemisphere."""

    @pytest.mark.parametrize("alpha", [0.5, 0.997, 1.0])
    @pytest.mark.parametrize("theta", [0.0, 0.1047, np.pi / 2, 2.0, -3.0369, np.pi])
    def test_z_theta_sweep_states(self, theta, alpha):
        rho = output_state(z_theta(theta), alpha)
        # classical on the register, whose K_x and K_y vanish: one axis
        assert one_state_search(rho, 1)[2] == 1
        # equal diagonal blocks make K_z vanish: the equator
        _, direction, evals = one_state_search(rho, 0)
        assert evals <= CIRCLE_EVALS
        assert direction["polar"] == pytest.approx(np.pi / 2, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_haar_dqc1_control_side(self, n):
        rng = np.random.default_rng(10 + n)
        rho = output_state(UnitaryMatrix(n, random_unitary(rng, 2**n)), 0.9)
        # a local unitary on the measured qubit tilts the null axis off z
        v = np.kron(random_unitary(rng, 2), np.eye(2**n))
        turned = DensityMatrix(v @ rho.entries @ v.conj().T, (1, n))
        plain, rotated = (one_state_search(state, 0) for state in (rho, turned))
        assert plain[2] <= CIRCLE_EVALS and rotated[2] <= CIRCLE_EVALS
        # the Newton steps stay on the circle: K_z = 0 keeps it on the equator
        assert plain[1]["polar"] == pytest.approx(np.pi / 2, abs=1e-12)
        assert rotated[0] == pytest.approx(plain[0], abs=1e-10)
        for state, (value, _, _) in ((rho, plain), (turned, rotated)):
            assert value <= oracle_min_conditional_entropy(
                state.entries, state.subsystem_dims, 0, 36, 72) + 1e-9

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
            value, _, evals = one_state_search(rho, 0)
            assert evals <= CIRCLE_EVALS
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(correlations, "AXIS_RANK_RTOL", -1.0)  # every axis counts
                (full, _, _), sizes, _ = counted_search(rho, 0)
            assert sizes[0] == len(correlations._HEMISPHERE)
            assert value <= full + 1e-12

    def test_full_rank_state_keeps_the_hemisphere_search(self):
        rho = random_density_matrix(np.random.default_rng(0), (1, 1))
        for measured in (0, 1):
            (_, _, evals), sizes, _ = counted_search(rho, measured)
            assert sizes[0] == len(correlations._HEMISPHERE)
            assert evals <= SPHERE_EVALS

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
            _, [k] = correlations._measurement_blocks(rho.entries[None], rho.subsystem_dims, 0)
            flat = np.concatenate([k.real, k.imag], axis=-1).reshape(3, -1)
            s = np.linalg.svd(flat, compute_uv=False)
            return s[2] / s[0]

        delta = scale * correlations.AXIS_RANK_RTOL * 1e-6 / third_ratio(tilted(1e-6))
        rho = tilted(delta)
        above = scale > 1.0
        assert (third_ratio(rho) > correlations.AXIS_RANK_RTOL) == above
        (value, _, _), sizes, _ = counted_search(rho, 0)
        assert sizes[0] == (len(correlations._HEMISPHERE) if above else correlations.CIRCLE_POINTS)
        assert value <= oracle_min_conditional_entropy(
            rho.entries, rho.subsystem_dims, 0, 36, 72) + 1e-9
        assert value == pytest.approx(one_state_search(base, 0)[0], abs=1e-10)


class TestSearchBudget:
    """A search's reported evaluations are its grid points, its line-search
    points and one per derivative evaluation, within at most 16 Newton
    steps of 8 line-search points each."""

    @staticmethod
    def _search(rho, measured):
        (_, _, evals), sizes, derivatives = counted_search(rho, measured)
        assert evals == sum(sizes) + derivatives
        # one line search per derivative evaluation at most, each of 8 points
        assert derivatives <= correlations.NEWTON_STEPS
        assert len(sizes) - 1 <= derivatives
        assert sizes[1:] == [correlations.LINE_POINTS] * (len(sizes) - 1)
        return sizes, derivatives

    def test_documented_constants(self):
        assert (correlations.NEWTON_STEPS, correlations.LINE_POINTS) == (16, 8)
        assert correlations.NEWTON_GTOL == 1e-13

    @pytest.mark.parametrize("alpha", [0.3, 0.997, 1.0])
    @pytest.mark.parametrize("theta", [0.0, 0.1047, 1.0, np.pi / 2, -3.0369])
    def test_z_theta_output(self, theta, alpha):
        # The circle starts at the larger singular axis and passes the other
        # one, the two candidate optima, so the best grid point is already
        # stationary: one derivative evaluation and no Newton step (rank 1,
        # at theta = 0, has neither).
        rho = output_state(z_theta(theta), alpha)
        sizes, derivatives = self._search(rho, 0)
        assert sizes == [correlations.CIRCLE_POINTS] and derivatives == 1 or (
            sizes == [1] and derivatives == 0 and theta == 0.0)
        assert self._search(rho, 1) == ([1], 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_tomography_reconstruction(self, seed):
        rho = output_state(z_theta(0.5 + seed), 0.997)
        recon = reconstruct(simulate_counts(rho, 1e4, seed))
        for measured in (0, 1):
            sizes, derivatives = self._search(recon, measured)
            assert sizes[0] == len(correlations._HEMISPHERE)
            assert 2 <= derivatives <= correlations.NEWTON_STEPS

    def test_steps_stop_at_the_cap(self, monkeypatch):
        # With no gradient small enough to stop it, a search runs until its
        # line search fails or the cap ends it.
        monkeypatch.setattr(correlations, "NEWTON_GTOL", 0.0)
        recon = reconstruct(simulate_counts(output_state(z_theta(0.5), 0.997), 1e4, 0))
        _, uncapped = self._search(recon, 0)
        assert uncapped > 3
        monkeypatch.setattr(correlations, "NEWTON_STEPS", 3)
        assert self._search(recon, 0)[1] == 3


class TestZThetaClosedForm:
    @pytest.mark.parametrize("alpha", [0.3, 0.58, 0.9, 0.997, 1.0])
    def test_control_side_matches_closed_form(self, alpha):
        # the equatorial axes at theta/2 and theta/2 + pi/2, explicit projectors
        for theta in np.linspace(-np.pi, np.pi, 61):
            value, _, _ = one_state_search(output_state(z_theta(float(theta)), alpha), 0)
            assert abs(value - z_theta_control_hmin(float(theta), alpha)) <= 1e-12, theta


def mixed_rank_stack(rng, qubit_dims=(1, 1)) -> list:
    """Bipartite states whose searches take every rank that qubit_dims allows."""
    n = qubit_dims[1]
    states = []
    if qubit_dims == (1, 1):
        # theta = 0 and +-pi drop the control side to rank 1; the register
        # side of every Z_theta output has rank 1
        states += [output_state(z_theta(t), a) for t in (0.0, -np.pi, np.pi, 0.1047, 2.0)
                   for a in (0.997, 1.0)]
        states.append(ORACLE_STATES["werner"]())
        states.append(bell_state())
    else:
        states += [output_state(UnitaryMatrix(n, random_unitary(rng, 2**n)), a) for a in (0.5, 1.0)]
    # register sides of rank 0 (a maximally mixed register) and 1
    a = random_density_matrix(rng, (1,)).entries
    states.append(DensityMatrix(np.kron(a, np.eye(2**n) / 2**n), qubit_dims))
    states.append(DensityMatrix(np.kron(a, random_pure_density(rng, (n,)).entries), qubit_dims))
    states += [random_density_matrix(rng, qubit_dims, rank=r) for r in (1, 2, 3, 3, 4)]
    return states


def assert_same_search(side, alone):
    """A stacked side of stack_discords (arrays) against each state's side
    of its own stack of one (stack_of_one's lists), to the bit."""
    assert [a.tolist() for a in side] == [sum(lists, []) for lists in zip(*alone)]


def assert_same_axes(side, states, measured):
    """The axes and evaluations of a stacked side of stack_discords against
    one_state_search's, to the bit."""
    searches = [one_state_search(rho, measured) for rho in states]
    assert [correlations._bloch_direction(n) for n in side[1]] == [d for _, d, _ in searches]
    assert side[2].tolist() == [e for _, _, e in searches]


class TestStackedSearch:
    """A stack of states goes through exactly the searches each state gets
    alone: the same values, directions and evaluation counts, to the bit."""

    @pytest.mark.parametrize("qubit_dims", [(1, 1), (1, 2), (1, 3)])
    def test_mixed_ranks_match_one_state_calls(self, qubit_dims):
        states = mixed_rank_stack(np.random.default_rng(sum(qubit_dims)), qubit_dims)
        measured = (0, 1) if qubit_dims == (1, 1) else (0,)
        info, sides = stack_discords(stacked(states), qubit_dims, measured)
        alone = [stack_of_one(rho, measured) for rho in states]
        assert info.tolist() == [i for [i], _ in alone]
        for k, m in enumerate(measured):
            assert_same_search(sides[k], [s[k] for _, s in alone])
            assert_same_axes(sides[k], states, m)
        ranks = {g for m in measured for g in correlations._axis_rank(
            correlations._measurement_blocks(stacked(states), states[0].subsystem_dims, m)[1])[0]}
        assert ranks >= ({0, 1, 2, 3} if qubit_dims == (1, 1) else {1, 2, 3})

    def test_states_stop_one_by_one(self):
        # I/4 has rank 0; a Werner state's objective is flat, so its search
        # stops at the first derivative evaluation, while random states take
        # several Newton steps. Each state's mask keeps the others' searches
        # alone.
        rng = np.random.default_rng(5)
        states = [DensityMatrix(werner_matrix(p), (1, 1)) for p in (0.0, 0.3, 0.7)] + [
            random_density_matrix(rng, (1, 1)) for _ in range(5)]
        _, [side] = stack_discords(stacked(states), (1, 1), (0,))
        grid = len(correlations._HEMISPHERE)
        assert side[2][:3].tolist() == [1, grid + 1, grid + 1]
        assert (side[2][3:] > grid + 1 + correlations.LINE_POINTS).all()
        assert_same_search(side, [stack_of_one(rho, (0,))[1][0] for rho in states])
        assert_same_axes(side, states, 0)

    def test_tangle_and_fidelity_match_one_state_calls(self):
        rng = np.random.default_rng(11)
        states = mixed_rank_stack(rng)
        others = [random_density_matrix(rng, (1, 1)) for _ in states]
        assert stack_concurrence(stacked(states)).tolist() == [concurrence(rho) for rho in states]
        assert stack_tangle(stacked(states)).tolist() == [tangle(rho) for rho in states]
        assert stack_fidelity(stacked(states), stacked(others)).tolist() == [
            fidelity(rho, sigma) for rho, sigma in zip(states, others)]

    def test_reconstructions_match_one_state_calls(self):
        counts = np.stack([simulate_counts(output_state(z_theta(t), 0.997), 1e4, s)
                           for s, t in enumerate(np.linspace(-3.0, 3.0, 13))])
        recons = stack_reconstruct(np.stack([pair_frequencies(row) for row in counts]))
        assert recons.shape == (13, 4, 4)
        for got, row in zip(recons, counts):
            np.testing.assert_array_equal(got, reconstruct(row).entries)
