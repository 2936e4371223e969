import numpy as np
import pytest

import atcnet as an
from atcnet import child, engine
from atcnet.costs import QuadraticCost
from atcnet.errors import Diverged, InsufficientData

from conftest import estimate_msd


def quad_models(w_os, sigma_v2=0.01, r_u=1.0):
    return [QuadraticCost(r_u=r_u, sigma_v2=sigma_v2, w_o=w) for w in w_os]


@pytest.fixture
def two_agent_setup(two_agent):
    models = quad_models([[1.0], [0.25]], sigma_v2=0.04)
    steps = an.StepSizeProfile(0.01, [1.0, 0.5])
    return two_agent, models, steps


class TestStepSizeProfile:
    def test_mu_is_exact_product(self):
        profile = an.StepSizeProfile(0.0005, [1.0, 0.5, 0.25])
        assert np.array_equal(profile.mu, np.array([0.0005, 0.00025, 0.000125]))

    def test_tau_bounds(self):
        with pytest.raises(ValueError):
            an.StepSizeProfile(0.1, [0.0, 1.0])
        with pytest.raises(ValueError):
            an.StepSizeProfile(0.1, [1.5])
        with pytest.raises(ValueError):
            an.StepSizeProfile(-0.1, [1.0])

    def test_scaled(self):
        profile = an.StepSizeProfile(0.001, [1.0, 1.0])
        assert profile.scaled(0.5).mu_max == pytest.approx(0.0005)


class TestFixedPoints:
    def test_zero_gradient_identity_matrix_is_fixed_point(self):
        # without mixing, each noise-free agent settles where its own gradient vanishes
        a = an.validate(np.eye(3))
        w_os = np.array([[2.0], [-1.0], [0.5]])
        models = quad_models(w_os, sigma_v2=0.0)
        steps = an.StepSizeProfile(0.1, np.ones(3))
        [traj] = an.run_ensemble(a, models, steps, w_os, iterations=2000, n_runs=1,
                                 master_seed=0, record_iterates=True)
        assert np.allclose(traj.iterates[-10:], w_os, atol=1e-12)

    def test_equal_iterates_stay_under_any_mixing(self, eight_agent):
        models = quad_models([[0.7]] * 8, sigma_v2=0.0)
        steps = an.StepSizeProfile(0.05, np.ones(8))
        [traj] = an.run_ensemble(eight_agent, models, steps, np.full((8, 1), 0.7),
                                 iterations=2000, n_runs=1, master_seed=0, record_iterates=True)
        assert np.allclose(traj.iterates[-10:], 0.7, atol=1e-12)


class TestRun:
    def test_deterministic_given_seed(self, two_agent_setup):
        a, models, steps = two_agent_setup
        lp = np.array([[1.0], [1.0]])
        kwargs = dict(iterations=500, n_runs=1, master_seed=3, stride=10, record_iterates=True)
        [t1] = an.run_ensemble(a, models, steps, lp, **kwargs)
        [t2] = an.run_ensemble(a, models, steps, lp, **kwargs)
        assert np.array_equal(t1.sq_error, t2.sq_error)
        assert np.array_equal(t1.iterates, t2.iterates)

    def test_zero_step_size_freezes_iterates(self, two_agent_setup):
        a, models, _ = two_agent_setup
        steps = an.StepSizeProfile(0.0, [1.0, 1.0])
        lp = np.array([[1.0], [0.25]])
        [traj] = an.run_ensemble(a, models, steps, lp, iterations=200, n_runs=1, master_seed=0)
        assert np.allclose(traj.sq_error, (lp**2).sum(axis=1), atol=1e-15)

    def test_recorded_iterations_follow_stride(self, two_agent_setup):
        a, models, steps = two_agent_setup
        [traj] = an.run_ensemble(a, models, steps, np.zeros((2, 1)), iterations=55, n_runs=1,
                                 master_seed=0, stride=10)
        assert traj.iterations.tolist() == [10, 20, 30, 40, 50]

    def test_ensemble_runs_have_independent_streams(self, two_agent_setup):
        a, models, steps = two_agent_setup
        lp = np.zeros((2, 1))
        runs = an.run_ensemble(a, models, steps, lp, iterations=100, n_runs=3,
                               master_seed=5)
        assert not np.array_equal(runs[0].sq_error, runs[1].sq_error)
        assert not np.array_equal(runs[1].sq_error, runs[2].sq_error)

    def test_iterates_settle_near_limit_points(self, eight_agent, eight_partition):
        # sender solutions 1 and 1.5 pull the receivers to the W-mix
        models = quad_models([[1.0]] * 3 + [[1.5]] * 2 + [[1.25]] * 3)
        steps = an.StepSizeProfile(0.0005, np.ones(8))
        lp = an.receiving_limit_points([[1.0], [1.5]], eight_partition)
        runs = an.run_ensemble(eight_agent, models, steps, lp, iterations=100000,
                               n_runs=3, master_seed=21, record_iterates=True)
        tail = np.mean([t.iterates[-1000:].mean(axis=0) for t in runs], axis=0)
        assert np.abs(tail - lp).max() < 0.02

    def test_stride_below_one_rejected(self, two_agent_setup):
        a, models, steps = two_agent_setup
        with pytest.raises(ValueError, match="stride"):
            an.run_ensemble(a, models, steps, np.zeros((2, 1)), iterations=10, n_runs=1,
                            master_seed=0, stride=0)

    def test_burn_in_over_no_records_is_insufficient(self, two_agent_setup):
        # stride > iterations records nothing: no tail to average, rather than 0 / 0
        a, models, steps = two_agent_setup
        with pytest.raises(InsufficientData, match="0 records"):
            an.run_ensemble(a, models, steps, np.zeros((2, 1)), iterations=5, n_runs=2,
                            master_seed=0, stride=10, burn_in_fraction=0.5)

    @pytest.mark.parametrize("fraction", [-1.0, 1.5])
    def test_burn_in_outside_unit_interval_rejected(self, two_agent_setup, fraction):
        # -1.0 once summed every record and divided by twice their count; 1.5 gave -0.
        a, models, steps = two_agent_setup
        with pytest.raises(ValueError, match="burn_in_fraction"):
            an.run_ensemble(a, models, steps, np.zeros((2, 1)), iterations=2000, n_runs=2,
                            master_seed=2, burn_in_fraction=fraction)
        with pytest.raises(ValueError, match="burn_in_fraction"):
            an.run_ensemble(a, models, steps, lambda wait: np.zeros((2, 1)), iterations=2000,
                            n_runs=2, master_seed=2, burn_in_fraction=fraction)

    @pytest.mark.parametrize("n_runs", [0, -1])
    def test_run_count_below_one_rejected(self, two_agent_setup, n_runs):
        # 0 once failed in a numpy reduction or broadcast, -1 on a negative dimension
        a, models, steps = two_agent_setup
        with pytest.raises(ValueError, match="n_runs must be >= 1"):
            an.run_ensemble(a, models, steps, np.zeros((2, 1)), iterations=20, n_runs=n_runs,
                            master_seed=2)
        with pytest.raises(ValueError, match="n_runs must be >= 1"):
            engine.run_paired_long_term(a, models, steps, np.zeros((2, 1)), iterations=20,
                                        seed=2, n_runs=n_runs)

    def test_divergence_reports_run(self, two_agent):
        models = quad_models([[1.0], [1.0]], sigma_v2=0.0, r_u=100.0)
        steps = an.StepSizeProfile(1.0, [1.0, 1.0])
        with pytest.raises(Diverged):
            an.run_ensemble(two_agent, models, steps, np.zeros((2, 1)),
                            iterations=2000, n_runs=2, master_seed=0)


class TestLongTerm:
    def test_noise_free_model_contracts(self, two_agent):
        # without observation noise the gradient noise vanishes at w_o, so the
        # model, started off its limit points, contracts towards them
        models = quad_models([[1.0], [1.0]], sigma_v2=0.0)
        steps = an.StepSizeProfile(0.05, [1.0, 1.0])
        lp = np.array([[1.0], [1.0]])
        for noise_at in ("iterate", "limit_point"):
            [paired] = an.run_paired_long_term(two_agent, models, steps, lp, iterations=300,
                                               seed=2, noise_at=noise_at, stride=1,
                                               w_init=lp + [[-0.5], [0.5]])
            norms = paired.sq_error_model.max(axis=1)
            assert norms[-1] < 1e-16
            assert norms[-1] < norms[0]

    def test_bias_vanishes_at_sender_pareto_points(self, eight_partition):
        models = quad_models([[1.0]] * 3 + [[1.5]] * 2 + [[1.25]] * 3)
        points = an.receiving_limit_points([[1.0], [1.5]], eight_partition)
        _, bias = an.long_term_state(models, points)
        qs = an.q_weights(eight_partition, an.StepSizeProfile(0.0005, np.ones(8)))
        at = 0
        for s, size in enumerate(eight_partition.s_sizes):
            members = eight_partition.order[at : at + size]
            weighted = sum(
                q * (-bias[k]) for q, k in zip(qs[s], members)
            )
            assert np.abs(weighted).max() < 1e-12
            at += size

    def test_quadratic_models_coincide_with_nonlinear_run(self, eight_agent, eight_partition):
        models = quad_models([[1.0]] * 3 + [[1.5]] * 2 + [[1.25]] * 3)
        steps = an.StepSizeProfile(0.0005, np.ones(8))
        points = an.receiving_limit_points([[1.0], [1.5]], eight_partition)
        [paired] = an.run_paired_long_term(
            eight_agent, models, steps, points,
            iterations=500, seed=13, noise_at="iterate",
        )
        assert paired.max_state_gap < 1e-10


class TestErrorMomentTrends:
    def test_mean_error_linear_and_fourth_moment_quadratic_in_step_size(
        self, eight_agent, eight_partition
    ):
        # across-run average error is O(mu): fit the constant at two step
        # sizes, check the third; fourth moments must shrink like mu^2
        models = quad_models([[1.0]] * 3 + [[1.5]] * 2 + [[1.25]] * 3)
        lp = an.receiving_limit_points([[1.0], [1.5]], eight_partition)
        r_agents = list(eight_partition.r_agents)
        mean_err, fourth = {}, {}
        for mu, iters in ((0.02, 10000), (0.01, 20000), (0.005, 40000)):
            steps = an.StepSizeProfile(mu, np.ones(8))
            runs = an.run_ensemble(eight_agent, models, steps, lp, iterations=iters,
                                   n_runs=24, master_seed=31, record_iterates=True)
            tails = np.stack(
                [t.iterates[t.iterates.shape[0] // 2 :].mean(axis=0) for t in runs]
            )
            mean_err[mu] = np.abs(tails.mean(axis=0) - lp)[r_agents].max()
            fourth[mu] = np.mean(
                [(t.sq_error[t.sq_error.shape[0] // 2 :] ** 2).mean(axis=0) for t in runs],
                axis=0,
            ).max()
        c = max(mean_err[0.02] / 0.02, mean_err[0.01] / 0.01)
        assert mean_err[0.005] <= 1.6 * c * 0.005
        assert fourth[0.01] / fourth[0.02] < 0.5
        assert fourth[0.005] / fourth[0.01] < 0.5


class TestEstimateMsd:
    def test_constant_trajectories(self):
        def traj(run):
            return engine.Trajectory(
                iterations=np.arange(10, 110, 10),
                sq_error=np.full((10, 3), 2.5),
                iterates=None,
            )
        est = estimate_msd([traj(0), traj(1)], burn_in_fraction=0.5)
        assert np.array_equal(est.per_agent, [2.5, 2.5, 2.5])
        assert np.array_equal(est.halfwidth, [0.0, 0.0, 0.0])

    def test_requires_two_runs(self):
        traj = engine.Trajectory(
            iterations=np.array([10]), sq_error=np.ones((1, 1)), iterates=None,
        )
        with pytest.raises(InsufficientData):
            estimate_msd([traj])

    def test_zero_records_are_insufficient(self):
        traj = engine.Trajectory(iterations=np.arange(0), sq_error=np.empty((0, 2)), iterates=None)
        with pytest.raises(InsufficientData, match="record"):
            estimate_msd([traj, traj])

    def test_streamed_trajectories_are_insufficient(self, two_agent_setup):
        a, models, steps = two_agent_setup
        runs = an.run_ensemble(a, models, steps, np.zeros((2, 1)), iterations=20, n_runs=2,
                               master_seed=1, records=lambda rows: None)
        with pytest.raises(InsufficientData, match="streamed"):
            estimate_msd(runs)

    def test_extreme_burn_in_uses_last_sample(self):
        values = np.arange(100, dtype=float).reshape(100, 1)
        def traj(run):
            return engine.Trajectory(
                iterations=np.arange(1, 101), sq_error=values.copy(), iterates=None,
            )
        est = estimate_msd([traj(0), traj(1)], burn_in_fraction=0.99)
        assert est.per_agent[0] == 99.0

    def test_single_agent_lms_reference(self):
        # theoretical steady-state MSD of one agent is mu * sigma_v2
        mu, sv2 = 0.01, 0.1
        a = an.validate([[1.0]])
        model = QuadraticCost(r_u=1.0, sigma_v2=sv2, w_o=[0.5])
        steps = an.StepSizeProfile(mu, [1.0])
        runs = an.run_ensemble(a, [model], steps, np.array([[0.5]]),
                               iterations=20000, n_runs=8, master_seed=2)
        est = estimate_msd(runs, burn_in_fraction=0.5)
        assert est.per_agent[0] == pytest.approx(mu * sv2, rel=0.2)


class TestTrajectoryCsv:
    def test_format(self, two_agent_setup, tmp_path):
        a, models, steps = two_agent_setup
        [traj] = an.run_ensemble(a, models, steps, np.zeros((2, 1)), iterations=20, n_runs=1,
                                 master_seed=1, stride=10)
        child._CsvWriter(tmp_path, n_runs=1, stride=10).write([traj.sq_error])
        lines = (tmp_path / "runs" / "run_0.csv").read_text().strip().splitlines()
        assert lines[0] == "iteration,agent_id,sq_error"
        assert len(lines) == 1 + 2 * 2  # two recorded iterations x two agents
        first = lines[1].split(",")
        assert first[0] == "10" and first[1] == "0"
        assert float(first[2]) == traj.sq_error[0, 0]
