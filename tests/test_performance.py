import numpy as np
import pytest

import atcnet as an
from atcnet import engine
from atcnet.costs import LogisticCost, QuadraticCost, TwoClassGaussianSampler
from atcnet.errors import (
    DimensionMismatch,
    InsufficientData,
    NonPositive,
    SingularAggregateHessian,
)


def quad(w_o, r_u=1.0, sv2=0.01):
    return QuadraticCost(r_u=r_u, sigma_v2=sv2, w_o=w_o)


class TestQWeights:
    def test_exact_products(self, eight_partition):
        steps = an.StepSizeProfile(0.0005, np.ones(8))
        qw = an.q_weights(eight_partition, steps)
        for block, group in zip(eight_partition.s_blocks(), qw.per_subnetwork):
            p = an.perron(block)
            assert np.array_equal(group, 0.0005 * p)
        assert all(group.min() > 0 for group in qw.per_subnetwork)


class TestParetoSolve:
    def test_shared_model_is_exact(self):
        models = [quad([1.0]) for _ in range(3)]
        w = an.pareto_solve(models, np.array([0.2, 0.5, 0.3]))
        assert w == pytest.approx([1.0], abs=1e-14)

    def test_single_agent_returns_own_minimizer(self):
        w = an.pareto_solve([quad([2.5, -1.0])], np.array([0.7]))
        assert w == pytest.approx([2.5, -1.0], abs=1e-14)

    def test_two_scalar_quadratics_hand_formula(self):
        q = np.array([0.3, 0.9])
        a, b = 1.0, 3.0
        w = an.pareto_solve([quad([a]), quad([b])], q)
        assert w[0] == pytest.approx((q[0] * a + q[1] * b) / q.sum(), abs=1e-14)

    def test_invariant_under_weight_scaling(self):
        models = [quad([1.0], r_u=2.0), quad([4.0], r_u=0.5)]
        q = np.array([0.4, 0.6])
        w1 = an.pareto_solve(models, q)
        w2 = an.pareto_solve(models, 50.0 * q)
        assert np.abs(w1 - w2).max() < 1e-8

    def test_degenerate_curvature_rejected(self):
        with pytest.raises(SingularAggregateHessian):
            an.pareto_solve([quad([1.0], r_u=0.0)], np.array([0.5]))

    def test_logistic_newton_zeroes_weighted_gradient(self):
        models = [
            LogisticCost(0.1, TwoClassGaussianSampler([1.5, 1.5], [-1.5, -1.5])),
            LogisticCost(0.1, TwoClassGaussianSampler([1.0, -0.5], [-1.0, 0.5], cov=0.5)),
        ]
        q = np.array([0.6, 0.4])
        w = an.pareto_solve(models, q)
        residual = sum(qk * m.true_gradient(w) for qk, m in zip(q, models))
        assert np.abs(residual).max() < 1e-10

    def test_mixed_kinds_converge(self):
        models = [
            quad([1.0, 0.0], r_u=[[1.0, 0.2], [0.2, 0.5]]),
            LogisticCost(0.2, TwoClassGaussianSampler([1.0, 1.0], [-1.0, -1.0])),
        ]
        q = np.array([0.5, 0.5])
        w = an.pareto_solve(models, q)
        residual = q[0] * models[0].true_gradient(w) + q[1] * models[1].true_gradient(w)
        assert np.abs(residual).max() < 1e-10


class TestMsdSubnetwork:
    def test_scalar_reduces_to_classic_value(self):
        # q = mu with a single agent: MSD = mu * sigma_v2
        mu, su2, sv2 = 0.002, 3.0, 0.25
        got = an.msd_subnetwork([mu], [2.0 * su2], [4.0 * su2 * sv2])
        assert got == pytest.approx(mu * sv2, abs=1e-18)

    def test_zero_noise_gives_zero(self):
        got = an.msd_subnetwork([0.1, 0.2], [2.0, 2.0], [0.0, 0.0])
        assert got == 0.0

    def test_homogeneous_group_divides_single_agent_msd(self):
        mu, h, g, n = 0.001, 2.0, 0.08, 5
        single = an.msd_subnetwork([mu], [h], [g])
        group = an.msd_subnetwork([mu / n] * n, [h] * n, [g] * n)
        assert group == pytest.approx(single / n, rel=1e-12)

    def test_invariant_under_agent_reordering(self):
        rng = np.random.default_rng(0)
        q = rng.random(4) * 1e-3
        hs = [np.diag(rng.random(2) + 0.5) for _ in range(4)]
        gs = [np.diag(rng.random(2)) for _ in range(4)]
        base = an.msd_subnetwork(q, hs, gs)
        perm = [2, 0, 3, 1]
        shuffled = an.msd_subnetwork(q[perm], [hs[i] for i in perm], [gs[i] for i in perm])
        assert shuffled == pytest.approx(base, rel=1e-12)

    def test_singular_hessian_sum_rejected(self):
        with pytest.raises(SingularAggregateHessian):
            an.msd_subnetwork([0.1], [np.zeros((2, 2))], [np.eye(2)])


class TestMsdReceiving:
    def test_single_sender(self):
        assert an.msd_receiving([1.0], [3.3e-6]) == pytest.approx(3.3e-6)

    def test_reference_weighting(self):
        msd1, msd2 = 2.2752e-6, 6.2373e-6
        got = an.msd_receiving([0.6450, 0.3550], [msd1, msd2])
        assert got == pytest.approx(0.6450**2 * msd1 + 0.3550**2 * msd2, rel=1e-12)

    def test_balanced_mix_beats_both_senders(self):
        m = 4e-6
        assert an.msd_receiving([0.5, 0.5], [m, m]) == pytest.approx(0.5 * m)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            an.msd_receiving([0.5, 0.5], [1e-6])


class TestToDb:
    def test_values(self):
        assert an.to_db(1e-6) == pytest.approx(-60.0, abs=1e-12)
        assert an.to_db(1.0) == 0.0
        assert an.to_db(2.2752e-6) == pytest.approx(-56.43, abs=0.01)

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositive):
            an.to_db(0.0)
        with pytest.raises(NonPositive):
            an.to_db(-1.0)


class TestTheoreticalMsd:
    def test_symmetric_profile_against_direct_formula(self, eight_partition):
        models = [quad([1.0])] * 3 + [quad([1.5])] * 2 + [quad([1.25])] * 3
        steps = an.StepSizeProfile(0.0005, np.ones(8))
        report = an.theoretical_msd(eight_partition, models, steps)
        # independent scalar evaluation: MSD_s = mu * sigma_v2 * sum(p^2) / sum(p)
        for sub, block in zip(report.subnetworks, eight_partition.s_blocks()):
            p = an.perron(block)
            expected = 0.0005 * 0.01 * (p**2).sum() / p.sum()
            assert sub.msd_linear == pytest.approx(expected, rel=1e-10)
        # receiving identity: MSD_R(k) = sum_s c_k(s)^2 MSD_s, recomputable
        msds = [sub.msd_linear for sub in report.subnetworks]
        for entry in report.r_agents:
            assert entry.msd_linear == pytest.approx(
                an.msd_receiving(entry.c, msds), rel=1e-12
            )

    def test_strongly_connected_single_group(self, fully_connected):
        partition = an.classify(fully_connected)
        models = [quad([1.0])] * 8
        steps = an.StepSizeProfile(0.001, np.ones(8))
        report = an.theoretical_msd(partition, models, steps)
        assert len(report.subnetworks) == 1
        assert report.r_agents == ()
        # uniform Perron vector: N-fold gain over one agent at the same step size
        single = an.msd_subnetwork([0.001], [2.0], [0.04])
        assert report.subnetworks[0].msd_linear == pytest.approx(single / 8, rel=1e-10)

    def test_zero_noise_reports_none_db(self, eight_partition):
        models = [quad([1.0], sv2=0.0)] * 3 + [quad([1.5], sv2=0.0)] * 2 + [
            quad([1.25], sv2=0.0)
        ] * 3
        steps = an.StepSizeProfile(0.0005, np.ones(8))
        report = an.theoretical_msd(eight_partition, models, steps)
        assert all(sub.msd_linear == 0.0 and sub.msd_db is None for sub in report.subnetworks)
        assert all(entry.msd_db is None for entry in report.r_agents)


class TestVectorHeterogeneousNetwork:
    def test_theory_matches_simulation_off_minimizer(self):
        # senders 0 and 1 disagree on the model, so the group settles at a
        # weighted mix and every noise covariance is evaluated away from the
        # agents' own minimizers (the dominant term for this geometry)
        a = an.validate(
            [
                [0.6, 0.5, 0.2],
                [0.4, 0.5, 0.3],
                [0.0, 0.0, 0.5],
            ]
        )
        part = an.classify(a)
        models = [
            quad([1.0, -1.0], r_u=[[1.0, 0.3], [0.3, 0.7]], sv2=0.02),
            quad([0.2, 0.5], r_u=[[0.8, 0.0], [0.0, 1.2]], sv2=0.05),
            quad([0.0, 0.0], sv2=0.01),
        ]
        steps = an.StepSizeProfile(0.002, np.ones(3))
        qw = an.q_weights(part, steps)
        star = an.pareto_solve(models[:2], qw.per_subnetwork[0])
        assert 0.2 < star[0] < 1.0  # a genuine mix of the two models
        report = an.theoretical_msd(part, models, steps, w_stars=[star])
        points = an.receiving_limit_points(
            an.influence_matrix(part).w, [star], part
        )
        runs = an.run_ensemble(
            a, models, steps, points.by_original_agent(),
            iterations=40000, n_runs=8, master_seed=17,
        )
        rows = an.compare(report, an.estimate_msd(runs, 0.5), threshold_db=1.0)
        assert not any(row.flagged for row in rows)


class TestCompare:
    def _report(self, eight_partition):
        models = [quad([1.0])] * 3 + [quad([1.5])] * 2 + [quad([1.25])] * 3
        steps = an.StepSizeProfile(0.0005, np.ones(8))
        return an.theoretical_msd(eight_partition, models, steps)

    def test_exact_match_gives_zero_deltas(self, eight_partition):
        report = self._report(eight_partition)
        linear = report.linear_by_agent()
        est = engine.MsdEstimate(
            per_agent=np.array([linear[k] for k in range(8)]),
            halfwidth=np.zeros(8),
            n_runs=4,
        )
        rows = an.compare(report, est)
        assert all(row.delta_db == 0.0 for row in rows)
        assert not any(row.flagged for row in rows)

    def test_flags_large_deviations(self, eight_partition):
        report = self._report(eight_partition)
        linear = report.linear_by_agent()
        values = np.array([linear[k] for k in range(8)])
        values[3] *= 10.0  # +10 dB
        est = engine.MsdEstimate(per_agent=values, halfwidth=np.zeros(8), n_runs=4)
        rows = an.compare(report, est)
        assert rows[3].flagged and rows[3].delta_db == pytest.approx(10.0)
        assert sum(row.flagged for row in rows) == 1

    def test_empty_estimates_rejected(self, eight_partition):
        report = self._report(eight_partition)
        est = engine.MsdEstimate(per_agent=np.array([]), halfwidth=np.array([]), n_runs=0)
        with pytest.raises(InsufficientData):
            an.compare(report, est)
