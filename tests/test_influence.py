import dataclasses

import numpy as np
import pytest

import atcnet as an
from atcnet.errors import DimensionMismatch, NotAnRAgent

from conftest import random_weak_matrix

# Frozen reference: influence matrix of the eight-agent network, 4 decimals.
W_REFERENCE = np.array(
    [
        [0.0, 0.0, 0.0],
        [0.4046, 0.5267, 0.7099],
        [0.1489, 0.1183, 0.0725],
        [0.4466, 0.3550, 0.2176],
        [0.0, 0.0, 0.0],
    ]
)


@pytest.fixture
def eight_influence(eight_partition):
    return an.influence_matrix(eight_partition)


class TestInfluenceMatrix:
    def test_two_agent_collapses_to_one(self, two_agent):
        p = an.classify(two_agent)
        w = an.influence_matrix(p).w
        assert abs(w[0, 0] - 1.0) < 1e-12

    def test_eight_agent_reference_values(self, eight_influence):
        assert np.abs(eight_influence.w - W_REFERENCE).max() < 5e-4

    def test_matches_direct_inverse(self, eight_partition, eight_influence):
        n_r = eight_partition.t_rr.shape[0]
        oracle = eight_partition.t_sr @ np.linalg.inv(np.eye(n_r) - eight_partition.t_rr)
        assert np.allclose(eight_influence.w, oracle, atol=1e-13)

    def test_zero_internal_block_returns_t_sr(self):
        # two senders feeding two receivers that keep no internal weight
        a = an.validate(
            [
                [1.0, 0.0, 0.4, 0.9],
                [0.0, 1.0, 0.6, 0.1],
                [0.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
            ]
        )
        p = an.classify(a)
        assert np.all(p.t_rr == 0.0)
        w = an.influence_matrix(p).w
        assert np.array_equal(w, p.t_sr)

    def test_columns_sum_to_one(self, eight_influence):
        assert np.abs(eight_influence.w.sum(axis=0) - 1.0).max() < 1e-10

    def test_entries_nonnegative(self, eight_influence):
        assert eight_influence.w.min() >= 0.0

    def test_singular_receiving_block_reported(self, eight_partition):
        # a receiving block with spectral radius 1 cannot be solved
        import dataclasses

        from atcnet.errors import SingularSystem
        from atcnet.topology import _frozen

        broken = dataclasses.replace(
            eight_partition,
            t_rr=_frozen(np.eye(3)),
            t_sr=_frozen(np.zeros((5, 3))),
        )
        with pytest.raises(SingularSystem):
            an.influence_matrix(broken)

    def test_theta_blocks(self, eight_partition, eight_influence):
        theta = eight_influence.theta
        p1 = an.perron(eight_partition.s_blocks()[0])
        assert np.allclose(theta[:3, :3], np.outer(p1, np.ones(3)), atol=1e-12)
        assert np.all(theta[:3, 3:] == 0.0)


class TestNeumann:
    def test_single_term_is_transfer_block(self, two_agent):
        p = an.classify(two_agent)
        assert an.neumann_w(p, 1)[0, 0] == pytest.approx(0.03, abs=1e-15)

    def test_series_limit_two_agent(self, two_agent):
        p = an.classify(two_agent)
        # geometric series 0.03 * sum 0.97^j
        assert an.neumann_w(p, 2000)[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_partial_sum_matches_solve(self, eight_partition):
        w = an.influence_matrix(eight_partition).w
        assert np.abs(an.neumann_w(eight_partition, 200) - w).max() < 1e-8

    def test_geometric_decay_rate(self, eight_partition):
        w = an.influence_matrix(eight_partition).w
        rho = an.spectral_radius(eight_partition.t_rr)
        errors = [np.abs(an.neumann_w(eight_partition, n) - w).max() for n in range(30, 45)]
        ratios = np.array(errors[1:]) / np.array(errors[:-1])
        assert ratios.max() <= rho + 0.05


class TestLimitingPower:
    def test_fully_connected_uniform(self, fully_connected):
        p = an.classify(fully_connected)
        lim = an.limiting_power(p, an.influence_matrix(p))
        assert np.allclose(lim.original, 0.125, atol=1e-12)

    def test_eight_agent_against_matrix_power(self, eight_agent, eight_partition):
        lim = an.limiting_power(eight_partition, an.influence_matrix(eight_partition))
        oracle = np.linalg.matrix_power(eight_agent.weights, 2000)
        assert np.abs(lim.original - oracle).max() < 1e-8

    def test_two_agent(self, two_agent):
        p = an.classify(two_agent)
        lim = an.limiting_power(p, an.influence_matrix(p))
        assert np.allclose(lim.original, [[1.0, 1.0], [0.0, 0.0]], atol=1e-12)

    def test_idempotent_under_combination(self, eight_agent, eight_partition):
        lim = an.limiting_power(eight_partition, an.influence_matrix(eight_partition))
        assert np.abs(lim.original @ eight_agent.weights - lim.original).max() < 1e-10

    def test_unpermutes_to_original_order(self):
        rng = np.random.default_rng(5)
        raw, _, _ = random_weak_matrix(rng)
        a = an.validate(raw)
        p = an.classify(a)
        lim = an.limiting_power(p, an.influence_matrix(p))
        assert np.allclose(lim.original[np.ix_(p.order, p.order)], lim.canonical, atol=1e-15)
        oracle = np.linalg.matrix_power(a.weights, 4000)
        assert np.abs(lim.original - oracle).max() < 1e-8


class TestReceivingLimitPoints:
    def test_eight_agent_reference_values(self, eight_partition):
        w = an.influence_matrix(eight_partition).w
        points = an.receiving_limit_points(w, [[1.0], [1.5]], eight_partition)
        assert points.w_bullet[:, 0] == pytest.approx([1.2233, 1.1775, 1.1088], abs=1e-3)

    def test_equal_senders_pin_every_receiver(self, eight_partition):
        w = an.influence_matrix(eight_partition).w
        v = np.array([0.7, -2.0])
        points = an.receiving_limit_points(w, [v, v], eight_partition)
        assert np.allclose(points.w_bullet, v, atol=1e-10)

    def test_two_agent_receiver_follows_sender(self, two_agent):
        p = an.classify(two_agent)
        w = an.influence_matrix(p).w
        h = np.array([0.88, 0.89])
        points = an.receiving_limit_points(w, [h], p)
        assert np.allclose(points.w_bullet[0], h, atol=1e-12)

    def test_linearity_in_sender_solutions(self, eight_partition):
        w = an.influence_matrix(eight_partition).w
        base = an.receiving_limit_points(w, [[1.0], [1.5]], eight_partition)
        scaled = an.receiving_limit_points(w, [[3.0], [4.5]], eight_partition)
        assert np.allclose(scaled.w_bullet, 3.0 * base.w_bullet, atol=1e-12)

    def test_wrong_subnetwork_count(self, eight_partition):
        w = an.influence_matrix(eight_partition).w
        with pytest.raises(DimensionMismatch):
            an.receiving_limit_points(w, [[1.0]], eight_partition)

    def test_mismatched_dimensions(self, eight_partition):
        w = an.influence_matrix(eight_partition).w
        with pytest.raises(DimensionMismatch):
            an.receiving_limit_points(w, [[1.0], [1.0, 2.0]], eight_partition)


class TestFixedPointResidual:
    def test_rounded_reference_points_stay_small(self, eight_agent, eight_partition):
        # limit points rounded to 4 decimals keep the residual below 1e-3
        w = an.influence_matrix(eight_partition).w
        exact = an.receiving_limit_points(w, [[1.0], [1.5]], eight_partition)
        rounded_bullet = np.round(exact.w_bullet, 4)
        rounded = dataclasses.replace(
            exact,
            w_bullet=rounded_bullet,
            w_infinity=np.vstack([exact.w_star_stacked, rounded_bullet]),
        )
        assert an.fixed_point_residual(eight_agent, rounded) < 1e-3

    def test_exact_points_give_tiny_residual(self, eight_agent, eight_partition):
        w = an.influence_matrix(eight_partition).w
        points = an.receiving_limit_points(w, [[1.0], [1.5]], eight_partition)
        assert an.fixed_point_residual(eight_agent, points) < 1e-9

    def test_zero_solutions_give_zero_residual(self, eight_agent, eight_partition):
        w = an.influence_matrix(eight_partition).w
        points = an.receiving_limit_points(w, [[0.0], [0.0]], eight_partition)
        assert an.fixed_point_residual(eight_agent, points) == 0.0


class TestInfluenceVector:
    def test_agent6_reference(self, eight_partition):
        w = an.influence_matrix(eight_partition).w
        c = an.influence_vector(w, eight_partition, 6)
        assert c.entries == pytest.approx([0.6450, 0.3550], abs=5e-4)

    def test_agent5_column_sums(self, eight_partition):
        w = an.influence_matrix(eight_partition).w
        c = an.influence_vector(w, eight_partition, 5)
        assert c.entries == pytest.approx([0.5535, 0.4466], abs=5e-4)

    def test_single_sender_gives_unit_vector(self, two_agent):
        p = an.classify(two_agent)
        w = an.influence_matrix(p).w
        c = an.influence_vector(w, p, 1)
        assert c.entries == pytest.approx([1.0], abs=1e-12)

    def test_sender_id_rejected(self, eight_partition):
        w = an.influence_matrix(eight_partition).w
        with pytest.raises(NotAnRAgent):
            an.influence_vector(w, eight_partition, 0)

    def test_entries_sum_to_one_on_random_networks(self):
        rng = np.random.default_rng(13)
        for trial in range(6):
            raw, _, _ = random_weak_matrix(rng)
            p = an.classify(an.validate(raw))
            w = an.influence_matrix(p).w
            for agent in p.r_agents:
                c = an.influence_vector(w, p, agent)
                assert c.entries.sum() == pytest.approx(1.0, abs=1e-10)
                assert c.entries.min() >= 0.0
