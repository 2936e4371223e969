import numpy as np
import pytest

import atcnet as an
from atcnet.errors import (
    ColumnSumViolation,
    IsolatedRAgent,
    NegativeWeight,
    NonFiniteWeight,
    NonPrimitiveSource,
    NonSquare,
)

from conftest import EIGHT_AGENT, random_weak_matrix


class TestValidate:
    def test_eight_agent_matrix_is_valid(self):
        a = an.validate(EIGHT_AGENT)
        assert a.n == 8
        assert np.allclose(a.weights.sum(axis=0), 1.0, atol=1e-12)

    def test_identity_is_left_stochastic(self):
        a = an.validate(np.eye(3))
        assert a.n == 3

    def test_column_sum_violation(self):
        with pytest.raises(ColumnSumViolation) as exc:
            an.validate([[0.5, 0.6], [0.5, 0.6]])
        assert exc.value.column == 1
        assert exc.value.actual_sum == pytest.approx(1.2)

    def test_negative_weight(self):
        with pytest.raises(NegativeWeight):
            an.validate([[1.1, 0.0], [-0.1, 1.0]])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_named(self, value):
        raw = EIGHT_AGENT.copy()
        raw[6, 2] = value
        with pytest.raises(NonFiniteWeight) as exc:
            an.validate(raw)
        assert (exc.value.source, exc.value.receiver) == (6, 2)

    def test_non_square(self):
        with pytest.raises(NonSquare):
            an.validate([[0.5, 0.5]])

    def test_rounded_columns_are_renormalized(self):
        # four-decimal entries that miss 1 by a hair must validate exactly
        a = an.validate([[0.3333, 0.5], [0.6667, 0.5]])
        assert np.abs(a.weights.sum(axis=0) - 1.0).max() < 1e-15


class TestCondense:
    def test_eight_agent_sccs(self, eight_agent):
        cond = an.condense(eight_agent)
        assert set(cond.sccs) == {(0, 1, 2), (3, 4), (5, 6, 7)}

    def test_fully_connected_single_scc(self, fully_connected):
        cond = an.condense(fully_connected)
        assert cond.sccs == (tuple(range(8)),)
        assert cond.edges == frozenset()

    def test_identity_two_isolated_agents(self):
        cond = an.condense(an.validate(np.eye(2)))
        assert cond.sccs == ((0,), (1,))
        assert cond.edges == frozenset()

    def test_condensation_is_acyclic(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            raw, _, _ = random_weak_matrix(rng)
            cond = an.condense(an.validate(raw))
            # edges must all point from earlier to later in the stored order
            assert all(u < v for u, v in cond.edges)


class TestClassify:
    def test_eight_agent_partition(self, eight_partition):
        p = eight_partition
        assert [set(p.scc_list[i]) for i in p.s_type_ids] == [{0, 1, 2}, {3, 4}]
        assert [set(p.scc_list[i]) for i in p.r_type_ids] == [{5, 6, 7}]
        assert p.s_sizes == (3, 2)
        assert (p.n_gs, p.n_gr) == (5, 3)
        expected_t_rr = [[0.2, 0.3, 0.2], [0.1, 0.5, 0.3], [0.1, 0.2, 0.1]]
        assert np.allclose(p.t_rr, expected_t_rr, atol=1e-12)

    def test_two_agent_partition(self, two_agent):
        p = an.classify(two_agent)
        assert p.s_agents == (0,)
        assert p.r_agents == (1,)
        assert p.t_sr[0, 0] == pytest.approx(0.03)
        assert p.t_rr[0, 0] == pytest.approx(0.97)

    def test_fully_connected_has_empty_receiving_group(self, fully_connected):
        p = an.classify(fully_connected)
        assert p.s_sizes == (8,)
        assert p.n_gr == 0
        assert p.t_rr.shape == (0, 0)
        assert p.rho_t_rr == 0.0

    def test_rho_t_rr_is_largest_receiving_block_radius(self):
        rng = np.random.default_rng(4)
        raw, _, _ = random_weak_matrix(rng, s_sizes=(2,), r_sizes=(3, 2, 4))
        p = an.classify(an.validate(raw))
        assert len(p.r_sizes) == 3
        exact = np.abs(np.linalg.eigvals(p.t_rr)).max()
        assert p.rho_t_rr == pytest.approx(exact, rel=1e-9)

    def test_periodic_source_rejected(self):
        with pytest.raises(NonPrimitiveSource):
            an.classify(an.validate([[0.0, 1.0], [1.0, 0.0]]))

    def test_effectively_isolated_receiver_rejected(self):
        # receiver keeps all but 1e-13 of its own weight: spectral radius
        # of its block collides with 1 and the split is meaningless
        with pytest.raises(IsolatedRAgent):
            an.classify(an.validate([[1.0, 1e-13], [0.0, 1.0 - 1e-13]]))

    def test_permutation_zeroes_lower_left(self, eight_agent, eight_partition):
        p = eight_partition
        permuted = p.permute(eight_agent.weights)
        assert np.all(permuted[p.n_gs :, : p.n_gs] == 0.0)

    def test_diagonal_blocks_left_stochastic_and_primitive(self, eight_partition):
        for block in eight_partition.s_blocks():
            assert np.allclose(block.sum(axis=0), 1.0, atol=1e-12)
            n = block.shape[0]
            power = np.linalg.matrix_power((block > 0).astype(float), (n - 1) ** 2 + 1)
            assert np.all(power > 0)  # Wielandt positivity: primitive

    def test_receiving_columns_inherit_unit_sums(self, eight_partition):
        p = eight_partition
        stacked = np.vstack([p.t_sr, p.t_rr])
        assert np.allclose(stacked.sum(axis=0), 1.0, atol=1e-12)

    def test_random_networks_round_trip(self):
        rng = np.random.default_rng(7)
        for trial in range(12):
            s_sizes = tuple(rng.integers(1, 4, size=rng.integers(1, 4)))
            r_sizes = tuple(rng.integers(1, 4, size=rng.integers(1, 3)))
            raw, s_groups, r_groups = random_weak_matrix(rng, s_sizes, r_sizes)
            p = an.classify(an.validate(raw))
            got_s = {frozenset(p.scc_list[i]) for i in p.s_type_ids}
            got_r = {frozenset(p.scc_list[i]) for i in p.r_type_ids}
            assert got_s == s_groups
            assert got_r == r_groups
            permuted = p.permute(np.asarray(raw) / np.asarray(raw).sum(axis=0))
            assert np.abs(permuted[p.n_gs :, : p.n_gs]).max() == 0.0
            assert an.spectral_radius(p.t_rr) < 1.0
            assert p.n_gs + p.n_gr == sum(s_sizes) + sum(r_sizes)

    def test_multi_layer_receiving_chain_is_upper_triangular(self):
        # receiving groups feeding each other: internal block stays upper triangular
        rng = np.random.default_rng(3)
        raw, _, _ = random_weak_matrix(rng, s_sizes=(2,), r_sizes=(2, 2, 2), shuffle=True)
        p = an.classify(an.validate(raw))
        sizes = np.cumsum([0] + list(p.r_sizes))
        for i in range(len(p.r_sizes)):
            for j in range(i):
                block = p.t_rr[sizes[i] : sizes[i + 1], sizes[j] : sizes[j + 1]]
                assert np.all(block == 0.0)


class TestPerron:
    def test_symmetric_two_agent_block(self):
        p = an.perron(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert p.entries == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_second_block_by_hand(self):
        # (I - A) p = 0 with unit sum gives p = (1/3, 2/3)
        p = an.perron(np.array([[0.4, 0.3], [0.6, 0.7]]))
        assert p.entries == pytest.approx([1 / 3, 2 / 3], abs=1e-11)

    def test_first_block_against_nullspace_solve(self):
        block = EIGHT_AGENT[:3, :3]
        system = np.vstack([block - np.eye(3), np.ones(3)])
        rhs = np.array([0.0, 0.0, 0.0, 1.0])
        oracle, *_ = np.linalg.lstsq(system, rhs, rcond=None)
        p = an.perron(block)
        assert p.entries == pytest.approx(oracle, abs=1e-10)

    def test_no_convergence_reported(self):
        from atcnet.errors import NoConvergence

        with pytest.raises(NoConvergence):
            an.perron(np.array([[0.9, 0.2], [0.1, 0.8]]), tol=1e-12, max_iter=1)

    def test_invariants_on_random_networks(self):
        rng = np.random.default_rng(11)
        for trial in range(8):
            raw, _, _ = random_weak_matrix(rng)
            part = an.classify(an.validate(raw))
            for block in part.s_blocks():
                p = an.perron(block)
                assert np.abs(block @ p.entries - p.entries).max() < 1e-10
                assert p.entries.min() > 0
                assert p.entries.sum() == pytest.approx(1.0, abs=1e-12)


class TestSpectralRadius:
    def test_receiving_block_is_stable(self, eight_partition):
        rho = an.spectral_radius(eight_partition.t_rr)
        assert 0.0 < rho < 1.0

    def test_scalar(self):
        assert an.spectral_radius(np.array([[0.97]])) == pytest.approx(0.97, abs=1e-12)

    def test_zero_matrix(self):
        assert an.spectral_radius(np.zeros((3, 3))) == 0.0

    def test_empty_matrix(self):
        assert an.spectral_radius(np.zeros((0, 0))) == 0.0

    def test_matches_eigvals_on_random_matrices(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            t = rng.normal(size=(5, 5))
            expected = np.abs(np.linalg.eigvals(t)).max()
            assert an.spectral_radius(t) == pytest.approx(expected, rel=1e-8)
