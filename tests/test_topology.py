import json
from fractions import Fraction

import numpy as np
import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

import atcnet as an
from atcnet import cli
from atcnet.errors import (
    ColumnSumViolation,
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

    def test_overflowing_column_sum_is_a_violation(self):
        with pytest.raises(ColumnSumViolation) as exc:
            an.validate([[1e308, 0.0], [1e308, 1.0]])
        assert (exc.value.column, exc.value.actual_sum) == (0, np.inf)

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

    @pytest.mark.parametrize("eps", [1e-9, 1e-11, 1e-12, 1e-13, 1e-15])
    def test_barely_listening_receiver_follows_sender(self, eps, tmp_path):
        # the receiver keeps all but eps of its own weight: it still has an
        # inbound edge, so it is a receiver and its limit is the sender's;
        # its outside weight reads eps itself, not 1 - (1 - eps)
        matrix = [[1.0, eps], [0.0, 1.0 - eps]]
        p = an.classify(an.validate(matrix))
        assert (p.s_agents, p.r_agents) == ((0,), (1,))
        assert p.w.tolist() == [[1.0]]
        path = tmp_path / "config.yaml"
        data = {"name": "eps", "matrix": {"inline": matrix}, "run": {"seed": 1}}
        path.write_text(yaml.safe_dump(data))
        assert cli.main(["analyze", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        payload = json.loads((tmp_path / "out" / "analysis.json").read_text())
        assert payload["w"]["values"] == [[1.0]]
        assert payload["sccs"][1]["outside_weight"] == pytest.approx([eps, eps], rel=1e-15, abs=0)

    def test_permutation_zeroes_lower_left(self, eight_agent, eight_partition):
        p = eight_partition
        permuted = eight_agent.weights[np.ix_(p.order, p.order)]
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
            weights = np.asarray(raw) / np.asarray(raw).sum(axis=0)
            permuted = weights[np.ix_(p.order, p.order)]
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


@st.composite
def sparse_graphs(draw):
    """Boolean edge matrix of up to 12 agents: paths and cycles, a few extra edges.

    A column left without an entry gets a self-loop, so each column can be
    normalized into a left-stochastic matrix.
    """
    n = draw(st.integers(1, 12))
    edges = np.zeros((n, n), dtype=bool)
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
        edges[path[:-1], path[1:]] = True
        if draw(st.booleans()):
            edges[path[-1], path[0]] = True
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for u, v in draw(st.lists(pairs, max_size=n)):
        edges[u, v] = True
    empty = np.flatnonzero(~edges.any(axis=0))
    edges[empty, empty] = True
    return edges


def reference_structure(edges):
    """SCCs (ascending tuples), edges between them and min-id Kahn order, from a closure."""
    n = len(edges)
    reach = edges | np.eye(n, dtype=bool)
    for k in range(n):  # Warshall
        reach |= np.outer(reach[:, k], reach[k])
    scc_of = [tuple(np.flatnonzero(reach[v] & reach[:, v]).tolist()) for v in range(n)]
    between = {(scc_of[u], scc_of[v]) for u, v in zip(*np.nonzero(edges)) if scc_of[u] != scc_of[v]}
    order = []
    for _ in set(scc_of):
        placed = set(order)
        ready = {c for c in set(scc_of) - placed if all(s in placed for s, t in between if t == c)}
        order.append(min(ready))
    return tuple(order), between


def primitive(block):
    """Wielandt's test: B^((s - 1)^2 + 1) > 0 for an s-agent block."""
    s = len(block)
    return bool(np.all(np.linalg.matrix_power(block.astype(float), (s - 1) ** 2 + 1) > 0))


@given(sparse_graphs())
def test_structure_of_sparse_graphs_matches_closure(edges):
    a = an.validate(edges / edges.sum(axis=0))
    order, between = reference_structure(edges)
    cond = an.condense(a)
    assert cond.sccs == order
    assert {(cond.sccs[i], cond.sccs[j]) for i, j in cond.edges} == between
    sources = [c for c in order if all(t != c for _, t in between)]
    if all(primitive(edges[np.ix_(c, c)]) for c in sources):
        p = an.classify(a)
        assert [p.scc_list[i] for i in p.s_type_ids] == sources
    else:
        with pytest.raises(NonPrimitiveSource):
            an.classify(a)


def test_long_chain_runs_against_agent_ids():
    # 299 -> 298 -> ... -> 0, with a self-loop on the source 299
    n = 300
    edges = np.zeros((n, n), dtype=bool)
    edges[np.arange(1, n), np.arange(n - 1)] = True
    edges[n - 1, n - 1] = True
    a = an.validate(edges / edges.sum(axis=0))
    assert an.condense(a).edges == {(i, i + 1) for i in range(n - 1)}
    p = an.classify(a)
    assert p.scc_list == tuple((v,) for v in reversed(range(n)))
    assert (p.s_agents, p.r_agents) == ((n - 1,), tuple(reversed(range(n - 1))))


@pytest.mark.parametrize("self_loop", [False, True])
def test_long_cycle_is_primitive_only_with_a_self_loop(self_loop):
    n = 300
    edges = np.zeros((n, n), dtype=bool)
    edges[np.arange(n), (np.arange(n) + 1) % n] = True
    edges[7, 7] = self_loop
    a = an.validate(edges / edges.sum(axis=0))
    assert an.condense(a).sccs == (tuple(range(n)),)
    if self_loop:
        assert an.classify(a).s_sizes == (n,)
    else:
        with pytest.raises(NonPrimitiveSource):
            an.classify(a)


def exact_null_vector(block):
    """Sum-one solution of (I - A) p = 0 for a matrix of Fractions, by exact elimination."""
    n = len(block)
    rows = [[int(i == j) - block[i][j] for j in range(n)] for i in range(n - 1)]
    rows.append([Fraction(1)] * n)
    rhs = [Fraction(0)] * (n - 1) + [Fraction(1)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rhs[c], rhs[pivot] = rhs[pivot], rhs[c]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
                rhs[r] -= f * rhs[c]
    return [rhs[i] / rows[i][i] for i in range(n)]


class TestPerron:
    def test_symmetric_two_agent_block(self):
        p = an.perron(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert p == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_second_block_by_hand(self):
        # (I - A) p = 0 with unit sum gives p = (1/3, 2/3)
        p = an.perron(np.array([[0.4, 0.3], [0.6, 0.7]]))
        assert p == pytest.approx([1 / 3, 2 / 3], abs=1e-11)

    def test_first_block_against_nullspace_solve(self):
        block = EIGHT_AGENT[:3, :3]
        system = np.vstack([block - np.eye(3), np.ones(3)])
        rhs = np.array([0.0, 0.0, 0.0, 1.0])
        oracle, *_ = np.linalg.lstsq(system, rhs, rcond=None)
        p = an.perron(block)
        assert p == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("gap", [3e-4, 3e-5, 3e-8])
    def test_slowly_mixing_two_agent_block(self, gap):
        # second eigenvalue 1 - gap; the Perron vector is (b, a) / (a + b)
        a, b = gap / 3, 2 * gap / 3
        p = an.perron(np.array([[1.0 - a, b], [a, 1.0 - b]]))
        expected = np.array([b / (a + b), a / (a + b)])
        assert np.all(np.abs(p - expected) <= 4 * np.spacing(expected))

    @pytest.mark.parametrize("delta", [1e-4, 1e-8, 1e-12])
    def test_weakly_coupled_clusters(self, delta):
        # clusters {0, 1} and {2, 3} coupled only through weights delta
        half, d = Fraction(1, 2), Fraction(delta)
        exact = [
            [half, half - d, 0, 0],
            [half - d, half, d, 0],
            [d, 0, half, half - d],
            [0, d, half - d, half + d],
        ]
        block = np.array([[float(x) for x in row] for row in exact])
        p = an.perron(block)
        expected = np.array([float(x) for x in exact_null_vector(exact)])
        assert np.abs(p / expected - 1.0).max() <= 1e-6
        assert np.abs(block @ p - p).max() <= 1e-15

    def test_invariants_on_random_networks(self):
        rng = np.random.default_rng(11)
        for trial in range(8):
            raw, _, _ = random_weak_matrix(rng)
            part = an.classify(an.validate(raw))
            for block in part.s_blocks():
                p = an.perron(block)
                assert np.abs(block @ p - p).max() < 1e-10
                assert p.min() > 0
                assert p.sum() == pytest.approx(1.0, abs=1e-12)


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
