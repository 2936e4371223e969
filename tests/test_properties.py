"""Invariants of the structure, theory and simulation layers over generated weak networks.

Each example draws sending and receiving sub-network sizes, the seed of the
weights that ``random_weak_matrix`` fills in, per-agent models and step
sizes, and a relabelling of the agents.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import atcnet as an
from atcnet import engine, workflows
from atcnet.costs import LogisticCost, QuadraticCost, TwoClassGaussianSampler, ZeroedObservations

from conftest import estimate_msd, random_weak_matrix

ROUND_OFF = 1e-13

block_sizes = st.lists(st.integers(1, 4), min_size=1, max_size=3)


@st.composite
def networks(draw):
    """(raw matrix, per-agent w_o, per-agent tau, relabelling) of one network."""
    s_sizes, r_sizes = draw(block_sizes), draw(block_sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw, _, _ = random_weak_matrix(rng, s_sizes, r_sizes)
    n = raw.shape[0]
    perm = np.array(draw(st.permutations(range(n))))
    return raw, rng.normal(size=n), rng.uniform(0.1, 1.0, n), perm


def structure(raw):
    a = an.validate(raw)
    partition = an.classify(a)
    return a, partition


@given(networks())
def test_w_columns_sum_to_one(net):
    _, partition = structure(net[0])
    assert np.abs(partition.w.sum(axis=0) - 1.0).max() <= ROUND_OFF


@given(networks())
def test_limiting_power_is_a_fixed_point_of_a(net):
    a, partition = structure(net[0])
    a_inf = an.limiting_power(partition)
    assert np.abs(a.weights @ a_inf - a_inf).max() <= ROUND_OFF


def outputs(raw, w_os, tau, labels):
    """A^∞, limit points, influence vectors and MSDs, keyed by the agents' ``labels``."""
    _, partition = structure(raw)
    models = [QuadraticCost(r_u=1.0, sigma_v2=0.01, w_o=[w]) for w in w_os]
    steps = an.StepSizeProfile(0.01, tau)
    stars = workflows.pareto_points(partition, models, steps)
    points = an.receiving_limit_points(stars, partition)
    a_inf = np.empty((labels.size, labels.size))
    a_inf[np.ix_(labels, labels)] = an.limiting_power(partition)
    limit_points = np.empty_like(points)
    limit_points[labels] = points
    groups = [frozenset(labels[partition.order[sl]].tolist()) for sl in partition.s_slices]
    influence = {
        int(labels[agent]): dict(zip(groups, an.influence_vector(partition, agent)))
        for agent in partition.r_agents
    }
    report = an.theoretical_msd(partition, models, steps, w_stars=stars)
    msd = {int(labels[agent]): value for agent, value in report.linear_by_agent().items()}
    return a_inf, limit_points, influence, msd


@given(networks())
def test_relabelling_only_permutes_outputs(net):
    raw, w_os, tau, perm = net
    base = outputs(raw, w_os, tau, np.arange(perm.size))
    moved = outputs(raw[np.ix_(perm, perm)], w_os[perm], tau[perm], perm)
    assert np.abs(moved[0] - base[0]).max() <= ROUND_OFF
    assert np.abs(moved[1] - base[1]).max() <= ROUND_OFF
    assert moved[2].keys() == base[2].keys()
    for agent, entries in base[2].items():
        assert moved[2][agent].keys() == entries.keys()
        for group, value in entries.items():
            assert abs(moved[2][agent][group] - value) <= ROUND_OFF
    assert moved[3].keys() == base[3].keys()
    for agent, value in base[3].items():
        assert abs(moved[3][agent] - value) <= ROUND_OFF * value


def outside_brackets(raw, labels):
    """Each receiving SCC's outside-weight bracket, keyed by its agents' ``labels``."""
    _, partition = structure(raw)
    return {
        frozenset(labels[list(partition.scc_list[i])].tolist()): pair
        for i, pair in zip(partition.r_type_ids, partition.outside_weight)
    }


@given(networks())
def test_outside_weight_brackets_the_receiving_spectral_gap(net):
    raw, _, _, perm = net
    base = outside_brackets(raw, np.arange(perm.size))
    weights = an.validate(raw).weights
    for members, (low, high) in base.items():
        ids = sorted(members)
        gap = 1.0 - an.spectral_radius(weights[np.ix_(ids, ids)])
        assert low - ROUND_OFF <= gap <= high + ROUND_OFF
    moved = outside_brackets(raw[np.ix_(perm, perm)], perm)
    assert moved.keys() == base.keys()
    for members, pair in base.items():
        assert np.abs(np.subtract(moved[members], pair)).max() <= ROUND_OFF


@given(networks())
def test_powers_of_a_converge_to_the_limiting_power(net):
    a, partition = structure(net[0])
    a_inf = an.limiting_power(partition)
    power = a.weights
    for _ in range(16):  # A^2, A^4, A^8, ... until squaring no longer changes it
        square = power @ power
        change = np.abs(square - power).max()
        power = square
        if change <= ROUND_OFF:
            break
    assert change <= ROUND_OFF
    assert np.abs(power - a_inf).max() <= ROUND_OFF


@st.composite
def run_controls(draw):
    """(stride, iterations, burn-in fraction, run count); iterations are a multiple
    of neither the stride nor the 1024-round sample block."""
    stride = draw(st.integers(2, 9))
    iterations = draw(
        st.integers(1025, 1400).filter(lambda t: t % stride and t % engine._BLOCK)
    )
    return stride, iterations, draw(st.floats(0.0, 0.9)), draw(st.integers(2, 3))


@settings(max_examples=15)
@given(networks(), run_controls())
def test_streamed_runs_match_kept_runs(net, controls):
    raw, w_os, tau, _ = net
    stride, iterations, burn_in, n_runs = controls
    a, partition = structure(raw)
    models = [QuadraticCost(r_u=1.0, sigma_v2=0.01, w_o=[w]) for w in w_os]
    steps = an.StepSizeProfile(0.01, tau)
    lp = an.receiving_limit_points(workflows.pareto_points(partition, models, steps), partition)

    def ensemble(runs, records=None):
        return an.run_ensemble(a, models, steps, lp, iterations, runs,
                               master_seed=9, stride=stride, burn_in_fraction=burn_in,
                               records=records)

    blocks = []
    streamed = ensemble(n_runs, lambda rows: blocks.append(rows.copy()))
    kept = ensemble(n_runs)
    history = np.stack([t.sq_error for t in kept])
    assert np.array_equal(np.concatenate(blocks, axis=1), history)
    estimate = engine.msd_from_tails([t.mean_sq_error_tail for t in streamed])
    reference = estimate_msd(kept, burn_in)
    assert np.array_equal(estimate.per_agent, reference.per_agent)
    assert np.array_equal(estimate.halfwidth, reference.halfwidth)
    # run r does not depend on the runs after it: r + 1 runs give it bit for bit
    for r in range(n_runs - 1):
        fewer = ensemble(r + 1)[r]
        assert np.array_equal(fewer.sq_error, kept[r].sq_error)
        assert np.array_equal(fewer.mean_iterate_tail, kept[r].mean_iterate_tail)


@st.composite
def mixed_networks(draw):
    """(raw matrix, per-agent models, tau) with quadratic and logistic agents on 2-d
    iterates, each agent's kind drawn on its own, so a kind's agents need not be contiguous."""
    raw, w_os, tau, _ = draw(networks())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    models = []
    for k, w in enumerate(w_os):
        if draw(st.booleans()):
            models.append(QuadraticCost(r_u=rng.uniform(0.5, 2.0, 2), sigma_v2=rng.uniform(0.001, 0.1), w_o=[w, -w]))
        else:
            mean = rng.normal(size=2)
            sampler = TwoClassGaussianSampler(mean, -mean)
            models.append(LogisticCost(rho=rng.uniform(0.05, 0.5), sampler=sampler, eval_samples=1000, eval_seed=k))
    return raw, models, tau


@settings(max_examples=15)
@given(mixed_networks(), st.integers(2, 3))
def test_receivers_data_never_reach_the_senders(net, n_runs):
    """Zeroing every receiver's data leaves every sending trajectory bit for bit."""
    raw, models, tau = net
    a, partition = structure(raw)
    steps = an.StepSizeProfile(0.01, tau)
    lp = an.receiving_limit_points(workflows.pareto_points(partition, models, steps), partition)
    zeroed = [ZeroedObservations(m) if k in partition.r_agents else m for k, m in enumerate(models)]

    def ensemble(agent_models):
        return an.run_ensemble(a, agent_models, steps, lp, iterations=300, n_runs=n_runs,
                               master_seed=3, stride=7, record_iterates=True)

    s, r = list(partition.s_agents), list(partition.r_agents)
    for base, blank in zip(ensemble(models), ensemble(zeroed)):
        assert np.array_equal(base.iterates[:, s], blank.iterates[:, s])
        assert np.array_equal(base.sq_error[:, s], blank.sq_error[:, s])
        assert not np.array_equal(base.iterates[:, r], blank.iterates[:, r])


@settings(max_examples=15)
@given(mixed_networks())
def test_receivers_msd_is_a_convex_mix_of_the_senders(net):
    """Each receiver's influence vector c is a probability vector, and its MSD is
    sum_s c_s^2 MSD_s, so no receiver is worse off than the worst sender."""
    raw, models, tau = net
    _, partition = structure(raw)
    report = an.theoretical_msd(partition, models, an.StepSizeProfile(0.01, tau))
    senders = np.array([sub.msd_linear for sub in report.subnetworks])
    for entry in report.r_agents:
        assert entry.c.min() >= 0.0
        assert abs(entry.c.sum() - 1.0) <= ROUND_OFF
        assert abs(entry.msd_linear - entry.c**2 @ senders) <= ROUND_OFF * entry.msd_linear
        assert entry.msd_linear <= senders.max() * (1.0 + ROUND_OFF)
