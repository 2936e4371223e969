"""Frozen outputs of the diffusion kernel and the contracts of its batching.

The digests and values below were computed with the per-agent kernel that
the batched one replaced. Runs with M=1 must reproduce them bitwise; runs
with M>1 within 1e-12 relative, because the batched gradient may add up the
inner products of a sample and an iterate in another order. The squared-error
digest was taken again when W came to be solved with a rebuilt diagonal: the
preset's limit points moved in the last bit, and so did the errors against them.
"""
import hashlib

import numpy as np
import pytest

import atcnet as an
from atcnet import engine, workflows
from atcnet.config import load_preset
from atcnet.costs import LogisticCost, QuadraticCost, TwoClassGaussianSampler, ZeroedObservations

PRESET_SQ_ERROR_SHA256 = "e67162190fd86a224b333240b9ecb71a5b6e70169cac780b4fb6c18a6b92d0dd"
PRESET_ITERATES_SHA256 = "e367d0e8d259aa0532bac180fa1c28ea47ae47a6038f82714e8a2e98c49ea39a"

# Per-agent sums of the recorded squared errors over every record and run,
# and the iterates of each run at the last record, of the mixed-network run
# in ``test_mixed_kinds_within_round_off``.
MIXED_SQ_ERROR_SUMS = np.array(
    [76.78709440324027, 76.8931015323117, 77.28782184356031, 77.096470659574, 76.83715133973062]
)
MIXED_FINAL_ITERATES = np.array(
    [
        [
            [0.7228022371515861, -0.04055694768403382],
            [0.7220665814717203, -0.040363714019918714],
            [0.724394316248067, -0.03964843985464656],
            [0.7235026655560096, -0.04008134154626464],
            [0.7215199247915253, -0.04100363857430009],
        ],
        [
            [0.7571141890974353, -0.027559952150021633],
            [0.7561310317406253, -0.02898372052647204],
            [0.7560191410610426, -0.03058055308808665],
            [0.7565128748103375, -0.029533088955092626],
            [0.7560807305248521, -0.02845963998984066],
        ],
    ]
)


def digest(trajectories, field):
    h = hashlib.sha256()
    for traj in trajectories:
        h.update(getattr(traj, field).tobytes())
    return h.hexdigest()


def preset_network():
    """The three-subnetwork-regression preset (M=1) and its limit points."""
    config = load_preset("three-subnetwork-regression")
    partition = an.classify(config.matrix)
    stars = workflows.pareto_points(partition, config.models, config.step_sizes)
    w = an.influence_matrix(partition).w
    points = an.receiving_limit_points(w, stars, partition)
    return config.matrix, list(config.models), config.step_sizes, points.by_original_agent()


def mixed_network():
    """Five agents with M=2 whose model kinds interleave along the agent axis."""
    weights = np.random.default_rng(3).random((5, 5)) + 0.1
    a = an.validate(weights / weights.sum(axis=0))
    models = [
        QuadraticCost(r_u=[[1.0, 0.2], [0.2, 0.8]], sigma_v2=0.05, w_o=[1.0, -0.5]),
        LogisticCost(rho=0.1, sampler=TwoClassGaussianSampler([1.0, 0.5], [-1.0, -0.5])),
        ZeroedObservations(QuadraticCost(r_u=1.0, sigma_v2=0.01, w_o=[0.5, 0.5])),
        LogisticCost(rho=0.3, sampler=TwoClassGaussianSampler([0.5, 1.0], [-0.5, -1.0])),
        ZeroedObservations(
            LogisticCost(rho=0.2, sampler=TwoClassGaussianSampler([1.0, 1.0], [-1.0, -1.0]))
        ),
    ]
    steps = an.StepSizeProfile(0.01, [1.0, 0.5, 1.0, 0.8, 1.0])
    return a, models, steps, np.full((5, 2), 0.25)


class TestFrozenOutputs:
    def test_preset_trajectories_bitwise(self):
        runs = engine.run_ensemble(*preset_network(), iterations=2500, n_runs=3, master_seed=7,
                                   stride=10, record_iterates=True)
        assert digest(runs, "sq_error") == PRESET_SQ_ERROR_SHA256
        assert digest(runs, "iterates") == PRESET_ITERATES_SHA256

    def test_mixed_kinds_within_round_off(self):
        runs = engine.run_ensemble(*mixed_network(), iterations=1500, n_runs=2, master_seed=41,
                                   stride=10, record_iterates=True)
        sums = np.sum([t.sq_error.sum(axis=0) for t in runs], axis=0)
        np.testing.assert_allclose(sums, MIXED_SQ_ERROR_SUMS, rtol=1e-12, atol=0)
        final = np.stack([t.iterates[-1] for t in runs])
        np.testing.assert_allclose(final, MIXED_FINAL_ITERATES, rtol=1e-12, atol=0)

    def test_run_does_not_depend_on_ensemble_size(self):
        args = preset_network()
        ensemble = engine.run_ensemble(*args, iterations=1100, n_runs=5, master_seed=5,
                                       record_iterates=True)
        alone = engine.run(*args, iterations=1100, seed=5, record_iterates=True)
        assert np.array_equal(ensemble[0].sq_error, alone.sq_error)
        assert np.array_equal(ensemble[0].iterates, alone.iterates)


def per_agent_reference(a, models, steps, limit_points, iterations, n_runs, seed, stride):
    """Squared errors of the ATC recursion written out per run and per agent."""
    n = len(models)
    sq_error = np.empty((iterations // stride, n_runs, n))
    for r in range(n_runs):
        rngs = [np.random.default_rng([seed, r, k]) for k in range(n)]
        x = np.zeros(limit_points.shape)
        for i in range(iterations):
            j = i % engine._BLOCK
            if j == 0:
                blocks = [model.draw_batch(rng, engine._BLOCK) for model, rng in zip(models, rngs)]
            psi = np.empty_like(x)
            for k, model in enumerate(models):
                sample = tuple(field[j] for field in blocks[k])
                psi[k] = x[k] - steps.mu[k] * model.stochastic_gradient(x[k], sample)
            x = a.weights.T @ psi
            if (i + 1) % stride == 0:
                sq_error[(i + 1) // stride - 1, r] = ((x - limit_points) ** 2).sum(axis=1)
    return sq_error


class TestBatchedKernel:
    def test_mixed_kinds_match_per_agent_reference(self):
        a, models, steps, lp = mixed_network()
        runs = engine.run_ensemble(a, models, steps, lp, iterations=1100, n_runs=2,
                                   master_seed=17, stride=10)
        reference = per_agent_reference(a, models, steps, lp, 1100, 2, 17, 10)
        batched = np.stack([t.sq_error for t in runs], axis=1)
        np.testing.assert_allclose(batched, reference, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("network", [preset_network, mixed_network])
    def test_tail_mean_equals_mean_of_recorded_iterates(self, network):
        runs = engine.run_ensemble(*network(), iterations=1500, n_runs=3, master_seed=2,
                                   record_iterates=True, burn_in_fraction=0.4)
        for traj in runs:
            start = int(np.floor(0.4 * traj.iterates.shape[0]))
            assert np.array_equal(traj.mean_iterate_tail, traj.iterates[start:].mean(axis=0))

    def test_records_callback_hands_over_each_record_once_per_block(self):
        # stride 7: blocks end after records 1024 // 7 = 146 and 2048 // 7 = 292;
        # the last call hands over the 357 - 292 records of the partial block
        blocks = []
        runs = engine.run_ensemble(*preset_network(), iterations=2500, n_runs=2, master_seed=3,
                                   stride=7, records=lambda rows: blocks.append(rows.copy()))
        assert [b.shape for b in blocks] == [(2, 146, 8), (2, 146, 8), (2, 65, 8)]
        stacked = np.stack([t.sq_error for t in runs])
        assert np.array_equal(np.concatenate(blocks, axis=1), stacked)

    @pytest.mark.parametrize("noise_at", ["iterate", "limit_point"])
    def test_linear_companion_leaves_the_run_unchanged(self, noise_at):
        args = preset_network()
        paired = engine.run_paired_long_term(*args, iterations=1100, seed=4, n_runs=2,
                                             noise_at=noise_at)
        alone = engine.run_ensemble(*args, iterations=1100, n_runs=2, master_seed=4)
        for p, t in zip(paired, alone):
            assert np.array_equal(p.sq_error, t.sq_error)

    def test_iterate_noise_matches_per_agent_linear_model(self):
        # logistic agents have no closed-form true gradient; the noise at the
        # iterate still subtracts each agent's own true gradient there
        a, models, steps, lp = mixed_network()
        [paired] = engine.run_paired_long_term(a, models, steps, lp, iterations=20, seed=6,
                                               stride=1)
        rngs = [np.random.default_rng([6, 0, k]) for k in range(len(models))]
        blocks = [model.draw_batch(rng, engine._BLOCK) for model, rng in zip(models, rngs)]
        x = np.zeros(lp.shape)
        state = engine.long_term_state(models, lp)
        state = engine.LongTermState(error=lp - x, hessians=state.hessians, bias=state.bias)
        for i in range(20):
            ghat = np.array([model.stochastic_gradient(x[k], tuple(f[i] for f in blocks[k]))
                             for k, model in enumerate(models)])
            noise = ghat - np.array([model.true_gradient(x[k]) for k, model in enumerate(models)])
            x = a.weights.T @ (x - steps.mu[:, None] * ghat)
            state = engine.long_term_step(state, a, steps, noise)
            np.testing.assert_allclose(paired.sq_error_model[i], (state.error ** 2).sum(axis=1),
                                       rtol=1e-12, atol=0)
