"""Frozen outputs of the diffusion kernel and the contracts of its batching.

The digests and values below were computed with the per-agent kernel that
the batched one replaced. Runs with M=1 must reproduce them bitwise; runs
with M>1 within 1e-12 relative, because the batched gradient may add up the
inner products of a sample and an iterate in another order. The squared-error
digest was taken again when W came to be solved with a rebuilt diagonal: the
preset's limit points moved in the last bit, and so did the errors against them.
"""
import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import atcnet as an
from atcnet import engine, workflows
from atcnet.config import load_preset
from atcnet.costs import (
    EllipseSampler,
    LogisticCost,
    QuadraticCost,
    TwoClassGaussianSampler,
    ZeroedObservations,
)
from atcnet.errors import Diverged

from conftest import EIGHT_AGENT, estimate_msd, random_weak_matrix

PRESET_SQ_ERROR_SHA256 = "e67162190fd86a224b333240b9ecb71a5b6e70169cac780b4fb6c18a6b92d0dd"
PRESET_ITERATES_SHA256 = "e367d0e8d259aa0532bac180fa1c28ea47ae47a6038f82714e8a2e98c49ea39a"
# sq_error, sq_error_model and max_state_gap of the paired runs in
# ``test_paired_runs_bitwise``, taken while the linear companion still ran as a
# second recursion beside the iterates, and again when the logistic limit point
# and Hessians began to be summed over blocks of design rows, which round
# differently (the squared errors moved by at most 2.8e-14 relative)
PAIRED_SHA256 = "7cc1021599be76172aa87619dbf8a2f14f33081c17fe394b89256d0a9c3e406b"

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


def preset_network(name="three-subnetwork-regression"):
    """A preset (by default three-subnetwork-regression, M=1) and its limit points."""
    config = load_preset(name)
    partition = an.classify(config.matrix)
    stars = workflows.pareto_points(partition, config.models, config.step_sizes)
    points = an.receiving_limit_points(stars, partition)
    return config.matrix, list(config.models), config.step_sizes, points


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


def single_agent():
    """One scalar quadratic agent, on its own."""
    model = QuadraticCost(r_u=1.0, sigma_v2=0.1, w_o=[0.5])
    return an.validate([[1.0]]), [model], an.StepSizeProfile(0.01, [1.0]), np.array([[0.5]])


def record_order_mean(records):
    """Mean along the first axis, adding the records one after another."""
    return np.cumsum(records, axis=0)[-1] / records.shape[0]


class TestFrozenOutputs:
    def test_preset_trajectories_bitwise(self):
        runs = engine.run_ensemble(*preset_network(), iterations=2500, n_runs=3, master_seed=7,
                                   stride=10, record_iterates=True)
        assert digest(runs, "sq_error") == PRESET_SQ_ERROR_SHA256
        assert digest(runs, "iterates") == PRESET_ITERATES_SHA256

    def test_paired_runs_bitwise(self):
        h = hashlib.sha256()
        logistic = preset_network("two-agent-logistic")
        runs = engine.run_paired_long_term(*logistic, iterations=3000, seed=23, n_runs=3,
                                           noise_at="limit_point", w_init=logistic[3])
        runs += engine.run_paired_long_term(*preset_network(), iterations=3000, seed=19,
                                            n_runs=2, noise_at="iterate")
        for paired in runs:
            for value in (paired.sq_error, paired.sq_error_model, np.float64(paired.max_state_gap)):
                h.update(value.tobytes())
        assert h.hexdigest() == PAIRED_SHA256

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
        [alone] = engine.run_ensemble(*args, iterations=1100, n_runs=1, master_seed=5,
                                      record_iterates=True)
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
                psi[k] = x[k] - steps.mu[k] * model.gradient_rows(x[k], sample)
            x = a.weights.T @ psi
            if (i + 1) % stride == 0:
                sq_error[(i + 1) // stride - 1, r] = ((x - limit_points) ** 2).sum(axis=1)
    return sq_error


def long_term_step(err, hessians, bias, a, steps, noise):
    """One round of the constant-Hessian linear error recursion, written out; ``noise`` is
    each agent's sample gradient less its true gradient, both where the sample was taken."""
    mu = steps.mu[:, None]
    damped = err - mu * np.einsum("kmn,kn->km", hessians, err)
    return a.weights.T @ (damped + mu * (noise - bias))


@st.composite
def companion_cases(draw):
    """(matrix, models, step sizes, limit points, runs, rounds): a random weak network of
    2-d agents with interleaved quadratic, zeroed quadratic and, in some, logistic models;
    the rounds pass one sample block and are a multiple of neither the check interval
    nor the block."""
    s_sizes = draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
    r_sizes = draw(st.lists(st.integers(1, 2), min_size=0, max_size=2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw, _, _ = random_weak_matrix(rng, s_sizes, r_sizes)
    n = raw.shape[0]
    kinds = 2 if draw(st.booleans()) else 3
    models = []
    # every kind on some agent, once there are agents enough, in a shuffled order
    for k, kind in enumerate(rng.permutation(np.arange(n) % kinds)):
        if kind < 2:
            model = QuadraticCost(r_u=rng.uniform(0.5, 2.0, 2), sigma_v2=rng.uniform(0.001, 0.1),
                                  w_o=rng.normal(size=2))
            models.append(ZeroedObservations(model) if kind else model)
        else:
            mean = rng.normal(size=2)
            models.append(LogisticCost(rho=rng.uniform(0.05, 0.5),
                                       sampler=TwoClassGaussianSampler(mean, -mean),
                                       eval_samples=1000, eval_seed=k))
    a = an.validate(raw)
    # the combination keeps limit points fixed: from any sender points, through W
    lp = an.receiving_limit_points(rng.normal(size=(len(s_sizes), 2)), an.classify(a))
    iterations = draw(st.integers(engine._BLOCK + 1, engine._BLOCK + 100)
                      .filter(lambda t: t % engine._CHECK_EVERY))
    return (a, models, an.StepSizeProfile(0.01, rng.uniform(0.3, 1.0, n)), lp,
            draw(st.integers(2, 3)), iterations)


class TestBatchedKernel:
    def test_mixed_kinds_match_per_agent_reference(self):
        a, models, steps, lp = mixed_network()
        runs = engine.run_ensemble(a, models, steps, lp, iterations=1100, n_runs=2,
                                   master_seed=17, stride=10)
        reference = per_agent_reference(a, models, steps, lp, 1100, 2, 17, 10)
        batched = np.stack([t.sq_error for t in runs], axis=1)
        np.testing.assert_allclose(batched, reference, rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "network, stride", [(preset_network, 10), (mixed_network, 10), (single_agent, 1)],
        ids=["preset_network", "mixed_network", "single_agent"],
    )
    def test_tail_mean_equals_mean_of_recorded_iterates(self, network, stride):
        # the tail means add the records in order; for one scalar agent numpy's
        # own mean would add the (T, 1) column pairwise and differ in the last bits
        runs = engine.run_ensemble(*network(), iterations=3000, n_runs=3, master_seed=2,
                                   stride=stride, record_iterates=True, burn_in_fraction=0.4)
        for traj in runs:
            start = int(np.floor(0.4 * traj.iterates.shape[0]))
            assert np.array_equal(traj.mean_iterate_tail, record_order_mean(traj.iterates[start:]))
            assert np.array_equal(traj.mean_sq_error_tail,
                                  record_order_mean(traj.sq_error[start:]))
        streamed = engine.msd_from_tails([t.mean_sq_error_tail for t in runs])
        kept = estimate_msd(runs, 0.4)
        assert np.array_equal(streamed.per_agent, kept.per_agent)
        assert np.array_equal(streamed.halfwidth, kept.halfwidth)

    def test_records_callback_hands_over_each_record_once_per_block(self):
        # stride 7: blocks end after records 1024 // 7 = 146 and 2048 // 7 = 292;
        # the last call hands over the 357 - 292 records of the partial block
        blocks = []
        streamed = engine.run_ensemble(*preset_network(), iterations=2500, n_runs=2,
                                       master_seed=3, stride=7,
                                       records=lambda rows: blocks.append(rows.copy()))
        assert [b.shape for b in blocks] == [(2, 146, 8), (2, 146, 8), (2, 65, 8)]
        kept = engine.run_ensemble(*preset_network(), iterations=2500, n_runs=2, master_seed=3,
                                   stride=7)
        stacked = np.stack([t.sq_error for t in kept])
        assert np.array_equal(np.concatenate(blocks, axis=1), stacked)
        assert all(t.sq_error is None for t in streamed)

    def test_records_callback_keeps_the_callers_error_handling(self):
        # the kernel ignores overflow in the rounds a divergence check has not seen yet
        seen = []
        with np.errstate(over="raise", invalid="warn"):
            engine.run_ensemble(*preset_network(), iterations=1100, n_runs=1, master_seed=1,
                                records=lambda rows: seen.append(np.geterr()))
        assert [(e["over"], e["invalid"]) for e in seen] == [("raise", "warn")] * 2

    def test_companion_overflow_raises_diverged(self):
        # mu rho = 0.5 keeps the logistic iterates bounded, while mu H = 3 at the
        # origin makes the linear companion grow by 2x a round; the companion written
        # out passes the threshold in round 39, mid-interval, which the kernel reports
        a = an.validate([[1.0]])
        [model] = models = [LogisticCost(rho=0.1, sampler=TwoClassGaussianSampler([1.0], [-1.0]))]
        steps, lp = an.StepSizeProfile(5.0, [1.0]), np.zeros((1, 1))
        hessians, bias = engine.long_term_state(models, lp)
        block = model.draw_batch(np.random.default_rng([3, 0, 0]), engine._BLOCK)
        err = np.zeros((1, 1))
        for passes in range(1, engine._BLOCK + 1):
            ghat = model.gradient_rows(lp[0], tuple(f[passes - 1] for f in block))
            err = long_term_step(err, hessians, bias, a, steps, ghat - model.true_gradient(lp[0]))
            if np.abs(err).max() > engine.DIVERGENCE_THRESHOLD:
                break
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Diverged) as exc:
                engine.run_paired_long_term(a, models, steps, lp, iterations=1200, seed=3,
                                            noise_at="limit_point")
            [alone] = engine.run_ensemble(a, models, steps, lp, iterations=1200, n_runs=1,
                                          master_seed=3)
        assert passes == 39
        assert (exc.value.agent, exc.value.iteration, exc.value.run) == (0, passes, 0)
        assert "linear model" in str(exc.value)
        assert np.isfinite(alone.sq_error).all()

    @pytest.mark.parametrize("noise_at", ["iterate", "limit_point"])
    @settings(max_examples=6)
    @given(case=companion_cases())
    def test_linear_companion_leaves_the_run_unchanged(self, noise_at, case):
        a, models, steps, lp, n_runs, iterations = case
        quadratic = not any(isinstance(model, LogisticCost) for model in models)
        alone = engine.run_ensemble(a, models, steps, lp, iterations, n_runs, master_seed=4,
                                    stride=3)
        paired = engine.run_paired_long_term(a, models, steps, lp, iterations, seed=4,
                                             n_runs=n_runs, noise_at=noise_at, stride=3)
        for p, t in zip(paired, alone):
            assert np.array_equal(p.sq_error, t.sq_error)
            # the linear model of quadratic costs is the recursion itself
            if quadratic and noise_at == "iterate":
                assert p.max_state_gap <= 1e-10

    @pytest.mark.parametrize("noise_at", ["iterate", "limit_point"])
    def test_iterate_noise_matches_per_agent_linear_model(self, noise_at):
        # logistic agents have no closed-form true gradient; the noise subtracts each
        # agent's own true gradient where its sample gradient was taken. Both kinds
        # interleave, so their gradients are scattered through index arrays
        a, models, steps, lp = mixed_network()
        [paired] = engine.run_paired_long_term(a, models, steps, lp, iterations=20, seed=6,
                                               stride=1, noise_at=noise_at)
        rngs = [np.random.default_rng([6, 0, k]) for k in range(len(models))]
        blocks = [model.draw_batch(rng, engine._BLOCK) for model, rng in zip(models, rngs)]
        hessians, bias = engine.long_term_state(models, lp)
        x = np.zeros(lp.shape)
        err = lp - x
        for i in range(20):
            samples = [tuple(f[i] for f in block) for block in blocks]
            ghat = np.array([model.gradient_rows(w, sample)
                             for model, w, sample in zip(models, x, samples)])
            if noise_at == "iterate":
                noise = ghat - [model.true_gradient(w) for model, w in zip(models, x)]
            else:
                noise = np.array([model.gradient_rows(w, sample)
                                  for model, w, sample in zip(models, lp, samples)]) + bias
            x = a.weights.T @ (x - steps.mu[:, None] * ghat)
            err = long_term_step(err, hessians, bias, a, steps, noise)
            np.testing.assert_allclose(paired.sq_error_model[i], (err ** 2).sum(axis=1),
                                       rtol=1e-12, atol=0)


class TestSampling:
    """``draw_into`` fills many runs' strided buffers with the streams ``draw_batch`` gives."""

    N, RUNS = 1500, 3

    def fill(self, model):
        """Draw for agent 1 of 3 in (runs, agents, n, ...) buffers, as the kernel does."""
        fields = [np.empty((self.RUNS, 3, self.N) + shape) for shape in model.field_shapes]
        model.draw_into([np.random.default_rng([4, r]) for r in range(self.RUNS)],
                        [f[:, 1] for f in fields])
        return [f[:, 1] for f in fields]

    def singles(self, model):
        return [model.draw_batch(np.random.default_rng([4, r]), self.N) for r in range(self.RUNS)]

    @pytest.mark.parametrize("model", [
        QuadraticCost(r_u=1.7, sigma_v2=0.3, w_o=[1.25]),
        QuadraticCost(r_u=[[1.0, 0.3, 0.1], [0.3, 2.0, 0.2], [0.1, 0.2, 0.5]], sigma_v2=0.05,
                      w_o=[1.0, -0.5, 2.0]),
        QuadraticCost(r_u=0.8, sigma_v2=0.0, w_o=[0.0]),
        QuadraticCost(r_u=[[1.0, 0.3], [0.3, 2.0]], sigma_v2=0.0, w_o=[0.0, 0.0]),
    ], ids=["m1", "m3", "m1-noise-free", "m2-noise-free"])
    def test_quadratic_is_the_textbook_stream(self, model):
        # the recipe the kernel drew per stream before it drew into its buffers;
        # rng.normal adds its zero mean and matmul's loop adds its one product at M = 1
        # to 0.0, which turns the noise-free -0.0 into 0.0
        chol = np.linalg.cholesky(model.r_u)
        for r, (u, d) in enumerate(zip(*self.fill(model))):
            rng = np.random.default_rng([4, r])
            ref_u = rng.standard_normal((self.N, model.dimension)) @ chol.T
            ref_d = ref_u @ model.w_o + rng.normal(0.0, np.sqrt(model.sigma_v2), self.N)
            assert u.tobytes() == ref_u.tobytes()
            assert d.tobytes() == ref_d.tobytes()

    def test_two_class_gaussian_is_the_textbook_stream(self):
        sampler = TwoClassGaussianSampler([1.0, 0.5, -0.2], [-1.0, -0.5, 0.3],
                                          cov=[[1.0, 0.2, 0.0], [0.2, 0.7, 0.1], [0.0, 0.1, 0.4]],
                                          p_pos=0.3)
        (signed,) = self.fill(LogisticCost(rho=0.1, sampler=sampler))
        chol = np.linalg.cholesky(sampler.cov)
        for r in range(self.RUNS):
            rng = np.random.default_rng([4, r])
            ref_gamma = np.where(rng.random(self.N) < sampler.p_pos, 1.0, -1.0)
            means = np.where(ref_gamma[:, None] > 0, sampler.mean_pos, sampler.mean_neg)
            ref_h = means + rng.standard_normal((self.N, 3)) @ chol.T
            assert signed[r].tobytes() == (ref_gamma[:, None] * ref_h).tobytes()

    @pytest.mark.parametrize("model", [
        QuadraticCost(r_u=[[1.0, 0.3], [0.3, 2.0]], sigma_v2=0.2, w_o=[1.0, -1.0]),
        LogisticCost(rho=0.1, sampler=TwoClassGaussianSampler([1.0, 0.5], [-1.0, -0.5])),
        LogisticCost(rho=0.1, sampler=EllipseSampler()),
        LogisticCost(rho=0.1, sampler=EllipseSampler(outlier_fraction=0.3)),
        ZeroedObservations(QuadraticCost(r_u=1.0, sigma_v2=0.5, w_o=[1.0])),
        ZeroedObservations(LogisticCost(rho=0.2, sampler=EllipseSampler())),
    ], ids=["quadratic", "gaussian", "ellipse", "ellipse-outliers", "zeroed-quadratic",
            "zeroed-ellipse"])
    def test_every_run_gets_its_draw_batch_stream(self, model):
        filled = self.fill(model)
        for r, single in enumerate(self.singles(model)):
            for field, ref in zip(filled, single):
                assert field[r].tobytes() == ref.tobytes()


def per_round_divergence(a, models, steps, iterations, n_runs, seed):
    """(agent, iteration, run) of the first iterate beyond the threshold, checked every
    round over all runs, or None; the recursion written out per agent with ``draw_batch``."""
    n = len(models)
    rngs = [[np.random.default_rng([seed, r, k]) for r in range(n_runs)] for k in range(n)]
    x = np.zeros((n_runs, n, 1))
    for i in range(iterations):
        j = i % engine._BLOCK
        if j == 0:
            blocks = [[np.stack(f) for f in zip(*(model.draw_batch(rng, engine._BLOCK)
                                                  for rng in rngs[k]))]
                      for k, model in enumerate(models)]
        psi = np.empty_like(x)
        for k, model in enumerate(models):
            sample = tuple(f[:, j] for f in blocks[k])
            psi[:, k] = x[:, k] - steps.mu[k] * model.gradient_rows(x[:, k], sample)
        x = np.matmul(a.weights.T, psi)
        beyond = ~(np.abs(x) <= engine.DIVERGENCE_THRESHOLD)
        if beyond.any():
            run, agent, _ = np.argwhere(beyond)[0]
            return int(agent), i + 1, int(run)
    return None


@st.composite
def diverging_runs(draw):
    """(raw matrix, w_o, tau, mu_max, iterations, runs, seed): scalar regression agents
    whose step sizes are past the stability bound for some of them."""
    s_sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    r_sizes = draw(st.lists(st.integers(1, 3), min_size=0, max_size=2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw, _, _ = random_weak_matrix(rng, s_sizes, r_sizes)
    n = raw.shape[0]
    return (raw.tolist(), rng.normal(size=n).tolist(), rng.uniform(0.3, 1.0, n).tolist(),
            draw(st.floats(1.2, 3.0)), draw(st.integers(1, 300)), draw(st.integers(1, 3)),
            draw(st.integers(0, 2**16)))


class TestDivergence:
    @settings(max_examples=30)
    @given(diverging_runs())
    # divergence in the first round of a check interval, in its last round, in the
    # partial interval that ends a run, and the eight-agent network's round 1082
    @example(([[1.0]], [1.0], [1.0], 2.0, 300, 1, 9))
    @example(([[1.0]], [1.0], [1.0], 2.0, 300, 1, 174))
    @example(([[1.0]], [1.0], [1.0], 2.0, 73, 2, 3))
    @example((EIGHT_AGENT.tolist(), [1.0, 1.0, 1.0, 1.5, 1.5, 1.25, 1.25, 1.25], [1.0] * 8,
              1.05, 4000, 3, 5))
    def test_interval_check_reports_the_per_round_divergence(self, case):
        raw, w_os, tau, mu_max, iterations, n_runs, seed = case
        a = an.validate(np.array(raw))
        models = [QuadraticCost(r_u=1.0, sigma_v2=0.01, w_o=[w]) for w in w_os]
        steps = an.StepSizeProfile(mu_max, tau)
        expected = per_round_divergence(a, models, steps, iterations, n_runs, seed)

        def run():
            an.run_ensemble(a, models, steps, np.zeros((len(models), 1)), iterations, n_runs,
                            master_seed=seed, stride=7)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if expected is None:
                run()
                return
            with pytest.raises(Diverged) as exc:
                run()
        assert (exc.value.agent, exc.value.iteration, exc.value.run) == expected

    def test_examples_cover_the_interval_edges(self):
        """The pinned examples above diverge where their comments say."""
        one = an.validate([[1.0]]), [QuadraticCost(r_u=1.0, sigma_v2=0.01, w_o=[1.0])]
        steps = an.StepSizeProfile(2.0, [1.0])
        rounds = [per_round_divergence(*one, steps, 300, 1, seed)[1] for seed in (9, 174)]
        assert [t % engine._CHECK_EVERY for t in rounds] == [1, 0]
        # the run's last round, in a partial interval, and in its second run
        assert per_round_divergence(*one, steps, 73, 2, 3) == (0, 73, 1)
        assert 73 % engine._CHECK_EVERY


class TestWorkingSet:
    def test_preset_ensemble_stays_within_its_buffers(self):
        # 20 runs x 8 agents x 1024 samples of u and d take 2.6 MB; the per-agent
        # products of a draw and the divergence check's iterates add little to that
        args = preset_network()

        def run():
            engine.run_ensemble(*args, iterations=2100, n_runs=20, master_seed=7,
                                burn_in_fraction=0.5, records=lambda rows: None)

        run()  # fills the interpreter's free lists, which tracemalloc counts as in use
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5e6


class TestLateLimitPoints:
    """``run_ensemble`` with limit points that may come after the runs start."""

    @pytest.mark.parametrize(
        "network, stride, burn_in",
        [(preset_network, 10, 0.5), (preset_network, 7, 0.3), (preset_network, 1, 0.0),
         (mixed_network, 10, 0.5)],
        ids=["10-0.5", "7-0.3", "1-0.0", "mixed_network"],
    )
    def test_late_points_give_the_bits_of_run_ensemble(self, network, stride, burn_in):
        *args, lp = network()
        kwargs = dict(iterations=2500, n_runs=3, master_seed=4, stride=stride,
                      record_iterates=True, burn_in_fraction=burn_in)
        runs = engine.run_ensemble(*args, lp, **kwargs)
        kept = engine.msd_from_tails([t.mean_sq_error_tail for t in runs])
        for points in (lambda wait: lp, lambda wait: lp if wait else None):
            late_runs = engine.run_ensemble(*args, points, **kwargs)
            late = engine.msd_from_tails([t.mean_sq_error_tail for t in late_runs])
            assert np.array_equal(late.per_agent, kept.per_agent)
            assert np.array_equal(late.halfwidth, kept.halfwidth)
            for run, late_run in zip(runs, late_runs):
                assert late_run.sq_error is None
                for field in ("iterates", "mean_iterate_tail", "mean_sq_error_tail"):
                    assert np.array_equal(getattr(late_run, field), getattr(run, field)), field

    @pytest.mark.parametrize(
        "controls, match",
        [({"records": lambda rows: None, "burn_in_fraction": 0.5}, "records"),
         ({}, "burn_in_fraction")],
        ids=["records", "no-burn-in"],
    )
    def test_late_points_need_a_burn_in_and_take_no_records(self, controls, match):
        a, models, steps, lp = single_agent()
        with pytest.raises(ValueError, match=match):
            engine.run_ensemble(a, models, steps, lambda wait: lp, iterations=100, n_runs=2,
                                master_seed=1, **controls)

    @pytest.mark.parametrize(
        "iterations, burn_in, asked_at",
        [(400, 0.0, [False, True]), (4000, 0.0, [False, False, True, False]),
         (4000, 0.5, [False, False, False, False, True])],
        ids=["400", "4000", "4000-burn_in"],
    )
    def test_held_states_stop_at_the_sample_buffers(self, iterations, burn_in, asked_at):
        # one scalar quadratic agent draws u and d: 2 x 8 bytes a sample against a
        # state of 8, so 2 runs hold at most 2048 records (32 KB) before they wait;
        # stride 1 makes 400 or 4000 records, and the runs hold only those after the burn-in
        a, models, steps, lp = single_agent()
        kernel = engine._Kernel(a, models, steps)
        bound = kernel.sample_bytes(2)
        assert bound == 2 * engine._BLOCK * 2 * 8

        asked = []

        def late(wait):
            asked.append(wait)
            return lp if wait else None

        def estimate(points):
            return lambda: engine.run_ensemble(a, models, steps, points, iterations, n_runs=2,
                                               master_seed=5, stride=1,
                                               burn_in_fraction=burn_in)

        estimate(late)()  # fills the interpreter's free lists, which tracemalloc counts as in use
        asked.clear()
        prompt = traced_peak(estimate(lambda wait: lp))
        held = traced_peak(estimate(late))
        tail_records = iterations - int(burn_in * iterations)
        assert held - prompt <= min(2 * tail_records * 8, bound) + 4096
        # 1024-record blocks. Without burn-in the third would pass the bound, so the runs
        # wait there. With half of 4000 burnt in, they hold records 2000 to 3999 (31.25 KB)
        # from the second block on, and wait only at the end; holding from record 0, they
        # would wait at the third block.
        assert asked == asked_at


def traced_peak(fn) -> int:
    """Peak bytes traced by ``tracemalloc`` while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
