"""Logistic theory path: pinned bits, one pass over each design per point, the warm
start, and how long each design lives.

The digests were computed when ``EllipseSampler.draw`` and
``quadratic_features`` built their arrays with ``np.column_stack``, the
logistic gradient and Hessian each made their own pass over the evaluation
design, and ``pareto_solve`` evaluated every accepted Newton point twice.
The two-agent MSD report was taken again when that preset's W became exactly
1 (it was 0.9999999999999991, from the cancelled 1 - 0.97), again when its
1M-sample noise covariance estimate began to be drawn in fixed chunks, and
again when that estimate gave way to ``LogisticCost.noise_covariance``, the
exact covariance over the model's own evaluation design, which draws nothing.
The Pareto and MSD digests were taken again when Newton began to stop on the
gradient weighted by q / sum(q) and to start from the solution on a prefix of
each design: the Pareto points moved by at most 2e-8, the MSDs by at most
4e-8 dB. The Pareto digest was taken again when Newton became damped (an
Armijo test on the loss, a step solved after a Jacobi scaling of H) and
began to stop on the Newton decrement: the points moved by at most 2e-17,
and the two-agent MSD report kept its bits. Every digest held when a design
became one array of signed features gamma h, drawn in place. The Pareto and
MSD digests were taken again when the loss, gradient, Hessian and noise
covariance began to be summed over blocks of ``BLOCK_ROWS`` design rows,
which round differently: the Pareto points moved by at most 1.4e-15, the
two-agent MSD by 2.2e-14 dB. The draw digests held when the ellipse draw
began to fill scratch arrays in place of full-length temporaries.
"""
import hashlib
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import atcnet as an
from atcnet import costs, performance, workflows
from atcnet.config import ExperimentConfig, RunControls, load_preset
from atcnet.costs import (
    EllipseSampler,
    LogisticCost,
    QuadraticCost,
    TwoClassGaussianSampler,
    ZeroedObservations,
    quadratic_features,
)
from atcnet.errors import NoMinimizer
from atcnet.performance import PARETO_TOL, pareto_solve

from conftest import random_weak_matrix

SHA256 = {
    "draw": "be123302ce533b506afdbc2b51b409c77257fed0ca52531e07666bc0057ac18b",
    "draw_outliers": "3b8e7aa6e46cab375a567d44da59fd54800fa06e210ee0e8656ccb44a68dfcf5",
    "quadratic_features": "0a644e71510687bc96b29f3eb7350bbb5d55f883426c57ce12c6b0e72396ddb6",
    "pareto": "c90f8f6cd551072d7f01b8f0d7b45e5d7403c9309abb81278be1ecba4ad90be3",
    "msd_two_agent_logistic": "21ebdb8bb50715e6e19cb1a08c17ec27351e96ee8224035ff9fe8eefdc339b3d",
}


def digest(*arrays) -> str:
    """SHA-256 over the dtype, shape and bytes of each array."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def ellipse_models(eval_samples=(20000, 20000, 20000)):
    """Three logistic agents on differently shaped ellipses."""
    shapes = ((2.0, 1.0, 0.5, 1), (1.6, 1.1, 0.45, 2), (2.3, 0.9, 0.55, 3))
    return [
        LogisticCost(rho=0.1, sampler=EllipseSampler(semi_axes=(a, b), p_pos=p), eval_samples=n, eval_seed=s)
        for (a, b, p, s), n in zip(shapes, eval_samples)
    ]


def test_ellipse_draw_bits():
    assert digest(*EllipseSampler().draw(np.random.default_rng(5), 5000)) == SHA256["draw"]
    with_outliers = EllipseSampler(outlier_fraction=0.2).draw(np.random.default_rng(6), 5000)
    assert digest(*with_outliers) == SHA256["draw_outliers"]


def reference_ellipse_draw(sampler, rng, n):
    """The ellipse recipe with a full-length array for every step: labels, points and features."""
    a, b = sampler.semi_axes
    gamma = np.where(rng.random(n) < sampler.p_pos, 1.0, -1.0)
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    radius = np.where(gamma > 0, 0.9 * np.sqrt(rng.random(n)), rng.uniform(*sampler.outside_band, n))
    points = np.column_stack([a * radius * np.cos(theta), b * radius * np.sin(theta)])
    if sampler.outlier_fraction > 0.0:
        hit = (gamma > 0) & (rng.random(n) < sampler.outlier_fraction)
        cluster = np.asarray(sampler.outlier_center) + sampler.outlier_std * rng.standard_normal((int(hit.sum()), 2))
        points[hit] = cluster
    return gamma, quadratic_features(points)


@st.composite
def ellipse_samplers(draw):
    finite = {"allow_nan": False, "allow_infinity": False}
    lo = draw(st.floats(0.0, 3.0, **finite))
    return EllipseSampler(
        semi_axes=(draw(st.floats(0.1, 5.0, **finite)), draw(st.floats(0.1, 5.0, **finite))),
        outside_band=(lo, lo + draw(st.floats(0.0, 3.0, **finite))),
        p_pos=draw(st.floats(0.0, 1.0, **finite)),
        outlier_fraction=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0, **finite)),
        outlier_center=(draw(st.floats(-10.0, 10.0, **finite)), draw(st.floats(-10.0, 10.0, **finite))),
        outlier_std=draw(st.floats(0.0, 3.0, **finite)),
    )


@settings(max_examples=40, deadline=None)
@given(ellipse_samplers(), st.sampled_from([1, 2, 7, 1001, 40001]), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_ellipse_draw_matches_the_full_length_recipe(sampler, n, runs, seed):
    """Every stream of ``draw_into`` has the bits of the recipe drawn on its own."""
    gamma, h = np.empty((runs, n)), np.empty((runs, n, 6))
    sampler.draw_into([np.random.default_rng([seed, r]) for r in range(runs)], gamma, h)
    for r in range(runs):
        expected = reference_ellipse_draw(sampler, np.random.default_rng([seed, r]), n)
        assert digest(gamma[r], h[r]) == digest(*expected)


@pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
def test_quadratic_features_bits(layout):
    points = layout(np.random.default_rng(7).normal(size=(5000, 2)))
    features = quadratic_features(points)
    assert features.flags.c_contiguous
    assert digest(features) == SHA256["quadratic_features"]


def test_pareto_solve_bits():
    assert digest(pareto_solve(ellipse_models(), np.array([0.2, 0.5, 0.3]))) == SHA256["pareto"]


# the two-agent MSD from the one-shot (unchunked) 1M-sample covariance estimate
ONE_SHOT_MSD_DB = -37.88375161635594
# the two-agent MSD from the closed-form covariance, before the warm-started Newton
COLD_NEWTON_MSD_DB = -37.85597713816459


@pytest.fixture(scope="module")
def two_agent_msd_payload():
    return workflows.comparison_payload(workflows.msd(load_preset("two-agent-logistic")))


def test_msd_payload_bits(tmp_path, two_agent_msd_payload):
    path = tmp_path / "msd_report.json"
    workflows.write_json(two_agent_msd_payload, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SHA256["msd_two_agent_logistic"]


def test_msd_within_sampling_error_of_one_shot_estimate(two_agent_msd_payload):
    """The re-pinned digest moved only by the Monte-Carlo error of the estimate."""
    (sender,) = two_agent_msd_payload["subnetworks"]
    (receiver,) = two_agent_msd_payload["r_agents"]
    assert abs(sender["msd_db"] - ONE_SHOT_MSD_DB) < 0.05
    assert receiver["msd_db"] == sender["msd_db"]


def test_msd_within_newton_tolerance_of_cold_start(two_agent_msd_payload):
    """The warm start and the q-relative stopping test moved the MSD by Newton's tolerance only."""
    (sender,) = two_agent_msd_payload["subnetworks"]
    assert abs(sender["msd_db"] - COLD_NEWTON_MSD_DB) < 1e-6


@pytest.mark.parametrize(
    "model",
    [
        ellipse_models()[0],
        ZeroedObservations(ellipse_models()[2]),
        LogisticCost(rho=0.2, sampler=TwoClassGaussianSampler([1.0, 0.5], [-1.0, 0.0]), eval_samples=5000),
        QuadraticCost(r_u=[1.0, 2.0], sigma_v2=0.1, w_o=[0.5, -0.5]),
    ],
    ids=["logistic", "zeroed", "gaussian", "quadratic"],
)
def test_gradient_and_hessian_match_separate_calls(model):
    w = np.linspace(-0.3, 0.4, model.dimension)
    grad = model.gradient_and_hessian(w)[1]
    assert np.array_equal(grad, model.true_gradient(w))


@pytest.mark.parametrize("scale", [1.0, 30.0, 1e3])
def test_loss_read_off_the_sigmoid_matches_logaddexp(scale):
    """ln(1 + exp(-z)) read off the sigmoid, at margins up to about 1e4 in size."""
    model = ellipse_models()[0]
    gamma, h = model.sampler.draw(np.random.default_rng(model.eval_seed), model.eval_samples)
    w = scale * np.linspace(-0.3, 0.4, model.dimension)
    direct = 0.5 * model.rho * (w @ w) + np.logaddexp(0.0, -gamma * (h @ w)).mean()
    assert model.gradient_and_hessian(w)[0] == pytest.approx(direct, rel=1e-14)


def whole_design_theory(model, w):
    """Loss, gradient, Hessian, noise covariance and separation from one product with the whole design."""
    signed, rho = model._design, model.rho
    n = signed.shape[0]
    z = signed @ w
    sig = costs.inv_one_plus_exp(z)
    m = np.minimum(sig, 1.0 - sig)
    loss = 0.5 * rho * (w @ w) - (np.minimum(z, 0.0).sum() + np.log1p(-m).sum()) / n
    mean = sig @ signed / n

    def weighted_gram(weights):
        return (signed * weights[:, None]).T @ signed / n

    hessian = rho * np.eye(signed.shape[1]) + weighted_gram(sig * (1.0 - sig))
    covariance = weighted_gram(sig * sig) - np.outer(mean, mean)
    return loss, rho * w - mean, hessian, covariance, rho == 0 and bool((z > 0).all())


def assert_close(got, expected, rtol=1e-13):
    """Agreement within ``rtol`` of the largest entry of ``expected``."""
    got, expected = np.asarray(got), np.asarray(expected)
    assert np.abs(got - expected).max() <= rtol * np.abs(expected).max()


@pytest.mark.parametrize("rows", [costs.BLOCK_ROWS // 3, costs.BLOCK_ROWS, 2 * costs.BLOCK_ROWS + 5])
@pytest.mark.parametrize("scale", [0.0, 1.0, 30.0])
def test_blocked_pass_matches_whole_design_formulas(rows, scale):
    model = LogisticCost(0.1, EllipseSampler(outlier_fraction=0.05), eval_samples=rows, eval_seed=rows)
    w = scale * np.linspace(-0.3, 0.4, model.dimension)
    loss, grad, hessian, covariance, _ = whole_design_theory(model, w)
    got = model.gradient_and_hessian(w)
    assert got[0] == pytest.approx(loss, rel=1e-13)
    assert_close(got[1], grad)
    assert_close(got[2], hessian)
    assert_close(model.noise_covariance(w), covariance)
    assert np.array_equal(got[1], model.true_gradient(w))


@pytest.mark.parametrize("rows", [costs.BLOCK_ROWS // 3, costs.BLOCK_ROWS, 2 * costs.BLOCK_ROWS + 5])
@pytest.mark.parametrize("flip", [None, 0, -1], ids=["separated", "first-row", "last-row"])
def test_separation_is_checked_on_every_block(rows, flip):
    """Unregularized and with positive margins s.w, but for one row whose margin is flipped to 0 or below."""
    model = LogisticCost(0.0, TwoClassGaussianSampler([1.0, 1.0], [-1.0, -1.0]), eval_samples=rows)
    design = np.random.default_rng(rows).uniform(0.5, 1.5, (rows, 2))
    w = np.array([1.0, 2.0])
    if flip is not None:
        design[flip] = [2.0, -1.0] if flip == 0 else -design[flip]  # the first row's margin is 0, the last row's negative
    model.__dict__["_design"] = design
    assert model.separated_by(w) == whole_design_theory(model, w)[4] == (flip is None)


def count_design_passes(monkeypatch, log):
    """Log ("pass", rows) for each walk over a design and ("step",) for each solve."""
    walk = LogisticCost._pass
    solve = np.linalg.solve

    def counted(self, w, **sums):
        log.append(("pass", self.design_rows))
        return walk(self, w, **sums)

    def counted_solve(a, b):
        log.append(("step",))
        return solve(a, b)

    monkeypatch.setattr(LogisticCost, "_pass", counted)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)


def test_newton_evaluates_each_design_once_per_point(monkeypatch):
    """K Newton solves, the last one for the decrement that stops the loop,
    take K passes over each model's design."""
    sizes = (3000, 3001, 3002)  # tells the models' passes apart; too short for a warm start
    log = []
    models = ellipse_models(sizes)
    count_design_passes(monkeypatch, log)
    w = pareto_solve(models, np.array([0.2, 0.5, 0.3]))
    monkeypatch.undo()

    residual = sum(qk * m.true_gradient(w) for qk, m in zip([0.2, 0.5, 0.3], models))
    assert np.abs(residual).max() < 1e-10
    k = log.count(("step",))
    assert k >= 2
    assert Counter(log) == {("step",): k, **{("pass", n): k for n in sizes}}


def test_warm_start_takes_four_passes_over_each_full_design(monkeypatch):
    """Started from the solution on the first 1/16 of each design, Newton needs
    at most 3 steps on the full designs; started from zero it needs 7."""
    sizes = (65536, 65537, 65538)
    log = []
    models = ellipse_models(sizes)
    count_design_passes(monkeypatch, log)
    pareto_solve(models, np.array([0.2, 0.5, 0.3]))
    monkeypatch.undo()

    passes = Counter(entry[1] for entry in log if entry[0] == "pass")
    assert all(1 <= passes[n] <= 4 for n in sizes)
    assert set(passes) - set(sizes) == {4096}  # the one prefix stage: 65536 // 16 rows


def test_msd_reuses_the_solves_hessians(monkeypatch):
    """K Newton solves on the sending design, then one pass for its noise covariance."""
    config = load_preset("two-agent-logistic")
    rows = config.models[0].design_rows
    log = []
    count_design_passes(monkeypatch, log)
    noise_covariance = costs.LogisticCost.noise_covariance

    def logged_noise_covariance(self, at):
        log.append(("noise",))
        return noise_covariance(self, at)

    monkeypatch.setattr(costs.LogisticCost, "noise_covariance", logged_noise_covariance)
    workflows.msd(config)
    monkeypatch.undo()

    solve = log[log.index(("pass", rows)) : log.index(("noise",))]
    k = solve.count(("step",))
    assert k >= 2
    assert solve.count(("pass", rows)) == k
    assert log.count(("pass", rows)) == k + 1


def cold_newton(models, q):
    """Plain Newton from zero on the gradient weighted by q / sum(q)."""
    q = q / q.sum()
    w = np.zeros(models[0].dimension)
    for _ in range(50):
        grad = sum(qk * m.true_gradient(w) for qk, m in zip(q, models))
        if np.abs(grad).max() < 1e-12:
            return w
        hess = sum(qk * m.gradient_and_hessian(w)[2] for qk, m in zip(q, models))
        w = w - np.linalg.solve(hess, grad)
    raise AssertionError("reference Newton did not converge")


@st.composite
def logistic_subnetworks(draw):
    """(models, q): up to three regularized logistic agents with designs long enough to warm-start."""
    models = []
    ellipse = draw(st.booleans())
    for seed in range(draw(st.integers(1, 3))):
        rows = draw(st.integers(8192, 16384))
        rho = draw(st.floats(0.05, 1.0))
        if ellipse:
            a, b = draw(st.floats(1.5, 2.5)), draw(st.floats(0.8, 1.2))
            sampler = EllipseSampler(semi_axes=(a, b), p_pos=draw(st.floats(0.4, 0.6)))
        else:
            mean = [draw(st.floats(-1.5, 1.5)), draw(st.floats(0.5, 1.5))]
            sampler = TwoClassGaussianSampler(mean, [-x for x in mean])
        model = LogisticCost(rho=rho, sampler=sampler, eval_samples=rows, eval_seed=seed)
        models.append(ZeroedObservations(model) if draw(st.booleans()) else model)
    q = np.array([draw(st.floats(1e-4, 1.0)) for _ in models])
    return models, q


@settings(max_examples=20)
@given(logistic_subnetworks())
def test_warm_start_matches_cold_newton(subnetwork):
    models, q = subnetwork
    w = pareto_solve(models, q)
    weighted = sum(qk * m.true_gradient(w) for qk, m in zip(q / q.sum(), models))
    assert np.abs(weighted).max() < PARETO_TOL
    assert np.abs(w - cold_newton(models, q)).max() <= 1e-7


def test_separable_prefix_still_warm_starts():
    """Without a regularizer, the 625-row prefix is separable and its solution
    far out; damped Newton on the full designs still converges from there."""
    models = [
        LogisticCost(0.0, TwoClassGaussianSampler([2.5, 2.5], [-2.5, -2.5]), eval_samples=10000),
        LogisticCost(0.0, TwoClassGaussianSampler([2.5, -2.5], [-2.5, 2.5]), eval_samples=10000),
    ]
    q = np.array([0.5, 0.5])
    w = pareto_solve(models, q)
    weighted = sum(qk * m.true_gradient(w) for qk, m in zip(q, models))
    assert np.abs(weighted).max() < PARETO_TOL
    assert np.abs(w - cold_newton(models, q)).max() <= 1e-7


def test_separable_unregularized_design_has_no_minimizer():
    """At rho = 0 the ellipse classes are separable: the point the solve reaches
    gives every design row a positive margin, and the loss has no minimizer."""
    with pytest.raises(NoMinimizer) as exc:
        pareto_solve([LogisticCost(0.0, EllipseSampler(), eval_samples=20000)], [0.002])
    assert exc.value.field == "models[0].rho"


@pytest.mark.parametrize(
    "model",
    [
        LogisticCost(0.1, EllipseSampler(), eval_samples=20000),
        LogisticCost(0.0, TwoClassGaussianSampler([1.0, 0.5], [-1.0, -0.5]), eval_samples=20000),
        ZeroedObservations(LogisticCost(0.0, TwoClassGaussianSampler([1.0, 0.5], [-1.0, -0.5]), eval_samples=5000)),
    ],
    ids=["regularized-ellipse", "overlapping-classes", "zeroed-overlapping-classes"],
)
def test_a_minimizer_is_found_without_separation(model):
    w = pareto_solve([model], [0.002])
    assert np.abs(model.true_gradient(w)).max() < PARETO_TOL


@settings(max_examples=12)
@given(st.integers(0, 1), st.integers(-4, 4), st.integers(0, 3))
def test_scaling_a_feature_scales_its_coordinate_inversely(column, k, seed):
    """Newton's iterates and its decrement stop do not change under a rescaled
    feature, so neither does the minimizer, up to the inverse scale."""
    def model(factor):
        scale = np.ones(2)
        scale[column] = factor
        sampler = TwoClassGaussianSampler(scale * [1.0, 0.5], scale * [-1.0, -0.5], cov=scale**2 * [1.0, 0.5])
        return LogisticCost(0.0, sampler, eval_samples=10000, eval_seed=seed)

    base = pareto_solve([model(1.0)], [1.0])
    scaled = pareto_solve([model(10.0**k)], [1.0])
    scaled[column] *= 10.0**k
    assert scaled == pytest.approx(base, rel=1e-8, abs=0)


DESIGN_ROWS = 20000
DESIGN_BYTES = DESIGN_ROWS * 6 * 8  # one (rows, 6) float64 design of signed ellipse features


def two_subnetwork_config(zeroed=()):
    """Logistic agents in sending sub-networks {0..3} and {4..6} and receivers {7, 8}.

    The agents in ``zeroed`` wrap their logistic model in ``ZeroedObservations``.
    """
    raw, _, _ = random_weak_matrix(np.random.default_rng(3), (4, 3), (2,), shuffle=False)
    n = raw.shape[0]
    models = [
        LogisticCost(0.1, EllipseSampler(semi_axes=(2.0 + 0.05 * k, 1.0)), eval_samples=DESIGN_ROWS, eval_seed=k)
        for k in range(n)
    ]
    models = tuple(ZeroedObservations(m) if k in zeroed else m for k, m in enumerate(models))
    run = RunControls(seed=1, iterations=300, monte_carlo_runs=2, stride=10)
    return ExperimentConfig("two-subnetworks", an.validate(raw), models, an.StepSizeProfile(0.01, np.ones(n)), run, None)


def logistic_of(model):
    return model.inner if isinstance(model, ZeroedObservations) else model


def holds_design(model):
    return "_design" in vars(logistic_of(model))


def count_design_draws(monkeypatch):
    """A Counter of the full designs drawn from then on, keyed by their sampler's (distinct) semi-axes."""
    drawn = Counter()
    draw_into = EllipseSampler.draw_into

    def logged(self, rngs, gamma, h):
        if gamma.shape[1] == DESIGN_ROWS:
            drawn[self.semi_axes] += 1
        draw_into(self, rngs, gamma, h)

    monkeypatch.setattr(EllipseSampler, "draw_into", logged)
    return drawn


def agents_drawn(config, drawn):
    """{agent: design draws} from the Counter of ``count_design_draws``."""
    by_axes = {logistic_of(m).sampler.semi_axes: k for k, m in enumerate(config.models)}
    return {by_axes[axes]: count for axes, count in drawn.items()}


def traced_peak(run):
    """Peak bytes traced by ``tracemalloc`` during a second call of ``run``."""
    run()  # fills the interpreter's free lists, which tracemalloc counts as in use
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDesignLifetime:
    """A logistic design lives only while its sending sub-network's theory runs."""

    def test_theory_holds_one_sub_network_of_designs_at_a_time(self):
        # measured 4.58 MB: the four designs of the larger sub-network (3.84 MB)
        # and the draw's few design columns; all seven designs held at once gave
        # 9.45 MB, and a design-sized product per Hessian 5.20 MB
        def run():
            config = two_subnetwork_config()
            performance.theoretical_msd(an.classify(config.matrix), list(config.models), config.step_sizes)

        assert traced_peak(run) <= 4 * DESIGN_BYTES + 6 * DESIGN_ROWS * 8

    def test_theory_at_a_point_allocates_nothing_design_sized(self):
        """One Hessian and one noise covariance over a 200 000-row design (9.6 MB)
        allocate blocks of rows only: measured 0.72 MB."""
        model = LogisticCost(0.1, EllipseSampler(outlier_fraction=0.01))
        model._design
        w = np.linspace(-0.3, 0.4, model.dimension)

        def run():
            model.gradient_and_hessian(w)
            model.noise_covariance(w)

        assert traced_peak(run) < 1_000_000

    def test_no_model_holds_a_design_after_the_theory(self):
        config = two_subnetwork_config(zeroed=(5,))
        partition = an.classify(config.matrix)
        stars = workflows.pareto_points(partition, config.models, config.step_sizes)
        assert not any(holds_design(m) for m in config.models)
        performance.theoretical_msd(partition, list(config.models), config.step_sizes, stars)
        assert not any(holds_design(m) for m in config.models)

    def test_a_design_drawn_before_is_reused(self, monkeypatch):
        config = two_subnetwork_config()
        design = config.models[2]._design
        drawn = count_design_draws(monkeypatch)
        performance.theoretical_msd(an.classify(config.matrix), list(config.models), config.step_sizes)
        assert agents_drawn(config, drawn) == {0: 1, 1: 1, 3: 1, 4: 1, 5: 1, 6: 1}
        assert vars(config.models[2])["_design"] is design

    def test_msd_with_sim_draws_each_sending_design_once(self, monkeypatch):
        """No design is drawn twice, none for a receiver, and none outlives the command."""
        config = two_subnetwork_config(zeroed=(5,))
        drawn = count_design_draws(monkeypatch)
        workflows.msd(config, with_sim=True)
        assert agents_drawn(config, drawn) == {k: 1 for k in range(7)}
        assert not any(holds_design(m) for m in config.models)
