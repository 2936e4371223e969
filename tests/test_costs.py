import tracemalloc

import numpy as np
import pytest

from atcnet.costs import (
    CostModel,
    EllipseSampler,
    LogisticCost,
    QuadraticCost,
    TwoClassGaussianSampler,
    ZeroedObservations,
    finite_difference_gradient,
    inv_one_plus_exp,
    quadratic_features,
)


def make_logistic(rho=0.1, eval_samples=200000):
    sampler = TwoClassGaussianSampler(mean_pos=[1.0, 0.5], mean_neg=[-1.0, -0.5])
    return LogisticCost(rho=rho, sampler=sampler, eval_samples=eval_samples)


class TestLogisticGradient:
    def test_midpoint_at_origin(self):
        h = np.array([1.0, 0.0])
        g = make_logistic(rho=0.0).gradient_rows(np.zeros(2), (h,))
        assert g == pytest.approx([-0.5, 0.0], abs=1e-15)

    def test_regularizer_vanishes_at_origin(self):
        h = np.array([0.3, -2.0])
        g = make_logistic(rho=1.0).gradient_rows(np.zeros(2), (-h,))
        assert g == pytest.approx(0.5 * h, abs=1e-15)

    def test_saturated_sample_matches_finite_differences(self):
        # gamma h.w = 10: data term ~ exp(-10), still consistent with the loss
        w = np.array([10.0, 0.0])
        h = np.array([1.0, 0.0])
        model = make_logistic(rho=0.0)
        sample = (h,)
        analytic = model.gradient_rows(w, sample)
        numeric = finite_difference_gradient(lambda v: model.sample_loss(v, sample), w)
        assert np.abs(analytic - numeric).max() <= 1e-6 * max(np.abs(numeric).max(), 1e-9)

    def test_no_overflow_for_huge_margins(self):
        model = make_logistic(rho=0.0)
        g = model.gradient_rows(np.array([1000.0]), (np.array([1.0]),))
        assert np.isfinite(g).all()
        g = model.gradient_rows(np.array([-1000.0]), (np.array([1.0]),))
        assert np.isfinite(g).all()

    def test_stable_sigmoid_extremes(self):
        assert inv_one_plus_exp(800.0) == 0.0
        assert inv_one_plus_exp(-800.0) == 1.0
        assert inv_one_plus_exp(0.0) == 0.5


class TestFiniteDifferenceGradient:
    def test_scalar_quadratic(self):
        got = finite_difference_gradient(lambda w: (w[0] - 1.0) ** 2, [3.0])
        assert got[0] == pytest.approx(4.0, abs=1e-6)

    def test_quadratic_true_loss_flat_at_minimizer(self):
        model = QuadraticCost(r_u=1.0, sigma_v2=0.3, w_o=[1.0, -2.0])
        got = finite_difference_gradient(lambda w: model.gradient_and_hessian(w)[0], model.w_o)
        assert np.abs(got).max() < 1e-8

    def test_gradient_consistency_both_models(self):
        rng = np.random.default_rng(4)
        quad = QuadraticCost(r_u=[[1.0, 0.2], [0.2, 0.8]], sigma_v2=0.05, w_o=[1.0, -0.5])
        logi = make_logistic()
        for _ in range(20):
            point = rng.normal(0.0, 2.0, 2)
            for model in (quad, logi):
                sample = tuple(f[0] for f in model.draw_batch(rng, 1))
                analytic = model.gradient_rows(point, sample)
                numeric = finite_difference_gradient(
                    lambda v: model.sample_loss(v, sample), point
                )
                denom = max(np.abs(numeric).max(), 1e-12)
                assert np.abs(analytic - numeric).max() / denom <= 1e-5


class TestQuadraticCost:
    def test_true_gradient_zero_at_model(self):
        model = QuadraticCost(r_u=2.0, sigma_v2=0.1, w_o=[0.5])
        assert np.all(model.true_gradient(model.w_o) == 0.0)

    def test_hessian_is_constant_twice_covariance(self):
        r = np.array([[2.0, 0.3], [0.3, 1.0]])
        model = QuadraticCost(r_u=r, sigma_v2=0.1, w_o=[0.0, 0.0])
        assert np.array_equal(model.gradient_and_hessian([0.0, 0.0])[2], 2.0 * r)
        assert np.array_equal(model.gradient_and_hessian([5.0, -3.0])[2], 2.0 * r)

    def test_scalar_r_u_becomes_identity_multiple(self):
        model = QuadraticCost(r_u=3.0, sigma_v2=0.0, w_o=[0.0, 0.0, 0.0])
        assert np.array_equal(model.r_u, 3.0 * np.eye(3))

    def test_stochastic_gradient_is_unbiased(self):
        model = QuadraticCost(r_u=[[1.0, 0.4], [0.4, 2.0]], sigma_v2=0.2, w_o=[1.0, 2.0])
        w = np.array([0.3, -0.8])
        batch = model.draw_batch(np.random.default_rng(0), 200000)
        mean = model.gradient_rows(w, batch).mean(axis=0)
        assert np.abs(mean - model.true_gradient(w)).max() < 0.03

    def test_gradient_rows_matches_single_samples(self):
        model = QuadraticCost(r_u=1.0, sigma_v2=0.5, w_o=[1.0, -1.0])
        rng = np.random.default_rng(1)
        u, d = model.draw_batch(rng, 6)
        w_rows = rng.normal(size=(6, 2))
        rows = model.gradient_rows(w_rows, (u, d))
        for i in range(6):
            single = model.gradient_rows(w_rows[i], (u[i], d[i]))
            assert np.allclose(rows[i], single, atol=1e-15)


@pytest.mark.parametrize("m", [1, 3])
def test_gradients_keep_the_textbook_bits(m):
    """The drawn fields ((u, d); the signed features gamma h) give the bits of the plain
    formulas, signed zeros included: rows with u, d, h, gamma or w at +-0.0 are mixed in."""
    rng = np.random.default_rng(m)
    u, h, w = (rng.normal(size=(40, m)) for _ in range(3))
    d = rng.normal(size=40)
    gamma = np.where(rng.random(40) < 0.5, 1.0, -1.0)
    u[::4], d[::3], w[::5], w[1::5] = 0.0, 0.0, 0.0, -0.0
    d[1::6], h[::7], gamma[::8] = -0.0, 0.0, 0.0
    quadratic = QuadraticCost(r_u=1.0, sigma_v2=0.1, w_o=np.ones(m))
    dot = lambda a, b: np.einsum("...m,...m->...", a, b)  # noqa: E731
    assert quadratic.gradient_rows(w, (u, d)).tobytes() == (
        2.0 * u * (dot(u, w) - d)[..., None]).tobytes()
    logistic = LogisticCost(rho=0.3, sampler=TwoClassGaussianSampler(np.ones(m), -np.ones(m)))
    z = gamma * dot(h, w)
    reference = -(gamma * inv_one_plus_exp(z))[..., None] * h + 0.3 * w
    assert logistic.gradient_rows(w, (gamma[:, None] * h,)).tobytes() == reference.tobytes()


def sampled_covariance(model, point, batch):
    """One-shot covariance of the gradient noise over the samples in ``batch``: the oracle."""
    noise = model.gradient_rows(point, batch) - model.true_gradient(point)
    return noise.T @ noise / noise.shape[0]


def fresh_covariance(model, point, n, seed):
    return sampled_covariance(model, point, model.draw_batch(np.random.default_rng(seed), n))


def test_every_model_must_give_its_noise_covariance():
    """It is one of the seven abstract entry points, one per job; the set is pinned whole."""
    assert CostModel.__abstractmethods__ == {
        "draw_into", "field_shapes", "gradient_and_hessian", "gradient_rows",
        "noise_covariance", "sample_loss", "true_gradient",
    }


class TestNoiseCovariance:
    def test_scalar_reference_value(self):
        # at the true model, G = 4 sigma_u^2 sigma_v^2
        su2, sv2 = 1.3, 0.05
        model = QuadraticCost(r_u=su2, sigma_v2=sv2, w_o=[0.7])
        expected = 4.0 * su2 * sv2
        assert model.noise_covariance(model.w_o)[0, 0] == pytest.approx(expected, rel=1e-12)
        est = fresh_covariance(model, model.w_o, 10**6, 2)
        assert abs(est[0, 0] - expected) / expected < 0.05

    def test_zero_noise_model(self):
        model = QuadraticCost(r_u=1.0, sigma_v2=0.0, w_o=[1.0])
        assert np.all(model.noise_covariance(model.w_o) == 0.0)
        assert np.all(fresh_covariance(model, model.w_o, 1000, 3) == 0.0)

    def test_offset_point_dominates_in_psd_order(self):
        model = QuadraticCost(r_u=[[1.0, 0.2], [0.2, 0.8]], sigma_v2=0.05, w_o=[1.0, -0.5])
        floor = 4.0 * model.sigma_v2 * model.r_u
        exact = model.noise_covariance([0.2, 0.2])
        assert np.linalg.eigvalsh(exact - floor).min() > 0
        est = fresh_covariance(model, [0.2, 0.2], 300000, 4)
        assert np.linalg.eigvalsh(est - floor).min() > 0

    def test_gaussian_closed_form_matches_sampling(self):
        model = QuadraticCost(r_u=[[1.0, 0.2], [0.2, 0.8]], sigma_v2=0.05, w_o=[1.0, -0.5])
        point = np.array([0.3, 0.2])
        est = fresh_covariance(model, point, 10**6, 5)
        exact = model.noise_covariance(point)
        assert np.abs(est - exact).max() / np.abs(exact).max() < 0.02

    def test_zero_mean_noise_within_clt_bound(self):
        n = 100000
        for model, point in (
            (QuadraticCost(r_u=1.0, sigma_v2=0.2, w_o=[1.0, 0.0]), np.array([0.4, 0.1])),
            (make_logistic(), np.array([0.3, 0.3])),
        ):
            batch = model.draw_batch(np.random.default_rng(6), n)
            noise = model.gradient_rows(point, batch) - model.true_gradient(point)
            bound = 4.0 * np.sqrt(np.trace(model.noise_covariance(point)) / n)
            assert np.linalg.norm(noise.mean(axis=0)) <= bound


class TestLogisticNoiseCovariance:
    point = np.linspace(-0.3, 0.3, 6)

    def model(self):
        return LogisticCost(rho=0.1, sampler=EllipseSampler(), eval_samples=20000)

    def test_equals_the_one_shot_covariance_over_its_design(self):
        model = self.model()
        gamma, h = model.sampler.draw(np.random.default_rng(model.eval_seed), model.eval_samples)
        exact = sampled_covariance(model, self.point, (gamma[:, None] * h,))
        got = model.noise_covariance(self.point)
        assert np.abs(got - exact).max() <= 1e-12 * np.abs(exact).max()

    def test_matches_fresh_draws_within_sampling_error(self):
        model = self.model()
        n_design, n = model.eval_samples, 100000
        noise = model.gradient_rows(self.point, model.draw_batch(np.random.default_rng(11), n))
        noise -= model.true_gradient(self.point)
        products = noise[:, :, None] * noise[:, None, :]
        # both the design and the fresh draws are samples of the same stream
        se = products.std(axis=0) * np.sqrt(1.0 / n + 1.0 / n_design)
        est = products.mean(axis=0)
        assert np.all(np.abs(est - model.noise_covariance(self.point)) <= 5.0 * se)


class TestHessians:
    def test_quadratic_identity_covariance(self):
        model = QuadraticCost(r_u=2.0, sigma_v2=0.0, w_o=[0.0, 0.0])
        assert np.array_equal(model.gradient_and_hessian([0.0, 0.0])[2], 4.0 * np.eye(2))

    def test_logistic_quarter_curvature_at_origin(self):
        model = make_logistic(rho=0.1)
        gamma, h = model.sampler.draw(np.random.default_rng(model.eval_seed), model.eval_samples)
        expected = 0.1 * np.eye(2) + 0.25 * h.T @ h / h.shape[0]
        assert np.abs(model.gradient_and_hessian(np.zeros(2))[2] - expected).max() < 1e-12

    def test_logistic_hessian_against_gradient_differences(self):
        model = make_logistic(rho=0.05)
        w = np.array([0.2, -0.4])
        hess = model.gradient_and_hessian(w)[2]
        eps = 1e-5
        for i in range(2):
            step = np.zeros(2)
            step[i] = eps
            column = (model.true_gradient(w + step) - model.true_gradient(w - step)) / (2 * eps)
            assert np.abs(column - hess[:, i]).max() < 1e-5

    def test_symmetry(self):
        quad = QuadraticCost(r_u=[[1.0, 0.3], [0.3, 2.0]], sigma_v2=0.1, w_o=[0.0, 0.0])
        logi = make_logistic()
        for model, point in ((quad, [0.7, -0.2]), (logi, [0.5, 0.5])):
            h = model.gradient_and_hessian(np.asarray(point))[2]
            assert np.abs(h - h.T).max() <= 1e-10


class TestSamplers:
    def test_two_class_labels_and_shapes(self):
        sampler = TwoClassGaussianSampler(mean_pos=[2.0, 0.0], mean_neg=[-2.0, 0.0])
        gamma, h = sampler.draw(np.random.default_rng(0), 5000)
        assert set(np.unique(gamma)) == {-1.0, 1.0}
        assert h.shape == (5000, 2)
        assert h[gamma > 0, 0].mean() > 1.5
        assert h[gamma < 0, 0].mean() < -1.5

    @pytest.mark.parametrize(
        "m, n, runs, cov, p_pos",
        [(1, 1, 1, 1.0, 0.5), (2, 200_000, 1, [[2.0, 0.3], [0.3, 1.0]], 0.3),
         (3, 20_001, 3, [1.0, 2.0, 3.0], 0.7), (6, 1024, 5, 2.0, 0.5),
         (2, 8193, 2, [[1.0, 0.9], [0.9, 1.0]], 0.0)],
    )
    def test_two_class_draw_keeps_the_whole_array_recipe(self, m, n, runs, cov, p_pos):
        # the draw used to form the labels and class means as full-length arrays
        def reference(sampler, rngs, gamma, h):
            for rng, gamma_run, h_run in zip(rngs, gamma, h):
                rng.random(out=gamma_run)
                rng.standard_normal(out=h_run)
            positive = gamma < sampler.p_pos
            gamma[...] = np.where(positive, 1.0, -1.0)
            np.matmul(h, np.linalg.cholesky(sampler.cov).T, out=h)
            h += np.where(positive[..., None], sampler.mean_pos, sampler.mean_neg)

        rng = np.random.default_rng(n)
        sampler = TwoClassGaussianSampler(rng.standard_normal(m), rng.standard_normal(m),
                                          cov=cov, p_pos=p_pos)
        drawn = np.empty((runs, n)), np.empty((runs, n, m))
        expected = np.empty((runs, n)), np.empty((runs, n, m))
        sampler.draw_into([np.random.default_rng(r) for r in range(runs)], *drawn)
        reference(sampler, [np.random.default_rng(r) for r in range(runs)], *expected)
        assert all(np.array_equal(a, b) for a, b in zip(drawn, expected))

    def test_two_class_draw_makes_no_full_length_temporary(self):
        # at M = 2 the labels LogisticCost draws into take half the design, so 1.5 designs
        # is the floor; the class mask and one block of rows add 0.1. The draw once formed
        # the labels and the class means as full-length temporaries, and peaked at 2.6
        model = make_logistic()
        model.draw_batch(np.random.default_rng(0), 10)  # imports and caches come first
        tracemalloc.start()
        try:
            (design,) = model.draw_batch(np.random.default_rng(0), 200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.7 * design.nbytes

    def test_quadratic_feature_map(self):
        pts = np.array([[2.0, -3.0]])
        assert np.array_equal(quadratic_features(pts)[0], [5.0, 2.0, -3.0, 4.0, 9.0, -6.0])

    def test_ellipse_sampler_separates_classes(self):
        sampler = EllipseSampler(semi_axes=(2.0, 1.0))
        gamma, h = sampler.draw(np.random.default_rng(1), 20000)
        x, y = h[:, 1], h[:, 2]
        inside = (x / 2.0) ** 2 + y**2
        assert inside[gamma > 0].max() < 1.0
        assert inside[gamma < 0].min() > 1.0

    def test_ellipse_outliers_relocated(self):
        sampler = EllipseSampler(outlier_fraction=0.5, outlier_center=(6.0, 6.0))
        gamma, h = sampler.draw(np.random.default_rng(2), 20000)
        pos_x = h[gamma > 0, 1]
        assert (pos_x > 4.0).mean() == pytest.approx(0.5, abs=0.05)


class TestZeroedObservations:
    def test_batches_are_blank(self):
        model = ZeroedObservations(QuadraticCost(r_u=1.0, sigma_v2=0.5, w_o=[1.0]))
        u, d = model.draw_batch(np.random.default_rng(0), 100)
        assert np.all(u == 0.0) and np.all(d == 0.0)

    def test_consumes_same_stream_as_inner(self):
        inner = QuadraticCost(r_u=1.0, sigma_v2=0.5, w_o=[1.0])
        wrapped = ZeroedObservations(inner)
        r1, r2 = np.random.default_rng(9), np.random.default_rng(9)
        inner.draw_batch(r1, 64)
        wrapped.draw_batch(r2, 64)
        assert r1.bit_generator.state == r2.bit_generator.state

    @pytest.mark.parametrize(
        "inner",
        [
            QuadraticCost(r_u=[[1.0, 0.3], [0.3, 2.0]], sigma_v2=0.5, w_o=[1.0, -1.0]),
            make_logistic(rho=0.2, eval_samples=1000),
        ],
        ids=["quadratic", "logistic"],
    )
    def test_noise_covariance_matches_its_one_shot_estimate(self, inner):
        model = ZeroedObservations(inner)
        point = np.array([0.4, -0.7])
        est = fresh_covariance(model, point, 5000, 12)
        got = model.noise_covariance(point)
        assert np.abs(got - est).max() <= 1e-12 * np.abs(est).max()

    def test_zero_data_gradient_keeps_regularizer(self):
        inner = make_logistic(rho=0.2, eval_samples=1000)
        model = ZeroedObservations(inner)
        sample = tuple(f[0] for f in model.draw_batch(np.random.default_rng(1), 1))
        w = np.array([1.0, -2.0])
        assert model.gradient_rows(w, sample) == pytest.approx(0.2 * w)

