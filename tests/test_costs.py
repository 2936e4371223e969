import pickle
import tracemalloc

import numpy as np
import pytest

from atcnet.costs import (
    NOISE_CHUNK,
    EllipseSampler,
    LogisticCost,
    QuadraticCost,
    TwoClassGaussianSampler,
    ZeroedObservations,
    finite_difference_gradient,
    inv_one_plus_exp,
    noise_covariance_at,
    quadratic_features,
)


def make_logistic(rho=0.1, eval_samples=200000):
    sampler = TwoClassGaussianSampler(mean_pos=[1.0, 0.5], mean_neg=[-1.0, -0.5])
    return LogisticCost(rho=rho, sampler=sampler, eval_samples=eval_samples)


class TestLogisticGradient:
    def test_midpoint_at_origin(self):
        h = np.array([1.0, 0.0])
        g = make_logistic(rho=0.0).gradient_rows(np.zeros(2), (1.0, h))
        assert g == pytest.approx([-0.5, 0.0], abs=1e-15)

    def test_regularizer_vanishes_at_origin(self):
        h = np.array([0.3, -2.0])
        g = make_logistic(rho=1.0).gradient_rows(np.zeros(2), (-1.0, h))
        assert g == pytest.approx(0.5 * h, abs=1e-15)

    def test_saturated_sample_matches_finite_differences(self):
        # gamma h.w = 10: data term ~ exp(-10), still consistent with the loss
        w = np.array([10.0, 0.0])
        h = np.array([1.0, 0.0])
        model = make_logistic(rho=0.0)
        sample = (1.0, h)
        analytic = model.gradient_rows(w, sample)
        numeric = finite_difference_gradient(lambda v: model.sample_loss(v, sample), w)
        assert np.abs(analytic - numeric).max() <= 1e-6 * max(np.abs(numeric).max(), 1e-9)

    def test_no_overflow_for_huge_margins(self):
        model = make_logistic(rho=0.0)
        g = model.gradient_rows(np.array([1000.0]), (1.0, np.array([1.0])))
        assert np.isfinite(g).all()
        g = model.gradient_rows(np.array([-1000.0]), (1.0, np.array([1.0])))
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
        got = finite_difference_gradient(model.true_loss, model.w_o)
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
        assert np.array_equal(model.hessian([0.0, 0.0]), 2.0 * r)
        assert np.array_equal(model.hessian([5.0, -3.0]), 2.0 * r)

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


class TestNoiseCovariance:
    def test_scalar_reference_value(self):
        # at the true model, G = 4 sigma_u^2 sigma_v^2
        su2, sv2 = 1.3, 0.05
        model = QuadraticCost(r_u=su2, sigma_v2=sv2, w_o=[0.7])
        est = noise_covariance_at(model, model.w_o, 10**6, np.random.default_rng(2))
        expected = 4.0 * su2 * sv2
        assert abs(est[0, 0] - expected) / expected < 0.05

    def test_zero_noise_model(self):
        model = QuadraticCost(r_u=1.0, sigma_v2=0.0, w_o=[1.0])
        est = noise_covariance_at(model, model.w_o, 1000, np.random.default_rng(3))
        assert np.all(est == 0.0)

    def test_rejects_small_sample_counts(self):
        model = QuadraticCost(r_u=1.0, sigma_v2=0.1, w_o=[1.0])
        with pytest.raises(ValueError):
            noise_covariance_at(model, model.w_o, 999, np.random.default_rng(0))

    def test_offset_point_dominates_in_psd_order(self):
        model = QuadraticCost(r_u=[[1.0, 0.2], [0.2, 0.8]], sigma_v2=0.05, w_o=[1.0, -0.5])
        est = noise_covariance_at(model, [0.2, 0.2], 300000, np.random.default_rng(4))
        floor = 4.0 * model.sigma_v2 * model.r_u
        assert np.linalg.eigvalsh(est - floor).min() > 0

    def test_gaussian_closed_form_matches_sampling(self):
        model = QuadraticCost(r_u=[[1.0, 0.2], [0.2, 0.8]], sigma_v2=0.05, w_o=[1.0, -0.5])
        point = np.array([0.3, 0.2])
        est = noise_covariance_at(model, point, 10**6, np.random.default_rng(5))
        exact = model.noise_covariance(point)
        assert np.abs(est - exact).max() / np.abs(exact).max() < 0.02

    def test_streams_chunks_from_the_callers_generator(self):
        model = LogisticCost(rho=0.1, sampler=EllipseSampler(), eval_samples=2000)
        point = np.linspace(-0.3, 0.3, 6)
        n = 150000
        sizes = (NOISE_CHUNK, NOISE_CHUNK, n - 2 * NOISE_CHUNK)
        assert sizes[-1] == 18928
        est = noise_covariance_at(model, point, n, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        mean = model.true_gradient(point)
        gram = np.zeros((6, 6))
        for size in sizes:
            noise = model.gradient_rows(point, model.draw_batch(rng, size)) - mean
            gram += noise.T @ noise
        expected = gram / n
        assert np.abs(est - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_memory_does_not_grow_with_sample_count(self):
        model = LogisticCost(rho=0.1, sampler=EllipseSampler(), eval_samples=2000)
        point = np.linspace(-0.3, 0.3, 6)
        model.true_gradient(point)  # builds the cached evaluation design
        tracemalloc.start()
        try:
            noise_covariance_at(model, point, 10**6, np.random.default_rng(10))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one chunk needs about 12 MB; the whole 1M-sample batch at once needs about 115 MB
        assert peak < 24 * 2**20

    def test_zero_mean_noise_within_clt_bound(self):
        n = 100000
        for model, point in (
            (QuadraticCost(r_u=1.0, sigma_v2=0.2, w_o=[1.0, 0.0]), np.array([0.4, 0.1])),
            (make_logistic(), np.array([0.3, 0.3])),
        ):
            batch = model.draw_batch(np.random.default_rng(6), n)
            noise = model.gradient_rows(point, batch) - model.true_gradient(point)
            g = model.noise_covariance(point)
            if g is None:
                g = noise.T @ noise / n
            bound = 4.0 * np.sqrt(np.trace(g) / n)
            assert np.linalg.norm(noise.mean(axis=0)) <= bound


class TestHessians:
    def test_quadratic_identity_covariance(self):
        model = QuadraticCost(r_u=2.0, sigma_v2=0.0, w_o=[0.0, 0.0])
        assert np.array_equal(model.hessian([0.0, 0.0]), 4.0 * np.eye(2))

    def test_logistic_quarter_curvature_at_origin(self):
        model = make_logistic(rho=0.1)
        gamma, h = model._eval_batch
        expected = 0.1 * np.eye(2) + 0.25 * h.T @ h / h.shape[0]
        assert np.abs(model.hessian(np.zeros(2)) - expected).max() < 1e-12

    def test_logistic_hessian_against_gradient_differences(self):
        model = make_logistic(rho=0.05)
        w = np.array([0.2, -0.4])
        hess = model.hessian(w)
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
            h = model.hessian(np.asarray(point))
            assert np.abs(h - h.T).max() <= 1e-10


class TestSamplers:
    def test_two_class_labels_and_shapes(self):
        sampler = TwoClassGaussianSampler(mean_pos=[2.0, 0.0], mean_neg=[-2.0, 0.0])
        gamma, h = sampler.draw(np.random.default_rng(0), 5000)
        assert set(np.unique(gamma)) == {-1.0, 1.0}
        assert h.shape == (5000, 2)
        assert h[gamma > 0, 0].mean() > 1.5
        assert h[gamma < 0, 0].mean() < -1.5

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

    def test_zero_data_gradient_keeps_regularizer(self):
        inner = make_logistic(rho=0.2, eval_samples=1000)
        model = ZeroedObservations(inner)
        sample = tuple(f[0] for f in model.draw_batch(np.random.default_rng(1), 1))
        w = np.array([1.0, -2.0])
        assert model.gradient_rows(w, sample) == pytest.approx(0.2 * w)


def test_logistic_pickles_without_its_design():
    # with its cached 200k-sample design, the model pickled to 4.8 MB
    model = make_logistic()
    w = np.array([0.3, -0.2])
    gradient, hessian = model.true_gradient(w), model.hessian(w)
    data = pickle.dumps(model)
    assert len(data) < 10_000
    copy = pickle.loads(data)
    assert np.array_equal(copy.true_gradient(w), gradient)
    assert np.array_equal(copy.hessian(w), hessian)
