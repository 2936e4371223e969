"""Logistic theory path: pinned bits, and one pass over each design per point.

The digests were computed when ``EllipseSampler.draw`` and
``quadratic_features`` built their arrays with ``np.column_stack``, the
logistic gradient and Hessian each made their own pass over the evaluation
design, and ``pareto_solve`` evaluated every accepted Newton point twice.
The two-agent MSD report was taken again when that preset's W became exactly
1 (it was 0.9999999999999991, from the cancelled 1 - 0.97), again when its
1M-sample noise covariance estimate began to be drawn in fixed chunks, and
again when that estimate gave way to ``LogisticCost.noise_covariance``, the
exact covariance over the model's own evaluation design, which draws nothing.
"""
import hashlib

import numpy as np
import pytest

from atcnet import costs, workflows
from atcnet.config import load_preset
from atcnet.costs import (
    EllipseSampler,
    LogisticCost,
    QuadraticCost,
    TwoClassGaussianSampler,
    ZeroedObservations,
    quadratic_features,
)
from atcnet.performance import pareto_solve

SHA256 = {
    "draw": "be123302ce533b506afdbc2b51b409c77257fed0ca52531e07666bc0057ac18b",
    "draw_outliers": "3b8e7aa6e46cab375a567d44da59fd54800fa06e210ee0e8656ccb44a68dfcf5",
    "quadratic_features": "0a644e71510687bc96b29f3eb7350bbb5d55f883426c57ce12c6b0e72396ddb6",
    "pareto": "2c1240b65794b87c4cb7782324a0a085cd5b0543eeef2c0a414d3b313dcb02b2",
    "msd_two_agent_logistic": "4f9e5bf96bb2359f062486a3aed95f5d09fb47ae54b385636ae1565a57899e72",
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
    grad, hess = model.gradient_and_hessian(w)
    assert np.array_equal(grad, model.true_gradient(w))
    assert np.array_equal(hess, model.hessian(w))


def test_newton_evaluates_each_design_once_per_point(monkeypatch):
    """K accepted Newton steps take K + 1 passes over each model's design."""
    sizes = (3000, 3001, 3002)  # tells the models' passes apart
    passes = {n: 0 for n in sizes}
    sigmoid = costs.inv_one_plus_exp

    def counted(z):
        passes[np.shape(z)[0]] += 1
        return sigmoid(z)

    solve = np.linalg.solve
    steps = []

    def counted_solve(a, b):
        steps.append(1)
        return solve(a, b)

    models = ellipse_models(sizes)
    monkeypatch.setattr(costs, "inv_one_plus_exp", counted)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    w = pareto_solve(models, np.array([0.2, 0.5, 0.3]))
    monkeypatch.undo()

    residual = sum(qk * m.true_gradient(w) for qk, m in zip([0.2, 0.5, 0.3], models))
    assert np.abs(residual).max() < 1e-10
    k = len(steps)
    assert k >= 2
    assert passes == {n: k + 1 for n in sizes}
