"""Per-agent stochastic cost models.

Each model exposes the true gradient and Hessian of its expected loss,
instantaneous stochastic gradients computed from streaming samples (one
broadcasting entry point, ``gradient_rows``), and batched sampling with
caller-owned random generators so parallel runs keep disjoint streams. The
expected stochastic gradient equals the true gradient (zero-mean gradient
noise).
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch


def inv_one_plus_exp(z):
    """1 / (1 + exp(z)) without overflow, branching on the sign of z."""
    z = np.asarray(z, dtype=float)
    return np.exp(-np.maximum(z, 0.0)) / (1.0 + np.exp(-np.abs(z)))


def finite_difference_gradient(f, point, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function; validation oracle."""
    point = np.atleast_1d(np.asarray(point, dtype=float))
    grad = np.empty_like(point)
    for i in range(point.size):
        step = np.zeros_like(point)
        step[i] = eps
        grad[i] = (f(point + step) - f(point - step)) / (2.0 * eps)
    return grad


class CostModel(ABC):
    """Interface shared by all per-agent cost models."""

    dimension: int
    # attributes ``gradient_rows`` reads, passed per agent when agents are batched
    gradient_params: tuple[str, ...] = ()

    @property
    def gradient_source(self) -> "CostModel":
        """The model whose ``gradient_rows`` and parameters serve this one's samples."""
        return self

    @abstractmethod
    def true_gradient(self, w: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def hessian(self, w: np.ndarray) -> np.ndarray: ...

    def gradient_and_hessian(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(true_gradient(w), hessian(w))``; sampled models share one pass."""
        return self.true_gradient(w), self.hessian(w)

    @abstractmethod
    def true_loss(self, w: np.ndarray) -> float: ...

    @abstractmethod
    def draw_batch(self, rng: np.random.Generator, n: int) -> tuple: ...

    @abstractmethod
    def sample_loss(self, w: np.ndarray, sample: tuple) -> float: ...

    @abstractmethod
    def gradient_rows(self, w_rows: np.ndarray, fields: tuple, **params) -> np.ndarray:
        """Row-wise stochastic gradients: one sample and one point per row.

        Points (..., M) and sample fields broadcast over their leading axes.
        ``params`` override the attributes named in ``gradient_params``, for
        instance with one value per agent that broadcasts like the points.
        """

    def noise_covariance(self, at: np.ndarray) -> np.ndarray | None:
        """Closed-form gradient-noise covariance, if the model has one."""
        return None


def _as_spd_matrix(spec, m: int, name: str) -> np.ndarray:
    arr = np.asarray(spec, dtype=float)
    if arr.ndim == 0:
        arr = float(arr) * np.eye(m)
    elif arr.ndim == 1:
        if arr.shape[0] != m:
            raise DimensionMismatch(f"{name} diagonal has length {arr.shape[0]}, expected {m}")
        arr = np.diag(arr)
    elif arr.shape != (m, m):
        raise DimensionMismatch(f"{name} has shape {arr.shape}, expected ({m}, {m})")
    return arr


@dataclass(frozen=True, eq=False)
class QuadraticCost(CostModel):
    """Mean-square-error cost over a linear regression stream.

    Samples are pairs (u, d) with d = u.w_o + v, Gaussian regressor u with
    covariance r_u and white observation noise v of variance sigma_v2. The
    true gradient is 2 r_u (w - w_o) and the Hessian the constant 2 r_u.
    """

    r_u: np.ndarray
    sigma_v2: float
    w_o: np.ndarray

    def __init__(self, r_u, sigma_v2, w_o):
        w_o = np.atleast_1d(np.asarray(w_o, dtype=float))
        object.__setattr__(self, "w_o", w_o)
        object.__setattr__(self, "sigma_v2", float(sigma_v2))
        object.__setattr__(self, "r_u", _as_spd_matrix(r_u, w_o.shape[0], "r_u"))
        if self.sigma_v2 < 0:
            raise ValueError("sigma_v2 must be nonnegative")

    @property
    def dimension(self) -> int:
        return self.w_o.shape[0]

    @cached_property
    def _chol(self) -> np.ndarray:
        return np.linalg.cholesky(self.r_u)

    def true_gradient(self, w):
        return 2.0 * self.r_u @ (np.asarray(w, dtype=float) - self.w_o)

    def hessian(self, w):
        return 2.0 * self.r_u

    def true_loss(self, w):
        err = np.asarray(w, dtype=float) - self.w_o
        return float(err @ self.r_u @ err + self.sigma_v2)

    def draw_batch(self, rng, n):
        u = rng.standard_normal((n, self.dimension)) @ self._chol.T
        v = rng.normal(0.0, np.sqrt(self.sigma_v2), n)
        d = u @ self.w_o + v
        return u, d

    def sample_loss(self, w, sample):
        u, d = sample
        return float((d - u @ w) ** 2)

    def gradient_rows(self, w_rows, fields):
        u, d = fields
        inner = np.einsum("...m,...m->...", u, w_rows)
        return 2.0 * u * (inner - d)[..., None]

    def noise_covariance(self, at):
        """Gaussian-regressor closed form, exact at any evaluation point."""
        wt = np.asarray(at, dtype=float) - self.w_o
        r = self.r_u
        rw = r @ wt
        return 4.0 * (np.outer(rw, rw) + (wt @ rw) * r) + 4.0 * self.sigma_v2 * r


class FeatureSampler(ABC):
    """Label/feature generator plugged into a logistic cost."""

    dimension: int

    @abstractmethod
    def draw(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Return labels (n,) in {+1, -1} and features (n, dimension)."""


@dataclass(frozen=True, eq=False)
class TwoClassGaussianSampler(FeatureSampler):
    """Features drawn from one Gaussian per class."""

    mean_pos: np.ndarray
    mean_neg: np.ndarray
    cov: np.ndarray
    p_pos: float = 0.5

    def __init__(self, mean_pos, mean_neg, cov=1.0, p_pos=0.5):
        mean_pos = np.atleast_1d(np.asarray(mean_pos, dtype=float))
        mean_neg = np.atleast_1d(np.asarray(mean_neg, dtype=float))
        if mean_pos.shape != mean_neg.shape:
            raise DimensionMismatch("class means differ in dimension")
        object.__setattr__(self, "mean_pos", mean_pos)
        object.__setattr__(self, "mean_neg", mean_neg)
        object.__setattr__(self, "cov", _as_spd_matrix(cov, mean_pos.shape[0], "cov"))
        object.__setattr__(self, "p_pos", float(p_pos))

    @property
    def dimension(self) -> int:
        return self.mean_pos.shape[0]

    @cached_property
    def _chol(self) -> np.ndarray:
        return np.linalg.cholesky(self.cov)

    def draw(self, rng, n):
        gamma = np.where(rng.random(n) < self.p_pos, 1.0, -1.0)
        means = np.where(gamma[:, None] > 0, self.mean_pos, self.mean_neg)
        h = means + rng.standard_normal((n, self.dimension)) @ self._chol.T
        return gamma, h


def quadratic_features(points: np.ndarray) -> np.ndarray:
    """Map 2-D points to the feature vector (5, x, y, x^2, y^2, x y)."""
    x, y = points[:, 0], points[:, 1]
    out = np.empty((x.shape[0], 6))
    out[:, 0] = 5.0
    out[:, 1] = x
    out[:, 2] = y
    np.multiply(x, x, out=out[:, 3])
    np.multiply(y, y, out=out[:, 4])
    np.multiply(x, y, out=out[:, 5])
    return out


@dataclass(frozen=True)
class EllipseSampler(FeatureSampler):
    """Two classes separated by an ellipse, with optional outlier cluster.

    Class +1 points concentrate inside the ellipse (x/a)^2 + (y/b)^2 = 1,
    class -1 points fill a radial band outside it. A fraction of the +1
    draws can be relocated to a Gaussian cluster away from the origin to
    model outlier data. Features are the quadratic map of the 2-D point.
    """

    semi_axes: tuple[float, float] = (2.0, 1.0)
    outside_band: tuple[float, float] = (1.3, 2.2)
    p_pos: float = 0.5
    outlier_fraction: float = 0.0
    outlier_center: tuple[float, float] = (6.0, 6.0)
    outlier_std: float = 0.5

    dimension = 6

    def draw(self, rng, n):
        gamma = np.where(rng.random(n) < self.p_pos, 1.0, -1.0)
        a, b = self.semi_axes
        theta = rng.uniform(0.0, 2.0 * np.pi, n)
        radius = np.where(
            gamma > 0,
            0.9 * np.sqrt(rng.random(n)),
            rng.uniform(*self.outside_band, n),
        )
        pts = np.empty((n, 2))
        np.multiply(a * radius, np.cos(theta), out=pts[:, 0])
        np.multiply(b * radius, np.sin(theta), out=pts[:, 1])
        if self.outlier_fraction > 0.0:
            hit = (gamma > 0) & (rng.random(n) < self.outlier_fraction)
            cluster = np.asarray(self.outlier_center) + self.outlier_std * rng.standard_normal((int(hit.sum()), 2))
            pts[hit] = cluster
        return gamma, quadratic_features(pts)


@dataclass(frozen=True, eq=False)
class LogisticCost(CostModel):
    """Regularized logistic loss over a streaming label/feature source.

    The expected loss (rho / 2) ||w||^2 + E ln(1 + exp(-gamma h.w)) has no
    closed-form gradient, so ``true_gradient``, ``hessian`` and ``true_loss``
    are sample averages over a fixed internal design of ``eval_samples``
    draws (seeded by ``eval_seed``), which keeps them deterministic.
    """

    rho: float
    sampler: FeatureSampler
    eval_samples: int = 200000
    eval_seed: int = 0

    gradient_params = ("rho",)

    @property
    def dimension(self) -> int:
        return self.sampler.dimension

    @cached_property
    def _eval_batch(self) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(self.eval_seed)
        return self.sampler.draw(rng, self.eval_samples)

    def _design_sigmoid(self, w):
        """1 / (1 + exp(gamma h.w)) over the evaluation design: one product with h."""
        gamma, h = self._eval_batch
        return inv_one_plus_exp(gamma * (h @ w))

    def _gradient(self, w, sig):
        gamma, h = self._eval_batch
        return self.rho * w - (gamma * sig) @ h / gamma.shape[0]

    def _hessian(self, sig):
        _, h = self._eval_batch
        weights = sig * (1.0 - sig)
        return self.rho * np.eye(self.dimension) + (h * weights[:, None]).T @ h / h.shape[0]

    def true_gradient(self, w):
        w = np.asarray(w, dtype=float)
        return self._gradient(w, self._design_sigmoid(w))

    def hessian(self, w):
        return self._hessian(self._design_sigmoid(np.asarray(w, dtype=float)))

    def gradient_and_hessian(self, w):
        w = np.asarray(w, dtype=float)
        sig = self._design_sigmoid(w)
        return self._gradient(w, sig), self._hessian(sig)

    def true_loss(self, w):
        gamma, h = self._eval_batch
        w = np.asarray(w, dtype=float)
        data = np.logaddexp(0.0, -gamma * (h @ w)).mean()
        return float(0.5 * self.rho * (w @ w) + data)

    def draw_batch(self, rng, n):
        return self.sampler.draw(rng, n)

    def sample_loss(self, w, sample):
        gamma, h = sample
        w = np.asarray(w, dtype=float)
        return float(0.5 * self.rho * (w @ w) + np.logaddexp(0.0, -gamma * (h @ w)))

    def gradient_rows(self, w_rows, fields, rho=None):
        """Data term -gamma h / (1 + exp(gamma h.w)) plus the regularizer rho w."""
        gamma, h = fields
        z = gamma * np.einsum("...m,...m->...", h, w_rows)
        grad = -(gamma * inv_one_plus_exp(z))[..., None] * h
        grad += (self.rho if rho is None else rho) * w_rows
        return grad


@dataclass(frozen=True, eq=False)
class ZeroedObservations(CostModel):
    """Wrapper that blanks out a model's data stream.

    Draws consume the same random numbers as the wrapped model but every
    feature/observation is replaced by zero, so the agent keeps taking
    steps (of zero data gradient) without contributing any information.
    """

    inner: CostModel

    @property
    def dimension(self) -> int:
        return self.inner.dimension

    @property
    def gradient_source(self) -> CostModel:
        return self.inner.gradient_source

    def true_gradient(self, w):
        return self.inner.true_gradient(w)

    def hessian(self, w):
        return self.inner.hessian(w)

    def gradient_and_hessian(self, w):
        return self.inner.gradient_and_hessian(w)

    def true_loss(self, w):
        return self.inner.true_loss(w)

    def draw_batch(self, rng, n):
        return tuple(
            np.zeros_like(np.asarray(f, dtype=float))
            for f in self.inner.draw_batch(rng, n)
        )

    def sample_loss(self, w, sample):
        return self.inner.sample_loss(w, sample)

    def gradient_rows(self, w_rows, fields, **params):
        return self.inner.gradient_rows(w_rows, fields, **params)


# samples per chunk of a streamed covariance estimate; fixed, so results are deterministic
NOISE_CHUNK = 65536


def noise_covariance_at(
    model: CostModel,
    point: np.ndarray,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Empirical (M, M) covariance of the gradient noise at one point.

    The ``n_samples`` draws come from ``rng`` in consecutive chunks of at most
    ``NOISE_CHUNK`` samples, whose centred Gram matrices are summed, so memory
    does not grow with the sample count. An estimate from at most one chunk
    equals the one-shot ``noise.T @ noise / n_samples`` bit for bit.
    """
    if n_samples < 1000:
        raise ValueError("covariance estimation needs n_samples >= 1000")
    point = np.asarray(point, dtype=float)
    mean = model.true_gradient(point)
    gram = np.zeros((mean.shape[0], mean.shape[0]))
    for start in range(0, n_samples, NOISE_CHUNK):
        batch = model.draw_batch(rng, min(NOISE_CHUNK, n_samples - start))
        noise = model.gradient_rows(point, batch)
        noise -= mean
        gram += noise.T @ noise
    return gram / n_samples
