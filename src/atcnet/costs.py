"""Per-agent stochastic cost models.

A model has one entry point per job. On the true side,
``gradient_and_hessian`` gives the expected loss with its gradient and
Hessian, ``true_gradient`` the gradient alone, and ``noise_covariance``
the covariance of the gradient noise. On the sample side, ``draw_into``
fills caller-owned (runs, samples, ...) arrays shaped by ``field_shapes``,
one random stream per run, and applies the model's fixed transforms
(Cholesky factor, noise scale, class means, label signs) once for all
runs; ``draw_batch`` is ``draw_into`` on one stream. What ``draw_into``
writes is the one sample format, (u, d) for the quadratic and the signed
features s = gamma h for the logistic, and ``gradient_rows`` (the one
broadcasting stochastic gradient) and ``sample_loss`` read it as it is.
Doubling and gamma = +-1 are exact, so the gradients have the bits of the
textbook formulas. The expected stochastic gradient equals the true
gradient (zero-mean gradient noise).
"""
from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch

# rows per block of a logistic design walk: the fastest of 2048-65536 measured, with small temporaries
BLOCK_ROWS = 8192


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
    # rows of the fixed evaluation design behind the true gradient; None without
    # one. A model with a design gives ``prefix(rows)``: itself on its first rows.
    design_rows: int | None = None

    @property
    def gradient_source(self) -> "CostModel":
        """The model whose ``gradient_rows`` and parameters serve this one's samples."""
        return self

    @abstractmethod
    def true_gradient(self, w: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def gradient_and_hessian(self, w: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """The expected loss at ``w``, its gradient (``true_gradient(w)``) and its Hessian."""

    def separated_by(self, w: np.ndarray) -> bool:
        """Whether the loss is unregularized and w separates its design: no minimizer then."""
        return False

    @property
    @abstractmethod
    def field_shapes(self) -> tuple[tuple[int, ...], ...]:
        """Shape of one sample of each field, in the order ``draw_into`` fills them."""

    @abstractmethod
    def draw_into(self, rngs, fields) -> None:
        """Fill ``fields[f][r]``, (n, ...) C-contiguous, with n samples from ``rngs[r]``.

        ``fields`` are (runs, n, ...) arrays shaped by ``field_shapes``; run r
        reads only its own generator, in the order ``draw_batch`` would.
        """

    def draw_batch(self, rng: np.random.Generator, n: int) -> tuple:
        """``n`` samples from ``rng``: ``draw_into`` on a single run."""
        fields = tuple(np.empty((1, n) + shape) for shape in self.field_shapes)
        self.draw_into([rng], fields)
        return tuple(f[0] for f in fields)

    @abstractmethod
    def sample_loss(self, w: np.ndarray, sample: tuple) -> float: ...

    @abstractmethod
    def gradient_rows(self, w_rows: np.ndarray, fields: tuple, out=None, **params) -> np.ndarray:
        """Row-wise stochastic gradients: one sample and one point per row.

        Points (..., M) and sample fields, as ``draw_into`` writes them,
        broadcast over their leading axes; the gradients go into ``out`` when
        given. ``params`` override the attributes named in
        ``gradient_params``, for instance with one value per agent that
        broadcasts like the points.
        """

    @abstractmethod
    def noise_covariance(self, at: np.ndarray) -> np.ndarray:
        """(M, M) covariance of the stochastic gradient at ``at`` about ``true_gradient(at)``."""


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

    def gradient_and_hessian(self, w):
        err = np.asarray(w, dtype=float) - self.w_o
        return float(err @ self.r_u @ err + self.sigma_v2), self.true_gradient(w), 2.0 * self.r_u

    @property
    def field_shapes(self):
        return (self.dimension,), ()

    def draw_into(self, rngs, fields):
        """u = z L^T and d = u.w_o + v, with z (n, M) then v (n,) standard normal per stream."""
        u, d = fields
        for rng, u_run, d_run in zip(rngs, u, d):
            rng.standard_normal(out=u_run)
            rng.standard_normal(out=d_run)
        d *= np.sqrt(self.sigma_v2)
        d += 0.0  # rng.normal's zero mean: it turns a -0.0 noise into 0.0
        # the products run per (n, M) run block, as on a single stream
        np.matmul(u, self._chol.T, out=u)
        d += u @ self.w_o

    def sample_loss(self, w, sample):
        u, d = sample
        return float((d - u @ w) ** 2)

    def gradient_rows(self, w_rows, fields, out=None):
        """2u (u.w - d), doubled as u (2 (u.w - d)): doubling is exact, so the bits agree."""
        u, d = fields
        t = np.einsum("...m,...m->...", u, w_rows)
        t -= d
        t *= 2.0
        return np.multiply(u, t[..., None], out=out)

    def noise_covariance(self, at):
        """Gaussian-regressor closed form, exact at any evaluation point."""
        wt = np.asarray(at, dtype=float) - self.w_o
        r = self.r_u
        rw = r @ wt
        return 4.0 * (np.outer(rw, rw) + (wt @ rw) * r) + 4.0 * self.sigma_v2 * r


class FeatureSampler(ABC):
    """Label/feature generator plugged into a logistic cost; it also stores the cost's design."""

    dimension: int

    @abstractmethod
    def draw_into(self, rngs, gamma: np.ndarray, h: np.ndarray) -> None:
        """Fill labels ``gamma[r]`` (n,) in {+1, -1} and features ``h[r]`` (n, dimension)
        from ``rngs[r]``, each C-contiguous, for every run r."""

    def draw(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Return labels (n,) in {+1, -1} and features (n, dimension)."""
        gamma, h = np.empty((1, n)), np.empty((1, n, self.dimension))
        self.draw_into([rng], gamma, h)
        return gamma[0], h[0]

    def draw_design(self, rng: np.random.Generator, n: int):
        """The stored form of ``draw(rng, n)``: by default its signed features gamma h, (n, dimension)."""
        gamma, h = self.draw(rng, n)
        return np.multiply(h, gamma[:, None], out=h)

    def design_blocks(self, design, rows: int):
        """The signed features of ``design``'s first ``rows`` rows, in C-contiguous blocks of <= BLOCK_ROWS rows."""
        for start in range(0, rows, BLOCK_ROWS):
            yield design[start : min(start + BLOCK_ROWS, rows)]


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

    def draw_into(self, rngs, gamma, h):
        """Per stream, a uniform (n,) for the labels, then z (n, M); h = mean + z L^T.

        The labels go into ``gamma`` and h into ``h`` in place: z L^T a block of rows at a
        time (an ``out`` that overlaps the input copies only that block), then each class
        mean is added to its rows."""
        for rng, gamma_run, h_run in zip(rngs, gamma, h):
            positive = rng.random(out=gamma_run) < self.p_pos
            rng.standard_normal(out=h_run)
            np.multiply(positive, 2.0, out=gamma_run)
            gamma_run -= 1.0
            for start in range(0, len(h_run), BLOCK_ROWS):
                block = h_run[start : start + BLOCK_ROWS]
                np.matmul(block, self._chol.T, out=block)
            np.add(h_run, self.mean_pos, out=h_run, where=positive[:, None])
            np.logical_not(positive, out=positive)
            np.add(h_run, self.mean_neg, out=h_run, where=positive[:, None])


def quadratic_features(points: np.ndarray) -> np.ndarray:
    """Map 2-D points to the feature vector (5, x, y, x^2, y^2, x y)."""
    out = np.empty((points.shape[0], 6))
    out[:, 1:3] = points
    _fill_quadratic_features(out)
    return out


def _fill_quadratic_features(out: np.ndarray) -> None:
    """Complete rows (_, x, y, _, _, _) of ``out`` in place to (5, x, y, x^2, y^2, x y)."""
    x, y = out[..., 1], out[..., 2]
    out[..., 0] = 5.0
    np.multiply(x, x, out=out[..., 3])
    np.multiply(y, y, out=out[..., 4])
    np.multiply(x, y, out=out[..., 5])


@dataclass(frozen=True)
class EllipseSampler(FeatureSampler):
    """Two classes separated by an ellipse, with optional outlier cluster.

    Class +1 points concentrate inside the ellipse (x/a)^2 + (y/b)^2 = 1,
    class -1 points fill a radial band outside it. A fraction of the +1
    draws can be relocated to a Gaussian cluster away from the origin to
    model outlier data. Features are the quadratic map of the 2-D point. A
    design is stored as its int8 labels and (2, n) points, 17 bytes a row,
    and one (BLOCK_ROWS, 6) buffer that each block of it is mapped into.
    """

    semi_axes: tuple[float, float] = (2.0, 1.0)
    outside_band: tuple[float, float] = (1.3, 2.2)
    p_pos: float = 0.5
    outlier_fraction: float = 0.0
    outlier_center: tuple[float, float] = (6.0, 6.0)
    outlier_std: float = 0.5

    dimension = 6

    def _draw_points(self, rngs, x, y, spare):
        """Points (x[r], y[r]) from ``rngs[r]``; returns the mask of class +1. Per stream, uniforms for
        the labels, angles, inner and outer radii (and outliers) in that order, into ``spare`` and two
        scratch arrays; then one map to points over all streams, with the bits of ``rng.uniform``."""
        (a, b), (lo, hi) = self.semi_axes, self.outside_band
        positive, theta, radius = np.empty(spare.shape, dtype=bool), np.empty(spare.shape), np.empty(spare.shape)
        outliers = []
        for r, rng in enumerate(rngs):
            np.less(rng.random(out=spare[r]), self.p_pos, out=positive[r])
            for uniforms in (theta, radius, spare):  # angles, inner and outer radii
                rng.random(out=uniforms[r])
            if self.outlier_fraction > 0.0:  # the draw's size depends on the labels
                hit = positive[r] & (rng.random(spare.shape[1]) < self.outlier_fraction)
                outliers.append((r, hit, self.outlier_std * rng.standard_normal((int(hit.sum()), 2))))
        theta *= 2.0 * np.pi  # rng.uniform(0, 2 pi)'s bits
        np.sqrt(radius, out=radius)
        radius *= 0.9  # inside: 0.9 sqrt(u)
        spare *= hi - lo
        spare += lo  # outside: rng.uniform(lo, hi)'s bits
        np.copyto(radius, spare, where=~positive)
        np.multiply(radius, a, out=x)
        np.multiply(radius, b, out=y)
        x *= np.cos(theta, out=radius)
        y *= np.sin(theta, out=theta)
        for r, hit, cluster in outliers:
            x[r, hit], y[r, hit] = (cluster + self.outlier_center).T
        return positive

    def draw_into(self, rngs, gamma, h):
        """Each point into its row of ``h``, mapped there; labels, +1 inside and -1 outside, into ``gamma``."""
        positive = self._draw_points(rngs, h[..., 1], h[..., 2], gamma)
        np.multiply(positive, 2.0, out=gamma)
        gamma -= 1.0
        _fill_quadratic_features(h)

    def draw_design(self, rng, n):
        """(labels, points, buffer): int8 labels (n,), points (2, n) and the block buffer."""
        points = np.empty((2, 1, n))
        positive = self._draw_points([rng], points[0], points[1], np.empty((1, n)))[0]
        return 2 * positive.astype(np.int8) - 1, points[:, 0], np.empty((min(n, BLOCK_ROWS), 6))

    def design_blocks(self, design, rows):
        """Blocks written into the buffer as gamma (5, x, y), (gamma x) x, (gamma y) y, (gamma x) y: gamma h's bits."""
        labels, (x, y), buffer = design
        for start in range(0, rows, BLOCK_ROWS):
            at = slice(start, min(start + BLOCK_ROWS, rows))
            gamma, columns = labels[at], buffer[: at.stop - start].T
            np.multiply(gamma, 5.0, out=columns[0])
            np.multiply(gamma, x[at], out=columns[1])
            np.multiply(gamma, y[at], out=columns[2])
            np.multiply(columns[1], x[at], out=columns[3])
            np.multiply(columns[2], y[at], out=columns[4])
            np.multiply(columns[1], y[at], out=columns[5])
            yield columns.T


@dataclass(frozen=True, eq=False)
class LogisticCost(CostModel):
    """Regularized logistic loss over a streaming label/feature source.

    The expected loss (rho / 2) ||w||^2 + E ln(1 + exp(-gamma h.w)) has no
    closed-form gradient, so ``true_gradient``, ``gradient_and_hessian``
    and ``noise_covariance`` are sample averages over a fixed design of
    ``eval_samples`` draws (seeded by ``eval_seed``), summed over blocks of
    its rows, so that nothing design-sized is formed. A sample is one field,
    the signed features s = gamma h: gamma = +-1 only flips signs, so every
    product and sum over s has the bits of the same one over gamma and h.
    The sampler stores the design, drawn on first use, and hands out its
    blocks of s; a shallow copy of the model shares a design already drawn
    and keeps one it draws to itself.
    """

    rho: float
    sampler: FeatureSampler
    eval_samples: int = 200000
    eval_seed: int = 0

    gradient_params = ("rho",)

    @property
    def dimension(self) -> int:
        return self.sampler.dimension

    @property
    def design_rows(self) -> int:
        return self.eval_samples

    @cached_property
    def _design(self):
        """The evaluation design, in the sampler's stored form."""
        return self.sampler.draw_design(np.random.default_rng(self.eval_seed), self.eval_samples)

    def _blocks(self):
        return self.sampler.design_blocks(self._design, self.eval_samples)

    def prefix(self, rows):
        """The same loss over the first ``rows`` rows of this design, which the first prefix draws and all share."""
        coarse = replace(self, eval_samples=rows)
        coarse.__dict__["_design"] = self._design
        return coarse

    def _pass(self, w, loss=False, weight=None):
        """Means over the design, walked a block of signed features at a time: of ln(1 + exp(-z))
        when ``loss``, of sig s, and of weight(sig) s s^T when a ``weight`` is given, with z = s.w
        and sig = 1 / (1 + exp(z)) formed once per block. The loss is read off the sigmoid as
        -min(z, 0) - log1p(-min(sig, 1 - sig)); a mean not asked for is 0."""
        rows, m = self.eval_samples, self.dimension
        data, first, second = 0.0, np.zeros(m), np.zeros((m, m))
        for block in self._blocks():
            z = block @ w
            sig = inv_one_plus_exp(z)
            if loss:
                small = np.minimum(sig, 1.0 - sig)
                data -= np.minimum(z, 0.0).sum() + np.log1p(np.negative(small, out=small), out=small).sum()
            first += sig @ block
            if weight is not None:
                second += (block * weight(sig)[:, None]).T @ block
        return data / rows, first / rows, second / rows

    def true_gradient(self, w):
        w = np.asarray(w, dtype=float)
        return self.rho * w - self._pass(w)[1]

    def gradient_and_hessian(self, w):
        w = np.asarray(w, dtype=float)
        data, mean, gram = self._pass(w, loss=True, weight=lambda sig: sig * (1.0 - sig))
        hessian = self.rho * np.eye(self.dimension) + gram
        return float(0.5 * self.rho * (w @ w) + data), self.rho * w - mean, hessian

    def separated_by(self, w):
        """rho = 0 and every margin s.w positive; the walk stops at the first block with one that is not."""
        w = np.asarray(w, dtype=float)
        return self.rho == 0 and all((block @ w > 0).all() for block in self._blocks())

    def noise_covariance(self, at):
        """Covariance of the sampled gradients over the evaluation design.

        The gradient at sample i is rho w - sigma_i s_i with
        sigma_i = 1 / (1 + exp(s_i.w)), so with g = (1/n) sum_i sigma_i s_i
        the covariance is (1/n) sum_i sigma_i^2 s_i s_i^T - g g^T.
        """
        _, mean, gram = self._pass(np.asarray(at, dtype=float), weight=np.square)
        return gram - np.outer(mean, mean)

    @property
    def field_shapes(self):
        return ((self.dimension,),)

    def draw_into(self, rngs, fields):
        """The sampler's labels gamma and features h, multiplied into s = gamma h in place."""
        (signed,) = fields
        gamma = np.empty(signed.shape[:-1])
        self.sampler.draw_into(rngs, gamma, signed)
        np.multiply(signed, gamma[..., None], out=signed)

    def sample_loss(self, w, sample):
        (signed,) = sample
        w = np.asarray(w, dtype=float)
        return float(0.5 * self.rho * (w @ w) + np.logaddexp(0.0, -(signed @ w)))

    def gradient_rows(self, w_rows, fields, out=None, rho=None):
        """Data term -s / (1 + exp(s.w)) plus the regularizer rho w, over signed features s."""
        (signed,) = fields
        sig = inv_one_plus_exp(np.einsum("...m,...m->...", signed, w_rows))[..., None]
        grad = np.multiply(np.negative(sig), signed, out=out)
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

    @property
    def design_rows(self) -> int | None:
        return self.inner.design_rows

    def prefix(self, rows):
        return ZeroedObservations(self.inner.prefix(rows))

    def __copy__(self):
        """A wrapper of a copy of the inner model, so a design the copy draws stays with it."""
        return ZeroedObservations(copy.copy(self.inner))

    def true_gradient(self, w):
        return self.inner.true_gradient(w)

    def gradient_and_hessian(self, w):
        return self.inner.gradient_and_hessian(w)

    def separated_by(self, w):
        return self.inner.separated_by(w)

    @property
    def field_shapes(self):
        return self.inner.field_shapes

    def draw_into(self, rngs, fields):
        self.inner.draw_into(rngs, fields)
        for field in fields:
            field[...] = 0.0

    def sample_loss(self, w, sample):
        return self.inner.sample_loss(w, sample)

    def gradient_rows(self, w_rows, fields, out=None, **params):
        return self.inner.gradient_rows(w_rows, fields, out, **params)

    def noise_covariance(self, at):
        """outer(d, d): every sample gives the same zero-data gradient, d away from the true one."""
        at = np.asarray(at, dtype=float)
        blank = self.draw_batch(np.random.default_rng(0), 1)
        d = self.gradient_rows(at, blank)[0] - self.true_gradient(at)
        return np.outer(d, d)

