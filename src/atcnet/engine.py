"""Synchronous adapt-then-combine diffusion over streaming data.

Every iteration, each agent takes a stochastic-gradient step on its own
sample (adapt) and then convexly averages its neighbors' intermediate
iterates with its combination-matrix column (combine); all adapts complete
before any combine. One batched kernel advances the stacked (runs, agents,
M) iterates of a Monte-Carlo ensemble with one gradient call per model kind
per round, but each (run, agent) pair owns an independent random stream
derived from (master_seed, run_index, agent_id), so results are reproducible
and a single run never depends on how many others execute alongside it.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .costs import CostModel
from .errors import DimensionMismatch, Diverged, InsufficientData
from .topology import CombinationMatrix, _frozen

DIVERGENCE_THRESHOLD = 1e12
DEFAULT_STRIDE = 10
DEFAULT_BURN_IN = 0.5
_BLOCK = 1024


@dataclass(frozen=True, eq=False)
class StepSizeProfile:
    """Per-agent step sizes mu_k = tau_k * mu_max with 0 < tau_k <= 1."""

    mu_max: float
    tau: np.ndarray

    def __init__(self, mu_max, tau):
        tau = np.atleast_1d(np.asarray(tau, dtype=float))
        if not mu_max >= 0:
            raise ValueError("mu_max must be nonnegative")
        if not np.all((tau > 0) & (tau <= 1)):
            raise ValueError("tau entries must lie in (0, 1]")
        object.__setattr__(self, "mu_max", float(mu_max))
        object.__setattr__(self, "tau", _frozen(tau))

    @property
    def n(self) -> int:
        return self.tau.shape[0]

    @property
    def mu(self) -> np.ndarray:
        return self.tau * self.mu_max

    def scaled(self, factor: float) -> "StepSizeProfile":
        return StepSizeProfile(self.mu_max * factor, self.tau)


@dataclass
class NetworkState:
    """Current iterates of all agents, one row per agent."""

    iterates: np.ndarray  # (N, M)
    iteration: int = 0


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Strided per-agent squared-error record of one run."""

    iterations: np.ndarray        # (T,), 1-based completed-iteration counts
    sq_error: np.ndarray          # (T, N)
    iterates: np.ndarray | None   # (T, N, M) when recorded
    seed: int
    run_index: int
    mu_max: float
    stride: int
    mean_iterate_tail: np.ndarray | None = None  # (N, M) when a burn-in was given


@dataclass(frozen=True, eq=False)
class MsdEstimate:
    """Across-run average of time-averaged squared errors after burn-in."""

    per_agent: np.ndarray   # (N,)
    halfwidth: np.ndarray   # (N,), 2 * standard error across runs
    n_runs: int


@dataclass(frozen=True, eq=False)
class LongTermState:
    """State of the constant-Hessian linear error model.

    ``error`` holds the modeled deviation of each agent from its limit
    point; ``hessians`` and ``bias`` are frozen at the limit points, with
    bias_k the negated true gradient there.
    """

    error: np.ndarray     # (N, M)
    hessians: np.ndarray  # (N, M, M)
    bias: np.ndarray      # (N, M)
    iteration: int = 0


def recorded_iterations(iterations: int, stride: int) -> np.ndarray:
    """Completed-iteration counts after which a run records its squared errors."""
    return np.arange(stride, iterations + 1, stride)


def _adapt_combine(weights_t, mu, x, grads):
    """All agents step along ``grads`` (adapt), then all average (combine)."""
    return np.matmul(weights_t, x - mu * grads)


def _check_bounded(x, iteration, threshold):
    """Raise Diverged for the first agent of (runs, N, M) or (N, M) ``x`` beyond ``threshold``."""
    if np.abs(x).max() <= threshold:
        return
    *run, agent, _ = np.argwhere(~(np.abs(x) <= threshold))[0]
    raise Diverged(int(agent), iteration, *map(int, run))


class _Kernel:
    """Batched adapt-then-combine step over stacked (runs, agents, M) iterates.

    Agents whose models share a gradient formula form one kind. Each step
    makes one ``gradient_rows`` call per kind and passes the per-agent
    parameters as arrays that broadcast over runs. A kind's samples sit in
    one (block, runs, agents of the kind, ...) buffer per sample field.
    """

    def __init__(self, a: CombinationMatrix, models, step_sizes: StepSizeProfile):
        self.n = n = a.n
        if len(models) != n:
            raise DimensionMismatch(f"{len(models)} models for {n} agents")
        if step_sizes.n != n:
            raise DimensionMismatch(f"tau has length {step_sizes.n}, expected {n}")
        dims = {model.dimension for model in models}
        if len(dims) != 1:
            raise DimensionMismatch(f"models disagree on dimension: {sorted(dims)}")
        self.m = dims.pop()
        self.models, self.weights_t, self.mu = models, a.weights.T, step_sizes.mu[:, None]
        agents_of: dict[type, list[int]] = {}
        for k, model in enumerate(models):
            agents_of.setdefault(type(model.gradient_source), []).append(k)
        self.kinds = []  # (agent index, gradient source, per-agent parameters)
        self.slot = {}   # agent -> (kind, position within the kind, agents of the kind)
        for g, agents in enumerate(agents_of.values()):
            sources = [models[k].gradient_source for k in agents]
            params = {name: np.array([getattr(s, name) for s in sources])[:, None]
                      for name in sources[0].gradient_params}
            # neighbouring agents are indexed by a slice, which views instead of copying
            contiguous = agents[-1] - agents[0] + 1 == len(agents)
            index = slice(agents[0], agents[-1] + 1) if contiguous else np.array(agents)
            self.kinds.append((index, sources[0], params))
            self.slot.update((k, (g, at, len(agents))) for at, k in enumerate(agents))
        self.buffers = [None] * len(self.kinds)

    def draw(self, rngs, size: int) -> None:
        """Refill the buffers with ``size`` samples per (run, agent).

        Agent k of run r draws from ``rngs[r][k]``; agents draw in order.
        """
        for k, model in enumerate(self.models):
            g, at, count = self.slot[k]
            for r, run_rngs in enumerate(rngs):
                fields = model.draw_batch(run_rngs[k], size)
                if self.buffers[g] is None:
                    shape = (size, len(rngs), count)
                    self.buffers[g] = [np.empty(shape + f.shape[1:]) for f in fields]
                for buf, f in zip(self.buffers[g], fields):
                    buf[:, r, at] = f

    def gradients(self, w: np.ndarray, j: int) -> np.ndarray:
        """Stochastic gradients at points ``w`` (..., runs, N, M) on sample ``j``."""
        out = np.empty(w.shape)
        for (agents, source, params), buffers in zip(self.kinds, self.buffers):
            fields = tuple(b[j] for b in buffers)
            out[..., agents, :] = source.gradient_rows(w[..., agents, :], fields, **params)
        return out

    def run(
        self, limit_points, iterations, n_runs, seed, stride, *, w_init=None,
        record_iterates=False, burn_in_fraction=None, noise_at=None,
        threshold=DIVERGENCE_THRESHOLD, records=None,
    ) -> dict:
        """Iterate from ``w_init`` over independent (seed, run, agent) streams.

        Returns read-only records with runs on the first axis. With
        ``noise_at`` set, the linear model of ``run_paired_long_term`` runs
        alongside. ``records``, when given, is called at each sample-block
        boundary and once at the end with the (runs, records, N) squared
        errors recorded since its previous call.
        """
        n, m, wt, mu = self.n, self.m, self.weights_t, self.mu
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        limit_points = np.asarray(limit_points, dtype=float)
        if limit_points.shape != (n, m):
            raise DimensionMismatch(
                f"limit points have shape {limit_points.shape}, expected {(n, m)}"
            )
        rngs = [[np.random.default_rng([seed, r, k]) for k in range(n)] for r in range(n_runs)]
        rec_iters = recorded_iterations(iterations, stride)
        n_rec = rec_iters.shape[0]
        sq_error = np.empty((n_runs, n_rec, n))
        iterates = np.empty((n_runs, n_rec, n, m)) if record_iterates else None
        tail_from = n_rec if burn_in_fraction is None else int(np.floor(burn_in_fraction * n_rec))
        tail = np.zeros((n_runs, n, m))  # running sum in record order, as numpy's mean adds

        x = np.zeros((n_runs, n, m))
        if w_init is not None:
            x[:] = w_init
        if noise_at is not None:
            lt = long_term_state(self.models, limit_points)
            err = limit_points - x
            sq_model = np.empty_like(sq_error)
            max_gap = np.zeros(n_runs)
            at_limit = np.broadcast_to(limit_points, x.shape)

        sent = 0  # records handed to ``records`` so far
        for i in range(iterations):
            j = i % _BLOCK
            if j == 0:
                if records is not None and i // stride > sent:
                    records(sq_error[:, sent : i // stride])
                    sent = i // stride
                self.draw(rngs, _BLOCK)
            grads = noisy = self.gradients(x, j)
            if noise_at == "limit_point":
                noisy = self.gradients(at_limit, j)
            elif noise_at == "iterate":
                true = [[model.true_gradient(xk) for model, xk in zip(self.models, xr)] for xr in x]
                noisy = noisy - np.array(true) - lt.bias
            if noise_at is not None:
                # The linear model steps along H err - (noise - bias), where noise - bias
                # is ghat(lp) at the limit point and ghat(x) - grad J(x) + grad J(lp) at x.
                linear = np.einsum("kmn,rkn->rkm", lt.hessians, err) - noisy
                err = _adapt_combine(wt, mu, err, linear)
            x = _adapt_combine(wt, mu, x, grads)
            _check_bounded(x, i + 1, threshold)
            if noise_at is not None:
                gap = np.abs((limit_points - x) - err).max(axis=(1, 2))
                np.maximum(max_gap, gap, out=max_gap)
            if (i + 1) % stride == 0:
                rec_at = i // stride
                diff = x - limit_points
                sq_error[:, rec_at] = np.einsum("rkm,rkm->rk", diff, diff)
                if record_iterates:
                    iterates[:, rec_at] = x
                if rec_at >= tail_from:
                    tail += x
                if noise_at is not None:
                    sq_model[:, rec_at] = np.einsum("rkm,rkm->rk", err, err)
        if records is not None and n_rec > sent:
            records(sq_error[:, sent:])
        out = {"iterations": rec_iters, "sq_error": sq_error, "iterates": iterates}
        if burn_in_fraction is not None:
            out["mean_iterate_tail"] = tail / (n_rec - tail_from)
        if noise_at is not None:
            out.update(sq_error_model=sq_model, max_state_gap=max_gap)
        for value in out.values():
            if value is not None:
                value.setflags(write=False)
        return out


def atc_step(
    state: NetworkState,
    a: CombinationMatrix,
    models: list[CostModel],
    step_sizes: StepSizeProfile,
    rng: np.random.Generator,
    divergence_threshold: float = DIVERGENCE_THRESHOLD,
) -> NetworkState:
    """One synchronous diffusion round: all agents adapt, then all combine.

    Each agent draws one sample from ``rng``, in agent order.
    """
    kernel = _Kernel(a, models, step_sizes)
    kernel.draw([[rng] * kernel.n], size=1)
    x = np.asarray(state.iterates, dtype=float)[None]
    nxt = _adapt_combine(kernel.weights_t, kernel.mu, x, kernel.gradients(x, 0))[0]
    _check_bounded(nxt, state.iteration + 1, divergence_threshold)
    return NetworkState(iterates=nxt, iteration=state.iteration + 1)


def run_ensemble(
    a: CombinationMatrix,
    models: list[CostModel],
    step_sizes: StepSizeProfile,
    limit_points: np.ndarray,
    iterations: int,
    n_runs: int,
    master_seed: int,
    stride: int = DEFAULT_STRIDE,
    record_iterates: bool = False,
    divergence_threshold: float = DIVERGENCE_THRESHOLD,
    burn_in_fraction: float | None = None,
    records=None,
) -> list[Trajectory]:
    """Monte-Carlo ensemble of diffusion runs with independent streams.

    Parameters
    ----------
    limit_points : (N, M) array
        Reference point per agent (original order); squared errors are
        measured against these.
    iterations : int
        Number of synchronous rounds, starting from all-zero iterates.
    stride : int
        Squared errors are recorded after every ``stride``-th round.
    burn_in_fraction : float, optional
        When given, each Trajectory carries ``mean_iterate_tail``: the mean
        of the recorded iterates after this fraction of the records,
        accumulated without storing them.
    records : callable, optional
        Called at each 1024-sample block boundary, and once at the end, with
        a (runs, records, N) view of the squared errors recorded since its
        previous call; lets a caller write them out while the runs go on.

    Returns one Trajectory per run. Deterministic in (master_seed, config).
    """
    rec = _Kernel(a, models, step_sizes).run(
        limit_points, iterations, n_runs, master_seed, stride, record_iterates=record_iterates,
        burn_in_fraction=burn_in_fraction, threshold=divergence_threshold, records=records,
    )
    tail = rec.get("mean_iterate_tail")
    return [
        Trajectory(
            iterations=rec["iterations"],
            sq_error=rec["sq_error"][r],
            iterates=rec["iterates"][r] if record_iterates else None,
            seed=master_seed,
            run_index=r,
            mu_max=step_sizes.mu_max,
            stride=stride,
            mean_iterate_tail=None if tail is None else tail[r],
        )
        for r in range(n_runs)
    ]


def run(
    a: CombinationMatrix,
    models: list[CostModel],
    step_sizes: StepSizeProfile,
    limit_points: np.ndarray,
    iterations: int,
    seed: int,
    stride: int = DEFAULT_STRIDE,
    record_iterates: bool = False,
) -> Trajectory:
    """Single diffusion run; equivalent to run 0 of a one-run ensemble."""
    return run_ensemble(a, models, step_sizes, limit_points, iterations, n_runs=1,
                        master_seed=seed, stride=stride, record_iterates=record_iterates)[0]


def long_term_state(models: list[CostModel], limit_points: np.ndarray) -> LongTermState:
    """Freeze Hessians and biases of the linear model at the limit points."""
    limit_points = np.asarray(limit_points, dtype=float)
    hessians = np.array([model.hessian(p) for model, p in zip(models, limit_points)])
    bias = -np.array([model.true_gradient(p) for model, p in zip(models, limit_points)])
    return LongTermState(error=np.zeros(limit_points.shape), hessians=hessians, bias=bias)


def long_term_step(
    lt_state: LongTermState,
    a: CombinationMatrix,
    step_sizes: StepSizeProfile,
    noise_samples: np.ndarray,
) -> LongTermState:
    """One round of the constant-Hessian linear error recursion."""
    mu = step_sizes.mu[:, None]
    err = lt_state.error
    damped = err - mu * np.einsum("kmn,kn->km", lt_state.hessians, err)
    nxt = a.weights.T @ (damped + mu * (noise_samples - lt_state.bias))
    return replace(lt_state, error=nxt, iteration=lt_state.iteration + 1)


@dataclass(frozen=True, eq=False)
class PairedRun:
    """Nonlinear run and linear model driven by one shared sample stream."""

    iterations: np.ndarray
    sq_error: np.ndarray       # (T, N), nonlinear
    sq_error_model: np.ndarray  # (T, N), constant-Hessian model
    max_state_gap: float       # max |nonlinear error - model error| over all steps


def run_paired_long_term(
    a: CombinationMatrix,
    models: list[CostModel],
    step_sizes: StepSizeProfile,
    limit_points: np.ndarray,
    iterations: int,
    seed: int,
    n_runs: int = 1,
    noise_at: str = "iterate",
    stride: int = DEFAULT_STRIDE,
    w_init: np.ndarray | None = None,
) -> list[PairedRun]:
    """Run the diffusion recursion and its linear model on shared samples.

    ``noise_at`` selects where each sample's gradient noise is evaluated
    before being fed to the linear model: at the nonlinear run's current
    iterate (exact pairing; cheap only when true gradients are closed-form)
    or at the agent's limit point. The linear model's error state always
    starts at limit_points - w_init, so the two stay paired from step 0;
    starting ``w_init`` at the limit points themselves skips the large
    initial transient when only steady-state behavior matters.

    Returns one PairedRun per run; run r uses the streams of run r of
    ``run_ensemble`` with the same seed.
    """
    if noise_at not in ("iterate", "limit_point"):
        raise ValueError("noise_at must be 'iterate' or 'limit_point'")
    rec = _Kernel(a, models, step_sizes).run(
        limit_points, iterations, n_runs, seed, stride, w_init=w_init, noise_at=noise_at
    )
    runs = zip(rec["sq_error"], rec["sq_error_model"], rec["max_state_gap"].tolist())
    return [PairedRun(rec["iterations"], sq, sq_model, gap) for sq, sq_model, gap in runs]


def estimate_msd(
    trajectories: list[Trajectory],
    burn_in_fraction: float = DEFAULT_BURN_IN,
) -> MsdEstimate:
    """Average post-burn-in squared errors within runs, then across runs."""
    if len(trajectories) < 2:
        raise InsufficientData("MSD estimation needs at least 2 runs")
    if not 0.0 <= burn_in_fraction < 1.0:
        raise ValueError("burn_in_fraction must lie in [0, 1)")
    t = trajectories[0].sq_error.shape[0]
    if any(traj.sq_error.shape != trajectories[0].sq_error.shape for traj in trajectories):
        raise DimensionMismatch("trajectories have inconsistent shapes")
    start = int(np.floor(burn_in_fraction * t))
    per_run = np.stack([traj.sq_error[start:].mean(axis=0) for traj in trajectories])
    estimate = per_run.mean(axis=0)
    stderr = per_run.std(axis=0, ddof=1) / np.sqrt(len(trajectories))
    return MsdEstimate(
        per_agent=_frozen(estimate),
        halfwidth=_frozen(2.0 * stderr),
        n_runs=len(trajectories),
    )
