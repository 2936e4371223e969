"""Synchronous adapt-then-combine diffusion over streaming data.

Every iteration, each agent takes a stochastic-gradient step on its own
sample (adapt) and then convexly averages its neighbors' intermediate
iterates with its combination-matrix column (combine); all adapts complete
before any combine. One batched kernel advances the stacked (runs, agents,
M) iterates of a Monte-Carlo ensemble with one gradient call per model kind
per round, but each (run, agent) pair owns an independent random stream
derived from (master_seed, run_index, agent_id), so results are reproducible
and a single run never depends on how many others execute alongside it.

Each stream draws blocks of _BLOCK samples straight into the kernel's
per-kind (runs, agents, _BLOCK, ...) field buffers through the cost model's
``draw_into``, and each round's ``gradient_rows`` call reads the drawn
fields as they are. The constant-Hessian linear model of
``run_paired_long_term`` is no second recursion: its errors are stacked
under the iterates and go through the same adapt and combine. Divergence
of either is checked once every _CHECK_EVERY rounds, over a reused buffer
of those rounds' states, and reported as a check after every round would
report it.

The kernel hands over the states it records, a sample block at a time,
and ``_measure`` turns them into squared errors against the limit points
and record-order tail sums. The runs themselves never read the limit
points, so ``run_ensemble`` can start them before late points are known
and keep the states after the burn-in until they come.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costs import CostModel
from .errors import DimensionMismatch, Diverged, InsufficientData
from .topology import CombinationMatrix, _frozen

DIVERGENCE_THRESHOLD = 1e12
DEFAULT_STRIDE = 10
DEFAULT_BURN_IN = 0.5
_BLOCK = 1024
_CHECK_EVERY = 32  # rounds per divergence check; divides _BLOCK, so blocks end checked


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


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Strided per-agent squared-error record of one run.

    ``sq_error`` is None when the records were streamed to a ``records``
    callback instead of kept. The tail means average the records after the
    burn-in, adding them in record order and dividing by their count.
    """

    iterations: np.ndarray        # (T,), 1-based completed-iteration counts
    sq_error: np.ndarray | None   # (T, N), unless streamed
    iterates: np.ndarray | None   # (T, N, M) when recorded
    mean_iterate_tail: np.ndarray | None = None  # (N, M) when a burn-in was given
    mean_sq_error_tail: np.ndarray | None = None  # (N,) when a burn-in was given


@dataclass(frozen=True, eq=False)
class MsdEstimate:
    """Across-run average of time-averaged squared errors after burn-in."""

    per_agent: np.ndarray   # (N,)
    halfwidth: np.ndarray   # (N,), 2 * standard error across runs
    n_runs: int


def recorded_iterations(iterations: int, stride: int) -> np.ndarray:
    """Completed-iteration counts after which a run records its squared errors."""
    return np.arange(stride, iterations + 1, stride)


def _check_bounded(xs, first_iteration, n_runs):
    """Raise Diverged for the first entry beyond DIVERGENCE_THRESHOLD in the first round of
    ``xs`` (rounds, rows, N, M) that has one; round 0 completed ``first_iteration``. Rows
    from ``n_runs`` on hold the linear model of run row - n_runs."""
    if np.abs(xs).max() <= DIVERGENCE_THRESHOLD:
        return
    round_, row, agent, _ = np.argwhere(~(np.abs(xs) <= DIVERGENCE_THRESHOLD))[0]
    run, what = (row, "iterates") if row < n_runs else (row - n_runs, "linear model")
    raise Diverged(int(agent), first_iteration + int(round_), int(run), what)


class _Kernel:
    """Batched adapt-then-combine step over a stacked (rows, agents, M) state.

    The rows are the runs' iterates, followed, for ``run_paired_long_term``,
    by the errors of each run's linear model; one adapt and one combine
    advance them all. Agents whose models share a gradient formula form one
    kind. Each step makes one ``gradient_rows`` call per kind and passes
    the per-agent parameters as arrays that broadcast over runs; a kind
    whose agents are neighbours writes its gradients straight into the
    round's gradient array, any other kind is scattered into it. A kind's
    samples sit in one (runs, agents of the kind, _BLOCK, ...) buffer per
    field, so that each (run, agent) stream fills one contiguous piece, and
    each round reads the sample at one position of the block axis, as
    ``draw_into`` wrote it. Every _CHECK_EVERY rounds the states of those
    rounds, kept in one reused buffer, are checked for divergence at once.
    Every recorded state is copied into one reused record buffer, which is
    handed over a sample block at a time; ``_measure`` turns it into
    squared errors and their tail sums.
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
        self.kinds = []  # (agent index, gradient source, per-agent parameters, agents)
        for agents in agents_of.values():
            sources = [models[k].gradient_source for k in agents]
            params = {name: np.array([getattr(s, name) for s in sources])[:, None]
                      for name in sources[0].gradient_params}
            # neighbouring agents are indexed by a slice, which views instead of copying
            contiguous = agents[-1] - agents[0] + 1 == len(agents)
            index = slice(agents[0], agents[-1] + 1) if contiguous else np.array(agents)
            self.kinds.append((index, sources[0], params, agents))

    def points(self, limit_points) -> np.ndarray:
        """``limit_points`` as an (N, M) float array; any other shape raises DimensionMismatch."""
        limit_points = np.asarray(limit_points, dtype=float)
        if limit_points.shape != (self.n, self.m):
            raise DimensionMismatch(
                f"limit points have shape {limit_points.shape}, expected {(self.n, self.m)}"
            )
        return limit_points

    def sample_bytes(self, n_runs: int) -> int:
        """Bytes of the sample buffers that ``run`` fills for ``n_runs`` runs."""
        floats = sum(math.prod(shape) for model in self.models for shape in model.field_shapes)
        return 8 * n_runs * _BLOCK * floats

    def draw(self, streams, buffers) -> None:
        """Refill each kind's ``buffers`` with one block of samples per (run, agent);
        agent k of run r draws from ``streams[k][r]``."""
        for (*_, agents), fields in zip(self.kinds, buffers):
            for at, k in enumerate(agents):
                self.models[k].draw_into(streams[k], [f[:, at] for f in fields])

    def gradients(self, w: np.ndarray, samples, j, out: np.ndarray) -> None:
        """Stochastic gradients at points ``w`` (..., N, M) on sample ``j`` into ``out``;
        ``j = slice(None)`` takes the whole block, on a leading axis of ``out``.
        ``samples`` are each kind's fields viewed with the block axis first."""
        for (agents, source, params, _), fields in zip(self.kinds, samples):
            sample = [f[j] for f in fields]
            if isinstance(agents, slice):
                source.gradient_rows(w[..., agents, :], sample, out=out[..., agents, :], **params)
            else:
                out[..., agents, :] = source.gradient_rows(w[..., agents, :], sample, **params)

    def run(
        self, iterations, n_runs, seed, stride, states, *, w_init=None, noise_at=None,
        limit_points=None,
    ):
        """Iterate from ``w_init`` (zero by default) over independent (seed, run, agent) streams.

        The state after every ``stride``-th round goes into one record
        buffer. ``states(first, view)`` receives it at each sample-block
        boundary and once at the end: a (records, rows, N, M) view of the
        records made since its previous call, the first of them record
        ``first``. The view is valid only until the call returns, and the call
        may overwrite it. The rows are the runs' iterates and, with
        ``noise_at`` set, under them the errors of the linear model of
        ``run_paired_long_term`` around ``limit_points``; then each run's
        largest gap between the two errors, over every round, is returned.

        A diverging run, or linear model, goes on to the end of its check
        interval, where the first entry beyond the threshold raises
        ``Diverged``; no value of those rounds is handed over, and their
        overflows raise no warning.
        """
        n, m, wt = self.n, self.m, self.weights_t
        # the buffers come before the streams, so that far too many runs fail at once
        buffers = [
            tuple(np.empty((n_runs, len(agents), _BLOCK) + shape)
                  for shape in self.models[agents[0]].field_shapes)
            for *_, agents in self.kinds
        ]
        samples = [[np.moveaxis(f, 2, 0) for f in fields] for fields in buffers]
        # the iterates, and under them the linear model's errors, of the rounds since the
        # last divergence check, and one round's gradients
        n_rows = n_runs if noise_at is None else 2 * n_runs
        checked = np.empty((_CHECK_EVERY, n_rows, n, m))
        grads = np.empty((n_rows, n, m))
        # a block of _BLOCK rounds makes at most ceil(_BLOCK / stride) records;
        # records lead, so the records of a block are one contiguous piece
        block = np.empty((-(-_BLOCK // stride), n_rows, n, m))
        # mu laid out like the gradients: one flat multiply instead of a broadcast one
        mu_rows = np.broadcast_to(self.mu, grads.shape).copy()
        streams = [[np.random.default_rng([seed, r, k]) for r in range(n_runs)] for k in range(n)]

        # views of each slot's iterates and model errors, and of the iterates' gradients;
        # the last slot, which round 0 does not write, holds the initial state
        halves = [(c[:n_runs], c[n_runs:]) for c in checked]
        ghat_x = grads[:n_runs]
        state, (x, err) = checked[-1], halves[-1]
        x[:] = 0.0 if w_init is None else w_init
        if noise_at is not None:
            hessians, bias = long_term_state(self.models, limit_points)
            err[:] = limit_points - x
            max_gap = np.zeros(n_runs)
        if noise_at == "limit_point":
            limit_grads = np.empty((_BLOCK, n_runs, n, m))

        sent = 0  # records handed over so far
        for start in range(0, iterations, _BLOCK):
            if start // stride > sent:
                states(sent, block[: start // stride - sent])
                sent = start // stride
            self.draw(streams, buffers)
            if noise_at == "limit_point":
                # at the fixed limit points the gradient depends only on the sample
                self.gradients(limit_points, samples, slice(None), limit_grads)
            # past a divergence the recursion runs on to the end of its check interval,
            # and every value it computes there is dropped
            with np.errstate(over="ignore", invalid="ignore"):
                for i in range(start, min(start + _BLOCK, iterations)):
                    j = i - start
                    self.gradients(x, samples, j, ghat_x)
                    if noise_at is not None:
                        # The linear model steps along H err - (noise - bias), where noise - bias
                        # is ghat(lp) at the limit point and ghat(x) - grad J(x) + grad J(lp) at x.
                        if noise_at == "limit_point":
                            noisy = limit_grads[j]
                        else:
                            true = [[model.true_gradient(xk) for model, xk in zip(self.models, xr)]
                                    for xr in x]
                            noisy = ghat_x - np.array(true) - bias
                        linear = np.einsum("kmn,rkn->rkm", hessians, err, out=grads[n_runs:])
                        np.subtract(linear, noisy, out=linear)
                    # adapt in place, then combine into this round's slot of ``checked``
                    np.multiply(mu_rows, grads, out=grads)
                    np.subtract(state, grads, out=grads)
                    slot = i % _CHECK_EVERY
                    state = np.matmul(wt, grads, out=checked[slot])
                    x, err = halves[slot]
                    if slot == _CHECK_EVERY - 1 or i + 1 == iterations:
                        since = checked[: slot + 1]
                        _check_bounded(since, i + 1 - slot, n_runs)
                        if noise_at is not None:
                            gap = np.abs((limit_points - since[:, :n_runs]) - since[:, n_runs:])
                            np.maximum(max_gap, gap.max(axis=(0, 2, 3)), out=max_gap)
                    if (i + 1) % stride == 0:
                        block[i // stride - sent] = state
        if iterations // stride > sent:
            states(sent, block[: iterations // stride - sent])
        return max_gap if noise_at is not None else None


def _read_only(value):
    """``value``, an array or None, made read-only."""
    if value is not None:
        value.setflags(write=False)
    return value


def _record_counts(iterations: int, n_runs: int, stride: int,
                   burn_in_fraction: float | None = None):
    """(records, first record after the burn-in) of a run, once its controls are checked;
    without a burn-in no record follows it."""
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    n_rec = iterations // stride
    if burn_in_fraction is None:
        return n_rec, n_rec
    if not 0.0 <= burn_in_fraction < 1.0:
        raise ValueError("burn_in_fraction must lie in [0, 1)")
    tail_from = int(np.floor(burn_in_fraction * n_rec))
    if tail_from == n_rec:
        raise InsufficientData(f"{n_rec} records ({iterations} iterations at stride "
                               f"{stride}) leave none after burn-in")
    return n_rec, tail_from


def _measure(states, limit_points, sq_tail=None, skip=0) -> np.ndarray:
    """Squared errors (records, runs, N) of recorded states (records, runs, N, M) against
    the limit points.

    The errors of the records from ``skip`` on are added, in record order,
    to the running sums ``sq_tail`` (runs, N), where given. The errors are
    taken in place, so ``states`` is overwritten with them.
    """
    errors = np.subtract(states, limit_points, out=states)
    sq = np.einsum("trkm,trkm->trk", errors, errors)
    if sq_tail is not None:
        for row in sq[skip:]:
            sq_tail += row
    return sq


def run_ensemble(
    a: CombinationMatrix,
    models: list[CostModel],
    step_sizes: StepSizeProfile,
    limit_points,
    iterations: int,
    n_runs: int,
    master_seed: int,
    stride: int = DEFAULT_STRIDE,
    record_iterates: bool = False,
    burn_in_fraction: float | None = None,
    records=None,
) -> list[Trajectory]:
    """Monte-Carlo ensemble of diffusion runs with independent streams.

    Parameters
    ----------
    limit_points : (N, M) array, or callable
        Reference point per agent (original order); squared errors are
        measured against these. A callable ``limit_points(wait)`` returns
        them late: the runs call it at every sample-block boundary, where
        it may return None while the points are not known yet, and with
        ``wait`` true when they cannot go on without them; it may raise to
        stop the runs. Until the points come, the runs keep copies of the
        recorded states after the burn-in, at most as many bytes as their
        sample buffers, and then wait for them, so memory does not grow
        with the run length. Late points need ``burn_in_fraction`` and give
        only tail means: they take no ``records``, and ``sq_error`` is None.
    iterations : int
        Number of synchronous rounds, starting from all-zero iterates.
    stride : int
        Squared errors are recorded after every ``stride``-th round.
    burn_in_fraction : float in [0, 1), optional
        When given, each Trajectory carries ``mean_iterate_tail`` and
        ``mean_sq_error_tail``: the means of the recorded iterates and
        squared errors after this fraction of the records, accumulated
        without storing them. ``msd_from_tails`` turns the latter into an
        ``MsdEstimate`` of the runs.
    records : callable, optional
        Called at each 1024-sample block boundary, and once at the end, with
        a (runs, records, N) view of the squared errors recorded since its
        previous call; lets a caller write them out while the runs go on.
        The view is valid only until the call returns. With ``records``,
        the runs keep no squared errors: each Trajectory's ``sq_error`` is
        None.

    Returns one Trajectory per run. Deterministic in (master_seed, config).
    """
    kernel = _Kernel(a, models, step_sizes)
    late = callable(limit_points)
    if late and (records is not None or burn_in_fraction is None):
        raise ValueError("late limit_points need a burn_in_fraction and take no records")
    points = None if late else kernel.points(limit_points)
    n_rec, tail_from = _record_counts(iterations, n_runs, stride, burn_in_fraction)
    sq_error = None if late or records is not None else np.empty((n_runs, n_rec, kernel.n))
    iterates = np.empty((n_runs, n_rec, kernel.n, kernel.m)) if record_iterates else None
    sq_tail, tail = np.zeros((n_runs, kernel.n)), np.zeros((n_runs, kernel.n, kernel.m))
    bound = kernel.sample_bytes(n_runs)
    held = []  # with late limit points, copies of the tail states until the points come

    def settle(wait):
        nonlocal points
        given = limit_points(wait)
        if points is None and given is not None:
            points = kernel.points(given)
            for states in held:
                _measure(states, points, sq_tail)
            held.clear()

    def take(first, states):
        upto = first + states.shape[0]
        skip = max(tail_from - first, 0)  # records before the first tail record
        if record_iterates:
            iterates[:, first:upto] = states.transpose(1, 0, 2, 3)
        for x in states[skip:]:
            np.add(tail, x, out=tail)
        if late:
            states, skip = states[skip:], 0
            settle(points is None and sum(h.nbytes for h in held) + states.nbytes > bound)
            if points is None:
                held.append(states.copy())
                return
        sq = _measure(states, points, sq_tail, skip)
        if sq_error is not None:
            sq_error[:, first:upto] = sq.transpose(1, 0, 2)
        elif records is not None:
            records(sq.transpose(1, 0, 2))

    kernel.run(iterations, n_runs, master_seed, stride, take)
    if points is None:
        settle(True)
    means = (None, None)
    if burn_in_fraction is not None:
        means = (tail / (n_rec - tail_from), sq_tail / (n_rec - tail_from))
    iters = _read_only(recorded_iterations(iterations, stride))
    sq_error, iterates, tail_mean, sq_tail_mean = map(_read_only, (sq_error, iterates, *means))

    def of_run(value, r):
        return None if value is None else value[r]

    return [
        Trajectory(
            iterations=iters,
            sq_error=of_run(sq_error, r),
            iterates=of_run(iterates, r),
            mean_iterate_tail=of_run(tail_mean, r),
            mean_sq_error_tail=of_run(sq_tail_mean, r),
        )
        for r in range(n_runs)
    ]


def long_term_state(models: list[CostModel], limit_points: np.ndarray):
    """(hessians (N, M, M), bias (N, M)) of the linear model, frozen at the limit points;
    bias_k is the negated true gradient there."""
    limit_points = np.asarray(limit_points, dtype=float)
    parts = [model.gradient_and_hessian(p) for model, p in zip(models, limit_points)]
    return np.array([hess for *_, hess in parts]), -np.array([grad for _, grad, _ in parts])


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
    or at the agent's limit point, where the kernel evaluates it once per
    block of samples. The linear model's error state always starts at
    limit_points - w_init, so the two stay paired from step 0; starting
    ``w_init`` at the limit points themselves skips the large initial
    transient when only steady-state behavior matters.

    The model's errors are stacked under the iterates in the kernel's
    state and advance with the same adapt and combine; they are checked
    for divergence with them, and a model that overflows raises
    ``Diverged`` with ``what="linear model"`` even while the iterates stay
    bounded. ``max_state_gap`` is taken once per check interval, over every
    round of it.

    Returns one PairedRun per run; run r uses the streams of run r of
    ``run_ensemble`` with the same seed, and its ``sq_error`` bits.
    """
    if noise_at not in ("iterate", "limit_point"):
        raise ValueError("noise_at must be 'iterate' or 'limit_point'")
    kernel = _Kernel(a, models, step_sizes)
    limit_points = kernel.points(limit_points)
    n_rec, _ = _record_counts(iterations, n_runs, stride)
    sq_error, sq_model = np.empty((2, n_runs, n_rec, kernel.n))

    def take(first, states):
        upto = first + states.shape[0]
        sq_error[:, first:upto] = _measure(states[:, :n_runs], limit_points).transpose(1, 0, 2)
        sq_model[:, first:upto] = _measure(states[:, n_runs:], 0.0).transpose(1, 0, 2)

    gaps = kernel.run(iterations, n_runs, seed, stride, take, w_init=w_init, noise_at=noise_at,
                      limit_points=limit_points)
    iters = _read_only(recorded_iterations(iterations, stride))
    runs = zip(_read_only(sq_error), _read_only(sq_model), gaps.tolist())
    return [PairedRun(iters, sq, sq_m, gap) for sq, sq_m, gap in runs]


def msd_from_tails(tails) -> MsdEstimate:
    """Across-run mean and 2-standard-error halfwidth of per-run (N,) tail means."""
    if len(tails) < 2:
        raise InsufficientData("MSD estimation needs at least 2 runs")
    per_run = np.stack(tails)
    stderr = per_run.std(axis=0, ddof=1) / np.sqrt(len(tails))
    return MsdEstimate(
        per_agent=_frozen(per_run.mean(axis=0)),
        halfwidth=_frozen(2.0 * stderr),
        n_runs=len(tails),
    )
