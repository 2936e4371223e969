"""Pareto solutions per sending sub-network and closed-form steady-state MSD.

Each sending sub-network settles around the unique zero of its q-weighted
aggregate gradient, where q_k = mu_k * p_k combines step sizes with Perron
weights. Its steady-state mean-square deviation is a trace formula in the
q-weights, limit-point Hessians and gradient-noise covariances; a receiving
agent's MSD is a squared-influence-weighted sum of sending-side MSDs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costs import CostModel, QuadraticCost
from .engine import MsdEstimate, StepSizeProfile
from .errors import (
    DimensionMismatch,
    InsufficientData,
    NoConvergence,
    NonPositive,
    SingularAggregateHessian,
)
from .influence import influence_vector
from .topology import NetworkPartition, _frozen

PARETO_TOL = 1e-10
PARETO_MAX_ITER = 100
# Newton first solves on the first 1/WARM_START_SHRINK of each design, and so
# on down, while that prefix keeps WARM_START_MIN_ROWS rows.
WARM_START_SHRINK = 16
WARM_START_MIN_ROWS = 512


def q_weights(partition: NetworkPartition, step_sizes: StepSizeProfile) -> tuple[np.ndarray, ...]:
    """q_{s,k} = mu_{s,k} * p_{s,k} for every sending agent, one array per sub-network."""
    mu = step_sizes.mu
    return tuple(
        _frozen(mu[partition.order[sl]] * p)
        for sl, p in zip(partition.s_slices, partition.perron_vectors)
    )


def _aggregate(models, q, point):
    """q-weighted sums of the gradients and Hessians at ``point``, and each model's Hessian."""
    grad = np.zeros(models[0].dimension)
    hess = np.zeros((models[0].dimension,) * 2)
    hessians = []
    for qk, model in zip(q, models):
        g, h = model.gradient_and_hessian(point)
        grad += qk * g
        hess += qk * h
        hessians.append(h)
    return grad, hess, hessians


def _prefix_stages(models):
    """Each model on ever shorter prefixes of its design, coarsest stage first.

    Stage j keeps the first rows // 16**j rows of every design while the
    shortest of them keeps 512 rows; a model without a design gives none.
    """
    rows = [model.design_rows for model in models]
    if None in rows:
        return []
    stages = []
    shrink = WARM_START_SHRINK
    while min(rows) // shrink >= WARM_START_MIN_ROWS:
        stages.append([model.prefix(n // shrink) for model, n in zip(models, rows)])
        shrink *= WARM_START_SHRINK
    return stages[::-1]


def _newton(models, q, w):
    """Newton iterations from ``w`` to the zero of the q-weighted gradient.

    Returns the zero and each model's Hessian there, from the last
    evaluation. A Newton step that fails to shrink the gradient falls back
    to gradient descent with backtracking.
    """
    grad, hess, hessians = _aggregate(models, q, w)
    for _ in range(PARETO_MAX_ITER):
        if np.abs(grad).max() < PARETO_TOL:
            return w, hessians
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError as exc:
            raise SingularAggregateHessian(str(exc)) from exc
        candidate = w - step
        evaluated = _aggregate(models, q, candidate)
        if np.abs(evaluated[0]).max() < np.abs(grad).max():
            w, (grad, hess, hessians) = candidate, evaluated
            continue
        # Backtracking descent on the weighted aggregate cost.
        cost = lambda v: sum(qk * mod.true_loss(v) for qk, mod in zip(q, models))
        base = cost(w)
        t = 1.0
        while t > 1e-12:
            trial = w - t * grad
            if cost(trial) < base - 1e-4 * t * (grad @ grad):
                w = trial
                break
            t *= 0.5
        else:
            raise NoConvergence(PARETO_MAX_ITER, what="Pareto solve line search")
        grad, hess, hessians = _aggregate(models, q, w)
    if np.abs(grad).max() < PARETO_TOL:
        return w, hessians
    raise NoConvergence(PARETO_MAX_ITER, what="Pareto solve")


def pareto_solve(models: list[CostModel], q: np.ndarray, return_hessians: bool = False):
    """Zero of the q-weighted aggregate gradient of one sub-network.

    Quadratic costs are solved in closed form. Otherwise Newton iterations
    run on the aggregate gradient weighted by q / sum(q), so the stopping
    test does not depend on the scale of q (sampled models keep their fixed
    evaluation designs, so the target is deterministic). When every model
    has a design of at least 16 * 512 rows, Newton first solves on the
    first 1/16 of each design, itself warm-started the same way, and starts
    the full designs from there. An accepted point's gradient and Hessian
    serve the next iteration, so K Newton steps on the full designs
    evaluate the models K + 1 times there.

    With ``return_hessians``, returns ``(w, hessians)``: each model's
    Hessian at w, from the solve's last evaluation.
    """
    q = np.asarray(q, dtype=float)
    if q.shape[0] != len(models):
        raise DimensionMismatch(f"{q.shape[0]} weights for {len(models)} models")
    m = models[0].dimension

    if all(isinstance(model, QuadraticCost) for model in models):
        lhs = np.zeros((m, m))
        rhs = np.zeros(m)
        for qk, model in zip(q, models):
            lhs += qk * 2.0 * model.r_u
            rhs += qk * 2.0 * model.r_u @ model.w_o
        if np.linalg.eigvalsh(lhs).min() <= 0:
            raise SingularAggregateHessian("weighted aggregate Hessian is singular")
        w = np.linalg.solve(lhs, rhs)
        return (w, [model.hessian(w) for model in models]) if return_hessians else w

    total = q.sum()
    if total > 0:  # q = 0 (mu_max 0) leaves every point a zero of the gradient
        q = q / total
    stages = _prefix_stages(models)
    w = np.zeros(m)
    try:
        for stage in stages:
            w = _newton(stage, q, w)[0]
        w, hessians = _newton(models, q, w)
    except (NoConvergence, SingularAggregateHessian):
        if not stages:
            raise
        # Without a regularizer a prefix can be separable where the full
        # design is not, and send its solve far out: start from zero instead.
        w, hessians = _newton(models, q, np.zeros(m))
    return (w, hessians) if return_hessians else w


def msd_subnetwork(q, hessians, covariances) -> float:
    """Half-trace formula for one sending sub-network's steady-state MSD."""
    q = np.asarray(q, dtype=float)
    h_sum = sum(qk * np.atleast_2d(np.asarray(h, dtype=float)) for qk, h in zip(q, hessians))
    g_sum = sum(qk**2 * np.atleast_2d(np.asarray(g, dtype=float)) for qk, g in zip(q, covariances))
    if np.linalg.eigvalsh(h_sum).min() <= 0:
        raise SingularAggregateHessian("weighted Hessian sum is not positive definite")
    return float(0.5 * np.trace(np.linalg.solve(h_sum, g_sum)))


def msd_receiving(c: np.ndarray, msd_per_subnetwork) -> float:
    """Receiving-agent MSD: squared influence entries weighting sender MSDs."""
    c = np.asarray(c, dtype=float)
    msds = np.asarray(msd_per_subnetwork, dtype=float)
    if c.shape != msds.shape:
        raise DimensionMismatch(f"{c.shape[0]} influence entries for {msds.shape[0]} MSDs")
    return float((c**2) @ msds)


def to_db(linear: float) -> float:
    if linear <= 0:
        raise NonPositive(linear)
    return 10.0 * math.log10(linear)


@dataclass(frozen=True, eq=False)
class SubnetworkMsd:
    subnetwork: int
    agents: tuple[int, ...]  # original ids, canonical order
    w_star: np.ndarray
    msd_linear: float
    msd_db: float | None


@dataclass(frozen=True, eq=False)
class RAgentMsd:
    agent_id: int
    c: np.ndarray
    msd_linear: float
    msd_db: float | None


@dataclass(frozen=True, eq=False)
class MsdReport:
    """Theoretical MSD of every agent, by sub-network and receiving agent."""

    subnetworks: tuple[SubnetworkMsd, ...]
    r_agents: tuple[RAgentMsd, ...]

    def linear_by_agent(self) -> dict[int, float]:
        out = {}
        for sub in self.subnetworks:
            for agent in sub.agents:
                out[agent] = sub.msd_linear
        for entry in self.r_agents:
            out[entry.agent_id] = entry.msd_linear
        return out


def _maybe_db(linear: float) -> float | None:
    return to_db(linear) if linear > 0 else None


def theoretical_msd(
    partition: NetworkPartition,
    models: list[CostModel],
    step_sizes: StepSizeProfile,
    w_stars: list[np.ndarray] | None = None,
) -> MsdReport:
    """Closed-form MSD report for the whole network.

    Hessians and gradient-noise covariances are evaluated at each sending
    sub-network's Pareto point, each from its model in closed form (a
    logistic model's over its evaluation design, so the report draws no
    random numbers). Without ``w_stars`` the points are solved for here, and
    the Hessians come from the solve's last evaluation. Receiving agents
    read W from the partition.
    """
    subnetworks = []
    msd_values = []
    for s, (sl, q) in enumerate(zip(partition.s_slices, q_weights(partition, step_sizes))):
        members = partition.order[sl].tolist()
        sub_models = [models[k] for k in members]
        if w_stars is None:
            star, sub_hessians = pareto_solve(sub_models, q, return_hessians=True)
        else:
            star = np.atleast_1d(np.asarray(w_stars[s], dtype=float))
            sub_hessians = [model.hessian(star) for model in sub_models]
        covariances = [model.noise_covariance(star) for model in sub_models]
        msd = msd_subnetwork(q, sub_hessians, covariances)
        msd_values.append(msd)
        subnetworks.append(
            SubnetworkMsd(
                subnetwork=s,
                agents=tuple(members),
                w_star=_frozen(star),
                msd_linear=msd,
                msd_db=_maybe_db(msd),
            )
        )

    r_entries = []
    for agent in partition.r_agents:
        c = influence_vector(partition, agent)
        msd = msd_receiving(c, msd_values)
        r_entries.append(RAgentMsd(agent_id=agent, c=c, msd_linear=msd, msd_db=_maybe_db(msd)))
    return MsdReport(subnetworks=tuple(subnetworks), r_agents=tuple(r_entries))


@dataclass(frozen=True, eq=False)
class ComparisonRow:
    agent_id: int
    theory_db: float | None
    sim_db: float | None
    delta_db: float | None
    halfwidth_db: float | None
    flagged: bool


def compare(
    theory: MsdReport,
    estimates: MsdEstimate,
    threshold_db: float = 1.5,
) -> list[ComparisonRow]:
    """Per-agent theory/simulation table; flags deltas beyond the threshold."""
    by_agent = theory.linear_by_agent()
    if estimates.per_agent.shape[0] == 0:
        raise InsufficientData("no Monte-Carlo estimates to compare against")
    if estimates.per_agent.shape[0] != len(by_agent):
        raise DimensionMismatch(
            f"{estimates.per_agent.shape[0]} estimates for {len(by_agent)} agents"
        )
    rows = []
    for agent in sorted(by_agent):
        th = by_agent[agent]
        sim = float(estimates.per_agent[agent])
        hw = float(estimates.halfwidth[agent])
        th_db = _maybe_db(th)
        sim_db = _maybe_db(sim)
        delta = sim_db - th_db if th_db is not None and sim_db is not None else None
        # Half-width mapped to dB at the estimate (upper side).
        hw_db = (
            to_db(sim + hw) - sim_db if sim_db is not None and sim + hw > 0 else None
        )
        if th_db is None and sim_db is None:
            flagged = False  # both exactly zero: perfect agreement
        else:
            flagged = delta is None or abs(delta) > threshold_db
        rows.append(
            ComparisonRow(
                agent_id=agent,
                theory_db=th_db,
                sim_db=sim_db,
                delta_db=delta,
                halfwidth_db=hw_db,
                flagged=flagged,
            )
        )
    return rows
