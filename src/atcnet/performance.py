"""Pareto solutions per sending sub-network and closed-form steady-state MSD.

Each sending sub-network settles around the unique zero of its q-weighted
aggregate gradient, where q_k = mu_k * p_k combines step sizes with Perron
weights. Its steady-state mean-square deviation is a trace formula in the
q-weights, limit-point Hessians and gradient-noise covariances; a receiving
agent's MSD is a squared-influence-weighted sum of sending-side MSDs.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .costs import CostModel, QuadraticCost
from .engine import MsdEstimate, StepSizeProfile
from .errors import (
    DimensionMismatch,
    InsufficientData,
    NoConvergence,
    NoMinimizer,
    NonPositive,
    SingularAggregateHessian,
)
from .influence import influence_vector
from .topology import NetworkPartition, _frozen

PARETO_TOL = 1e-10
PARETO_MAX_ITER = 1000  # points one Newton solve may evaluate, rejected ones included
# the share of its predicted decrease a Newton step must achieve (Armijo), and
# the loss's relative rounding error, under which no decrease can be told apart
ARMIJO, LOSS_RTOL = 0.25, 1e-13
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
    """q-weighted sums of the losses, gradients and Hessians at ``point``, and each model's Hessian."""
    parts = [model.gradient_and_hessian(point) for model in models]
    loss, grad, hess = (sum(qk * part[i] for qk, part in zip(q, parts)) for i in range(3))
    return loss, grad, hess, [part[2] for part in parts]


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


def _newton_step(grad, hess):
    """The Newton step H^-1 g, solved after a symmetric Jacobi scaling of H, and the decrement g.H^-1 g."""
    diag = np.diag(hess)
    if not (diag > 0).all():
        raise SingularAggregateHessian("weighted aggregate Hessian has a diagonal entry that is not positive")
    scale = 1.0 / np.sqrt(diag)
    try:
        step = scale * np.linalg.solve(hess * np.outer(scale, scale), scale * grad)
    except np.linalg.LinAlgError as exc:
        raise SingularAggregateHessian(str(exc)) from exc
    return step, grad @ step


def _newton(models, q, w):
    """Damped Newton from ``w`` to the minimizer of the q-weighted loss; returns it and each model's Hessian.

    It stops once the Newton decrement g.H^-1 g is at most PARETO_TOL**2, and
    otherwise tries w - t * step for t = 1, 1/2, 1/4, ... until the loss falls
    by ARMIJO * t * decrement, give or take its rounding error. Each tried
    point is one pass over each design; an accepted one gives the next step.
    """
    loss, grad, hess, hessians = _aggregate(models, q, w)
    step, decrement = _newton_step(grad, hess)
    t = 1.0
    for _ in range(PARETO_MAX_ITER):
        if decrement <= PARETO_TOL**2:
            return w, hessians
        trial = w - t * step
        evaluated = _aggregate(models, q, trial)
        if not evaluated[0] <= loss - ARMIJO * t * decrement + LOSS_RTOL * abs(loss):
            t *= 0.5  # a NaN loss is rejected too
            continue
        w, (loss, grad, hess, hessians) = trial, evaluated
        step, decrement = _newton_step(grad, hess)
        t = 1.0
    raise NoConvergence(PARETO_MAX_ITER, what="Pareto solve")


def pareto_solve(models: list[CostModel], q: np.ndarray, return_hessians: bool = False):
    """Zero of the q-weighted aggregate gradient of one sub-network.

    Quadratic costs are solved in closed form. Otherwise damped Newton runs
    on the loss weighted by q / sum(q) (sampled models keep their fixed
    designs, so the target is deterministic), and its stopping test depends
    on the scale of neither q nor the features. When every model has a
    design of at least 16 * 512 rows, Newton first solves on the first 1/16
    of each design, itself warm-started the same way. With q = 0 the start,
    zero, is returned. ``NoMinimizer`` names the first model if every model
    is unregularized and the point separates all of their full designs.

    With ``return_hessians``, returns ``(w, hessians)``: each model's
    Hessian at w, from the solve's last evaluation.
    """
    q = np.asarray(q, dtype=float)
    if q.shape[0] != len(models):
        raise DimensionMismatch(f"{q.shape[0]} weights for {len(models)} models")
    w = np.zeros(models[0].dimension)
    total = q.sum()
    if all(isinstance(model, QuadraticCost) for model in models):
        lhs = sum(qk * 2.0 * model.r_u for qk, model in zip(q, models))
        rhs = sum(qk * 2.0 * model.r_u @ model.w_o for qk, model in zip(q, models))
        if np.linalg.eigvalsh(lhs).min() <= 0:
            raise SingularAggregateHessian("weighted aggregate Hessian is singular")
        w = np.linalg.solve(lhs, rhs)
    elif total > 0:
        for stage in _prefix_stages(models):
            w = _newton(stage, q / total, w)[0]
        w, hessians = _newton(models, q / total, w)
        if all(model.separated_by(w) for model in models):
            raise NoMinimizer(0)
        return (w, hessians) if return_hessians else w
    return (w, [model.gradient_and_hessian(w)[2] for model in models]) if return_hessians else w


def _members(models, members):
    """``models[k]`` for k in ``members``, each model with a design as a shallow copy.

    A copy shares a design its model already holds and draws a missing one
    for itself, so such a design is freed with the list: one sending
    sub-network's designs live only while its theory runs.
    """
    return [copy.copy(models[k]) if models[k].design_rows is not None else models[k] for k in members]


def solve_members(models, members, q):
    """``pareto_solve`` of ``models[k]`` for k in ``members`` (``_members``' copies), with Hessians."""
    return _solve(_members(models, members), members, q)


def _solve(sub_models, members, q):
    """``pareto_solve`` of one sub-network's models, with Hessians; ``NoMinimizer`` names its agent id."""
    try:
        return pareto_solve(sub_models, q, return_hessians=True)
    except NoMinimizer as exc:
        raise NoMinimizer(members[exc.model]) from None


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
    logistic model's over its seeded evaluation design, which lives only
    while its sub-network's theory runs). Without ``w_stars`` the points are
    solved for here, and the Hessians come from the solve's last evaluation.
    Receiving agents read W from the partition.
    """
    subnetworks = []
    msd_values = []
    for s, (sl, q) in enumerate(zip(partition.s_slices, q_weights(partition, step_sizes))):
        members = partition.order[sl].tolist()
        sub_models = _members(models, members)  # frees the previous sub-network's designs
        if w_stars is None:
            star, sub_hessians = _solve(sub_models, members, q)
        else:
            star = np.atleast_1d(np.asarray(w_stars[s], dtype=float))
            sub_hessians = [model.gradient_and_hessian(star)[2] for model in sub_models]
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
