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

from .costs import CostModel, QuadraticCost, noise_covariance_at
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

MSD_NOISE_SAMPLES = 1_000_000
PARETO_TOL = 1e-10
PARETO_MAX_ITER = 100


def q_weights(partition: NetworkPartition, step_sizes: StepSizeProfile) -> tuple[np.ndarray, ...]:
    """q_{s,k} = mu_{s,k} * p_{s,k} for every sending agent, one array per sub-network."""
    mu = step_sizes.mu
    return tuple(
        _frozen(mu[partition.order[sl]] * p)
        for sl, p in zip(partition.s_slices, partition.perron_vectors)
    )


def _aggregate(models, q, point):
    grad = np.zeros(models[0].dimension)
    hess = np.zeros((models[0].dimension,) * 2)
    for qk, model in zip(q, models):
        g, h = model.gradient_and_hessian(point)
        grad += qk * g
        hess += qk * h
    return grad, hess


def pareto_solve(models: list[CostModel], q: np.ndarray) -> np.ndarray:
    """Zero of the q-weighted aggregate gradient of one sub-network.

    Quadratic costs are solved in closed form. Otherwise Newton iterations
    run on the weighted aggregate gradient (sampled models keep their fixed
    evaluation designs, so the target is deterministic), falling back to
    gradient descent with backtracking when a Newton step fails to help.
    An accepted point's gradient and Hessian serve the next iteration, so K
    Newton steps evaluate the models K + 1 times.
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
        return np.linalg.solve(lhs, rhs)

    w = np.zeros(m)
    grad, hess = _aggregate(models, q, w)
    for _ in range(PARETO_MAX_ITER):
        if np.abs(grad).max() < PARETO_TOL:
            return w
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError as exc:
            raise SingularAggregateHessian(str(exc)) from exc
        candidate = w - step
        cand_grad, cand_hess = _aggregate(models, q, candidate)
        if np.abs(cand_grad).max() < np.abs(grad).max():
            w, grad, hess = candidate, cand_grad, cand_hess
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
        grad, hess = _aggregate(models, q, w)
    if np.abs(grad).max() < PARETO_TOL:
        return w
    raise NoConvergence(PARETO_MAX_ITER, what="Pareto solve")


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
    sub-network's Pareto point; models without an analytic covariance are
    estimated empirically from ``MSD_NOISE_SAMPLES`` draws of the stream
    seeded by (0, agent), taken in fixed chunks (see ``noise_covariance_at``).
    Receiving agents read W from the partition.
    """
    subnetworks = []
    msd_values = []
    for s, (sl, q) in enumerate(zip(partition.s_slices, q_weights(partition, step_sizes))):
        members = partition.order[sl].tolist()
        sub_models = [models[k] for k in members]
        star = (
            np.atleast_1d(np.asarray(w_stars[s], dtype=float))
            if w_stars is not None
            else pareto_solve(sub_models, q)
        )
        hessians = [model.hessian(star) for model in sub_models]
        covariances = []
        for k, model in zip(members, sub_models):
            g = model.noise_covariance(star)
            if g is None:
                rng = np.random.default_rng([0, k])
                g = noise_covariance_at(model, star, MSD_NOISE_SAMPLES, rng)
            covariances.append(g)
        msd = msd_subnetwork(q, hessians, covariances)
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
