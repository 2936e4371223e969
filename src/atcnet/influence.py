"""Limiting behavior of the combination matrix and agent limit points.

Once the network is split into sending and receiving groups, the matrix
W = T_SR (I - T_RR)^(-1) tells each receiving agent how much weight every
sending agent's limit point carries in its own limit. These routines build
W, the limiting power of the combination matrix, all agent limit points and
the per-receiver influence summaries.

W comes from one linear solve against I - T_RR whose diagonal is rebuilt
from each receiving column's off-diagonal mass. A receiver that keeps
1 - eps of its own weight therefore puts eps on that diagonal, not the
cancelled 1 - (1 - eps), and a single receiver gets W = eps / eps = 1
exactly however small eps is.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotAnRAgent, SingularSystem
from .topology import CombinationMatrix, NetworkPartition, _frozen, _identity_minus


@dataclass(frozen=True, eq=False)
class InfluenceMatrix:
    """W plus the block-diagonal Perron projector of the sending group.

    ``cond`` is the condition number of (I - T_RR); a huge value signals
    receiving agents that barely listen to the sending group.
    """

    w: np.ndarray      # (n_gs, n_gr)
    theta: np.ndarray  # (n_gs, n_gs)
    cond: float


@dataclass(frozen=True, eq=False)
class LimitPoints:
    """Limit points for every agent, row-stacked (one M-vector per agent)."""

    partition: NetworkPartition
    w_star_per_subnetwork: tuple[np.ndarray, ...]
    w_star_stacked: np.ndarray  # (n_gs, M), canonical sending order
    w_bullet: np.ndarray        # (n_gr, M), canonical receiving order
    w_infinity: np.ndarray      # (n, M), canonical order

    @property
    def dimension(self) -> int:
        return self.w_infinity.shape[1]

    def by_original_agent(self) -> np.ndarray:
        """(n, M) limit points indexed by original agent id."""
        out = np.empty_like(self.w_infinity)
        out[self.partition.order] = self.w_infinity
        return out


def influence_matrix(partition: NetworkPartition) -> InfluenceMatrix:
    """Compute W by a linear solve against (I - T_RR) and assemble Theta.

    Solves (I - T_RR)^T X = T_SR^T instead of forming the inverse. The
    receiving block is stable, so the system is nonsingular in exact
    arithmetic, but it can be badly conditioned when several receiving
    agents assign almost no weight outside.
    """
    t_sr = partition.t_sr
    system = _identity_minus(partition.t_rr, t_sr.sum(axis=0))
    try:
        w = np.linalg.solve(system.T, t_sr.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(
            "I - T_RR is numerically singular; the receiving block has "
            "spectral radius at 1"
        ) from exc
    cond = float(np.linalg.cond(system)) if system.size else 1.0

    theta = np.zeros((partition.n_gs, partition.n_gs))
    for sl, p in zip(partition.s_slices, partition.perron_vectors):
        theta[sl, sl] = np.outer(p, np.ones(p.shape[0]))
    return InfluenceMatrix(w=_frozen(w), theta=_frozen(theta), cond=cond)


def neumann_w(partition: NetworkPartition, n_terms: int) -> np.ndarray:
    """Partial sum T_SR (I + T_RR + T_RR^2 + ...) with ``n_terms`` terms."""
    total = np.zeros_like(partition.t_sr)
    term = partition.t_sr.copy()
    for _ in range(n_terms):
        total += term
        term = term @ partition.t_rr
    return total


@dataclass(frozen=True, eq=False)
class LimitingPower:
    original: np.ndarray   # (n, n), original agent order
    canonical: np.ndarray  # (n, n), senders first


def limiting_power(partition: NetworkPartition, im: InfluenceMatrix) -> LimitingPower:
    """Limit of A^n: [Theta, Theta W; 0, 0] mapped back to input agent order.

    ``im`` is the partition's influence matrix, which supplies Theta and W.
    """
    n = partition.n
    canonical = np.zeros((n, n))
    canonical[: partition.n_gs, : partition.n_gs] = im.theta
    if partition.n_gr:
        canonical[: partition.n_gs, partition.n_gs :] = im.theta @ im.w
    original = np.zeros((n, n))
    original[np.ix_(partition.order, partition.order)] = canonical
    return LimitingPower(original=_frozen(original), canonical=_frozen(canonical))


def receiving_limit_points(
    w: np.ndarray,
    w_stars: list[np.ndarray],
    partition: NetworkPartition,
) -> LimitPoints:
    """Limit points of receiving agents as W-weighted sums of sending ones.

    ``w_stars`` holds one M-vector per sending sub-network. The Kronecker
    structure is never materialized: rows of the stacked sending matrix are
    combined directly through W's columns.
    """
    n_sub = len(partition.s_sizes)
    if len(w_stars) != n_sub:
        raise DimensionMismatch(
            f"expected {n_sub} sending limit points, got {len(w_stars)}"
        )
    stars = [np.atleast_1d(np.asarray(v, dtype=float)) for v in w_stars]
    m = stars[0].shape[0]
    for v in stars:
        if v.shape != (m,):
            raise DimensionMismatch("sending limit points differ in dimension")
    w = np.asarray(w, dtype=float)
    if w.shape != (partition.n_gs, partition.n_gr):
        raise DimensionMismatch(
            f"W has shape {w.shape}, expected {(partition.n_gs, partition.n_gr)}"
        )

    stacked = np.vstack(
        [np.tile(stars[s], (size, 1)) for s, size in enumerate(partition.s_sizes)]
    ) if n_sub else np.zeros((0, m))
    bullet = w.T @ stacked
    infinity = np.vstack([stacked, bullet])
    return LimitPoints(
        partition=partition,
        w_star_per_subnetwork=tuple(_frozen(v) for v in stars),
        w_star_stacked=_frozen(stacked),
        w_bullet=_frozen(bullet),
        w_infinity=_frozen(infinity),
    )


def fixed_point_residual(a: CombinationMatrix, limit_points: LimitPoints) -> float:
    """Max-norm residual of the stationarity identity A^T-mix of limit points."""
    x = limit_points.by_original_agent()
    return float(np.abs(a.weights.T @ x - x).max())


def influence_vector(
    w: np.ndarray, partition: NetworkPartition, agent_id: int
) -> np.ndarray:
    """(S,) sums of W's column for one receiving agent over each sending sub-network."""
    try:
        column = partition.r_column(agent_id)
    except KeyError:
        raise NotAnRAgent(agent_id) from None
    col = np.asarray(w, dtype=float)[:, column]
    entries = np.array([col[sl].sum() for sl in partition.s_slices])
    return _frozen(entries)
