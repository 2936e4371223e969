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

import numpy as np

from .errors import DimensionMismatch, NotAnRAgent, SingularSystem
from .topology import CombinationMatrix, NetworkPartition, _frozen, _identity_minus


def influence_matrix(partition: NetworkPartition) -> np.ndarray:
    """(n_gs, n_gr) W, read-only, by a linear solve against (I - T_RR).

    Solves (I - T_RR)^T X = T_SR^T instead of forming the inverse. The
    receiving block is stable, so the system is nonsingular in exact
    arithmetic, but it can be badly conditioned when several receiving
    agents assign almost no weight outside. Callers read it as
    ``partition.w``, which solves once per partition.
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
    return _frozen(w)


def neumann_w(partition: NetworkPartition, n_terms: int) -> np.ndarray:
    """Partial sum T_SR (I + T_RR + T_RR^2 + ...) with ``n_terms`` terms."""
    total = np.zeros_like(partition.t_sr)
    term = partition.t_sr.copy()
    for _ in range(n_terms):
        total += term
        term = term @ partition.t_rr
    return total


def limiting_power(partition: NetworkPartition) -> np.ndarray:
    """(n, n) limit of A^n in input agent order.

    In canonical order it is [Theta, Theta W; 0, 0], where Theta holds each
    sending sub-network's Perron vector times ones^T on its diagonal block.
    """
    n_gs = partition.n_gs
    theta = np.zeros((n_gs, n_gs))
    for sl, p in zip(partition.s_slices, partition.perron_vectors):
        theta[sl, sl] = np.outer(p, np.ones(p.shape[0]))
    canonical = np.zeros((partition.n, partition.n))
    canonical[:n_gs] = np.hstack([theta, theta @ partition.w])
    original = np.zeros_like(canonical)
    original[np.ix_(partition.order, partition.order)] = canonical
    return _frozen(original)


def receiving_limit_points(
    w_stars: list[np.ndarray], partition: NetworkPartition
) -> np.ndarray:
    """(n, M) limit points indexed by original agent id, read-only.

    ``w_stars`` holds one M-vector per sending sub-network; each sending
    agent takes its sub-network's, and receiving agents take W-weighted sums
    of them. The Kronecker structure is never materialized: rows of the
    stacked sending matrix are combined directly through W's columns.
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

    stacked = np.vstack([np.tile(v, (size, 1)) for v, size in zip(stars, partition.s_sizes)])
    out = np.empty((partition.n, m))
    out[partition.order] = np.vstack([stacked, partition.w.T @ stacked])
    return _frozen(out)


def fixed_point_residual(a: CombinationMatrix, x: np.ndarray) -> float:
    """Max-norm residual of the stationarity identity A^T x = x for (n, M) limit points."""
    return float(np.abs(a.weights.T @ x - x).max())


def influence_vector(partition: NetworkPartition, agent_id: int) -> np.ndarray:
    """(S,) sums of W's column for one receiving agent over each sending sub-network."""
    try:
        column = partition.r_column(agent_id)
    except KeyError:
        raise NotAnRAgent(agent_id) from None
    col = partition.w[:, column]
    entries = np.array([col[sl].sum() for sl in partition.s_slices])
    return _frozen(entries)
