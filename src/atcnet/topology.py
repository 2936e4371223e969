"""Combination-matrix validation and structural decomposition.

A combination matrix stores, in entry (l, k), the weight agent k applies to
data received from agent l, so every column is a convex combination and the
directed edge set is {l -> k : weights[l, k] > 0}. The decomposition splits
the agents into sending sub-networks (strongly connected, primitive, no
inbound edges) and receiving sub-networks (everything else) and extracts the
canonical block-triangular form obtained by renumbering agents so senders
come first.

Everything here is decided combinatorially or solved directly. A receiving
sub-network has an inbound edge, so by Perron-Frobenius its block has
spectral radius below 1 however small that edge's weight is; the spectral
radius is only reported. The Perron vector of a sending block is one linear
solve whose diagonal is rebuilt from each column's off-diagonal mass, so a
weight 1 - eps on the diagonal never turns into the cancelled 1 - (1 - eps).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import (
    ColumnSumViolation,
    NegativeWeight,
    NonFiniteWeight,
    NonPrimitiveSource,
    NonSquare,
)

COLUMN_SUM_TOL = 1e-9


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _identity_minus(block: np.ndarray, outside_mass=0.0) -> np.ndarray:
    """I - block, with each diagonal entry rebuilt as its column's other mass.

    That mass is the column's off-diagonal sum plus ``outside_mass`` (the
    column's weight outside the block), never 1 minus the diagonal entry.
    """
    system = -np.asarray(block, dtype=float)
    np.fill_diagonal(system, 0.0)
    np.fill_diagonal(system, outside_mass - system.sum(axis=0))
    return system


def _slices(sizes) -> tuple[slice, ...]:
    """Consecutive slices of the given sizes, starting at 0."""
    ends = list(accumulate(sizes))
    return tuple(slice(end - size, end) for size, end in zip(sizes, ends))


@dataclass(frozen=True, eq=False)
class CombinationMatrix:
    """Validated left-stochastic weight matrix over a directed network."""

    n: int
    weights: np.ndarray  # (n, n), read-only


@dataclass(frozen=True)
class Condensation:
    """SCCs of the agent graph plus the (acyclic) edges between them.

    ``sccs`` is ordered topologically along the flow direction (components
    that feed others come first); members keep their input order.
    """

    sccs: tuple[tuple[int, ...], ...]
    edges: frozenset[tuple[int, int]]  # (from_scc, to_scc) indices into sccs


@dataclass(frozen=True, eq=False)
class NetworkPartition:
    """Canonical sending/receiving decomposition of a combination matrix.

    ``order`` lists original agent ids in canonical order (senders first);
    the blocks are taken from weights[order][:, order]. What is derived from
    the partition (slices, agent ids, Perron vectors, the spectral radius of
    t_rr) is computed on first use and kept.
    """

    scc_list: tuple[tuple[int, ...], ...]
    s_type_ids: tuple[int, ...]
    r_type_ids: tuple[int, ...]
    order: np.ndarray  # (n,), read-only
    t_ss: np.ndarray
    t_sr: np.ndarray
    t_rr: np.ndarray
    n_gs: int
    n_gr: int
    s_sizes: tuple[int, ...]
    r_sizes: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.n_gs + self.n_gr

    @cached_property
    def s_agents(self) -> tuple[int, ...]:
        """Original ids of sending agents, in canonical order."""
        return tuple(self.order[: self.n_gs].tolist())

    @cached_property
    def r_agents(self) -> tuple[int, ...]:
        """Original ids of receiving agents, in canonical order."""
        return tuple(self.order[self.n_gs :].tolist())

    @cached_property
    def s_slices(self) -> tuple[slice, ...]:
        """Canonical sending positions of each sending sub-network."""
        return _slices(self.s_sizes)

    @cached_property
    def perron_vectors(self) -> tuple[np.ndarray, ...]:
        """Perron vector of each sending sub-network's diagonal block."""
        return tuple(perron(block) for block in self.s_blocks())

    @cached_property
    def rho_t_rr(self) -> float:
        """Spectral radius of t_rr, reported only; below 1 in exact arithmetic.

        It is the largest over the diagonal blocks, since t_rr is block
        upper-triangular; 0 when there are no receiving agents.
        """
        blocks = (self.t_rr[sl, sl] for sl in _slices(self.r_sizes))
        return max(map(spectral_radius, blocks), default=0.0)

    @cached_property
    def _r_columns(self) -> dict[int, int]:
        return {aid: col for col, aid in enumerate(self.r_agents)}

    def s_blocks(self) -> list[np.ndarray]:
        """Diagonal blocks of t_ss, one per sending sub-network."""
        return [self.t_ss[sl, sl] for sl in self.s_slices]

    def r_column(self, agent_id: int) -> int:
        """Canonical receiving-side column index for an original agent id."""
        return self._r_columns[agent_id]


def validate(matrix) -> CombinationMatrix:
    """Check finite, nonnegative entries and unit column sums; renormalize.

    Columns whose sums deviate from 1 by at most ``COLUMN_SUM_TOL`` (printed
    matrices are often rounded to a few decimals) are rescaled exactly to 1.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquare(a.shape)
    if a.shape[0] < 1:
        raise NonSquare(a.shape)
    bad = np.argwhere(~np.isfinite(a))
    if bad.size:
        l, k = bad[0]
        raise NonFiniteWeight(int(l), int(k), float(a[l, k]))
    neg = np.argwhere(a < 0)
    if neg.size:
        l, k = neg[0]
        raise NegativeWeight(int(l), int(k), float(a[l, k]))
    sums = a.sum(axis=0)
    bad = np.argwhere(np.abs(sums - 1.0) > COLUMN_SUM_TOL)
    if bad.size:
        k = int(bad[0][0])
        raise ColumnSumViolation(k, float(sums[k]))
    return CombinationMatrix(n=a.shape[0], weights=_frozen(a / sums))


def _tarjan_sccs(adj: list[list[int]]) -> list[list[int]]:
    """Iterative Tarjan; returns SCCs in reverse topological order."""
    n = len(adj)
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for i in range(pi, len(adj[v])):
                w = adj[v][i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w] and index[w] < lowlink[v]:
                    lowlink[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
    return sccs


def condense(a: CombinationMatrix) -> Condensation:
    """SCC decomposition of the directed graph {l -> k : weights[l, k] > 0}."""
    n = a.n
    src, dst = np.nonzero(a.weights > 0)  # row-major: grouped by source
    starts = np.searchsorted(src, np.arange(n + 1)).tolist()
    targets = dst.tolist()
    adj = [targets[starts[l] : starts[l + 1]] for l in range(n)]
    raw = _tarjan_sccs(adj)

    comp_of = np.empty(n, dtype=int)
    for ci, comp in enumerate(raw):
        comp_of[comp] = ci
    from_scc, to_scc = comp_of[src], comp_of[dst]
    linked = np.zeros((len(raw), len(raw)), dtype=bool)
    linked[from_scc, to_scc] = True
    np.fill_diagonal(linked, False)
    raw_edges = {tuple(edge) for edge in np.argwhere(linked).tolist()}

    # Deterministic topological order: Kahn with smallest original agent id first.
    indeg = [0] * len(raw)
    out_edges: list[list[int]] = [[] for _ in raw]
    for u, v in raw_edges:
        indeg[v] += 1
        out_edges[u].append(v)
    key = [min(comp) for comp in raw]
    ready = sorted((i for i in range(len(raw)) if indeg[i] == 0), key=lambda i: key[i])
    topo: list[int] = []
    while ready:
        u = min(ready, key=lambda i: key[i])
        ready.remove(u)
        topo.append(u)
        for v in out_edges[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)

    relabel = {old: new for new, old in enumerate(topo)}
    sccs = tuple(tuple(int(v) for v in sorted(raw[old])) for old in topo)
    edges = frozenset((relabel[u], relabel[v]) for u, v in raw_edges)
    return Condensation(sccs=sccs, edges=edges)


def _period(adj_in_scc: dict[int, list[int]], members: tuple[int, ...]) -> int:
    """Period of a strongly connected subgraph (gcd of closed-walk lengths).

    Uses BFS levels from one root: the period is gcd(level[u] + 1 - level[v])
    over all edges u -> v inside the component. Returns 0 for a single node
    without a self-loop (no closed walk at all).
    """
    root = members[0]
    level = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj_in_scc[u]:
                if v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    g = 0
    for u in members:
        for v in adj_in_scc[u]:
            g = math.gcd(g, level[u] + 1 - level[v])
    return g


def classify(a: CombinationMatrix) -> NetworkPartition:
    """Split SCCs into sending and receiving groups and extract blocks.

    Sending sub-networks are SCCs with no inbound edge whose diagonal block
    is primitive; all other SCCs are receiving. Receiving SCCs keep the
    condensation's topological order so the internal receiving block comes
    out block upper-triangular.
    """
    cond = condense(a)
    has_inbound = {v for _, v in cond.edges}

    w = a.weights
    s_ids, r_ids = [], []
    for ci, members in enumerate(cond.sccs):
        if ci in has_inbound:
            r_ids.append(ci)
            continue
        ids = np.array(members)
        inside = w[np.ix_(ids, ids)] > 0
        adj = {u: ids[row].tolist() for u, row in zip(members, inside)}
        if _period(adj, members) != 1:
            raise NonPrimitiveSource(ci, members)
        s_ids.append(ci)

    order = np.array(
        [v for ci in s_ids for v in cond.sccs[ci]]
        + [v for ci in r_ids for v in cond.sccs[ci]],
        dtype=int,
    )
    n_gs = sum(len(cond.sccs[ci]) for ci in s_ids)
    n_gr = a.n - n_gs
    permuted = w[np.ix_(order, order)]
    t_ss = permuted[:n_gs, :n_gs]
    t_sr = permuted[:n_gs, n_gs:]
    t_rr = permuted[n_gs:, n_gs:]

    return NetworkPartition(
        scc_list=cond.sccs,
        s_type_ids=tuple(s_ids),
        r_type_ids=tuple(r_ids),
        order=_frozen(order).astype(int),
        t_ss=_frozen(t_ss),
        t_sr=_frozen(t_sr),
        t_rr=_frozen(t_rr),
        n_gs=n_gs,
        n_gr=n_gr,
        s_sizes=tuple(len(cond.sccs[ci]) for ci in s_ids),
        r_sizes=tuple(len(cond.sccs[ci]) for ci in r_ids),
    )


def perron(block: np.ndarray) -> np.ndarray:
    """Positive, sum-one eigenvector of a primitive left-stochastic block.

    Solves (I - A) p = 0 with its last row replaced by sum(p) = 1.
    """
    system = _identity_minus(block)
    system[-1] = 1.0
    rhs = np.zeros(system.shape[0])
    rhs[-1] = 1.0
    return _frozen(np.linalg.solve(system, rhs))


def spectral_radius(t: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a square matrix; 0 for an empty one."""
    b = np.asarray(t, dtype=float)
    return float(np.abs(np.linalg.eigvals(b)).max()) if b.size else 0.0
