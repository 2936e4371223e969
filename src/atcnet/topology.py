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
    that feed others come first); each component lists its agents in
    increasing id.
    """

    sccs: tuple[tuple[int, ...], ...]
    edges: frozenset[tuple[int, int]]  # (from_scc, to_scc) indices into sccs


@dataclass(frozen=True, eq=False)
class NetworkPartition:
    """Canonical sending/receiving decomposition of a combination matrix.

    ``order`` lists original agent ids in canonical order (senders first);
    the blocks are taken from weights[order][:, order]. What is derived from
    the partition (slices, agent ids, Perron vectors, the spectral radius of
    t_rr, W and each receiving sub-network's outside weight) is computed on
    first use and kept.
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
    def w(self) -> np.ndarray:
        """(n_gs, n_gr) influence matrix W = t_sr (I - t_rr)^(-1), read-only."""
        # influence imports this module, so it is imported here, not at the top.
        from . import influence

        return influence.influence_matrix(self)

    @cached_property
    def outside_weight(self) -> tuple[tuple[float, float], ...]:
        """(min, max) over each receiving sub-network's agents of the weight they give outside it.

        One pair per receiving sub-network, in canonical order. An agent's
        outside weight is summed from its column's entries in t_sr and in the
        t_rr rows above its block (t_rr is block upper-triangular), never
        taken as 1 minus its column sum inside the block. Column sums bound
        the spectral radius of a nonnegative block, so
        min <= 1 - rho(block) <= max: a tiny max shows a receiving
        sub-network that barely listens outside.
        """
        pairs = []
        for sl in _slices(self.r_sizes):
            outside = self.t_sr[:, sl].sum(axis=0) + self.t_rr[: sl.start, sl].sum(axis=0)
            pairs.append((float(outside.min()), float(outside.max())))
        return tuple(pairs)

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
    with np.errstate(over="ignore"):  # a column of huge entries sums to inf: a violation
        sums = a.sum(axis=0)
    bad = np.argwhere(np.abs(sums - 1.0) > COLUMN_SUM_TOL)
    if bad.size:
        k = int(bad[0][0])
        raise ColumnSumViolation(k, float(sums[k]))
    return CombinationMatrix(n=a.shape[0], weights=_frozen(a / sums))


def _bfs(adj: np.ndarray, root: int, allowed: np.ndarray) -> np.ndarray:
    """Breadth-first level of each agent from ``root`` along the edges of ``adj``.

    The search moves only through ``allowed`` agents; an agent it does not
    reach gets -1.
    """
    level = np.full(len(adj), -1)
    unreached = allowed.copy()
    frontier = [root]
    depth = 0
    while len(frontier):
        level[frontier] = depth
        unreached[frontier] = False
        depth += 1
        frontier = np.flatnonzero(adj[frontier].any(axis=0) & unreached)
    return level


def _finishing_order(adj: np.ndarray) -> list[int]:
    """Agents in the order a depth-first search over ``adj`` finishes them."""
    unseen = np.ones(len(adj), dtype=bool)
    finished: list[int] = []
    for root in range(len(adj)):
        if not unseen[root]:
            continue
        unseen[root] = False
        path = [root]
        while path:
            ahead = adj[path[-1]] & unseen
            nxt = int(ahead.argmax())
            if ahead[nxt]:
                unseen[nxt] = False
                path.append(nxt)
            else:
                finished.append(path.pop())
    return finished


def condense(a: CombinationMatrix) -> Condensation:
    """SCC decomposition of the directed graph {l -> k : weights[l, k] > 0}.

    Kosaraju: in reverse finishing order, each agent not yet placed takes
    every unplaced agent that reaches it. The components are then ordered
    by Kahn's rule, the ready component with the smallest agent id first.
    """
    adj = a.weights > 0
    backward = np.ascontiguousarray(adj.T)
    smallest = np.full(a.n, -1)  # smallest agent id of each agent's SCC
    for root in reversed(_finishing_order(adj)):
        if smallest[root] < 0:
            members = _bfs(backward, root, smallest < 0) >= 0
            smallest[members] = members.argmax()
    keys = np.flatnonzero(smallest == np.arange(a.n))  # each SCC's smallest agent, ascending
    comp = np.searchsorted(keys, smallest)  # SCCs numbered by smallest agent id
    k = len(keys)
    linked = np.zeros(k * k, dtype=bool)
    linked[(k * comp[:, None] + comp)[adj]] = True  # (comp[u], comp[v]) of each edge u -> v
    linked = linked.reshape(k, k)
    np.fill_diagonal(linked, False)

    indeg = linked.sum(axis=0)
    topo = []
    for _ in range(k):
        u = int(np.argmax(indeg == 0))  # the ready SCC with the smallest agent id
        topo.append(u)
        indeg -= linked[u]
        indeg[u] = -1

    sccs = tuple(tuple(np.flatnonzero(comp == u).tolist()) for u in topo)
    edges = frozenset(map(tuple, np.argwhere(linked[np.ix_(topo, topo)]).tolist()))
    return Condensation(sccs=sccs, edges=edges)


def _period(block: np.ndarray) -> int:
    """Period of a strongly connected graph (gcd of closed-walk lengths).

    With BFS levels from agent 0, the period is gcd(level[u] + 1 - level[v])
    over all edges u -> v of the boolean ``block``. Returns 0 for a single
    agent without a self-loop (no closed walk at all).
    """
    level = _bfs(block, 0, np.ones(len(block), dtype=bool))
    u, v = np.nonzero(block)
    return int(np.gcd.reduce(level[u] + 1 - level[v]))


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
        if _period(w[np.ix_(ids, ids)] > 0) != 1:
            raise NonPrimitiveSource(ci, members)
        s_ids.append(ci)

    order = np.array(
        [v for ci in s_ids for v in cond.sccs[ci]]
        + [v for ci in r_ids for v in cond.sccs[ci]],
        dtype=int,
    )
    n_gs = sum(len(cond.sccs[ci]) for ci in s_ids)
    n_gr = a.n - n_gs
    order.setflags(write=False)
    senders, receivers = order[:n_gs], order[n_gs:]

    def block(rows, cols):
        """The (rows, cols) block of w: one gather, frozen without a second copy."""
        out = w[np.ix_(rows, cols)]
        out.setflags(write=False)
        return out

    return NetworkPartition(
        scc_list=cond.sccs,
        s_type_ids=tuple(s_ids),
        r_type_ids=tuple(r_ids),
        order=order,
        t_ss=block(senders, senders),
        t_sr=block(senders, receivers),
        t_rr=block(receivers, receivers),
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
