import numpy as np
import pytest
from hypothesis import settings

import atcnet as an
from atcnet.engine import DEFAULT_BURN_IN, Trajectory, msd_from_tails
from atcnet.errors import DimensionMismatch, InsufficientData

# Eight agents, two sending sub-networks {0,1,2} and {3,4}, one receiving
# sub-network {5,6,7}; same weights as the three-subnetwork preset.
EIGHT_AGENT = np.array(
    [
        [0.2, 0.2, 0.8, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.5, 0.4, 0.1, 0.0, 0.0, 0.2, 0.0, 0.4],
        [0.3, 0.4, 0.1, 0.0, 0.0, 0.1, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.4, 0.3, 0.3, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.6, 0.7, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.2, 0.3, 0.2],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.1, 0.5, 0.3],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.1, 0.2, 0.1],
    ]
)

TWO_AGENT = np.array([[1.0, 0.03], [0.0, 0.97]])

FULLY_CONNECTED = np.full((8, 8), 0.125)


@pytest.fixture
def eight_agent():
    return an.validate(EIGHT_AGENT)


@pytest.fixture
def eight_partition(eight_agent):
    return an.classify(eight_agent)


@pytest.fixture
def two_agent():
    return an.validate(TWO_AGENT)


@pytest.fixture
def fully_connected():
    return an.validate(FULLY_CONNECTED)


def random_weak_matrix(rng, s_sizes=(3, 2), r_sizes=(2, 2), shuffle=True):
    """Random weakly-connected combination matrix with known group structure.

    Returns (raw matrix, set of sending SCCs, set of receiving SCCs) where
    SCCs are frozensets of agent indices after the random renumbering.
    """
    sizes = list(s_sizes) + list(r_sizes)
    n = sum(sizes)
    starts = np.cumsum([0] + sizes)
    a = np.zeros((n, n))
    for b, size in enumerate(sizes):
        lo, hi = starts[b], starts[b + 1]
        a[lo:hi, lo:hi] = 0.2 + rng.random((size, size))  # dense: primitive block
        if b >= len(s_sizes):
            # receiving block: inbound edges from every earlier block
            for src in range(b):
                slo, shi = starts[src], starts[src + 1]
                a[slo:shi, lo:hi] = 0.1 + rng.random((shi - slo, hi - lo))
    a /= a.sum(axis=0)

    perm = rng.permutation(n) if shuffle else np.arange(n)
    shuffled = a[np.ix_(perm, perm)]
    new_id = np.empty(n, dtype=int)
    new_id[perm] = np.arange(n)  # original position -> new id... inverse of perm
    groups = [
        frozenset(int(new_id[i]) for i in range(starts[b], starts[b + 1]))
        for b in range(len(sizes))
    ]
    s_groups = set(groups[: len(s_sizes)])
    r_groups = set(groups[len(s_sizes) :])
    return shuffled, s_groups, r_groups


def estimate_msd(
    trajectories: list[Trajectory],
    burn_in_fraction: float = DEFAULT_BURN_IN,
):
    """Reference MSD estimate over kept records: post-burn-in squared errors averaged within
    runs, then across runs.

    Each run's records are added in record order, as the kernel adds its
    running tail sums, so this equals ``msd_from_tails`` on the streamed
    runs bit for bit.
    """
    if len(trajectories) < 2:
        raise InsufficientData("MSD estimation needs at least 2 runs")
    if not 0.0 <= burn_in_fraction < 1.0:
        raise ValueError("burn_in_fraction must lie in [0, 1)")
    if any(traj.sq_error is None for traj in trajectories):
        raise InsufficientData(
            "the trajectories streamed their squared errors (sq_error is None); "
            "estimate the MSD from their tail means with msd_from_tails"
        )
    t = trajectories[0].sq_error.shape[0]
    if any(traj.sq_error.shape != trajectories[0].sq_error.shape for traj in trajectories):
        raise DimensionMismatch("trajectories have inconsistent shapes")
    if t == 0:
        raise InsufficientData("MSD estimation needs at least 1 record per run")
    start = int(np.floor(burn_in_fraction * t))
    # cumsum adds row after row; a plain sum adds a single column pairwise
    return msd_from_tails(
        [np.cumsum(traj.sq_error[start:], axis=0)[-1] / (t - start) for traj in trajectories]
    )


# Property tests draw the same examples on every run, and keep no example database.
settings.register_profile("atcnet", derandomize=True, database=None, deadline=None)
settings.load_profile("atcnet")
