import numpy as np
import pytest
from hypothesis import settings

import atcnet as an

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


# Property tests draw the same examples on every run, and keep no example database.
settings.register_profile("atcnet", derandomize=True, database=None, deadline=None)
settings.load_profile("atcnet")
