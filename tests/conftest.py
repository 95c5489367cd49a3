import numpy as np
import pytest

from umtree import Dendrogram


def random_dendrogram(rng, n, rank_levels=False):
    """Random binary tree over n terminals with strictly increasing levels."""
    roots = list(range(n))
    merges = []
    levels = np.cumsum(rng.uniform(0.1, 1.0, size=n - 1))
    for r in range(n - 1):
        i, j = rng.choice(len(roots), size=2, replace=False)
        a, b = roots[i], roots[j]
        merges.append((min(a, b), max(a, b), float(r + 1 if rank_levels else levels[r])))
        roots = [x for x in roots if x not in (a, b)] + [n + r]
    return Dendrogram(n, tuple(merges))


def random_points(rng, n, m, scale=1.0):
    return rng.normal(size=(n, m)) * scale


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# Tied grids on which NN-chain merges a parent one ulp below its child's
# cost (ward: 0.030000000000000006 under 0.03000000000000001), by criterion
ROUNDING_INVERSIONS = {
    "ward": 0.1 * np.array(
        [[2, 1], [0, 2], [2, 1], [1, 1], [2, 2], [0, 0], [2, 2], [1, 2], [2, 2],
         [0, 1], [0, 0], [2, 1], [0, 2], [0, 2], [2, 1], [1, 2], [2, 2], [1, 0],
         [1, 2], [0, 0], [0, 1], [0, 1], [0, 2], [2, 2], [2, 0], [1, 2]]
    ),
    # values 0-2 over 3: rng.integers(0, 3, (24, 3)) of default_rng(2583)
    "average": np.array(
        [[1, 1, 2], [2, 2, 2], [2, 2, 2], [2, 2, 0], [1, 1, 1], [2, 0, 1], [2, 1, 1],
         [0, 1, 0], [1, 1, 2], [0, 1, 0], [1, 1, 2], [1, 0, 0], [2, 1, 2], [2, 1, 2],
         [2, 1, 1], [1, 0, 1], [1, 0, 0], [0, 0, 1], [1, 1, 2], [2, 2, 1], [2, 0, 2],
         [2, 0, 2], [2, 0, 2], [1, 1, 2]]
    ) / 3,
}
