"""The linkage drivers and the cophenetic matrix against
scipy.cluster.hierarchy on untied data (normal rows, so no two distances
tie).  scipy is a test oracle only; without it these tests are skipped.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
from scipy.spatial.distance import pdist, squareform  # noqa: E402

from umtree import (  # noqa: E402
    cophenetic_matrix,
    euclidean_matrix,
    mst_cluster,
    naive_cluster,
    nn_chain_cluster,
)

TOL = 1e-9


@st.composite
def untied(draw):
    n, m = draw(st.integers(2, 40)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.normal(size=(n, m)) * 10.0 ** draw(st.integers(-2, 2))


def levels(dend):
    return np.array([lev for _, _, lev in dend.merges])


def assert_cophenetic(dend, z):
    """The same tree as z's, by cophenetic_matrix against cophenet."""
    got = cophenetic_matrix(dend).values
    np.testing.assert_allclose(got, squareform(hierarchy.cophenet(z)), rtol=TOL, atol=TOL)


@pytest.mark.parametrize("crit", ["single", "complete", "average", "ward"])
@settings(max_examples=40, deadline=None)
@given(x=untied())
def test_nn_chain_heights_and_cophenetic(crit, x):
    dend = nn_chain_cluster(euclidean_matrix(x), crit)
    z = hierarchy.linkage(pdist(x), crit)
    np.testing.assert_allclose(levels(dend), z[:, 2], rtol=TOL, atol=TOL)
    assert_cophenetic(dend, z)


@settings(max_examples=40, deadline=None)
@given(x=untied())
def test_mst_heights_and_cophenetic(x):
    dend = mst_cluster(euclidean_matrix(x))
    z = hierarchy.linkage(pdist(x), "single")
    np.testing.assert_allclose(levels(dend), z[:, 2], rtol=TOL, atol=TOL)
    assert_cophenetic(dend, z)


@settings(max_examples=60, deadline=None)
@given(x=untied())
def test_naive_median_levels_are_running_maximum(x):
    """The naive driver merges in scipy's order; its levels are the running
    maximum of scipy's heights (median linkage can invert)."""
    dend = naive_cluster(euclidean_matrix(x), "median")
    z = hierarchy.linkage(pdist(x), "median")
    z[:, 2] = np.maximum.accumulate(z[:, 2])
    np.testing.assert_allclose(levels(dend), z[:, 2], rtol=TOL, atol=TOL)
    assert_cophenetic(dend, z)
