import json
import tracemalloc
import warnings

import numpy as np
import pytest

from umtree import (
    Dendrogram,
    DistanceMatrix,
    cophenetic_distance,
    cophenetic_matrix,
    verify_metric,
    verify_ultrametric,
)
from umtree.datasets import ranked_demo_tree

from conftest import random_dendrogram


def small_tree():
    # y and z merge at 1.0, x joins at 3.5
    return Dendrogram(3, ((1, 2, 1.0), (0, 3, 3.5)), labels=("x", "y", "z"))


class TestDendrogram:
    def test_structure(self):
        d = small_tree()
        assert d.root == 4
        assert d.children(4) == (0, 3)
        assert d.level(3) == 1.0
        assert d.level(0) == 0.0
        assert d.rank(3) == 1
        assert d.branch_label(3, 1) == +1
        assert d.branch_label(3, 2) == -1
        assert d.check_strict_levels()

    def test_invalid_trees(self):
        with pytest.raises(ValueError):
            Dendrogram(3, ((0, 1, 1.0),))  # missing a merge
        with pytest.raises(ValueError):
            Dendrogram(2, ((0, 0, 1.0),))  # child reused
        with pytest.raises(ValueError):
            Dendrogram(2, ((0, 1, -1.0),))  # negative level
        with pytest.raises(ValueError):
            # parent below child level
            Dendrogram(3, ((0, 1, 2.0), (2, 3, 1.0)))

    def test_duplicate_labels_rejected(self):
        merges = ((1, 2, 1.0), (0, 3, 3.5))
        with pytest.raises(ValueError, match=r"label 'y' repeated \(terminals 1 and 2\)"):
            Dendrogram(3, merges, labels=("x", "y", "y"))
        with pytest.raises(ValueError, match="repeated"):
            Dendrogram(3, merges, labels=(1, True, "1"))  # 1 == True as dict keys
        with pytest.raises(ValueError, match="not hashable"):
            Dendrogram(3, merges, labels=("x", ["y"], "z"))
        text = small_tree().to_json().replace('"z"', '"x"')  # a hand-edited tree
        with pytest.raises(ValueError, match=r"label 'x' repeated \(terminals 0 and 2\)"):
            Dendrogram.from_json(text)
        assert Dendrogram(3, merges, labels=(1, "1", 1.5)).labels == (1, "1", 1.5)

    def test_json_round_trip(self):
        d = small_tree()
        back = Dendrogram.from_json(d.to_json())
        assert back == d
        payload = json.loads(d.to_json())
        assert payload["n_terminals"] == 3
        assert payload["merges"] == [[1, 2, 1.0], [0, 3, 3.5]]

    def test_newick(self):
        assert small_tree().to_newick() == "(x:3.5,(y:1,z:1):2.5);"

    def test_rank_levels(self):
        d = small_tree().with_rank_levels()
        assert [m[2] for m in d.merges] == [1.0, 2.0]


class TestCophenetic:
    def test_three_point_readings(self):
        d = small_tree()
        assert cophenetic_distance(d, 0, 2) == 3.5
        assert cophenetic_distance(d, 0, 1) == 3.5
        assert cophenetic_distance(d, 1, 2) == 1.0

    def test_identity_and_errors(self):
        d = small_tree()
        assert cophenetic_distance(d, 1, 1) == 0.0
        with pytest.raises(IndexError):
            cophenetic_distance(d, 0, 3)

    def test_two_leaf_matrix(self):
        d = Dendrogram(2, ((0, 1, 1.0),))
        assert np.array_equal(cophenetic_matrix(d).values, [[0, 1], [1, 0]])

    def test_ranked_demo_tree_matrix(self):
        m = cophenetic_matrix(ranked_demo_tree())
        assert m[0, 1] == 1.0
        assert m[0, 2] == 2.0
        assert m[0, 6] == 7.0

    def test_matrix_matches_pairwise_calls(self, rng):
        d = random_dendrogram(rng, 10)
        m = cophenetic_matrix(d)
        for i in range(10):
            for j in range(10):
                assert m[i, j] == cophenetic_distance(d, i, j)

    def test_brute_force_lca(self, rng):
        d = random_dendrogram(rng, 10)
        for i in range(10):
            for j in range(i + 1, 10):
                common = [
                    node
                    for node in range(10, d.n_nodes)
                    if {i, j} <= d.members(node)
                ]
                lowest = min(common, key=d.level)
                assert cophenetic_distance(d, i, j) == d.level(lowest)

    def test_zero_iff_equal(self, rng):
        d = random_dendrogram(rng, 12)
        m = cophenetic_matrix(d).values
        off = m[~np.eye(12, dtype=bool)]
        assert (off > 0).all()


class TestClusterMembers:
    def test_demo_tree_cluster(self):
        d = ranked_demo_tree()
        assert d.members(11) == {3, 4, 5}

    def test_root_and_terminal(self):
        d = small_tree()
        assert d.members(d.root) == {0, 1, 2}
        assert d.members(1) == {1}


class TestVerify:
    def test_cophenetic_is_ultrametric_exactly(self, rng):
        for _ in range(5):
            d = random_dendrogram(rng, 15)
            assert verify_ultrametric(cophenetic_matrix(d), tol=0.0) == []

    def test_isosceles_small_base(self, rng):
        d = random_dendrogram(rng, 10)
        m = cophenetic_matrix(d).values
        from itertools import combinations

        for i, j, k in combinations(range(10), 3):
            sides = sorted((m[i, j], m[i, k], m[j, k]))
            assert sides[2] == sides[1]

    def test_ultrametric_violation(self):
        m = np.array([[0, 1, 3], [1, 0, 1], [3, 1, 0]], float)
        viols = verify_ultrametric(m)
        assert len(viols) == 1
        i, j, k, slack = viols[0]
        assert (i, j, k) == (0, 1, 2)
        assert slack == pytest.approx(2.0)

    def test_collinear_points(self):
        m = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], float)
        assert len(verify_ultrametric(m)) == 1
        assert verify_metric(m) == []

    def test_metric_violation(self):
        m = np.array([[0, 1, 3], [1, 0, 1], [3, 1, 0]], float)
        viols = verify_metric(m)
        assert len(viols) == 1
        assert viols[0][3] == pytest.approx(1.0)

    def test_euclidean_passes_metric(self, rng):
        from umtree import euclidean_matrix

        x = rng.normal(size=(12, 3))
        assert verify_metric(euclidean_matrix(x), tol=1e-12) == []

    def test_ultrametric_implies_metric(self, rng):
        d = random_dendrogram(rng, 12)
        assert verify_metric(cophenetic_matrix(d), tol=1e-12) == []

    def test_violations_sorted(self):
        m = np.full((4, 4), 5.0)
        np.fill_diagonal(m, 0.0)
        m[0, 1] = m[1, 0] = 1.0
        m[2, 3] = m[3, 2] = 1.0
        viols = verify_ultrametric(m)
        assert viols == sorted(viols)


class TestDistanceMatrix:
    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            DistanceMatrix(np.array([[0, 1], [2, 0]], float))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DistanceMatrix(np.array([[0, -1], [-1, 0]], float))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            DistanceMatrix(np.array([[1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            DistanceMatrix(np.array([[0.0, bad], [bad, 0.0]]))

    @staticmethod
    def metric(n, seed=0):
        """A valid n x n matrix (distances on a line), exactly symmetric."""
        x = np.random.default_rng(seed).normal(size=n)
        return np.abs(x[:, None] - x[None, :])

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)])
    def test_rejects_non_square_by_name(self, shape):
        with pytest.raises(ValueError, match="square"):
            DistanceMatrix(np.zeros(shape))

    def test_non_finite_rejected_without_warnings(self):
        v = np.array([[0.0, np.inf], [np.inf, 0.0]])  # inf - inf is NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                DistanceMatrix(v)

    def test_non_finite_reported_before_shape(self):
        with pytest.raises(ValueError, match="finite"):
            DistanceMatrix(np.array([[0.0, 1.0, np.nan], [1.0, 0.0, 2.0]]))

    def test_rejects_asymmetry_by_name(self):
        v = self.metric(600)
        v[530, 7] += 1e-3
        with pytest.raises(ValueError, match="symmetric"):
            DistanceMatrix(v)

    def test_rejects_negative_by_name(self):
        v = self.metric(600)
        v[410, 590] = v[590, 410] = -1e-12
        with pytest.raises(ValueError, match="nonnegative"):
            DistanceMatrix(v)

    def test_rejects_nonzero_diagonal_by_name(self):
        v = self.metric(600)
        v[599, 599] = 1e-300
        with pytest.raises(ValueError, match="diagonal must be zero"):
            DistanceMatrix(v)

    @pytest.mark.parametrize("at", [(0, 1), (598, 599), (300, 2)])
    def test_non_finite_reported_before_asymmetry(self, at):
        # the asymmetric pair is met before the NaN in any scan order
        v = self.metric(600)
        v[1, 0] += 5.0
        v[at] = np.nan
        with pytest.raises(ValueError, match="finite"):
            DistanceMatrix(v)

    def test_negative_asymmetric_reports_symmetric(self):
        v = self.metric(600)
        v[3, 500] = -1.0
        with pytest.raises(ValueError, match="symmetric"):
            DistanceMatrix(v)

    def test_tolerance_is_allclose(self):
        # lower triangle scaled within rtol 1e-5 / atol 1e-8: accepted
        v = self.metric(600, seed=1)
        low = np.tril_indices(600, -1)
        v[low] *= 1 + 1e-9 * np.random.default_rng(2).normal(size=len(low[0]))
        assert not np.array_equal(v, v.T)
        DistanceMatrix(v)
        # acceptance equals np.allclose(w, w.T) on both sides of its bound
        for y in (0.0, 1.0, 3.0, 1e6):
            bound = 1e-8 + 1e-5 * y
            for delta in (bound * (1 - 1e-6), bound, bound * (1 + 1e-6), 2 * bound):
                for i, j in ((1, 0), (0, 1), (599, 2)):
                    w = self.metric(600, seed=3)
                    w[i, j] = w[j, i] = y
                    w[i, j] = y + delta
                    try:
                        DistanceMatrix(w)
                        accepted = True
                    except ValueError as e:
                        assert "symmetric" in str(e)
                        accepted = False
                    assert accepted == np.allclose(w, w.T), (y, delta, i, j)


class TestValidationMemory:
    """Validation allocates no n x n temporaries."""

    @staticmethod
    def peak_in_matrices(f, n):
        tracemalloc.start()
        try:
            f()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (n * n * 8)

    def test_distance_matrix(self):
        n = 1500
        v = TestDistanceMatrix.metric(n)
        # 2.13 n^2 doubles when checked with np.isfinite/np.allclose/v < 0
        assert self.peak_in_matrices(lambda: DistanceMatrix(v), n) < 0.5

    def test_cophenetic_matrix(self, rng):
        n = 1500
        d = random_dendrogram(rng, n)
        d.layout
        # its result and one block of rows; 3.14 n^2 doubles when it
        # permuted a leaf-order copy and validated with n x n temporaries
        assert self.peak_in_matrices(lambda: cophenetic_matrix(d), n) < 1.5
