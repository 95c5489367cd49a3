import tracemalloc
import warnings

import numpy as np
import pytest

from umtree import (
    Dendrogram,
    DistanceMatrix,
    MergeCriterion,
    cophenetic_matrix,
    euclidean_matrix,
    lance_williams_update,
    naive_cluster,
    nn_chain_cluster,
    verify_ultrametric,
)
from umtree.cli import main
from umtree.datasets import iris8

from conftest import ROUNDING_INVERSIONS, random_points

REDUCIBLE = [
    MergeCriterion.SINGLE,
    MergeCriterion.COMPLETE,
    MergeCriterion.AVERAGE,
    MergeCriterion.WARD,
]


class TestLanceWilliams:
    def test_single_is_min(self):
        assert lance_williams_update(2, 5, 3, (1, 1, 1), "single") == 2

    def test_complete_is_max(self):
        assert lance_williams_update(2, 5, 3, (1, 1, 1), "complete") == 5

    def test_average_weights_sizes(self):
        assert lance_williams_update(2.0, 5.0, 3.0, (3, 1, 1), "average") == pytest.approx(2.75)

    def test_median_coefficients(self):
        assert lance_williams_update(4, 4, 4, (1, 1, 1), "median") == pytest.approx(3.0)

    def test_median_negative_clamped(self):
        with pytest.warns(UserWarning):
            out = lance_williams_update(0.1, 0.1, 4.0, (1, 1, 1), "median")
        assert out == 0.0

    def test_ward_formula(self):
        expected = ((1 + 2) * 3.0 + (1 + 2) * 4.0 - 2 * 1.0) / 4
        assert lance_williams_update(3.0, 4.0, 1.0, (1, 1, 2), "ward") == pytest.approx(expected)


class TestNaive:
    def test_two_points(self):
        d = naive_cluster(np.array([[0.0, 1.0], [1.0, 0.0]]), "single")
        assert d.merges == ((0, 1, 1.0),)

    def test_three_collinear_single(self):
        m = euclidean_matrix(np.array([[0.0], [1.0], [3.0]]))
        d = naive_cluster(m, "single")
        assert d.merges[0][:2] == (0, 1)
        assert d.merges[0][2] == pytest.approx(1.0)
        assert d.merges[1][2] == pytest.approx(2.0)

    def test_equilateral_tie_break(self):
        m = np.ones((3, 3)) - np.eye(3)
        d = naive_cluster(m, "single")
        assert d.merges[0][:2] == (0, 1)  # lexicographically smallest pair
        assert [lev for *_, lev in d.merges] == [1.0, 1.0]

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            naive_cluster(np.zeros((1, 1)), "single")

    def test_median_iris8_merge_order(self):
        d = naive_cluster(euclidean_matrix(iris8()), "median")
        children = [tuple(m[:2]) for m in d.merges]
        assert children == [
            (0, 4), (7, 8), (2, 3), (6, 10), (1, 11), (9, 12), (5, 13),
        ]
        # levels are square roots of the merge costs
        assert d.merges[0][2] == pytest.approx(np.sqrt(0.02))

    def test_output_is_ultrametric(self, rng):
        for crit in REDUCIBLE:
            m = euclidean_matrix(random_points(rng, 12, 3))
            d = naive_cluster(m, crit)
            assert verify_ultrametric(cophenetic_matrix(d), tol=1e-9) == []


class TestNNChain:
    def test_two_points(self):
        d = nn_chain_cluster(np.array([[0.0, 1.0], [1.0, 0.0]]), "complete")
        assert d.merges == ((0, 1, 1.0),)

    def test_rejects_median(self):
        m = np.ones((3, 3)) - np.eye(3)
        with pytest.raises(ValueError, match="naive_cluster"):
            nn_chain_cluster(m, "median")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        m = np.ones((3, 3)) - np.eye(3)
        m[0, 2] = m[2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            nn_chain_cluster(m, "single")

    @pytest.mark.parametrize("crit", REDUCIBLE, ids=lambda c: c.value)
    def test_matches_naive(self, crit, rng):
        for trial in range(10):
            n = int(rng.integers(3, 30))
            m = euclidean_matrix(random_points(rng, n, 3))
            a = nn_chain_cluster(m, crit)
            b = naive_cluster(m, crit)
            assert [tuple(x[:2]) for x in a.merges] == [tuple(x[:2]) for x in b.merges]
            # the Lance-Williams updates run in another order, so the
            # levels may differ in the last bits only
            np.testing.assert_allclose(
                [x[2] for x in a.merges], [x[2] for x in b.merges], rtol=1e-14, atol=0
            )

    def test_levels_non_decreasing(self, rng):
        for crit in REDUCIBLE:
            m = euclidean_matrix(random_points(rng, 20, 4))
            levels = [lev for *_, lev in nn_chain_cluster(m, crit).merges]
            assert levels == sorted(levels)


class TestConventions:
    def test_left_child_has_smaller_id(self, rng):
        m = euclidean_matrix(random_points(rng, 15, 3))
        for crit in REDUCIBLE + [MergeCriterion.MEDIAN]:
            d = naive_cluster(m, crit)
            for a, b, _ in d.merges:
                assert a < b

    def test_merge_count_and_leaf_coverage(self, rng):
        m = euclidean_matrix(random_points(rng, 17, 2))
        d = naive_cluster(m, "average")
        assert len(d.merges) == 16
        assert d.members(d.root) == frozenset(range(17))

    def test_median_inversion_repair(self):
        # four points forming a flat diamond: median updates can invert
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.9], [0.5, -0.9]])
        d = naive_cluster(euclidean_matrix(x), "median")
        levels = [lev for *_, lev in d.merges]
        assert levels == sorted(levels)
        if d.raw_levels is not None:
            assert any(r != lev for r, lev in zip(d.raw_levels, levels))

    def test_repaired_tree_equals_its_json(self):
        # the second merge's median cost falls below the first's 16.0
        x = np.array([[0, 0], [16, 0], [8, 14], [8, -14], [24, 15]], float)
        d = naive_cluster(euclidean_matrix(x), "median")
        assert d.raw_levels[1] < d.raw_levels[0] == 16.0
        back = Dendrogram.from_json(d.to_json())
        assert back.raw_levels is None
        assert back == d
        assert back.to_json() == d.to_json()


class TestTieRules:
    # complete linkage ties at 2.0 between {3} and both {2, 4} (node 5
    # of the dendrogram) and {0, 1} (node 6)
    TIED = np.array([[2, 0], [2, 1], [0, 2], [2, 2], [0, 2]], dtype=float)

    def test_naive_merges_smallest_pair(self):
        d = naive_cluster(euclidean_matrix(self.TIED), "complete")
        assert d.merges[2] == (3, 5, 2.0)

    def test_chain_steps_to_smallest_id(self):
        # the chain merges {0, 1} before {2, 4}, so while it runs {0, 1}
        # has the smaller id and the chain from 3 steps to it; the
        # dendrogram numbers nodes in level order
        d = nn_chain_cluster(euclidean_matrix(self.TIED), "complete")
        assert d.merges[2] == (3, 6, 2.0)


class TestRoundingInversions:
    """NN-chain merges a parent one ulp below its child here, so sorting
    by cost alone put the parent first ("child id 46 out of range")."""

    @pytest.mark.parametrize("crit", sorted(ROUNDING_INVERSIONS))
    def test_levels_monotone_along_containment(self, crit):
        m = euclidean_matrix(ROUNDING_INVERSIONS[crit])
        for cluster in (naive_cluster, nn_chain_cluster):
            d = cluster(m, crit)
            for a, b, lev in d.merges:
                assert d.level(a) <= lev and d.level(b) <= lev

    @pytest.mark.parametrize("scale", [1.0, 1e-13])
    @pytest.mark.parametrize("grid", sorted(ROUNDING_INVERSIONS))
    @pytest.mark.parametrize("crit", ["single", "complete", "average", "ward", "median"])
    def test_trees_construct_without_level_tolerance(self, crit, grid, scale):
        # Dendrogram accepts no parent below its child, however close
        m = euclidean_matrix(ROUNDING_INVERSIONS[grid] * scale)
        for cluster in (naive_cluster,) if crit == "median" else (naive_cluster, nn_chain_cluster):
            d = cluster(m, crit)
            assert all(d.level(c) <= lev for a, b, lev in d.merges for c in (a, b))

    def test_raw_level_one_ulp_below(self):
        d = nn_chain_cluster(euclidean_matrix(ROUNDING_INVERSIONS["average"]), "average")
        diff = [(r, lev) for r, (*_, lev) in zip(d.raw_levels, d.merges) if r != lev]
        assert diff == [(np.nextafter(0.4714045207910317, 0), 0.4714045207910317)]

    def test_ward_costs_share_a_square_root(self):
        # the two costs, 0.03 plus 6 and 10 times 1e-18 or so, have one
        # square root, so the repaired and the raw levels agree
        d = nn_chain_cluster(euclidean_matrix(ROUNDING_INVERSIONS["ward"]), "ward")
        assert d.raw_levels is None
        assert sum(lev == np.sqrt(0.03000000000000001) for *_, lev in d.merges) == 2


class TestSquaredOverflow:
    # distances above sqrt(float max), about 1.34e154, overflow when squared
    X = np.array([0.0, 1e160, 3e160, 7e160])
    M = DistanceMatrix(np.abs(X[:, None] - X[None, :]))

    @pytest.mark.parametrize("cluster, crit", [
        (naive_cluster, "ward"), (naive_cluster, "median"), (nn_chain_cluster, "ward"),
    ])
    def test_named_before_squaring(self, cluster, crit):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{crit} linkage squares .* overflows float64"):
                cluster(self.M, crit)

    @pytest.mark.parametrize("cluster", [naive_cluster, nn_chain_cluster])
    def test_single_unaffected(self, cluster):
        d = cluster(self.M, "single")
        assert [lev for *_, lev in d.merges] == [self.M[0, 1], self.M[1, 2], self.M[2, 3]]


class TestUpdateOverflow:
    # the squares fit under float64's maximum, but ward's update multiplies
    # them by cluster sizes
    X = np.array([0, 1e153, 2e153, 1.2e154, 1.3e154, 1.25e154])
    M = DistanceMatrix(np.abs(X[:, None] - X[None, :]))

    @pytest.mark.parametrize("cluster", [naive_cluster, nn_chain_cluster])
    def test_ward_named(self, cluster):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match="^the ward Lance-Williams update overflows float64"):
                cluster(self.M, "ward")

    @pytest.mark.parametrize("cluster, crit", [
        (cluster, crit) for cluster in (naive_cluster, nn_chain_cluster)
        for crit in ("single", "complete", "average", "median")
        if cluster is naive_cluster or crit != "median"
    ])
    def test_other_criteria_succeed(self, cluster, crit):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(cluster(self.M, crit).merges) == 5


class TestNearSymmetric:
    """DistanceMatrix accepts a matrix symmetric within np.allclose; each
    driver clusters it as it clusters np.minimum(d, d.T)."""

    E = 1e-10
    # reading rows only, the chain cycled 0 -> 1 -> 2 -> 0 here
    CYCLE = np.array([[0, 1, 1 + E], [1 + 2 * E, 0, 1 - E], [1 - 2 * E, 1, 0]])
    # and here merged a cluster twice ("child id 5 out of range")
    TWICE = np.ones((4, 4)) - np.eye(4) + E * np.array(
        [[0, 1, -1, -2], [-2, 0, -2, 0], [2, 2, 0, -2], [0, 2, 1, 0]]
    )

    @pytest.mark.parametrize("d", [CYCLE, TWICE], ids=["cycle", "twice"])
    @pytest.mark.parametrize("crit", list(MergeCriterion))
    def test_same_tree_as_symmetrised(self, d, crit):
        sym = DistanceMatrix(np.minimum(d, d.T))
        drivers = [naive_cluster, nn_chain_cluster] if crit.reducible else [naive_cluster]
        for cluster in drivers:
            assert cluster(DistanceMatrix(d), crit).to_json() == cluster(sym, crit).to_json()


class TestMedianClamps:
    # The naive driver merges the closest pair (i, j), so every other
    # cluster k has d_ki, d_kj >= d_ij and its median row is at least
    # 0.75 d_ij: even on non-metric input it never clamps, and only the
    # scalar lance_williams_update can.

    def test_closest_pair_never_clamps(self, rng):
        for _ in range(20):
            a = np.triu(rng.lognormal(0, 2, size=(12, 12)), 1)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                naive_cluster(a + a.T, "median")


class TestMemory:
    """The working matrix is n x n: peak allocations during a run stay
    within a small multiple of one n x n float matrix."""

    @staticmethod
    def peak_in_matrices(cluster, crit, n, **kw):
        m = euclidean_matrix(np.random.default_rng(0).normal(size=(n, 4)))
        tracemalloc.start()
        try:
            cluster(m, crit, **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (n * n * 8)

    @pytest.mark.parametrize("crit", ["ward", "single"])
    def test_nn_chain(self, crit):
        assert self.peak_in_matrices(nn_chain_cluster, crit, 800) < 2

    def test_naive(self):
        assert self.peak_in_matrices(naive_cluster, "median", 300) < 5

    def test_naive_one_working_matrix(self):
        # the working matrix and O(n) arrays; 2.05 n^2 doubles when every
        # merge gathered the id-ordered block of live rows
        assert self.peak_in_matrices(naive_cluster, "median", 600) < 1.5

    @pytest.mark.parametrize("cluster, crit, n", [
        (nn_chain_cluster, "ward", 800), (naive_cluster, "median", 600),
    ])
    def test_in_place_holds_no_matrix(self, cluster, crit, n):
        # O(n) arrays beyond the input: 0.12 and 0.09 n^2 doubles, where
        # the squared copy made it 1.1
        assert self.peak_in_matrices(cluster, crit, n, overwrite_input=True) < 0.3

    @pytest.mark.parametrize("crit", ["ward", "median"])
    def test_cli_cluster_one_matrix(self, tmp_path, crit):
        # the Euclidean matrix is the working matrix: 1.12 n^2 doubles,
        # where a squared copy of it made 2.11
        n = 800
        x = np.random.default_rng(1).normal(size=(n, 8))
        path = tmp_path / "x.csv"
        np.savetxt(path, x, delimiter=",", header=",".join(f"c{j}" for j in range(8)), comments="")
        argv = ["cluster", "--input", str(path), "--criterion", crit, "--out", str(tmp_path / "t.json")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (n * n * 8) < 1.3
