import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize("node", [-1, -4, 7, 100])
    def test_node_outside_the_tree_named(self, node):
        # merges[node - n] would wrap a negative id round to another merge
        d = Dendrogram(4, ((0, 1, 1.0), (2, 3, 2.0), (4, 5, 3.0)))
        for accessor in (d.children, d.rank, d.level, lambda v: d.branch_label(v, 4)):
            with pytest.raises(IndexError, match=f"^node {node} out of range$"):
                accessor(node)

    @pytest.mark.parametrize("node", [0, 1, 3])
    def test_terminal_has_no_merge(self, node):
        # terminal 1 once read as the merge (0, 1), terminal 3 as the root's
        d = Dendrogram(4, ((0, 1, 1.0), (2, 3, 2.0), (4, 5, 3.0)))
        for accessor in (d.children, d.rank, lambda v: d.branch_label(v, 4)):
            with pytest.raises(ValueError, match=f"^node {node} is a terminal$"):
                accessor(node)
        assert d.level(node) == 0.0

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

    @pytest.mark.parametrize("merge", [
        (2.9, 3, 2.0), ("2", 3, 2.0), (True, 3, 2.0), (np.float64(2.0), 3, 2.0), (2, np.True_, 2.0),
        (2, 3, "1"), (2, 3, True), (2, 3, b"2"), (2, 3, np.bool_(True)),
    ])
    def test_mistyped_merge_named(self, merge):
        # int() and float() would have made each of these a valid merge
        with pytest.raises(ValueError, match=re.escape(f"merge 2 is {merge!r}, expected [a, b, level]")):
            Dendrogram(3, ((0, 1, 1.0), merge))

    @pytest.mark.parametrize("n", [True, np.True_, 2.5, 2.0, "2", None])
    def test_n_terminals_not_an_integer(self, n):
        with pytest.raises(ValueError, match=re.escape(f"n_terminals {n!r} is not an integer")):
            Dendrogram(n, ((0, 1, 1.0),))

    def test_numpy_ids_and_int_levels_kept_as_int_and_float(self):
        merges = ((np.int64(1), np.uint8(2), 1), (np.int32(0), 3, np.float32(3.5)))
        d = Dendrogram(np.int64(3), merges, labels=("x", "y", "z"))
        assert d == small_tree()
        assert d.to_json() == small_tree().to_json()
        assert type(d.n_terminals) is int
        assert [tuple(map(type, m)) for m in d.merges] == [(int, int, float)] * 2

    @pytest.mark.parametrize("raw, message", [
        (("x", None, 5), "expected 1 raw levels, got 3"),
        ((), "expected 1 raw levels, got 0"),
        (5, "raw_levels 5 is not a sequence"),
        (("1",), "raw level 1 is '1', expected a finite number"),
        ((None,), "raw level 1 is None, expected a finite number"),
        ((True,), "raw level 1 is True, expected a finite number"),
        ((np.True_,), f"raw level 1 is {np.True_!r}, expected a finite number"),
        ((float("nan"),), "raw level 1 is nan, expected a finite number"),
        ((-np.inf,), "raw level 1 is -inf, expected a finite number"),
        ((10**400,), "raw level 1 is 1000"),
    ])
    def test_raw_levels_checked(self, raw, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Dendrogram(2, ((0, 1, 1.0),), raw_levels=raw)

    def test_raw_levels_kept_as_float_and_not_compared(self):
        d = Dendrogram(3, ((1, 2, 1.0), (0, 3, 3.5)), raw_levels=[np.int64(2), np.float32(-0.5)],
                       labels=("x", "y", "z"))
        assert d.raw_levels == (2.0, -0.5)
        assert [type(r) for r in d.raw_levels] == [float, float]
        assert d == small_tree() and hash(d) == hash(small_tree())
        assert d.to_json() == small_tree().to_json()

    def test_no_level_tolerance(self):
        # a parent 1e-13 under its child is below it at any scale
        with pytest.raises(ValueError, match="level below child's"):
            Dendrogram(3, ((0, 1, 2e-13), (2, 3, 1e-13)))
        assert Dendrogram(3, ((0, 1, 1e-13), (2, 3, 1e-13))).level(4) == 1e-13

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

    def test_newick_one_terminal(self):
        assert Dendrogram(1, ()).to_newick() == "0;"
        assert Dendrogram(1, (), labels=("a",)).to_newick() == "a;"

    def test_newick_deep_caterpillar(self):
        n = 3000  # deeper than the default recursion limit
        merges = [(0, 1, 1.0)] + [(n + k, k + 2, k + 2.0) for k in range(n - 2)]
        text = Dendrogram(n, merges).to_newick()
        assert text.startswith("(" * (n - 1) + "0:1,1:1):1,2:2):1,")
        assert text.endswith(f",{n - 1}:{n - 1:g});")

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "-1.0"])
    def test_level_not_finite_nonnegative(self, bad):
        text = '{"n_terminals": 2, "merges": [[0, 1, %s]]}' % bad
        with pytest.raises(ValueError, match="not finite and nonnegative"):
            Dendrogram.from_json(text)
        with pytest.raises(ValueError, match="not finite and nonnegative"):
            Dendrogram(2, ((0, 1, float(bad)),))

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

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
        levels=st.lists(st.floats(0, 1e300), min_size=39, max_size=39),
    )
    def test_matrix_passes_the_checks(self, n, seed, levels):
        # the result skips DistanceMatrix's checks, so it must pass them by
        # construction: finite, exactly symmetric, nonnegative, zero diagonal
        tree = random_dendrogram(np.random.default_rng(seed), n)
        levels = sorted(levels[: n - 1])  # ties and zeros included
        tree = Dendrogram(n, tuple((a, b, lev) for (a, b, _), lev in zip(tree.merges, levels)))
        d = cophenetic_matrix(tree).values
        assert np.isfinite(d).all()
        assert np.array_equal(d, d.T)
        assert (d >= 0).all()
        assert not np.diag(d).any()
        assert DistanceMatrix(d).values is d  # kept as it is: no repair needed

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

    @pytest.mark.parametrize("verify", [verify_ultrametric, verify_metric])
    def test_nan_tolerance_rejected(self, verify):
        # slack > nan is always False, so a NaN tol passed every matrix
        m = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], float)
        with pytest.raises(ValueError, match="tolerance nan"):
            verify(m, tol=float("nan"))

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

    def test_near_symmetric_stored_as_minimum(self):
        v = self.metric(600, seed=1)
        low = np.tril_indices(600, -1)
        v[low] *= 1 + 1e-9 * np.random.default_rng(2).normal(size=len(low[0]))
        before = v.copy()
        got = DistanceMatrix(v).values
        assert got.tobytes() == np.minimum(before, before.T).tobytes()
        assert v.tobytes() == before.tobytes()  # the caller's array is not written

    def test_exact_input_kept_without_copy(self):
        v = self.metric(600)
        assert v.flags.c_contiguous and v.dtype == np.float64
        assert DistanceMatrix(v).values is v


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
