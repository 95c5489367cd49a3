import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from umtree import (
    Dendrogram,
    approximation_chain,
    euclidean_matrix,
    forward,
    inverse,
    naive_cluster,
    nn_chain_cluster,
    reconstruct_one,
    threshold_regress,
)
from umtree.datasets import iris8
from umtree.haar import _row_norms
from umtree.selftest import IRIS8_DETAILS, IRIS8_SMOOTH

from conftest import random_dendrogram, random_points


def iris_transform():
    data = iris8()
    dend = naive_cluster(euclidean_matrix(data), "median")
    return data, dend, forward(dend, data)


class TestForward:
    def test_iris8_reference_table(self):
        _, _, ht = iris_transform()
        np.testing.assert_allclose(ht.smooth, IRIS8_SMOOTH, atol=1e-9)
        for r in range(1, 8):
            np.testing.assert_allclose(ht.details[r], IRIS8_DETAILS[r], atol=1e-9)

    def test_two_terminals(self):
        d = Dendrogram(2, ((0, 1, 1.0),))
        u, v = np.array([1.0, 3.0]), np.array([5.0, 1.0])
        ht = forward(d, np.vstack([u, v]))
        np.testing.assert_allclose(ht.smooth, (u + v) / 2)
        np.testing.assert_allclose(ht.details[1], (u - v) / 2)

    def test_constant_data(self, rng):
        d = random_dendrogram(rng, 10)
        ht = forward(d, np.tile([2.5, -1.0], (10, 1)))
        np.testing.assert_allclose(ht.smooth, [2.5, -1.0])
        for v in ht.details.values():
            np.testing.assert_allclose(v, 0.0)

    def test_dimension_mismatch(self, rng):
        d = random_dendrogram(rng, 5)
        with pytest.raises(ValueError):
            forward(d, np.zeros((4, 2)))

    def test_zero_mean_signs(self, rng):
        d = random_dendrogram(rng, 8)
        ht = forward(d, random_points(rng, 8, 3))
        signs = ht.signs()
        for node in range(8, d.n_nodes):
            a, b = d.children(node)
            total = signs[(node, a)] + signs[(node, b)]
            assert total == 0

    def test_balanced_tree_matches_sequence_haar(self):
        # n = 4 balanced tree: mean-based Haar of the leaf sequence
        d = Dendrogram(4, ((0, 1, 1.0), (2, 3, 2.0), (4, 5, 3.0)))
        x = np.array([[1.0], [5.0], [2.0], [8.0]])
        ht = forward(d, x)
        s01, d01 = (1 + 5) / 2, (1 - 5) / 2
        s23, d23 = (2 + 8) / 2, (2 - 8) / 2
        assert ht.smooth[0] == pytest.approx((s01 + s23) / 2)
        assert ht.details[1][0] == pytest.approx(d01)
        assert ht.details[2][0] == pytest.approx(d23)
        assert ht.details[3][0] == pytest.approx((s01 - s23) / 2)


class TestInverse:
    def test_round_trip_random(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 20))
            d = random_dendrogram(rng, n)
            x = random_points(rng, n, 4, scale=1e3)
            np.testing.assert_allclose(inverse(forward(d, x)), x, atol=1e-12)

    def test_root_adjacent_row(self):
        data, dend, ht = iris_transform()
        leaf = next(t for t in range(8) if dend.path_to_root(t) == [dend.root])
        np.testing.assert_allclose(
            data.values[leaf], ht.smooth + ht.details[7], atol=1e-12
        )

    def test_full_path_identity(self):
        # first iris row decomposes over its path ranks {1, 2, 6, 7}
        data, dend, ht = iris_transform()
        expected = (
            ht.smooth - ht.details[7] + ht.details[6]
            - ht.details[2] + ht.details[1]
        )
        np.testing.assert_allclose(data.values[0], expected, atol=1e-12)


class TestReconstructOne:
    def test_last_iris_row(self):
        data, dend, ht = iris_transform()
        expected = ht.smooth - ht.details[7] + ht.details[6] + ht.details[2]
        np.testing.assert_allclose(reconstruct_one(ht, 7), expected, atol=1e-12)
        np.testing.assert_allclose(reconstruct_one(ht, 7), data.values[7], atol=1e-12)

    def test_two_leaf(self):
        d = Dendrogram(2, ((0, 1, 1.0),))
        ht = forward(d, np.array([[4.0], [2.0]]))
        assert reconstruct_one(ht, 0)[0] == pytest.approx(4.0)
        assert reconstruct_one(ht, 1)[0] == pytest.approx(2.0)

    def test_agrees_with_inverse(self, rng):
        d = random_dendrogram(rng, 12)
        x = random_points(rng, 12, 3)
        ht = forward(d, x)
        rows = inverse(ht)
        for t in range(12):
            np.testing.assert_allclose(reconstruct_one(ht, t), rows[t])


class TestApproximationChain:
    def test_length_and_final_error(self, rng):
        d = random_dendrogram(rng, 10)
        x = random_points(rng, 10, 3)
        ht = forward(d, x)
        for t in range(10):
            chain = approximation_chain(ht, t)
            assert len(chain) == 1 + len(d.path_to_root(t))
            assert chain[0][1] == pytest.approx(np.linalg.norm(ht.smooth - x[t]))
            assert chain[-1][1] == 0.0
            np.testing.assert_allclose(chain[-1][0], x[t], atol=1e-12)

    def test_refinement_order(self, rng):
        # each step adds exactly one signed path detail, root-first
        d = random_dendrogram(rng, 9)
        x = random_points(rng, 9, 2)
        ht = forward(d, x)
        for t in range(9):
            path = list(reversed(d.path_to_root(t)))
            chain = approximation_chain(ht, t)
            partial = ht.smooth.copy()
            for (vec, _), node in zip(chain[1:], path):
                partial = partial + ht.sign(node, t) * ht.details[d.rank(node)]
                np.testing.assert_allclose(vec, partial)

    def test_constant_data_all_zero_error(self, rng):
        d = random_dendrogram(rng, 6)
        ht = forward(d, np.ones((6, 2)))
        for t in range(6):
            assert all(err == 0.0 for _, err in approximation_chain(ht, t))


class TestThresholdRegress:
    def test_tau_zero_is_identity(self):
        _, _, ht = iris_transform()
        out = threshold_regress(ht, 0.0)
        for r in range(1, 8):
            np.testing.assert_array_equal(out.details[r], ht.details[r])

    def test_tau_infinite_smooths_everything(self):
        data, _, ht = iris_transform()
        rows = inverse(threshold_regress(ht, np.inf))
        np.testing.assert_allclose(rows, np.tile(ht.smooth, (8, 1)))

    def test_tau_0_1_on_iris(self):
        # detail norms: d1 0.0707, d2 0.0935 below 0.1; d3..d7 at/above
        _, _, ht = iris_transform()
        out = threshold_regress(ht, 0.1)
        for r in (1, 2):
            np.testing.assert_array_equal(out.details[r], 0.0)
        for r in (3, 4, 5, 6, 7):
            assert np.linalg.norm(out.details[r]) >= 0.1
            np.testing.assert_array_equal(out.details[r], ht.details[r])

    def test_idempotent(self):
        _, _, ht = iris_transform()
        once = threshold_regress(ht, 0.1)
        twice = threshold_regress(once, 0.1)
        for r in range(1, 8):
            np.testing.assert_array_equal(once.details[r], twice.details[r])

    def test_per_coordinate_mode(self):
        _, _, ht = iris_transform()
        out = threshold_regress(ht, 0.06, per_coordinate=True)
        expected = np.where(np.abs(ht.details[3]) < 0.06, 0.0, ht.details[3])
        np.testing.assert_array_equal(out.details[3], expected)

    def test_negative_tau_rejected(self):
        _, _, ht = iris_transform()
        with pytest.raises(ValueError):
            threshold_regress(ht, -1.0)


class TestApplyToSignal:
    def test_identity_on_own_data(self):
        data, dend, ht = iris_transform()
        folded = forward(dend, data)
        np.testing.assert_array_equal(folded.smooth, ht.smooth)

    def test_zero_signal(self, rng):
        d = random_dendrogram(rng, 7)
        ht = forward(d, np.zeros((7, 3)))
        np.testing.assert_array_equal(ht.smooth, 0.0)
        for v in ht.details.values():
            np.testing.assert_array_equal(v, 0.0)

    def test_round_trips_external_signal(self, rng):
        dend = nn_chain_cluster(
            euclidean_matrix(random_points(rng, 11, 2)), "complete"
        )
        signal = random_points(rng, 11, 5)
        np.testing.assert_allclose(
            inverse(forward(dend, signal)), signal, atol=1e-12
        )

    def test_row_count_mismatch(self, rng):
        d = random_dendrogram(rng, 6)
        with pytest.raises(ValueError):
            forward(d, np.zeros((5, 2)))


@st.composite
def row_arrays(draw):
    """Rows of 1 to 100 entries at scales 1e-3 to 1e6, rows of +-1e308
    whose squares overflow, and rows with NaN and infinite entries; in C
    or Fortran order."""
    k, m = draw(st.integers(1, 6)), draw(st.integers(1, 100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(k, m)) * 10.0 ** draw(st.integers(-3, 6))
    kind = draw(st.sampled_from(["normal", "overflow", "special"]))
    if kind == "overflow":
        x = rng.choice([1e308, -1e308], size=(k, m))
    elif kind == "special":
        mask = rng.random((k, m)) < 0.2
        x[mask] = rng.choice([np.nan, np.inf, -np.inf, 1e308], size=mask.sum())
    return np.asfortranarray(x) if draw(st.booleans()) else x


class TestRowNorms:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflowed squares
    @settings(max_examples=300, deadline=None)
    @given(row_arrays())
    @example(np.array([[-3.0]]))
    @example(np.array([[1e308, -1e308]]))
    @example(np.array([[np.nan, 1.0], [np.inf, -np.inf]]))
    def test_bits_of_linalg_norm(self, x):
        want = np.array([float(np.linalg.norm(row)) for row in x])
        assert _row_norms(x).view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_one_step_path(self):
        ht = forward(Dendrogram(1, ()), np.array([[1e308, -2.0]]))
        [(partial, error)] = approximation_chain(ht, 0)
        np.testing.assert_array_equal(partial, [1e308, -2.0])
        assert error == 0.0
