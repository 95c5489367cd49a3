"""Acceptance suite: one test (or test pair) per criterion, each printing
a PASS line with the measured result.  Run with ``pytest -v tests/test_acceptance.py``.
"""

import time

import numpy as np
import pytest

import umtree
from umtree import (
    MergeCriterion,
    apply_permutation,
    approximation_chain,
    canonicalize,
    check_uniqueness,
    cophenetic_matrix,
    decimal_value,
    dilate,
    encode,
    euclidean_matrix,
    forward,
    inverse,
    naive_cluster,
    nn_chain_cluster,
    reconstruct_one,
    setvalued_table,
    verify_ultrametric,
)
from umtree.datasets import bool5, iris8, ranked_demo_tree
from umtree.genlattice import build_lattice, clusters_at_level, pairs_for_node
from umtree.selftest import IRIS8_DETAILS, IRIS8_SMOOTH

from conftest import random_dendrogram, random_points

REDUCIBLE = ["single", "complete", "average", "ward"]


def iris_pipeline():
    data = iris8()
    dend = naive_cluster(euclidean_matrix(data), "median")
    return data, dend, forward(dend, data)


class TestCriterion1TableReproduction:
    def test_haar_table(self):
        t0 = time.perf_counter()
        data, dend, ht = iris_pipeline()
        elapsed = time.perf_counter() - t0
        np.testing.assert_allclose(ht.smooth, IRIS8_SMOOTH, atol=1e-6)
        for r in range(1, 8):
            np.testing.assert_allclose(
                np.abs(ht.details[r - 1]), np.abs(IRIS8_DETAILS[r - 1]), atol=1e-6
            )
            # the documented child-order convention also reproduces signs
            np.testing.assert_allclose(ht.details[r - 1], IRIS8_DETAILS[r - 1], atol=1e-6)
        # runtime: best of 5 repeats
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            iris_pipeline()
            times.append(time.perf_counter() - t0)
        best = min(elapsed, min(times))
        assert best < 0.010
        print(f"\nACCEPT 1: coefficient table reproduced (signed), {best * 1e3:.2f} ms")


class TestCriterion2ExactInverse:
    def test_round_trip_200(self, rng):
        criteria = REDUCIBLE + ["median"]
        transform_time = 0.0
        for trial in range(200):
            n = int(rng.integers(2, 65))
            m = int(rng.integers(1, 9))
            x = rng.uniform(-1e3, 1e3, size=(n, m))
            crit = MergeCriterion(criteria[trial % 5])
            dist = euclidean_matrix(x)
            if crit.reducible:
                dend = nn_chain_cluster(dist, crit)
            else:
                dend = naive_cluster(dist, crit)
            t0 = time.perf_counter()
            back = inverse(forward(dend, x))
            transform_time += time.perf_counter() - t0
            assert np.abs(back - x).max() < 1e-9
        assert transform_time < 1.0
        print(f"\nACCEPT 2: 200 exact round trips, {transform_time:.3f} s of transforms")


class TestCriterion3ApproximationChains:
    def test_chain_anchors(self):
        data, dend, ht = iris_pipeline()
        # the terminal adjacent to the root is exactly smooth + top detail
        root_leaf = next(
            t for t in range(8) if dend.path_to_root(t) == [dend.root]
        )
        np.testing.assert_allclose(
            reconstruct_one(ht, root_leaf), ht.smooth + ht.details[6], atol=1e-12
        )
        np.testing.assert_allclose(
            data.values[root_leaf], ht.smooth + ht.details[6], atol=1e-9
        )
        # rows 1 and 8 decompose over their actual root paths, error 0
        d = ht.details
        np.testing.assert_allclose(
            data.values[0], ht.smooth - d[6] + d[5] - d[1] + d[0], atol=1e-9
        )
        np.testing.assert_allclose(
            data.values[7], ht.smooth - d[6] + d[5] + d[1], atol=1e-9
        )
        for t in range(8):
            assert approximation_chain(ht, t)[-1][1] == pytest.approx(0.0, abs=1e-9)
        print("\nACCEPT 3: chain anchors hold, all final errors 0")

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "the reference shorthand identities for rows 1 and 8 omit path "
            "detail terms and contradict the reference coefficient table "
            "that the table-reproduction criterion mandates; the corrected "
            "identities are asserted in test_chain_anchors"
        ),
    )
    def test_reference_shorthand_identities(self):
        data, _, ht = iris_pipeline()
        d = ht.details
        ok_x1 = np.allclose(
            data.values[0], d[1] + d[4] + d[6] + ht.smooth, atol=1e-9
        )
        ok_x8 = np.allclose(
            data.values[7], d[5] - d[6] + ht.smooth, atol=1e-9
        )
        assert ok_x1 and ok_x8


class TestCriterion4PadicGolden:
    def test_codes_dilation_uniqueness(self):
        tree = ranked_demo_tree()
        expected = {
            0: {1: +1, 2: +1, 5: +1, 7: +1},
            1: {1: -1, 2: +1, 5: +1, 7: +1},
            2: {2: -1, 5: +1, 7: +1},
            3: {3: +1, 4: +1, 5: -1, 7: +1},
            4: {3: -1, 4: +1, 5: -1, 7: +1},
            5: {4: -1, 5: -1, 7: +1},
            6: {6: +1, 7: -1},
            7: {6: -1, 7: -1},
        }
        for t in range(8):
            assert encode(tree, 3, t).as_dict() == expected[t]
        assert dilate(encode(tree, 2, 0)).as_dict() == {1: +1, 4: +1, 6: +1}
        assert check_uniqueness(tree, 3)
        assert len({decimal_value(encode(tree, 3, t)) for t in range(8)}) == 8
        print("\nACCEPT 4: all 8 codes, dilation, and base-3 uniqueness hold")


class TestCriterion5UltrametricAxioms:
    def test_100_random_dendrograms(self, rng):
        from itertools import combinations

        for _ in range(100):
            n = int(rng.integers(3, 33))
            dend = random_dendrogram(rng, n)
            m = cophenetic_matrix(dend)
            assert verify_ultrametric(m, tol=0.0) == []
            v = m.values
            for i, j, k in combinations(range(n), 3):
                sides = sorted((v[i, j], v[i, k], v[j, k]))
                assert sides[2] == sides[1]
        print("\nACCEPT 5: 100 cophenetic matrices ultrametric, all triangles isosceles")


class TestCriterion6OracleEquivalence:
    def test_nn_chain_equals_naive(self, rng):
        for trial in range(100):
            n = int(rng.integers(3, 41))
            m = euclidean_matrix(random_points(rng, n, 3))
            crit = REDUCIBLE[trial % 4]
            a = nn_chain_cluster(m, crit)
            b = naive_cluster(m, crit)
            assert [x[:2] for x in a.merges] == [x[:2] for x in b.merges]
            np.testing.assert_allclose(
                [x[2] for x in a.merges], [x[2] for x in b.merges], atol=1e-9
            )
        print("\nACCEPT 6a: NN-chain matches the naive oracle on 100 instances")

    def test_empirical_quadratic_scaling(self, rng):
        def measure(n):
            x = random_points(rng, n, 3)
            m = euclidean_matrix(x)
            best = np.inf
            for _ in range(5):
                t0 = time.perf_counter()
                nn_chain_cluster(m, "ward")
                best = min(best, time.perf_counter() - t0)
            return best

        t256, t512, t1024 = measure(256), measure(512), measure(1024)
        r1, r2 = t512 / t256, t1024 / t512
        assert r1 < 6.0 and r2 < 6.0
        print(
            f"\nACCEPT 6b: doubling ratios {r1:.2f}, {r2:.2f} "
            f"(times {t256:.3f}/{t512:.3f}/{t1024:.3f} s)"
        )


class TestCriterion7LatticeGolden:
    def test_lattice_pairs_clusters(self):
        t = setvalued_table(bool5())
        lattice = build_lattice(t)
        assert set(lattice.vertices) == {
            frozenset({1}), frozenset({0, 1}),
            frozenset({1, 2}), frozenset({0, 1, 2}),
        }
        assert pairs_for_node(t, {0, 1}) == [(0, 1), (0, 4), (1, 2), (1, 4), (2, 4)]
        assert pairs_for_node(t, {1}) == [(0, 2)]
        assert pairs_for_node(t, {1, 2}) == [(0, 3), (2, 3)]
        assert pairs_for_node(t, {0, 1, 2}) == [(1, 3), (3, 4)]
        level2 = clusters_at_level(t, 2)
        assert frozenset({0, 1, 2, 4}) in level2  # {a,b,c,f}
        # documented divergence: computed {a,c,e}; the reference listing
        # splits it as the two pairs {a,e} and {c,e}
        assert frozenset({0, 2, 3}) in level2
        assert clusters_at_level(t, 3) == [frozenset({0, 1, 2, 3, 4})]
        print("\nACCEPT 7: lattice vertices, pair partition, and level clusters hold")


class TestCriterion8SymmetryProperties:
    def test_100_random_orbits(self, rng):
        for _ in range(100):
            n = int(rng.integers(3, 16))
            dend = random_dendrogram(rng, n)
            perm = {
                node: bool(rng.integers(0, 2))
                for node in range(n, dend.n_nodes)
            }
            swapped = apply_permutation(dend, perm)
            np.testing.assert_array_equal(
                cophenetic_matrix(swapped).values, cophenetic_matrix(dend).values
            )
            x = random_points(rng, n, 3)
            ht, ht2 = forward(dend, x), forward(swapped, x)
            np.testing.assert_allclose(inverse(ht2), x, atol=1e-12)
            for node in range(n, dend.n_nodes):
                r = dend.rank(node)
                factor = -1.0 if perm[node] else 1.0
                np.testing.assert_allclose(ht2.details[r - 1], factor * ht.details[r - 1])
            canon, _ = canonicalize(swapped)
            again, residual = canonicalize(canon)
            assert again == canon
            assert not any(residual.values())
            assert canon == canonicalize(dend)[0]
        print("\nACCEPT 8: invariances and canonical forms hold on 100 orbits")
