from itertools import product

import numpy as np
import pytest

from umtree import (
    Dendrogram,
    apply_permutation,
    canonicalize,
    cophenetic_matrix,
    encode,
    forward,
    inverse,
)
from umtree.datasets import ranked_demo_tree

from conftest import random_dendrogram, random_points


def random_perm(rng, dend):
    return {
        node: bool(rng.integers(0, 2))
        for node in range(dend.n_terminals, dend.n_nodes)
    }


class TestApplyPermutation:
    def test_identity(self, rng):
        d = random_dendrogram(rng, 8)
        assert apply_permutation(d, {}) == d

    def test_root_swap_two_leaf(self):
        d = Dendrogram(2, ((0, 1, 1.0),))
        swapped = apply_permutation(d, {2: True})
        assert swapped.children(2) == (1, 0)
        assert np.array_equal(
            cophenetic_matrix(swapped).values, cophenetic_matrix(d).values
        )

    def test_involution(self, rng):
        d = random_dendrogram(rng, 9)
        perm = random_perm(rng, d)
        assert apply_permutation(apply_permutation(d, perm), perm) == d

    def test_unknown_node(self, rng):
        d = random_dendrogram(rng, 5)
        with pytest.raises(KeyError):
            apply_permutation(d, {2: True})  # terminal, not internal

    def test_subtree_interiors_preserved(self, rng):
        d = random_dendrogram(rng, 10)
        swapped = apply_permutation(d, {d.root: True})
        a, b, _ = d.merges[-1]
        assert swapped.merges[-1][:2] == (b, a)
        assert swapped.merges[:-1] == d.merges[:-1]


class TestInvariance:
    def test_cophenetic_invariant(self, rng):
        for _ in range(10):
            d = random_dendrogram(rng, int(rng.integers(3, 15)))
            perm = random_perm(rng, d)
            np.testing.assert_array_equal(
                cophenetic_matrix(apply_permutation(d, perm)).values,
                cophenetic_matrix(d).values,
            )

    def test_haar_round_trip_and_detail_negation(self, rng):
        for _ in range(5):
            n = int(rng.integers(3, 12))
            d = random_dendrogram(rng, n)
            x = random_points(rng, n, 3)
            perm = random_perm(rng, d)
            swapped = apply_permutation(d, perm)
            ht, ht2 = forward(d, x), forward(swapped, x)
            np.testing.assert_allclose(inverse(ht2), x, atol=1e-12)
            np.testing.assert_array_equal(ht2.smooth, ht.smooth)
            for node in range(n, d.n_nodes):
                r = d.rank(node)
                factor = -1.0 if perm[node] else 1.0
                np.testing.assert_allclose(
                    ht2.details[r - 1], factor * ht.details[r - 1], atol=1e-12
                )

    def test_padic_sign_flip(self, rng):
        d = random_dendrogram(rng, 10, rank_levels=True)
        perm = random_perm(rng, d)
        swapped = apply_permutation(d, perm)
        for t in range(10):
            before = encode(d, 3, t).as_dict()
            after = encode(swapped, 3, t).as_dict()
            assert set(before) == set(after)
            for rank, coeff in before.items():
                node = d.n_terminals - 1 + rank
                expected = -coeff if perm[node] else coeff
                assert after[rank] == expected


def automorphism_count(dend):
    """Number of distinct trees the child swaps reach from dend."""
    nodes = range(dend.n_terminals, dend.n_nodes)
    return len({
        apply_permutation(dend, dict(zip(nodes, swaps)))
        for swaps in product((False, True), repeat=len(nodes))
    })


class TestAutomorphismCount:
    def test_small_cases(self):
        assert automorphism_count(Dendrogram(2, ((0, 1, 1.0),))) == 2
        assert automorphism_count(Dendrogram(3, ((0, 1, 1.0), (2, 3, 2.0)))) == 4

    def test_demo_tree(self):
        assert automorphism_count(ranked_demo_tree()) == 128


class TestCanonicalize:
    def test_already_canonical(self):
        d = ranked_demo_tree()
        canon, perm = canonicalize(d)
        assert canon == d
        assert not any(perm.values())

    def test_two_leaf_swapped(self):
        d = Dendrogram(2, ((1, 0, 1.0),))
        canon, perm = canonicalize(d)
        assert canon.children(2) == (0, 1)
        assert perm == {2: True}

    def test_idempotent(self, rng):
        d = random_dendrogram(rng, 11)
        canon, _ = canonicalize(d)
        again, perm = canonicalize(canon)
        assert again == canon
        assert not any(perm.values())

    def test_constant_on_orbit(self, rng):
        for _ in range(10):
            d = random_dendrogram(rng, int(rng.integers(3, 12)))
            perm = random_perm(rng, d)
            a, _ = canonicalize(apply_permutation(d, perm))
            b, _ = canonicalize(d)
            assert a == b
