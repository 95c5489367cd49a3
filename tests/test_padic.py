import decimal
import sys

import pytest

from umtree import (
    Dendrogram,
    PadicCode,
    check_spherical_completeness,
    check_uniqueness,
    cluster_chain,
    decimal_value,
    decimal_values,
    dilate,
    encode,
    euclidean_matrix,
    nn_chain_cluster,
)
from umtree.datasets import ranked_demo_tree
from umtree.padic import decimal_texts

from conftest import caterpillar, random_dendrogram, random_points


def two_leaf():
    return Dendrogram(2, ((0, 1, 1.0),))


class TestEncode:
    def test_demo_tree_codes(self):
        t = ranked_demo_tree()
        assert encode(t, 3, 0).as_dict() == {1: +1, 2: +1, 5: +1, 7: +1}
        assert encode(t, 3, 7).as_dict() == {6: -1, 7: -1}
        assert encode(t, 3, 2).as_dict() == {2: -1, 5: +1, 7: +1}
        assert encode(t, 3, 5).as_dict() == {4: -1, 5: -1, 7: +1}

    def test_two_leaf(self):
        t = two_leaf()
        assert encode(t, 2, 0).as_dict() == {1: +1}
        assert encode(t, 2, 1).as_dict() == {1: -1}

    def test_nonzero_exactly_on_root_path(self, rng):
        t = random_dendrogram(rng, 9, rank_levels=True)
        for term in range(9):
            path_ranks = {t.rank(node) for node in t.path_to_root(term)}
            assert set(encode(t, 3, term).coeffs) == path_ranks
            assert max(path_ranks) == 8  # root rank n-1

    def test_code_validation(self):
        with pytest.raises(ValueError):
            PadicCode(4, {1: 1})  # not prime
        with pytest.raises(ValueError):
            PadicCode(3, {1: 2})
        with pytest.raises(ValueError):
            PadicCode(3, {0: 1})

    def test_equality(self):
        code = PadicCode(3, {1: 1, 2: -1})
        assert code == PadicCode(3, {2: -1, 1: 1, 4: 0})  # zeros dropped, order ignored
        assert code != PadicCode(2, {1: 1, 2: -1})
        assert code != PadicCode(3, {1: 1})
        assert code != 5 and code != {1: 1, 2: -1}  # other types are not equal, no error
        assert code in [5, code]

    def test_hash(self):
        code = PadicCode(3, {1: 1, 2: -1})
        same = PadicCode(3, {2: -1, 1: 1, 4: 0})
        assert hash(code) == hash(same)
        assert {code} == {same} and same in {code}
        assert len({code, same, PadicCode(2, {1: 1, 2: -1}), PadicCode(3, {1: 1})}) == 3
        assert {code: "x"}[same] == "x"


class TestDecimal:
    def test_single_term(self):
        assert decimal_value(PadicCode(2, {1: 1})) == 2

    def test_demo_first_terminal(self):
        code = encode(ranked_demo_tree(), 2, 0)
        assert decimal_value(code) == 2 + 4 + 32 + 128

    def test_ambiguity_witness(self):
        assert decimal_value(PadicCode(2, {1: +1})) == decimal_value(
            PadicCode(2, {1: -1, 2: +1})
        )

    def test_exact_big_values(self):
        code = PadicCode(3, {j: 1 for j in range(1, 64)})
        assert decimal_value(code) == (3**64 - 3) // 2


def balanced(n):
    """A tree of depth about log2(n): each merge joins the two oldest roots."""
    roots, merges = list(range(n)), []
    for node in range(n, 2 * n - 1):
        merges.append((roots.pop(0), roots.pop(0), float(node)))
        roots.append(node)
    return Dendrogram(n, tuple(merges))


class TestDecimalTexts:
    """decimal_texts computes in Decimal what decimal_values computes in int."""

    @staticmethod
    def int_texts(dend, p):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return [str(v) for v in decimal_values(dend, p)]
        finally:
            sys.set_int_max_str_digits(limit)

    # at p = 10007 every value of an 1100-terminal tree has about 4400
    # digits (the root's rank is on every path), past the 4300 that
    # str(int) allows by default
    @pytest.mark.parametrize("shape", [caterpillar, balanced])
    @pytest.mark.parametrize("p", [2, 3, 5, 10007])
    def test_equal_str_of_int(self, shape, p):
        dend = shape(1100, True) if shape is caterpillar else shape(1100)
        texts = decimal_texts(dend, p)
        assert texts == self.int_texts(dend, p)
        assert (max(map(len, texts)) > 4300) == (p == 10007)

    def test_small_trees(self, rng):
        for dend in [Dendrogram(1, ()), two_leaf(), ranked_demo_tree(), random_dendrogram(rng, 40)]:
            assert decimal_texts(dend, 3) == self.int_texts(dend, 3)

    def test_exact_whatever_the_callers_context(self):
        dend = caterpillar(300, False)
        want = self.int_texts(dend, 3)
        with decimal.localcontext() as ctx:
            ctx.prec = 28  # the default: 143-digit values would be rounded
            assert decimal_texts(dend, 3) == want
            assert decimal.getcontext().prec == 28

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError, match="base 4 is not prime"):
            decimal_texts(two_leaf(), 4)


class TestUniqueness:
    def test_demo_tree_p3(self):
        assert check_uniqueness(ranked_demo_tree(), 3)

    def test_two_leaf_p2(self):
        assert check_uniqueness(two_leaf(), 2)

    def test_injective_for_p3_on_random_trees(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 13))
            t = random_dendrogram(rng, n, rank_levels=True)
            assert check_uniqueness(t, 3)


class TestDilate:
    def test_worked_example(self):
        code = encode(ranked_demo_tree(), 2, 0)
        assert dilate(code).as_dict() == {1: +1, 4: +1, 6: +1}

    def test_bottom_level_lost(self):
        assert dilate(PadicCode(2, {1: 1})).as_dict() == {}

    def test_exhausts_after_n_minus_1(self, rng):
        t = random_dendrogram(rng, 8, rank_levels=True)
        for term in range(8):
            code = encode(t, 3, term)
            for _ in range(7):
                code = dilate(code)
            assert code.as_dict() == {}

    def test_rises_one_level(self, rng):
        t = random_dendrogram(rng, 10, rank_levels=True)
        for term in range(10):
            code = encode(t, 3, term)
            shifted = {j - 1 for j in code.coeffs if j > 1}
            assert set(dilate(code).coeffs) == shifted


class TestChains:
    def test_demo_tree_chain(self):
        chain = cluster_chain(ranked_demo_tree(), 0)
        assert chain == [
            frozenset({0}),
            frozenset({0, 1}),
            frozenset({0, 1, 2}),
            frozenset(range(6)),
            frozenset(range(8)),
        ]

    def test_two_leaf_chain(self):
        assert cluster_chain(two_leaf(), 1) == [
            frozenset({1}),
            frozenset({0, 1}),
        ]

    def test_strictly_increasing_to_root(self, rng):
        t = random_dendrogram(rng, 14)
        union = set()
        for term in range(14):
            chain = cluster_chain(t, term)
            assert chain[-1] == frozenset(range(14))
            for lo, hi in zip(chain, chain[1:]):
                assert lo < hi
            union |= chain[0]
        assert union == set(range(14))


class TestSphericalCompleteness:
    def test_demo_tree(self):
        assert check_spherical_completeness(ranked_demo_tree())

    def test_two_leaf(self):
        assert check_spherical_completeness(two_leaf())

    def test_clustered_random_data(self, rng):
        m = euclidean_matrix(random_points(rng, 20, 3))
        assert check_spherical_completeness(nn_chain_cluster(m, "ward"))


class TestDilationClusterMap:
    def test_merge_or_stay(self, rng):
        from umtree.padic import dilation_cluster_map

        t = random_dendrogram(rng, 9, rank_levels=True)
        levels = dilation_cluster_map(t)
        for before, after in zip(levels, levels[1:]):
            for cluster in after:
                parts = [c for c in before if c <= cluster]
                assert frozenset().union(*parts) == cluster
                assert len(parts) in (1, 2)
