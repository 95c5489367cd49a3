"""p-adic encoding of dendrogram terminals.

A terminal's code collects, for each internal node on its root path, the
branch label (+1/-1) of the edge the path takes out of that node, indexed
by the node's agglomeration rank.  Multiplying by 1/p (the dilation
operator) shifts every rank down by one and drops the bottom rank:
the whole configuration rises one level in the hierarchy.

Codes do not depend on p, only their decimal values do.  The values of
all terminals are read off the tree top-down in one pass: a child's value
is its parent's plus its branch label times p to the parent's rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import mul
from types import MappingProxyType

from .dendrogram import Dendrogram

__all__ = [
    "PadicCode",
    "encode",
    "decimal_value",
    "decimal_values",
    "decimal_texts",
    "check_uniqueness",
    "dilate",
    "cluster_chain",
    "check_spherical_completeness",
]


# Miller-Rabin to the prime bases 2..41 has no strong pseudoprime below
# this bound (Sorenson and Webster 2015), so below it the test is exact
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Whether p is prime, by a deterministic Miller-Rabin test in
    O(log p) multiplications; p at or above _PRIME_BOUND is a ValueError."""
    if p >= _PRIME_BOUND:
        raise ValueError(f"base {p} is too large: the primality test is exact below {_PRIME_BOUND}")
    if p < 2:
        return False
    if any(p % a == 0 for a in _PRIME_BASES):
        return p in _PRIME_BASES
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:  # a witnesses that p is composite
            return False
    return True


@dataclass(frozen=True)
class PadicCode:
    """Sparse coefficients in {-1, +1} on powers p^rank."""

    p: int
    coeffs: MappingProxyType

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"base {self.p} is not prime")
        cleaned = {
            int(k): int(v) for k, v in dict(self.coeffs).items() if v != 0
        }
        if any(v not in (-1, 1) for v in cleaned.values()):
            raise ValueError("coefficients must be in {-1, 0, +1}")
        if any(k < 1 for k in cleaned):
            raise ValueError("ranks start at 1")
        object.__setattr__(self, "coeffs", MappingProxyType(cleaned))

    def __hash__(self) -> int:
        # the coefficient proxy is unhashable; equal codes have equal items
        return hash((self.p, frozenset(self.coeffs.items())))

    def as_dict(self) -> dict:
        return dict(sorted(self.coeffs.items()))


def encode(dend: Dendrogram, p: int, terminal: int) -> PadicCode:
    """Code of a terminal: branch labels along its root path, by rank."""
    coeffs = {}
    node = terminal
    for parent in dend.path_to_root(terminal):
        coeffs[dend.rank(parent)] = dend.branch_label(parent, node)
        node = parent
    return PadicCode(p, MappingProxyType(coeffs))


def decimal_value(code: PadicCode) -> int:
    """Exact integer value sum(c_j * p^j)."""
    return sum(c * code.p**j for j, c in code.coeffs.items())


def _top_down_values(dend: Dendrogram, p: int, one) -> list:
    """Decimal values of all terminals, by terminal id, as multiples of
    one (1, or a Decimal 1 under an exact context).

    One top-down pass: val[child] = val[node] +- p**rank(node), so n - 1
    big-integer additions in all.
    """
    if not _is_prime(p):
        raise ValueError(f"base {p} is not prime")
    n = dend.n_terminals
    power = list(accumulate([p] * (n - 1), mul, initial=one))
    vals = [one - one] * dend.n_nodes
    for rank in range(n - 1, 0, -1):  # node n - 1 + rank, parents first
        a, b, _ = dend.merges[rank - 1]
        vals[a] = vals[n - 1 + rank] + power[rank]
        vals[b] = vals[n - 1 + rank] - power[rank]
    return vals[:n]


def decimal_values(dend: Dendrogram, p: int) -> list:
    """Exact decimal values of all terminals, by terminal id."""
    return _top_down_values(dend, p, 1)


def decimal_texts(dend: Dendrogram, p: int) -> list:
    """str of each of decimal_values, by terminal id, in linear time.

    CPython turns an int into decimal text in time quadratic in its
    digits, and refuses past sys.get_int_max_str_digits() of them.  The
    values are computed as decimal.Decimal integers instead, whose text
    is their stored digits.  The arithmetic runs in a context of maximal
    precision that traps Inexact, so no value is ever rounded.
    """
    import decimal  # here, not at the top: importing umtree.cli leaves it out

    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])
    with decimal.localcontext(exact):
        return list(map(str, _top_down_values(dend, p, decimal.Decimal(1))))


def check_uniqueness(dend: Dendrogram, p: int) -> bool:
    """True iff all terminals' decimal values are distinct.

    On a tree this holds for every p >= 2.  Let R be the rank of the
    lowest node above two terminals: their codes agree above rank R and
    have opposite signs at R, which puts 2 p^R between their values, and
    the ranks 1..R-1 below change that by at most
    2 (p + ... + p^(R-1)) = 2 (p^R - p) / (p - 1) <= 2 p^R - 4.  The check
    is still computed, as a test of the encoding.
    """
    vals = decimal_values(dend, p)
    return len(set(vals)) == len(vals)


def dilate(code: PadicCode) -> PadicCode:
    """Multiply by 1/p: each rank drops by one, rank 0 is discarded."""
    return PadicCode(
        code.p,
        MappingProxyType({j - 1: c for j, c in code.coeffs.items() if j > 1}),
    )


def cluster_chain(dend: Dendrogram, terminal: int):
    """Strictly increasing chain of member sets from {terminal} to I."""
    chain = [frozenset([terminal])]
    chain.extend(dend.members(node) for node in dend.path_to_root(terminal))
    return chain


def check_spherical_completeness(dend: Dendrogram) -> bool:
    """Executable witness: every maximal descending chain of clusters has
    nonempty intersection.  The chains are root paths of layout slices
    [lo, hi), so this holds iff each non-root node's slice is nonempty and
    strictly inside its parent's: one O(n) pass, no member set built."""
    lay = dend.layout
    lo, hi = lay.lo.tolist(), lay.hi.tolist()
    return all(lo[p] <= lo[c] < hi[c] <= hi[p] and hi[c] - lo[c] < hi[p] - lo[p]
               for c, p in enumerate(lay.parent.tolist()) if p != -1)


def dilation_cluster_map(dend: Dendrogram):
    """Clusters at each rank before and after one dilation.

    Returns, per rank level l, the partition of terminals induced by the
    codes truncated below l; consecutive levels show each cluster either
    unchanged or merged with exactly one other.  Two codes agree above
    rank l iff their terminals sit under one node of rank <= l, so level l
    is the partition left by the first l merges (clusters in order of
    their smallest terminal).
    """
    n = dend.n_terminals
    clusters = {t: frozenset([t]) for t in range(n)}  # node -> members
    out = [sorted(clusters.values(), key=min)]
    for node in range(n, dend.n_nodes):
        a, b = dend.children(node)
        clusters[node] = clusters.pop(a) | clusters.pop(b)
        out.append(sorted(clusters.values(), key=min))
    return out
