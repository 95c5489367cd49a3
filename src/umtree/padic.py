"""p-adic encoding of dendrogram terminals.

A terminal's code collects, for each internal node on its root path, the
branch label (+1/-1) of the edge the path takes out of that node, indexed
by the node's agglomeration rank.  Multiplying by 1/p (the dilation
operator) shifts every rank down by one and drops the bottom rank:
the whole configuration rises one level in the hierarchy.

Codes do not depend on p, only their decimal values do.  Both are read
off the tree top-down in one pass: a child's code is its parent's plus
the parent's rank with the child's branch label.
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
    "encode_all",
    "decimal_value",
    "decimal_values",
    "check_uniqueness",
    "dilate",
    "cluster_chain",
    "check_spherical_completeness",
]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
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

    def __eq__(self, other):
        return self.p == other.p and dict(self.coeffs) == dict(other.coeffs)

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


def encode_all(dend: Dendrogram, p: int) -> list:
    """Codes of all terminals, by terminal id, from one top-down pass."""
    coeffs = [()] * dend.n_nodes  # (rank, label) pairs, ascending rank
    for node in range(dend.root, dend.n_terminals - 1, -1):
        a, b = dend.children(node)
        r = dend.rank(node)
        coeffs[a] = ((r, +1),) + coeffs[node]
        coeffs[b] = ((r, -1),) + coeffs[node]
    return [PadicCode(p, MappingProxyType(dict(c))) for c in coeffs[:dend.n_terminals]]


def decimal_value(code: PadicCode) -> int:
    """Exact integer value sum(c_j * p^j)."""
    return sum(c * code.p**j for j, c in code.coeffs.items())


def decimal_values(dend: Dendrogram, p: int) -> list:
    """Exact decimal values of all terminals, by terminal id.

    One top-down pass: val[child] = val[node] +- p**rank(node), so n - 1
    big-integer additions in all.
    """
    if not _is_prime(p):
        raise ValueError(f"base {p} is not prime")
    power = [1, *accumulate([p] * (dend.n_terminals - 1), mul)]
    vals = [0] * dend.n_nodes
    for node in range(dend.root, dend.n_terminals - 1, -1):
        a, b = dend.children(node)
        step = power[dend.rank(node)]
        vals[a] = vals[node] + step
        vals[b] = vals[node] - step
    return vals[:dend.n_terminals]


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
    nonempty intersection.  Chains are enumerated by walking every
    root-to-terminal path top-down."""
    for t in range(dend.n_terminals):
        chain = list(reversed(cluster_chain(dend, t)))
        common = chain[0]
        for q in chain[1:]:
            if not q < common:
                return False
            common = common & q
        if not common:
            return False
    return True


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
