"""Child-swap symmetries of a dendrogram.

Independent swaps of the two children at each internal node generate the
tree's automorphism group (an iterated wreath product of order-2 cyclic
groups, so 2^(n-1) elements for n terminals).  Cophenetic distances are
invariant under every such swap; branch labels travel with the children,
so a swap negates exactly that node's wavelet detail and flips the
p-adic coefficients of the terminals passing through it.
"""

from __future__ import annotations

from .dendrogram import Dendrogram

__all__ = [
    "apply_permutation",
    "canonicalize",
]


def apply_permutation(dend: Dendrogram, perm) -> Dendrogram:
    """Swap the children at the selected internal nodes.

    perm maps internal node id -> bool (swap or not); nodes not listed
    are untouched.  Subtree interiors are preserved.
    """
    for node in perm:
        if not dend.n_terminals <= node < dend.n_nodes:
            raise KeyError(f"{node} is not an internal node")
    merges = []
    for r, (a, b, lev) in enumerate(dend.merges, start=1):
        node = dend.n_terminals - 1 + r
        if perm.get(node, False):
            a, b = b, a
        merges.append((a, b, lev))
    return Dendrogram(
        dend.n_terminals, tuple(merges), raw_levels=dend.raw_levels,
        labels=dend.labels,
    )


def canonicalize(dend: Dendrogram):
    """Orbit representative: at every node the child holding the smallest
    terminal index goes left.  Returns (canonical tree, swaps applied);
    idempotent and constant on each orbit."""
    low = list(range(dend.n_terminals))  # smallest terminal under each node
    perm = {}
    for node, (a, b, _) in enumerate(dend.merges, start=dend.n_terminals):
        perm[node] = low[a] > low[b]
        low.append(min(low[a], low[b]))
    return apply_permutation(dend, perm), perm
