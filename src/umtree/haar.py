"""Haar wavelet transform of a dendrogram.

Bottom-up forward pass: each terminal's smooth is its data row; at every
merge the parent smooth is the mean of the two child smooths and the
detail is half their difference, signed so that

    left child  = smooth + detail
    right child = smooth - detail

(mean-based, unnormalized convention; the two signed copies of a detail
sum to zero).  The inverse reads the tree from the root: a row is the
global smooth plus the signed details met on its root path, so one
top-down pass gives every row.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dendrogram import Dendrogram
from .dissim import Table

__all__ = [
    "HaarTransform",
    "forward",
    "inverse",
    "reconstruct_one",
    "approximation_chain",
    "threshold_regress",
]


@dataclass(frozen=True)
class HaarTransform:
    """Global smooth, per-merge detail vectors, and the tree they live on.

    details is an (n-1, m) array: row k is the detail of node n + k, the
    rank-(k+1) merge.  The smooth is s_{n-1}, the root smooth.  Signs are
    carried by the tree's branch labels: sign(node, terminal) = +1 iff the
    terminal sits under the left child.
    """

    dend: Dendrogram
    smooth: np.ndarray
    details: np.ndarray

    def __post_init__(self):
        smooth = np.asarray(self.smooth, float)
        details = np.asarray(self.details, float)
        shape = (self.dend.n_terminals - 1, smooth.shape[0])
        if details.shape != shape:
            raise ValueError(f"details of shape {details.shape}, expected {shape}")
        object.__setattr__(self, "smooth", smooth)
        object.__setattr__(self, "details", details)

    @property
    def m(self) -> int:
        return self.smooth.shape[0]

    def sign(self, node: int, terminal: int) -> int:
        """Which signed copy of node's detail terminal receives."""
        a, b = self.dend.children(node)
        if self.dend.contains(a, terminal):
            return +1
        if self.dend.contains(b, terminal):
            return -1
        raise ValueError(f"terminal {terminal} not under node {node}")

    def signs(self) -> dict:
        """(internal node, child) -> +-1 for both children of every merge."""
        out = {}
        for node in range(self.dend.n_terminals, self.dend.n_nodes):
            a, b = self.dend.children(node)
            out[(node, a)] = +1
            out[(node, b)] = -1
        return out


def _height_passes(dend: Dendrogram) -> list:
    """(nodes, left children, right children) as arrays, one triple per
    height of the internal nodes, lowest first.

    A node is higher than its children, so a bottom-up pass run in this
    order, or a top-down pass run in reverse, reads only rows that an
    earlier step wrote: one numpy step per height, each doing for every
    node of its height the float operations of one per-merge step.
    """
    n = dend.n_terminals
    height = dend.layout.height[n:]
    order = np.argsort(height, kind="stable")
    kids = np.array([(a, b) for a, b, _ in dend.merges], dtype=int).reshape(-1, 2)[order]
    cuts = np.flatnonzero(np.diff(height[order])) + 1
    return list(zip(np.split(order + n, cuts), np.split(kids[:, 0], cuts), np.split(kids[:, 1], cuts)))


def forward(dend: Dendrogram, data) -> HaarTransform:
    """Forward transform of one data row per terminal."""
    x = data.values if isinstance(data, Table) else np.asarray(data, float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] != dend.n_terminals:
        raise ValueError(f"{x.shape[0]} rows for {dend.n_terminals} terminals")
    n = dend.n_terminals
    smooths = np.empty((dend.n_nodes, x.shape[1]))
    smooths[:n] = x
    for nodes, a, b in _height_passes(dend):
        smooths[nodes] = 0.5 * (smooths[a] + smooths[b])
    right = [b for _, b, _ in dend.merges]
    return HaarTransform(dend, smooths[dend.root].copy(), smooths[n:] - smooths[right])


def _path_rows(ht: HaarTransform, terminal: int) -> np.ndarray:
    """Rows of the nodes on terminal's root path, root first (the
    partial sums): entering a left child adds the node's detail, entering
    a right child subtracts it, as in _node_rows."""
    dend, n = ht.dend, ht.dend.n_terminals
    path = dend.path_to_root(terminal)[::-1] + [terminal]
    rows = np.empty((len(path), ht.m))
    rows[0] = ht.smooth
    for k, node in enumerate(path[:-1]):
        d = ht.details[node - n]
        rows[k + 1] = rows[k] + d if path[k + 1] == dend.children(node)[0] else rows[k] - d
    return rows


def reconstruct_one(ht: HaarTransform, terminal: int) -> np.ndarray:
    """Single row: the last partial sum of approximation_chain."""
    return _path_rows(ht, terminal)[-1]


def _node_rows(ht: HaarTransform) -> np.ndarray:
    """Row of every node (by node id), in one top-down pass by height with
    the sums of _path_rows, so a node's row is bitwise its partial sum."""
    dend, n = ht.dend, ht.dend.n_terminals
    rows = np.empty((dend.n_nodes, ht.m))
    rows[dend.root] = ht.smooth
    for nodes, a, b in reversed(_height_passes(dend)):
        d = ht.details[nodes - n]
        rows[a] = rows[nodes] + d
        rows[b] = rows[nodes] - d
    return rows


def _row_norms(x) -> np.ndarray:
    """Euclidean norm of each row of a 2-d array, with the bits of
    float(np.linalg.norm(row)).

    norm takes the square root of a contiguous row's BLAS dot with itself;
    a stacked 1 x m by m x 1 matmul over contiguous rows takes the same
    dot, where einsum and norm(axis=1) sum in another order.
    """
    x = np.ascontiguousarray(x, dtype=float)
    return np.sqrt((x[:, None, :] @ x[:, :, None]).ravel())


def inverse(ht: HaarTransform) -> np.ndarray:
    """Exact inverse transform: all rows, in one top-down pass."""
    return _node_rows(ht)[:ht.dend.n_terminals]


def approximation_chain(ht: HaarTransform, terminal: int):
    """Partial sums from the global smooth down to the exact row.

    Details are added in root-to-terminal order; each element refines the
    previous one and the last equals the row (error 0).  Returns a list
    of (partial sum, Euclidean error) pairs.
    """
    rows = _path_rows(ht, terminal)
    return list(zip(rows, _row_norms(rows - rows[-1]).tolist()))


def threshold_regress(ht: HaarTransform, tau: float, per_coordinate: bool = False) -> HaarTransform:
    """Hard-threshold regression: zero every detail with norm < tau.

    per_coordinate applies the threshold to individual entries instead of
    the Euclidean norm of each detail vector.
    """
    if not tau >= 0:  # also NaN
        raise ValueError(f"threshold {tau!r} must be nonnegative")
    d = ht.details
    small = np.abs(d) < tau if per_coordinate else (_row_norms(d) < tau)[:, None]
    return replace(ht, details=np.where(small, 0.0, d))
