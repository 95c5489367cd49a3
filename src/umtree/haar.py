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

    details[r] is the detail of the rank-r merge (r = 1..n-1); the smooth
    is s_{n-1}, the root smooth.  Signs are carried by the tree's branch
    labels: sign(node, terminal) = +1 iff the terminal sits under the
    left child.
    """

    dend: Dendrogram
    smooth: np.ndarray
    details: dict

    def __post_init__(self):
        object.__setattr__(self, "smooth", np.asarray(self.smooth, float))
        object.__setattr__(
            self,
            "details",
            {int(r): np.asarray(v, float) for r, v in self.details.items()},
        )

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


def forward(dend: Dendrogram, data) -> HaarTransform:
    """Forward transform of one data row per terminal."""
    x = data.values if isinstance(data, Table) else np.asarray(data, float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] != dend.n_terminals:
        raise ValueError(
            f"{x.shape[0]} rows for {dend.n_terminals} terminals"
        )
    smooths = {t: x[t] for t in range(dend.n_terminals)}
    details = {}
    for r, (a, b, _) in enumerate(dend.merges, start=1):
        s = 0.5 * (smooths[a] + smooths[b])
        details[r] = s - smooths[b]
        smooths[dend.n_terminals - 1 + r] = s
    return HaarTransform(dend, smooths[dend.root], details)


def reconstruct_one(ht: HaarTransform, terminal: int) -> np.ndarray:
    """Single row: smooth plus the signed details on the root path."""
    # summed root-first, matching approximation_chain bitwise
    row = ht.smooth.copy()
    for node in reversed(ht.dend.path_to_root(terminal)):
        row += ht.sign(node, terminal) * ht.details[ht.dend.rank(node)]
    return row


def _node_rows(ht: HaarTransform) -> np.ndarray:
    """Row of every node (by node id), in one top-down pass.

    A node's left child gets the node's row plus its detail and the right
    child the row minus it: the root-first sums of reconstruct_one and
    approximation_chain (x + (-d) == x - d), so the rows are bitwise
    equal to theirs.  A node's row is the partial sum at that node.
    """
    dend = ht.dend
    rows = np.empty((dend.n_nodes, ht.m))
    rows[dend.root] = ht.smooth
    for node in range(dend.root, dend.n_terminals - 1, -1):
        a, b = dend.children(node)
        d = ht.details[dend.rank(node)]
        rows[a] = rows[node] + d
        rows[b] = rows[node] - d
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
    partials = [ht.smooth.copy()]
    for node in reversed(ht.dend.path_to_root(terminal)):
        partials.append(partials[-1] + ht.sign(node, terminal) * ht.details[ht.dend.rank(node)])
    errors = _row_norms(np.array(partials) - partials[-1])
    return list(zip(partials, errors.tolist()))


def threshold_regress(ht: HaarTransform, tau: float, per_coordinate: bool = False) -> HaarTransform:
    """Hard-threshold regression: zero every detail with norm < tau.

    per_coordinate applies the threshold to individual entries instead of
    the Euclidean norm of each detail vector.
    """
    if tau < 0:
        raise ValueError("threshold must be nonnegative")
    if per_coordinate:
        details = {r: np.where(np.abs(d) < tau, 0.0, d) for r, d in ht.details.items()}
    else:
        vectors = np.array(list(ht.details.values())).reshape(len(ht.details), ht.m)
        small = (_row_norms(vectors) < tau).tolist()
        details = {
            r: np.zeros_like(d) if zero else d for (r, d), zero in zip(ht.details.items(), small)
        }
    return replace(ht, details=details)
