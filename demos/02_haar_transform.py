"""Haar wavelet transform of a dendrogram.

Runs the forward transform on the iris sample, prints the coefficient
table, reconstructs rows exactly, walks an approximation chain, and
smooths the data by hard-thresholding small details.
"""

import numpy as np

from umtree import (
    approximation_chain,
    euclidean_matrix,
    forward,
    inverse,
    naive_cluster,
    reconstruct_one,
    threshold_regress,
)
from umtree.datasets import iris8

data = iris8()
dend = naive_cluster(euclidean_matrix(data), "median", labels=data.row_labels)
ht = forward(dend, data)

n = dend.n_terminals
header = [f"s{n-1}"] + [f"d{r}" for r in range(n - 1, 0, -1)]
print("coefficient table (rows = attributes):")
print("         " + "  ".join(f"{h:>9}" for h in header))
for j, attr in enumerate(data.col_labels):
    vals = [ht.smooth[j], *ht.details[::-1, j]]
    print(f"{attr:>8} " + "  ".join(f"{v:9.6f}" for v in vals))

print("\nexact inverse: max |error| =", np.abs(inverse(ht) - data.values).max())

t = 0
print(f"\napproximation chain for {data.row_labels[t]} (partial sum, error):")
for vec, err in approximation_chain(ht, t):
    print("  ", np.round(vec, 4), f"error {err:.4f}")
print("row reconstructed:", np.round(reconstruct_one(ht, t), 6))

smoothed = threshold_regress(ht, 0.1)
kept = [r for r, d in enumerate(smoothed.details, start=1) if np.linalg.norm(d) > 0]
print(f"\nhard threshold 0.1 keeps details {kept}; smoothed rows:")
print(np.round(inverse(smoothed), 4))
