"""Child-swap symmetries of a dendrogram.

Swapping the two children of any internal node leaves the ultrametric
untouched, negates exactly that node's wavelet detail, and flips the
p-adic signs of the terminals passing through it.  Canonicalization
picks one representative per orbit.
"""

import numpy as np

from umtree import (
    apply_permutation,
    canonicalize,
    cophenetic_matrix,
    encode,
    forward,
    inverse,
)
from umtree.datasets import iris8, ranked_demo_tree

tree = ranked_demo_tree()
print(f"automorphism group order for n=8: {2 ** (tree.n_terminals - 1)} (= 2^7)")

perm = {12: True, 14: True}  # swap at the rank-5 node and at the root
swapped = apply_permutation(tree, perm)

same = np.array_equal(
    cophenetic_matrix(tree).values, cophenetic_matrix(swapped).values
)
print("cophenetic matrix unchanged under the swaps:", same)

print("\np-adic codes before/after (signs flip at ranks 5 and 7 where crossed):")
for t in (0, 6):
    print(f"  {tree.labels[t]}: {encode(tree, 3, t).as_dict()}"
          f" -> {encode(swapped, 3, t).as_dict()}")

data = iris8().values
ht, ht2 = forward(tree, data), forward(swapped, data)
print("\nround trip still exact after swaps:",
      np.abs(inverse(ht2) - data).max() == 0.0
      or np.abs(inverse(ht2) - data).max() < 1e-12)
negated = [r for r in range(1, 8) if np.allclose(ht2.details[r - 1], -ht.details[r - 1])
           and np.linalg.norm(ht.details[r - 1]) > 0]
print("details negated at ranks:", negated)

canon, applied = canonicalize(swapped)
print("\ncanonical form restores the original tree:", canon == tree)
print("swaps applied by canonicalize:",
      sorted(node for node, s in applied.items() if s))
