"""umtree: hierarchical (ultrametric) structure for tabular data.

Build dendrograms by agglomerative clustering, read ultrametric
distances off them, and exploit the tree: Haar wavelet transforms with
thresholding regression, p-adic terminal encodings with a dilation
operator, set-valued generalized-ultrametric distances with their join
semilattice, and the tree's child-swap symmetry group.
"""

from .dendrogram import (
    Dendrogram,
    DistanceMatrix,
    cophenetic_distance,
    cophenetic_matrix,
    verify_metric,
    verify_ultrametric,
)
from .dissim import (
    SetValuedDistanceTable,
    Table,
    euclidean_matrix,
    load_csv,
    setvalued_table,
)
from .genlattice import (
    Semilattice,
    build_lattice,
    clusters_at_level,
    pairs_for_node,
)
from .haar import (
    HaarTransform,
    approximation_chain,
    forward,
    inverse,
    reconstruct_one,
    threshold_regress,
)
from .linkage import (
    MergeCriterion,
    lance_williams_update,
    mst_cluster,
    naive_cluster,
    nn_chain_cluster,
)
from .padic import (
    PadicCode,
    check_spherical_completeness,
    check_uniqueness,
    cluster_chain,
    decimal_value,
    decimal_values,
    dilate,
    encode,
)
from .symmetry import apply_permutation, canonicalize

__version__ = "0.1.0"

__all__ = [
    "Dendrogram",
    "DistanceMatrix",
    "Table",
    "SetValuedDistanceTable",
    "Semilattice",
    "HaarTransform",
    "PadicCode",
    "MergeCriterion",
    "cophenetic_distance",
    "cophenetic_matrix",
    "verify_metric",
    "verify_ultrametric",
    "euclidean_matrix",
    "setvalued_table",
    "load_csv",
    "mst_cluster",
    "naive_cluster",
    "nn_chain_cluster",
    "lance_williams_update",
    "forward",
    "inverse",
    "reconstruct_one",
    "approximation_chain",
    "threshold_regress",
    "encode",
    "decimal_value",
    "decimal_values",
    "check_uniqueness",
    "dilate",
    "cluster_chain",
    "check_spherical_completeness",
    "build_lattice",
    "pairs_for_node",
    "clusters_at_level",
    "apply_permutation",
    "canonicalize",
]
