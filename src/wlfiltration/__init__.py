"""Graph filtration kernels from Weisfeiler-Lehman subtree features.

Graphs are compared by tracking how often each refinement label occurs in a
nested sequence of edge-threshold subgraphs, measuring per-feature occurrence
histograms with a closed-form 1-D Wasserstein distance and combining the
resulting base kernels into a positive semi-definite graph kernel.
"""

from .csl import csl_graph, generate_csl, generate_csl_benchmark
from .filtration import (
    Filtration,
    WeightFunctionSpec,
    compute_weights,
    dataset_weights,
    filtration_graph,
    filtration_sequence,
    fit_thresholds,
    fit_thresholds_auto,
    reweight,
)
from .gram_io import RunManifest, load_manifest, read_gram_csv, write_gram
from .graphs import (
    DatasetFormatError,
    GraphDataset,
    LabeledGraph,
    load_tud_dataset,
    permute_graph,
    write_tud_dataset,
)
from .kernels import (
    GramMatrix,
    KernelConfig,
    build_filtration,
    gram_matrix,
    squared_kernel_distance,
)
from .transport import (
    GroundLine,
    base_kernel,
    wasserstein_1d,
    wasserstein_cdf_points,
    wasserstein_matching,
)
from .wl import FeatureCounts, extract_all

__version__ = "0.8.0"

__all__ = [
    "DatasetFormatError",
    "FeatureCounts",
    "Filtration",
    "GramMatrix",
    "GraphDataset",
    "GroundLine",
    "KernelConfig",
    "LabeledGraph",
    "RunManifest",
    "WeightFunctionSpec",
    "base_kernel",
    "build_filtration",
    "compute_weights",
    "csl_graph",
    "dataset_weights",
    "extract_all",
    "filtration_graph",
    "filtration_sequence",
    "fit_thresholds",
    "fit_thresholds_auto",
    "generate_csl",
    "generate_csl_benchmark",
    "gram_matrix",
    "load_manifest",
    "load_tud_dataset",
    "permute_graph",
    "read_gram_csv",
    "reweight",
    "squared_kernel_distance",
    "wasserstein_1d",
    "wasserstein_cdf_points",
    "wasserstein_matching",
    "write_gram",
    "write_tud_dataset",
]
