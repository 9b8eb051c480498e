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
    build_filtration,
    dataset_weights,
    fit_thresholds,
    reweight,
)
from .gram_io import RunManifest, load_manifest, write_gram
from .graphs import (
    DatasetFormatError,
    GraphDataset,
    LabeledGraph,
    load_tud_dataset,
    permute_graph,
    write_tud_dataset,
)
from .kernels import GramMatrix, KernelConfig, gram_matrix
from .transport import wasserstein_cdf_points
from .wl import FeatureCounts, extract_all

__version__ = "0.24.0"

__all__ = [
    "DatasetFormatError",
    "FeatureCounts",
    "Filtration",
    "GramMatrix",
    "GraphDataset",
    "KernelConfig",
    "LabeledGraph",
    "RunManifest",
    "WeightFunctionSpec",
    "build_filtration",
    "csl_graph",
    "dataset_weights",
    "extract_all",
    "fit_thresholds",
    "generate_csl",
    "generate_csl_benchmark",
    "gram_matrix",
    "load_manifest",
    "load_tud_dataset",
    "permute_graph",
    "reweight",
    "wasserstein_cdf_points",
    "write_gram",
    "write_tud_dataset",
]
