"""Gram-matrix assembly from dataset-level WL feature counts."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .filtration import (
    Filtration,
    WeightFunctionSpec,
    dataset_weights,
    fit_thresholds,
    fit_thresholds_auto,
    reweight,
)
from .graphs import GraphDataset
from .transport import GroundLine
from .wl import FeatureCounts, extract_all

VARIANTS = ("linear_combination", "product")


@dataclass(frozen=True)
class KernelConfig:
    """Hyperparameters of a kernel run.

    h is the refinement depth, gamma the decay of the per-feature base
    kernel, beta the mass-difference decay of the product variant.
    """

    h: int = 2
    gamma: float = 1.0
    beta: float = 1.0
    variant: str = "linear_combination"
    normalize: bool = False

    def __post_init__(self):
        if self.h < 0:
            raise ValueError("h must be >= 0")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.variant == "product" and not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(
                f"beta must be positive and finite for the product variant, got {self.beta}"
            )


@dataclass(frozen=True)
class GramMatrix:
    """Pairwise kernel values over a dataset, with the class labels and the
    thresholds they were computed over riding along."""

    values: np.ndarray
    class_labels: tuple[int, ...]
    filtration: Filtration


# Entry bound of an assembly chunk: its pairs x (k-1) distance temporaries
# stay near this many doubles however many graphs share a feature.
_CHUNK_ENTRIES = 1 << 15


def assemble_gram(store: FeatureCounts, line: GroundLine, config: KernelConfig) -> np.ndarray:
    """Unnormalized kernel matrix from the dataset's feature counts.

    Each row's histogram becomes its CDF scaled by the gaps between
    thresholds; on a line W1 is the L1 distance between such rows. Every row
    adds its squared mass to its graph's diagonal entry (W1 is 0 there), and
    every pair of rows of one feature adds a term to both of its entries:
    m_a * m_c * exp(-gamma * W1) for the linear variant. The product variant
    sums W1 in float and the mass products exactly in int64, then takes
    exp(-gamma * sum W1 - beta * (|m_i|^2 + |m_j|^2 - 2 <m_i, m_j>)).

    The pairs are visited in bounded chunks of consecutive rows, and
    `np.add.at` adds in index order, so every entry sums its terms in
    ascending feature id, however the rows are chunked.
    """
    if store.num_levels != len(line):
        raise ValueError(
            f"feature counts over {store.num_levels} levels do not match "
            f"ground line of length {len(line)}"
        )
    n = store.num_graphs
    product = config.variant == "product"
    graph = store.graph
    mass = store.counts.sum(axis=1)
    gaps = np.asarray(line.gaps, dtype=np.float64)
    cdf = np.cumsum(store.counts[:, :-1], axis=1) / mass[:, None] * gaps
    # linear: the kernel; product: the shared mass <m_i, m_j>, exact
    acc = np.zeros((n, n), dtype=np.int64 if product else np.float64)
    w1_sum = np.zeros((n, n)) if product else None
    # 1-D views: np.add.at is far faster on flat indices than on index pairs
    flat_acc = acc.reshape(-1)
    np.add.at(flat_acc, graph * (n + 1), mass * mass)

    # row r pairs with the later rows of its feature block
    rows = len(graph)
    block_start = np.flatnonzero(np.diff(store.feature, prepend=-1))
    block_end = np.append(block_start[1:], rows)
    partners = np.repeat(block_end, np.diff(block_end, prepend=0)) - np.arange(rows) - 1
    through = np.cumsum(partners)
    chunk_pairs = max(1, _CHUNK_ENTRIES // max(1, cdf.shape[1]))
    lo = 0
    while lo < rows:
        hi = max(lo + 1, int(np.searchsorted(through, through[lo] - partners[lo] + chunk_pairs,
                                             side="right")))
        cnt = partners[lo:hi]
        a = np.repeat(np.arange(lo, hi), cnt)
        c = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        diff = np.take(cdf, a, axis=0)
        diff -= np.take(cdf, c, axis=0)
        w1 = np.abs(diff, out=diff).sum(axis=1)
        ga, gc = np.take(graph, a), np.take(graph, c)
        mm = np.take(mass, a) * np.take(mass, c)
        if product:
            terms = ((w1_sum.reshape(-1), w1), (flat_acc, mm))
        else:
            terms = ((flat_acc, mm * np.exp(-config.gamma * w1)),)
        upper, lower = ga * n + gc, gc * n + ga
        for target, value in terms:
            np.add.at(target, upper, value)
            np.add.at(target, lower, value)
        lo = hi
    if not product:
        return acc
    sq = np.diag(acc)
    return np.exp(-config.gamma * w1_sum - config.beta * (sq[:, None] + sq[None, :] - 2 * acc))


def gram_matrix(
    dataset: GraphDataset,
    spec: WeightFunctionSpec,
    k: int | str | Filtration,
    config: KernelConfig,
) -> GramMatrix:
    """Full pipeline: weights, shared thresholds, feature counts, kernel matrix.

    `k` is the filtration length, the string 'auto' for one threshold per
    distinct pooled edge weight, or a `Filtration` to use as it is. The
    weights are computed once and passed on with the native spec. Cosine
    normalization rescales to unit diagonal when requested.
    """
    weighted = reweight(dataset, spec)
    native = WeightFunctionSpec()
    filtration = k if isinstance(k, Filtration) else build_filtration(weighted, native, k)
    return gram_matrix_for_filtration(weighted, native, filtration, config)


def build_filtration(
    dataset: GraphDataset, spec: WeightFunctionSpec, k: int | str
) -> Filtration:
    """Shared thresholds fitted to the dataset's pooled edge weights under `spec`.

    `k` is the filtration length or 'auto'. A dataset without edges gets the
    single level (0.0,), under which the kernel is the WL label histogram
    kernel.
    """
    if k != "auto" and k < 1:
        raise ValueError("k must be >= 1")
    pooled = dataset_weights(dataset, spec).tolist()
    if not pooled:
        if k != "auto" and k > 1:
            warnings.warn(
                f"no edge weights; filtration length reduced from {k} to 1", stacklevel=2
            )
        return Filtration((0.0,))
    return fit_thresholds_auto(pooled) if k == "auto" else fit_thresholds(pooled, k)


def gram_matrix_for_filtration(
    dataset: GraphDataset,
    spec: WeightFunctionSpec,
    filtration: Filtration,
    config: KernelConfig,
) -> GramMatrix:
    """The kernel matrix of `gram_matrix` over a given threshold sequence.

    The thresholds are the ground line as they are, so the gaps between
    integer thresholds are exact differences before they become floats.
    """
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    if np.any(dataset.sizes == 0):
        raise ValueError("dataset contains a graph with zero vertices")
    weighted = reweight(dataset, spec)

    store = extract_all(weighted, filtration, config.h)
    values = assemble_gram(store, GroundLine(filtration.thresholds), config)

    if config.normalize:
        diag = np.diag(values).copy()
        if np.any(diag <= 0):
            raise ValueError("cannot cosine-normalize: zero self-kernel value")
        scale = 1.0 / np.sqrt(diag)
        values = values * np.outer(scale, scale)
        np.fill_diagonal(values, 1.0)

    return GramMatrix(values, dataset.class_labels, filtration)
