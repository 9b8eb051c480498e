"""Gram-matrix assembly from dataset-level WL feature counts."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .filtration import Filtration, WeightFunctionSpec, build_filtration, reweight
from .graphs import GraphDataset
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
        if not isinstance(self.h, numbers.Integral) or self.h < 0:
            raise ValueError(f"h must be >= 0 and an integer, got {self.h!r}")
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


def assemble_gram(store: FeatureCounts, filtration: Filtration, config: KernelConfig) -> np.ndarray:
    """Unnormalized kernel matrix from the dataset's feature counts.

    Each row's histogram becomes its CDF scaled by the gaps between
    thresholds; on a line W1 is the L1 distance between such rows. Every row
    adds its squared mass to its graph's diagonal entry (W1 is 0 there), and
    every pair of rows of one feature adds a term to the pair's entry:
    m_a * m_c * exp(-gamma * W1) for the linear variant. The product variant
    sums W1 in float and the mass products exactly in int64, then takes
    exp(-gamma * sum W1 - beta * (|m_i|^2 + |m_j|^2 - 2 <m_i, m_j>)).

    A kept row (one of the first graph of its group of equal tables, below)
    whose feature no other graph keeps adds to the diagonal only, so only
    the kept rows of shared features get CDFs and pairs. Graph ids ascend
    inside a feature block, so every pair term goes to the upper entry
    (g_a, g_c), g_a < g_c; at the end the diagonal is written and each row i
    copies column i above the diagonal (`acc[i, :i] = acc[:i, i]`). The
    pairs are visited in bounded chunks of consecutive rows, and
    `np.add.at` adds in index order, so every entry sums its terms in
    ascending feature id, however the rows are chunked.

    Graphs with equal feature tables (`_first_equal_tables`) have equal
    rows: against a third graph their terms are the same values in the same
    order, and against each other every term is m * m * exp(-gamma * 0),
    added in the diagonal's order (product: sum W1 = 0 and shared mass =
    diagonal, so exp(0) = 1). So only the first graph of each group keeps
    its rows, and the others copy its column and row at the end; the bytes
    are those of pairing every row.
    """
    if store.num_levels != len(filtration):
        raise ValueError(
            f"feature counts over {store.num_levels} levels do not match "
            f"ground line of length {len(filtration)}"
        )
    n = store.num_graphs
    product = config.variant == "product"
    # linear: the kernel; product: the shared mass <m_i, m_j>, exact
    acc = np.zeros((n, n), dtype=np.int64 if product else np.float64)
    mass = store.counts.sum(axis=1)
    # cast first: `ufunc.at` has a fast loop only when the value dtype
    # matches the target's; the mixed add cast each value the same way
    diag = np.zeros(n, dtype=acc.dtype)
    np.add.at(diag, store.graph, (mass * mass).astype(acc.dtype, copy=False))

    # the kept rows of features that two or more graphs keep
    first = _first_equal_tables(store, diag)
    kept = np.flatnonzero(first[store.graph] == store.graph)
    block_start = np.flatnonzero(np.diff(store.feature[kept], prepend=-1))
    size = np.diff(block_start, append=len(kept))
    shared = kept[np.repeat(size > 1, size)]
    size = size[size > 1]
    del kept, block_start
    graph, mass = store.graph[shared], mass[shared]
    cdf = np.cumsum(store.counts[shared, :-1], axis=1) / mass[:, None]
    cdf *= np.asarray(filtration.gaps, dtype=np.float64)
    w1_sum = np.zeros((n, n)) if product else None
    # 1-D views: np.add.at is far faster on flat indices than on index pairs
    flat_acc = acc.reshape(-1)

    # row r pairs with the later rows of its feature block
    rows = len(graph)
    block_end = np.cumsum(size)
    partners = np.repeat(block_end, size) - np.arange(rows) - 1
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
        upper = np.take(graph, a) * n + np.take(graph, c)
        mm = np.take(mass, a) * np.take(mass, c)
        if product:
            np.add.at(w1_sum.reshape(-1), upper, w1)
            np.add.at(flat_acc, upper, mm)
        else:
            np.add.at(flat_acc, upper, mm * np.exp(-config.gamma * w1))
        lo = hi
    flat_acc[:: n + 1] = diag
    if product:
        # the lower triangles of acc and w1_sum are zero; the mirror below
        # overwrites the entries computed from them
        acc = np.exp(-config.gamma * w1_sum
                     - config.beta * (diag[:, None] + diag[None, :] - 2 * acc))
    for i in range(1, n):
        acc[i, :i] = acc[:i, i]
    dup = np.flatnonzero(first != np.arange(n))
    acc[:, dup] = acc[:, first[dup]]
    acc[dup] = acc[first[dup]]
    return acc


def _first_equal_tables(store: FeatureCounts, diag: np.ndarray) -> np.ndarray:
    """first[g]: the lowest graph id whose feature table equals graph g's.

    Equal tables have equal row counts and equal `diag` (sum of squared
    masses, added in the same order), so only graphs whose (rows, diag) key
    collides are candidates. Their (feature, counts) rows are taken in
    (graph, feature) order, and each candidate's table, as raw bytes, keys a
    dict walked in ascending graph id: the first graph to set a key is the
    lowest id of its group. A dict compares its keys' bytes in full, so no
    two different tables can share a group.
    """
    n = store.num_graphs
    first = np.arange(n)
    rows = np.bincount(store.graph, minlength=n)
    order = np.lexsort((diag, rows))
    r, d = rows[order], diag[order]
    same = (r[1:] == r[:-1]) & (d[1:] == d[:-1]) & (r[1:] > 0)
    cand = np.zeros(n, dtype=bool)
    cand[order[1:][same]] = cand[order[:-1][same]] = True
    # the candidates' rows by graph, then feature (the sort is stable)
    crow = np.flatnonzero(cand[store.graph])
    crow = crow[np.argsort(store.graph[crow], kind="stable")]
    table = np.column_stack((store.feature[crow], store.counts[crow]))
    ids = np.flatnonzero(cand)
    ends = np.cumsum(rows[ids]).tolist()
    seen = {}
    for g, lo, hi in zip(ids.tolist(), [0, *ends], ends):
        first[g] = seen.setdefault(table[lo:hi].tobytes(), g)
    return first


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
    values = assemble_gram(store, filtration, config)

    if config.normalize:
        scale = 1.0 / np.sqrt(np.diag(values))
        values = values * np.outer(scale, scale)
        np.fill_diagonal(values, 1.0)

    return GramMatrix(values, dataset.class_labels, filtration)
