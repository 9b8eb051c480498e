"""Graph-pair kernels over feature tables and Gram-matrix assembly."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .filtration import (
    Filtration,
    WeightFunctionSpec,
    fit_thresholds,
    fit_thresholds_auto,
    pooled_weights,
    reweight,
)
from .graphs import GraphDataset
from .transport import GroundLine, wasserstein_cdf_points
from .wl import FeatureTable, LabelInterner, extract_all

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
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.variant == "product" and self.beta <= 0:
            raise ValueError("beta must be positive for the product variant")


@dataclass(frozen=True)
class GramMatrix:
    """Pairwise kernel values over a dataset, with the class labels riding along."""

    values: np.ndarray
    graph_ids: tuple[int, ...]
    class_labels: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.graph_ids)


def _check_tables(t1: FeatureTable, t2: FeatureTable, line: GroundLine) -> None:
    if t1.num_levels != len(line) or t2.num_levels != len(line):
        raise ValueError(
            f"feature tables over {t1.num_levels}/{t2.num_levels} levels do not match "
            f"ground line of length {len(line)}"
        )


def filtration_kernel_pair(
    t1: FeatureTable,
    t2: FeatureTable,
    line: GroundLine,
    gamma: float,
) -> float:
    """Sum over shared features of exp(-gamma*W) weighted by both histogram masses.

    Features present in only one graph contribute zero, so only the
    intersection is visited; ids are visited in ascending order to keep the
    float result run-deterministic.
    """
    _check_tables(t1, t2, line)
    small, large = (t1, t2) if len(t1.features) <= len(t2.features) else (t2, t1)
    shared = sorted(fid for fid in small.features if fid in large.features)
    total = 0.0
    for fid in shared:
        h1 = t1.features[fid]
        h2 = t2.features[fid]
        w = wasserstein_cdf_points(h1.nonzero_cdf, h2.nonzero_cdf, line)
        total += math.exp(-gamma * w) * h1.mass * h2.mass
    return total


def product_kernel_pair(
    t1: FeatureTable,
    t2: FeatureTable,
    line: GroundLine,
    gamma: float,
    beta: float,
) -> float:
    """Product over features of base kernel times a mass-difference RBF factor.

    A feature absent from one table keeps a base factor of 1 and contributes
    only exp(-beta * mass^2); absent from both, it contributes 1 and is
    skipped. The product is accumulated in log space to avoid underflow.
    """
    _check_tables(t1, t2, line)
    log_total = 0.0
    for fid in sorted(set(t1.features) | set(t2.features)):
        h1 = t1.features.get(fid)
        h2 = t2.features.get(fid)
        if h1 is not None and h2 is not None:
            w = wasserstein_cdf_points(h1.nonzero_cdf, h2.nonzero_cdf, line)
            log_total -= gamma * w
            diff = h1.mass - h2.mass
        elif h1 is not None:
            diff = h1.mass
        else:
            diff = h2.mass
        log_total -= beta * diff * diff
    return math.exp(log_total)


def histogram_kernel_pair(t1: FeatureTable, t2: FeatureTable) -> float:
    """Feature-frequency dot product; defined only for single-level tables."""
    if t1.num_levels != 1 or t2.num_levels != 1:
        raise ValueError("histogram kernel requires feature tables with a single level")
    small, large = (t1, t2) if len(t1.features) <= len(t2.features) else (t2, t1)
    shared = sorted(fid for fid in small.features if fid in large.features)
    total = 0.0
    for fid in shared:
        total += 1.0 * t1.features[fid].mass * t2.features[fid].mass
    return total


# Row chunk of the pairwise distances: the rows x r x (k-1) temporary stays
# near this many doubles however many graphs share a feature.
_CHUNK_DOUBLES = 16384


def _w1_matrix(counts: np.ndarray, mass: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """Pairwise W1 between the normalized count rows, as an r x r matrix.

    On a line W1 is the L1 distance between the CDFs, each level weighted by
    its gap to the next threshold, so every row is scaled once and the
    distances are plain L1 distances between rows.
    """
    cdf = np.cumsum(counts[:, :-1], axis=1) / mass[:, None] * gaps
    r = len(cdf)
    out = np.empty((r, r))
    step = max(1, _CHUNK_DOUBLES // max(1, cdf.size))
    for lo in range(0, r, step):
        out[lo:lo + step] = np.abs(cdf[lo:lo + step, None, :] - cdf[None, :, :]).sum(axis=2)
    return out


def assemble_gram(
    tables: Sequence[FeatureTable], line: GroundLine, config: KernelConfig
) -> np.ndarray:
    """Unnormalized kernel matrix over feature tables, one block per shared feature.

    Equals `filtration_kernel_pair` (linear) or `product_kernel_pair`
    (product) on every pair, up to rounding. Features are visited in
    ascending id. A feature held by one graph only adds its squared mass to
    that graph's diagonal; one held by r >= 2 graphs adds an r x r block. The
    product variant sums W1 in float and the mass products exactly in int64,
    then takes exp(-gamma * sum W1 - beta * (|m_i|^2 + |m_j|^2 - 2 <m_i, m_j>)).
    """
    for t in tables:
        _check_tables(t, t, line)
    held: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for g, t in enumerate(tables):
        for fid, hist in t.features.items():
            held.setdefault(fid, []).append((g, hist.counts))

    n = len(tables)
    product = config.variant == "product"
    gaps = np.asarray(line.gaps, dtype=np.float64)
    # linear: the kernel; product: the shared mass <m_i, m_j>, exact
    acc = np.zeros((n, n), dtype=np.int64 if product else np.float64)
    w1_sum = np.zeros((n, n)) if product else None
    alone_graph: list[int] = []
    alone_mass: list[int] = []
    for fid in sorted(held):
        rows = held[fid]
        if len(rows) == 1:
            alone_graph.append(rows[0][0])
            alone_mass.append(sum(rows[0][1]))
            continue
        idx = np.array([g for g, _ in rows], dtype=np.intp)
        counts = np.array([c for _, c in rows], dtype=np.int64)
        mass = counts.sum(axis=1)
        w1 = _w1_matrix(counts, mass, gaps)
        block = np.ix_(idx, idx)
        if product:
            w1_sum[block] += w1
            acc[block] += np.outer(mass, mass)
        else:
            acc[block] += np.outer(mass, mass) * np.exp(-config.gamma * w1)
    alone = np.array(alone_graph, dtype=np.intp)
    np.add.at(acc, (alone, alone), np.square(np.array(alone_mass, dtype=np.int64)))
    if not product:
        return acc
    sq = np.diag(acc)
    return np.exp(-config.gamma * w1_sum - config.beta * (sq[:, None] + sq[None, :] - 2 * acc))


def squared_kernel_distance(values: np.ndarray, i: int, j: int) -> float:
    """Squared feature-space distance K(i,i) + K(j,j) - 2 K(i,j)."""
    return float(values[i, i] + values[j, j] - 2.0 * values[i, j])


def gram_matrix(
    dataset: GraphDataset,
    spec: WeightFunctionSpec,
    k: int | str,
    config: KernelConfig,
    threads: int = 1,
) -> GramMatrix:
    """Full pipeline: weights, shared thresholds, feature tables, kernel matrix.

    `k` is the filtration length, or the string 'auto' for one threshold per
    distinct pooled edge weight. Cosine normalization rescales to unit
    diagonal when requested. `threads` is accepted for compatibility and
    ignored.
    """
    weighted = reweight_dataset(dataset, spec)
    native = WeightFunctionSpec()
    filtration = build_filtration(weighted, native, k)
    return gram_matrix_for_filtration(weighted, native, filtration, config, threads=threads)


def reweight_dataset(dataset: GraphDataset, spec: WeightFunctionSpec) -> GraphDataset:
    """The dataset with every graph carrying the weights computed by `spec`.

    Computing the weights once and passing the result on with the native
    spec spares `build_filtration` and `gram_matrix_for_filtration` a pass each.
    """
    return replace(dataset, graphs=tuple(reweight(g, spec) for g in dataset.graphs))


def gram_matrix_for_filtration(
    dataset: GraphDataset,
    spec: WeightFunctionSpec,
    filtration: Filtration,
    config: KernelConfig,
    threads: int = 1,
) -> GramMatrix:
    """Kernel matrix over an explicitly supplied threshold sequence.

    The thresholds are the ground line as they are, so the gaps between
    integer thresholds are exact differences before they become floats.
    `threads` is accepted for compatibility and ignored.
    """
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    if any(g.n == 0 for g in dataset.graphs):
        raise ValueError("dataset contains a graph with zero vertices")
    weighted = [reweight(g, spec) for g in dataset.graphs]

    interner = LabelInterner()
    tables = extract_all(weighted, filtration, config.h, interner)
    line = GroundLine(filtration.thresholds)
    values = assemble_gram(tables, line, config)

    if config.normalize:
        diag = np.diag(values).copy()
        if np.any(diag <= 0):
            raise ValueError("cannot cosine-normalize: zero self-kernel value")
        scale = 1.0 / np.sqrt(diag)
        values = values * np.outer(scale, scale)
        np.fill_diagonal(values, 1.0)

    return GramMatrix(
        values=values,
        graph_ids=tuple(range(len(tables))),
        class_labels=dataset.class_labels,
    )


def filtration_for_weights(pooled: Sequence[float], k: int | str) -> Filtration:
    """Shared thresholds fitted to a pooled edge-weight multiset.

    `k` is the filtration length or 'auto'. A dataset without edges gets the
    single level (0.0,), under which the kernel is the WL label histogram
    kernel.
    """
    if not pooled:
        if k != "auto" and int(k) > 1:
            warnings.warn(
                f"no edge weights; filtration length reduced from {k} to 1", stacklevel=2
            )
        return Filtration((0.0,))
    return fit_thresholds_auto(pooled) if k == "auto" else fit_thresholds(pooled, int(k))


def build_filtration(
    dataset: GraphDataset, spec: WeightFunctionSpec, k: int | str
) -> Filtration:
    """The shared threshold sequence a `gram_matrix` call would use."""
    return filtration_for_weights(pooled_weights(dataset.graphs, spec), k)
