"""Per-graph feature tables and per-pair kernels: the oracles of `assemble_gram`.

A `FeatureTable` maps each feature of one graph to its filtration histogram.
The pair kernels sum (or multiply) over the features two tables share, one
sparse Wasserstein evaluation at a time, so they define every Gram entry
independently of the dataset-level arrays `kernels.assemble_gram` reads.
`tables_from` turns the `FeatureCounts` of `wl.extract_all` into tables.
`assemble_gram_reference` is the dataset-level assembly of version 0.11.0,
kept as the byte oracle of `assemble_gram`: it pairs every shared row, adds
each term to both triangles and the diagonal with mixed dtypes.

The dense closed-form distance `wasserstein_1d` and the sorted-atom-matching
evaluation of the transport definition, `wasserstein_matching`, check
`transport.wasserstein_cdf_points` and each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from wlfiltration import FeatureCounts, Filtration, KernelConfig
from wlfiltration.transport import wasserstein_cdf_points

MASS_TOLERANCE = 1e-9


def _check_pair(h1: Sequence[float], h2: Sequence[float], line: Filtration) -> None:
    if len(h1) != len(line) or len(h2) != len(line):
        raise ValueError(
            f"histogram lengths {len(h1)}, {len(h2)} do not match ground line of length {len(line)}"
        )
    for h in (h1, h2):
        total = math.fsum(h)
        if abs(total - 1.0) > MASS_TOLERANCE:
            raise ValueError(f"histogram mass {total} differs from 1 beyond tolerance")


def wasserstein_1d(h1: Sequence[float], h2: Sequence[float], line: Filtration) -> float:
    """Closed-form transport distance between two unit-mass histograms.

    Equals sum over i of |F1(i) - F2(i)| * gap(i) with F the prefix-sum
    vector; linear in the histogram length.
    """
    _check_pair(h1, h2, line)
    f1 = 0.0
    f2 = 0.0
    total = 0.0
    gaps = line.gaps
    for i in range(len(line) - 1):
        f1 += h1[i]
        f2 += h2[i]
        total += abs(f1 - f2) * gaps[i]
    return total


def wasserstein_matching(
    counts1: Sequence[int],
    counts2: Sequence[int],
    denominator: int,
    line: Filtration,
) -> float:
    """Transport distance evaluated straight from its definition.

    Histogram entries are counts over a common denominator; each unit of
    mass becomes an atom at its threshold position and the sorted lists are
    matched monotonically, which is optimal for a metric cost on the line.
    Intended as the independent oracle for `wasserstein_1d`.
    """
    if denominator < 1 or denominator > 10**4:
        raise ValueError("denominator must be in 1..10000")
    if len(counts1) != len(line) or len(counts2) != len(line):
        raise ValueError("count vectors must match the ground line length")
    if sum(counts1) != denominator or sum(counts2) != denominator:
        raise ValueError("count vectors must each sum to the denominator")
    atoms1 = [p for p, c in zip(line.thresholds, counts1) for _ in range(c)]
    atoms2 = [p for p, c in zip(line.thresholds, counts2) for _ in range(c)]
    atoms1.sort()
    atoms2.sort()
    return math.fsum(abs(a - b) for a, b in zip(atoms1, atoms2)) / denominator


def base_kernel(
    h1: Sequence[float],
    h2: Sequence[float],
    line: Filtration,
    gamma: float,
) -> float:
    """exp(-gamma * W) on unit-mass histograms; gamma = 0 degenerates to 1."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    return math.exp(-gamma * wasserstein_1d(h1, h2, line))


def squared_kernel_distance(values: np.ndarray, i: int, j: int) -> float:
    """Squared feature-space distance K(i,i) + K(j,j) - 2 K(i,j)."""
    return float(values[i, i] + values[j, j] - 2.0 * values[i, j])


@dataclass(frozen=True)
class FiltrationHistogram:
    """Occurrence counts of one feature across the k filtration graphs."""

    counts: tuple[int, ...]

    @property
    def mass(self) -> int:
        return sum(self.counts)

    @cached_property
    def normalized(self) -> tuple[float, ...]:
        m = self.mass
        if m == 0:
            raise ValueError("zero-mass histogram has no normalized form")
        return tuple(c / m for c in self.counts)

    @cached_property
    def nonzero_cdf(self) -> tuple[tuple[int, float], ...]:
        """(level index, cumulative normalized mass) at each nonzero entry."""
        m = self.mass
        out = []
        running = 0
        for i, c in enumerate(self.counts):
            if c:
                running += c
                out.append((i, running / m))
        return tuple(out)


@dataclass(frozen=True)
class FeatureTable:
    """Feature id -> filtration histogram for one graph; absent means zero mass."""

    features: dict[int, FiltrationHistogram]
    num_levels: int

    def total_mass(self) -> int:
        return sum(h.mass for h in self.features.values())


def tables_from(store: FeatureCounts) -> list[FeatureTable]:
    """One table per graph, holding that graph's rows of the store."""
    tables: list[dict[int, FiltrationHistogram]] = [{} for _ in range(store.num_graphs)]
    for g, f, row in zip(store.graph.tolist(), store.feature.tolist(), store.counts.tolist()):
        tables[g][f] = FiltrationHistogram(tuple(row))
    return [FeatureTable(t, num_levels=store.num_levels) for t in tables]


def dump_feature_table(table: FeatureTable, depth: Sequence[int]) -> str:
    """Debug text form: one `feature_id depth counts...` line per feature."""
    lines = []
    for lid in sorted(table.features):
        hist = table.features[lid]
        counts = " ".join(str(c) for c in hist.counts)
        lines.append(f"{lid} {depth[lid]} {counts}")
    return "\n".join(lines) + ("\n" if lines else "")


def _check_tables(t1: FeatureTable, t2: FeatureTable, line: Filtration) -> None:
    if t1.num_levels != len(line) or t2.num_levels != len(line):
        raise ValueError(
            f"feature tables over {t1.num_levels}/{t2.num_levels} levels do not match "
            f"ground line of length {len(line)}"
        )


def filtration_kernel_pair(
    t1: FeatureTable,
    t2: FeatureTable,
    line: Filtration,
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
    line: Filtration,
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


# Entry bound of an assembly chunk, as in `kernels`.
_CHUNK_ENTRIES = 1 << 15


def assemble_gram_reference(
    store: FeatureCounts, line: Filtration, config: KernelConfig
) -> np.ndarray:
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
