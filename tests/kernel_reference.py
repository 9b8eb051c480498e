"""Per-graph feature tables and per-pair kernels: the oracles of `assemble_gram`.

A `FeatureTable` maps each feature of one graph to its filtration histogram.
The pair kernels sum (or multiply) over the features two tables share, one
sparse Wasserstein evaluation at a time, so they define every Gram entry
independently of the dataset-level arrays `kernels.assemble_gram` reads.
`tables_from` turns the `FeatureCounts` of `wl.extract_all` into tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from wlfiltration import FeatureCounts, GroundLine
from wlfiltration.transport import wasserstein_cdf_points


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
