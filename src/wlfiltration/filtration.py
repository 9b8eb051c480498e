"""Edge-weight functions, k-means threshold fitting, and filtration graphs."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graphs import LabeledGraph

WEIGHT_KINDS = ("native", "degree", "walks", "triangles")

_UINT64_MAX = 2**64 - 1


@dataclass(frozen=True)
class WeightFunctionSpec:
    """Selects how edge weights are computed before filtering.

    kind 'native' keeps the weights the dataset came with; 'degree',
    'walks' and 'triangles' recompute them structurally. `walk_length`
    is the walk-length bound and only meaningful for kind 'walks'.
    """

    kind: str = "native"
    walk_length: int = 1

    def __post_init__(self):
        if self.kind not in WEIGHT_KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}, expected one of {WEIGHT_KINDS}")
        if self.kind == "walks" and self.walk_length < 1:
            raise ValueError("walk_length must be >= 1")


@dataclass(frozen=True)
class Filtration:
    """Strictly decreasing threshold sequence inducing the nested graphs."""

    thresholds: tuple[float, ...]

    def __post_init__(self):
        if not self.thresholds:
            raise ValueError("a filtration needs at least one threshold")
        for a, b in zip(self.thresholds, self.thresholds[1:]):
            if not a > b:
                raise ValueError("thresholds must be strictly decreasing")

    def __len__(self) -> int:
        return len(self.thresholds)


def weight_degree(g: LabeledGraph) -> tuple[int, ...]:
    """w({u,v}) = max(deg(u), deg(v)), aligned with g.edges."""
    deg = [len(ns) for ns in g.adjacency]
    return tuple(max(deg[u], deg[v]) for u, v in g.edges)


def weight_triangles(g: LabeledGraph) -> tuple[int, ...]:
    """w({u,v}) = number of triangles containing the edge = |N(u) ∩ N(v)|.

    On an edge A[u,v] = 1 and (A^2)[u,v] counts the common neighbours, so
    this is the two-step walk total minus one.
    """
    return tuple(w - 1 for w in _walk_totals(g, 2))


def weight_walks(g: LabeledGraph, walk_length: int) -> tuple[int, ...]:
    """w({u,v}) = number of walks of length 1..walk_length from u to v.

    Exact integer arithmetic; any count above the 64-bit unsigned range is an
    overflow error rather than a silent wraparound.
    """
    return tuple(_walk_totals(g, walk_length))


# Row chunk of the walk propagation: the rows x (n + 2m) temporaries stay
# near this many entries however large the graph.
_WALK_CHUNK_ENTRIES = 1 << 18


def _count_dtype(walk_length: int, maxdeg: int) -> type:
    """int64 when walk_length * maxdeg**walk_length < 2**63, else exact ints.

    Every entry of A^l is at most maxdeg**l, so the bound covers every entry
    and partial sum of the walk totals.
    """
    return np.int64 if walk_length * maxdeg**walk_length < 2**63 else object


def _walk_totals(g: LabeledGraph, walk_length: int) -> list[int]:
    """sum_{l=1..walk_length} (A^l)[u, v] at every edge (u, v), aligned with g.edges.

    Rows of A^l are propagated over the neighbour lists, a chunk of source
    vertices at a time, so the work is O(walk_length * n * m) and no n x n
    matrix is built. Counts are int64 when that cannot overflow and exact
    Python ints (dtype object) otherwise; see `_count_dtype`.
    """
    if walk_length < 1:
        raise ValueError("walk_length must be >= 1")
    if not g.edges:
        return []
    ends = np.array(g.edges, dtype=np.intp)
    u, v = ends[:, 0], ends[:, 1]
    src = np.concatenate((u, v))
    nbr = np.concatenate((v, u))[np.argsort(src, kind="stable")]
    deg = np.bincount(src, minlength=g.n)
    # reduceat mishandles empty segments, so only vertices with neighbours
    # are summed; the others stay zero.
    held = np.flatnonzero(deg)
    held_starts = (np.cumsum(deg) - deg)[held]
    dtype = _count_dtype(walk_length, int(deg.max()))

    totals = np.empty(len(u), dtype=dtype)
    step = max(1, _WALK_CHUNK_ENTRIES // (g.n + len(nbr)))
    for lo in range(0, g.n, step):
        hi = min(g.n, lo + step)
        rows = np.zeros((hi - lo, g.n), dtype=dtype)
        rows[np.arange(hi - lo), np.arange(lo, hi)] = 1
        acc = np.zeros_like(rows)
        for _ in range(walk_length):
            nxt = np.zeros_like(rows)
            nxt[:, held] = np.add.reduceat(rows[:, nbr], held_starts, axis=1)
            acc += nxt
            rows = nxt
        if acc.max() > _UINT64_MAX:
            raise OverflowError(
                f"walk count exceeds 64-bit unsigned range for walk_length={walk_length}"
            )
        # g.edges is sorted, so the edges leaving rows lo..hi-1 are a slice
        a, b = np.searchsorted(u, (lo, hi))
        totals[a:b] = acc[u[a:b] - lo, v[a:b]]
    return totals.tolist()


def compute_weights(g: LabeledGraph, spec: WeightFunctionSpec) -> tuple[float, ...]:
    """Edge-weight assignment for g under the chosen weight function."""
    if spec.kind == "native":
        return g.weights
    if spec.kind == "degree":
        return weight_degree(g)
    if spec.kind == "triangles":
        return weight_triangles(g)
    return weight_walks(g, spec.walk_length)


def reweight(g: LabeledGraph, spec: WeightFunctionSpec) -> LabeledGraph:
    """Copy of g carrying the weights computed by `spec`."""
    if spec.kind == "native":
        return g
    return g.with_weights(compute_weights(g, spec))


def fit_thresholds(dataset_weights: Iterable[float], k: int) -> Filtration:
    """Thresholds from exact 1-D k-means over the distinct weight values.

    The optimal partition of the sorted distinct values into k contiguous
    clusters (minimal total within-cluster SSE) is found by dynamic
    programming; ties prefer smaller leading clusters. Threshold i is the
    minimum element of the i-th cluster, ordered decreasingly. When fewer
    than k distinct values exist, the filtration shrinks to that count.

    For d distinct values this takes O(k*d) numpy passes of length <= d:
    for each cluster start, the costs of every cluster end are one array
    expression, in the same float64 arithmetic as a scalar loop would use.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    values = sorted(set(dataset_weights))
    if not values:
        raise ValueError("empty edge-weight multiset")
    d = len(values)
    if k > d:
        warnings.warn(
            f"only {d} distinct edge weights; filtration length reduced from {k} to {d}",
            stacklevel=2,
        )
        k = d

    # Sequential sums from 0.0, so they round like a running Python total.
    x = np.array(values, dtype=np.float64)
    prefix = np.cumsum(np.concatenate(([0.0], x)))
    prefix_sq = np.cumsum(np.concatenate(([0.0], x * x)))
    sizes = np.arange(1, d + 1, dtype=np.float64)

    def sse_from(i: int) -> np.ndarray:
        """Within-cluster SSE of values[i..j] for every end j = i..d-1."""
        s = prefix[i + 1:] - prefix[i]
        sq = prefix_sq[i + 1:] - prefix_sq[i]
        return sq - s * s / sizes[:d - i]

    # suffix[t, i] = minimal SSE partitioning values[i..d-1] into t clusters.
    # The clusters before start i number k - t >= 1 unless t == k and i == 0,
    # so only those entries are filled; the others are never read.
    suffix = np.full((k + 1, d + 1), np.inf)
    suffix[0, d] = 0.0
    for i in range(d - 1, -1, -1):
        sse = sse_from(i)
        layers = range(max(1, k - i), min(k - 1, d - i) + 1) if i else (k,)
        for t in layers:
            # cluster values[i..j], then t-1 clusters on the rest, j = i..d-t
            suffix[t, i] = (sse[:d - t + 1 - i] + suffix[t - 1, i + 1:d - t + 2]).min()

    # Walk forward taking the shortest cluster achieving the optimum, which
    # makes cluster sizes lexicographically minimal.
    minima = []
    i = 0
    for t in range(k, 0, -1):
        cost = sse_from(i)[:d - t + 1 - i] + suffix[t - 1, i + 1:d - t + 2]
        minima.append(values[i])
        i += int(np.flatnonzero(cost <= suffix[t, i])[0]) + 1
    return Filtration(tuple(reversed(minima)))


def fit_thresholds_auto(dataset_weights: Iterable[float]) -> Filtration:
    """One threshold per distinct weight value, in decreasing order."""
    values = sorted(set(dataset_weights), reverse=True)
    if not values:
        raise ValueError("empty edge-weight multiset")
    return Filtration(tuple(values))


def filtration_graph(g: LabeledGraph, alpha: float) -> LabeledGraph:
    """Subgraph keeping every edge of weight >= alpha; vertices and labels unchanged."""
    keep = [i for i, w in enumerate(g.weights) if w >= alpha]
    return LabeledGraph(
        n=g.n,
        edges=tuple(g.edges[i] for i in keep),
        labels=g.labels,
        weights=tuple(g.weights[i] for i in keep),
    )


def filtration_sequence(g: LabeledGraph, filtration: Filtration) -> list[LabeledGraph]:
    """The nested graphs G_1 ⊆ ... ⊆ G_k for g under the given thresholds."""
    return [filtration_graph(g, alpha) for alpha in filtration.thresholds]
