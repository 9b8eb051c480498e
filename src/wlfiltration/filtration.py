"""Edge-weight functions, k-means threshold fitting, and filtration graphs."""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

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
    return dataset_weights((g,), spec)[0]


def dataset_weights(
    graphs: Sequence[LabeledGraph], spec: WeightFunctionSpec
) -> list[tuple[float, ...]]:
    """The edge weights of every graph under `spec`, aligned with each `g.edges`.

    'degree' is max(deg(u), deg(v)); 'walks' counts the walks of length
    1..walk_length from u to v, raising on a count above the 64-bit unsigned
    range; 'triangles' counts the triangles on the edge, |N(u) ∩ N(v)|.
    Degrees come from one bincount over the dataset, walk and triangle
    counts from `_batched_walk_totals`, all as Python ints.
    """
    if spec.kind == "native":
        return [g.weights for g in graphs]
    m = [g.edge_count for g in graphs]
    ends = np.fromiter(
        itertools.chain.from_iterable(itertools.chain.from_iterable(g.edges for g in graphs)),
        dtype=np.intp, count=2 * sum(m),
    ).reshape(-1, 2)
    n = np.array([g.n for g in graphs], dtype=np.intp)
    # endpoints as dataset-wide vertex ids
    glob = ends + np.repeat(np.cumsum(n) - n, m)[:, None]
    deg = np.bincount(glob.reshape(-1), minlength=int(n.sum()))
    if spec.kind == "degree":
        flat = deg[glob].max(axis=1).tolist()
    elif spec.kind == "triangles":
        # A[u,v] = 1 on an edge, so the two-step total is one more than the
        # number of common neighbours
        flat = [w - 1 for w in _batched_walk_totals(graphs, ends, m, n, deg, 2)]
    else:
        flat = _batched_walk_totals(graphs, ends, m, n, deg, spec.walk_length)
    out, at = [], 0
    for count in m:
        out.append(tuple(flat[at:at + count]))
        at += count
    return out


# Padded (graphs, N, N) blocks of the batched walk pass hold at most this
# many entries; a graph with n * n above it is counted by `_walk_totals`.
_WALK_BLOCK_ENTRIES = 1 << 15


def _batched_walk_totals(graphs, ends, m, n, deg, walk_length: int) -> list:
    """`_walk_totals` of every graph, flat in edge order, as Python ints.

    Graphs are sorted by n and padded into (graphs, N, N) adjacency blocks
    of at most _WALK_BLOCK_ENTRIES entries; sum_l A^l is formed by float64
    matmul. When walk_length * maxdeg**walk_length < 2**53 every entry and
    partial sum of it is an integer below 2**53 (the bound of
    `_count_dtype`), so float64 holds each exactly. Graphs above either
    bound go to `_walk_totals`, which raises on counts above 2**64 - 1.
    """
    m, n = np.asarray(m, dtype=np.intp), np.asarray(n, dtype=np.intp)
    maxdeg = np.zeros(len(graphs), dtype=np.intp)
    np.maximum.at(maxdeg, np.repeat(np.arange(len(graphs)), n), deg)
    exact = [walk_length * d**walk_length < 2**53 for d in maxdeg.tolist()]
    batched = (m > 0) & (n * n <= _WALK_BLOCK_ENTRIES) & np.array(exact, dtype=bool)

    first = np.cumsum(m) - m
    totals = np.zeros(len(ends), dtype=np.int64)
    members = np.flatnonzero(batched)
    members = members[np.argsort(n[members], kind="stable")]
    lo = 0
    while lo < len(members):
        # n grows along members, so the block's last graph sets its size
        hi = lo + 1
        while hi < len(members) and (hi + 1 - lo) * n[members[hi]] ** 2 <= _WALK_BLOCK_ENTRIES:
            hi += 1
        block = members[lo:hi]
        size, counts = int(n[block[-1]]), m[block]
        slot = np.repeat(np.arange(len(block)), counts)
        edge = np.repeat(first[block] - (np.cumsum(counts) - counts), counts) + np.arange(len(slot))
        u, v = ends[edge, 0], ends[edge, 1]
        adj = np.zeros((len(block), size, size))
        adj[slot, u, v] = adj[slot, v, u] = 1.0
        power, acc = adj, adj.copy()
        for _ in range(walk_length - 1):
            power = power @ adj
            acc += power
        totals[edge] = acc[slot, u, v]
        lo = hi

    flat = totals.tolist()
    for gid in np.flatnonzero(~batched & (m > 0)).tolist():
        flat[first[gid]:first[gid] + m[gid]] = _walk_totals(graphs[gid], walk_length)
    return flat


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
