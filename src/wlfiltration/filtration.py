"""Edge-weight functions and k-means threshold fitting."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graphs import GraphDataset, LabeledGraph, _exact_array

WEIGHT_KINDS = ("native", "degree", "walks", "triangles")

_UINT64_MAX = 2**64 - 1

# `fit_thresholds` fills its DP a block of cluster starts at a time: about
# this many (start, end) entries, but never fewer than this many starts, so
# that the per-block numpy overhead stays small at 10**4 distinct weights.
# Blocks of 8 starts ran faster there than blocks of 16 (2 vCPUs).
_FIT_BLOCK_ENTRIES = 1 << 14
_FIT_BLOCK_MIN_ROWS = 8
# the largest float64 whose square is finite
_FIT_MAX_TOTAL = math.sqrt(np.finfo(np.float64).max)


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

    def first_levels(self, weights: np.ndarray) -> np.ndarray:
        """Each edge weight's first level (len(self): on no level); an edge is on
        level i iff weight >= thresholds[i]. The comparisons are exact: in the
        weights' dtype if the thresholds share it, else as Python objects."""
        ascending = _exact_array(list(self.thresholds[::-1]))
        if ascending.dtype != weights.dtype:
            ascending, weights = ascending.astype(object), weights.astype(object)
        return len(self) - np.searchsorted(ascending, weights, side="right")


# Row chunk of the walk propagation: the rows x (n + 2m) temporaries stay
# near this many entries however large the graph.
_WALK_CHUNK_ENTRIES = 1 << 18


def _count_dtype(walk_length: int, maxdeg: int) -> type:
    """int64 when walk_length * maxdeg**walk_length < 2**63, else exact ints.

    Every entry of A^l is at most maxdeg**l, so the bound covers every entry
    and partial sum of the walk totals.
    """
    return np.int64 if walk_length * maxdeg**walk_length < 2**63 else object


def _walk_totals(n: int, ends: np.ndarray, walk_length: int) -> np.ndarray:
    """sum_{l=1..walk_length} (A^l)[u, v] at every edge (u, v) of one graph on n vertices.

    Rows of A^l are propagated over the neighbour lists of the sorted `ends`,
    a chunk of source vertices at a time: O(walk_length * n * m) work and no
    n x n matrix. Counts are int64 when that cannot overflow and exact Python
    ints otherwise (see `_count_dtype`), returned as uint64 from 2**63 on.
    """
    if walk_length < 1:
        raise ValueError("walk_length must be >= 1")
    if not len(ends):
        return np.zeros(0, dtype=np.int64)
    u, v = ends[:, 0], ends[:, 1]
    src = np.concatenate((u, v))
    nbr = np.concatenate((v, u))[np.argsort(src, kind="stable")]
    deg = np.bincount(src, minlength=n)
    # reduceat mishandles empty segments, so only vertices with neighbours
    # are summed; the others stay zero.
    held = np.flatnonzero(deg)
    held_starts = (np.cumsum(deg) - deg)[held]
    dtype = _count_dtype(walk_length, int(deg.max()))

    totals = np.empty(len(u), dtype=dtype)
    step = max(1, _WALK_CHUNK_ENTRIES // (n + len(nbr)))
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        rows = np.zeros((hi - lo, n), dtype=dtype)
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
        # the edges are sorted, so the edges leaving rows lo..hi-1 are a slice
        a, b = np.searchsorted(u, (lo, hi))
        totals[a:b] = acc[u[a:b] - lo, v[a:b]]
    return _exact_array(totals.tolist()) if dtype is object else totals


def dataset_weights(dataset: GraphDataset, spec: WeightFunctionSpec) -> np.ndarray:
    """The edge weights of every graph under `spec`, aligned with `dataset.ends`.

    'native' is `dataset.weights`; 'degree' is max(deg(u), deg(v)); 'walks'
    counts the walks of length 1..walk_length from u to v, raising on a
    count above the 64-bit unsigned range; 'triangles' counts the triangles
    on the edge, |N(u) ∩ N(v)|. Degrees come from one bincount over the
    dataset, walk and triangle counts from `_batched_walk_totals`, as int64
    (uint64 for walk counts from 2**63 on).
    """
    if spec.kind == "native":
        return dataset.weights
    n, m, ends = dataset.sizes, dataset.edge_counts, dataset.ends
    # endpoints as dataset-wide vertex ids
    glob = ends + np.repeat(np.cumsum(n) - n, m)[:, None]
    deg = np.bincount(glob.reshape(-1), minlength=int(n.sum()))
    if spec.kind == "degree":
        return deg[glob].max(axis=1)
    if spec.kind == "triangles":
        # A[u,v] = 1 on an edge, so the two-step total is one more than the
        # number of common neighbours
        return _batched_walk_totals(ends, m, n, deg, 2) - 1
    return _batched_walk_totals(ends, m, n, deg, spec.walk_length)


# Padded (graphs, N, N) blocks of the batched walk pass hold at most this
# many entries; a graph with n * n above it is counted by `_walk_totals`.
_WALK_BLOCK_ENTRIES = 1 << 15


def _batched_walk_totals(ends, m, n, deg, walk_length: int) -> np.ndarray:
    """`_walk_totals` of every graph, flat in edge order.

    Graphs are sorted by n and padded into (graphs, N, N) adjacency blocks
    of at most _WALK_BLOCK_ENTRIES entries; sum_l A^l is formed by float64
    matmul. When walk_length * maxdeg**walk_length < 2**53 every entry and
    partial sum of it is an integer below 2**53 (the bound of
    `_count_dtype`), so float64 holds each exactly. Graphs above either
    bound go to `_walk_totals`, which raises on counts above 2**64 - 1.
    """
    maxdeg = np.zeros(len(n), dtype=np.intp)
    np.maximum.at(maxdeg, np.repeat(np.arange(len(n)), n), deg)
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

    for gid in np.flatnonzero(~batched & (m > 0)).tolist():
        alone = _walk_totals(int(n[gid]), ends[first[gid]:first[gid] + m[gid]], walk_length)
        if alone.dtype == np.uint64:
            totals = totals.astype(np.uint64)
        totals[first[gid]:first[gid] + m[gid]] = alone
    return totals


def reweight(data: LabeledGraph | GraphDataset, spec: WeightFunctionSpec):
    """Copy of a graph or a dataset carrying the weights computed by `spec`.

    A graph is reweighted as a one-graph dataset, by the same pass.
    """
    if spec.kind == "native":
        return data
    if isinstance(data, LabeledGraph):
        return reweight(GraphDataset((data,), (0,)), spec).graphs[0]
    return data._with_weights(dataset_weights(data, spec))


def fit_thresholds(dataset_weights: Iterable[float], k: int) -> Filtration:
    """Thresholds from exact 1-D k-means over the distinct weight values.

    The optimal partition of the sorted distinct values into k contiguous
    clusters (minimal total within-cluster SSE) is found by dynamic
    programming; ties prefer smaller leading clusters. Threshold i is the
    minimum element of the i-th cluster, ordered decreasingly. When fewer
    than k distinct values exist, the filtration shrinks to that count.

    For d distinct values this takes O(k*d**2) float64 work in numpy: the
    DP is filled a block of consecutive cluster starts at a time, all layers
    per block, with the costs of every (start, end) pair of the block as one
    array expression in the same arithmetic as a scalar loop would use.
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
    # every cluster sum is at most the absolute total, so no square overflows
    total = np.abs(x).sum()
    if not total <= _FIT_MAX_TOTAL:
        raise ValueError(
            f"edge weights too large for the threshold fit: their absolute sum {total:.6g} "
            f"exceeds {_FIT_MAX_TOTAL:.6g}, above which squared sums overflow float64"
        )
    prefix = np.cumsum(np.concatenate(([0.0], x)))
    prefix_sq = np.cumsum(np.concatenate(([0.0], x * x)))
    sizes = np.arange(1, d + 1, dtype=np.float64)

    # suffix[t, i] = minimal SSE partitioning values[i..d-1] into t clusters
    # (inf for more clusters than values), and end[t, i] the end of the first
    # of those clusters; argmin takes the first minimal end, so ties prefer
    # the shorter cluster. The clusters before start i number k - t >= 1
    # unless t == k and i == 0, so layer k is only needed at 0.
    suffix = np.full((k + 1, d + 1), np.inf)
    suffix[0, d] = 0.0
    end = np.zeros((k + 1, d), dtype=np.intp)
    # three scratch blocks, reused so that no block allocates memory anew
    buffers = np.empty((3, min(max(_FIT_BLOCK_ENTRIES, _FIT_BLOCK_MIN_ROWS * d), d * d)))
    hi = d
    while hi > 0:
        # rows * (d - hi + rows) entries: the block's starts times its ends
        wide = d - hi
        rows = (math.isqrt(wide * wide + 4 * _FIT_BLOCK_ENTRIES) - wide) // 2
        rows = max(_FIT_BLOCK_MIN_ROWS, rows)
        lo = max(0, hi - rows)
        shape = (hi - lo, d - lo)
        s, sq, size = (buf[:shape[0] * shape[1]].reshape(shape) for buf in buffers)
        # SSE of cluster values[i..j] for start i = lo + row and end
        # j = lo + column, with size j + 1 - i exact in float64
        np.subtract(prefix[lo + 1:], prefix[lo:hi, None], out=s)
        np.subtract(prefix_sq[lo + 1:], prefix_sq[lo:hi, None], out=sq)
        np.subtract(sizes[lo:], np.arange(lo, hi, dtype=np.float64)[:, None], out=size)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(np.multiply(s, s, out=s), size, out=s)
        sse = np.subtract(sq, s, out=sq)
        sse[:, :shape[0]][np.tri(shape[0], k=-1, dtype=bool)] = np.inf  # ends before starts
        # layer t reads layer t - 1 at larger starts only: this block's rows
        # above each start, and the blocks already filled
        row = np.arange(hi - lo)
        for t in range(1, min(k if lo == 0 else k - 1, d - lo) + 1):
            cost = np.add(sse, suffix[t - 1, lo + 1:], out=s)
            suffix[t, lo:hi] = cost[row, cost.argmin(axis=1, out=end[t, lo:hi])]
        end[:, lo:hi] += lo  # columns to ends
        hi = lo

    minima = []
    i = 0
    for t in range(k, 0, -1):
        minima.append(values[i])
        i = end[t, i] + 1
    return Filtration(tuple(reversed(minima)))


def fit_thresholds_auto(dataset_weights: Iterable[float]) -> Filtration:
    """One threshold per distinct weight value, in decreasing order."""
    values = sorted(set(dataset_weights), reverse=True)
    if not values:
        raise ValueError("empty edge-weight multiset")
    return Filtration(tuple(values))
