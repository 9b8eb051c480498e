"""Weisfeiler-Lehman refinement over filtration graphs and feature histograms."""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .filtration import Filtration
from .graphs import LabeledGraph


class LabelInterner:
    """Injective map from label-refinement keys to dense integer ids.

    Initial (depth-0) labels and refined labels share one id space; each id
    remembers the refinement depth it was created at. Interning order fixes
    the ids, so runs that insert in the same order agree bit-for-bit.
    """

    def __init__(self):
        self._initial: dict[int, int] = {}
        self._refined: dict[tuple[int, tuple[int, ...]], int] = {}
        self.depth_of: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.depth_of)

    def register_initial(self, raw_labels: Iterable[int]) -> None:
        """Pre-intern an initial alphabet so its ids occupy the first block."""
        for raw in sorted(set(raw_labels)):
            self.initial_id(raw)

    def initial_id(self, raw_label: int) -> int:
        lid = self._initial.get(raw_label)
        if lid is None:
            lid = len(self.depth_of)
            self._initial[raw_label] = lid
            self.depth_of[lid] = 0
        return lid

    def refined_id(self, prev: int, neighborhood: tuple[int, ...]) -> int:
        key = (prev, neighborhood)
        lid = self._refined.get(key)
        if lid is None:
            lid = len(self.depth_of)
            self._refined[key] = lid
            self.depth_of[lid] = self.depth_of[prev] + 1
        return lid


@dataclass(frozen=True, eq=False)
class FeatureCounts:
    """Filtration histograms of a whole dataset, one row per (graph, feature).

    Row r says that graph `graph[r]` carries feature `feature[r]` with
    `counts[r, i]` vertices on filtration level i; every row has mass >= 1,
    and pairs that do not occur have no row. Rows are sorted by (feature,
    graph), so the graphs sharing a feature form one contiguous block: the
    sparse graph x feature matrix of a WL kernel, with a histogram per entry.
    """

    graph: np.ndarray
    feature: np.ndarray
    counts: np.ndarray
    num_graphs: int

    @property
    def num_levels(self) -> int:
        return self.counts.shape[1]


# Size of one batch of consecutive graphs, counted as 2*m + n arc and vertex
# entries per refined level copy: the union's index arrays stay this small
# however large the dataset. A graph larger than this is a batch alone.
_BATCH_ENTRIES = 1 << 13


def extract_all(
    graphs: Sequence[LabeledGraph],
    filtration: Filtration,
    h: int,
    interner: LabelInterner,
    threads: int = 1,
) -> FeatureCounts:
    """Count every depth-0..h WL label on every filtration graph of every graph.

    Level i of a feature's histogram is the number of vertices carrying that
    label on the i-th filtration graph; labels never observed have no row.
    `interner` must be empty. Its ids are those of interning each graph in
    dataset order, level by level, round by round and vertex by vertex: the
    sorted initial alphabet first, then each refined label at its first
    occurrence in that order.

    The filtration graphs are nested, so a level that adds no edge to a graph
    has the labels of the level before it. Only level 0 and the levels where
    some edge of the graph first appears are refined; the counts of the
    others are copied from the last refined level below them. A repeated
    level interns nothing new, so skipping it leaves the ids as they are.
    The refined copies of a batch of consecutive graphs are refined together
    as one disjoint union with array passes (see `_refine_batch`), so the
    Python work is per distinct label per batch. `threads` is accepted for
    compatibility and ignored; the result never depended on it.
    """
    if h < 0:
        raise ValueError("h must be >= 0")
    if len(interner):
        raise ValueError(
            f"extract_all needs an empty LabelInterner, got one holding {len(interner)} labels"
        )
    interner.register_initial(raw for g in graphs for raw in g.labels)
    # the interner's int object of each id, so that its keys share one object
    # per id instead of holding a copy per occurrence
    id_objects = list(interner.depth_of)
    k = len(filtration)
    ascending = filtration.thresholds[::-1]
    initial = interner._initial
    n = np.array([g.n for g in graphs], dtype=np.int64)
    m = np.array([len(g.edges) for g in graphs], dtype=np.int64)
    vertex_end = np.cumsum(n)
    edge_end = np.cumsum(m)
    labels0 = np.fromiter((initial[raw] for g in graphs for raw in g.labels),
                          dtype=np.int64, count=int(n.sum()))
    ends = np.fromiter(itertools.chain.from_iterable(e for g in graphs for e in g.edges),
                       dtype=np.int64, count=2 * int(m.sum())).reshape(-1, 2)
    # An edge is on level i iff weight >= thresholds[i], i.e. from the level
    # after the last threshold above it; Python comparisons keep this exact
    # for integers above 2**53. An edge below the last threshold gets k and
    # is on no level.
    first = np.fromiter((k - bisect.bisect_right(ascending, w) for g in graphs for w in g.weights),
                        dtype=np.int64, count=int(m.sum()))
    # refined[g, i]: level i of graph g differs from level i - 1 (level 0
    # always counts); source[g, i]: the last refined level at or below i
    refined = np.zeros((len(graphs), k), dtype=bool)
    refined[:, 0] = True
    on_levels = first < k
    refined[np.repeat(np.arange(len(graphs)), m)[on_levels], first[on_levels]] = True
    source = np.maximum.accumulate(np.where(refined, np.arange(k), 0), axis=1)

    empty = np.empty(0, dtype=np.int64)
    parts = [(empty, empty, np.empty((0, k), dtype=np.int64))]
    cost = (2 * m + n) * refined.sum(axis=1)
    lo = 0
    while lo < len(graphs):
        hi, total = lo + 1, cost[lo]
        while hi < len(graphs) and total + cost[hi] <= _BATCH_ENTRIES:
            total += cost[hi]
            hi += 1
        v0, v1 = vertex_end[lo] - n[lo], vertex_end[hi - 1]
        e0, e1 = edge_end[lo] - m[lo], edge_end[hi - 1]
        graph, fid, counts = _refine_batch(n[lo:hi], m[lo:hi], labels0[v0:v1], ends[e0:e1],
                                           first[e0:e1], refined[lo:hi], h, interner,
                                           id_objects)
        counts = np.take_along_axis(counts, source[lo:hi][graph], axis=1)
        parts.append((graph + lo, fid, counts))
        lo = hi
    graph, feature, counts = map(np.concatenate, zip(*parts))
    del parts  # the batches go before the sorted copies are made
    order = np.lexsort((graph, feature))
    return FeatureCounts(graph[order], feature[order], counts[order], num_graphs=len(graphs))


def _refine_batch(
    n: np.ndarray,
    m: np.ndarray,
    labels0: np.ndarray,
    ends: np.ndarray,
    first: np.ndarray,
    refined: np.ndarray,
    h: int,
    interner: LabelInterner,
    id_objects: list[int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """WL labels of the refined level copies of a few graphs; (graph, feature, counts) rows.

    `n`/`m` are the graphs' vertex and edge counts, `labels0` their initial
    ids, `ends` their edges (graph-local endpoints) and `first` each edge's
    first level (k: on no level). `refined` is a (graphs, k) mask of the
    level copies to refine, level 0 of every graph among them. The copies are
    numbered in (graph, level) order; each holds its graph's vertices and the
    edges of its level. Counts land in the column of the copy's level and
    the other columns stay 0. The ids this interns are appended to
    `id_objects`.

    One round sorts the arcs by (source, neighbour label) and builds each
    vertex's signature one neighbour column at a time as the 1-D `np.unique`
    inverse of sig * width + label; each column's classes get fresh numbers,
    so vertices of different degree never share one. One representative per
    class is then looked up by its exact key (label, sorted neighbour
    labels). A key the interner lacks gets a temporary id >= `base`; at the
    end, temporary ids become interner ids in order of first occurrence by
    (graph, level, round, vertex), the order a vertex-by-vertex pass would
    intern them in.
    """
    k = refined.shape[1]
    copy_graph, copy_level = np.nonzero(refined)
    size = n[copy_graph]
    copy_start = np.cumsum(size) - size
    total = int(size.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty((0, k), dtype=np.int64)
    copy_of = np.repeat(np.arange(len(size)), size)
    local = np.arange(total) - copy_start[copy_of]
    labels = np.empty((h + 1, total), dtype=np.int64)
    labels[0] = labels0[(np.cumsum(n) - n)[copy_graph[copy_of]] + local]

    if h:
        # an edge is in the copy of its first level (refined by definition)
        # and in every later copy of its graph
        live = first < k
        edge_graph = np.repeat(np.arange(len(n)), m)[live]
        copy_id = np.cumsum(refined.ravel()).reshape(refined.shape) - 1
        start_copy = copy_id[edge_graph, first[live]]
        present = copy_id[edge_graph, -1] - start_copy + 1
        edge = np.repeat(np.flatnonzero(live), present)
        run_start = np.repeat(np.cumsum(present) - present, present)
        offset = copy_start[np.repeat(start_copy, present) + np.arange(len(edge)) - run_start]
        u = offset + ends[edge, 0]
        v = offset + ends[edge, 1]
        src = np.concatenate((u, v))
        dst = np.concatenate((v, u))
        degree = np.bincount(src, minlength=total)
        start = np.cumsum(degree) - degree
        # the sorted arcs' sources never change; column j holds each vertex's
        # j-th arc, ordered by vertex
        rank = np.arange(len(src)) - np.repeat(start, degree)
        column = np.argsort(rank, kind="stable")
        column_vertex = np.repeat(np.arange(total), degree)[column]
        column_end = np.cumsum(np.bincount(rank)).tolist()

    base = len(interner)
    known = interner._refined
    fresh: dict[tuple[int, tuple[int, ...]], int] = {}
    for r in range(1, h + 1):
        cur = labels[r - 1]
        neighbour = cur[dst]
        neighbour = neighbour[np.lexsort((neighbour, src))]
        width = int(cur.max()) + 1
        sig = cur.copy()
        next_sig = width
        by_column = neighbour[column]
        col_lo = 0
        for col_hi in column_end:
            vs = column_vertex[col_lo:col_hi]
            values, inverse = np.unique(sig[vs] * width + by_column[col_lo:col_hi],
                                        return_inverse=True)
            sig[vs] = inverse + next_sig
            next_sig += len(values)
            col_lo = col_hi
        _, rep, cls = np.unique(sig, return_index=True, return_inverse=True)
        neighbours = neighbour.tolist()
        ids = []
        for p, s, d in zip(cur[rep].tolist(), start[rep].tolist(), degree[rep].tolist()):
            key = (p, tuple(neighbours[s:s + d]))
            lid = known.get(key)
            if lid is None:
                lid = fresh.setdefault(key, base + len(fresh))
            ids.append(lid)
        labels[r] = np.array(ids, dtype=np.int64)[cls]

    if fresh:
        # every refined label at its (graph, level, round, vertex) position
        sequence = np.empty(h * total, dtype=np.int64)
        at = copy_start[copy_of] * h + local
        step = size[copy_of]
        for r in range(1, h + 1):
            sequence[at + (r - 1) * step] = labels[r]
        values, first_at = np.unique(sequence, return_index=True)
        new = values >= base
        final = [0] * len(fresh)
        keys = list(fresh)
        for t in (values[new][np.argsort(first_at[new])] - base).tolist():
            prev, neigh = keys[t]
            prev = id_objects[prev] if prev < base else final[prev - base]
            neigh = [id_objects[x] if x < base else final[x - base] for x in neigh]
            # temporary ids sort last, so a key without one stays sorted
            if neigh and neigh[-1] >= base:
                neigh.sort()
            final[t] = interner.refined_id(prev, tuple(neigh))
            id_objects.append(final[t])
        deeper = labels[1:]
        temporary = deeper >= base
        deeper[temporary] = np.array(final, dtype=np.int64)[deeper[temporary] - base]

    width = len(interner)
    pair = (copy_graph[copy_of] * width + labels).ravel()
    pairs, inverse = np.unique(pair, return_inverse=True)
    counts = np.bincount(inverse * k + np.tile(copy_level[copy_of], h + 1),
                         minlength=len(pairs) * k)
    return pairs // width, pairs % width, counts.reshape(-1, k)

