"""Weisfeiler-Lehman refinement over filtration graphs and feature histograms."""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .filtration import Filtration
from .graphs import GraphDataset, LabeledGraph


@dataclass(frozen=True, eq=False)
class FeatureCounts:
    """Filtration histograms of a whole dataset, one row per (graph, feature).

    Row r says that graph `graph[r]` carries feature `feature[r]` with
    `counts[r, i]` vertices on filtration level i; every row has mass >= 1,
    and pairs that do not occur have no row. Rows are sorted by (feature,
    graph), so the graphs sharing a feature form one contiguous block: the
    sparse graph x feature matrix of a WL kernel, with a histogram per entry.
    `depth[f]` is the WL round that made feature f (0 for an initial label);
    there is one entry per feature id, so its length is the feature count,
    and it ascends with f.
    """

    graph: np.ndarray
    feature: np.ndarray
    counts: np.ndarray
    depth: np.ndarray
    num_graphs: int

    @property
    def num_levels(self) -> int:
        return self.counts.shape[1]


class LabelInterner:
    """Deprecated placeholder: `extract_all` numbers the labels itself.

    Callers written for version 0.7.0 pass one to `extract_all`, which
    ignores it; it holds nothing.
    """


def extract_all(
    graphs: GraphDataset | Sequence[LabeledGraph],
    filtration: Filtration,
    h: int,
    interner: LabelInterner | None = None,
    threads: int = 1,
) -> FeatureCounts:
    """Count every depth-0..h WL label on every filtration graph of every graph.

    Level i of a feature's histogram is the number of vertices carrying that
    label on the i-th filtration graph; labels never observed have no row.
    The feature ids depend only on which labels occur in the dataset, not on
    where: the sorted initial alphabet first, then round by round the
    distinct keys (old label, sorted neighbour labels) of that round across
    all graphs and levels, in (degree, old label, neighbour labels) order.
    So every id of round r is above every id of round r - 1, and reordering
    the graphs leaves every id as it is.

    The filtration graphs are nested, so a level that adds no edge to a graph
    has the labels of the level before it. Only level 0 and the levels where
    some edge of the graph first appears are refined; the counts of the
    others are copied from the last refined level below them. A repeated
    level has the keys of the level below it, so skipping it changes no id.
    The refined copies of all graphs are refined together as one disjoint
    union with array passes (see `_refine`), so no Python work is done per
    label. `graphs` is a dataset or a sequence of graphs; `interner` and
    `threads` are accepted for callers written for version 0.7.0 and
    ignored; the result never depended on them.
    """
    if not isinstance(h, numbers.Integral) or h < 0:
        raise ValueError(f"h must be >= 0 and an integer, got {h!r}")
    if not isinstance(graphs, GraphDataset):
        graphs = GraphDataset(graphs, [0] * len(graphs))
    k = len(filtration)
    n, m, ends = graphs.sizes, graphs.edge_counts, graphs.ends
    alphabet, labels0 = np.unique(graphs.labels, return_inverse=True)
    first = filtration.first_levels(graphs.weights)  # k: on no level
    live = first < k  # the edges on some level
    edge_graph = np.repeat(np.arange(len(n)), m)[live]
    # refined[g, i]: level i of graph g differs from level i - 1 (level 0
    # always counts)
    refined = np.zeros((len(n), k), dtype=bool)
    refined[:, 0] = True
    refined[edge_graph, first[live]] = True

    labels, depth, copy = _refine(n, labels0, ends, first, refined, edge_graph, live, h,
                                  len(alphabet))
    # A vertex of copy (g, i) labelled f falls in cell (f * graphs + g) * k + i.
    # Round by round, so that one round's sort is alive at a time; every id
    # of round r is above every id of round r - 1, so the rounds' sorted
    # cells, concatenated, ascend.
    num_graphs = max(len(n), 1)
    place = np.flatnonzero(refined)[copy]
    del first, live, edge_graph, copy
    cells, tallies = [], []
    for round_labels in labels:
        cell, tally = np.unique(round_labels * (num_graphs * k) + place, return_counts=True)
        cells.append(cell)
        tallies.append(tally)
    del labels, place
    cell, tally = np.concatenate(cells), np.concatenate(tallies)
    del cells, tallies
    key = cell // k  # one row per (feature, graph)
    new = np.ones(len(key), dtype=bool)
    new[1:] = key[1:] != key[:-1]
    row = np.cumsum(new) - 1
    key = key[new]
    counts = np.zeros((len(key), k), dtype=np.int64)
    counts[row, cell % k] = tally
    graph = key % num_graphs
    # a level that adds no edge to a graph repeats the level below it
    repeated = ~refined[graph]
    for i in range(1, k):
        np.copyto(counts[:, i], counts[:, i - 1], where=repeated[:, i])
    return FeatureCounts(graph, key // num_graphs, counts, depth, num_graphs=len(n))


def _refine(
    n: np.ndarray,
    labels0: np.ndarray,
    ends: np.ndarray,
    first: np.ndarray,
    refined: np.ndarray,
    edge_graph: np.ndarray,
    live: np.ndarray,
    h: int,
    alphabet: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """WL labels of the refined level copies of all graphs; (labels, depth, copy).

    `n` holds the graphs' vertex counts, `labels0` their initial ids (below
    `alphabet`), `ends` their edges (graph-local endpoints) and `first` each
    edge's first level (k: on no level). `refined` is a (graphs, k) mask of
    the level copies to refine, level 0 of every graph among them. `live`
    marks the edges on some level and `edge_graph` gives their graphs. The
    copies are numbered in (graph, level) order and form one disjoint union;
    each holds its graph's vertices and the edges of its level. This is the
    only place that lays the union out: `labels[r]` holds the round-r id of
    every vertex of the union, `depth[f]` the round of id f and `copy[x]` the
    copy of vertex x.

    `_classes` runs the rounds on the union's arcs and numbers each round's
    classes densely in key order; round r's ids follow the initial alphabet
    and the classes of rounds 1 .. r - 1.
    """
    copy_graph = np.nonzero(refined)[0]
    size = n[copy_graph]
    copy_start = np.cumsum(size) - size
    total = int(size.sum())
    copy_of = np.repeat(np.arange(len(size)), size)
    local = np.arange(total) - copy_start[copy_of]
    labels = np.empty((h + 1, total), dtype=np.int64)
    labels[0] = labels0[(np.cumsum(n) - n)[copy_graph[copy_of]] + local]
    if not h or not total:
        return labels, np.zeros(alphabet, dtype=np.int64), copy_of
    # an edge is in the copy of its first level (refined by definition)
    # and in every later copy of its graph
    copy_id = np.cumsum(refined.ravel()).reshape(refined.shape) - 1
    start_copy = copy_id[edge_graph, first[live]]
    present = copy_id[edge_graph, -1] - start_copy + 1
    edge = np.repeat(np.flatnonzero(live), present)
    # copies start_copy, start_copy + 1, ... of each edge
    copy = np.repeat(start_copy - np.cumsum(present) + present, present) + np.arange(len(edge))
    del copy_id, start_copy, present
    offset = copy_start[copy]
    u = offset + ends[edge, 0]
    v = offset + ends[edge, 1]
    del edge, copy, offset
    arc = np.concatenate((u * total + v, v * total + u))
    del u, v
    num_classes = _classes(arc, labels)
    del arc
    labels[1:] += np.cumsum([alphabet, *num_classes[:-1]])[:, None]
    return labels, np.repeat(np.arange(h + 1), [alphabet, *num_classes]), copy_of


def _classes(arc: np.ndarray, labels: np.ndarray) -> list[int]:
    """Fill labels[1:] with each round's classes; return each round's class count.

    Plain WL on one graph: `labels[0]` holds the initial ids of its vertices
    and `arc` the key source * vertices + target of each arc, both directions
    of every edge. `arc` is sorted and then overwritten in place, so the
    caller need hold no other arc-length array while the rounds run. Round r
    numbers its classes 0, 1, ... in `labels[r]`, in the order of their keys
    (degree, previous label, sorted neighbour labels), which depends only on
    which keys occur, not on where.

    One round sorts the arcs by (source, neighbour label) and builds each
    vertex's signature one neighbour column at a time as the 1-D `np.unique`
    inverse of sig * width + label; each column's classes get fresh numbers,
    so vertices of different degree never share one. The classes are then
    exactly the distinct keys (label, sorted neighbour labels) of the round.
    Each column ranks its keys in sorted order, and a vertex that ends at
    column j sorts below every vertex that reaches column j + 1, so the final
    signatures ascend in key order. They are ints below the previous width
    plus the number of arcs, so the classes get dense ids from a
    present-mask and its cumsum, with no sort.
    """
    total = labels.shape[1]
    # sorted by (source, target); only the targets and the degrees are
    # kept, so that few arrays of arc length are alive at once
    arc.sort()
    degree = np.bincount(arc // total, minlength=total)
    dst = np.remainder(arc, total, out=arc)
    # column j holds each vertex's j-th arc, ordered by vertex
    rank = np.arange(len(dst))
    rank -= np.repeat(np.cumsum(degree) - degree, degree)
    column = np.argsort(rank, kind="stable")
    column_end = np.cumsum(np.bincount(rank)).tolist()
    del rank

    num_classes = []
    for r in range(1, len(labels)):
        cur = labels[r - 1]
        width = int(cur.max()) + 1
        # source * width + neighbour label per arc, sorted: each vertex's
        # neighbour labels in order; then laid out by column and split
        by_column = np.repeat(np.arange(total) * width, degree)
        by_column += cur[dst]
        by_column.sort()
        by_column = by_column[column]
        column_vertex = by_column // width
        by_column %= width
        sig = cur.copy()
        next_sig = width
        col_lo = 0
        for col_hi in column_end:
            vs = column_vertex[col_lo:col_hi]
            values, inverse = np.unique(sig[vs] * width + by_column[col_lo:col_hi],
                                        return_inverse=True)
            sig[vs] = inverse + next_sig
            next_sig += len(values)
            col_lo = col_hi
        del by_column, column_vertex
        # sig < next_sig, so a present-mask numbers the classes densely, in
        # ascending sig order as `np.unique` would
        present = np.zeros(next_sig, dtype=bool)
        present[sig] = True
        labels[r] = (np.cumsum(present) - 1)[sig]
        num_classes.append(np.count_nonzero(present))
    return num_classes
