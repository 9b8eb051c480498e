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

    It holds nothing. `extract_all` still accepts one as `interner`, and a
    `threads` count, and ignores both: the result never depended on them.
    They stay only because the benchmark's `direct_layers`
    (`perfbench/worker.py`) passes both, `threads=2`, to time its
    `wl.extract_t2_s` metric, which `tests/test_perfbench_smoke.py` requires.
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
    The refined copies of all graphs form one disjoint union, laid out here
    and nowhere else: copy c is level cell[c] % k of graph cell[c] // k, in
    that (graph, level) order, and holds its graph's vertices and the edges
    of its level. `_classes` runs the WL rounds on the union's arcs as on one
    graph, numbering each round's classes densely in key order, so no Python
    work is done per label; round r's ids then follow the initial alphabet
    and the classes of rounds 1 .. r - 1. `graphs` is a dataset or a
    sequence of graphs; `interner` and `threads` are ignored (see
    `LabelInterner`).
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

    # copy c (level cell[c] % k of graph cell[c] // k) holds the union's
    # vertices copy_start[c] .. copy_start[c] + size[c] - 1
    cell = np.flatnonzero(refined)
    copy_graph = cell // k
    size = n[copy_graph]
    copy_start = np.cumsum(size) - size
    total = int(size.sum())
    labels = np.empty((h + 1, total), dtype=np.int64)
    labels[0] = labels0[np.repeat((np.cumsum(n) - n)[copy_graph] - copy_start, size)
                        + np.arange(total)]
    del labels0
    num_classes = [0] * h
    if h and total:
        # an edge is in the copy of its first level (refined by definition)
        # and in every later copy of its graph
        copy_id = np.cumsum(refined.ravel()).reshape(refined.shape) - 1
        start_copy = copy_id[edge_graph, first[live]]
        present = copy_id[edge_graph, -1] - start_copy + 1
        edge = np.repeat(np.flatnonzero(live), present)
        # copies start_copy, start_copy + 1, ... of each edge
        copy = np.repeat(start_copy - np.cumsum(present) + present, present) + np.arange(len(edge))
        # nothing below reads the per-edge level data
        del copy_id, start_copy, present, first, live, edge_graph
        offset = copy_start[copy]
        u = offset + ends[edge, 0]
        v = offset + ends[edge, 1]
        del edge, copy, offset
        arc = np.concatenate((u * total + v, v * total + u))
        del u, v
        num_classes = _classes(arc, labels)
        del arc
    else:
        del first, live, edge_graph
    labels[1:] += np.cumsum([len(alphabet), *num_classes[:-1]])[:, None]
    depth = np.repeat(np.arange(h + 1), [len(alphabet), *num_classes])
    # A vertex of copy c labelled f falls in (f * graphs) * k + cell[c].
    # Round by round, so that one round's sort is alive at a time; every id
    # of round r is above every id of round r - 1, so the rounds' sorted
    # cells, concatenated, ascend.
    place = np.repeat(cell, size)
    del cell, copy_graph, size, copy_start
    num_graphs = max(len(n), 1)
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


def _classes(arc: np.ndarray, labels: np.ndarray) -> list[int]:
    """Fill labels[1:] with each round's classes; return each round's class count.

    Plain WL on one graph: `labels[0]` holds the initial ids of its vertices
    and `arc` the key source * vertices + target of each arc, both directions
    of every edge. `arc` is sorted and then overwritten in place, so the
    caller need hold no other arc-length array while the rounds run. Round r
    numbers its classes 0, 1, ... in `labels[r]`, in the order of their keys
    (degree, previous label, sorted neighbour labels), which depends only on
    which keys occur, not on where.

    One round sorts the arcs by (source, neighbour label), so that each
    vertex's neighbour labels sit in order from its first arc. The vertices
    are ordered once by descending degree; those with a j-th neighbour then
    form a prefix of that order, and the j-th neighbour label of each sits j
    arcs after its first. Each vertex's signature is built one neighbour
    column at a time as the 1-D `np.unique` inverse of sig * width + label;
    each column's classes get fresh numbers, so vertices of different degree
    never share one. The classes are then exactly the distinct keys (label,
    sorted neighbour labels) of the round. Each column ranks its keys in
    sorted order, and a vertex that ends at column j sorts below every vertex
    that reaches column j + 1, so the final signatures ascend in key order.
    They are ints below the previous width plus the number of arcs, so the
    classes get dense ids from a present-mask and its cumsum, with no sort.
    """
    total = labels.shape[1]
    # sorted by (source, target); only the targets and the degrees are
    # kept, so that few arrays of arc length are alive at once
    arc.sort()
    degree = np.bincount(arc // total, minlength=total)
    dst = np.remainder(arc, total, out=arc)
    # the vertices by descending degree: by_degree[:reach[j]] are those of
    # degree > j, and start[i] is the first arc of by_degree[i]
    by_degree = np.argsort(-degree, kind="stable")
    start = (np.cumsum(degree) - degree)[by_degree]
    reach = np.cumsum(np.bincount(degree)[::-1])[::-1][1:].tolist()

    num_classes = []
    for r in range(1, len(labels)):
        cur = labels[r - 1]
        width = int(cur.max()) + 1
        # source * width + neighbour label per arc, sorted: each vertex's
        # neighbour labels in order from its first arc
        nbr = np.repeat(np.arange(total) * width, degree)
        nbr += cur[dst]
        nbr.sort()
        nbr %= width
        sig = cur.copy()
        next_sig = width
        for j, count in enumerate(reach):
            vs = by_degree[:count]
            values, inverse = np.unique(sig[vs] * width + nbr[start[:count] + j],
                                        return_inverse=True)
            sig[vs] = inverse + next_sig
            next_sig += len(values)
        del nbr
        # sig < next_sig, so a present-mask numbers the classes densely, in
        # ascending sig order as `np.unique` would
        present = np.zeros(next_sig, dtype=bool)
        present[sig] = True
        labels[r] = (np.cumsum(present) - 1)[sig]
        num_classes.append(np.count_nonzero(present))
    return num_classes
