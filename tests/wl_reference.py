"""Vertex-by-vertex WL refinement: the oracle that `wl.extract_all` must match.

One refinement round interns (old label, sorted neighbour labels) per
vertex, on a `LabeledGraph` built for each filtration level. Interning runs
graph by graph, level by level, round by round and vertex by vertex, which
fixes the ids `extract_all` must reproduce, and `LabelInterner` records the
depth of each id. `filtration_graph` builds one level by Python comparisons.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from wlfiltration import Filtration, LabeledGraph

from kernel_reference import FeatureTable, FiltrationHistogram


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


def wl_refine(g: LabeledGraph, labels: Sequence[int], interner: LabelInterner) -> list[int]:
    """One refinement round: new label of v encodes (old label, sorted neighbor labels)."""
    if len(labels) != g.n:
        raise ValueError(f"expected {g.n} labels, got {len(labels)}")
    adj = g.adjacency
    return [
        interner.refined_id(labels[v], tuple(sorted(labels[u] for u in adj[v])))
        for v in range(g.n)
    ]


def extract_features(
    g: LabeledGraph,
    filtration: Filtration,
    h: int,
    interner: LabelInterner,
) -> FeatureTable:
    """Count every depth-0..h label on every filtration graph of g.

    Level i of a feature's histogram is the number of vertices carrying that
    label on the i-th filtration graph. Labels never observed do not appear.
    """
    if h < 0:
        raise ValueError("h must be >= 0")
    k = len(filtration)
    counts: dict[int, list[int]] = {}

    def bump(lid: int, level: int) -> None:
        hist = counts.get(lid)
        if hist is None:
            hist = [0] * k
            counts[lid] = hist
        hist[level] += 1

    initial = [interner.initial_id(raw) for raw in g.labels]
    for level, alpha in enumerate(filtration.thresholds):
        g_level = filtration_graph(g, alpha)
        labels = initial
        for lid in labels:
            bump(lid, level)
        for _ in range(h):
            labels = wl_refine(g_level, labels, interner)
            for lid in labels:
                bump(lid, level)

    return FeatureTable(
        {lid: FiltrationHistogram(tuple(c)) for lid, c in counts.items()},
        num_levels=k,
    )


def extract_all_reference(
    graphs: Sequence[LabeledGraph],
    filtration: Filtration,
    h: int,
    interner: LabelInterner,
) -> list[FeatureTable]:
    """Feature tables for a dataset: the sorted initial alphabet first, then graph by graph."""
    interner.register_initial(raw for g in graphs for raw in g.labels)
    return [extract_features(g, filtration, h, interner) for g in graphs]
