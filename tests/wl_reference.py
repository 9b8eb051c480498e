"""Key-by-key WL refinement: the oracle that `wl.extract_all` must match.

`extract_all_reference` refines every filtration level of every graph, each
level a `LabeledGraph` built by Python comparisons (`filtration_graph`), and
numbers the labels from the set of keys alone: the sorted initial alphabet
first, then round by round the distinct keys (old label, sorted neighbour
labels) of all graphs and levels, in (degree, old label, neighbour labels)
order. `LabelInterner` and `wl_refine` intern one round vertex by vertex
instead, for tests of a single refinement step.
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


def wl_keys(g: LabeledGraph, labels: Sequence[int]) -> list[tuple[int, tuple[int, ...]]]:
    """The refinement key (old label, sorted neighbor labels) of every vertex."""
    if len(labels) != g.n:
        raise ValueError(f"expected {g.n} labels, got {len(labels)}")
    adj = g.adjacency
    return [(labels[v], tuple(sorted(labels[u] for u in adj[v]))) for v in range(g.n)]


def wl_refine(g: LabeledGraph, labels: Sequence[int], interner: LabelInterner) -> list[int]:
    """One refinement round: new label of v encodes (old label, sorted neighbor labels)."""
    return [interner.refined_id(*key) for key in wl_keys(g, labels)]


def extract_all_reference(
    graphs: Sequence[LabeledGraph],
    filtration: Filtration,
    h: int,
) -> tuple[list[FeatureTable], list[int]]:
    """Feature tables for a dataset, one per graph, and the depth of every feature id.

    Level i of a feature's histogram is the number of vertices carrying that
    label on the i-th filtration graph. Labels never observed do not appear.
    """
    k = len(filtration)
    alphabet = sorted({raw for g in graphs for raw in g.labels})
    initial = {raw: lid for lid, raw in enumerate(alphabet)}
    depth = [0] * len(alphabet)
    levels = [filtration_sequence(g, filtration) for g in graphs]
    # labels[g][i][v]: the current id of vertex v on level i of graph g
    labels = [[[initial[raw] for raw in g.labels] for _ in range(k)] for g in graphs]
    counts: list[dict[int, list[int]]] = [{} for _ in graphs]

    def tally() -> None:
        for table, per_level in zip(counts, labels):
            for i, level_labels in enumerate(per_level):
                for lid in level_labels:
                    table.setdefault(lid, [0] * k)[i] += 1

    tally()
    for r in range(1, h + 1):
        keys = [[wl_keys(level, lab) for level, lab in zip(per_graph, per_level)]
                for per_graph, per_level in zip(levels, labels)]
        distinct = sorted({key for per_graph in keys for per_level in per_graph
                           for key in per_level},
                          key=lambda key: (len(key[1]), key))
        ids = {key: len(depth) + rank for rank, key in enumerate(distinct)}
        depth += [r] * len(distinct)
        labels = [[[ids[key] for key in per_level] for per_level in per_graph]
                  for per_graph in keys]
        tally()

    tables = [FeatureTable({lid: FiltrationHistogram(tuple(c)) for lid, c in table.items()},
                           num_levels=k)
              for table in counts]
    return tables, depth
