"""Weisfeiler-Lehman refinement over filtration graphs and feature histograms."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .filtration import Filtration, filtration_graph
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
        # allocation-ordered records, used to merge per-worker interners
        self._records: list[tuple] = []

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
            self._records.append((raw_label,))
        return lid

    def refined_id(self, prev: int, neighborhood: tuple[int, ...]) -> int:
        key = (prev, neighborhood)
        lid = self._refined.get(key)
        if lid is None:
            lid = len(self.depth_of)
            self._refined[key] = lid
            self.depth_of[lid] = self.depth_of[prev] + 1
            self._records.append(key)
        return lid


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


def _merge_worker_result(
    global_interner: LabelInterner,
    local_interner: LabelInterner,
    table: FeatureTable,
) -> FeatureTable:
    """Re-intern one worker's local ids into the shared interner."""
    mapping: dict[int, int] = {}
    for lid, record in enumerate(local_interner._records):
        if len(record) == 1:
            mapping[lid] = global_interner.initial_id(record[0])
        else:
            prev, neigh = record
            mapping[lid] = global_interner.refined_id(
                mapping[prev], tuple(sorted(mapping[u] for u in neigh))
            )
    return FeatureTable(
        {mapping[lid]: hist for lid, hist in table.features.items()},
        num_levels=table.num_levels,
    )


def extract_all(
    graphs: Sequence[LabeledGraph],
    filtration: Filtration,
    h: int,
    interner: LabelInterner,
    threads: int = 1,
) -> list[FeatureTable]:
    """Feature tables for a whole dataset sharing one interner.

    With threads > 1 each worker refines against a private interner and the
    results are re-interned in dataset order, so ids (and every downstream
    float) are identical to the sequential run.
    """
    initial_alphabet = sorted({raw for g in graphs for raw in g.labels})
    interner.register_initial(initial_alphabet)
    if threads <= 1 or len(graphs) <= 1:
        return [extract_features(g, filtration, h, interner) for g in graphs]

    def worker(g: LabeledGraph) -> tuple[LabelInterner, FeatureTable]:
        local = LabelInterner()
        local.register_initial(initial_alphabet)
        return local, extract_features(g, filtration, h, local)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(worker, graphs))
    return [_merge_worker_result(interner, local, table) for local, table in results]


def dump_feature_table(table: FeatureTable, interner: LabelInterner) -> str:
    """Debug text form: one `feature_id depth counts...` line per feature."""
    lines = []
    for lid in sorted(table.features):
        hist = table.features[lid]
        counts = " ".join(str(c) for c in hist.counts)
        lines.append(f"{lid} {interner.depth_of[lid]} {counts}")
    return "\n".join(lines) + ("\n" if lines else "")
