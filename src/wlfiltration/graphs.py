"""Immutable labeled graphs, TUDataset text-format I/O, and permutation utilities."""

from __future__ import annotations

import contextlib
import math
import os
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence


class DatasetFormatError(ValueError):
    """Raised when a dataset directory or file does not parse."""


@dataclass(frozen=True)
class LabeledGraph:
    """Simple undirected graph with discrete vertex labels and nonnegative edge weights.

    Edges are stored canonically as (u, v) pairs with u < v, sorted
    lexicographically. `weights[i]` belongs to `edges[i]`; unweighted graphs
    carry weight 0 on every edge. Instances are immutable and safe to share.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[int, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(self.labels) != self.n:
            raise ValueError(f"expected {self.n} vertex labels, got {len(self.labels)}")
        if len(self.weights) != len(self.edges):
            raise ValueError(
                f"expected {len(self.edges)} edge weights, got {len(self.weights)}"
            )
        prev = None
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop on vertex {u}")
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range or not canonical")
            if prev is not None and (u, v) <= prev:
                raise ValueError(f"edges not strictly sorted at ({u}, {v})")
            prev = (u, v)
        for w in self.weights:
            if not 0 <= w < math.inf:
                raise ValueError(f"edge weight {w} is negative or not finite")

    @classmethod
    def build(
        cls,
        n: int,
        edges: Sequence[tuple[int, int]],
        labels: Sequence[int] | None = None,
        weights: Sequence[float] | None = None,
    ) -> "LabeledGraph":
        """Construct from an arbitrary-order edge list, canonicalizing endpoints.

        Rejects self-loops and parallel edges. Missing labels default to 0,
        missing weights to 0.
        """
        canon = {}
        for idx, (u, v) in enumerate(edges):
            if u == v:
                raise ValueError(f"self-loop on vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in canon:
                raise ValueError(f"parallel edge ({u}, {v})")
            canon[key] = weights[idx] if weights is not None else 0
        order = sorted(canon)
        return cls(
            n=n,
            edges=tuple(order),
            labels=tuple(labels) if labels is not None else (0,) * n,
            weights=tuple(canon[e] for e in order),
        )

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex sorted neighbor tuples."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(ns)) for ns in adj)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for graph on {self.n} vertices")
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for graph on {self.n} vertices")
        return self.adjacency[v]

    def with_weights(self, weights: Sequence[float]) -> "LabeledGraph":
        """Same structure and labels, new per-edge weights (aligned with `edges`)."""
        return LabeledGraph(self.n, self.edges, self.labels, tuple(weights))


def vertex_degree(g: LabeledGraph, v: int) -> int:
    """Number of neighbors of v; raises on out-of-range vertex."""
    return g.degree(v)


def permute_graph(g: LabeledGraph, perm: Sequence[int]) -> LabeledGraph:
    """Relabel vertices so vertex v becomes perm[v]; labels and weights ride along."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm is not a permutation of the vertex indices")
    labels = [0] * g.n
    for v, lab in enumerate(g.labels):
        labels[perm[v]] = lab
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    return LabeledGraph.build(g.n, edges, labels, list(g.weights))


@dataclass(frozen=True)
class GraphDataset:
    """Ordered collection of graphs with per-graph integer class labels."""

    graphs: tuple[LabeledGraph, ...]
    class_labels: tuple[int, ...]
    name: str = ""

    def __post_init__(self):
        if len(self.class_labels) != len(self.graphs):
            raise ValueError("class_labels length must equal number of graphs")

    def __len__(self) -> int:
        return len(self.graphs)


def _read_lines(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip()]


def _parse_int(token: str, path: str, lineno: int) -> int:
    try:
        return int(token.strip())
    except ValueError:
        raise DatasetFormatError(
            f"{os.path.basename(path)}:{lineno}: non-numeric token {token.strip()!r}"
        ) from None


def _parse_weight(token: str, path: str, lineno: int) -> float:
    """An edge weight: a finite, nonnegative float."""
    try:
        value = float(token.strip())
    except ValueError:
        raise DatasetFormatError(
            f"{os.path.basename(path)}:{lineno}: non-numeric token {token.strip()!r}"
        ) from None
    if not math.isfinite(value):
        raise DatasetFormatError(
            f"{os.path.basename(path)}:{lineno}: non-finite value {token.strip()!r}"
        )
    if value < 0:
        raise DatasetFormatError(
            f"{os.path.basename(path)}:{lineno}: negative edge weight {token.strip()!r}"
        )
    return value


def load_tud_dataset(directory: str, name: str) -> GraphDataset:
    """Load a dataset in TUDataset text format from `directory`.

    Expects `<name>_A.txt` (directed edge list, 1-based global vertex ids),
    `<name>_graph_indicator.txt` and `<name>_graph_labels.txt`; optionally
    `<name>_node_labels.txt` and `<name>_edge_attributes.txt` (first column
    becomes the edge weight). The two directed copies of an undirected edge
    are merged; vertices are renumbered from 0 within each graph.
    """
    paths = {
        key: os.path.join(directory, f"{name}_{key}.txt")
        for key in ("A", "graph_indicator", "graph_labels", "node_labels", "edge_attributes")
    }
    for key in ("A", "graph_indicator", "graph_labels"):
        if not os.path.isfile(paths[key]):
            raise DatasetFormatError(f"missing mandatory file {name}_{key}.txt")

    indicator_path = paths["graph_indicator"]
    graph_of: list[int] = []  # vertex (0-based global) -> graph (0-based)
    for lineno, line in enumerate(_read_lines(indicator_path), start=1):
        graph_of.append(_parse_int(line, indicator_path, lineno) - 1)
    num_vertices = len(graph_of)

    labels_path = paths["graph_labels"]
    class_labels = [
        _parse_int(line, labels_path, lineno)
        for lineno, line in enumerate(_read_lines(labels_path), start=1)
    ]
    num_graphs = len(class_labels)
    if num_graphs == 0:
        raise DatasetFormatError(f"{name}_graph_labels.txt lists no graphs")
    if any(g < 0 or g >= num_graphs for g in graph_of):
        raise DatasetFormatError(
            f"{name}_graph_indicator.txt references a graph outside 1..{num_graphs}"
        )

    # Local vertex index = rank of the global id within its graph.
    local_index = [0] * num_vertices
    vertex_counts = [0] * num_graphs
    for gv, gid in enumerate(graph_of):
        local_index[gv] = vertex_counts[gid]
        vertex_counts[gid] += 1

    node_labels = [0] * num_vertices
    if os.path.isfile(paths["node_labels"]):
        nl_path = paths["node_labels"]
        lines = _read_lines(nl_path)
        if len(lines) != num_vertices:
            raise DatasetFormatError(
                f"{name}_node_labels.txt has {len(lines)} lines, expected {num_vertices}"
            )
        for lineno, line in enumerate(lines, start=1):
            node_labels[lineno - 1] = _parse_int(line.split(",")[0], nl_path, lineno)

    a_path = paths["A"]
    edge_lines = _read_lines(a_path)

    attr_of_line: list[float] | None = None
    if os.path.isfile(paths["edge_attributes"]):
        ea_path = paths["edge_attributes"]
        attr_lines = _read_lines(ea_path)
        if len(attr_lines) != len(edge_lines):
            raise DatasetFormatError(
                f"{name}_edge_attributes.txt has {len(attr_lines)} lines, "
                f"expected {len(edge_lines)}"
            )
        attr_of_line = []
        warned = False
        for lineno, line in enumerate(attr_lines, start=1):
            cols = line.split(",")
            if len(cols) > 1 and not warned:
                warnings.warn(
                    f"{name}_edge_attributes.txt: using first of {len(cols)} columns "
                    "as the edge weight",
                    stacklevel=2,
                )
                warned = True
            attr_of_line.append(_parse_weight(cols[0], ea_path, lineno))

    # Merge the directed pairs: first-seen direction supplies the weight.
    per_graph_edges: list[dict[tuple[int, int], float]] = [{} for _ in range(num_graphs)]
    seen_directed: set[tuple[int, int]] = set()
    for lineno, line in enumerate(edge_lines, start=1):
        tokens = line.split(",")
        if len(tokens) != 2:
            raise DatasetFormatError(
                f"{name}_A.txt:{lineno}: expected 'u, v', got {line!r}"
            )
        u = _parse_int(tokens[0], a_path, lineno) - 1
        v = _parse_int(tokens[1], a_path, lineno) - 1
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise DatasetFormatError(
                f"{name}_A.txt:{lineno}: vertex id outside 1..{num_vertices}"
            )
        if graph_of[u] != graph_of[v]:
            raise DatasetFormatError(
                f"{name}_A.txt:{lineno}: edge joins vertices of different graphs"
            )
        if u == v:
            raise DatasetFormatError(f"{name}_A.txt:{lineno}: self-loop on vertex {u + 1}")
        if (u, v) in seen_directed:
            raise DatasetFormatError(
                f"{name}_A.txt:{lineno}: parallel edge ({u + 1}, {v + 1})"
            )
        seen_directed.add((u, v))
        gid = graph_of[u]
        key = (local_index[u], local_index[v])
        if key[0] > key[1]:
            key = (key[1], key[0])
        if key not in per_graph_edges[gid]:
            weight = attr_of_line[lineno - 1] if attr_of_line is not None else 0.0
            per_graph_edges[gid][key] = weight

    per_graph_labels: list[list[int]] = [[0] * c for c in vertex_counts]
    for gv, gid in enumerate(graph_of):
        per_graph_labels[gid][local_index[gv]] = node_labels[gv]

    graphs = []
    for gid in range(num_graphs):
        order = sorted(per_graph_edges[gid])
        graphs.append(
            LabeledGraph(
                n=vertex_counts[gid],
                edges=tuple(order),
                labels=tuple(per_graph_labels[gid]),
                weights=tuple(per_graph_edges[gid][e] for e in order),
            )
        )
    return GraphDataset(tuple(graphs), tuple(class_labels), name)


def write_tud_dataset(dataset: GraphDataset, directory: str, name: str) -> None:
    """Write a dataset in TUDataset text format (both directed copies per edge).

    Edge attributes are emitted only when some edge carries a nonzero weight;
    otherwise an existing `<name>_edge_attributes.txt` is removed.
    """
    os.makedirs(directory, exist_ok=True)
    offsets = []
    total = 0
    for g in dataset.graphs:
        offsets.append(total)
        total += g.n

    a_lines: list[str] = []
    attr_lines: list[str] = []
    indicator_lines: list[str] = []
    node_label_lines: list[str] = []
    has_weights = any(any(w != 0 for w in g.weights) for g in dataset.graphs)
    for gid, g in enumerate(dataset.graphs):
        base = offsets[gid] + 1
        indicator_lines.extend([str(gid + 1)] * g.n)
        node_label_lines.extend(str(lab) for lab in g.labels)
        for (u, v), w in zip(g.edges, g.weights):
            a_lines.append(f"{base + u}, {base + v}")
            a_lines.append(f"{base + v}, {base + u}")
            if has_weights:
                attr_lines.append(repr(float(w)))
                attr_lines.append(repr(float(w)))

    def _dump(key: str, lines: list[str]) -> None:
        with open(os.path.join(directory, f"{name}_{key}.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))

    _dump("A", a_lines)
    _dump("graph_indicator", indicator_lines)
    _dump("graph_labels", [str(c) for c in dataset.class_labels])
    _dump("node_labels", node_label_lines)
    if has_weights:
        _dump("edge_attributes", attr_lines)
    else:
        # a stale file from an earlier weighted dataset would be read back
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(directory, f"{name}_edge_attributes.txt"))
