"""Immutable labeled graphs, TUDataset text-format I/O, and permutation utilities."""

from __future__ import annotations

import contextlib
import math
import os
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np


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

    @classmethod
    def _trusted(cls, n, edges, labels, weights) -> "LabeledGraph":
        """An instance from fields the caller has already checked as `__post_init__` would."""
        g = cls.__new__(cls)
        g.__dict__.update(n=n, edges=edges, labels=labels, weights=weights)
        return g

    def with_weights(self, weights: Sequence[float]) -> "LabeledGraph":
        """Same structure and labels, new per-edge weights (aligned with `edges`).

        The structure was checked when this graph was made, so only the new
        weights are; a bad one is reported by the full constructor.
        """
        weights = tuple(weights)
        if len(weights) == len(self.edges) and all(0 <= w < math.inf for w in weights):
            return self._trusted(self.n, self.edges, self.labels, weights)
        return LabeledGraph(self.n, self.edges, self.labels, weights)


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

    Files in the strict grammar of `_load_bulk` are parsed and checked as
    whole arrays. Any other file, and any dataset failing a check, is read
    again line by line, which reports the fault with its file and line.
    """
    paths = _dataset_paths(directory, name)
    for key in ("A", "graph_indicator", "graph_labels"):
        if not os.path.isfile(paths[key]):
            raise DatasetFormatError(f"missing mandatory file {name}_{key}.txt")
    try:
        return _load_bulk(paths, name)
    except _NotBulk:
        return _load_lines(paths, name)


def _dataset_paths(directory: str, name: str) -> dict[str, str]:
    return {
        key: os.path.join(directory, f"{name}_{key}.txt")
        for key in ("A", "graph_indicator", "graph_labels", "node_labels", "edge_attributes")
    }


class _NotBulk(Exception):
    """A file outside the bulk grammar, or a dataset failing a bulk check."""


# The bulk grammar. Files hold only ASCII and end in at most one newline.
# An integer file has one integer per line, with an optional leading `-`;
# an edge file has `u, v` or `u,v` per line; an attribute file has one
# number per line that `float()` reads. No line is blank. `int()` and
# `float()` accept more (CR, tabs, `+5`, `1_000`, non-ASCII digits, extra
# columns); such files go to the line parser. The checks are byte-array
# scans: a whole-file regex with a repeated group would cost megabytes of
# match state on a large file.
_DIGIT_0, _COMMA, _MINUS, _NEWLINE = b"0,-\n"
_INT_BYTES = b"0123456789-\n"
_PAIR_BYTES = b"0123456789, \n"
_FLOAT_BYTES = b"0123456789.eE+-\n"
_NEWLINE_TO_COMMA = bytes.maketrans(b"\n", b",")


def _read_grammar(path: str, allowed: bytes) -> bytes:
    """A file's bytes without their final newline, if it holds only `allowed` bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data.endswith(b"\n"):
        data = data[:-1]
    if data.translate(None, allowed):
        raise _NotBulk
    return data


def _bulk_ints(path: str, pairs: bool) -> np.ndarray:
    """The integers of a file in the bulk grammar, in order: one a line, or `u, v` pairs."""
    data = _read_grammar(path, _PAIR_BYTES if pairs else _INT_BYTES)
    if pairs:
        data = data.replace(b", ", b",")
    if not data:
        return np.empty((0, 2) if pairs else 0, dtype=np.int64)
    arr = np.frombuffer(data, dtype=np.uint8)
    if pairs:
        # Digit runs separated by single bytes that go comma, newline, ...,
        # comma (so no space is left): every line is `u,v`.
        sep = np.flatnonzero(arr < _DIGIT_0)
        marks = arr[sep]
        if (len(sep) % 2 == 0 or sep[0] == 0 or sep[-1] == len(arr) - 1
                or np.any(np.diff(sep) < 2) or np.any(marks[0::2] != _COMMA)
                or np.any(marks[1::2] != _NEWLINE)):
            raise _NotBulk
        count = len(sep) + 1
    else:
        # Lines of digits; a minus starts a line and is followed by a digit.
        minus = np.flatnonzero(arr == _MINUS)
        if (data[0] == _NEWLINE or arr[-1] < _DIGIT_0 or b"\n\n" in data
                or np.any(arr[minus + 1] < _DIGIT_0)
                or np.any(arr[minus[minus > 0] - 1] != _NEWLINE)):
            raise _NotBulk
        count = data.count(b"\n") + 1
    values = np.fromstring(data.translate(_NEWLINE_TO_COMMA), dtype=np.int64, sep=",")
    # Below 10**18 in magnitude, every value is exactly what int() reads; a
    # longer token may have been clamped to the int64 range.
    if len(values) != count or not -10**18 < values.min() <= values.max() < 10**18:
        raise _NotBulk
    return values.reshape(-1, 2) if pairs else values


def _bulk_floats(path: str) -> list[float]:
    """`float()` of each line of a file in the bulk grammar."""
    data = _read_grammar(path, _FLOAT_BYTES)
    try:
        return list(map(float, data.split(b"\n"))) if data else []
    except ValueError:
        raise _NotBulk from None


def _load_bulk(paths: dict[str, str], name: str) -> GraphDataset:
    """`_load_lines` for files in the bulk grammar, by whole-array parsing and checks.

    Raises `_NotBulk`, having warned and raised nothing else, for a file
    outside the grammar or a dataset that fails a check.
    """
    graph_of = _bulk_ints(paths["graph_indicator"], pairs=False) - 1
    class_labels = _bulk_ints(paths["graph_labels"], pairs=False)
    num_graphs, num_vertices = len(class_labels), len(graph_of)
    # vertex ids are squared into one int64 key below
    if not num_graphs or num_vertices >= 2**31:
        raise _NotBulk
    if num_vertices and not 0 <= graph_of.min() <= graph_of.max() < num_graphs:
        raise _NotBulk
    if os.path.isfile(paths["node_labels"]):
        node_labels = _bulk_ints(paths["node_labels"], pairs=False)
        if len(node_labels) != num_vertices:
            raise _NotBulk
    else:
        node_labels = np.zeros(num_vertices, dtype=np.int64)

    ends = _bulk_ints(paths["A"], pairs=True) - 1
    u, v = ends[:, 0], ends[:, 1]
    if len(u) and not 0 <= ends.min() <= ends.max() < num_vertices:
        raise _NotBulk
    if np.any(graph_of[u] != graph_of[v]) or np.any(u == v):
        raise _NotBulk
    directed = np.sort(u * num_vertices + v)
    if np.any(directed[1:] == directed[:-1]):  # parallel directed pairs
        raise _NotBulk
    if os.path.isfile(paths["edge_attributes"]):
        attrs = np.array(_bulk_floats(paths["edge_attributes"]), dtype=np.float64)
        # the line parser names a non-finite or negative weight
        if len(attrs) != len(u) or not np.all((attrs >= 0) & (attrs < math.inf)):
            raise _NotBulk
    else:
        attrs = np.zeros(len(u))

    # Local vertex index = rank of the global id within its graph.
    vertex_counts = np.bincount(graph_of, minlength=num_graphs)
    by_graph = np.argsort(graph_of, kind="stable")
    local = np.empty(num_vertices, dtype=np.int64)
    local[by_graph] = np.arange(num_vertices) - np.repeat(
        np.cumsum(vertex_counts) - vertex_counts, vertex_counts)

    # Merge the directed pairs: the first-seen direction supplies the weight.
    # Local ranks keep the global order, so (lo, hi) is canonical in both.
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    _, first = np.unique(lo * num_vertices + hi, return_index=True)
    gid, a, b = graph_of[lo[first]], local[lo[first]], local[hi[first]]
    order = np.lexsort((b, a, gid))
    edges = list(zip(a[order].tolist(), b[order].tolist()))
    weights = attrs[first[order]].tolist()
    labels = node_labels[by_graph].tolist()

    graphs = []
    e_at = v_at = 0
    for n, m in zip(vertex_counts.tolist(), np.bincount(gid, minlength=num_graphs).tolist()):
        # every field passed the checks above
        graphs.append(LabeledGraph._trusted(
            n, tuple(edges[e_at:e_at + m]), tuple(labels[v_at:v_at + n]),
            tuple(weights[e_at:e_at + m]),
        ))
        e_at, v_at = e_at + m, v_at + n
    return GraphDataset(tuple(graphs), tuple(class_labels.tolist()), name)


def _load_lines(paths: dict[str, str], name: str) -> GraphDataset:
    """The line-by-line loader: each fault is reported with its file and line."""
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
                    stacklevel=3,
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
