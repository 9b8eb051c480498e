"""Immutable labeled graphs, TUDataset text-format I/O, and permutation utilities."""

from __future__ import annotations

import contextlib
import itertools
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

    def with_weights(self, weights: Sequence[float]) -> "LabeledGraph":
        """Same structure and labels, new per-edge weights (aligned with `edges`)."""
        return LabeledGraph(self.n, self.edges, self.labels, tuple(weights))


def permute_graph(g: LabeledGraph, perm: Sequence[int]) -> LabeledGraph:
    """Relabel vertices so vertex v becomes perm[v]; labels and weights ride along."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm is not a permutation of the vertex indices")
    labels = [0] * g.n
    for v, lab in enumerate(g.labels):
        labels[perm[v]] = lab
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    return LabeledGraph.build(g.n, edges, labels, list(g.weights))


class GraphDataset:
    """Ordered collection of graphs with per-graph integer class labels, held as flat arrays.

    Graph g has `sizes[g]` vertices and `edge_counts[g]` edges. `labels` and
    `ends` hold the vertex labels and the edges, graph after graph, each edge
    as graph-local (u, v) with u < v, sorted within its graph; `weights[e]`
    belongs to `ends[e]`. Labels and weights keep their exact values (see
    `_exact_array`). The arrays are read-only, so datasets share them.
    `graphs` is their `LabeledGraph` view, built when first read.
    """

    def __init__(self, graphs: Sequence[LabeledGraph], class_labels: Sequence[int], name=""):
        graphs = tuple(graphs)
        chain = itertools.chain.from_iterable
        edge_counts = np.fromiter((len(g.edges) for g in graphs), np.int64, len(graphs))
        dataset = self._of_arrays(
            np.fromiter((g.n for g in graphs), np.int64, len(graphs)), edge_counts,
            _exact_array(list(chain(g.labels for g in graphs))),
            np.fromiter(chain(chain(g.edges for g in graphs)), np.int64,
                        2 * int(edge_counts.sum())).reshape(-1, 2),
            _exact_array(list(chain(g.weights for g in graphs))), class_labels, name)
        vars(self).update(vars(dataset), graphs=graphs)  # the view of these arrays

    @classmethod
    def _of_arrays(cls, sizes, edge_counts, labels, ends, weights, class_labels, name):
        """A dataset of arrays laid out as the class describes; only their count is checked."""
        if len(class_labels) != len(sizes):
            raise ValueError("class_labels length must equal number of graphs")
        for array in (sizes, edge_counts, labels, ends, weights):
            array.flags.writeable = False
        dataset = cls.__new__(cls)
        vars(dataset).update(sizes=sizes, edge_counts=edge_counts, labels=labels, ends=ends,
                             weights=weights, class_labels=tuple(class_labels), name=name)
        return dataset

    @cached_property
    def graphs(self) -> tuple[LabeledGraph, ...]:
        """One `LabeledGraph` per graph, each checked by its constructor."""
        edges = list(zip(*self.ends.T.tolist()))
        labels, weights = self.labels.tolist(), self.weights.tolist()
        sizes, edge_counts = self.sizes.tolist(), self.edge_counts.tolist()
        ends_at = zip(itertools.accumulate(sizes), itertools.accumulate(edge_counts))
        return tuple(  # a graph's vertices end at v, its edges at e
            LabeledGraph(n, tuple(edges[e - m:e]), tuple(labels[v - n:v]), tuple(weights[e - m:e]))
            for n, m, (v, e) in zip(sizes, edge_counts, ends_at))

    def _with_weights(self, weights: np.ndarray) -> "GraphDataset":
        """Same graphs and labels, carrying `weights` (valid, aligned with `ends`)."""
        return self._of_arrays(self.sizes, self.edge_counts, self.labels, self.ends, weights,
                               self.class_labels, self.name)

    def __len__(self) -> int:
        return len(self.sizes)

    def _fields(self) -> tuple:
        return self.graphs, self.class_labels, self.name

    def __repr__(self) -> str:
        return "GraphDataset(graphs=%r, class_labels=%r, name=%r)" % self._fields()

    def __eq__(self, other) -> bool:
        return isinstance(other, GraphDataset) and self._fields() == other._fields()


def _exact_array(values: list) -> np.ndarray:
    """`values` as float64 if all are floats, as int64 or uint64 if all are
    Python ints that fit one, and as the objects themselves otherwise."""
    kinds = set(map(type, values))
    if all(issubclass(kind, (float, np.floating)) for kind in kinds):
        return np.array(values, dtype=np.float64)
    if all(issubclass(kind, int) for kind in kinds):
        for dtype in (np.int64, np.uint64):
            with contextlib.suppress(OverflowError):
                return np.array(values, dtype=dtype)
    return np.array(values, dtype=object)


def load_tud_dataset(directory: str, name: str) -> GraphDataset:
    """Load a dataset in TUDataset text format from `directory`.

    Expects `<name>_A.txt` (directed edge list, 1-based global vertex ids),
    `<name>_graph_indicator.txt` and `<name>_graph_labels.txt`; optionally
    `<name>_node_labels.txt` and `<name>_edge_attributes.txt` (first column
    becomes the edge weight). The two directed copies of an undirected edge
    are merged; vertices are renumbered from 0 within each graph.

    Each file is parsed once, in bulk when its bytes fit the grammar of
    `_bulk_ints`/`_bulk_floats` and by `_parse_lines` otherwise. The files
    are then checked against each other as whole arrays. A fault is reported
    with its file and line. Of several, the one reported is the first met
    going through the files line by line in the order indicator, graph
    labels, node labels, edge attributes, `_A.txt`, where a file's line
    count is checked before its lines.
    """
    paths = _dataset_paths(directory, name)
    for key in ("A", "graph_indicator", "graph_labels"):
        if not os.path.isfile(paths[key]):
            raise DatasetFormatError(f"missing mandatory file {name}_{key}.txt")
    graph_of = _read_file(paths["graph_indicator"], "int").checked() - 1
    class_labels = _read_file(paths["graph_labels"], "int").checked()
    num_graphs, num_vertices = len(class_labels), len(graph_of)
    if not num_graphs:
        raise DatasetFormatError(f"{name}_graph_labels.txt lists no graphs")
    # min and max also compare the Python ints of an object array
    if num_vertices and not 0 <= graph_of.min() <= graph_of.max() < num_graphs:
        raise DatasetFormatError(
            f"{name}_graph_indicator.txt references a graph outside 1..{num_graphs}"
        )
    graph_of = graph_of.astype(np.int64)
    if os.path.isfile(paths["node_labels"]):
        node_labels = _read_file(paths["node_labels"], "label").expect(num_vertices).checked()
    else:
        node_labels = np.zeros(num_vertices, dtype=np.int64)
    pairs = _read_file(paths["A"], "pair")
    weights = np.zeros(pairs.count)
    if os.path.isfile(paths["edge_attributes"]):
        attrs = _read_file(paths["edge_attributes"], "float")
        weights = _checked_weights(attrs.expect(pairs.count))
    u, v = _checked_ends(pairs, graph_of)

    # A vertex's rank in graph order: its local index plus its graph's start.
    # Graphs keep their vertices' order, so rank keys sort edges by (graph,
    # local u, local v).
    vertex_counts = np.bincount(graph_of, minlength=num_graphs)
    starts = np.cumsum(vertex_counts) - vertex_counts
    by_graph = np.argsort(graph_of, kind="stable")
    rank = np.empty(num_vertices, dtype=np.int64)
    rank[by_graph] = np.arange(num_vertices)

    # Merge the directed pairs: the first-seen direction supplies the weight.
    # The sort is stable, so the copies of an edge stay in line order.
    lo, hi = np.minimum(rank[u], rank[v]), np.maximum(rank[u], rank[v])
    keys = _pair_keys(lo, hi, num_vertices)
    order = np.argsort(keys, kind="stable")
    new = np.ones(len(order), dtype=bool)
    new[1:] = keys[order[1:]] != keys[order[:-1]]
    first = order[new]
    gid = graph_of[u[first]]
    ends = np.stack((lo[first], hi[first]), axis=1) - starts[gid][:, None]
    return GraphDataset._of_arrays(
        vertex_counts, np.bincount(gid, minlength=num_graphs), node_labels[by_graph], ends,
        weights[first], class_labels.tolist(), name)


def _dataset_paths(directory: str, name: str) -> dict[str, str]:
    return {
        key: os.path.join(directory, f"{name}_{key}.txt")
        for key in ("A", "graph_indicator", "graph_labels", "node_labels", "edge_attributes")
    }


@dataclass(frozen=True)
class _Column:
    """A file's values in line order, up to the first line that does not parse.

    `count` is the number of non-blank lines. `fault` is the error of the
    line that does not parse; the checks raise it once they reach this
    file's tokens. `lines[i]` is the line of `values[i]` (`i + 1` when
    None), and `wide` the index and column count of the first line holding
    more than one column.
    """

    path: str
    values: np.ndarray
    count: int
    lines: list[int] | None = None
    fault: DatasetFormatError | None = None
    wide: tuple[int, int] | None = None

    def line(self, i: int) -> int:
        return i + 1 if self.lines is None else self.lines[i]

    def expect(self, count: int) -> "_Column":
        """This column, if the file has `count` non-blank lines."""
        if self.count != count:
            raise DatasetFormatError(
                f"{os.path.basename(self.path)} has {self.count} lines, expected {count}")
        return self

    def checked(self) -> np.ndarray:
        """Every value; raises the error of a line that did not parse."""
        if self.fault is not None:
            raise self.fault
        return self.values


def _read_file(path: str, kind: str) -> _Column:
    """A file of `kind` 'int' (an integer a line), 'label' (an integer in the
    first column), 'pair' (`u, v`) or 'float' (a number in the first column)."""
    try:
        if kind == "float":
            values = np.array(_bulk_floats(path), dtype=np.float64)
        else:
            values = _bulk_ints(path, pairs=kind == "pair")
    except _NotBulk:
        return _parse_lines(path, kind)
    return _Column(path, values, len(values))


def _parse_lines(path: str, kind: str) -> _Column:
    """`_read_file` for any file that `int()` and `float()` read line by line.

    Blank lines are skipped but keep their line numbers. Parsing stops at
    the first line that does not parse; the column holds its error.
    """
    with open(path, "r", encoding="utf-8") as fh:
        numbered = [(lineno, text) for lineno, line in enumerate(fh, start=1)
                    if (text := line.strip())]
    parse = float if kind == "float" else int
    values: list = []
    lines: list[int] = []
    wide = fault = None
    try:
        for lineno, text in numbered:
            cols = text.split(",")
            if kind == "pair" and len(cols) != 2:
                raise DatasetFormatError(
                    f"{os.path.basename(path)}:{lineno}: expected 'u, v', got {text!r}")
            if len(cols) > 1 and wide is None:
                wide = (len(lines), len(cols))
            tokens = cols if kind == "pair" else [text if kind == "int" else cols[0]]
            values += [_parse_token(parse, token, path, lineno) for token in tokens]
            lines.append(lineno)
    except DatasetFormatError as exc:
        fault = exc
    if kind == "float":
        array = np.array(values, dtype=np.float64)
    else:
        try:
            array = np.array(values, dtype=np.int64)
        except OverflowError:  # the checks compare these as Python ints
            array = np.array(values, dtype=object)
        if kind == "pair":
            array = array.reshape(-1, 2)
    return _Column(path, array, len(numbered), lines, fault, wide)


def _parse_token(parse, token: str, path: str, lineno: int):
    try:
        return parse(token.strip())
    except ValueError:
        raise DatasetFormatError(
            f"{os.path.basename(path)}:{lineno}: non-numeric token {token.strip()!r}"
        ) from None


def _checked_weights(attrs: _Column) -> np.ndarray:
    """The edge weights of an attribute file.

    Raises the first line that does not hold a finite, nonnegative number,
    and warns about extra columns if a line before it (or it) has them.
    """
    name = os.path.basename(attrs.path)
    values = attrs.values
    bad = np.flatnonzero(~((values >= 0) & (values < math.inf)))
    stop = bad[0] if len(bad) else len(values) if attrs.fault else None
    if attrs.wide is not None and (stop is None or attrs.wide[0] <= stop):
        warnings.warn(f"{name}: using first of {attrs.wide[1]} columns as the edge weight",
                      stacklevel=3)
    if len(bad):
        lineno = attrs.line(bad[0])
        with open(attrs.path, "r", encoding="utf-8") as fh:
            token = next(itertools.islice(fh, lineno - 1, None)).split(",")[0].strip()
        what = "negative edge weight" if math.isfinite(values[bad[0]]) else "non-finite value"
        raise DatasetFormatError(f"{name}:{lineno}: {what} {token!r}")
    return attrs.checked()


def _checked_ends(pairs: _Column, graph_of: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """0-based endpoints of the `_A.txt` lines; raises the first line at fault."""
    num_vertices = len(graph_of)
    ends = pairs.values - 1
    outside = np.flatnonzero(~((ends >= 0) & (ends < num_vertices)).all(axis=1))
    # every other check runs on the lines before the first vertex out of range
    stop = outside[0] if len(outside) else len(ends)
    u, v = ends[:stop].astype(np.int64).T
    faults = [(stop, f"vertex id outside 1..{num_vertices}")] if len(outside) else []
    for at in np.flatnonzero(graph_of[u] != graph_of[v])[:1]:
        faults.append((at, "edge joins vertices of different graphs"))
    for at in np.flatnonzero(u == v)[:1]:
        faults.append((at, f"self-loop on vertex {u[at] + 1}"))
    # a directed pair on an earlier line
    keys = _pair_keys(u, v, num_vertices)
    ordered = np.sort(keys)
    if np.any(ordered[1:] == ordered[:-1]):
        again = np.ones(len(keys), dtype=bool)
        again[np.unique(keys, return_index=True)[1]] = False
        at = np.flatnonzero(again)[0]
        faults.append((at, f"parallel edge ({u[at] + 1}, {v[at] + 1})"))
    if faults:
        at, what = min(faults, key=lambda fault: fault[0])
        raise DatasetFormatError(f"{os.path.basename(pairs.path)}:{pairs.line(at)}: {what}")
    pairs.checked()
    return u, v


def _pair_keys(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """a * n + b for ids below n: int64 below 2**31 ids, exact Python ints above."""
    return (a if n < 2**31 else a.astype(object)) * n + b


class _NotBulk(Exception):
    """A file outside the bulk grammar."""


# The bulk grammar. Files hold only ASCII, with LF or CRLF line ends, and
# end in at most one newline. An integer file has one integer per line,
# with an optional leading `-`; an edge file has `u, v` or `u,v` per line;
# an attribute file has one number per line that `float()` reads. No line
# is blank. `int()` and `float()` accept more (a lone CR, tabs, `+5`,
# `1_000`, non-ASCII digits, extra columns); such files go to
# `_parse_lines`. The checks are byte-array scans: a whole-file regex with
# a repeated group would cost megabytes of match state on a large file.
_DIGIT_0, _COMMA, _MINUS, _NEWLINE = b"0,-\n"
_INT_BYTES = b"0123456789-\n"
_PAIR_BYTES = b"0123456789, \n"
_FLOAT_BYTES = b"0123456789.eE+-\n"
_NEWLINE_TO_COMMA = bytes.maketrans(b"\n", b",")


def _read_grammar(path: str, allowed: bytes) -> bytes:
    """A file's bytes without their final newline, if it holds only `allowed` bytes.

    CRLF line ends count as LF; a lone CR stays and leaves the grammar.
    """
    with open(path, "rb") as fh:
        data = fh.read().replace(b"\r\n", b"\n")
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


def write_tud_dataset(dataset: GraphDataset, directory: str, name: str) -> None:
    """Write a dataset in TUDataset text format (both directed copies per edge).

    Edge attributes are emitted only when some edge carries a nonzero weight;
    otherwise an existing `<name>_edge_attributes.txt` is removed.
    """
    os.makedirs(directory, exist_ok=True)
    # 1-based dataset-wide ids of each edge's ends
    first_id = np.cumsum(dataset.sizes) - dataset.sizes + 1
    u, v = (dataset.ends + np.repeat(first_id, dataset.edge_counts)[:, None]).T
    has_weights = bool(np.any(dataset.weights != 0))

    def _dump(key: str, line: str, values: list) -> None:
        with open(os.path.join(directory, f"{name}_{key}.txt"), "w", encoding="utf-8") as fh:
            fh.write(line * (len(values) // line.count("%")) % tuple(values))

    _dump("A", "%d, %d\n", np.stack((u, v, v, u), axis=1).ravel().tolist())
    _dump("graph_indicator", "%d\n",
          np.repeat(np.arange(1, len(dataset) + 1), dataset.sizes).tolist())
    _dump("graph_labels", "%s\n", list(dataset.class_labels))
    _dump("node_labels", "%s\n", dataset.labels.tolist())
    if has_weights:
        _dump("edge_attributes", "%r\n", list(map(float, np.repeat(dataset.weights, 2).tolist())))
    else:
        # a stale file from an earlier weighted dataset would be read back
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(directory, f"{name}_edge_attributes.txt"))
