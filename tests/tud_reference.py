"""The line-by-line TUDataset loader: the reference `load_tud_dataset` must match.

Each line is parsed and checked in file order, so the first fault of a
dataset is the first one met along the files indicator, graph labels, node
labels, edge attributes and `_A.txt`, and every fault names its file and
line. Lines are numbered as they stand in the file, blank ones included.
"""

import math
import os
import warnings

from wlfiltration import DatasetFormatError, GraphDataset, LabeledGraph


def _read_lines(path: str) -> list[tuple[int, str]]:
    """(line number, stripped text) of each non-blank line."""
    with open(path, "r", encoding="utf-8") as fh:
        return [(lineno, line.strip()) for lineno, line in enumerate(fh, start=1)
                if line.strip()]


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


def load_lines(paths: dict[str, str], name: str) -> GraphDataset:
    """The dataset in the files `paths` (keyed like `graphs._dataset_paths`)."""
    indicator_path = paths["graph_indicator"]
    graph_of: list[int] = []  # vertex (0-based global) -> graph (0-based)
    for lineno, line in _read_lines(indicator_path):
        graph_of.append(_parse_int(line, indicator_path, lineno) - 1)
    num_vertices = len(graph_of)

    labels_path = paths["graph_labels"]
    class_labels = [
        _parse_int(line, labels_path, lineno)
        for lineno, line in _read_lines(labels_path)
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
        for vertex, (lineno, line) in enumerate(lines):
            node_labels[vertex] = _parse_int(line.split(",")[0], nl_path, lineno)

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
        for lineno, line in attr_lines:
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
    for at, (lineno, line) in enumerate(edge_lines):
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
            weight = attr_of_line[at] if attr_of_line is not None else 0.0
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
