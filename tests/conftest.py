"""Shared fixtures: deterministic random graphs, the two 3-regular witnesses,
graph helpers (`with_weights`, `degree`) and a reader for csv Gram files."""

import random

import numpy as np
import pytest

from wlfiltration import GraphDataset, LabeledGraph, write_tud_dataset


def random_graph(rng: random.Random, max_n: int = 12, num_labels: int = 3,
                 p: float = 0.4, min_n: int = 2) -> LabeledGraph:
    """Erdos-Renyi-style labeled graph; may contain isolated vertices."""
    n = rng.randint(min_n, max_n)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    labels = [rng.randrange(num_labels) for _ in range(n)]
    return LabeledGraph.build(n, edges, labels)


def random_dataset(seed: int, count: int, **kwargs) -> GraphDataset:
    rng = random.Random(seed)
    graphs = tuple(random_graph(rng, **kwargs) for _ in range(count))
    labels = tuple(rng.randrange(2) for _ in range(count))
    return GraphDataset(graphs, labels, name=f"random{seed}")


def prism_graph() -> LabeledGraph:
    """Two triangles joined by a perfect matching; 3-regular on 6 vertices."""
    return LabeledGraph.build(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3), (5, 0), (1, 4)]
    )


def k33_graph() -> LabeledGraph:
    """Triangle-free 3-regular graph on 6 vertices (complete bipartite)."""
    return LabeledGraph.build(
        6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (2, 5), (3, 0), (1, 4)]
    )


def path3(w_ab: float = 0.0, w_bc: float = 0.0) -> LabeledGraph:
    return LabeledGraph.build(3, [(0, 1), (1, 2)], weights=[w_ab, w_bc])


def with_weights(g: LabeledGraph, weights) -> LabeledGraph:
    """Same structure and labels as g, new per-edge weights (aligned with `g.edges`)."""
    return LabeledGraph(g.n, g.edges, g.labels, tuple(weights))


def degree(g: LabeledGraph, v: int) -> int:
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for graph on {g.n} vertices")
    return len(g.adjacency[v])


def read_gram_csv(path: str) -> np.ndarray:
    """Parse a csv Gram file back into a float matrix."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([float(tok) for tok in line.split(",")])
    matrix = np.array(rows, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{path} does not hold a square matrix")
    return matrix


@pytest.fixture(scope="session")
def mini_tud_dir(tmp_path_factory):
    """Deterministic 20-graph dataset written in TUDataset text format."""
    dataset = random_dataset(20240, 20, max_n=14, min_n=4, num_labels=4)
    directory = tmp_path_factory.mktemp("mini_tud")
    write_tud_dataset(dataset, str(directory), "MINI20")
    return str(directory)
