"""Graph construction, permutation, and TUDataset ingestion."""

import math
import os
import random

import pytest

from wlfiltration import (
    DatasetFormatError,
    LabeledGraph,
    load_tud_dataset,
    permute_graph,
    write_tud_dataset,
)
from wlfiltration.csl import csl_graph

from conftest import path3, random_dataset, random_graph


def test_build_canonicalizes_edges():
    g = LabeledGraph.build(4, [(2, 1), (3, 0), (0, 1)])
    assert g.edges == ((0, 1), (0, 3), (1, 2))
    assert g.weights == (0, 0, 0)
    assert g.labels == (0, 0, 0, 0)


def test_build_rejects_self_loop_and_parallel():
    with pytest.raises(ValueError, match="self-loop"):
        LabeledGraph.build(3, [(1, 1)])
    with pytest.raises(ValueError, match="parallel"):
        LabeledGraph.build(3, [(0, 1), (1, 0)])


def test_build_validates_shapes():
    with pytest.raises(ValueError):
        LabeledGraph(2, ((0, 1),), (0,), (0.0,))  # label count
    with pytest.raises(ValueError):
        LabeledGraph(2, ((0, 1),), (0, 0), ())  # weight count
    with pytest.raises(ValueError):
        LabeledGraph(2, ((0, 1),), (0, 0), (-1.0,))  # negative weight
    with pytest.raises(ValueError):
        LabeledGraph(2, ((0, 2),), (0, 0), (0.0,))  # endpoint out of range


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
def test_build_rejects_non_finite_weight(weight):
    with pytest.raises(ValueError, match="not finite"):
        LabeledGraph(2, ((0, 1),), (0, 0), (weight,))


def test_adjacency_sorted_and_degree_sum():
    rng = random.Random(1)
    for _ in range(30):
        g = random_graph(rng)
        for ns in g.adjacency:
            assert list(ns) == sorted(ns)
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.edge_count


def test_vertex_degree_examples():
    isolated = LabeledGraph.build(1, [])
    assert isolated.degree(0) == 0
    assert path3().degree(1) == 2
    g = csl_graph(41, 2)
    assert all(g.degree(v) == 4 for v in range(41))
    with pytest.raises(ValueError, match="out of range"):
        isolated.degree(1)


def test_permute_identity_and_reversal():
    g = path3(1.0, 2.0)
    assert permute_graph(g, [0, 1, 2]) == g
    rev = permute_graph(g, [2, 1, 0])
    assert rev.edges == ((0, 1), (1, 2))
    assert sorted(rev.degree(v) for v in range(3)) == [1, 1, 2]
    # weights follow their edges: {a,b} had 1.0 and becomes {2,1}
    assert rev.weights == (2.0, 1.0)


def test_permute_preserves_multisets():
    rng = random.Random(2)
    for _ in range(20):
        g = random_graph(rng)
        perm = list(range(g.n))
        rng.shuffle(perm)
        p = permute_graph(g, perm)
        assert sorted(g.labels) == sorted(p.labels)
        assert sorted(g.weights) == sorted(p.weights)
        assert sorted(g.degree(v) for v in range(g.n)) == sorted(
            p.degree(v) for v in range(p.n)
        )


def test_permute_rejects_non_bijection():
    g = path3()
    with pytest.raises(ValueError, match="permutation"):
        permute_graph(g, [0, 0, 1])
    with pytest.raises(ValueError, match="permutation"):
        permute_graph(g, [0, 1])


def _write(directory, name, key, lines):
    with open(os.path.join(directory, f"{name}_{key}.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_path_dataset(directory, name="P3"):
    _write(directory, name, "A", ["1, 2", "2, 1", "2, 3", "3, 2"])
    _write(directory, name, "graph_indicator", ["1", "1", "1"])
    _write(directory, name, "graph_labels", ["1"])
    return name


def test_load_minimal_path(tmp_path):
    name = _write_path_dataset(str(tmp_path))
    ds = load_tud_dataset(str(tmp_path), name)
    assert len(ds) == 1
    g = ds.graphs[0]
    assert g.n == 3
    assert g.edges == ((0, 1), (1, 2))
    assert g.labels == (0, 0, 0)
    assert g.weights == (0.0, 0.0)
    assert ds.class_labels == (1,)


def test_load_missing_mandatory_file(tmp_path):
    _write_path_dataset(str(tmp_path))
    os.remove(tmp_path / "P3_A.txt")
    with pytest.raises(DatasetFormatError, match="P3_A.txt"):
        load_tud_dataset(str(tmp_path), "P3")


def test_load_cross_graph_edge_reports_line(tmp_path):
    _write(str(tmp_path), "X", "A", ["1, 2", "2, 1", "2, 3"])
    _write(str(tmp_path), "X", "graph_indicator", ["1", "1", "2"])
    _write(str(tmp_path), "X", "graph_labels", ["1", "1"])
    with pytest.raises(DatasetFormatError, match="X_A.txt:3"):
        load_tud_dataset(str(tmp_path), "X")


def test_load_vertex_out_of_range_reports_line(tmp_path):
    _write(str(tmp_path), "X", "A", ["1, 2", "2, 9"])
    _write(str(tmp_path), "X", "graph_indicator", ["1", "1"])
    _write(str(tmp_path), "X", "graph_labels", ["1"])
    with pytest.raises(DatasetFormatError, match=":2"):
        load_tud_dataset(str(tmp_path), "X")


def test_load_non_numeric_token(tmp_path):
    _write(str(tmp_path), "X", "A", ["1, q"])
    _write(str(tmp_path), "X", "graph_indicator", ["1", "1"])
    _write(str(tmp_path), "X", "graph_labels", ["1"])
    with pytest.raises(DatasetFormatError, match="non-numeric"):
        load_tud_dataset(str(tmp_path), "X")


def test_load_rejects_self_loop(tmp_path):
    _write(str(tmp_path), "X", "A", ["1, 1"])
    _write(str(tmp_path), "X", "graph_indicator", ["1"])
    _write(str(tmp_path), "X", "graph_labels", ["1"])
    with pytest.raises(DatasetFormatError, match="self-loop"):
        load_tud_dataset(str(tmp_path), "X")


def test_load_node_labels_and_edge_attributes(tmp_path):
    name = _write_path_dataset(str(tmp_path))
    _write(str(tmp_path), name, "node_labels", ["5", "6", "5"])
    _write(str(tmp_path), name, "edge_attributes", ["1.5", "1.5", "2.5", "2.5"])
    ds = load_tud_dataset(str(tmp_path), name)
    g = ds.graphs[0]
    assert g.labels == (5, 6, 5)
    assert g.weights == (1.5, 2.5)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_load_rejects_non_finite_edge_attribute(tmp_path, token):
    name = _write_path_dataset(str(tmp_path))
    _write(str(tmp_path), name, "edge_attributes", ["1.5", "1.5", token, token])
    with pytest.raises(DatasetFormatError, match="P3_edge_attributes.txt:3: non-finite"):
        load_tud_dataset(str(tmp_path), name)


def test_load_rejects_negative_edge_attribute(tmp_path):
    name = _write_path_dataset(str(tmp_path))
    _write(str(tmp_path), name, "edge_attributes", ["1.5", "1.5", "-1.5", "-1.5"])
    with pytest.raises(DatasetFormatError, match="P3_edge_attributes.txt:3: negative"):
        load_tud_dataset(str(tmp_path), name)


def test_load_warns_on_extra_attribute_columns(tmp_path):
    name = _write_path_dataset(str(tmp_path))
    _write(str(tmp_path), name, "edge_attributes",
           ["1.5, 9", "1.5, 9", "2.5, 9", "2.5, 9"])
    with pytest.warns(UserWarning, match="first"):
        ds = load_tud_dataset(str(tmp_path), name)
    assert ds.graphs[0].weights == (1.5, 2.5)


def test_load_is_deterministic(tmp_path):
    ds = random_dataset(99, 6, max_n=8)
    write_tud_dataset(ds, str(tmp_path), "R")
    first = load_tud_dataset(str(tmp_path), "R")
    second = load_tud_dataset(str(tmp_path), "R")
    assert first == second


def test_write_load_round_trip(tmp_path):
    ds = random_dataset(7, 9, max_n=10)
    # give some graphs nontrivial weights so the attribute file is exercised
    graphs = []
    rng = random.Random(5)
    for g in ds.graphs:
        weights = [round(rng.uniform(0, 3), 3) for _ in g.edges]
        graphs.append(g.with_weights(weights))
    ds = type(ds)(tuple(graphs), ds.class_labels, ds.name)
    write_tud_dataset(ds, str(tmp_path), "RT")
    back = load_tud_dataset(str(tmp_path), "RT")
    assert back.class_labels == ds.class_labels
    for g, b in zip(ds.graphs, back.graphs):
        assert b.n == g.n
        assert b.edges == g.edges
        assert b.labels == g.labels
        assert b.weights == tuple(float(w) for w in g.weights)


def test_unweighted_write_removes_stale_edge_attributes(tmp_path):
    weighted = random_dataset(8, 5, max_n=9)
    weighted = type(weighted)(
        tuple(g.with_weights([1.5] * g.edge_count) for g in weighted.graphs),
        weighted.class_labels,
    )
    write_tud_dataset(weighted, str(tmp_path), "RT")
    unweighted = random_dataset(9, 7, max_n=9)
    write_tud_dataset(unweighted, str(tmp_path), "RT")
    assert not (tmp_path / "RT_edge_attributes.txt").exists()
    back = load_tud_dataset(str(tmp_path), "RT")
    assert back.graphs == unweighted.graphs
    assert back.class_labels == unweighted.class_labels


def _ptc_dir():
    for candidate in (
        os.environ.get("TUDATASET_DIR", ""),
        os.path.join(os.path.dirname(__file__), "data", "PTC_MR"),
    ):
        if candidate and os.path.isfile(os.path.join(candidate, "PTC_MR_A.txt")):
            return candidate
    return None


@pytest.mark.skipif(_ptc_dir() is None, reason="PTC_MR dataset directory not available")
def test_load_ptc_mr_statistics():
    ds = load_tud_dataset(_ptc_dir(), "PTC_MR")
    assert len(ds) == 344
    mean_v = sum(g.n for g in ds.graphs) / len(ds)
    assert abs(mean_v - 14.3) < 0.1
    labels = {lab for g in ds.graphs for lab in g.labels}
    assert len(labels) == 18
