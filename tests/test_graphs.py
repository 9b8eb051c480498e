"""Graph construction, permutation, and TUDataset ingestion."""

import math
import os
import random
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlfiltration import (
    DatasetFormatError,
    GraphDataset,
    LabeledGraph,
    load_tud_dataset,
    permute_graph,
    write_tud_dataset,
)
from wlfiltration import graphs
from wlfiltration.csl import csl_graph, generate_csl_benchmark

from conftest import path3, random_dataset, random_graph
from tud_reference import load_lines


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


def test_with_weights_checks_the_new_weights():
    g = path3(1.0, 2.0)
    h = g.with_weights([3, 4.5])
    assert h == LabeledGraph(3, g.edges, g.labels, (3, 4.5))
    assert h.adjacency == g.adjacency
    for bad, match in (([1.0], "expected 2 edge weights"), ([1.0, -1.0], "negative"),
                       ([math.nan, 1.0], "not finite"), ([1.0, math.inf], "not finite")):
        with pytest.raises(ValueError, match=match):
            g.with_weights(bad)


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


# The loader against the reference line parser of `tud_reference`. Each case
# is a dataset whose files are the TUDataset text of a small weighted
# dataset, one of them edited. `load_tud_dataset` must give what
# `load_lines` gives: the same dataset (compared by repr, so int/float types
# count) with the same warnings, or the same error.

def _base_files(weighted: bool = True) -> dict[str, str]:
    """Three graphs on vertices 1-3, 4-5 and 6-9, as TUDataset file texts."""
    files = {
        "A": "1, 2\n2, 1\n2, 3\n3, 2\n4, 5\n5, 4\n6, 7\n7, 6\n8, 9\n9, 8\n6, 9\n9, 6\n",
        "graph_indicator": "1\n1\n1\n2\n2\n3\n3\n3\n3\n",
        "graph_labels": "1\n0\n1\n",
        "node_labels": "5\n6\n5\n0\n1\n2\n2\n3\n7\n",
    }
    if weighted:
        files["edge_attributes"] = (
            "0.5\n0.5\n1.25\n1.25\n3.0\n3.0\n1e-05\n1e-05\n0.1\n0.1\n7.0\n7.0\n")
    return files


def _edit(key, old, new):
    """Replace the first `old` in one file."""
    def apply(files):
        assert old in files[key]
        files[key] = files[key].replace(old, new, 1)
    return apply


def _edit_all(old, new):
    def apply(files):
        for key in files:
            files[key] = files[key].replace(old, new)
    return apply


def _drop(key):
    def apply(files):
        del files[key]
    return apply


def _set(key, text):
    def apply(files):
        files[key] = text
    return apply


# (case id, edit, whether no file goes to the line reader `_parse_lines`)
_LOADER_CASES = [
    ("as written", None, True),
    ("unweighted", _drop("edge_attributes"), True),
    ("no node labels", _drop("node_labels"), True),
    ("no final newline", lambda f: f.update((k, v.rstrip("\n")) for k, v in f.items()), True),
    ("comma without space", _edit_all(", ", ","), True),
    ("no edges", lambda f: f.update(A="", edge_attributes=""), True),
    ("edgeless and empty files", lambda f: f.update(A="", edge_attributes="\n"), True),
    ("negative class labels", _set("graph_labels", "-1\n1\n-1\n"), True),
    ("negative node label", _edit("node_labels", "7\n", "-7\n"), True),
    ("leading zeros", _edit("graph_labels", "0\n", "007\n"), True),
    ("18 digits", _edit("graph_labels", "0\n", "999999999999999999\n"), True),
    ("zero-padded to 22 digits", _edit("graph_labels", "0\n", "0000000000000000000003\n"), True),
    ("interleaved graphs", lambda f: f.update(
        A="3, 1\n1, 3\n4, 2\n2, 4\n5, 2\n2, 5\n", graph_indicator="1\n2\n1\n2\n2\n",
        graph_labels="0\n1\n", node_labels="1\n2\n3\n4\n5\n",
        edge_attributes="1.0\n1.0\n2.0\n2.0\n0.5\n0.5\n"), True),
    ("graph without vertices", lambda f: f.update(graph_labels="1\n0\n1\n4\n"), True),
    ("attribute forms", _set("edge_attributes", "5.\n5.\n.5\n.5\n1E+2\n1E+2\n1e-3\n1e-3\n"
                                                 "-0.0\n-0.0\n2\n2\n"), True),
    ("second direction first", _edit("A", "1, 2\n2, 1\n", "2, 1\n1, 2\n"), True),
    ("directions weighted apart", _edit("edge_attributes", "0.5\n0.5\n", "0.5\n0.75\n"), True),
    ("one direction only", _edit("A", "2, 1\n", ""), True),
    ("crlf", _edit_all("\n", "\r\n"), True),
    ("blank lines", _edit("graph_indicator", "1\n1\n", "1\n\n1\n"), False),
    ("blank final line", _edit("graph_labels", "1\n0\n1\n", "1\n0\n1\n\n"), False),
    ("leading blank line", _edit("A", "1, 2", "\n1, 2"), False),
    ("tab", _edit("A", "1, 2", "1,\t2"), False),
    ("trailing space", _edit("A", "1, 2", "1, 2 "), False),
    ("plus sign", _edit("graph_labels", "0\n", "+5\n"), False),
    ("underscore", _edit("graph_labels", "0\n", "1_000\n"), False),
    ("non-ASCII digit", _edit("graph_labels", "0\n", "١\n"), False),
    ("space inside a number", _edit("A", "8, 9", "8, 9 9"), False),
    ("two commas", _edit("A", "1, 2", "1, 2, 3"), False),
    ("no comma", _edit("A", "1, 2", "12"), False),
    ("two commas, then none", _edit("A", "1, 2\n2, 1\n", "1, 2, 2\n1\n"), False),
    ("comma first", _edit("A", "1, 2", ", 2"), False),
    ("comma last", _edit("A", "1, 2", "1, "), False),
    ("double space", _edit("A", "1, 2", "1,  2"), False),
    ("negative vertex id", _edit("A", "1, 2", "-1, 2"), False),
    ("zero vertex id", _edit("A", "1, 2", "0, 2"), True),
    ("vertex id above range", _edit("A", "1, 2", "1, 10"), True),
    ("vertex id of 2**63", _edit("A", "1, 2", "9223372036854775808, 2"), False),
    ("class label of 2**63", _edit("graph_labels", "0\n", "9223372036854775808\n"), False),
    ("node label of 2**64 + 1", _edit("node_labels", "7\n", "18446744073709551617\n"), False),
    ("node label of -2**63", _edit("node_labels", "7\n", "-9223372036854775808\n"), False),
    ("19 digits", _edit("graph_labels", "0\n", "1000000000000000000\n"), False),
    ("minus inside a line", _edit("graph_labels", "0\n", "5-3\n"), False),
    ("lone minus", _edit("graph_labels", "0\n", "-\n"), False),
    ("parallel directed pair", _edit("A", "2, 1\n", "1, 2\n"), True),
    ("cross-graph edge", _edit("A", "4, 5", "3, 5"), True),
    ("self-loop", _edit("A", "1, 2", "2, 2"), True),
    ("indicator out of range", _edit("graph_indicator", "3\n", "4\n"), True),
    ("indicator of zero", _edit("graph_indicator", "1\n", "0\n"), True),
    ("no graphs", _set("graph_labels", ""), True),
    ("node label count", _edit("node_labels", "7\n", ""), True),
    ("two node label columns", _edit_all("\n5\n", "\n5, 1\n"), False),
    ("attribute count", _edit("edge_attributes", "7.0\n", ""), True),
    ("NaN attribute", _edit("edge_attributes", "3.0\n3.0", "nan\nnan"), False),
    ("inf attribute", _edit("edge_attributes", "3.0\n3.0", "inf\ninf"), False),
    ("overflowing attribute", _edit("edge_attributes", "3.0\n3.0", "1e400\n1e400"), True),
    ("negative attribute", _edit("edge_attributes", "3.0\n3.0", "-3.0\n-3.0"), True),
    ("hex attribute", _edit("edge_attributes", "3.0", "0x1p3"), False),
    ("two dots", _edit("edge_attributes", "3.0", "3.0.0"), False),
    ("bare exponent", _edit("edge_attributes", "3.0", "e5"), False),
    ("underscore attribute", _edit("edge_attributes", "3.0", "3_0.0"), False),
    ("multi-column attributes", _edit_all(".5\n", ".5, 9, 9\n"), False),
    ("wide attribute line after a fault", _set("edge_attributes", "0.5\n0.5\nq\n1.25, 9\n"
                                                 "3.0\n3.0\n1e-05\n1e-05\n0.1\n0.1\n7.0\n7.0\n"),
     False),
    ("wide attribute line at a fault", _set("edge_attributes", "0.5\n0.5\n-1, 9\n1.25\n"
                                              "3.0\n3.0\n1e-05\n1e-05\n0.1\n0.1\n7.0\n7.0\n"),
     False),
    ("attribute after blank lines", lambda f: f.update(A="1, 2\n2, 1\n",
                                                        edge_attributes="1.5\n\n\nq\n"), False),
    ("attribute after blank CRLF lines", lambda f: f.update(
        A="1, 2\n2, 1\n", edge_attributes="1.5\r\n\r\n\r\nq\r\n"), False),
    ("edge fault before a token fault", _edit("A", "2, 3\n3, 2\n", "2, 2\n3, x\n"), False),
    ("token fault before an edge fault", _edit("A", "2, 3\n3, 2\n", "2, x\n3, 3\n"), False),
    ("self-loop after a blank line", _edit("A", "2, 3\n3, 2\n", "\n2, 3\n3, 3\n"), False),
    ("negative attribute after a blank line", _edit("edge_attributes", "3.0\n3.0",
                                                    "\n-3.0\n-3.0"), False),
    ("token fault after a blank line", _edit("A", "2, 3\n3, 2\n4, 5\n",
                                             "2, 3\n\n3, 2\n4, 5, 6\n"), False),
]


def _write_files(directory, name, files) -> None:
    for key, text in files.items():
        with open(os.path.join(directory, f"{name}_{key}.txt"), "w", encoding="utf-8",
                  newline="") as fh:
            fh.write(text)


def _outcome(load, *args):
    """repr of the loaded dataset or of the error, and the warning texts."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = repr(load(*args))
        except Exception as exc:  # the two loaders must fail alike, whatever the error
            result = f"{type(exc).__name__}: {exc}"
    return result, [str(w.message) for w in caught]


def _assert_loaders_agree(directory, name) -> bool:
    """Whether no file went to the line reader; asserts the loader matches the reference."""
    want = _outcome(load_lines, graphs._dataset_paths(directory, name), name)
    read = []
    parse = graphs._parse_lines

    def recording(path, kind):
        read.append(path)
        return parse(path, kind)

    with mock.patch.object(graphs, "_parse_lines", recording):
        assert _outcome(load_tud_dataset, directory, name) == want
    return not read


@pytest.mark.parametrize("edit, bulk", [(e, b) for _, e, b in _LOADER_CASES],
                         ids=[case for case, _, _ in _LOADER_CASES])
def test_bulk_loader_matches_line_parser(tmp_path, edit, bulk):
    files = _base_files()
    if edit is not None:
        edit(files)
    _write_files(str(tmp_path), "X", files)
    assert _assert_loaders_agree(str(tmp_path), "X") == bulk


def test_bulk_loader_warns_once_for_extra_attribute_columns(tmp_path):
    files = _base_files()
    _edit_all(".5\n", ".5, 9\n")(files)
    _write_files(str(tmp_path), "X", files)
    with pytest.warns(UserWarning, match="first of 2 columns") as caught:
        ds = load_tud_dataset(str(tmp_path), "X")
    assert len(caught) == 1
    assert ds.graphs[0].weights == (0.5, 1.25)


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_load_names_the_true_line_after_blank_lines(tmp_path, newline):
    files = _base_files()
    files.update(A="1, 2\n2, 1\n", edge_attributes=newline.join(["1.5", "", "", "q", ""]))
    _write_files(str(tmp_path), "X", files)
    with pytest.raises(DatasetFormatError) as caught:
        load_tud_dataset(str(tmp_path), "X")
    assert str(caught.value) == "X_edge_attributes.txt:4: non-numeric token 'q'"


def _edgeless_dataset():
    graphs_ = tuple(LabeledGraph.build(n, [], [n % 3] * n) for n in (1, 4, 0, 2))
    return GraphDataset(graphs_, (0, 1, 1, 0), "edgeless")


def _weighted_random_dataset():
    ds = random_dataset(31, 12, max_n=12)
    rng = random.Random(31)
    graphs_ = tuple(g.with_weights([rng.uniform(0, 5) for _ in g.edges]) for g in ds.graphs)
    return GraphDataset(graphs_, ds.class_labels, ds.name)


@pytest.mark.parametrize("make", [_weighted_random_dataset,
                                  lambda: generate_csl_benchmark(copies=1),
                                  _edgeless_dataset], ids=["weighted", "csl", "edgeless"])
def test_written_files_never_reach_the_line_reader(tmp_path, monkeypatch, make):
    dataset = make()
    write_tud_dataset(dataset, str(tmp_path), "W")

    def refuse(path, kind):
        raise AssertionError(f"{path} went to the line reader")

    monkeypatch.setattr(graphs, "_parse_lines", refuse)
    back = load_tud_dataset(str(tmp_path), "W")
    assert back.graphs == dataset.graphs
    assert back.class_labels == dataset.class_labels
    # the loader builds the arrays that the in-memory graphs give
    for key in ("sizes", "edge_counts", "labels", "ends", "weights"):
        np.testing.assert_array_equal(getattr(back, key), getattr(dataset, key))
        assert getattr(back, key).dtype == (np.float64 if key == "weights" else np.int64)
    # the same files with CRLF line ends, as saved on Windows
    for path in tmp_path.iterdir():
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    back = load_tud_dataset(str(tmp_path), "W")
    assert back.graphs == dataset.graphs
    assert back.class_labels == dataset.class_labels


@pytest.mark.parametrize("weights, dtype", [
    ([0.5, 2.0], np.float64), ([], np.float64), ([3, 0], np.int64), ([2**63, 1], np.uint64),
    ([2**60, 0.5], object), ([2**64, 1], object),
])
def test_dataset_weight_column_is_exact(weights, dtype):
    graphs_ = (LabeledGraph.build(3, [(0, 1), (1, 2)][:len(weights)], weights=weights),
               LabeledGraph.build(2, []))
    dataset = GraphDataset(graphs_, (0, 1))
    assert dataset.weights.dtype == dtype
    assert dataset.weights.tolist() == weights
    # the view of the arrays gives back each weight with its type
    view = dataset._with_weights(dataset.weights).graphs
    assert view == graphs_
    assert [type(w) for w in view[0].weights] == [type(w) for w in weights]


def test_pair_keys_stay_exact_past_int64():
    a, b = np.array([3, 0, 3]), np.array([1, 2, 0])
    n = 2**62  # 3 * n + 1 is past the int64 range
    keys = graphs._pair_keys(a, b, n)
    assert keys.tolist() == [3 * n + 1, 2, 3 * n]
    assert np.argsort(keys, kind="stable").tolist() == [1, 2, 0]
    assert graphs._pair_keys(a, b, 4).dtype == np.int64


_FUZZ_ALPHABET = "0123456789,- \n\r\t+._eE١"


@settings(max_examples=300, deadline=None)
@given(weighted=st.booleans(), key=st.sampled_from(
           ["A", "graph_indicator", "graph_labels", "node_labels", "edge_attributes"]),
       at=st.floats(0, 1), drop=st.integers(0, 2),
       insert=st.text(_FUZZ_ALPHABET, max_size=3))
def test_bulk_loader_matches_line_parser_on_random_edits(weighted, key, at, drop, insert):
    files = _base_files(weighted)
    if key in files:
        text = files[key]
        i = int(at * len(text))
        files[key] = text[:i] + insert + text[i + drop:]
    with tempfile.TemporaryDirectory() as directory:
        _write_files(directory, "X", files)
        _assert_loaders_agree(directory, "X")


def test_bulk_float_parse_is_float():
    rng = random.Random(41)
    values = [rng.uniform(0, 10) for _ in range(300)]
    values += [rng.expovariate(1) * 10.0 ** rng.randint(-300, 300) for _ in range(300)]
    values += [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3]
    texts = [repr(v) for v in values] + ["0.1000000000000000055511151231257827", "1" * 40]
    assert len(texts) == 607
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "X_edge_attributes.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(texts) + "\n")
        got = graphs._bulk_floats(path)
    assert got == [float(t) for t in texts]
    assert all(type(v) is float for v in got)
