"""Gram serialization, run manifests, and the command-line pipeline."""

import os

import numpy as np
import pytest

from wlfiltration import (
    GramMatrix,
    GraphDataset,
    KernelConfig,
    LabeledGraph,
    WeightFunctionSpec,
    build_filtration,
    gram_matrix,
    load_manifest,
    write_gram,
    write_tud_dataset,
)
from wlfiltration.cli import main, replay
from wlfiltration.gram_io import _fmt, manifest_path_for

from conftest import random_dataset, read_gram_csv


def small_gram(n: int = 4, seed: int = 3) -> GramMatrix:
    rng = np.random.default_rng(seed)
    half = rng.uniform(0.0, 2.0, size=(n, n))
    values = half @ half.T
    return GramMatrix(values, tuple(range(n)), tuple(range(n)))


def test_write_csv_single_normalized_value(tmp_path):
    matrix = GramMatrix(np.array([[1.0]]), (0,), (7,))
    path = tmp_path / "one.csv"
    write_gram(matrix, "csv", str(path))
    content = path.read_text().strip()
    assert content == "1.0000000000000000"
    assert float(content) == 1.0


def test_csv_round_trip_is_exact(tmp_path):
    matrix = small_gram()
    path = tmp_path / "gram.csv"
    write_gram(matrix, "csv", str(path))
    back = read_gram_csv(str(path))
    assert np.array_equal(back, matrix.values)


def test_libsvm_field_layout(tmp_path):
    matrix = small_gram(5)
    path = tmp_path / "gram.libsvm"
    write_gram(matrix, "libsvm", str(path))
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 5
    for i, line in enumerate(lines):
        tokens = line.split(" ")
        colon_fields = [t for t in tokens if ":" in t]
        assert len(colon_fields) == 6  # 0:<row> plus one field per column
        assert tokens[0] == str(matrix.class_labels[i])
        assert colon_fields[0] == f"0:{i + 1}"
        value = float(colon_fields[2].split(":", 1)[1])
        assert value == matrix.values[i, 1]


def test_write_gram_matches_per_entry_format(tmp_path):
    # signed zeros, a NaN, an infinity, the smallest subnormal, a huge value
    # and repeats; each distinct bit pattern is formatted once
    special = [0.0, -0.0, np.nan, np.inf, 5e-324, 1e300, 1.0 / 3.0]
    values = np.array(special * 7).reshape(7, 7)
    values[2, 3] = values[5, 1] = -0.0
    matrix = GramMatrix(values, (1, 0, 1, 1, 0, 0, 1), (1.0,))
    csv = "".join(",".join(_fmt(x) for x in row) + "\n" for row in values)
    libsvm = "".join(
        " ".join([f"{c} 0:{i + 1}"] + [f"{j + 1}:{_fmt(x)}" for j, x in enumerate(row)]) + "\n"
        for i, (c, row) in enumerate(zip(matrix.class_labels, values)))
    for fmt, want in (("csv", csv), ("libsvm", libsvm)):
        path = tmp_path / f"gram.{fmt}"
        write_gram(matrix, fmt, str(path))
        assert path.read_text(encoding="utf-8") == want
    assert "-0.0" in csv and "nan" in csv and "inf" in csv


def test_write_gram_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="format"):
        write_gram(small_gram(), "hdf5", str(tmp_path / "x"))


def _run_cli(*argv) -> int:
    return main(list(argv))


def test_cli_csl_then_compute_then_inspect(tmp_path, capsys):
    data_dir = tmp_path / "csl"
    out = tmp_path / "gram.csv"
    assert _run_cli("csl", "--out", str(data_dir), "--name", "CSL", "--copies", "1",
                    "--seed", "0") == 0
    assert _run_cli(
        "compute", "--dataset", str(data_dir), "--name", "CSL",
        "--weights", "walks", "--lambda", "7", "--k", "auto", "--h", "1",
        "--gamma", "1.0", "--out", str(out),
    ) == 0
    captured = capsys.readouterr().out
    assert "thresholds (k=18):" in captured
    assert out.is_file()
    manifest = load_manifest(manifest_path_for(str(out)))
    assert len(manifest.thresholds) == 18
    matrix = read_gram_csv(str(out))
    assert matrix.shape == (10, 10)

    # CSL graphs are 4-regular: degree weights take one value, so k=2 shrinks to 1
    with pytest.warns(UserWarning, match="filtration length reduced"):
        assert _run_cli(
            "inspect", "--dataset", str(data_dir), "--name", "CSL",
            "--weights", "degree", "--k", "2", "--h", "1",
        ) == 0
    inspect_out = capsys.readouterr().out
    assert "thresholds" in inspect_out
    assert "level 1:" in inspect_out
    assert "table sizes" in inspect_out


def test_cli_inspect_csl_output_is_unchanged(tmp_path, capsys):
    # printed by the earlier path that reweighted once to fit and again to count
    expected = (
        "graphs: 10\n"
        "thresholds (k=4): 2296 1890 1435 1335\n"
        "level 1: alpha=2296 edges=41\n"
        "level 2: alpha=1890 edges=164\n"
        "level 3: alpha=1435 edges=328\n"
        "level 4: alpha=1335 edges=820\n"
        "features: 7 distinct labels\n"
        "table sizes: min=5 mean=5.4 max=7\n"
    )
    data_dir = tmp_path / "csl"
    assert _run_cli("csl", "--out", str(data_dir), "--name", "CSL", "--copies", "1",
                    "--seed", "0") == 0
    capsys.readouterr()
    assert _run_cli("inspect", "--dataset", str(data_dir), "--name", "CSL",
                    "--weights", "walks", "--lambda", "7", "--k", "4", "--h", "2") == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("k", ["1", "auto"])
def test_cli_edgeless_dataset_gives_histogram_kernel(tmp_path, capsys, k):
    labels = [(0,), (0, 0, 1), (1, 1)]
    dataset = GraphDataset(
        tuple(LabeledGraph.build(len(ls), [], ls) for ls in labels), (0, 1, 0)
    )
    write_tud_dataset(dataset, str(tmp_path), "E")
    out = tmp_path / "e.csv"
    assert _run_cli("compute", "--dataset", str(tmp_path), "--name", "E", "--k", k,
                    "--h", "1", "--out", str(out)) == 0
    assert "thresholds (k=1): 0.0" in capsys.readouterr().out
    assert load_manifest(manifest_path_for(str(out))).thresholds == (0.0,)
    # h=1 on edgeless graphs: each depth-1 label renames one depth-0 label
    counts = np.array([[ls.count(0), ls.count(1)] for ls in labels], dtype=float)
    np.testing.assert_array_equal(read_gram_csv(str(out)), 2 * counts @ counts.T)

    assert _run_cli("inspect", "--dataset", str(tmp_path), "--name", "E", "--k", k,
                    "--h", "0") == 0
    assert "level 1: alpha=0.0 edges=0" in capsys.readouterr().out


def test_cli_one_vertex_graph(tmp_path):
    dataset = GraphDataset((LabeledGraph.build(1, []),), (1,))
    write_tud_dataset(dataset, str(tmp_path), "V")
    out = tmp_path / "v.csv"
    assert _run_cli("compute", "--dataset", str(tmp_path), "--name", "V", "--k", "1",
                    "--h", "2", "--out", str(out)) == 0
    assert read_gram_csv(str(out)).tolist() == [[3.0]]


def test_cli_rejects_k_zero(tmp_path):
    with pytest.raises(SystemExit) as exc:
        _run_cli("compute", "--dataset", str(tmp_path), "--name", "X",
                 "--k", "0", "--out", str(tmp_path / "o.csv"))
    assert exc.value.code == 2


@pytest.mark.parametrize("flags", [["--gamma", "inf"], ["--gamma", "nan"],
                                   ["--variant", "product", "--beta", "inf"]])
def test_cli_rejects_non_finite_decays(tmp_path, mini_tud_dir, capsys, flags):
    out = tmp_path / "o.csv"
    code = _run_cli("compute", "--dataset", mini_tud_dir, "--name", "MINI20", *flags,
                    "--out", str(out))
    assert code == 1
    assert "must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_cli_errors_exit_nonzero(tmp_path, capsys):
    code = _run_cli("compute", "--dataset", str(tmp_path / "missing"), "--name", "X",
                    "--out", str(tmp_path / "o.csv"))
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_cli_csl_deterministic_files(tmp_path):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    for d in (dir_a, dir_b):
        assert _run_cli("csl", "--out", str(d), "--name", "C", "--copies", "2",
                        "--seed", "11", "--n", "13", "--s", "3") == 0
    for fname in sorted(os.listdir(dir_a)):
        assert (dir_a / fname).read_bytes() == (dir_b / fname).read_bytes()


def test_manifest_replay_reproduces_gram_bytes(tmp_path, mini_tud_dir, capsys):
    out = tmp_path / "mini.csv"
    assert _run_cli(
        "compute", "--dataset", mini_tud_dir, "--name", "MINI20",
        "--weights", "degree", "--k", "3", "--h", "2", "--gamma", "1.0",
        "--out", str(out), "--format", "csv",
    ) == 0
    first = out.read_bytes()
    replay(manifest_path_for(str(out)))
    assert out.read_bytes() == first


def test_manifest_keeps_integer_thresholds_exact(tmp_path):
    # walks of length <= 60 on a triangle number about 2**60, beyond exact floats
    graphs = (LabeledGraph.build(3, [(0, 1), (1, 2), (2, 0)]),
              LabeledGraph.build(3, [(0, 1), (1, 2)]), LabeledGraph.build(2, [(0, 1)]))
    dataset = GraphDataset(graphs, (0, 1, 0))
    write_tud_dataset(dataset, str(tmp_path), "T")
    out = tmp_path / "t.csv"
    assert _run_cli("compute", "--dataset", str(tmp_path), "--name", "T", "--weights", "walks",
                    "--lambda", "60", "--out", str(out)) == 0
    spec = WeightFunctionSpec("walks", walk_length=60)
    filtration = build_filtration(dataset, spec, "auto")
    assert any(float(t) != t for t in filtration.thresholds)
    thresholds = load_manifest(manifest_path_for(str(out))).thresholds
    assert thresholds == filtration.thresholds
    assert all(type(t) is int for t in thresholds)


def test_cli_threads_do_not_change_output(tmp_path, mini_tud_dir):
    outs = []
    for threads in ("1", "4"):
        out = tmp_path / f"t{threads}.csv"
        assert _run_cli(
            "compute", "--dataset", mini_tud_dir, "--name", "MINI20",
            "--weights", "walks", "--lambda", "2", "--k", "4", "--h", "2",
            "--out", str(out), "--threads", threads,
        ) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_compute_and_gram_matrix_weigh_each_graph_once(tmp_path, mini_tud_dir, monkeypatch):
    from wlfiltration import filtration, kernels

    passes = []
    original = filtration.dataset_weights

    def counting(dataset, spec):
        # a native spec reads the weights the graphs carry; only the others compute
        if spec.kind != "native":
            passes.append(len(dataset))
        return original(dataset, spec)

    def alone(*args):
        raise AssertionError("a graph was weighed on its own")

    for module in (filtration, kernels):
        monkeypatch.setattr(module, "dataset_weights", counting)
    # small graphs and lambda=3 are within the batched pass's bounds
    monkeypatch.setattr(filtration, "_walk_totals", alone)
    assert _run_cli(
        "compute", "--dataset", mini_tud_dir, "--name", "MINI20",
        "--weights", "walks", "--lambda", "3", "--k", "3", "--h", "1",
        "--out", str(tmp_path / "w.csv"),
    ) == 0
    assert passes == [20]

    passes.clear()
    ds = random_dataset(34, 6, max_n=7)
    gram_matrix(ds, WeightFunctionSpec("walks", walk_length=3), 2, KernelConfig(h=1))
    assert passes == [len(ds)]


@pytest.mark.parametrize("weights", ["native", "degree", "walks"])
def test_compute_and_inspect_build_no_labeled_graph(tmp_path, mini_tud_dir, monkeypatch,
                                                     weights):
    # TUDataset files stay flat arrays from the loader to the Gram matrix
    csl_dir = str(tmp_path / "csl")
    assert _run_cli("csl", "--out", csl_dir, "--name", "CSL", "--copies", "2",
                    "--seed", "0") == 0

    def refuse(self):
        raise AssertionError("a LabeledGraph was built")

    monkeypatch.setattr(LabeledGraph, "__post_init__", refuse)
    for directory, name in ((mini_tud_dir, "MINI20"), (csl_dir, "CSL")):
        flags = ["--dataset", directory, "--name", name, "--weights", weights,
                 "--lambda", "3", "--k", "auto", "--h", "2"]
        assert _run_cli("compute", *flags, "--out", str(tmp_path / f"{name}.csv")) == 0
        assert _run_cli("inspect", *flags) == 0


def test_libsvm_field_count_small(tmp_path):
    ds = random_dataset(33, 8, max_n=7)
    matrix = gram_matrix(ds, WeightFunctionSpec("degree"), 2, KernelConfig(h=1))
    path = tmp_path / "g.libsvm"
    write_gram(matrix, "libsvm", str(path))
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 8
    assert all(len([t for t in line.split() if ":" in t]) == 9 for line in lines)


def test_libsvm_csl_benchmark_100_lines(tmp_path):
    from wlfiltration import generate_csl_benchmark

    ds = generate_csl_benchmark(copies=10, seed=0)
    matrix = gram_matrix(
        ds, WeightFunctionSpec("walks", walk_length=2), "auto", KernelConfig(h=1)
    )
    path = tmp_path / "csl.libsvm"
    write_gram(matrix, "libsvm", str(path))
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 100
    assert all(len([t for t in line.split() if ":" in t]) == 101 for line in lines)
    # class label leads each line
    assert lines[0].split()[0] == str(ds.class_labels[0])
