"""Gram bytes pinned across versions, the package version in one place, and
the public names of the package.

The digests were recorded with version 0.2.0, before assembly read the
dataset-level feature counts; a change that moves any Gram entry by one ulp
changes them. The two linear digests were recorded again with version
0.15.0: feature ids are since numbered from the set of WL keys alone, not
by first occurrence in graph order, and each linear entry sums its feature
terms in id order, so 20 of the 400 entries of the MINI20 linear Gram moved
by at most 2 ulp. The product and CSL digests did not move.

All four digests were recorded again with version 0.20.0, when the writer
moved from numpy's zero-padded positional digits to '%.17g' (no trailing
zeros, exponent form below 1e-4 and from 1e17 up). Only the text moved: the
0.19.0 and 0.20.0 files of every golden run parse to bit-identical matrices.
"""

import hashlib
import os
import re

import pytest

import wlfiltration
from wlfiltration import __version__, graphs
from wlfiltration.cli import main

MINI = ["--name", "MINI20", "--weights", "degree", "--k", "4", "--h", "2"]
GOLDEN = {
    "linear-csv": (MINI + ["--format", "csv"],
                   "3a07a23f2dc31c19c8e901898443c956b84e2171e282ef52b44d737fd4411805"),
    "linear-libsvm": (MINI + ["--format", "libsvm"],
                      "4da91511690b1da9a7a63dcd1001e99bb85c5fed57f71a624f591e1f820e2243"),
    "product-normalize": (MINI + ["--variant", "product", "--normalize"],
                          "41e2db2d2316f84f23c0ed9fe437d161514dfa8d9c3df077ef2236a65ae26ffe"),
}
CSL20_WALKS = "6afaa27e61df666cbe581e6062cd8089d9ba4f5ca5ae7b15c86eafd48f60043e"


def _digest(argv, out) -> str:
    assert main(["compute", *argv, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("run", sorted(GOLDEN))
def test_mini_gram_bytes_are_golden(tmp_path, mini_tud_dir, run):
    argv, want = GOLDEN[run]
    assert _digest(["--dataset", mini_tud_dir, *argv], tmp_path / "gram") == want


def test_mini_gram_bytes_through_the_line_reader(tmp_path, mini_tud_dir, monkeypatch):
    # a blank line after each line sends every file to the line reader; tabs and
    # CRLF line ends alone do not
    data = tmp_path / "crlf"
    data.mkdir()
    names = [f"MINI20_{key}.txt" for key in ("A", "graph_indicator", "graph_labels", "node_labels")]
    assert sorted(f for f in os.listdir(mini_tud_dir) if f.startswith("MINI20_")) == names
    for file_name in names:
        with open(os.path.join(mini_tud_dir, file_name), encoding="utf-8", newline="") as fh:
            text = fh.read()
        assert "\r" not in text and "\t" not in text
        text = text.replace(", ", ",\t").replace("\n", "\t\r\n\r\n")
        (data / file_name).write_bytes(text.encode())
    read = set()
    parse = graphs._parse_lines

    def recording(path, kind):
        read.add(os.path.basename(path))
        return parse(path, kind)

    monkeypatch.setattr(graphs, "_parse_lines", recording)
    argv, want = GOLDEN["linear-csv"]
    assert _digest(["--dataset", str(data), *argv], tmp_path / "gram") == want
    assert sorted(read) == names


def test_csl20_walks_gram_bytes_are_golden(tmp_path):
    data = tmp_path / "csl"
    assert main(["csl", "--out", str(data), "--name", "CSL", "--copies", "2", "--seed", "0"]) == 0
    argv = ["--dataset", str(data), "--name", "CSL", "--weights", "walks", "--lambda", "7",
            "--k", "auto", "--h", "2"]
    assert _digest(argv, tmp_path / "gram") == CSL20_WALKS


def test_pyproject_version_matches_package():
    path = os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")
    with open(path, encoding="utf-8") as fh:
        declared = re.search(r'^version = "([^"]+)"$', fh.read(), re.MULTILINE).group(1)
    assert declared == __version__


# the pipeline's names; the oracles that only tests call live in tests/
PUBLIC_NAMES = {
    "DatasetFormatError", "FeatureCounts", "Filtration", "GramMatrix", "GraphDataset",
    "KernelConfig", "LabeledGraph", "RunManifest", "WeightFunctionSpec",
    "build_filtration", "csl_graph", "dataset_weights", "extract_all", "fit_thresholds",
    "generate_csl", "generate_csl_benchmark", "gram_matrix",
    "load_manifest", "load_tud_dataset", "permute_graph", "reweight",
    "wasserstein_cdf_points", "write_gram", "write_tud_dataset",
}


def test_kernels_still_binds_build_filtration():
    # perfbench/worker.py wraps and calls it as kernels.build_filtration
    from wlfiltration import filtration, kernels

    assert kernels.build_filtration is filtration.build_filtration


def test_public_names_are_pinned():
    assert len(wlfiltration.__all__) == len(PUBLIC_NAMES) == 24
    assert set(wlfiltration.__all__) == PUBLIC_NAMES
    for name in wlfiltration.__all__:
        assert getattr(wlfiltration, name) is not None
