"""Gram bytes pinned across versions, and the package version in one place.

The digests were recorded with version 0.2.0, before assembly read the
dataset-level feature counts; a change that moves any Gram entry by one ulp
changes them.
"""

import hashlib
import os
import re

import pytest

from wlfiltration import __version__, graphs
from wlfiltration.cli import main

MINI = ["--name", "MINI20", "--weights", "degree", "--k", "4", "--h", "2"]
GOLDEN = {
    "linear-csv": (MINI + ["--format", "csv"],
                   "bd2fc1f59873e9bbd8f828cb226aed5b3cb2f6f3e30d30bbb57aedda531a0744"),
    "linear-libsvm": (MINI + ["--format", "libsvm"],
                      "ad0e4bd85d1506e5122304442447487df338d783091bb6742e230a3e51ba10e4"),
    "product-normalize": (MINI + ["--variant", "product", "--normalize"],
                          "871f4060863d950e16d369b3ffd4327a90a3be0335b82de6ce1bbae5330ad8a8"),
}
CSL20_WALKS = "227cf5906dfe953c213007bebd30852d856118d07ee61d9abc1170005eeee233"


def _digest(argv, out) -> str:
    assert main(["compute", *argv, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("run", sorted(GOLDEN))
def test_mini_gram_bytes_are_golden(tmp_path, mini_tud_dir, run):
    argv, want = GOLDEN[run]
    assert _digest(["--dataset", mini_tud_dir, *argv], tmp_path / "gram") == want


def test_mini_gram_bytes_through_the_line_reader(tmp_path, mini_tud_dir, monkeypatch):
    # tabs are outside the bulk grammar; CRLF line ends alone are not
    data = tmp_path / "crlf"
    data.mkdir()
    names = [f"MINI20_{key}.txt" for key in ("A", "graph_indicator", "graph_labels", "node_labels")]
    assert sorted(f for f in os.listdir(mini_tud_dir) if f.startswith("MINI20_")) == names
    for file_name in names:
        with open(os.path.join(mini_tud_dir, file_name), encoding="utf-8", newline="") as fh:
            text = fh.read()
        assert "\r" not in text and "\t" not in text
        text = text.replace(", ", ",\t").replace("\n", "\t\r\n")
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
