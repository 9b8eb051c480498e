"""Gram-matrix serialization (csv, libsvm precomputed-kernel) and run manifests."""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .kernels import GramMatrix

FORMATS = ("csv", "libsvm")


def _fmt(value: float) -> str:
    """17 significant digits, zero-padded: parses back to the identical float."""
    return np.format_float_positional(
        value, precision=17, unique=False, fractional=False, trim="k"
    )


def write_gram(matrix: GramMatrix, fmt: str, path: str) -> None:
    """Serialize a Gram matrix.

    csv: one row per line, comma-separated. libsvm: the precomputed-kernel
    convention `<class> 0:<row> 1:K(i,1) ... n:K(i,n)` with 1-based indices,
    ready for an SVM with a precomputed-kernel interface.

    Each distinct value is formatted once, keyed by its bit pattern (so
    -0.0 and 0.0 stay apart), and the rows are gathered from those strings
    and written one at a time.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    values = np.ascontiguousarray(matrix.values, dtype=np.float64)
    n = len(values)
    bits, which = np.unique(values.view(np.uint64), return_inverse=True)
    text = np.fromiter(map(_fmt, bits.view(np.float64)), dtype=object, count=len(bits))
    del bits
    which = which.reshape(n, n)
    if fmt == "libsvm":
        columns = np.array([f"{j + 1}:" for j in range(n)], dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n):
            if fmt == "csv":
                fh.write(",".join(text[which[i]]) + "\n")
            else:
                fh.write(f"{matrix.class_labels[i]} 0:{i + 1} "
                         + " ".join(columns + text[which[i]]) + "\n")
        if n == 0:
            fh.write("\n")


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


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce one kernel-computation run."""

    dataset_path: str
    dataset_name: str
    weights: str
    walk_length: int
    k: str  # integer as text, or "auto"
    h: int
    gamma: float
    beta: float
    variant: str
    normalize: bool
    output_format: str
    output_path: str
    threads: int
    thresholds: tuple[int | float, ...]  # as fitted: integer thresholds stay exact
    wall_time_seconds: float

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2)
            fh.write("\n")


def manifest_path_for(output_path: str) -> str:
    return output_path + ".manifest.json"


def load_manifest(path: str) -> RunManifest:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["thresholds"] = tuple(raw["thresholds"])
    return RunManifest(**raw)


def ensure_parent_dir(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
