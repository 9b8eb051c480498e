"""Gram-matrix serialization (csv, libsvm precomputed-kernel) and run manifests."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import get_type_hints

import numpy as np

from .kernels import GramMatrix

FORMATS = ("csv", "libsvm")

# Distinct values formatted per '%' call; bounds the chunk's temporaries.
_FORMAT_CHUNK = 1 << 14


def write_gram(matrix: GramMatrix, fmt: str, path: str) -> None:
    """Serialize a Gram matrix.

    csv: one row per line, comma-separated. libsvm: the precomputed-kernel
    convention `<class> 0:<row> 1:K(i,1) ... n:K(i,n)` with 1-based indices,
    ready for an SVM with a precomputed-kernel interface.

    Every value is written as '%.17g' writes it: 17 significant digits,
    correctly rounded, so that it parses back to the identical float, with
    no trailing zeros, and in exponent form below 1e-4 and from 1e17 up
    (1, -0, 0.25, 1.0000000000000001e-05, nan, inf). Each distinct value is
    formatted once, keyed by its bit pattern (so -0.0 and 0.0 stay apart),
    in chunks with one C-level '%' call each; each row is built with one
    join and written on its own. The values must be n x n for n class
    labels; this is checked before the file is opened.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    values = np.ascontiguousarray(matrix.values, dtype=np.float64)
    n = len(matrix.class_labels)
    if values.shape != (n, n):
        raise ValueError(f"Gram values have shape {values.shape}, "
                         f"expected ({n}, {n}) for {n} class labels")
    bits, which = np.unique(values.view(np.uint64), return_inverse=True)
    # the n x n index is held while the strings are made: narrow it first
    which = which.reshape(n, n).astype(np.min_scalar_type(len(bits)))
    distinct = bits.view(np.float64)
    text = np.empty(len(bits), dtype=object)
    for lo in range(0, len(bits), _FORMAT_CHUNK):
        part = tuple(distinct[lo:lo + _FORMAT_CHUNK].tolist())
        text[lo:lo + len(part)] = ("%.17g\n" * len(part) % part).split("\n")[:-1]
    del bits, distinct
    if fmt == "libsvm":
        # <class> 0:<row>, then " j:" before cell j, then the newline
        row = np.empty(2 * n + 2, dtype=object)
        row[1::2] = [f" {j + 1}:" for j in range(n)] + ["\n"]
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n):
            if fmt == "csv":
                fh.write(",".join(text[which[i]].tolist()) + "\n")
            else:
                row[0] = f"{matrix.class_labels[i]} 0:{i + 1}"
                row[2::2] = text[which[i]]
                fh.write("".join(row.tolist()))
        if n == 0:
            fh.write("\n")


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


def _json_fits(value, kind) -> bool:
    """Whether a JSON value fits a `RunManifest` field of type `kind`: a bool
    is no number, an int fits a float field, and the thresholds, the one
    field of another type, take a list of numbers."""
    if kind not in (str, int, float, bool):
        return isinstance(value, list) and all(_json_fits(v, float) for v in value)
    takes = (int, float) if kind is float else kind
    return isinstance(value, takes) and isinstance(value, bool) == (kind is bool)


def load_manifest(path: str) -> RunManifest:
    """The manifest saved at `path`; ValueError names the file and every
    field that is missing from it or unknown to `RunManifest`, or else the
    first field whose value does not have the field's type."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"manifest {path}: not a JSON object")
    wrong = [f"{'unknown' if name in raw else 'missing'} field {name!r}"
             for name in sorted({f.name for f in fields(RunManifest)} ^ raw.keys())]
    if wrong:
        raise ValueError(f"manifest {path}: {', '.join(wrong)}")
    for name, kind in get_type_hints(RunManifest).items():
        if not _json_fits(raw[name], kind):
            expected = "a list of numbers" if name == "thresholds" else kind.__name__
            raise ValueError(f"manifest {path}: manifest field {name!r} has invalid value "
                             f"{raw[name]!r}, expected {expected}")
    raw["thresholds"] = tuple(raw["thresholds"])
    return RunManifest(**raw)

