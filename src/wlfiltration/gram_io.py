"""Gram-matrix serialization (csv, libsvm precomputed-kernel) and run manifests."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import get_type_hints

import numpy as np

from .kernels import GramMatrix

FORMATS = ("csv", "libsvm")


def _fmt(value: float) -> str:
    """17 significant digits, zero-padded: parses back to the identical float."""
    return np.format_float_positional(
        value, precision=17, unique=False, fractional=False, trim="k"
    )


# Distinct values formatted per '%' call; bounds the chunk's temporaries.
_FORMAT_CHUNK = 1 << 14


def _format_values(values: np.ndarray) -> np.ndarray:
    """`_fmt` of each float64 value, as an object array of strings.

    A value with 1e-290 <= |x| < 1e15 and e = floor(log10|x|) gets
    '%.*f' % (16 - e, x): 17 significant digits, correctly rounded, ties to
    even, as Dragon4 gives them, formatted with one C-level '%' call per
    chunk. Dragon4 stops early when those digits are exact or rounding up
    carried into trailing zeros, and for |x| < 1 then pads to 16 fractional
    digits instead of 17 significant ones; so such a string that ends in 0
    and whose decimal value is >= |x| is stripped and padded. Zeros, NaN,
    infinities, the magnitudes outside that range and the values near a
    power of ten, where the log may be off by one, go to `_fmt`.
    """
    text = np.empty(len(values), dtype=object)
    for start in range(0, len(values), _FORMAT_CHUNK):
        x = values[start:start + _FORMAT_CHUNK]
        magnitude = np.abs(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            log = np.log10(magnitude)
            fast = ((magnitude >= 1e-290) & (magnitude < 1e15)
                    & (np.abs(log - np.rint(log)) > 1e-12))
        floats = x[fast].tolist()
        places = (16 - np.floor(log[fast])).astype(np.int64).tolist()
        args: list = [None] * (2 * len(floats))
        args[0::2] = places
        args[1::2] = floats
        chunk = ("%.*f\n" * len(floats) % tuple(args)).split("\n")
        chunk.pop()
        for i in [i for i, s in enumerate(chunk) if s[-1] == "0"]:
            if -1.0 < floats[i] < 1.0:
                num, den = abs(floats[i]).as_integer_ratio()
                head, frac = chunk[i].split(".")
                if int(frac) * den >= num * 10 ** places[i]:
                    chunk[i] = f"{head}.{frac.rstrip('0'):0<16}"
        out = text[start:start + len(x)]
        out[fast] = chunk
        out[~fast] = [_fmt(value) for value in x[~fast]]
    return text


def write_gram(matrix: GramMatrix, fmt: str, path: str) -> None:
    """Serialize a Gram matrix.

    csv: one row per line, comma-separated. libsvm: the precomputed-kernel
    convention `<class> 0:<row> 1:K(i,1) ... n:K(i,n)` with 1-based indices,
    ready for an SVM with a precomputed-kernel interface.

    Every value is written as `_fmt` writes it: 17 significant digits in
    positional form, except that a value below 1 in magnitude whose 17
    digits are exact, or rounded up into trailing zeros, is padded to 16
    fractional digits (0.25 -> 0.2500000000000000, but 0.01 ->
    0.010000000000000000). Each distinct value is formatted once, keyed by
    its bit pattern (so -0.0 and 0.0 stay apart), in chunks with one C-level
    '%.*f' call each (`_format_values`); each row is built with one join and
    written on its own. The values must be n x n for n class labels; this
    is checked before the file is opened.
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
    text = _format_values(bits.view(np.float64))
    del bits
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

