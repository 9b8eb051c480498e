"""Command-line frontend: kernel computation, CSL generation, filtration inspection."""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from .csl import generate_csl, generate_csl_benchmark
from .filtration import WEIGHT_KINDS, WeightFunctionSpec, build_filtration, reweight
from .gram_io import FORMATS, RunManifest, load_manifest, manifest_path_for, write_gram
from .graphs import load_tud_dataset, write_tud_dataset
from .kernels import KernelConfig, gram_matrix
from .wl import extract_all

_VARIANT_FLAG = {"linear": "linear_combination", "product": "product"}


def _parse_k(text: str) -> int | str:
    if text == "auto":
        return text
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--k must be a positive integer or 'auto', got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"--k must be >= 1, got {value}")
    return value


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", required=True, help="directory holding the TUDataset text files")
    p.add_argument("--name", required=True, help="dataset name prefix of the files")


def _add_weight_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--weights",
        choices=WEIGHT_KINDS,
        default="native",
        help="edge-weight function applied before filtering",
    )
    p.add_argument(
        "--lambda",
        dest="walk_length",
        type=int,
        default=1,
        metavar="INT",
        help="walk-length bound for --weights walks",
    )
    p.add_argument("--k", type=_parse_k, default="auto", help="filtration length or 'auto'")
    p.add_argument("--h", type=int, default=2, help="refinement depth")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wlfiltration",
        description="Graph filtration kernels from Weisfeiler-Lehman features",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute and write a Gram matrix")
    _add_dataset_args(p_compute)
    _add_weight_args(p_compute)
    p_compute.add_argument("--gamma", type=float, default=1.0, help="base-kernel decay")
    p_compute.add_argument("--beta", type=float, default=1.0, help="mass RBF decay (product variant)")
    p_compute.add_argument("--variant", choices=tuple(_VARIANT_FLAG), default="linear")
    p_compute.add_argument("--normalize", action="store_true", help="cosine-normalize the matrix")
    p_compute.add_argument("--format", choices=FORMATS, default="csv")
    p_compute.add_argument("--out", required=True, help="output file for the Gram matrix")
    p_compute.add_argument("--threads", type=int, default=1,
                           help="accepted and ignored; the output never depends on it")

    p_csl = sub.add_parser("csl", help="generate a circular-skip-link dataset in TUDataset format")
    p_csl.add_argument("--out", required=True, help="output directory")
    p_csl.add_argument("--name", default="CSL", help="dataset name prefix")
    p_csl.add_argument("--copies", type=int, default=10, help="permuted copies per class")
    p_csl.add_argument("--seed", type=int, default=0, help="permutation seed")
    p_csl.add_argument("--n", type=int, default=None, help="vertex count (single-class mode)")
    p_csl.add_argument("--s", type=int, default=None, help="skip distance (single-class mode)")

    p_inspect = sub.add_parser("inspect", help="print thresholds, level edge counts, table sizes")
    _add_dataset_args(p_inspect)
    _add_weight_args(p_inspect)

    return parser


# Each manifest field -> (the `compute` argument it records, how `replay`
# reads the argument back, if not as recorded). `k` is recorded as text and
# the variant in the library's spelling; a reader raises KeyError, TypeError
# or ArgumentTypeError on a value that `compute` does not accept.
_MANIFEST_FIELDS = {
    "dataset_path": ("dataset", None),
    "dataset_name": ("name", None),
    "weights": ("weights", dict(zip(WEIGHT_KINDS, WEIGHT_KINDS)).__getitem__),
    "walk_length": ("walk_length", None),
    "k": ("k", _parse_k),
    "h": ("h", None),
    "gamma": ("gamma", None),
    "beta": ("beta", None),
    "variant": ("variant", {lib: flag for flag, lib in _VARIANT_FLAG.items()}.__getitem__),
    "normalize": ("normalize", None),
    "output_format": ("format", dict(zip(FORMATS, FORMATS)).__getitem__),
    "output_path": ("out", None),
    "threads": ("threads", None),
}


def run_compute(args: argparse.Namespace, thresholds: tuple | None = None) -> RunManifest:
    """Execute the full pipeline for parsed compute arguments. If
    `thresholds` are given and the fitted thresholds differ from them, raise
    ValueError first, writing nothing."""
    started = time.perf_counter()
    dataset = load_tud_dataset(args.dataset, args.name)
    spec = WeightFunctionSpec(kind=args.weights, walk_length=args.walk_length)
    config = KernelConfig(
        h=args.h,
        gamma=args.gamma,
        beta=args.beta,
        variant=_VARIANT_FLAG[args.variant],
        normalize=args.normalize,
    )
    matrix = gram_matrix(dataset, spec, args.k, config)
    filtration = matrix.filtration
    if thresholds is not None and filtration.thresholds != thresholds:
        raise ValueError(f"manifest field 'thresholds' records {list(thresholds)}, "
                         f"but the run fits {list(filtration.thresholds)}")
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    write_gram(matrix, args.format, args.out)
    elapsed = time.perf_counter() - started

    recorded = {field: getattr(args, arg) for field, (arg, _) in _MANIFEST_FIELDS.items()}
    manifest = RunManifest(
        **(recorded | {"k": str(args.k), "variant": config.variant}),
        thresholds=filtration.thresholds,
        wall_time_seconds=elapsed,
    )
    manifest.save(manifest_path_for(args.out))
    print(f"graphs: {len(dataset)}")
    print(f"thresholds (k={len(filtration)}): " + " ".join(str(t) for t in filtration.thresholds))
    print(f"wall time: {elapsed:.3f} s")
    print(f"wrote {args.out} and {manifest_path_for(args.out)}")
    return manifest


def replay(manifest_file: str) -> RunManifest:
    """Re-run a manifest; writes the Gram file to the recorded output path.

    Raises ValueError, naming the field, on a recorded value that `compute`
    does not accept, or, before anything is written, if the run fits other
    thresholds than the recorded ones.
    """
    m = load_manifest(manifest_file)
    args = argparse.Namespace()
    for field, (arg, read) in _MANIFEST_FIELDS.items():
        value = getattr(m, field)
        try:
            setattr(args, arg, value if read is None else read(value))
        except (KeyError, TypeError, argparse.ArgumentTypeError):
            raise ValueError(f"manifest field {field!r} has invalid value {value!r}") from None
    return run_compute(args, m.thresholds)


def run_csl(args: argparse.Namespace) -> None:
    if (args.n is None) != (args.s is None):
        raise ValueError("--n and --s must be given together")
    if args.n is not None:
        dataset = generate_csl(args.n, args.s, args.copies, args.seed)
    else:
        dataset = generate_csl_benchmark(args.copies, args.seed)
    write_tud_dataset(dataset, args.out, args.name)
    print(f"wrote {len(dataset)} graphs to {args.out} as {args.name}_*.txt")


def run_inspect(args: argparse.Namespace) -> None:
    dataset = load_tud_dataset(args.dataset, args.name)
    spec = WeightFunctionSpec(kind=args.weights, walk_length=args.walk_length)
    weighted = reweight(dataset, spec)
    filtration = build_filtration(weighted, WeightFunctionSpec(), args.k)
    store = extract_all(weighted, filtration, args.h)  # fails before anything is printed
    print(f"graphs: {len(dataset)}")
    print(f"thresholds (k={len(filtration)}): " + " ".join(str(t) for t in filtration.thresholds))

    # an edge is on every level from its first one on
    first = filtration.first_levels(weighted.weights)
    on_level = np.cumsum(np.bincount(first, minlength=len(filtration))).tolist()
    for level, (alpha, edges) in enumerate(zip(filtration.thresholds, on_level), start=1):
        print(f"level {level}: alpha={alpha} edges={edges}")

    sizes = np.bincount(store.graph, minlength=store.num_graphs)
    print(f"features: {len(store.depth)} distinct labels")
    print(
        f"table sizes: min={sizes.min()} mean={len(store.graph) / len(sizes):.1f} "
        f"max={sizes.max()}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "compute":
            run_compute(args)
        elif args.command == "csl":
            run_csl(args)
        else:
            run_inspect(args)
    except Exception as exc:  # surface module context, nonzero exit
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
