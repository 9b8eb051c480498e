"""Command-line frontend: kernel computation, CSL generation, filtration inspection."""

from __future__ import annotations

import argparse
import bisect
import sys
import time

import numpy as np

from .csl import generate_csl, generate_csl_benchmark
from .filtration import WeightFunctionSpec
from .gram_io import (
    RunManifest,
    ensure_parent_dir,
    load_manifest,
    manifest_path_for,
    write_gram,
)
from .graphs import load_tud_dataset, write_tud_dataset
from .kernels import KernelConfig, build_filtration, gram_matrix, reweight_dataset
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
        choices=("native", "degree", "walks", "triangles"),
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
    p_compute.add_argument("--format", choices=("csv", "libsvm"), default="csv")
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


def run_compute(args: argparse.Namespace) -> RunManifest:
    """Execute the full pipeline for parsed compute arguments."""
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
    ensure_parent_dir(args.out)
    write_gram(matrix, args.format, args.out)
    elapsed = time.perf_counter() - started

    manifest = RunManifest(
        dataset_path=args.dataset,
        dataset_name=args.name,
        weights=args.weights,
        walk_length=args.walk_length,
        k=str(args.k),
        h=args.h,
        gamma=args.gamma,
        beta=args.beta,
        variant=_VARIANT_FLAG[args.variant],
        normalize=args.normalize,
        output_format=args.format,
        output_path=args.out,
        threads=args.threads,
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
    """Re-run a manifest; writes the Gram file to the recorded output path."""
    m = load_manifest(manifest_file)
    args = argparse.Namespace(
        dataset=m.dataset_path,
        name=m.dataset_name,
        weights=m.weights,
        walk_length=m.walk_length,
        k=_parse_k(m.k),
        h=m.h,
        gamma=m.gamma,
        beta=m.beta,
        variant={v: f for f, v in _VARIANT_FLAG.items()}[m.variant],
        normalize=m.normalize,
        format=m.output_format,
        out=m.output_path,
        threads=m.threads,
    )
    return run_compute(args)


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
    weighted = reweight_dataset(dataset, spec)
    filtration = build_filtration(weighted, WeightFunctionSpec(), args.k)
    pooled = sorted(w for g in weighted.graphs for w in g.weights)
    print(f"graphs: {len(dataset)}")
    print(f"thresholds (k={len(filtration)}): " + " ".join(str(t) for t in filtration.thresholds))

    # Edges of weight >= alpha, counted with Python comparisons so that
    # integer weights above 2**53 count exactly.
    for level, alpha in enumerate(filtration.thresholds, start=1):
        edges = len(pooled) - bisect.bisect_left(pooled, alpha)
        print(f"level {level}: alpha={alpha} edges={edges}")

    store = extract_all(weighted.graphs, filtration, args.h)
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
