"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload csl-walks --seed 1 --seconds 30 --trace 0

Generates the workload's graphs from the seed and writes them in TUDataset
format, starts a fresh worker process (worker.py) that drives the
`wlfiltration` command line on them, then checks every output against
computations made apart from the program (checks.py). With --trace 0 it
reports the end-to-end metrics, with --trace 1 the per-layer metrics of a
separate traced run; BENCHMARK.json at the repository root names both sets.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# At most two threads in total, which is the machine's core count: the
# program's own --threads 2 pool, no hidden BLAS pools in either process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_run")
sys.path.insert(0, HERE)

WORKER_TIMEOUT = 150


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def summary(samples: list[float]) -> tuple[float, float]:
    """Median and inter-quartile spread as a share of the median."""
    med = statistics.median(samples)
    if len(samples) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return med, (q3 - q1) / abs(med)


def report(samples: dict[str, list[float]], units: dict[str, str],
           raw: dict[str, list[float]]) -> dict:
    """Print every declared metric; return them for the JSON result.

    A time scaled to the reference speed is followed by its median as
    measured, and the calibration's own median is printed last; these are
    printed only.
    """
    metrics = {}
    for name, unit in units.items():
        if name not in samples:
            print(f"  {name:32s} absent")
            continue
        med, spread = summary(samples[name])
        print(f"  {name:32s} median {med:.6g} {unit}  spread {spread:.3f}  "
              f"n={len(samples[name])}")
        metrics[name] = {"value": med, "unit": unit}
        if name in raw:
            med, spread = summary(raw[name])
            print(f"  {'':32s} as measured {med:.6g} {unit}  spread {spread:.3f}")
    for name in sorted(raw.keys() - units.keys()):
        med, spread = summary(raw[name])
        print(f"  {name:32s} median {med:.6g} s  spread {spread:.3f}  n={len(raw[name])}")
    return metrics


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(SRC, "wlfiltration", "__init__.py")):
        return fail(f"no program source at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import wlfiltration

    if os.path.dirname(os.path.dirname(os.path.abspath(wlfiltration.__file__))) != SRC:
        return fail(f"imported wlfiltration from {wlfiltration.__file__}, not {SRC}")
    from checks import check_workload, feature_counts
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]

    run_dir = os.path.join(WORK, f"{w.name}-seed{args.seed}-pid{os.getpid()}")
    data, out = os.path.join(run_dir, "data"), os.path.join(run_dir, "out")
    os.makedirs(out, exist_ok=True)
    try:
        bg = w.generate(args.seed)
        bg.write(data)
        spans = os.path.join(WORK, "spans", f"{w.name}-seed{args.seed}.json")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        result_file = os.path.join(run_dir, "result.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", w.name,
               "--seed", str(args.seed), "--data", data, "--out", out,
               "--seconds", str(args.seconds), "--mode", "trace" if args.trace else "e2e",
               "--spans", spans, "--result", result_file]
        env = dict(os.environ, PYTHONPATH=SRC)
        try:
            proc = subprocess.run(cmd, env=env, timeout=WORKER_TIMEOUT, cwd=ROOT,
                                  stdout=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            return fail(f"worker did not finish within {WORKER_TIMEOUT} s")
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0 or not os.path.isfile(result_file):
            return fail(f"worker exited with code {proc.returncode}")
        with open(result_file, encoding="utf-8") as fh:
            res = json.load(fh)

        gram = os.path.join(out, "gram_t1")
        with open(gram + ".manifest.json", encoding="utf-8") as fh:
            thresholds = json.load(fh)["thresholds"]
        e2e = not args.trace
        problems, makeup, hists = check_workload(
            bg, w, args.seed, thresholds, gram,
            inspect_text=res["inspect_text"] if e2e else None,
        )
        if not res["repeatable"]:
            problems.append("repeated compute runs wrote different Gram files")
        counts = feature_counts(hists, w.h, makeup)
        print(f"workload {w.name} seed {args.seed}: " + ", ".join(
            f"{k}={v}" for k, v in {**makeup, "features": counts["wl.features"]}.items()))
        for problem in problems:
            print(f"CHECK FAILED: {problem}")
        print(f"checks: {'passed' if not problems else f'{len(problems)} failed'}")

        if e2e:
            samples = {"peak_rss_mb": [res["peak_rss_mb"]], **res["samples"]}
            metrics = report(samples, declared_units("end_to_end"), res["raw"])
        else:
            counts["gram_io.bytes"] = os.path.getsize(gram)
            samples = {**res["samples"], **{k: [v] for k, v in counts.items()}}
            metrics = report(samples, declared_units("per_layer"), {})
            print(f"  spans written to {os.path.relpath(spans, ROOT)}")
        print(f"operations: attempted {res['attempted']}, failed {res['failed']}")
        for name, why in sorted(res["wrong"].items()):
            print(f"  failed: {name}, {why}")
        print(json.dumps({"correct": not problems, "attempted": res["attempted"],
                          "failed": res["failed"], "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
