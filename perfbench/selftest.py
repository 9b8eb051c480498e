"""Self-test of the benchmark's checks at tiny sizes.

    python3 perfbench/selftest.py

Runs each workload's CLI commands on a tiny dataset and requires every check
to pass; then corrupts one output at a time (a single Gram entry, a mirrored
Gram entry, a threshold, an inspect edge count) and requires the checks to
fail. An operation that must write the bytes of another, as compute
--threads 2 must, has to fail when it does not. Also compares the reference
1-D k-means optimum with brute force. Exits nonzero if any expectation is
not met.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import random
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from worker import Rounds, run_cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "csl-walks": {"copies": 2, "skips": (2, 3, 5)},
    "random-pairs": {"count": 12, "min_n": 6, "max_n": 10, "num_labels": 3, "p": 0.3},
    "native-fit": {"count": 10, "min_n": 6, "max_n": 10, "num_labels": 3, "p": 0.3,
                   "weight_grid": 40},
}
SEED = 7
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        failures.append(what)


def write_matrix(path: str, K: np.ndarray, fmt: str, classes: list[int]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, row in enumerate(K):
            if fmt == "csv":
                fh.write(",".join(repr(float(x)) for x in row) + "\n")
            else:
                cells = " ".join(f"{j + 1}:{float(x)!r}" for j, x in enumerate(row))
                fh.write(f"{classes[i]} 0:{i + 1} {cells}\n")


def brute_force_optimum(values: list[float], k: int) -> float:
    best = float("inf")
    for cuts in itertools.combinations(range(1, len(values)), k - 1):
        bounds = (0, *cuts, len(values))
        sse = 0.0
        for lo, hi in zip(bounds, bounds[1:]):
            run = values[lo:hi]
            mean = sum(run) / len(run)
            sse += sum((v - mean) ** 2 for v in run)
        best = min(best, sse)
    return best


def test_kmeans_reference() -> None:
    rng = random.Random(SEED)
    ok = True
    for _ in range(40):
        values = sorted({round(rng.uniform(0, 10), 2) for _ in range(rng.randint(2, 9))})
        k = rng.randint(1, len(values))
        ref = brute_force_optimum(values, k)
        got = checks.kmeans_1d_optimum(np.asarray(values), k)
        ok &= abs(got - ref) <= 1e-9 * max(ref, 1.0)
    expect(ok, "reference 1-D k-means DP equals brute force on 40 random inputs")


def test_workload(name: str, base: str) -> None:
    w = dataclasses.replace(WORKLOADS[name], params=TINY[name])
    data, out = os.path.join(base, name, "data"), os.path.join(base, name, "out")
    os.makedirs(out)
    bg = w.generate(SEED)
    bg.write(data)
    gram = os.path.join(out, "gram_t1")
    common = ["--dataset", data, "--name", "DS"]
    code = run_cli(["compute", *common, *w.compute_args(), "--threads", "1", "--out", gram])[1]
    _, code2, inspect_text = run_cli(["inspect", *common, *w.cli_args()])
    expect([code, code2] == [0, 0], f"{name}: CLI commands succeed")
    with open(gram + ".manifest.json", encoding="utf-8") as fh:
        thresholds = json.load(fh)["thresholds"]

    def problems(thr=thresholds, text=inspect_text) -> list[str]:
        return checks.check_workload(bg, w, SEED, thr, gram, text)[0]

    found = problems()
    expect(not found, f"{name}: all checks pass on the program's output {found}")

    K, classes = checks.parse_gram(gram, w.fmt, len(bg))
    i, j = next((a, b) for a, b in checks.sample_entries(len(bg), SEED) if a != b)
    for mirrored in (True, False):
        bad = K.copy()
        bad[i, j] *= 1 + 1e-6
        if mirrored:
            bad[j, i] = bad[i, j]
        write_matrix(gram, bad, w.fmt, classes)
        how = "mirrored" if mirrored else "single"
        found = problems()
        expect(any("sampled Gram entries" in f for f in found),
               f"{name}: a {how} perturbed Gram entry K[{i},{j}] is caught by recomputation")
    write_matrix(gram, K, w.fmt, classes)
    expect(not problems(), f"{name}: checks pass again on the restored matrix")

    distinct = np.unique(np.concatenate(checks.edge_weights(bg, w)))
    bad_thr = list(thresholds)
    above = distinct[distinct > bad_thr[0]]
    if w.k != "auto" and len(above):  # move the top cluster's lower end up one weight
        bad_thr[0] = float(above[0])
    else:
        bad_thr.pop(len(bad_thr) // 2)
    found = checks.check_thresholds(distinct, bad_thr, w.k)
    expect(bool(found), f"{name}: a moved threshold is caught {found}")

    lines = inspect_text.splitlines()
    at = next(n for n, line in enumerate(lines) if line.startswith("level 1:"))
    head, count = lines[at].rsplit("=", 1)
    lines[at] = f"{head}={int(count) + 1}"
    expect(any("inspect level" in p for p in problems(text="\n".join(lines))),
           f"{name}: a wrong inspect edge count is caught")


def test_same_output(base: str) -> None:
    """An operation whose Gram file differs from the one it must equal fails."""
    w = dataclasses.replace(WORKLOADS["native-fit"], params=TINY["native-fit"])
    data, out = os.path.join(base, "same", "data"), os.path.join(base, "same", "out")
    os.makedirs(out)
    w.generate(SEED).write(data)
    r = Rounds(argparse.Namespace(data=data, out=out), w)
    r.op("first", r.compute_argv(1, os.path.join(out, "a")))
    r.op("again", r.compute_argv(1, os.path.join(out, "b")), same_as="first")
    expect((r.attempted, r.failed) == (2, 0), "a compute that writes the same bytes passes")
    argv = r.compute_argv(1, os.path.join(out, "c"))
    argv[argv.index("--gamma") + 1] = "0.5"
    r.op("changed", argv, same_as="first")
    expect((r.attempted, r.failed) == (3, 1) and list(r.wrong) == ["changed"],
           f"a compute that writes other bytes fails {r.wrong}")


def main() -> int:
    base = os.path.join(ROOT, ".perfbench_run", f"selftest-pid{os.getpid()}")
    try:
        test_kmeans_reference()
        test_same_output(base)
        for name in WORKLOADS:
            test_workload(name, base)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print(f"selftest: {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
