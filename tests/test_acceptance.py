"""Acceptance suite: one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import itertools
import math
import os
import random
import statistics
import time

import numpy as np
import pytest

from wlfiltration import (
    Filtration,
    GraphDataset,
    GroundLine,
    KernelConfig,
    WeightFunctionSpec,
    extract_all,
    generate_csl_benchmark,
    gram_matrix,
    load_tud_dataset,
    permute_graph,
    write_gram,
)
from wlfiltration.cli import main as cli_main

from conftest import k33_graph, prism_graph, random_dataset, random_graph
from kernel_reference import (
    filtration_kernel_pair,
    histogram_kernel_pair,
    product_kernel_pair,
    squared_kernel_distance,
    tables_from,
    wasserstein_1d,
    wasserstein_matching,
)
from test_transport import random_line, random_rational_hist


def report(number: int, ok: bool, description: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number}: {description}"


def _tables_k1(graphs, h):
    tables = tables_from(extract_all(list(graphs), Filtration((0.0,)), h))
    return tables, GroundLine((0.0,))


def _rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def test_criterion_1_histogram_reduction():
    started = time.perf_counter()
    rng = random.Random(101)
    graphs = [random_graph(rng, max_n=12) for _ in range(50)]
    worst = 0.0
    for h in (0, 1, 2, 3):
        tables, line = _tables_k1(graphs, h)
        for i, j in itertools.combinations_with_replacement(range(50), 2):
            filt_val = filtration_kernel_pair(tables[i], tables[j], line, 1.0)
            hist_val = histogram_kernel_pair(tables[i], tables[j])
            if hist_val != filt_val:
                worst = max(worst, abs(filt_val - hist_val) / max(hist_val, 1e-300))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 5.0
    report(1, ok, (
        f"k=1 filtration kernel equals histogram kernel for h in 0..3 "
        f"(worst rel diff {worst:.2e}, {elapsed:.2f} s)"
    ))


def test_criterion_2_rbf_reduction():
    rng = random.Random(102)
    graphs = [random_graph(rng, max_n=12) for _ in range(50)]
    beta = 0.25
    worst = 0.0
    for h in (0, 1, 2, 3):
        tables, line = _tables_k1(graphs, h)
        for i, j in itertools.combinations_with_replacement(range(50), 2):
            t1, t2 = tables[i], tables[j]
            prod_val = product_kernel_pair(t1, t2, line, 1.0, beta)
            ids = set(t1.features) | set(t2.features)
            sq = sum(
                ((t1.features[f].mass if f in t1.features else 0)
                 - (t2.features[f].mass if f in t2.features else 0)) ** 2
                for f in ids
            )
            rbf = math.exp(-beta * sq)
            if prod_val != rbf:
                worst = max(worst, abs(prod_val - rbf) / max(rbf, 1e-300))
    ok = worst <= 1e-9
    report(2, ok, (
        f"k=1 product kernel equals the count-vector RBF kernel "
        f"(worst rel diff {worst:.2e})"
    ))


def test_criterion_3_wasserstein_oracle():
    rng = random.Random(103)
    worst = 0.0
    for _ in range(1000):
        line = random_line(rng, max_k=8)
        k = len(line)
        denominator = rng.randint(1, 10**4)
        c1, h1 = random_rational_hist(rng, k, denominator)
        c2, h2 = random_rational_hist(rng, k, denominator)
        closed = wasserstein_1d(h1, h2, line)
        oracle = wasserstein_matching(c1, c2, denominator, line)
        worst = max(worst, abs(closed - oracle))
    ok = worst <= 1e-10
    report(3, ok, (
        f"closed form matches atom-matching oracle on 1000 pairs "
        f"(worst abs diff {worst:.2e})"
    ))


def test_criterion_4_psd():
    ds = random_dataset(104, 30, max_n=10)
    worst = -float("inf")
    ok = True
    for variant in ("linear_combination", "product"):
        for gamma in (0.1, 1.0, 10.0):
            cfg = KernelConfig(h=2, gamma=gamma, beta=0.5, variant=variant)
            K = gram_matrix(ds, WeightFunctionSpec("degree"), 3, cfg).values
            floor = -1e-8 * np.trace(K)
            smallest = float(np.linalg.eigvalsh(K).min())
            worst = max(worst, smallest / abs(floor))
            ok = ok and smallest >= floor
    report(4, ok, (
        "Gram matrices stay PSD for both variants at gamma in {0.1, 1, 10} "
        f"(worst eigenvalue/floor ratio {worst:.2e})"
    ))


def test_criterion_5_expressiveness_witness():
    ds = GraphDataset((prism_graph(), k33_graph()), (0, 1))
    spec = WeightFunctionSpec("triangles")
    K2 = gram_matrix(ds, spec, 2, KernelConfig(h=1, gamma=1.0)).values
    separated = squared_kernel_distance(K2, 0, 1)
    plain_zero = all(
        squared_kernel_distance(
            gram_matrix(ds, spec, 1, KernelConfig(h=h, gamma=1.0)).values, 0, 1
        ) == 0.0
        for h in range(6)
    )
    ok = separated > 1e-6 and plain_zero
    report(5, ok, (
        f"triangle filtration separates the 3-regular witness pair at k=2 "
        f"(distance {separated}), plain refinement stays at exactly 0 for h <= 5"
    ))


def test_criterion_6_csl_distinguishability():
    started = time.perf_counter()
    ds = generate_csl_benchmark(copies=1, seed=0)
    pairs = list(itertools.combinations(range(10), 2))

    K1 = gram_matrix(
        ds, WeightFunctionSpec("walks", walk_length=1), "auto", KernelConfig(h=2, gamma=1.0)
    ).values
    separated_l1 = sum(1 for i, j in pairs if squared_kernel_distance(K1, i, j) != 0.0)

    K7 = gram_matrix(
        ds, WeightFunctionSpec("walks", walk_length=7), "auto", KernelConfig(h=2, gamma=1.0)
    )
    separated_l7 = sum(1 for i, j in pairs if squared_kernel_distance(K7.values, i, j) > 1e-6)
    elapsed = time.perf_counter() - started

    ok = separated_l1 == 0 and separated_l7 == 45 and len(K7.filtration) == 18 and elapsed < 120
    report(6, ok, (
        f"CSL classes: walk bound 1 separates {separated_l1}/45 pairs, walk bound 7 "
        f"separates {separated_l7}/45 with k={len(K7.filtration)} ({elapsed:.2f} s)"
    ))


# Degree weights give some of these graphs a single distinct weight, so k=2
# shrinks to 1 for them; the invariance must hold either way.
@pytest.mark.filterwarnings("ignore:.*filtration length reduced:UserWarning")
def test_criterion_7_isomorphism_invariance():
    rng = random.Random(107)
    worst = 0.0
    for _ in range(20):
        g = random_graph(rng, max_n=10, min_n=4)
        while g.edge_count == 0:
            g = random_graph(rng, max_n=10, min_n=4)
        for _ in range(5):
            perm = list(range(g.n))
            rng.shuffle(perm)
            ds = GraphDataset((g, permute_graph(g, perm)), (0, 0))
            K = gram_matrix(
                ds, WeightFunctionSpec("degree"), 2, KernelConfig(h=2, gamma=1.0)
            ).values
            if K[0, 0] != K[0, 1]:
                worst = max(worst, abs(K[0, 0] - K[0, 1]) / abs(K[0, 0]))
    ok = worst <= 1e-9
    report(7, ok, (
        f"kernel value invariant under 5 random permutations of 20 graphs "
        f"(worst rel diff {worst:.2e})"
    ))


def test_criterion_8_linear_scaling_in_k():
    ds = random_dataset(888, 200, max_n=16, min_n=6, p=0.3)
    spec = WeightFunctionSpec("walks", walk_length=3)
    cfg = KernelConfig(h=2, gamma=1.0)

    def run(k: int) -> float:
        t0 = time.perf_counter()
        gram_matrix(ds, spec, k, cfg)
        return time.perf_counter() - t0

    run(4)  # warm caches before measuring
    t4 = statistics.median(run(4) for _ in range(5))
    t8 = statistics.median(run(8) for _ in range(5))
    ratio = t8 / t4
    ok = ratio <= 2.5
    report(8, ok, (
        f"doubling the filtration length scales wall time by {ratio:.2f} "
        f"(k=4: {t4:.3f} s, k=8: {t8:.3f} s, bound 2.5)"
    ))


def _compute_gram_bytes(directory, name, tmp_path, tag, threads=1):
    out = tmp_path / f"{tag}.csv"
    code = cli_main([
        "compute", "--dataset", str(directory), "--name", name,
        "--weights", "degree", "--k", "3", "--h", "2", "--gamma", "1.0",
        "--out", str(out), "--threads", str(threads),
    ])
    assert code == 0
    return out.read_bytes()


def _ptc_dir():
    for candidate in (
        os.environ.get("TUDATASET_DIR", ""),
        os.path.join(os.path.dirname(__file__), "data", "PTC_MR"),
    ):
        if candidate and os.path.isfile(os.path.join(candidate, "PTC_MR_A.txt")):
            return candidate
    return None


def test_criterion_9_golden_reproduction(tmp_path, mini_tud_dir):
    first = _compute_gram_bytes(mini_tud_dir, "MINI20", tmp_path, "a")
    second = _compute_gram_bytes(mini_tud_dir, "MINI20", tmp_path, "b")
    threaded = _compute_gram_bytes(mini_tud_dir, "MINI20", tmp_path, "c", threads=4)
    ok = first == second == threaded and len(first) > 0

    ptc = _ptc_dir()
    if ptc is not None:
        full = load_tud_dataset(ptc, "PTC_MR")
        subset = GraphDataset(full.graphs[:20], full.class_labels[:20], "PTC_MR_20")
        cfg = KernelConfig(h=2, gamma=1.0)
        runs = []
        for tag in ("p1", "p2"):
            matrix = gram_matrix(subset, WeightFunctionSpec("degree"), 3, cfg)
            path = tmp_path / f"{tag}.csv"
            write_gram(matrix, "csv", str(path))
            runs.append(path.read_bytes())
        ok = ok and runs[0] == runs[1]
        scope = "20-graph bundled dataset and PTC_MR first 20 graphs"
    else:
        scope = "20-graph bundled dataset (PTC_MR directory not available; see README)"
    report(9, ok, f"Gram file byte-identical across runs and thread counts on {scope}")
