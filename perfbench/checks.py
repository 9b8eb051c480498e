"""Checks of the program's outputs against computations made apart from it.

Nothing here calls `wlfiltration`: edge weights, the optimal 1-D k-means
cost, WL labels, Wasserstein distances and kernel entries are recomputed from
the benchmark's own copy of the graphs (`workloads.BenchGraphs`). Each check
returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import math
import random
import re

import numpy as np

from workloads import BenchGraphs, Workload

REL_TOL = 1e-9
PSD_TOL = 1e-8
SEPARATION = 1e-6
SAMPLED_PAIRS = 48
SAMPLED_DIAGONAL = 16


def close(got: float, ref: float, rel: float = REL_TOL) -> bool:
    """Relative agreement; two exact zeros (both underflowed) agree."""
    return got == ref or abs(got - ref) <= rel * max(abs(got), abs(ref))


# ---------------------------------------------------------------- edge weights

def edge_weights(bg: BenchGraphs, w: Workload) -> list[np.ndarray]:
    """Per-graph edge weights under the workload's weight function, in numpy."""
    out = []
    for n, edges, native in zip(bg.n, bg.edges, bg.weights):
        if w.weights == "native":
            out.append(np.asarray(native, dtype=np.float64))
            continue
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if w.weights == "degree":
            deg = np.bincount(e.ravel(), minlength=n)
            out.append(np.maximum(deg[e[:, 0]], deg[e[:, 1]]).astype(np.float64))
        elif w.weights == "walks":
            a = np.zeros((n, n), dtype=np.int64)
            a[e[:, 0], e[:, 1]] = 1
            a[e[:, 1], e[:, 0]] = 1
            max_deg = int(a.sum(axis=1).max()) if n else 0
            if w.walk_length * max(max_deg, 1) ** w.walk_length >= 2**62:
                raise ValueError("walk counts could overflow int64 in the reference")
            power = np.eye(n, dtype=np.int64)
            total = np.zeros((n, n), dtype=np.int64)
            for _ in range(w.walk_length):
                power = power @ a
                total += power
            out.append(total[e[:, 0], e[:, 1]].astype(np.float64))
        else:
            raise ValueError(f"no reference for weight kind {w.weights!r}")
    return out


# ------------------------------------------------------------------ thresholds

def kmeans_1d_optimum(values: np.ndarray, k: int) -> float:
    """Minimal within-cluster SSE splitting sorted `values` into k contiguous runs."""
    d = len(values)
    x = values - values.mean()
    s = np.concatenate(([0.0], np.cumsum(x)))
    sq = np.concatenate(([0.0], np.cumsum(x * x)))
    lo = np.arange(d + 1)[:, None]
    hi = np.arange(d + 1)[None, :]
    cnt = np.where(hi > lo, hi - lo, 1)
    # cost[a, b] = SSE of values[a:b]; infinite unless a < b
    cost = sq[None, :] - sq[:, None] - (s[None, :] - s[:, None]) ** 2 / cnt
    cost = np.where(hi > lo, np.maximum(cost, 0.0), np.inf)
    best = cost[0].copy()  # best[b] = optimum for values[:b] in 1 run
    for _ in range(k - 1):
        best = (best[:, None] + cost).min(axis=0)
    return float(best[d])


def partition_sse(values: np.ndarray, thresholds: list[float]) -> float:
    """SSE of the partition whose runs start at the given thresholds."""
    cuts = sorted(thresholds)
    total = []
    for lo, hi in zip(cuts, cuts[1:] + [math.inf]):
        run = values[(values >= lo) & (values < hi)]
        mean = math.fsum(run) / len(run)
        total.extend((v - mean) ** 2 for v in run)
    return math.fsum(total)


def check_thresholds(distinct: np.ndarray, thresholds: list[float], k: str) -> list[str]:
    """`distinct` is the sorted array of distinct pooled weights."""
    if k == "auto":
        want = [float(v) for v in distinct[::-1]]
        if thresholds != want:
            return [f"k auto: thresholds {thresholds[:5]}... are not the {len(want)} "
                    "distinct pooled weights in decreasing order"]
        return []
    k_eff = min(int(k), len(distinct))
    problems = []
    if len(thresholds) != k_eff:
        problems.append(f"expected {k_eff} thresholds, got {len(thresholds)}")
    if any(a <= b for a, b in zip(thresholds, thresholds[1:])):
        problems.append("thresholds are not strictly decreasing")
    if not set(thresholds) <= set(distinct.tolist()):
        problems.append("a threshold is not one of the pooled weights")
    if thresholds and thresholds[-1] != distinct[0]:
        problems.append("the smallest threshold is not the smallest weight")
    if problems:
        return problems
    got = partition_sse(distinct, thresholds)
    best = kmeans_1d_optimum(distinct, k_eff)
    if not (close(got, best) or abs(got - best) <= 1e-12):
        problems.append(f"threshold partition SSE {got!r} differs from optimum {best!r}")
    return problems


def level_edges(weights: list[np.ndarray], thresholds: list[float]) -> list[int]:
    pooled = np.sort(np.concatenate(weights)) if weights else np.zeros(0)
    return [int(len(pooled) - np.searchsorted(pooled, t, side="left")) for t in thresholds]


_LEVEL = re.compile(r"^level (\d+): alpha=(\S+) edges=(\d+)$", re.M)
_FEATURES = re.compile(r"^features: (\d+) distinct labels$", re.M)


def check_inspect(text: str, thresholds: list[float], want_edges: list[int],
                  want_features: int) -> list[str]:
    """Per-level edge counts and the distinct-label count that `inspect` prints."""
    found = _FEATURES.search(text)
    if found is None or int(found.group(1)) != want_features:
        return [f"inspect feature count {found and found.group(1)} != {want_features}"]
    rows = _LEVEL.findall(text)
    if [int(r[0]) for r in rows] != list(range(1, len(thresholds) + 1)):
        return [f"inspect printed {len(rows)} level lines for {len(thresholds)} thresholds"]
    problems = []
    for (level, alpha, edges), t, want in zip(rows, thresholds, want_edges):
        if float(alpha) != t:
            problems.append(f"inspect level {level}: alpha {alpha} != threshold {t!r}")
        if int(edges) != want:
            problems.append(f"inspect level {level}: {edges} edges, counted {want}")
    return problems


# -------------------------------------------------------------- WL and kernels

def wl_histograms(n: int, edges: list[tuple[int, int]], labels: list[int],
                  weights: np.ndarray, thresholds: list[float], h: int,
                  ids: dict) -> dict[int, list[int]]:
    """Feature -> per-level vertex counts, with feature ids from the shared `ids`.

    A feature is a WL label: the raw vertex label at depth 0, then (previous
    label, sorted multiset of neighbour labels). Labels at every depth 0..h
    are counted on every threshold graph (edges of weight >= threshold).
    """
    k = len(thresholds)
    counts: dict[int, list[int]] = {}
    for level, t in enumerate(thresholds):
        adj: list[list[int]] = [[] for _ in range(n)]
        for (u, v), wt in zip(edges, weights.tolist()):
            if wt >= t:
                adj[u].append(v)
                adj[v].append(u)
        cur = [ids.setdefault(("raw", lab), len(ids)) for lab in labels]
        for depth in range(h + 1):
            if depth:
                cur = [ids.setdefault((cur[v], tuple(sorted(cur[u] for u in adj[v]))), len(ids))
                       for v in range(n)]
            for lid in cur:
                counts.setdefault(lid, [0] * k)[level] += 1
    return counts


def wasserstein_dense(c1: list[int], c2: list[int], thresholds: list[float]) -> float:
    """W1 between two count histograms normalised to unit mass, from dense CDFs."""
    m1, m2 = sum(c1), sum(c2)
    terms = []
    cum1 = cum2 = 0
    for i in range(len(thresholds) - 1):
        cum1 += c1[i]
        cum2 += c2[i]
        gap = thresholds[i] - thresholds[i + 1]
        terms.append(abs(cum1 * m2 - cum2 * m1) / (m1 * m2) * gap)
    return math.fsum(terms)


def raw_kernel(a: dict, b: dict, thresholds: list[float], w: Workload) -> float:
    if w.variant == "linear":
        return math.fsum(
            math.exp(-w.gamma * wasserstein_dense(a[f], b[f], thresholds)) * sum(a[f]) * sum(b[f])
            for f in a.keys() & b.keys()
        )
    log_k = []
    for f in a.keys() | b.keys():
        ca, cb = a.get(f), b.get(f)
        if ca is not None and cb is not None:
            log_k.append(-w.gamma * wasserstein_dense(ca, cb, thresholds))
        diff = sum(ca or ()) - sum(cb or ())
        log_k.append(-w.beta * diff * diff)
    return math.exp(math.fsum(log_k))


def reference_entry(i: int, j: int, hists: list[dict], thresholds: list[float],
                    w: Workload) -> float:
    """K[i, j] from graphs i and j alone (their histograms), as the workload asks."""
    value = raw_kernel(hists[i], hists[j], thresholds, w)
    if not w.normalize:
        return value
    if i == j:
        return 1.0
    return value / math.sqrt(raw_kernel(hists[i], hists[i], thresholds, w)
                             * raw_kernel(hists[j], hists[j], thresholds, w))


def parse_gram(path: str, fmt: str, n: int) -> tuple[np.ndarray, list[int]]:
    """Matrix and (libsvm only) per-row class labels from an output file."""
    rows, classes = [], []
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(l for l in fh if l.strip()):
            if fmt == "csv":
                rows.append([float(tok) for tok in line.split(",")])
                continue
            fields = line.split()
            classes.append(int(fields[0]))
            if fields[1] != f"0:{i + 1}":
                raise ValueError(f"libsvm row {i + 1} has id field {fields[1]!r}")
            pairs = [f.split(":") for f in fields[2:]]
            if [int(p[0]) for p in pairs] != list(range(1, len(pairs) + 1)):
                raise ValueError(f"libsvm row {i + 1} has gaps in its column indices")
            rows.append([float(p[1]) for p in pairs])
    matrix = np.array(rows, dtype=np.float64)
    if matrix.shape != (n, n):
        raise ValueError(f"{path} holds a {matrix.shape} matrix, expected ({n}, {n})")
    return matrix, classes


def sample_entries(n: int, seed: int) -> list[tuple[int, int]]:
    rng = random.Random(f"perfbench-sample:{seed}")
    pairs = set()
    while len(pairs) < min(SAMPLED_PAIRS, n * (n - 1) // 2):
        i, j = sorted(rng.sample(range(n), 2))
        pairs.add((i, j))
    diag = rng.sample(range(n), min(SAMPLED_DIAGONAL, n))
    return sorted(pairs) + [(i, i) for i in sorted(diag)]


def check_gram(K: np.ndarray, hists: list[dict], thresholds: list[float], w: Workload,
               seed: int) -> list[str]:
    """Symmetry, PSD, and a seeded sample of entries recomputed pair by pair."""
    problems = []
    if not np.all(np.isfinite(K)):
        problems.append("Gram matrix has non-finite entries")
    if not np.array_equal(K, K.T):
        problems.append("Gram matrix is not symmetric")
    trace = float(np.trace(K))
    min_eig = float(np.linalg.eigvalsh((K + K.T) / 2).min())
    if min_eig < -PSD_TOL * trace:
        problems.append(f"Gram matrix not PSD: min eigenvalue {min_eig!r}, trace {trace!r}")
    bad = []
    for i, j in sample_entries(len(hists), seed):
        ref = reference_entry(i, j, hists, thresholds, w)
        if not close(float(K[i, j]), ref):
            bad.append(f"K[{i},{j}]={float(K[i, j])!r} vs reference {ref!r}")
    if bad:
        problems.append(f"{len(bad)} sampled Gram entries disagree, first: {bad[0]}")
    return problems


def feature_counts(hists: list[dict], h: int, makeup: dict) -> dict[str, int]:
    """Feature-space and work sizes of the whole dataset (the trace's counts)."""
    graphs_with: dict[int, int] = {}
    for table in hists:
        for f in table:
            graphs_with[f] = graphs_with.get(f, 0) + 1
    n = len(hists)
    return {
        "graphs.vertices": makeup["vertices"],
        "graphs.edges": makeup["edges"],
        "filtration.distinct_weights": makeup["distinct_weights"],
        "filtration.levels": makeup["levels"],
        "filtration.level_edges": makeup["level_edges"],
        "wl.features": len(graphs_with),
        "wl.feature_rows": sum(graphs_with.values()),
        "wl.singleton_features": sum(1 for c in graphs_with.values() if c == 1),
        "wl.vertex_visits": (h + 1) * makeup["levels"] * makeup["vertices"],
        "kernels.pairs": n * (n + 1) // 2,
        "kernels.shared_feature_pairs": sum(c * (c + 1) // 2 for c in graphs_with.values()),
    }


def check_csl(K: np.ndarray, classes: list[int]) -> list[str]:
    """Different skip classes separated, permuted copies indistinguishable."""
    cls = np.asarray(classes)
    diag = np.diag(K)
    dist = diag[:, None] + diag[None, :] - 2.0 * K
    cross = cls[:, None] != cls[None, :]
    problems = []
    if not np.all(dist[cross] > SEPARATION):
        close_pairs = zip(*np.nonzero(cross & (dist <= SEPARATION)))
        unsep = {tuple(sorted((int(cls[i]), int(cls[j])))) for i, j in close_pairs}
        problems.append(f"{len(unsep)} class pairs not separated, e.g. {sorted(unsep)[:3]}")
    classes_seen = sorted(set(classes))
    pairs = len(classes_seen) * (len(classes_seen) - 1) // 2
    for c in classes_seen:
        members = np.flatnonzero(cls == c)
        rows = K[members]
        scale = np.maximum(np.abs(rows), np.abs(rows[0]))
        if not np.all(np.abs(rows - rows[0]) <= REL_TOL * scale):
            problems.append(f"class {c}: permuted copies have different Gram rows")
    if not problems:
        print(f"csl: {pairs}/{pairs} class pairs separated, rows equal within every class")
    return problems


# ----------------------------------------------------------------------- all

def check_workload(bg: BenchGraphs, w: Workload, seed: int, thresholds: list[float],
                   gram_path: str,
                   inspect_text: str | None = None) -> tuple[list[str], dict, list[dict]]:
    """Run every check on one workload's outputs.

    Returns the failures, the dataset's make-up, and the per-graph feature
    histograms (over the program's thresholds) that the checks computed.
    """
    weights = edge_weights(bg, w)
    distinct = np.unique(np.concatenate(weights))
    edges_per_level = level_edges(weights, thresholds)
    makeup = {
        "graphs": len(bg),
        "vertices": sum(bg.n),
        "edges": sum(len(e) for e in bg.edges),
        "distinct_weights": len(distinct),
        "levels": len(thresholds),
        "level_edges": sum(edges_per_level),
    }
    ids: dict = {}
    hists = [wl_histograms(bg.n[g], bg.edges[g], bg.labels[g], weights[g], thresholds, w.h, ids)
             for g in range(len(bg))]
    problems = check_thresholds(distinct, thresholds, w.k)
    K, classes = parse_gram(gram_path, w.fmt, len(bg))
    if w.fmt == "libsvm" and classes != bg.classes:
        problems.append("libsvm class labels differ from the generated classes")
    if not problems:  # entries are only meaningful over the right thresholds
        problems += check_gram(K, hists, thresholds, w, seed)
    if w.csl:
        problems += check_csl(K, bg.classes)
    if inspect_text is not None:
        features = len({f for table in hists for f in table})
        problems += check_inspect(inspect_text, thresholds, edges_per_level, features)
    return problems, makeup, hists
