"""Seeded workload generators and the CLI settings each workload runs with.

Graphs are generated here, in the benchmark's own plain representation,
from `random.Random` streams seeded by a string (hashed with SHA-512, so a
seed gives the same graphs on every platform). The program only ever sees
them as TUDataset text files. The checks recompute edge weights, WL labels
and kernel entries from this representation, not from what the program
loaded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass
class BenchGraphs:
    """A dataset as plain lists: per graph n, canonical edges (u < v), labels, weights."""

    n: list[int] = field(default_factory=list)
    edges: list[list[tuple[int, int]]] = field(default_factory=list)
    labels: list[list[int]] = field(default_factory=list)
    weights: list[list[float]] = field(default_factory=list)
    classes: list[int] = field(default_factory=list)

    def add(self, n, edges, labels, weights, cls) -> None:
        order = sorted(range(len(edges)), key=lambda i: edges[i])
        self.n.append(n)
        self.edges.append([edges[i] for i in order])
        self.labels.append(list(labels))
        self.weights.append([weights[i] for i in order])
        self.classes.append(cls)

    def __len__(self) -> int:
        return len(self.n)

    def write(self, directory: str) -> None:
        """Write as TUDataset files `DS_*.txt`, through the program's own writer."""
        from wlfiltration import GraphDataset, LabeledGraph, write_tud_dataset

        graphs = tuple(LabeledGraph.build(n, e, lab, wt) for n, e, lab, wt
                       in zip(self.n, self.edges, self.labels, self.weights))
        write_tud_dataset(GraphDataset(graphs, tuple(self.classes)), directory, "DS")


def _canon(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


CSL_SKIPS = (2, 3, 4, 5, 6, 9, 11, 12, 13, 16)
CSL_ORDER = 41


def make_csl(seed: int, copies: int = 10, order: int = CSL_ORDER,
             skips: tuple[int, ...] = CSL_SKIPS) -> BenchGraphs:
    """Circular skip links: an order-cycle plus chords at distance s, `copies`
    random vertex permutations per skip class, all vertices labelled 0."""
    rng = random.Random(f"perfbench-csl:{seed}")
    out = BenchGraphs()
    for s in skips:
        base = [(i, (i + 1) % order) for i in range(order)]
        base += [(i, (i + s) % order) for i in range(order)]
        for _ in range(copies):
            perm = list(range(order))
            rng.shuffle(perm)
            edges = [_canon(perm[u], perm[v]) for u, v in base]
            out.add(order, edges, [0] * order, [0.0] * len(edges), s)
    return out


# The cube graph with fixed labels, and the same graph with its vertices
# numbered in reverse. As the first two graphs of a dataset, with degree
# weights and h >= 2, they make `compute --threads 2` differ from
# `--threads 1` whatever the rest of the dataset: see "Known fault" in
# README.md.
CUBE_EDGES = [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7),
              (0, 4), (1, 5), (2, 6), (3, 7)]
CUBE_LABELS = [1, 1, 2, 0, 2, 0, 1, 0]


def fixed_pair() -> list[tuple[int, list[tuple[int, int]], list[int]]]:
    n = len(CUBE_LABELS)
    flipped = sorted(_canon(n - 1 - u, n - 1 - v) for u, v in CUBE_EDGES)
    return [(n, list(CUBE_EDGES), list(CUBE_LABELS)), (n, flipped, CUBE_LABELS[::-1])]


def make_random(seed: int, count: int, min_n: int, max_n: int, num_labels: int,
                p: float, weight_grid: int = 0, tag: str = "random") -> BenchGraphs:
    """Labeled random graphs like the test suite's `random_graph`, with the
    dataset's size fixed so that seeds differ in structure, not in amount.

    The first two of the `count` graphs are `fixed_pair()`, the same for
    every seed. In the others, vertex counts cycle through min_n..max_n (in
    seeded order); a graph on n vertices gets round(p * n(n-1)/2) edges
    chosen uniformly (G(n, m) rather than G(n, p)); labels are uniform. With
    weight_grid > 0, the edges carry native weights 0.5 + i / weight_grid,
    each grid value used in turn and the pool shuffled, so the number of
    distinct weights is fixed as well.
    """
    rng = random.Random(f"perfbench-{tag}:{seed}")
    graphs = fixed_pair()
    sizes = [min_n + i % (max_n - min_n + 1) for i in range(count - len(graphs))]
    rng.shuffle(sizes)
    for n in sizes:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = sorted(rng.sample(pairs, round(p * len(pairs))))
        graphs.append((n, edges, [rng.randrange(num_labels) for _ in range(n)]))
    total = sum(len(e) for _, e, _ in graphs)
    pool = [0.5 + (i % (weight_grid + 1)) / weight_grid for i in range(total)] if weight_grid \
        else [0.0] * total
    rng.shuffle(pool)
    out = BenchGraphs()
    at = 0
    for n, edges, labels in graphs:
        out.add(n, edges, labels, pool[at:at + len(edges)], rng.randrange(2))
        at += len(edges)
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict  # generator parameters, recorded in the README
    weights: str
    walk_length: int
    k: str
    h: int
    gamma: float
    beta: float
    variant: str  # CLI spelling: linear | product
    normalize: bool
    fmt: str
    csl: bool = False

    def generate(self, seed: int) -> BenchGraphs:
        if self.csl:
            return make_csl(seed, **self.params)
        return make_random(seed, tag=self.name, **self.params)

    def cli_args(self) -> list[str]:
        """Kernel and filtration flags shared by `compute` and `inspect`."""
        return ["--weights", self.weights, "--lambda", str(self.walk_length),
                "--k", self.k, "--h", str(self.h)]

    def compute_args(self) -> list[str]:
        args = self.cli_args() + ["--gamma", repr(self.gamma), "--beta", repr(self.beta),
                                  "--variant", self.variant, "--format", self.fmt]
        return args + (["--normalize"] if self.normalize else [])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="csl-walks",
            why="CSL-100, walk weights lambda=7, k auto: reweighting and WL over 18 levels "
                "dominate; carries the 45/45 separation property",
            params={"copies": 10},
            weights="walks", walk_length=7, k="auto", h=2, gamma=1.0, beta=1.0,
            variant="linear", normalize=False, fmt="csv", csl=True,
        ),
        Workload(
            name="random-pairs",
            why="labeled random graphs, degree weights, k=8, h=3: the O(n^2) pair loop "
                "in kernels/transport does nearly all the work",
            params={"count": 120, "min_n": 6, "max_n": 16, "num_labels": 3, "p": 0.3},
            weights="degree", walk_length=1, k="8", h=3, gamma=1.0, beta=1.0,
            variant="linear", normalize=False, fmt="libsvm",
        ),
        Workload(
            name="native-fit",
            why="native continuous edge weights (601 distinct), product variant, normalized: "
                "threshold fitting, attribute parsing and the union pair path",
            params={"count": 70, "min_n": 6, "max_n": 16, "num_labels": 3, "p": 0.3,
                    "weight_grid": 600},
            weights="native", walk_length=1, k="10", h=1, gamma=1.0, beta=0.001,
            variant="product", normalize=True, fmt="csv",
        ),
    )
}
