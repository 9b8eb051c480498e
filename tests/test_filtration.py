"""Weight functions, threshold fitting, and filtration-graph construction."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wlfiltration import (
    Filtration,
    GraphDataset,
    LabeledGraph,
    WeightFunctionSpec,
    dataset_weights,
    fit_thresholds,
    fit_thresholds_auto,
    permute_graph,
    reweight,
)

from wlfiltration import filtration

from conftest import k33_graph, path3, prism_graph, random_graph
from wl_reference import filtration_graph, filtration_sequence

K3 = LabeledGraph.build(3, [(0, 1), (1, 2), (2, 0)])
K4 = LabeledGraph.build(4, list(itertools.combinations(range(4), 2)))
DEGREE = WeightFunctionSpec("degree")
TRIANGLES = WeightFunctionSpec("triangles")


def _walks(g: LabeledGraph, walk_length: int) -> tuple[int, ...]:
    return reweight(g, WeightFunctionSpec("walks", walk_length=walk_length)).weights


def test_weight_degree_examples():
    assert reweight(path3(), DEGREE).weights == (2, 2)
    assert reweight(K3, DEGREE).weights == (2, 2, 2)
    star = LabeledGraph.build(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert reweight(star, DEGREE).weights == (4, 4, 4, 4)


def test_weight_walks_examples():
    assert _walks(K3, 2) == (2, 2, 2)
    g = path3()
    assert _walks(g, 2) == (1, 1)
    rng = random.Random(0)
    for _ in range(10):
        h = random_graph(rng, max_n=8)
        assert _walks(h, 1) == (1,) * h.edge_count


def _walks_bruteforce(g: LabeledGraph, walk_length: int):
    """Enumerate every walk of length 1..walk_length between edge endpoints."""
    def count(u, v, length):
        if length == 0:
            return 1 if u == v else 0
        return sum(count(w, v, length - 1) for w in g.adjacency[u])

    return tuple(
        sum(count(u, v, l) for l in range(1, walk_length + 1)) for u, v in g.edges
    )


def test_weight_walks_matches_bruteforce():
    rng = random.Random(11)
    for _ in range(25):
        g = random_graph(rng, max_n=6, p=0.5)
        for lam in range(1, 5):
            assert _walks(g, lam) == _walks_bruteforce(g, lam)


def test_weight_walks_overflow_names_lambda():
    g = LabeledGraph.build(6, list(itertools.combinations(range(6), 2)))
    with pytest.raises(OverflowError, match="walk_length=40"):
        _walks(g, 40)
    with pytest.raises(ValueError):
        _walks(g, 0)


def test_weight_triangles_witness_pair():
    prism, k33 = prism_graph(), k33_graph()
    by_edge = dict(zip(prism.edges, reweight(prism, TRIANGLES).weights))
    triangle_edges = {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)}
    for edge, w in by_edge.items():
        assert w == (1 if edge in triangle_edges else 0)
    assert reweight(k33, TRIANGLES).weights == (0,) * 9
    assert reweight(K4, TRIANGLES).weights == (2,) * 6


def _weight_triangles_reference(g: LabeledGraph) -> tuple[int, ...]:
    """Common neighbours of the endpoints, by set intersection."""
    neighbor_sets = [set(ns) for ns in g.adjacency]
    return tuple(len(neighbor_sets[u] & neighbor_sets[v]) for u, v in g.edges)


def _weight_walks_reference(g: LabeledGraph, walk_length: int) -> tuple[int, ...]:
    """Row-by-row propagation of A^l in Python ints, raising above 2**64 - 1."""
    if walk_length < 1:
        raise ValueError("walk_length must be >= 1")
    adj = g.adjacency
    totals = {e: 0 for e in g.edges}
    for u in range(g.n):
        # row u of A^l, accumulated over l = 1..walk_length
        row = [0] * g.n
        row[u] = 1
        acc = [0] * g.n
        for _ in range(walk_length):
            nxt = [0] * g.n
            for j in range(g.n):
                count = 0
                for t in adj[j]:
                    count += row[t]
                nxt[j] = count
                acc[j] += count
                if acc[j] > 2**64 - 1:
                    raise OverflowError(
                        f"walk count exceeds 64-bit unsigned range for walk_length={walk_length}"
                    )
            row = nxt
        for v in adj[u]:
            if u < v:
                totals[(u, v)] = acc[v]
    return tuple(totals[e] for e in g.edges)


def _walk_totals(g: LabeledGraph, walk_length: int) -> tuple[int, ...]:
    """`filtration._walk_totals` of g alone, as Python ints."""
    ends = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
    return tuple(filtration._walk_totals(g.n, ends, walk_length).tolist())


def _dataset_weights(graphs, spec) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """`dataset_weights` of the graphs: the column, and its values split per graph."""
    column = dataset_weights(GraphDataset(graphs, [0] * len(graphs)), spec)
    flat, at, split = column.tolist(), 0, []
    for g in graphs:
        split.append(tuple(flat[at:at + g.edge_count]))
        at += g.edge_count
    return column, split


def _assert_same_weights(got, want):
    assert got == want
    assert [type(w) for w in got] == [type(w) for w in want]


@st.composite
def _graphs_with_isolated_vertices(draw):
    n = draw(st.integers(0, 10))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return LabeledGraph.build(n + draw(st.integers(0, 3)), edges)


@settings(max_examples=300, deadline=None)
@given(g=_graphs_with_isolated_vertices(), walk_length=st.integers(1, 9))
@example(g=LabeledGraph.build(0, []), walk_length=1)
@example(g=LabeledGraph.build(4, []), walk_length=9)
def test_walk_and_triangle_weights_match_reference(g, walk_length):
    want = _weight_walks_reference(g, walk_length)
    _assert_same_weights(_walks(g, walk_length), want)
    _assert_same_weights(_walk_totals(g, walk_length), want)
    _assert_same_weights(reweight(g, TRIANGLES).weights, _weight_triangles_reference(g))


@pytest.mark.parametrize("entries", [1, 40])
def test_walk_weights_do_not_depend_on_row_chunk(monkeypatch, entries):
    rng = random.Random(17)
    graphs = [random_graph(rng, max_n=14, p=0.3) for _ in range(20)]
    monkeypatch.setattr(filtration, "_WALK_CHUNK_ENTRIES", entries)
    for g in graphs:
        _assert_same_weights(_walk_totals(g, 5), _weight_walks_reference(g, 5))
        _assert_same_weights(tuple(w - 1 for w in _walk_totals(g, 2)),
                             _weight_triangles_reference(g))


def _complete_graph(n: int) -> LabeledGraph:
    return LabeledGraph.build(n, list(itertools.combinations(range(n), 2)))


# walk_length * maxdeg**walk_length < 2**63 selects int64: for K6 (maxdeg 5)
# up to walk_length 25, for K3 (maxdeg 2) up to 57.
@pytest.mark.parametrize("n, walk_length, dtype", [
    (3, 57, np.int64), (3, 63, object), (3, 64, object),
    (6, 25, np.int64), (6, 26, object), (6, 27, object),
])
def test_walk_weights_near_64_bits_match_reference(n, walk_length, dtype):
    assert filtration._count_dtype(walk_length, n - 1) is dtype
    g = _complete_graph(n)
    _assert_same_weights(_walks(g, walk_length), _weight_walks_reference(g, walk_length))


def test_walk_weights_overflow_at_k3_lambda_65():
    g = _complete_graph(3)
    with pytest.raises(OverflowError, match="walk_length=65"):
        _weight_walks_reference(g, 65)
    with pytest.raises(OverflowError, match="walk_length=65"):
        _walks(g, 65)


def _degree_reference(g: LabeledGraph) -> tuple[int, ...]:
    deg = [0] * g.n
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    return tuple(max(deg[u], deg[v]) for u, v in g.edges)


def _assert_batched_weights_match(graphs, walk_length):
    """dataset_weights against the per-graph counts and the pure-Python oracles."""
    columns, (walks, triangles, degree) = zip(*(
        _dataset_weights(graphs, spec) for spec in (
            WeightFunctionSpec("walks", walk_length=walk_length),
            WeightFunctionSpec("triangles"), WeightFunctionSpec("degree"))))
    assert all(column.dtype == np.int64 for column in columns)
    for g, w, t, d in zip(graphs, walks, triangles, degree):
        _assert_same_weights(w, _walk_totals(g, walk_length))
        _assert_same_weights(w, _weight_walks_reference(g, walk_length))
        _assert_same_weights(t, _weight_triangles_reference(g))
        _assert_same_weights(d, _degree_reference(g))
        assert all(type(x) is int for x in w + t + d)


@settings(max_examples=150, deadline=None)
@given(graphs=st.lists(_graphs_with_isolated_vertices(), max_size=8),
       walk_length=st.integers(1, 9))
@example(graphs=[], walk_length=3)
@example(graphs=[LabeledGraph.build(0, []), LabeledGraph.build(5, []), K4, K3, path3()],
         walk_length=4)
def test_dataset_weights_match_per_graph_oracles(graphs, walk_length):
    _assert_batched_weights_match(graphs, walk_length)


@pytest.mark.parametrize("entries", [1, 30, 1 << 15])
def test_dataset_weights_do_not_depend_on_block_bound(monkeypatch, entries):
    # a 200-cycle (n * n = 40,000) is above the default bound; at 30
    # entries only graphs on at most 5 vertices are batched, one at a time
    rng = random.Random(23)
    graphs = [random_graph(rng, max_n=16, p=0.3, min_n=0) for _ in range(30)]
    graphs.insert(7, LabeledGraph.build(200, [(i, (i + 1) % 200) for i in range(200)]))
    monkeypatch.setattr(filtration, "_WALK_BLOCK_ENTRIES", entries)
    _assert_batched_weights_match(graphs, 5)


# K3 has maxdeg 2 and K6 maxdeg 5: walk_length * maxdeg**walk_length crosses
# 2**53 between 47 and 48 for K3 and between 20 and 21 for K6, and the
# counts themselves cross 2**53 and 2**63 over these lengths.
@pytest.mark.parametrize("n, walk_length, batched", [
    (3, 47, True), (3, 48, False), (3, 57, False), (3, 64, False),
    (6, 20, True), (6, 21, False), (6, 25, False), (6, 27, False),
])
def test_dataset_weights_straddle_exact_float_and_int64(monkeypatch, n, walk_length, batched):
    alone = []
    original = filtration._walk_totals

    def counting(n, ends, length):
        alone.append((n, ends.tolist()))
        return original(n, ends, length)

    # maxdeg 1 keeps the first graph batched at any length
    graphs = [LabeledGraph.build(3, [(1, 2)]), _complete_graph(n), LabeledGraph.build(4, [])]
    want = [_weight_walks_reference(g, walk_length) for g in graphs]
    monkeypatch.setattr(filtration, "_walk_totals", counting)
    column, got = _dataset_weights(graphs, WeightFunctionSpec("walks", walk_length=walk_length))
    for w, r in zip(got, want):
        _assert_same_weights(w, r)
    assert alone == ([] if batched else [(n, [list(e) for e in graphs[1].edges])])
    # of these, only K3's counts at walk_length 64 reach 2**63 and need uint64
    assert column.dtype == (np.uint64 if (n, walk_length) == (3, 64) else np.int64)


def test_dataset_weights_overflow_at_k3_lambda_65():
    graphs = [path3(), _complete_graph(3)]
    with pytest.raises(OverflowError, match="walk_length=65"):
        dataset_weights(GraphDataset(graphs, (0, 0)), WeightFunctionSpec("walks", walk_length=65))


def test_reweight_graph_dispatch():
    g = path3(3.0, 4.0)
    assert reweight(g, WeightFunctionSpec("native")).weights == (3.0, 4.0)
    assert reweight(g, WeightFunctionSpec("degree")).weights == (2, 2)
    assert reweight(g, WeightFunctionSpec("triangles")).weights == (0, 0)
    assert reweight(g, WeightFunctionSpec("walks", walk_length=2)).weights == (1, 1)
    with pytest.raises(ValueError, match="unknown weight kind"):
        WeightFunctionSpec("betweenness")
    with pytest.raises(ValueError):
        WeightFunctionSpec("walks", walk_length=0)


# K3's walk counts reach 2**63 at walk_length 64, so that dataset's column is
# uint64 while the path's own counts alone are int64
@settings(max_examples=100, deadline=None)
@given(graphs=st.lists(_graphs_with_isolated_vertices(), min_size=1, max_size=6),
       spec=st.sampled_from([DEGREE, TRIANGLES] + [
           WeightFunctionSpec("walks", walk_length=lam) for lam in (1, 3, 9)]))
@example(graphs=[path3(), _complete_graph(3), LabeledGraph.build(0, [])],
         spec=WeightFunctionSpec("walks", walk_length=64))
def test_reweight_graph_matches_its_dataset_row(graphs, spec):
    rows = reweight(GraphDataset(graphs, [0] * len(graphs)), spec).graphs
    for g, row in zip(graphs, rows):
        alone = reweight(g, spec)
        assert alone == row
        _assert_same_weights(alone.weights, row.weights)


def test_fit_thresholds_examples():
    assert fit_thresholds([1, 1, 1, 2, 2, 5], 2).thresholds == (5, 1)
    assert fit_thresholds([4.0, 7.5, 2.0, 2.0], 1).thresholds == (2.0,)
    with pytest.warns(UserWarning, match="reduced"):
        f = fit_thresholds([0, 1], 5)
    assert f.thresholds == (1, 0)
    with pytest.raises(ValueError):
        fit_thresholds([], 2)
    with pytest.raises(ValueError):
        fit_thresholds([1.0], 0)


def _kmeans_bruteforce(values, k):
    """All cost-optimal contiguous partitions, in exact rational arithmetic."""
    from fractions import Fraction

    values = sorted(set(values))
    d = len(values)
    k = min(k, d)

    def sse(chunk):
        mu = Fraction(sum(chunk), len(chunk))
        return sum((Fraction(x) - mu) ** 2 for x in chunk)

    best_cost, optima = None, []
    for splits in itertools.combinations(range(1, d), k - 1):
        bounds = [0, *splits, d]
        clusters = [values[bounds[i]:bounds[i + 1]] for i in range(k)]
        cost = sum(sse(c) for c in clusters)
        minima = tuple(sorted((c[0] for c in clusters), reverse=True))
        if best_cost is None or cost < best_cost:
            best_cost, optima = cost, [minima]
        elif cost == best_cost:
            optima.append(minima)
    return best_cost, optima


def _partition_cost(values, thresholds):
    """Exact SSE of the partition whose cluster minima are the thresholds."""
    from fractions import Fraction

    values = sorted(set(values))
    minima = sorted(thresholds)
    cost = Fraction(0)
    for i, lo in enumerate(minima):
        hi = minima[i + 1] if i + 1 < len(minima) else None
        chunk = [x for x in values if x >= lo and (hi is None or x < hi)]
        mu = Fraction(sum(chunk), len(chunk))
        cost += sum((Fraction(x) - mu) ** 2 for x in chunk)
    return cost


def test_fit_thresholds_matches_bruteforce():
    import warnings

    rng = random.Random(21)
    for _ in range(60):
        values = [rng.randint(0, 12) for _ in range(rng.randint(1, 14))]
        k = rng.randint(1, 6)
        best_cost, optima = _kmeans_bruteforce(values, k)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = fit_thresholds(values, k).thresholds
        assert _partition_cost(values, got) == best_cost, (sorted(values), k)
        if len(optima) == 1:
            assert got == optima[0], (sorted(values), k)


def _interval_sse(prefix, prefix_sq, i, j):
    """Within-cluster sum of squared deviations for values[i..j] (inclusive)."""
    s = prefix[j + 1] - prefix[i]
    sq = prefix_sq[j + 1] - prefix_sq[i]
    cnt = j - i + 1
    return sq - s * s / cnt


def _fit_thresholds_reference(dataset_weights, k):
    """The scalar O(k*d^2) suffix DP that `fit_thresholds` vectorises."""
    values = sorted(set(dataset_weights))
    d = len(values)
    k = min(k, d)
    prefix = [0.0] * (d + 1)
    prefix_sq = [0.0] * (d + 1)
    for i, x in enumerate(values):
        prefix[i + 1] = prefix[i] + x
        prefix_sq[i + 1] = prefix_sq[i] + x * x

    inf = float("inf")
    suffix = [[inf] * (d + 1) for _ in range(k + 1)]
    suffix[0][d] = 0.0
    for t in range(1, k + 1):
        for i in range(d - 1, -1, -1):
            best = inf
            for j in range(i, d - t + 1):
                rest = suffix[t - 1][j + 1]
                if rest == inf:
                    continue
                cost = _interval_sse(prefix, prefix_sq, i, j) + rest
                if cost < best:
                    best = cost
            suffix[t][i] = best

    bounds = []
    i = 0
    for t in range(k, 0, -1):
        target = suffix[t][i]
        for j in range(i, d - t + 1):
            if _interval_sse(prefix, prefix_sq, i, j) + suffix[t - 1][j + 1] <= target:
                bounds.append((i, j))
                i = j + 1
                break
    minima = [values[lo] for lo, _ in bounds]
    return Filtration(tuple(sorted(minima, reverse=True)))


# Integer weights stay below d * max^2 < 2^53, where both DPs sum exactly.
_WEIGHT_LISTS = st.one_of(
    st.lists(st.integers(0, 12), min_size=1, max_size=40),
    st.lists(st.integers(0, 600).map(lambda i: 0.5 + i / 600), min_size=1, max_size=80),
    st.lists(st.floats(0, 1e6, allow_nan=False, allow_infinity=False), min_size=1, max_size=60),
    st.lists(st.integers(0, 10**7), min_size=1, max_size=60),
)


@settings(max_examples=300, deadline=None)
@given(values=_WEIGHT_LISTS, k=st.integers(1, 12))
def test_fit_thresholds_matches_scalar_reference(values, k):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = fit_thresholds(values, k).thresholds
    want = _fit_thresholds_reference(values, k).thresholds
    assert got == want
    assert [type(t) for t in got] == [type(t) for t in want]


def test_fit_thresholds_scale_5000_distinct():
    rng = random.Random(5000)
    values = [i / 1e6 for i in rng.sample(range(10**9), 5000)]
    thresholds = fit_thresholds(values, 10).thresholds
    assert len(thresholds) == 10
    assert all(a > b for a, b in zip(thresholds, thresholds[1:]))
    assert set(thresholds) <= set(values)
    assert thresholds[-1] == min(values)


def test_fit_thresholds_blocks_do_not_change_thresholds(monkeypatch):
    # 41 distinct integers (ties between partitions) and 150 floats: their
    # cluster starts span many blocks of 1 or 7 rows, the last one cut short
    rng = random.Random(11)
    cases = [([rng.randint(0, 40) for _ in range(400)], 7),
             ([rng.uniform(0, 50) for _ in range(150)], 9)]
    wholes = [fit_thresholds(values, k).thresholds for values, k in cases]
    monkeypatch.setattr(filtration, "_FIT_BLOCK_ENTRIES", 0)
    for rows in (1, 7):
        monkeypatch.setattr(filtration, "_FIT_BLOCK_MIN_ROWS", rows)
        assert [fit_thresholds(values, k).thresholds for values, k in cases] == wholes
    assert wholes == [_fit_thresholds_reference(values, k).thresholds for values, k in cases]


def test_fit_thresholds_tie_prefers_small_leading_cluster():
    # {0}|{1,2} and {0,1}|{2} cost the same; the smaller first cluster wins
    assert fit_thresholds([0, 1, 2], 2).thresholds == (1, 0)
    # three-way tie at cost 1/2: {0}{1}{2,3} wins over {0}{1,2}{3} and {0,1}{2}{3}
    assert fit_thresholds([0, 1, 2, 3], 3).thresholds == (2, 1, 0)


def test_fit_thresholds_auto():
    assert fit_thresholds_auto([0, 1, 3, 3]).thresholds == (3, 1, 0)
    assert fit_thresholds_auto([2.5] * 4).thresholds == (2.5,)
    with pytest.raises(ValueError):
        fit_thresholds_auto([])


def test_fit_thresholds_rejects_weights_whose_squares_overflow():
    # past 1.34e154 the squared cluster sums are inf, and the fit would pick
    # clusters from inf and NaN costs
    with pytest.raises(ValueError, match="too large for the threshold fit"):
        fit_thresholds([1.0, 2.0, 3.0, 1e160], 2)
    assert fit_thresholds([1.0, 2.0, 1e150], 2).thresholds == (1e150, 1.0)


def test_threshold_sequences_are_strictly_decreasing():
    rng = random.Random(3)
    for _ in range(30):
        values = [rng.choice([0, 0.5, 1, 2, 4, 8]) for _ in range(rng.randint(1, 20))]
        filt = fit_thresholds_auto(values)
        assert all(a > b for a, b in zip(filt.thresholds, filt.thresholds[1:]))
        assert filt.thresholds[-1] <= min(values)
    with pytest.raises(ValueError, match="strictly decreasing"):
        Filtration((1.0, 1.0))


def test_filtration_graph_boundaries():
    g = path3(2.0, 1.0)
    assert filtration_graph(g, 0.5).edges == g.edges
    assert filtration_graph(g, 5.0).edges == ()
    assert filtration_graph(g, 5.0).n == 3
    assert filtration_graph(g, 2.0).edges == ((0, 1),)


# float64 rounds 2**53 + 3 up to 2**53 + 4 and 2**63 - 2 up to 2**63, so the
# columns and thresholds of different dtypes must compare exactly
@pytest.mark.parametrize("weights, thresholds", [
    ([2.0, 0.5, 3.0], (2.0, 1.0)),
    ([2**53 + 3, 2**53 + 4, 0], (float(2**53 + 4), 0.5)),
    ([2**53 + 3, 2**53 + 4, 1], (2**53 + 4, 2)),
    ([2**64 - 1, 2**63, 5], (2**63 + 1, 5)),
    ([2**64 - 1, 2**63 - 2, 5], (2**63 - 1, 5)),
    ([2**60, 0.5, 2**60 + 1], (2**60 + 1, 0.5)),
])
def test_first_levels_match_python_comparisons(weights, thresholds):
    column = GraphDataset((LabeledGraph.build(4, [(0, 1), (1, 2), (2, 3)], weights=weights),),
                          (0,)).weights
    filt = Filtration(thresholds)
    want = [next((i for i, t in enumerate(thresholds) if w >= t), len(thresholds))
            for w in weights]
    assert filt.first_levels(column).tolist() == want


def test_filtration_graph_triangle_level():
    prism = reweight(prism_graph(), TRIANGLES)
    level1 = filtration_graph(prism, 1)
    assert set(level1.edges) == {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)}
    k33 = reweight(k33_graph(), TRIANGLES)
    assert filtration_graph(k33, 1).edges == ()


def test_nestedness_and_last_level():
    rng = random.Random(17)
    for _ in range(20):
        g = random_graph(rng, max_n=10)
        g = reweight(g, DEGREE)
        filt = fit_thresholds_auto(g.weights) if g.edges else None
        if filt is None:
            continue
        seq = filtration_sequence(g, filt)
        for earlier, later in zip(seq, seq[1:]):
            assert set(earlier.edges) <= set(later.edges)
        assert seq[-1].edges == g.edges


def test_isomorphic_graphs_give_isomorphic_filtrations():
    rng = random.Random(23)
    for _ in range(10):
        g = random_graph(rng, max_n=8)
        g = g.with_weights([round(rng.uniform(0, 2), 2) for _ in g.edges])
        perm = list(range(g.n))
        rng.shuffle(perm)
        p = permute_graph(g, perm)
        for alpha in sorted(set(g.weights), reverse=True) or [0]:
            direct = permute_graph(filtration_graph(g, alpha), perm)
            assert direct == filtration_graph(p, alpha)
