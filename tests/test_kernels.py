"""Pair kernels, Gram assembly, and their structural guarantees."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlfiltration import (
    Filtration,
    GraphDataset,
    KernelConfig,
    LabeledGraph,
    WeightFunctionSpec,
    FeatureCounts,
    build_filtration,
    extract_all,
    fit_thresholds,
    generate_csl_benchmark,
    gram_matrix,
    permute_graph,
    reweight,
)
from wlfiltration import kernels

from conftest import k33_graph, prism_graph, random_dataset, random_graph, with_weights
from kernel_reference import (
    FeatureTable,
    FiltrationHistogram,
    assemble_gram_reference,
    filtration_kernel_pair,
    histogram_kernel_pair,
    product_kernel_pair,
    squared_kernel_distance,
    tables_from,
)


def table(features: dict[int, tuple[int, ...]], k: int) -> FeatureTable:
    return FeatureTable({fid: FiltrationHistogram(c) for fid, c in features.items()}, k)


def test_kernel_config_validation():
    with pytest.raises(ValueError):
        KernelConfig(h=-1)
    with pytest.raises(ValueError):
        KernelConfig(gamma=0.0)
    with pytest.raises(ValueError):
        KernelConfig(variant="sum")
    with pytest.raises(ValueError):
        KernelConfig(variant="product", beta=0.0)
    KernelConfig(variant="linear_combination", beta=0.0)  # beta unused here
    # exp(-inf * 0) is NaN, so a non-finite decay would write NaN entries
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            KernelConfig(gamma=bad)
        with pytest.raises(ValueError, match="beta must be positive and finite"):
            KernelConfig(variant="product", beta=bad)
        KernelConfig(beta=bad)


def test_filtration_pair_disjoint_features_is_zero():
    line = Filtration((1.0, 0.0))
    t1 = table({0: (1, 1)}, 2)
    t2 = table({1: (2, 0)}, 2)
    assert filtration_kernel_pair(t1, t2, line, 1.0) == 0.0


def test_filtration_pair_single_edge_self():
    g = LabeledGraph.build(2, [(0, 1)])
    tables = tables_from(extract_all([g, g], Filtration((0.0,)), 0))
    line = Filtration((0.0,))
    value = filtration_kernel_pair(tables[0], tables[1], line, 1.0)
    assert value == 4.0
    assert value == histogram_kernel_pair(tables[0], tables[1])


def test_filtration_pair_rejects_mismatched_levels():
    line = Filtration((1.0, 0.0))
    with pytest.raises(ValueError, match="levels"):
        filtration_kernel_pair(table({0: (1,)}, 1), table({0: (1, 1)}, 2), line, 1.0)


def test_k1_reduction_to_histogram_kernel():
    rng = random.Random(10)
    graphs = [random_graph(rng, max_n=10) for _ in range(12)]
    for h in range(3):
        tables = tables_from(extract_all(graphs, Filtration((0.0,)), h))
        line = Filtration((0.0,))
        for t1, t2 in itertools.combinations(tables, 2):
            filt_val = filtration_kernel_pair(t1, t2, line, 2.5)
            hist_val = histogram_kernel_pair(t1, t2)
            assert filt_val == pytest.approx(hist_val, rel=1e-9)


def test_histogram_kernel_examples():
    assert histogram_kernel_pair(table({0: (1,)}, 1), table({1: (1,)}, 1)) == 0.0
    assert histogram_kernel_pair(table({0: (1,)}, 1), table({0: (1,)}, 1)) == 1.0
    triangle = LabeledGraph.build(3, [(0, 1), (1, 2), (2, 0)])
    tables = tables_from(extract_all([triangle, triangle], Filtration((0.0,)), 1))
    assert histogram_kernel_pair(tables[0], tables[1]) == 18.0
    with pytest.raises(ValueError, match="single level"):
        histogram_kernel_pair(table({0: (1, 1)}, 2), table({0: (1, 1)}, 2))


def test_product_pair_identical_tables_is_one():
    t = table({0: (2, 1), 3: (0, 4)}, 2)
    assert product_kernel_pair(t, t, Filtration((1.0, 0.0)), 1.7, 0.9) == 1.0


def test_product_pair_single_feature_mass_gap():
    # one shared feature, masses 3 vs 1, identical normalized histograms
    line = Filtration((1.0, 0.0))
    t1 = table({5: (3, 0)}, 2)
    t2 = table({5: (1, 0)}, 2)
    value = product_kernel_pair(t1, t2, line, 4.0, 0.25)
    assert value == pytest.approx(math.exp(-0.25 * 4), rel=1e-12)


def test_product_pair_one_sided_feature():
    line = Filtration((1.0, 0.0))
    t1 = table({0: (1, 1)}, 2)
    t2 = table({}, 2)
    assert product_kernel_pair(t1, t2, line, 1.0, 0.5) == pytest.approx(
        math.exp(-0.5 * 4), rel=1e-12
    )


def test_product_k1_reduction_to_rbf():
    rng = random.Random(12)
    graphs = [random_graph(rng, max_n=9) for _ in range(10)]
    beta = 0.3
    for h in range(3):
        tables = tables_from(extract_all(graphs, Filtration((0.0,)), h))
        line = Filtration((0.0,))
        for t1, t2 in itertools.combinations(tables, 2):
            prod_val = product_kernel_pair(t1, t2, line, 1.9, beta)
            ids = set(t1.features) | set(t2.features)
            sq = sum(
                (
                    (t1.features[f].mass if f in t1.features else 0)
                    - (t2.features[f].mass if f in t2.features else 0)
                )
                ** 2
                for f in ids
            )
            assert prod_val == pytest.approx(math.exp(-beta * sq), rel=1e-9)


def test_gram_single_graph():
    ds = GraphDataset((LabeledGraph.build(2, [(0, 1)]),), (0,))
    cfg = KernelConfig(h=1, gamma=1.0)
    K = gram_matrix(ds, WeightFunctionSpec("degree"), 1, cfg)
    assert K.values.shape == (1, 1)
    assert K.values[0, 0] > 0
    K_norm = gram_matrix(ds, WeightFunctionSpec("degree"), 1,
                         KernelConfig(h=1, gamma=1.0, normalize=True))
    assert K_norm.values[0, 0] == 1.0


def test_gram_isomorphic_pair_has_equal_entries():
    rng = random.Random(13)
    g = random_graph(rng, max_n=9)
    perm = list(range(g.n))
    rng.shuffle(perm)
    ds = GraphDataset((g, permute_graph(g, perm)), (0, 0))
    K = gram_matrix(ds, WeightFunctionSpec("degree"), 2, KernelConfig(h=2, gamma=0.7))
    assert K.values[0, 1] == pytest.approx(K.values[0, 0], rel=1e-12)
    assert K.values[0, 1] == pytest.approx(K.values[1, 1], rel=1e-12)


@pytest.mark.parametrize("variant", ["linear_combination", "product"])
def test_gram_symmetric_psd(variant):
    ds = random_dataset(14, 12, max_n=9)
    cfg = KernelConfig(h=2, gamma=1.0, beta=0.2, variant=variant)
    K = gram_matrix(ds, WeightFunctionSpec("degree"), 3, cfg).values
    assert np.array_equal(K, K.T)
    assert np.linalg.eigvalsh(K).min() >= -1e-8 * np.trace(K)


@pytest.mark.xfail(strict=True, reason="product variant is not PSD at small beta: a feature "
                   "one graph lacks gets base factor 1, i.e. W1 = 0 to every histogram")
def test_product_gram_psd_at_small_beta():
    # criterion 4's dataset; the minimum eigenvalue is about -0.133 at trace 30
    ds = random_dataset(104, 30, max_n=10)
    cfg = KernelConfig(h=2, gamma=1.0, beta=0.005, variant="product")
    K = gram_matrix(ds, WeightFunctionSpec("degree"), 3, cfg).values
    assert np.linalg.eigvalsh(K).min() >= -1e-8 * np.trace(K)


def test_gram_normalized_unit_diagonal():
    ds = random_dataset(15, 8, max_n=8)
    cfg = KernelConfig(h=1, gamma=0.5, normalize=True)
    K = gram_matrix(ds, WeightFunctionSpec("degree"), 2, cfg).values
    assert np.all(np.diag(K) == 1.0)
    assert np.all(K <= 1.0 + 1e-12)


def test_gram_rejects_degenerate_datasets():
    with pytest.raises(ValueError, match="empty"):
        gram_matrix(GraphDataset((), ()), WeightFunctionSpec(), 1, KernelConfig())
    empty_graph = LabeledGraph.build(0, [])
    with pytest.raises(ValueError, match="zero vertices"):
        gram_matrix(
            GraphDataset((empty_graph,), (0,)), WeightFunctionSpec(), 1, KernelConfig()
        )


def test_edgeless_dataset_gives_histogram_kernel():
    graphs = (LabeledGraph.build(1, []), LabeledGraph.build(4, [], (0, 1, 1, 2)),
              LabeledGraph.build(3, [], (2, 1, 2)))
    ds = GraphDataset(graphs, (0, 1, 0))
    spec = WeightFunctionSpec("degree")
    tables = tables_from(extract_all(graphs, Filtration((0.0,)), 2))
    want = np.array([[histogram_kernel_pair(a, b) for b in tables] for a in tables])
    with pytest.warns(UserWarning, match="no edge weights; filtration length reduced"):
        assert build_filtration(ds, spec, 3) == Filtration((0.0,))
    for k in (1, "auto"):
        assert build_filtration(ds, spec, k) == Filtration((0.0,))
        K = gram_matrix(ds, spec, k, KernelConfig(h=2)).values
        assert np.array_equal(K, want)


@pytest.mark.parametrize("k", [0, -3])
def test_build_filtration_rejects_k_below_one_with_or_without_edges(k):
    edgeless = GraphDataset((LabeledGraph.build(3, []),), (0,))
    with_edges = GraphDataset((LabeledGraph.build(3, [(0, 1)]),), (0,))
    for ds in (edgeless, with_edges):
        with pytest.raises(ValueError, match="k must be >= 1"):
            build_filtration(ds, WeightFunctionSpec("degree"), k)


# and walk_length, which would otherwise fail inside numpy's loops
@pytest.mark.parametrize("value", [2.5, 3.0, np.float64(2.0), "3"])
def test_non_integer_k_and_h_are_rejected_by_name(value):
    ds = GraphDataset((LabeledGraph.build(3, [(0, 1)]),), (0,))
    with pytest.raises(ValueError, match="walk_length must be >= 1 and an integer"):
        WeightFunctionSpec("walks", walk_length=value)
    with pytest.raises(ValueError, match="k must be >= 1 and an integer"):
        build_filtration(ds, WeightFunctionSpec("degree"), value)
    with pytest.raises(ValueError, match="k must be >= 1 and an integer"):
        fit_thresholds([1.0, 2.0, 3.0], value)
    with pytest.raises(ValueError, match="h must be >= 0 and an integer"):
        KernelConfig(h=value)
    with pytest.raises(ValueError, match="h must be >= 0 and an integer"):
        extract_all(ds, Filtration((1.0,)), value)


def test_numpy_integer_k_and_h_are_accepted():
    ds = random_dataset(5, 6, max_n=7)
    spec = WeightFunctionSpec("degree")
    filt = build_filtration(ds, spec, np.int64(2))
    assert filt == build_filtration(ds, spec, 2)
    assert fit_thresholds([1.0, 2.0, 3.0], np.int32(2)) == fit_thresholds([1.0, 2.0, 3.0], 2)
    K = gram_matrix(ds, spec, filt, KernelConfig(h=np.int64(2))).values
    assert K.tobytes() == gram_matrix(ds, spec, filt, KernelConfig(h=2)).values.tobytes()


@pytest.mark.parametrize("k", [1, 3, "auto"])
def test_gram_matrix_takes_a_filtration_as_k(k):
    ds = random_dataset(18, 8, max_n=8)
    spec, cfg = WeightFunctionSpec("walks", walk_length=3), KernelConfig(h=2, gamma=0.6)
    fitted = gram_matrix(ds, spec, k, cfg)
    filt = build_filtration(ds, spec, k)
    assert fitted.filtration == filt
    given = gram_matrix(ds, spec, filt, cfg)
    assert given.filtration is filt
    assert np.array_equal(given.values, fitted.values)
    assert given.class_labels == fitted.class_labels == ds.class_labels


def test_triangle_filtration_separates_witness_pair():
    ds = GraphDataset((prism_graph(), k33_graph()), (0, 1))
    spec = WeightFunctionSpec("triangles")
    K2 = gram_matrix(ds, spec, 2, KernelConfig(h=1, gamma=1.0)).values
    assert squared_kernel_distance(K2, 0, 1) > 1e-6
    for h in range(6):
        K1 = gram_matrix(ds, spec, 1, KernelConfig(h=h, gamma=1.0)).values
        assert squared_kernel_distance(K1, 0, 1) == 0.0


def test_gram_auto_thresholds():
    ds = random_dataset(17, 6, max_n=8)
    cfg = KernelConfig(h=1, gamma=1.0)
    K = gram_matrix(ds, WeightFunctionSpec("degree"), "auto", cfg).values
    assert K.shape == (6, 6)
    assert np.linalg.eigvalsh(K).min() >= -1e-8 * np.trace(K)


def test_integer_thresholds_keep_exact_gaps():
    # Thresholds 2**60 + 2 > 2**60 + 1 > 2**60 > 5: the first two gaps are 1,
    # which float64 rounds to 0. The graphs differ only on those two levels
    # (the cumulative counts up to 2**60 agree), so only exact gaps give a
    # nonzero W1 and separate them.
    edges = [(0, 1), (2, 3), (4, 5)]
    a = LabeledGraph.build(6, edges, weights=[2**60 + 2, 2**60, 5])
    b = LabeledGraph.build(6, edges, weights=[2**60 + 1, 2**60 + 1, 5])
    filt = fit_thresholds([2**60, 2**60 + 1, 2**60 + 2, 5], "auto")
    assert filt.gaps == (1, 1, 2**60 - 5)
    ds = GraphDataset((a, b), (0, 1))
    K = gram_matrix(ds, WeightFunctionSpec(), filt, KernelConfig(h=1)).values
    assert squared_kernel_distance(K, 0, 1) > 0.1


def test_gram_on_reversed_cube_matches_oracle():
    # The cube and its vertex-reversed copy list neighbours in opposite
    # orders, so their depth-2 labels agree only if signatures sort the
    # neighbour labels.
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7),
             (0, 4), (1, 5), (2, 6), (3, 7)]
    cube = LabeledGraph.build(8, edges, [1, 1, 2, 0, 2, 0, 1, 0])
    ds = GraphDataset((cube, permute_graph(cube, list(range(7, -1, -1)))), (0, 1))
    spec, cfg = WeightFunctionSpec("degree"), KernelConfig(h=2)
    filt = build_filtration(ds, spec, 1)
    weighted = [reweight(g, spec) for g in ds.graphs]
    tables = tables_from(extract_all(weighted, filt, 2))
    K = gram_matrix(ds, spec, 1, cfg).values
    expected = oracle_gram(tables, filt, cfg)
    np.testing.assert_allclose(K, expected, rtol=1e-12, atol=0)


def oracle_gram(tables, line, config):
    """Every entry from the per-pair kernels, normalized as `gram_matrix` does."""
    if config.variant == "product":
        pair = lambda a, b: product_kernel_pair(a, b, line, config.gamma, config.beta)
    else:
        pair = lambda a, b: filtration_kernel_pair(a, b, line, config.gamma)
    K = np.array([[pair(a, b) for b in tables] for a in tables])
    if config.normalize:
        d = np.sqrt(np.diag(K))
        K = K / np.outer(d, d)
    return K


WEIGHT_GRID = (0.5, 1.0, 1.5, 2.5, 3.0, 4.0)


def weighted_dataset(seed, count=7):
    """Random graphs with native weights on a 6-value grid, plus a path that
    carries every grid value and a vertex label no other graph has, so every
    depth has a singleton feature."""
    rng = random.Random(seed)
    graphs = [random_graph(rng, max_n=9) for _ in range(count)]
    graphs = [with_weights(g, [rng.choice(WEIGHT_GRID) for _ in g.edges]) for g in graphs]
    path = [(v, v + 1) for v in range(len(WEIGHT_GRID))]
    graphs.append(LabeledGraph.build(len(path) + 1, path, [7] + [0] * len(path), WEIGHT_GRID))
    return GraphDataset(tuple(graphs), tuple(range(len(graphs))))


@pytest.mark.parametrize("variant", ["linear_combination", "product"])
@pytest.mark.parametrize("k", [1, 2, 6])
@pytest.mark.parametrize("h", [0, 2])
@pytest.mark.parametrize("normalize", [False, True])
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_gram_matches_pair_oracles(variant, k, h, normalize, seed):
    ds = weighted_dataset(seed)
    spec = WeightFunctionSpec("native")
    cfg = KernelConfig(h=h, gamma=0.8, beta=0.05, variant=variant, normalize=normalize)
    filt = build_filtration(ds, spec, k)
    assert len(filt) == k
    weighted = [reweight(g, spec) for g in ds.graphs]
    tables = tables_from(extract_all(weighted, filt, h))
    held = [fid for t in tables for fid in t.features]
    assert any(held.count(fid) == 1 for fid in held)

    K = gram_matrix(ds, spec, k, cfg).values
    expected = oracle_gram(tables, filt, cfg)
    np.testing.assert_allclose(K, expected, rtol=1e-12, atol=0)
    assert np.array_equal(K, K.T)


@pytest.mark.parametrize("variant", ["linear_combination", "product"])
def test_assemble_row_chunks_do_not_change_values(monkeypatch, variant):
    # vertex 0 of every graph is labeled 0, so that depth-0 feature is held by
    # all 21 graphs and its 210 pairs span many chunks of 1 or 7 pairs
    graphs = [LabeledGraph.build(g.n, g.edges, (0,) + g.labels[1:], g.weights)
              for g in weighted_dataset(3, count=20).graphs]
    ds = GraphDataset(tuple(graphs), tuple(range(len(graphs))))
    spec = WeightFunctionSpec("native")
    filt = build_filtration(ds, spec, 6)
    store = extract_all(graphs, filt, 1)
    assert np.count_nonzero(store.feature == 0) == len(graphs)
    cfg = KernelConfig(h=1, beta=0.05, variant=variant)
    expected = assemble_gram_reference(store, filt, cfg).tobytes()
    assert kernels.assemble_gram(store, filt, cfg).tobytes() == expected
    # a chunk of e entries holds e // (k - 1) pairs, at least one
    assert len(filt) == 6
    for entries in (1, 35):
        monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", entries)
        assert kernels.assemble_gram(store, filt, cfg).tobytes() == expected


def shaped_store(seed, shape, k, h):
    """Feature counts of a `weighted_dataset` variant, with their filtration.

    'one' is the path alone and 'distinct' gives every vertex a label of its
    own, so no feature is shared; 'copies' repeats the path, so every feature
    is held by every graph; 'mixed' is `weighted_dataset` itself.
    """
    graphs = weighted_dataset(seed, count=5).graphs
    if shape == "one":
        graphs = graphs[-1:]
    elif shape == "copies":
        graphs = (graphs[-1],) * 4
    elif shape == "distinct":
        start = np.cumsum([0] + [g.n for g in graphs])
        graphs = tuple(LabeledGraph.build(g.n, g.edges, range(lo, lo + g.n), g.weights)
                       for g, lo in zip(graphs, start.tolist()))
    ds = GraphDataset(tuple(graphs), (0,) * len(graphs))
    filt = build_filtration(ds, WeightFunctionSpec("native"), k)
    return extract_all(ds, filt, h), filt


@pytest.mark.parametrize("variant", ["linear_combination", "product"])
@pytest.mark.parametrize("k", [1, 2, 6])
@pytest.mark.parametrize("h", [0, 2, 3])
@pytest.mark.parametrize("shape", ["one", "distinct", "copies", "mixed"])
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_assemble_gram_bytes_match_reference(variant, k, h, shape, seed):
    store, line = shaped_store(seed, shape, k, h)
    holders = np.bincount(store.feature)[store.feature]
    if shape in ("one", "distinct"):
        assert np.all(holders == 1)
    elif shape == "copies":
        assert np.all(holders == store.num_graphs)
    else:
        assert np.any(holders == 1) and np.any(holders > 1)
    cfg = KernelConfig(h=h, gamma=0.8, beta=0.05, variant=variant)
    got = kernels.assemble_gram(store, line, cfg)
    expected = assemble_gram_reference(store, line, cfg)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def squared_mass_diagonal(store):
    """Each graph's sum of squared row masses, the key `_first_equal_tables` reads."""
    mass = store.counts.sum(axis=1)
    diag = np.zeros(store.num_graphs, dtype=np.int64)
    np.add.at(diag, store.graph, mass * mass)
    return diag


def planted_dataset(seed, copies):
    """`weighted_dataset(seed, count=5)` with `copies` vertex-permuted copies of
    its graphs inserted at random places, and each graph's original index."""
    rng = random.Random(seed)
    base = weighted_dataset(seed, count=5).graphs
    graphs, origin = list(base), list(range(len(base)))
    for _ in range(copies):
        tag = rng.randrange(len(base))
        perm = list(range(base[tag].n))
        rng.shuffle(perm)
        at = rng.randrange(len(graphs) + 1)
        graphs.insert(at, permute_graph(base[tag], perm))
        origin.insert(at, tag)
    return GraphDataset(tuple(graphs), tuple(origin)), origin


@pytest.mark.parametrize("variant", ["linear_combination", "product"])
@pytest.mark.parametrize("k", [1, 2, 6])
@pytest.mark.parametrize("h", [0, 2])
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), copies=st.integers(1, 4))
def test_planted_copies_assemble_byte_for_byte(variant, k, h, seed, copies):
    ds, origin = planted_dataset(seed, copies)
    spec = WeightFunctionSpec("native")
    filt = build_filtration(ds, spec, k)
    store = extract_all(ds, filt, h)
    first = kernels._first_equal_tables(store, squared_mass_diagonal(store))
    # brute force: first[g] is the lowest id whose (feature, counts) rows equal g's
    tables = [tuple((f, *c) for f, c in zip(store.feature[store.graph == g].tolist(),
                                            store.counts[store.graph == g].tolist()))
              for g in range(len(ds))]
    assert first.tolist() == [tables.index(t) for t in tables]
    # every copy sits in the group of its original; WL may add other graphs
    for tag in set(origin):
        at = [p for p, t in enumerate(origin) if t == tag]
        assert len(set(first[at].tolist())) == 1
    assert np.count_nonzero(first != np.arange(len(ds))) >= copies

    cfg = KernelConfig(h=h, gamma=0.8, beta=0.05, variant=variant)
    expected = assemble_gram_reference(store, filt, cfg)
    assert kernels.assemble_gram(store, filt, cfg).tobytes() == expected.tobytes()
    scale = 1.0 / np.sqrt(np.diag(expected))
    cosine = expected * np.outer(scale, scale)
    np.fill_diagonal(cosine, 1.0)
    for normalize, want in ((False, expected), (True, cosine)):
        cfg = KernelConfig(h=h, gamma=0.8, beta=0.05, variant=variant, normalize=normalize)
        assert gram_matrix(ds, spec, filt, cfg).values.tobytes() == want.tobytes()


def near_miss_store():
    """Five graphs of two rows each whose squared masses all sum to 8: graphs 0
    and 2 hold one table, 1 and 4 another, and 3 a third."""
    tables = [{0: (2, 0), 1: (1, 1)}, {0: (1, 1), 1: (2, 0)}, {0: (2, 0), 1: (1, 1)},
              {0: (2, 0), 2: (1, 1)}, {0: (1, 1), 1: (2, 0)}]
    rows = sorted((f, g, c) for g, t in enumerate(tables) for f, c in t.items())
    graph, feature, counts = zip(*((g, f, c) for f, g, c in rows))
    store = FeatureCounts(np.array(graph), np.array(feature), np.array(counts),
                          np.zeros(3, dtype=np.int64), len(tables))
    return store, Filtration((1.0, 0.0))


@pytest.mark.parametrize("variant", ["linear_combination", "product"])
def test_near_miss_tables_stay_apart(variant):
    store, line = near_miss_store()
    diag = squared_mass_diagonal(store)
    # one (rows, diag) key holds all five graphs, three tables among them
    assert np.all(diag == 8) and np.all(np.bincount(store.graph) == 2)
    assert kernels._first_equal_tables(store, diag).tolist() == [0, 1, 0, 3, 1]
    cfg = KernelConfig(h=2, gamma=0.8, beta=0.05, variant=variant)
    expected = assemble_gram_reference(store, line, cfg)
    assert kernels.assemble_gram(store, line, cfg).tobytes() == expected.tobytes()


def test_csl_100_has_ten_feature_tables():
    ds = generate_csl_benchmark(copies=10, seed=0)
    weighted = reweight(ds, WeightFunctionSpec("walks", walk_length=7))
    filt = build_filtration(weighted, WeightFunctionSpec(), "auto")
    store = extract_all(weighted, filt, 2)
    first = kernels._first_equal_tables(store, squared_mass_diagonal(store))
    # the ten copies of a skip class are one table, the classes ten tables
    assert first.tolist() == [g - g % 10 for g in range(100)]
    cfg = KernelConfig(h=2)
    expected = assemble_gram_reference(store, filt, cfg)
    assert kernels.assemble_gram(store, filt, cfg).tobytes() == expected.tobytes()


@pytest.mark.parametrize("variant", ["linear_combination", "product"])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_assemble_gram_symmetric_with_squared_mass_diagonal(variant, seed):
    cfg = KernelConfig(h=2, gamma=0.8, beta=0.05, variant=variant)
    for shape in ("mixed", "distinct"):
        store, line = shaped_store(seed, shape, 6, 2)
        K = kernels.assemble_gram(store, line, cfg)
        assert np.array_equal(K, K.T)
        # each graph's squared masses, summed in feature order
        sq, fsq = [0] * store.num_graphs, [0.0] * store.num_graphs
        for g, m in zip(store.graph.tolist(), store.counts.sum(axis=1).tolist()):
            sq[g] += m * m
            fsq[g] += float(m * m)
        if variant == "linear_combination":
            assert np.diag(K).tobytes() == np.array(fsq).tobytes()
        else:
            assert np.all(np.diag(K) == 1.0)
        if variant == "product" and shape == "distinct":
            # no shared feature: K(i, j) = exp(-beta * (sq_i + sq_j)), from int64 sq
            sq = np.array(sq, dtype=np.int64)
            expected = np.exp(-cfg.gamma * np.zeros_like(K)
                              - cfg.beta * (sq[:, None] + sq[None, :]))
            off = ~np.eye(len(sq), dtype=bool)
            assert K[off].tobytes() == expected[off].tobytes()


def test_assemble_rejects_counts_off_the_ground_line():
    store = extract_all([LabeledGraph.build(2, [(0, 1)], weights=[1.0])], Filtration((1.0, 0.0)), 1)
    with pytest.raises(ValueError, match="over 2 levels .* ground line of length 3"):
        kernels.assemble_gram(store, Filtration((2.0, 1.0, 0.0)), KernelConfig())


@pytest.mark.parametrize("variant", ["linear_combination", "product"])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_reordering_the_graphs_permutes_the_gram_bytes(variant, seed, data):
    # each entry sums its feature terms in id order, so the ids must not
    # depend on where a graph sits in the dataset
    ds = random_dataset(seed, 60, max_n=12)
    spec = WeightFunctionSpec("degree")
    filt = build_filtration(reweight(ds, spec), WeightFunctionSpec(), 6)
    p = data.draw(st.permutations(range(len(ds))))
    reordered = GraphDataset(tuple(ds.graphs[i] for i in p), tuple(ds.class_labels[i] for i in p))
    cfg = KernelConfig(h=3, gamma=1.0, beta=0.05, variant=variant)
    a = gram_matrix(ds, spec, filt, cfg).values
    b = gram_matrix(reordered, spec, filt, cfg).values
    assert a[np.ix_(p, p)].tobytes() == b.tobytes()


@pytest.mark.parametrize("variant", ["linear_combination", "product"])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_graphs_before_the_training_set_leave_its_block_as_it_is(variant, seed):
    # 15 graphs ahead of 40 training graphs, each with a vertex label the
    # training graphs lack: under the training filtration, the union's
    # training block is the training Gram, byte for byte
    train = random_dataset(seed, 40, max_n=12)
    rng = random.Random(seed)
    extras = [random_graph(rng, max_n=12) for _ in range(15)]
    extras = [LabeledGraph.build(g.n, g.edges, (3,) + g.labels[1:], g.weights) for g in extras]
    union = GraphDataset(tuple(extras) + train.graphs, (0,) * 15 + train.class_labels)
    spec = WeightFunctionSpec("degree")
    filt = build_filtration(reweight(train, spec), WeightFunctionSpec(), 6)
    cfg = KernelConfig(h=3, gamma=1.0, beta=0.05, variant=variant)
    alone = gram_matrix(train, spec, filt, cfg).values
    assert gram_matrix(union, spec, filt, cfg).values[15:, 15:].tobytes() == alone.tobytes()
