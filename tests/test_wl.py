"""Label refinement, interning, and filtration-histogram extraction."""

import bisect
import itertools
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wlfiltration import (
    Filtration,
    GraphDataset,
    LabeledGraph,
    WeightFunctionSpec,
    build_filtration,
    extract_all,
    generate_csl_benchmark,
    permute_graph,
    reweight,
)
from wlfiltration import wl

from conftest import path3, prism_graph, random_dataset, random_graph, with_weights
from kernel_reference import FiltrationHistogram, dump_feature_table, tables_from
from wl_reference import LabelInterner, extract_all_reference, wl_refine


def test_refine_edgeless_uniform():
    g = LabeledGraph.build(4, [])
    interner = LabelInterner()
    labels = [interner.initial_id(lab) for lab in g.labels]
    refined = wl_refine(g, labels, interner)
    assert len(set(refined)) == 1
    assert interner.depth_of[refined[0]] == 1


def test_refine_path_separates_degrees():
    g = path3()
    interner = LabelInterner()
    labels = [interner.initial_id(lab) for lab in g.labels]
    refined = wl_refine(g, labels, interner)
    assert refined[0] == refined[2]
    assert refined[1] != refined[0]


def test_refine_distinguishes_triangle_level():
    # level-1 filtration graphs of the two 3-regular witnesses
    triangles = reweight(prism_graph(), WeightFunctionSpec("triangles"))
    level1 = LabeledGraph(6, tuple(e for e, w in zip(triangles.edges, triangles.weights) if w >= 1),
                          triangles.labels,
                          tuple(w for w in triangles.weights if w >= 1))
    edgeless = LabeledGraph.build(6, [])
    interner = LabelInterner()
    start = [interner.initial_id(0)] * 6
    multiset_a = Counter(wl_refine(level1, start, interner))
    multiset_b = Counter(wl_refine(edgeless, start, interner))
    assert len(multiset_a) == 1 and len(multiset_b) == 1
    assert multiset_a != multiset_b


def test_refine_rejects_wrong_length():
    with pytest.raises(ValueError):
        wl_refine(path3(), [0], LabelInterner())


def test_depth1_labels_separate_different_edge_counts():
    # equal vertex count but different edge count forces different
    # depth-1 label multisets (degree-sum argument)
    rng = random.Random(8)
    for _ in range(20):
        a = random_graph(rng, max_n=8, num_labels=1)
        b = random_graph(rng, max_n=8, num_labels=1)
        if a.n != b.n or a.edge_count == b.edge_count:
            continue
        interner = LabelInterner()
        start_a = [interner.initial_id(lab) for lab in a.labels]
        start_b = [interner.initial_id(lab) for lab in b.labels]
        assert Counter(wl_refine(a, start_a, interner)) != Counter(
            wl_refine(b, start_b, interner)
        )


def test_interner_density_and_depth():
    interner = LabelInterner()
    interner.register_initial([7, 3, 3, 9])
    assert len(interner) == 3
    assert [interner.initial_id(raw) for raw in (3, 7, 9)] == [0, 1, 2]
    fresh = interner.refined_id(0, (1, 1, 2))
    assert fresh == 3
    assert interner.refined_id(0, (1, 1, 2)) == 3  # injective lookup, no growth
    assert interner.refined_id(0, (1, 2, 1)) != 3  # different key, fresh id
    assert interner.depth_of[fresh] == 1
    assert interner.depth_of[interner.refined_id(fresh, ())] == 2


def test_extract_single_edge_h0():
    g = LabeledGraph.build(2, [(0, 1)])
    (table,) = tables_from(extract_all([g], Filtration((0.0,)), 0))
    assert len(table.features) == 1
    (hist,) = table.features.values()
    assert hist.counts == (2,)
    assert hist.mass == 2


def test_extract_path_two_levels():
    g = path3(2.0, 1.0)
    store = extract_all([g], Filtration((2.0, 1.0)), 1)
    (table,) = tables_from(store)
    by_counts = sorted(h.counts for h in table.features.values())
    # initial label [3,3]; endpoint-with-one-neighbor [2,2];
    # isolated vertex [1,0]; middle-with-two-neighbors [0,1]
    assert by_counts == [(0, 1), (1, 0), (2, 2), (3, 3)]
    depth_of_counts = {
        h.counts: store.depth[fid] for fid, h in table.features.items()
    }
    assert depth_of_counts[(3, 3)] == 0
    assert depth_of_counts[(2, 2)] == 1


def test_extract_mass_accounting():
    rng = random.Random(4)
    for _ in range(15):
        g = random_graph(rng, max_n=9)
        g = with_weights(g, [rng.choice([0, 1, 2]) for _ in g.edges])
        thresholds = tuple(sorted({0.0, 1.0, 2.0} & set(map(float, g.weights)) | {0.0},
                                  reverse=True)) or (0.0,)
        filt = Filtration(thresholds)
        h = rng.randint(0, 3)
        (table,) = tables_from(extract_all([g], filt, h))
        assert table.total_mass() == (h + 1) * len(filt) * g.n
        assert all(hist.mass >= 1 for hist in table.features.values())


def test_extract_permutation_invariance():
    rng = random.Random(5)
    for _ in range(10):
        g = random_graph(rng, max_n=8)
        g = with_weights(g, [rng.choice([1, 2]) for _ in g.edges])
        perm = list(range(g.n))
        rng.shuffle(perm)
        p = permute_graph(g, perm)
        filt = Filtration((2.0, 1.0))
        t_g, t_p = tables_from(extract_all([g, p], filt, 2))
        assert t_g == t_p


def test_extract_all_threaded_matches_sequential():
    rng = random.Random(6)
    graphs = [random_graph(rng, max_n=8, num_labels=4) for _ in range(12)]
    graphs = [with_weights(g, [rng.choice([0, 1]) for _ in g.edges]) for g in graphs]
    filt = Filtration((1.0, 0.0))
    sequential = extract_all(graphs, filt, 2, threads=1)
    parallel = extract_all(graphs, filt, 2, threads=4)
    assert tables_from(sequential) == tables_from(parallel)
    assert np.array_equal(sequential.depth, parallel.depth)


def test_histogram_normalization():
    hist = FiltrationHistogram((2, 0, 2))
    assert hist.mass == 4
    assert hist.normalized == (0.5, 0.0, 0.5)
    assert hist.nonzero_cdf == ((0, 0.5), (2, 1.0))
    with pytest.raises(ValueError, match="zero-mass"):
        FiltrationHistogram((0, 0)).normalized


def test_dump_feature_table_golden():
    g = path3(2.0, 1.0)
    store = extract_all([g], Filtration((2.0, 1.0)), 1)
    (table,) = tables_from(store)
    assert dump_feature_table(table, store.depth) == (
        "0 0 3 3\n"
        "1 1 1 0\n"
        "2 1 2 2\n"
        "3 1 0 1\n"
    )


# Small integers, integers around 2**60 (with one float among them, exact
# at that size, so weights and thresholds mix types) and non-integral floats.
_WEIGHT_POOLS = (
    [0, 1, 2, 3],
    [2**60 + d for d in range(-2, 3)] + [float(2**60 + 4096)],
    [0.5, 1.0, 2.5],
)


@st.composite
def _datasets(draw):
    pool = draw(st.sampled_from(_WEIGHT_POOLS))
    graphs = []
    for _ in range(draw(st.integers(0, 5))):
        n = draw(st.integers(0, 7))
        pairs = list(itertools.combinations(range(n), 2))
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        weights = draw(st.lists(st.sampled_from(pool), min_size=len(edges), max_size=len(edges)))
        graphs.append(LabeledGraph.build(n, edges, labels, weights))
    thresholds = draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))
    return graphs, Filtration(tuple(sorted(thresholds, reverse=True)))


_EDGELESS = LabeledGraph.build(4, [], [2, 0, 2, 1])
_EMPTY = LabeledGraph.build(0, [])
_ISOLATED = LabeledGraph.build(5, [(0, 1), (1, 2)], [0, 0, 0, 1, 1], [2**60 + 1, 2**60])
# weights 3, 1 and 0: under thresholds (3, 2, 1) level 1 adds no edge and the
# weight-0 edge is on no level
_SPARSE_LEVELS = LabeledGraph.build(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
                                    [0, 1, 0, 1, 2], [3, 1, 0, 3, 1])
# every edge on level 0 when the first threshold is 3
_TOP_LEVEL = LabeledGraph.build(4, [(0, 1), (1, 2), (2, 3), (0, 2)], [1, 0, 0, 1], [3, 3, 3, 3])


def assert_store_invariants(store, num_graphs, k):
    """Rows strictly sorted by (feature, graph), int64 columns, every mass >= 1,
    and feature ids ascending with depth."""
    rows = len(store.graph)
    assert store.num_graphs == num_graphs
    assert store.counts.shape == (rows, k) and store.num_levels == k
    assert len(store.feature) == rows
    for column in (store.graph, store.feature, store.counts):
        assert column.dtype == np.int64
    assert np.all((store.graph >= 0) & (store.graph < num_graphs))
    key = list(zip(store.feature.tolist(), store.graph.tolist()))
    assert all(x < y for x, y in zip(key, key[1:]))
    assert np.all(store.counts >= 0) and np.all(store.counts.sum(axis=1) >= 1)
    assert np.all(np.diff(store.depth) >= 0)


def test_feature_counts_invariants():
    rng = random.Random(9)
    graphs = [random_graph(rng, max_n=9, num_labels=3) for _ in range(15)]
    graphs = [with_weights(g, [rng.choice([0, 1, 2]) for _ in g.edges]) for g in graphs]
    filt = Filtration((2.0, 1.0, 0.0))
    store = extract_all(graphs, filt, 2)
    assert_store_invariants(store, 15, 3)
    # every vertex carries one label per level and depth
    assert store.counts.sum() == 3 * 3 * sum(g.n for g in graphs)

    empty = extract_all([], Filtration((2.0, 1.0)), 2)
    assert_store_invariants(empty, 0, 2)
    assert empty.counts.shape == (0, 2)

    edgeless = [LabeledGraph.build(3, [], [0, 1, 0]), LabeledGraph.build(2, [], [1, 1])]
    store = extract_all(edgeless, Filtration((0.0,)), 1)
    assert_store_invariants(store, 2, 1)
    # labels 0, 1 and their depth-1 renamings 2, 3; only label 0 is missing from graph 1
    assert store.feature.tolist() == [0, 1, 1, 2, 3, 3]
    assert store.graph.tolist() == [0, 0, 1, 0, 0, 1]
    assert store.counts[:, 0].tolist() == [2, 1, 2, 2, 1, 2]


# spread scales every raw vertex label, so the alphabet `extract_all` makes
# dense has gaps and large raw values; the ids must not depend on them
@pytest.mark.parametrize("spread", [1, 50, 8192])
@settings(max_examples=150, deadline=None)
@given(data=_datasets(), h=st.integers(0, 4))
@example(data=([], Filtration((0,))), h=2)
@example(data=([_EMPTY], Filtration((1, 0))), h=3)
@example(data=([_ISOLATED], Filtration((2**60,))), h=4)
@example(data=([_EDGELESS, _EMPTY, _ISOLATED, _EDGELESS], Filtration((2**60 + 1, 2**60))), h=4)
@example(data=([_SPARSE_LEVELS, _TOP_LEVEL], Filtration((3, 2, 1))), h=2)
@example(data=([_TOP_LEVEL, _SPARSE_LEVELS], Filtration((4, 3, 2))), h=3)
@example(data=([_TOP_LEVEL], Filtration((3, 1, 0))), h=2)
@example(data=([_EDGELESS, _SPARSE_LEVELS, _EDGELESS, _TOP_LEVEL], Filtration((3, 1, 0))), h=2)
def test_extract_all_matches_reference(spread, data, h):
    graphs, filt = data
    graphs = [LabeledGraph.build(g.n, g.edges, [raw * spread for raw in g.labels], g.weights)
              for g in graphs]
    store = extract_all(graphs, filt, h)
    tables, depth = extract_all_reference(graphs, filt, h)
    assert tables_from(store) == tables
    assert_store_invariants(store, len(graphs), len(filt))
    assert store.depth.dtype == np.int64
    assert store.depth.tolist() == depth


def test_extract_all_refines_only_levels_that_add_an_edge(monkeypatch):
    # CSL-10 under walk weights: each graph's edges share few distinct levels
    dataset = reweight(generate_csl_benchmark(copies=1, seed=0),
                       WeightFunctionSpec("walks", walk_length=7))
    filt = build_filtration(dataset, WeightFunctionSpec(), "auto")
    k = len(filt)
    ascending = filt.thresholds[::-1]
    want = sum(len(({0} | {k - bisect.bisect_right(ascending, w) for w in g.weights}) - {k})
               for g in dataset.graphs)
    vertices = []
    classes = wl._classes

    def counting(arc, labels):
        vertices.append(labels.shape[1])
        return classes(arc, labels)

    monkeypatch.setattr(wl, "_classes", counting)
    store = extract_all(dataset.graphs, filt, 2)
    # one union of the 41 vertices of each refined copy
    assert vertices == [41 * want] and want < len(dataset) * k
    assert tables_from(store) == extract_all_reference(dataset.graphs, filt, 2)[0]


def test_extract_all_numbers_labels_across_the_whole_dataset():
    # graph 199 repeats graph 0: its labels get the same ids, deep ones that
    # no graph in between holds among them
    graphs = list(random_dataset(12, 200, min_n=6, max_n=14).graphs)
    graphs[199] = graphs[0]
    dataset = reweight(GraphDataset(tuple(graphs), (0,) * 200),
                       WeightFunctionSpec("degree"))
    filt = build_filtration(dataset, WeightFunctionSpec(), 4)
    store = extract_all(dataset.graphs, filt, 3)
    first, last = store.graph == 0, store.graph == 199
    assert store.feature[first].tolist() == store.feature[last].tolist()
    assert np.array_equal(store.counts[first], store.counts[last])
    holders = np.bincount(store.feature, minlength=len(store.depth))
    assert np.any(holders[store.feature[first]] == 2)
    assert tables_from(store) == extract_all_reference(dataset.graphs, filt, 3)[0]


@pytest.mark.parametrize("h", [0, 3])
def test_extract_all_matches_reference_with_signature_gaps(h):
    # The centre of a 12-leaf star passes through 12 signature columns and
    # keeps only the last, and the isolated vertices keep labels below the
    # previous width that other labels leave unused: each round's signatures
    # leave gaps below the bound that the dense class ids must skip.
    leaves = [(0, v) for v in range(1, 13)]
    star = LabeledGraph.build(15, leaves + [(1, 2), (3, 4)], [0, 1, 1, 2] + [1] * 9 + [3, 0],
                              [v % 4 for v in range(1, 13)] + [5, 1])
    path = LabeledGraph.build(4, [(0, 1), (1, 2)], [3, 1, 1, 2], [2, 0])
    graphs = [star, LabeledGraph.build(0, []), path, LabeledGraph.build(2, [], [0, 3]), star]
    filt = Filtration((5, 3, 2, 1, 0))
    store = extract_all(graphs, filt, h)
    tables, depth = extract_all_reference(graphs, filt, h)
    assert tables_from(store) == tables
    assert store.depth.tolist() == depth
    assert_store_invariants(store, len(graphs), len(filt))


def test_extract_all_rejects_negative_h_without_graphs():
    with pytest.raises(ValueError, match="h must be >= 0"):
        extract_all([], Filtration((0.0,)), -1)
