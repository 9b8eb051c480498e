"""Circular skip link generation: regularity, validity bounds, determinism."""

import itertools

import numpy as np
import pytest

from wlfiltration import (
    KernelConfig,
    WeightFunctionSpec,
    csl_graph,
    generate_csl,
    generate_csl_benchmark,
    gram_matrix,
)
from wlfiltration.csl import BENCHMARK_SKIPS

from conftest import degree


def adjacency_spectrum(g):
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
    return np.sort(np.linalg.eigvalsh(a))


def test_csl_graph_41_2():
    g = csl_graph(41, 2)
    assert g.n == 41
    assert g.edge_count == 82
    assert all(degree(g, v) == 4 for v in range(41))


def test_csl_graph_8_3():
    g = csl_graph(8, 3)
    assert g.n == 8
    assert g.edge_count == 16
    assert all(degree(g, v) == 4 for v in range(8))


def test_csl_graph_invalid_parameters():
    with pytest.raises(ValueError, match="2s < n"):
        csl_graph(8, 4)
    with pytest.raises(ValueError, match="at least 2"):
        csl_graph(8, 1)
    with pytest.raises(ValueError, match="n >= 5"):
        csl_graph(4, 2)


def test_generate_csl_copies_and_labels():
    ds = generate_csl(11, 3, copies=4, seed=9)
    assert len(ds) == 4
    assert ds.class_labels == (3, 3, 3, 3)
    base_spectrum = adjacency_spectrum(ds.graphs[0])
    for g in ds.graphs[1:]:
        assert np.allclose(adjacency_spectrum(g), base_spectrum)
    with pytest.raises(ValueError):
        generate_csl(11, 3, copies=0, seed=9)


def test_generate_csl_deterministic():
    a = generate_csl(13, 4, copies=3, seed=5)
    b = generate_csl(13, 4, copies=3, seed=5)
    assert a == b
    c = generate_csl(13, 4, copies=3, seed=6)
    assert a != c


def test_benchmark_shapes():
    ds = generate_csl_benchmark(copies=10, seed=0)
    assert len(ds) == 100
    assert sorted(set(ds.class_labels)) == sorted(BENCHMARK_SKIPS)
    single = generate_csl_benchmark(copies=1, seed=0)
    assert len(single) == 10
    assert generate_csl_benchmark(copies=1, seed=0) == single


def test_benchmark_classes_pairwise_non_isomorphic():
    # distinct adjacency spectra witness pairwise non-isomorphism
    ds = generate_csl_benchmark(copies=1, seed=0)
    spectra = [adjacency_spectrum(g) for g in ds.graphs]
    for a, b in itertools.combinations(spectra, 2):
        assert np.max(np.abs(a - b)) > 1e-6


def test_csl_kernel_invariant_under_permuted_copies():
    ds = generate_csl(41, 2, copies=3, seed=1)
    cfg = KernelConfig(h=1, gamma=1.0)
    K = gram_matrix(ds, WeightFunctionSpec("walks", walk_length=3), "auto", cfg).values
    for i, j in itertools.combinations(range(3), 2):
        assert K[i, j] == pytest.approx(K[0, 0], rel=1e-9)
