"""Closed-form 1-D Wasserstein distance against the transport-definition oracle."""

import math
import random

import numpy as np
import pytest

from wlfiltration import GroundLine, wasserstein_cdf_points

from kernel_reference import base_kernel, wasserstein_1d, wasserstein_matching


def random_line(rng: random.Random, max_k: int = 8) -> GroundLine:
    size = rng.randint(1, max_k)
    positions = sorted({round(rng.uniform(0.0, 10.0), 4) for _ in range(size)}, reverse=True)
    return GroundLine(tuple(positions) or (0.0,))


def random_rational_hist(rng: random.Random, k: int, denominator: int):
    cuts = sorted(rng.randint(0, denominator) for _ in range(k - 1))
    counts = [b - a for a, b in zip([0, *cuts], [*cuts, denominator])]
    return counts, [c / denominator for c in counts]


def test_ground_line_validation():
    line = GroundLine((3.0, 1.0, 0.0))
    assert line.gaps == (2.0, 1.0)
    with pytest.raises(ValueError):
        GroundLine(())
    with pytest.raises(ValueError, match="non-increasing"):
        GroundLine((1.0, 2.0))


def test_wasserstein_examples():
    assert wasserstein_1d((1.0, 0.0), (1.0, 0.0), GroundLine((2.0, 0.0))) == 0.0
    assert wasserstein_1d((1.0, 0.0), (0.0, 1.0), GroundLine((2.0, 0.0))) == 2.0
    assert wasserstein_1d(
        (0.5, 0.0, 0.5), (0.0, 0.5, 0.5), GroundLine((3.0, 1.0, 0.0))
    ) == pytest.approx(1.0, abs=1e-12)


def test_wasserstein_input_validation():
    line = GroundLine((1.0, 0.0))
    with pytest.raises(ValueError, match="length"):
        wasserstein_1d((1.0,), (0.5, 0.5), line)
    with pytest.raises(ValueError, match="mass"):
        wasserstein_1d((0.7, 0.2), (0.5, 0.5), line)


def test_matching_oracle_examples():
    line = GroundLine((2.0, 0.0))
    assert wasserstein_matching([1, 0], [1, 0], 1, line) == 0.0
    assert wasserstein_matching([1, 0], [0, 1], 1, line) == 2.0
    with pytest.raises(ValueError, match="denominator"):
        wasserstein_matching([10**4 + 1, 0], [0, 10**4 + 1], 10**4 + 1, line)
    with pytest.raises(ValueError, match="sum"):
        wasserstein_matching([1, 1], [2, 0], 3, line)


def test_closed_form_equals_matching_oracle():
    rng = random.Random(42)
    for _ in range(1000):
        line = random_line(rng)
        k = len(line)
        denominator = rng.randint(1, 10**4)
        c1, h1 = random_rational_hist(rng, k, denominator)
        c2, h2 = random_rational_hist(rng, k, denominator)
        closed = wasserstein_1d(h1, h2, line)
        oracle = wasserstein_matching(c1, c2, denominator, line)
        assert abs(closed - oracle) <= 1e-10


def test_sparse_cdf_path_equals_dense():
    rng = random.Random(43)
    for _ in range(500):
        line = random_line(rng)
        k = len(line)
        c1, h1 = random_rational_hist(rng, k, rng.randint(1, 50))
        c2, h2 = random_rational_hist(rng, k, rng.randint(1, 50))
        nz1 = tuple((i, sum(c1[: i + 1]) / sum(c1)) for i in range(k) if c1[i])
        nz2 = tuple((i, sum(c2[: i + 1]) / sum(c2)) for i in range(k) if c2[i])
        dense = wasserstein_1d(h1, h2, line)
        sparse = wasserstein_cdf_points(nz1, nz2, line)
        assert abs(dense - sparse) <= 1e-12


def test_metric_properties():
    rng = random.Random(44)
    for _ in range(300):
        line = random_line(rng)
        k = len(line)
        hists = []
        for _ in range(3):
            _, h = random_rational_hist(rng, k, rng.randint(1, 100))
            hists.append(h)
        a, b, c = hists
        dab = wasserstein_1d(a, b, line)
        dba = wasserstein_1d(b, a, line)
        dac = wasserstein_1d(a, c, line)
        dbc = wasserstein_1d(b, c, line)
        assert dab >= 0.0
        assert dab == pytest.approx(dba, abs=1e-12)
        assert wasserstein_1d(a, a, line) == 0.0
        assert dac <= dab + dbc + 1e-12
        if dab == 0.0:
            # identity of indiscernibles: CDFs agree at every gap > 0
            f1 = f2 = 0.0
            for i in range(k - 1):
                f1 += a[i]
                f2 += b[i]
                if line.gaps[i] > 0:
                    assert abs(f1 - f2) < 1e-12


def test_scale_covariance():
    rng = random.Random(45)
    for _ in range(100):
        line = random_line(rng)
        k = len(line)
        _, h1 = random_rational_hist(rng, k, 30)
        _, h2 = random_rational_hist(rng, k, 30)
        base = wasserstein_1d(h1, h2, line)
        for scale in (0.5, 2.0, 7.25):
            scaled = GroundLine(tuple(p * scale for p in line.positions))
            assert wasserstein_1d(h1, h2, scaled) == pytest.approx(
                scale * base, rel=1e-12, abs=1e-12
            )


def test_base_kernel_values():
    line = GroundLine((1.0, 0.0))
    assert base_kernel((0.5, 0.5), (0.5, 0.5), line, 4.2) == 1.0
    assert base_kernel((1.0, 0.0), (0.0, 1.0), line, 0.0) == 1.0
    # W = 1.0 at gamma 0.5
    value = base_kernel((1.0, 0.0), (0.0, 1.0), line, 0.5)
    assert value == pytest.approx(math.exp(-0.5), rel=1e-12)
    assert value == pytest.approx(0.606531, abs=1e-6)
    with pytest.raises(ValueError):
        base_kernel((1.0, 0.0), (0.0, 1.0), line, -1.0)


def test_base_kernel_gram_is_psd():
    rng = random.Random(46)
    for gamma in (0.1, 1.0, 10.0):
        line = random_line(rng, max_k=6)
        k = len(line)
        hists = [random_rational_hist(rng, k, rng.randint(1, 60))[1] for _ in range(25)]
        gram = np.array(
            [[base_kernel(a, b, line, gamma) for b in hists] for a in hists]
        )
        smallest = np.linalg.eigvalsh(gram).min()
        assert smallest >= -1e-8 * np.trace(gram)
