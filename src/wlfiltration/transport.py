"""1-D Wasserstein distance between normalized filtration histograms.

The thresholds act as points on the real line, so the optimal transport cost
has a closed form: integrate |CDF difference| over the line. A direct
sorted-atom-matching evaluation of the transport definition is kept alongside
as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

MASS_TOLERANCE = 1e-9


@dataclass(frozen=True)
class GroundLine:
    """Threshold values as positions on the real line (decreasing order).

    Integer positions keep their gaps exact, however large the integers.
    """

    positions: tuple[float, ...]

    def __post_init__(self):
        if not self.positions:
            raise ValueError("ground line needs at least one position")
        for a, b in zip(self.positions, self.positions[1:]):
            if a < b:
                raise ValueError("positions must be non-increasing")

    def __len__(self) -> int:
        return len(self.positions)

    @cached_property
    def gaps(self) -> tuple[float, ...]:
        return tuple(a - b for a, b in zip(self.positions, self.positions[1:]))


def _check_pair(h1: Sequence[float], h2: Sequence[float], line: GroundLine) -> None:
    if len(h1) != len(line) or len(h2) != len(line):
        raise ValueError(
            f"histogram lengths {len(h1)}, {len(h2)} do not match ground line of length {len(line)}"
        )
    for h in (h1, h2):
        total = math.fsum(h)
        if abs(total - 1.0) > MASS_TOLERANCE:
            raise ValueError(f"histogram mass {total} differs from 1 beyond tolerance")


def wasserstein_1d(h1: Sequence[float], h2: Sequence[float], line: GroundLine) -> float:
    """Closed-form transport distance between two unit-mass histograms.

    Equals sum over i of |F1(i) - F2(i)| * gap(i) with F the prefix-sum
    vector; linear in the histogram length.
    """
    _check_pair(h1, h2, line)
    f1 = 0.0
    f2 = 0.0
    total = 0.0
    gaps = line.gaps
    for i in range(len(line) - 1):
        f1 += h1[i]
        f2 += h2[i]
        total += abs(f1 - f2) * gaps[i]
    return total


def wasserstein_cdf_points(
    nz1: Sequence[tuple[int, float]],
    nz2: Sequence[tuple[int, float]],
    line: GroundLine,
) -> float:
    """Closed form evaluated from sparse (index, cumulative mass) points.

    Cost is linear in the number of nonzero entries rather than in the
    histogram length; agrees with `wasserstein_1d` on dense inputs.
    """
    positions = line.positions
    i = j = 0
    f1 = f2 = 0.0
    prev = None
    total = 0.0
    while i < len(nz1) or j < len(nz2):
        idx1 = nz1[i][0] if i < len(nz1) else len(positions)
        idx2 = nz2[j][0] if j < len(nz2) else len(positions)
        idx = min(idx1, idx2)
        if prev is not None:
            diff = abs(f1 - f2)
            if diff:
                total += diff * (positions[prev] - positions[idx])
        if idx1 == idx:
            f1 = nz1[i][1]
            i += 1
        if idx2 == idx:
            f2 = nz2[j][1]
            j += 1
        prev = idx
    return total


def wasserstein_matching(
    counts1: Sequence[int],
    counts2: Sequence[int],
    denominator: int,
    line: GroundLine,
) -> float:
    """Transport distance evaluated straight from its definition.

    Histogram entries are counts over a common denominator; each unit of
    mass becomes an atom at its threshold position and the sorted lists are
    matched monotonically, which is optimal for a metric cost on the line.
    Intended as the independent oracle for `wasserstein_1d`.
    """
    if denominator < 1 or denominator > 10**4:
        raise ValueError("denominator must be in 1..10000")
    if len(counts1) != len(line) or len(counts2) != len(line):
        raise ValueError("count vectors must match the ground line length")
    if sum(counts1) != denominator or sum(counts2) != denominator:
        raise ValueError("count vectors must each sum to the denominator")
    atoms1 = [p for p, c in zip(line.positions, counts1) for _ in range(c)]
    atoms2 = [p for p, c in zip(line.positions, counts2) for _ in range(c)]
    atoms1.sort()
    atoms2.sort()
    return math.fsum(abs(a - b) for a, b in zip(atoms1, atoms2)) / denominator


def base_kernel(
    h1: Sequence[float],
    h2: Sequence[float],
    line: GroundLine,
    gamma: float,
) -> float:
    """exp(-gamma * W) on unit-mass histograms; gamma = 0 degenerates to 1."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    return math.exp(-gamma * wasserstein_1d(h1, h2, line))
