"""The ground line of the 1-D Wasserstein distance between filtration histograms.

The thresholds act as points on the real line, so the optimal transport cost
has a closed form: integrate |CDF difference| over the line.
`wasserstein_cdf_points` evaluates it from sparse CDF points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence


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


def wasserstein_cdf_points(
    nz1: Sequence[tuple[int, float]],
    nz2: Sequence[tuple[int, float]],
    line: GroundLine,
) -> float:
    """Closed form evaluated from sparse (index, cumulative mass) points.

    Cost is linear in the number of nonzero entries rather than in the
    histogram length.
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
