"""Numeric tolerances shared across the library."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Comparison thresholds used throughout.

    cmp:   equality threshold for complex scalars and matrix entries
    zero:  absolute "is zero" threshold
    vgood: scale-relative determinant threshold for v-goodness
    """

    cmp: float = 1e-8
    zero: float = 1e-12
    vgood: float = 1e-7

    def __post_init__(self):
        for name in ("cmp", "zero", "vgood"):
            value = getattr(self, name)
            if not 0 < value < math.inf:  # NaN fails too
                raise ValueError(
                    f"tolerance {name} must be positive and finite, got {value}")


DEFAULT_TOL = Tolerances()

