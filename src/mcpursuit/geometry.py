"""The planar point type of a vehicle's position in a scenario state.

Vector arithmetic is written out on scalars where it is used (the metric
kernel ``metrics.metric_values`` and the law kernels); the rotation
convention, a counterclockwise perp, is stated with the laws in ``guidance``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PlanarVector:
    """A point in the plane. Components must be finite."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite component in PlanarVector({self.x}, {self.y})")
