"""Small planar vector type and the handful of operations the laws need.

Intentionally dependency-free. The rotation convention is fixed once here:
``perp`` rotates counterclockwise by a quarter turn, (x, y) -> (-y, x), and
everything downstream (frames, transverse components, turn signs) inherits it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import ZeroVector

_TWO_600 = 2.0 ** 600


@dataclass(frozen=True)
class PlanarVector:
    """A point or direction in the plane. Components must be finite."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite component in PlanarVector({self.x}, {self.y})")

    def __add__(self, other: "PlanarVector") -> "PlanarVector":
        return PlanarVector(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "PlanarVector") -> "PlanarVector":
        return PlanarVector(self.x - other.x, self.y - other.y)

    def __mul__(self, s: float) -> "PlanarVector":
        return PlanarVector(self.x * s, self.y * s)

    __rmul__ = __mul__


def dot(a: PlanarVector, b: PlanarVector) -> float:
    return a.x * b.x + a.y * b.y


def norm(a: PlanarVector) -> float:
    # hypot keeps full precision even when the squares would denormalize.
    return math.hypot(a.x, a.y)


def perp(a: PlanarVector) -> PlanarVector:
    # Counterclockwise quarter turn.
    return PlanarVector(-a.y, a.x)


def unit(a: PlanarVector) -> PlanarVector:
    """Direction of ``a``. Raises ZeroVector for the zero vector."""
    n = norm(a)
    if n == 0.0:
        raise ZeroVector("cannot normalize the zero vector")
    if n < sys.float_info.min:
        # A subnormal norm keeps too few significant bits to divide by; an
        # exact power-of-two rescale restores them without changing direction.
        a = PlanarVector(a.x * _TWO_600, a.y * _TWO_600)
        n = norm(a)
    return PlanarVector(a.x / n, a.y / n)


def cross(a: PlanarVector, b: PlanarVector) -> float:
    """Signed area a.x*b.y - a.y*b.x; positive when b lies counterclockwise of a."""
    return a.x * b.y - a.y * b.x
