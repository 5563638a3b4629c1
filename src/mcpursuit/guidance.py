"""Feedback laws for the pursuer and steering programs for the evader.

Notation used throughout: r = pursuer position minus evader position (the
baseline), rdot its time derivative, rhat = r/|r|, and perp the
counterclockwise quarter turn. The signed transverse relative speed is

    w = -(rhat . perp(rdot)) = (r x rdot)/|r|

with x the planar cross product, so w vanishes exactly when rdot is parallel
to the baseline.

Pursuer laws:

* MCPG(mu):  u_p = -mu * (rhat . perp(rdot)) = mu * w. Pure
  motion-camouflage proportional guidance; mu > 0.
* Exact(mu): the MCPG term plus the feedforward correction
  ((xp.xe - nu)/(1 - nu*(xp.xe))) * nu^2 * u_e, where xp and xe are the unit
  tangents. With a straight evader (u_e = 0) it coincides with MCPG.
* PPNG(N):   u_p = N * lambda_dot with lambda_dot = w/|r| the line-of-sight
  rate; planar pure proportional navigation. MCPG is PPNG with the
  range-scheduled gain N = mu*|r|.

Evader programs are open-loop curvature signals u_e(t): Zero, Constant,
Sinusoid, and PiecewiseRandom. PiecewiseRandom draws one level per dwell
interval from a SplitMix64 counter-based generator keyed on (seed, interval
index) and interpolates linearly between interval midpoints, so the signal is
continuous, bounded by u_max, and a pure function of (seed, t) on every
platform.

Each law and each program is one frozen dataclass that holds everything
about its variant: its scenario key ``variant``, its parameters as fields,
and its control (a law's kernel expression, a program's closure). LAWS and
PROGRAMS map the keys to the classes, and scenario parsing, writing and gain
sweeps loop over them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable, ClassVar, Dict, Union

from .dynamics import law_control
from .errors import ValidationError

_sin = math.sin
_floor = math.floor


# ---------------------------------------------------------------------------
# pursuer law records
#
# A law's one field is its gain. Its kernel is its command as an expression
# in the terms the dynamics docstring lists; its closure and its fused RK4
# loop are both compiled from that text. stability_gain(capture_radius), its
# worst-case curvature-per-w gain before termination, sets the step cap.


class _Law:
    """What every law shares; each law is a frozen dataclass on top of it."""

    kernel: ClassVar[str]

    def __post_init__(self) -> None:
        value = gain(self)
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{fields(self)[0].name} must be finite and positive, got {value}")

    def stability_gain(self, capture_radius: float) -> float:
        return gain(self)


@dataclass(frozen=True)
class MCPG(_Law):
    """Motion-camouflage proportional guidance with curvature gain mu > 0."""

    variant: ClassVar[str] = "mcpg"
    kernel: ClassVar[str] = "mu * (rx * dry - ry * drx) / sqrt(rsq)"
    mu: float


@dataclass(frozen=True)
class Exact(_Law):
    """MCPG plus the exact evader-steering feedforward term; gain mu > 0."""

    variant: ClassVar[str] = "exact"
    kernel: ClassVar[str] = (
        MCPG.kernel + " + (((dpe := cp * ce + sp * se) - nu) / (1.0 - nu * dpe)) * (nu * nu) * ue"
    )
    mu: float


@dataclass(frozen=True)
class PPNG(_Law):
    """Planar pure proportional navigation with navigation gain N > 0."""

    variant: ClassVar[str] = "ppng"
    kernel: ClassVar[str] = "N * (rx * dry - ry * drx) / rsq"
    N: float

    def stability_gain(self, capture_radius: float) -> float:
        """The command stiffens as the range shrinks; N/capture_radius at worst."""
        return self.N / capture_radius


PursuerLaw = Union[MCPG, Exact, PPNG]


# ---------------------------------------------------------------------------
# evader program records
#
# A program's fields are its parameters. scalar_control() returns its
# t -> u_e closure.


@dataclass(frozen=True)
class Zero:
    """Straight-line evader, u_e = 0."""

    variant: ClassVar[str] = "zero"

    def max_abs_control(self) -> float:
        return 0.0

    def scalar_control(self) -> Callable[[float], float]:
        return lambda t: 0.0


@dataclass(frozen=True)
class Constant:
    """Constant curvature c; the evader path is a circle of radius 1/|c|."""

    variant: ClassVar[str] = "constant"
    c: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.c):
            raise ValueError(f"c must be finite, got {self.c}")

    def max_abs_control(self) -> float:
        return abs(self.c)

    def scalar_control(self) -> Callable[[float], float]:
        c = self.c
        return lambda t: c


@dataclass(frozen=True)
class Sinusoid:
    """u_e(t) = amplitude * sin(angular_freq * t + phase)."""

    variant: ClassVar[str] = "sinusoid"
    amplitude: float
    angular_freq: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        for name in ("amplitude", "angular_freq", "phase"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def max_abs_control(self) -> float:
        return abs(self.amplitude)

    def scalar_control(self) -> Callable[[float], float]:
        amp = self.amplitude
        omega = self.angular_freq
        phase = self.phase
        return lambda t: amp * _sin(omega * t + phase)


@dataclass(frozen=True)
class PiecewiseRandom:
    """Random piecewise-linear curvature, bounded by u_max, one level per dwell.

    Levels are uniform in [-u_max, u_max), drawn from SplitMix64 at counter
    (seed, interval index), and joined by linear interpolation between the
    interval midpoints; before the first midpoint the first level is held.
    The signal is stateless: u_e(t) depends only on (seed, dwell, u_max, t).
    """

    variant: ClassVar[str] = "piecewise_random"
    seed: int
    dwell: float
    u_max: float

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not (math.isfinite(self.dwell) and self.dwell > 0.0):
            raise ValueError(f"dwell must be finite and positive, got {self.dwell}")
        if not (math.isfinite(self.u_max) and self.u_max >= 0.0):
            raise ValueError(f"u_max must be finite and nonnegative, got {self.u_max}")

    def max_abs_control(self) -> float:
        return self.u_max

    def scalar_control(self) -> Callable[[float], float]:
        """The closure keeps its current interval's levels between calls."""
        seed = self.seed
        dwell = self.dwell
        u_max = self.u_max
        first = random_level(seed, 0, u_max)
        # The current interval's index, its level and the rise to the next
        # level; refreshed only when a call lands in another interval.
        k0 = 0
        v0 = first
        dv = random_level(seed, 1, u_max) - first

        def control(t: float) -> float:
            nonlocal k0, v0, dv
            m = t / dwell - 0.5
            k = _floor(m)
            if k != k0:
                if k < 0:
                    return first
                k0 = k
                v0 = random_level(seed, k, u_max)
                dv = random_level(seed, k + 1, u_max) - v0
            return v0 + (m - k) * dv

        return control


EvaderProgram = Union[Zero, Constant, Sinusoid, PiecewiseRandom]

#: Law and program records by their scenario ``variant`` key.
LAWS: Dict[str, type] = {cls.variant: cls for cls in (MCPG, Exact, PPNG)}
PROGRAMS: Dict[str, type] = {
    cls.variant: cls for cls in (Zero, Constant, Sinusoid, PiecewiseRandom)
}


# ---------------------------------------------------------------------------
# SplitMix64 (public-domain mixing constants)

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TWO64 = float(1 << 64)


def _splitmix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def random_level(seed: int, index: int, u_max: float) -> float:
    """The PiecewiseRandom level for one dwell interval, in [-u_max, u_max)."""
    word = _splitmix64((seed + (index + 1) * _GAMMA) & _MASK64)
    return u_max * (2.0 * (word / _TWO64) - 1.0)


# ---------------------------------------------------------------------------
# operations on any law or program


def gain(law: PursuerLaw) -> float:
    """The law's gain, its one field: mu for mcpg and exact, N for ppng."""
    return getattr(law, fields(law)[0].name)


def scaled(law: PursuerLaw, multiplier: float) -> PursuerLaw:
    """The same law with its gain multiplied; used by gain sweeps.

    Raises ValidationError naming the multiplier when the product is not a
    valid gain, for example when it overflows to infinity.
    """
    try:
        return replace(law, **{fields(law)[0].name: gain(law) * multiplier})
    except ValueError as exc:
        raise ValidationError(f"gain multiplier {multiplier!r}: {exc}") from None


def scalar_pursuer_control(law: PursuerLaw, nu: float) -> Callable[..., float]:
    """Fast closure for the integrator's scalar control convention."""
    return law_control(type(law))(law, nu)


def scalar_evader_control(program: EvaderProgram) -> Callable[[float], float]:
    """Fast t -> u_e closure of any evader program."""
    return program.scalar_control()


def stability_step_cap(law: PursuerLaw, nu: float, capture_radius: float) -> float:
    """Largest step size the fixed-step integrator accepts for this law.

    Raises ValidationError naming the law and its gain when the cap is not a
    positive finite number, as when a huge gain overflows it to 0.
    """
    stiffness = law.stability_gain(capture_radius) * (1.0 + nu)
    cap = 0.1 / stiffness if stiffness > 0.0 else math.inf
    if not 0.0 < cap < math.inf:
        raise ValidationError(f"{law.variant} gain {gain(law)!r} leaves no finite positive step cap")
    return cap
