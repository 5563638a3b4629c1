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
and its control closure. LAWS and PROGRAMS map the keys to the classes, and
scenario parsing, writing and gain sweeps loop over them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable, ClassVar, Dict, Union

from .errors import ValidationError, ZeroBaseline

_sqrt = math.sqrt
_sin = math.sin
_floor = math.floor


# ---------------------------------------------------------------------------
# pursuer law records
#
# A law's one field is its gain. stability_gain(capture_radius) is its
# worst-case curvature-per-w gain before termination, which sets the
# stability cap on the step. scalar_control(nu) returns its closure in the
# integrator's scalar control convention (see dynamics).


def _require_finite_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class MCPG:
    """Motion-camouflage proportional guidance with curvature gain mu > 0."""

    variant: ClassVar[str] = "mcpg"
    mu: float

    def __post_init__(self) -> None:
        _require_finite_positive("mu", self.mu)

    def stability_gain(self, capture_radius: float) -> float:
        return self.mu

    def scalar_control(self, nu: float) -> Callable[..., float]:
        def control(t, px, py, pth, cp, sp, ex, ey, eth, ce, se, ue, _nu=nu, _mu=self.mu):
            return _mcpg_u(px - ex, py - ey, cp - _nu * ce, sp - _nu * se, _mu)

        return control


@dataclass(frozen=True)
class Exact:
    """MCPG plus the exact evader-steering feedforward term; gain mu > 0."""

    variant: ClassVar[str] = "exact"
    mu: float

    def __post_init__(self) -> None:
        _require_finite_positive("mu", self.mu)

    def stability_gain(self, capture_radius: float) -> float:
        return self.mu

    def scalar_control(self, nu: float) -> Callable[..., float]:
        def control(t, px, py, pth, cp, sp, ex, ey, eth, ce, se, ue, _nu=nu, _mu=self.mu):
            return _exact_u(
                px - ex, py - ey, cp - _nu * ce, sp - _nu * se, cp * ce + sp * se, _nu, _mu, ue
            )

        return control


@dataclass(frozen=True)
class PPNG:
    """Planar pure proportional navigation with navigation gain N > 0."""

    variant: ClassVar[str] = "ppng"
    N: float

    def __post_init__(self) -> None:
        _require_finite_positive("N", self.N)

    def stability_gain(self, capture_radius: float) -> float:
        """The command stiffens as the range shrinks; N/capture_radius at worst."""
        return self.N / capture_radius

    def scalar_control(self, nu: float) -> Callable[..., float]:
        def control(t, px, py, pth, cp, sp, ex, ey, eth, ce, se, ue, _nu=nu, _n=self.N):
            return _ppng_u(px - ex, py - ey, cp - _nu * ce, sp - _nu * se, _n)

        return control


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
# scalar kernels (single source of truth for the law arithmetic)


def _mcpg_u(rx: float, ry: float, drx: float, dry: float, mu: float) -> float:
    rn = _sqrt(rx * rx + ry * ry)
    if rn == 0.0:
        raise ZeroBaseline("pursuit law undefined at zero baseline")
    return mu * (rx * dry - ry * drx) / rn


def _exact_u(
    rx: float, ry: float, drx: float, dry: float, dpe: float, nu: float, mu: float, ue: float
) -> float:
    base = _mcpg_u(rx, ry, drx, dry, mu)
    return base + ((dpe - nu) / (1.0 - nu * dpe)) * (nu * nu) * ue


def _ppng_u(rx: float, ry: float, drx: float, dry: float, n_gain: float) -> float:
    rsq = rx * rx + ry * ry
    if rsq == 0.0:
        raise ZeroBaseline("pursuit law undefined at zero baseline")
    return n_gain * (rx * dry - ry * drx) / rsq


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
    return law.scalar_control(nu)


def scalar_evader_control(program: EvaderProgram) -> Callable[[float], float]:
    """Fast t -> u_e closure of any evader program."""
    return program.scalar_control()


def stability_step_cap(law: PursuerLaw, nu: float, capture_radius: float) -> float:
    """Largest step size the fixed-step integrator accepts for this law."""
    return 0.1 / (law.stability_gain(capture_radius) * (1.0 + nu))
