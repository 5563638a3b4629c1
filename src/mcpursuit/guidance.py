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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

from .dynamics import EngagementState
from .errors import ZeroBaseline

_sqrt = math.sqrt
_sin = math.sin
_cos = math.cos
_floor = math.floor


# ---------------------------------------------------------------------------
# pursuer law records


def _require_finite_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class MCPG:
    """Motion-camouflage proportional guidance with curvature gain mu > 0."""

    mu: float

    def __post_init__(self) -> None:
        _require_finite_positive("mu", self.mu)


@dataclass(frozen=True)
class Exact:
    """MCPG plus the exact evader-steering feedforward term; gain mu > 0."""

    mu: float

    def __post_init__(self) -> None:
        _require_finite_positive("mu", self.mu)


@dataclass(frozen=True)
class PPNG:
    """Planar pure proportional navigation with navigation gain N > 0."""

    N: float

    def __post_init__(self) -> None:
        _require_finite_positive("N", self.N)


PursuerLaw = Union[MCPG, Exact, PPNG]


# ---------------------------------------------------------------------------
# evader program records


@dataclass(frozen=True)
class Zero:
    """Straight-line evader, u_e = 0."""

    def max_abs_control(self) -> float:
        return 0.0


@dataclass(frozen=True)
class Constant:
    """Constant curvature c; the evader path is a circle of radius 1/|c|."""

    c: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.c):
            raise ValueError(f"c must be finite, got {self.c}")

    def max_abs_control(self) -> float:
        return abs(self.c)


@dataclass(frozen=True)
class Sinusoid:
    """u_e(t) = amplitude * sin(angular_freq * t + phase)."""

    amplitude: float
    angular_freq: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        for name in ("amplitude", "angular_freq", "phase"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def max_abs_control(self) -> float:
        return abs(self.amplitude)


@dataclass(frozen=True)
class PiecewiseRandom:
    """Random piecewise-linear curvature, bounded by u_max, one level per dwell.

    Levels are uniform in [-u_max, u_max), drawn from SplitMix64 at counter
    (seed, interval index), and joined by linear interpolation between the
    interval midpoints; before the first midpoint the first level is held.
    The signal is stateless: u_e(t) depends only on (seed, dwell, u_max, t).
    """

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


EvaderProgram = Union[Zero, Constant, Sinusoid, PiecewiseRandom]


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


def _state_scalars(s: EngagementState, nu: float):
    cp = _cos(s.pursuer.heading)
    sp = _sin(s.pursuer.heading)
    ce = _cos(s.evader.heading)
    se = _sin(s.evader.heading)
    rx = s.pursuer.position.x - s.evader.position.x
    ry = s.pursuer.position.y - s.evader.position.y
    return rx, ry, cp - nu * ce, sp - nu * se, cp * ce + sp * se


# ---------------------------------------------------------------------------
# spec-level control operations


def mcpg_control(s: EngagementState, mu: float, nu: float) -> float:
    """MCPG steering command at state s."""
    rx, ry, drx, dry, _ = _state_scalars(s, nu)
    return _mcpg_u(rx, ry, drx, dry, mu)


def exact_control(s: EngagementState, mu: float, nu: float, u_e_now: float) -> float:
    """Exact-law steering command; needs the evader's current curvature."""
    rx, ry, drx, dry, dpe = _state_scalars(s, nu)
    return _exact_u(rx, ry, drx, dry, dpe, nu, mu, u_e_now)


def ppng_control(s: EngagementState, n_gain: float, nu: float) -> float:
    """Pure proportional navigation steering command at state s."""
    rx, ry, drx, dry, _ = _state_scalars(s, nu)
    return _ppng_u(rx, ry, drx, dry, n_gain)


def evader_control(program: EvaderProgram, t: float) -> float:
    """Evader curvature u_e(t) for any program, as a pure function of t."""
    if isinstance(program, Zero):
        return 0.0
    if isinstance(program, Constant):
        return program.c
    if isinstance(program, Sinusoid):
        return program.amplitude * _sin(program.angular_freq * t + program.phase)
    if isinstance(program, PiecewiseRandom):
        m = t / program.dwell - 0.5
        k = _floor(m)
        if k < 0:
            return random_level(program.seed, 0, program.u_max)
        v0 = random_level(program.seed, k, program.u_max)
        v1 = random_level(program.seed, k + 1, program.u_max)
        return v0 + (m - k) * (v1 - v0)
    raise TypeError(f"unknown evader program {program!r}")


# ---------------------------------------------------------------------------
# adapters used by the integrator


def scalar_pursuer_control(law: PursuerLaw, nu: float) -> Callable[..., float]:
    """Fast closure for the integrator's scalar control convention."""
    if isinstance(law, MCPG):
        mu = law.mu

        def control(t, px, py, pth, cp, sp, ex, ey, eth, ce, se, ue, _nu=nu, _mu=mu):
            return _mcpg_u(px - ex, py - ey, cp - _nu * ce, sp - _nu * se, _mu)

        return control
    if isinstance(law, Exact):
        mu = law.mu

        def control(t, px, py, pth, cp, sp, ex, ey, eth, ce, se, ue, _nu=nu, _mu=mu):
            return _exact_u(
                px - ex, py - ey, cp - _nu * ce, sp - _nu * se, cp * ce + sp * se, _nu, _mu, ue
            )

        return control
    if isinstance(law, PPNG):
        n_gain = law.N

        def control(t, px, py, pth, cp, sp, ex, ey, eth, ce, se, ue, _nu=nu, _n=n_gain):
            return _ppng_u(px - ex, py - ey, cp - _nu * ce, sp - _nu * se, _n)

        return control
    raise TypeError(f"unknown pursuer law {law!r}")


def pursuer_control(law: PursuerLaw, nu: float) -> Callable[[EngagementState, float], float]:
    """State-level callable (state, u_e_now) -> u_p, for dynamics.step."""
    if isinstance(law, MCPG):
        return lambda s, ue: mcpg_control(s, law.mu, nu)
    if isinstance(law, Exact):
        return lambda s, ue: exact_control(s, law.mu, nu, ue)
    if isinstance(law, PPNG):
        return lambda s, ue: ppng_control(s, law.N, nu)
    raise TypeError(f"unknown pursuer law {law!r}")


def scalar_evader_control(program: EvaderProgram) -> Callable[[float], float]:
    """Fast t -> u_e closure; PiecewiseRandom keeps its current interval's levels."""
    if isinstance(program, Zero):
        return lambda t: 0.0
    if isinstance(program, Constant):
        c = program.c
        return lambda t: c
    if isinstance(program, Sinusoid):
        amp = program.amplitude
        omega = program.angular_freq
        phase = program.phase
        return lambda t: amp * _sin(omega * t + phase)
    if isinstance(program, PiecewiseRandom):
        seed = program.seed
        dwell = program.dwell
        u_max = program.u_max
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
    raise TypeError(f"unknown evader program {program!r}")


# ---------------------------------------------------------------------------
# stability bookkeeping shared with scenario validation


def stability_gain(law: PursuerLaw, capture_radius: float) -> float:
    """Worst-case curvature-per-w gain of a law before termination.

    For MCPG/Exact this is mu. PPNG's command stiffens as the range shrinks,
    so its worst case before the capture test fires is N/capture_radius.
    """
    if isinstance(law, (MCPG, Exact)):
        return law.mu
    if isinstance(law, PPNG):
        return law.N / capture_radius
    raise TypeError(f"unknown pursuer law {law!r}")


def stability_step_cap(law: PursuerLaw, nu: float, capture_radius: float) -> float:
    """Largest step size the fixed-step integrator accepts for this law."""
    return 0.1 / (stability_gain(law, capture_radius) * (1.0 + nu))
