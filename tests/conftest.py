"""Shared test helpers, and law and program records that only the tests fly.

The records follow the README recipe "Adding a law or an evader program": a
law's kernel is compiled into the closure and the fused RK4 loop, so a run
steered by one takes the same path as a run of a shipped law.
"""

import csv
import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

from mcpursuit.dynamics import ParticleState
from mcpursuit.geometry import PlanarVector
from mcpursuit.guidance import _Law


@dataclass(frozen=True)
class Steer(_Law):
    """Open-loop turn rate: u_p = u up to t_off, then after (which may be inf)."""

    variant: ClassVar[str] = "steer"
    kernel: ClassVar[str] = "(u if t <= t_off else after)"
    u: float
    t_off: float = math.inf
    after: float = 0.0

    def __post_init__(self):
        pass  # zero and non-finite commands are what some tests fly

    def stability_gain(self, capture_radius):
        return 1.0  # the step cap is then 0.1 / (1 + nu)


@dataclass(frozen=True)
class Linear(_Law):
    """u_p = gp * pth - gu * ue, a law of the pursuer heading and the evader command."""

    variant: ClassVar[str] = "linear"
    kernel: ClassVar[str] = "gp * pth - gu * ue"
    gp: float
    gu: float


@dataclass(frozen=True)
class Ramp:
    """u_e = slope * t."""

    variant: ClassVar[str] = "ramp"
    slope: float

    def max_abs_control(self):
        return 0.0  # unbounded; validation only asks for a finite number

    def scalar_control(self):
        slope = self.slope
        return lambda t: slope * t


@dataclass(frozen=True)
class Switch:
    """u_e = u up to t_off, then after (which may be inf)."""

    variant: ClassVar[str] = "switch"
    u: float
    t_off: float = math.inf
    after: float = 0.0

    def max_abs_control(self):
        return abs(self.u)  # before t_off; an infinite after is a test's non-finite end

    def scalar_control(self):
        u, t_off, after = self.u, self.t_off, self.after
        return lambda t: u if t <= t_off else after


def _state(x, y, heading):
    """A vehicle at (x, y) with the given heading."""
    return ParticleState(PlanarVector(x, y), heading)


def _read(path):
    """The bytes of the file at ``path``."""
    with open(path, "rb") as f:
        return f.read()


class State(NamedTuple):
    """An engagement instant: the (pursuer, evader) pair compute_metrics takes."""

    pursuer: ParticleState
    evader: ParticleState


def rel_of(s, nu):
    """The baseline and relative velocity (rx, ry, drx, dry) at state s."""
    p, e = s
    return (p.position.x - e.position.x, p.position.y - e.position.y,
            math.cos(p.heading) - nu * math.cos(e.heading),
            math.sin(p.heading) - nu * math.sin(e.heading))


def state_from_rel(rx, ry, drx, dry, nu, evader_at=(0.0, 0.0)):
    """Build an engagement state with baseline (rx, ry) and relative velocity
    close to (drx, dry).

    Solves for headings such that the pursuer's unit tangent minus nu times
    the evader's equals the requested relative velocity; feasible whenever
    1 - nu <= |(drx, dry)| <= 1 + nu. The reconstruction goes through atan2,
    so the realized relative velocity matches to rounding, not bitwise.
    """
    dn2 = drx * drx + dry * dry
    dn = math.sqrt(dn2)
    if nu == 0.0:
        if abs(dn - 1.0) > 1e-9:
            raise ValueError("with nu = 0 the relative velocity must be unit length")
        pth = math.atan2(dry, drx)
        eth = 0.0
    else:
        if not (1.0 - nu) - 1e-9 <= dn <= (1.0 + nu) + 1e-9:
            raise ValueError(f"|rdot| = {dn} outside [1-nu, 1+nu] for nu = {nu}")
        c = (1.0 - dn2 - nu * nu) / (2.0 * nu)
        disc = max(1.0 - c * c / dn2, 0.0)
        alpha = c / dn2
        beta = math.sqrt(disc) / dn
        ex_dir = alpha * drx - beta * dry
        ey_dir = alpha * dry + beta * drx
        pth = math.atan2(dry + nu * ey_dir, drx + nu * ex_dir)
        eth = math.atan2(ey_dir, ex_dir)
    ex0, ey0 = evader_at
    return State(ParticleState(PlanarVector(ex0 + rx, ey0 + ry), pth),
                 ParticleState(PlanarVector(ex0, ey0), eth))


def scalar_args(s, ue=0.0, t=0.0):
    """The 12 arguments of the scalar control convention at state s and time t, with u_e = ue."""
    p, e = s
    return (
        t,
        p.position.x, p.position.y, p.heading, math.cos(p.heading), math.sin(p.heading),
        e.position.x, e.position.y, e.heading, math.cos(e.heading), math.sin(e.heading),
        ue,
    )


def state_at(record, i):
    """The engagement state of a record's sample i."""
    return State(ParticleState(PlanarVector(record.px[i], record.py[i]), record.ptheta[i]),
                 ParticleState(PlanarVector(record.ex[i], record.ey[i]), record.etheta[i]))


def csv_columns(source):
    """The columns of a trajectory CSV, keyed by the header names, as floats."""
    return {name: [float(v) for v in cells] for name, *cells in zip(*csv.reader(source))}
