"""Unit-speed particle models and the fixed-step RK4 integrator.

Both vehicles are planar particles steered by curvature: the pursuer moves at
unit speed with heading rate u_p, the evader at speed nu (0 <= nu < 1) with
heading rate nu * u_e, so u_e is the evader's path curvature. Headings are in
radians, unwrapped and unbounded.

Controls are re-evaluated at every RK4 stage with the stage's intermediate
state and stage time. The step update is written as x + h*((k1 + 2*(k2+k3) +
k4)/6) so a constant unit rate advances a coordinate by exactly h.

Scalar control convention (used by the integration loop and by the law
closures in guidance): the pursuer callable receives

    (t, px, py, pth, cp, sp, ex, ey, eth, ce, se, u_e_now)

where (cp, sp) and (ce, se) are the cos/sin of the two headings, already
computed for the stage; the evader callable receives the stage time only.

Stage-1 handoff: a caller that has already evaluated both controls at the
start of a step (the simulation loop does, to record them at a sample) passes
them to :func:`rk4_step_scalars` as its two trailing optional arguments, and
stage 1 then calls neither control again. The values come from the same
inputs through the same arithmetic, so the step is bitwise identical to one
that evaluates them itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .geometry import PlanarVector

_cos = math.cos
_sin = math.sin


@dataclass(frozen=True)
class ParticleState:
    """Position plus heading angle of one vehicle."""

    position: PlanarVector
    heading: float


@dataclass(frozen=True)
class EngagementState:
    """Joint pursuer/evader state at one instant."""

    pursuer: ParticleState
    evader: ParticleState
    time: float


def rk4_step_scalars(
    t: float,
    px: float,
    py: float,
    pth: float,
    ex: float,
    ey: float,
    eth: float,
    h: float,
    nu: float,
    pursuer: Callable[..., float],
    evader: Callable[[float], float],
    ue1: Optional[float] = None,
    a1: Optional[float] = None,
) -> Tuple[float, float, float, float, float, float]:
    """One classical RK4 step on the six scalar state components.

    The simulation loop's step; the callables follow the scalar control
    convention in the module docstring.
    ``ue1`` and ``a1`` are the stage-1 evader and pursuer controls at
    (t, state), if the caller already has them; pass both or neither.
    Returns the state at t + h. Raises nothing of its own; trig of an infinite
    heading surfaces as ValueError, which simulate turns into a non_finite end.
    """
    half = 0.5 * h

    # stage 1 at t
    cp1 = _cos(pth)
    sp1 = _sin(pth)
    ce1 = _cos(eth)
    se1 = _sin(eth)
    if a1 is None:
        ue1 = evader(t)
        a1 = pursuer(t, px, py, pth, cp1, sp1, ex, ey, eth, ce1, se1, ue1)
    b1 = nu * ue1

    # stage 2 at t + h/2
    t2 = t + half
    pth2 = pth + half * a1
    eth2 = eth + half * b1
    cp2 = _cos(pth2)
    sp2 = _sin(pth2)
    ce2 = _cos(eth2)
    se2 = _sin(eth2)
    px2 = px + half * cp1
    py2 = py + half * sp1
    ex2 = ex + half * (nu * ce1)
    ey2 = ey + half * (nu * se1)
    ue2 = evader(t2)
    a2 = pursuer(t2, px2, py2, pth2, cp2, sp2, ex2, ey2, eth2, ce2, se2, ue2)
    b2 = nu * ue2

    # stage 3, also at t + h/2 (the evader control is a pure function of time,
    # so its stage-2 value is reused)
    pth3 = pth + half * a2
    eth3 = eth + half * b2
    cp3 = _cos(pth3)
    sp3 = _sin(pth3)
    ce3 = _cos(eth3)
    se3 = _sin(eth3)
    px3 = px + half * cp2
    py3 = py + half * sp2
    ex3 = ex + half * (nu * ce2)
    ey3 = ey + half * (nu * se2)
    a3 = pursuer(t2, px3, py3, pth3, cp3, sp3, ex3, ey3, eth3, ce3, se3, ue2)
    b3 = b2

    # stage 4 at t + h
    t4 = t + h
    pth4 = pth + h * a3
    eth4 = eth + h * b3
    cp4 = _cos(pth4)
    sp4 = _sin(pth4)
    ce4 = _cos(eth4)
    se4 = _sin(eth4)
    px4 = px + h * cp3
    py4 = py + h * sp3
    ex4 = ex + h * (nu * ce3)
    ey4 = ey + h * (nu * se3)
    ue4 = evader(t4)
    a4 = pursuer(t4, px4, py4, pth4, cp4, sp4, ex4, ey4, eth4, ce4, se4, ue4)
    b4 = nu * ue4

    return (
        px + h * ((cp1 + 2.0 * (cp2 + cp3) + cp4) / 6.0),
        py + h * ((sp1 + 2.0 * (sp2 + sp3) + sp4) / 6.0),
        pth + h * ((a1 + 2.0 * (a2 + a3) + a4) / 6.0),
        ex + h * (nu * ((ce1 + 2.0 * (ce2 + ce3) + ce4) / 6.0)),
        ey + h * (nu * ((se1 + 2.0 * (se2 + se3) + se4) / 6.0)),
        eth + h * ((b1 + 2.0 * (b2 + b3) + b4) / 6.0),
    )

