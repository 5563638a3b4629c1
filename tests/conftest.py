import math

from mcpursuit.dynamics import EngagementState, ParticleState
from mcpursuit.geometry import PlanarVector


def state_from_rel(rx, ry, drx, dry, nu, t=0.0, evader_at=(0.0, 0.0)):
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
    return EngagementState(
        pursuer=ParticleState(PlanarVector(ex0 + rx, ey0 + ry), pth),
        evader=ParticleState(PlanarVector(ex0, ey0), eth),
        time=t,
    )


def scalar_args(s, ue=0.0):
    """The 12 arguments of the scalar control convention at state s, with u_e = ue."""
    p, e = s.pursuer, s.evader
    return (
        s.time,
        p.position.x, p.position.y, p.heading, math.cos(p.heading), math.sin(p.heading),
        e.position.x, e.position.y, e.heading, math.cos(e.heading), math.sin(e.heading),
        ue,
    )
