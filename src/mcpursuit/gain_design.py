"""Certified gain selection for the MCPG pursuer.

Given the engagement constants (speed ratio nu, evader curvature bound
u_e_max, initial closing fraction gamma0, initial range r_init) and two
choices (target band epsilon_target, inner radius r0), this module picks the
smallest gain mu of the documented form that guarantees the closing fraction
gamma is driven to -1 + epsilon no later than

    T = (r_init - r0)/(1 + nu),

which is the earliest time the range lower bound |r(t)| >= r_init - (1+nu)*t
allows the range to reach r0. The chain of constants:

    c1     = nu^2 (1+nu) u_e_max / (1-nu)^2          disturbance scale
    eps    = min(epsilon_target, 1 - gamma0^2)        admissible band
    c2_req = (1+nu) (atanh(gamma0) - ln(eps/(2-eps))/2) / (r_init - r0)
    c0     = max(2 c1 / sqrt(eps), c2_req + c1/sqrt(eps))
    c2     = c0 - c1/sqrt(eps)
    mu     = ((1+nu)/(1-nu)) ((1+nu)/r0 + c0)

c0 is the smallest value satisfying both the damping condition
c0 >= 2 c1/sqrt(eps) and the arrival condition c2 >= c2_req, so mu is minimal
for the given (epsilon_target, r0). While |r| >= r0 the certified decay
envelope is gamma(t) <= tanh(atanh(gamma0) - c2 t).

When gamma0 is already at or below -1 + epsilon_target there is nothing to
reach: the certificate comes back with T = 0 and met_at_start set. The band
certify asks for is the default epsilon_target, DEFAULT_EPSILON_TARGET.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateStart, InvalidGeometry, InvalidSpeedRatio

DEFAULT_EPSILON_TARGET = 0.01


@dataclass(frozen=True)
class GainCertificate:
    """A gain together with the constants certifying its arrival guarantee."""

    nu: float
    u_e_max: float
    gamma0: float
    r_init: float
    r0: float
    epsilon: float
    c1: float
    c2: float
    mu: float
    T: float
    met_at_start: bool = False


def compute_c1(nu: float, u_e_max: float) -> float:
    """Disturbance scale nu^2 (1+nu) u_e_max / (1-nu)^2.

    Bounds how strongly the evader's steering, at curvature up to u_e_max,
    can push the closing fraction upward once the worst-case relative-speed
    factors are accounted for.
    """
    if not 0.0 <= nu < 1.0:
        raise InvalidSpeedRatio(f"nu out of [0, 1): {nu}")
    if not (math.isfinite(u_e_max) and u_e_max >= 0.0):
        raise ValueError(f"u_e_max must be finite and nonnegative: {u_e_max}")
    return nu * nu * (1.0 + nu) * u_e_max / ((1.0 - nu) * (1.0 - nu))


def choose_epsilon(epsilon_target: float, gamma0: float) -> float:
    """Shrink the target band so the decay argument applies from t = 0.

    Returns min(epsilon_target, 1 - gamma0^2). Raises DegenerateStart when
    gamma0 = 1 exactly, where no admissible band exists.
    """
    if not 0.0 < epsilon_target < 1.0:
        raise ValueError(f"epsilon_target out of (0, 1): {epsilon_target}")
    if not -1.0 <= gamma0 <= 1.0:
        raise ValueError(f"gamma0 out of [-1, 1]: {gamma0}")
    if gamma0 == 1.0:
        raise DegenerateStart("gamma0 = 1: relative velocity initially along +r")
    return min(epsilon_target, 1.0 - gamma0 * gamma0)


def required_c2(nu: float, gamma0: float, epsilon: float, r_init: float, r0: float) -> float:
    """Smallest decay rate that walks gamma0 down to -1 + epsilon by time T.

    Inverts the envelope tanh(atanh(gamma0) - c2 t) <= -1 + epsilon at
    t = T = (r_init - r0)/(1+nu), using tanh(x) <= -1 + epsilon iff
    x <= ln(epsilon/(2 - epsilon))/2.
    """
    if not 0.0 <= nu < 1.0:
        raise InvalidSpeedRatio(f"nu out of [0, 1): {nu}")
    if abs(gamma0) >= 1.0:
        raise DegenerateStart(f"|gamma0| must be < 1, got {gamma0}")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon out of (0, 1]: {epsilon}")
    if not (0.0 < r0 < r_init):
        raise InvalidGeometry(f"need 0 < r0 < r_init, got r0={r0}, r_init={r_init}")
    target = 0.5 * math.log(epsilon / (2.0 - epsilon))
    return (1.0 + nu) * (math.atanh(gamma0) - target) / (r_init - r0)


def design_certificate(
    nu: float,
    u_e_max: float,
    gamma0: float,
    r_init: float,
    epsilon_target: float = DEFAULT_EPSILON_TARGET,
    r0_choice: float | None = None,
) -> GainCertificate:
    """Pick the minimal certified MCPG gain for one engagement.

    Parameters
    ----------
    nu : float
        Evader/pursuer speed ratio, in [0, 1).
    u_e_max : float
        Bound on the evader's curvature command, >= 0.
    gamma0 : float
        Closing fraction at t = 0, in [-1, 1); +1 exactly is rejected.
    r_init : float
        Initial range |r(0)|, > 0.
    epsilon_target : float, optional
        Requested terminal band: the guarantee drives gamma to
        -1 + epsilon by T. The effective epsilon may be smaller (never
        larger) so the envelope argument holds from t = 0.
    r0_choice : float, optional
        Inner radius below which the guarantee stops; defaults to
        r_init/100. Must satisfy 0 < r0 < r_init.

    Returns
    -------
    GainCertificate
        Constants (c1, c2, epsilon, mu, T) with mu minimal for the given
        epsilon_target and r0. If gamma0 <= -1 + epsilon_target the target
        is met at t = 0: the certificate carries T = 0 and met_at_start.

    Raises
    ------
    InvalidSpeedRatio, DegenerateStart, InvalidGeometry
        For nu outside [0, 1), gamma0 = 1, an r0/r_init mismatch, or an r0 so
        small that mu is not finite.
    """
    # The two helpers check nu, u_e_max, epsilon_target and gamma0, in that order.
    c1 = compute_c1(nu, u_e_max)
    eps = choose_epsilon(epsilon_target, gamma0)
    if not (math.isfinite(r_init) and r_init > 0.0):
        raise InvalidGeometry(f"r_init must be finite and positive: {r_init}")
    r0 = r_init / 100.0 if r0_choice is None else r0_choice
    if not (0.0 < r0 < r_init):
        raise InvalidGeometry(f"need 0 < r0 < r_init, got r0={r0}, r_init={r_init}")

    met_at_start = gamma0 <= -1.0 + epsilon_target
    if met_at_start:
        # Already inside the target band; nothing to certify beyond damping.
        eps = epsilon_target
    sq = math.sqrt(eps)
    c0 = 2.0 * c1 / sq
    if not met_at_start:
        c0 = max(c0, required_c2(nu, gamma0, eps, r_init, r0) + c1 / sq)
    mu = ((1.0 + nu) / (1.0 - nu)) * ((1.0 + nu) / r0 + c0)
    if not math.isfinite(mu):
        raise InvalidGeometry(f"the certified gain mu = {mu} is not finite at r0 = {r0}; "
                              "a larger r0 lowers it")
    return GainCertificate(
        nu=nu, u_e_max=u_e_max, gamma0=gamma0, r_init=r_init, r0=r0,
        epsilon=eps, c1=c1, c2=c0 - c1 / sq, mu=mu,
        T=0.0 if met_at_start else (r_init - r0) / (1.0 + nu), met_at_start=met_at_start,
    )
