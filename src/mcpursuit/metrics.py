"""Relative-motion diagnostics: closing-rate fraction, transverse speed, envelopes.

For baseline r = r_p - r_e and relative velocity rdot, the quantities per
sample are

    gamma    = (rhat . rdot)/|rdot|      closing-rate fraction in [-1, 1]
    w        = (r x rdot)/|r|            signed transverse relative speed
    los_rate = w/|r|                     rotation rate of the line of sight
    residual = 1 - gamma^2               camouflage residual

which satisfy gamma^2 + (w/|rdot|)^2 = 1 identically. gamma = -1 means the
baseline shrinks as fast as the relative speed allows; w = 0 on an interval
is equivalent to the baseline keeping a fixed direction (pure motion
camouflage with respect to the point at infinity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Tuple

from .dynamics import EngagementState
from .errors import CertificateMismatch, DegenerateGamma, ZeroBaseline
from .geometry import PlanarVector
from .guidance import MCPG

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from .gain_design import GainCertificate
    from .scenario_io import TrajectoryRecord

_sqrt = math.sqrt

#: Multiplier on step_size**2 giving the discretization slack used by
#: check_envelope.
ENVELOPE_SLACK_FACTOR = 10.0


@dataclass(frozen=True)
class MetricSample:
    """All per-instant diagnostics for one engagement state."""

    baseline: PlanarVector
    baseline_len: float
    rel_vel: PlanarVector
    gamma: float
    w_signed: float
    los_rate: float
    residual: float


@dataclass(frozen=True)
class BaselineTrace:
    """Decomposition of every sampled baseline against the initial bearing."""

    reference_bearing: PlanarVector
    lambda_along: List[float]
    transverse_residual: List[float]


def metric_values(
    rx: float, ry: float, drx: float, dry: float
) -> Tuple[float, float, float, float, float, float]:
    """Scalar kernel behind compute_metrics, shared with the simulation loop.

    Returns (|r|, |rdot|, gamma, w, los_rate, residual). gamma is clamped to
    [-1, 1] so rounding in the dot product can never push it outside the
    closed interval.
    """
    rn = _sqrt(rx * rx + ry * ry)
    if rn == 0.0:
        raise ZeroBaseline("metrics undefined at zero baseline")
    dn = _sqrt(drx * drx + dry * dry)
    g = (rx * drx + ry * dry) / (rn * dn)
    if g > 1.0:
        g = 1.0
    elif g < -1.0:
        g = -1.0
    w = (rx * dry - ry * drx) / rn
    return rn, dn, g, w, w / rn, 1.0 - g * g


def compute_metrics(s: EngagementState, nu: float) -> MetricSample:
    """Diagnostics at one engagement state; rdot is derived from the headings."""
    rx = s.pursuer.position.x - s.evader.position.x
    ry = s.pursuer.position.y - s.evader.position.y
    drx = math.cos(s.pursuer.heading) - nu * math.cos(s.evader.heading)
    dry = math.sin(s.pursuer.heading) - nu * math.sin(s.evader.heading)
    rn, _, g, w, los, residual = metric_values(rx, ry, drx, dry)
    return MetricSample(
        baseline=PlanarVector(rx, ry),
        baseline_len=rn,
        rel_vel=PlanarVector(drx, dry),
        gamma=g,
        w_signed=w,
        los_rate=los,
        residual=residual,
    )


def camouflage_test(record: "TrajectoryRecord", tol: float) -> Tuple[BaselineTrace, bool]:
    """Decompose the baseline against its initial bearing and judge camouflage.

    The verdict is True when every sample's transverse residual stays within
    tol relative to the baseline length at that sample. A single-sample
    record passes vacuously. Raises ZeroBaseline if any sample has |r| = 0.
    """
    n = record.n_samples
    if n == 0:
        raise ZeroBaseline("empty record has no baseline")
    r0x = record.px[0] - record.ex[0]
    r0y = record.py[0] - record.ey[0]
    r0n = _sqrt(r0x * r0x + r0y * r0y)
    if r0n == 0.0:
        raise ZeroBaseline("initial baseline has zero length")
    bx = r0x / r0n
    by = r0y / r0n

    lam: List[float] = []
    trans: List[float] = []
    ok = True
    for i in range(n):
        rx = record.px[i] - record.ex[i]
        ry = record.py[i] - record.ey[i]
        rn = _sqrt(rx * rx + ry * ry)
        if rn == 0.0:
            raise ZeroBaseline(f"zero baseline at sample {i}")
        a = rx * bx + ry * by
        tx = rx - a * bx
        ty = ry - a * by
        tn = _sqrt(tx * tx + ty * ty)
        lam.append(a)
        trans.append(tn)
        if tn > tol * rn:
            ok = False
    return BaselineTrace(PlanarVector(bx, by), lam, trans), ok


def gamma_envelope(gamma0: float, c2: float, t: float) -> float:
    """Certified upper bound tanh(atanh(gamma0) - c2*t) on the closing fraction."""
    if abs(gamma0) >= 1.0:
        raise DegenerateGamma(f"envelope undefined for gamma0 = {gamma0}")
    return math.tanh(math.atanh(gamma0) - c2 * t)


def check_envelope(record: "TrajectoryRecord", cert: "GainCertificate") -> bool:
    """Verify a trajectory against its certificate's decay envelope.

    Samples are checked while t <= cert.T, |r| >= cert.r0, and gamma is still
    above -1 + cert.epsilon; each must satisfy

        gamma(t) <= tanh(atanh(gamma0) - c2*t) + 10*h^2

    with h the scenario step size. Raises CertificateMismatch when the record
    was produced under different parameters than the certificate was issued
    for (speed ratio, MCPG gain, initial range, initial gamma, evader bound).
    """
    scen = record.scenario
    if scen.nu != cert.nu:
        raise CertificateMismatch(f"nu differs: trajectory {scen.nu}, certificate {cert.nu}")
    law = scen.pursuer_law
    if not isinstance(law, MCPG):
        raise CertificateMismatch(f"certificate covers MCPG runs, trajectory used {law!r}")
    if not math.isclose(law.mu, cert.mu, rel_tol=1e-12, abs_tol=0.0):
        raise CertificateMismatch(f"gain differs: trajectory {law.mu}, certificate {cert.mu}")
    if record.n_samples == 0:
        raise ZeroBaseline("empty record")
    if not math.isclose(record.r_norm[0], cert.r_init, rel_tol=1e-9, abs_tol=0.0):
        raise CertificateMismatch(
            f"initial range differs: trajectory {record.r_norm[0]}, certificate {cert.r_init}"
        )
    if abs(record.gamma[0] - cert.gamma0) > 1e-9:
        raise CertificateMismatch(
            f"initial gamma differs: trajectory {record.gamma[0]}, certificate {cert.gamma0}"
        )
    bound = scen.evader_program.max_abs_control()
    if bound > cert.u_e_max + 1e-12:
        raise CertificateMismatch(
            f"evader bound {bound} exceeds certified u_e_max {cert.u_e_max}"
        )

    h = scen.step_size
    slack = ENVELOPE_SLACK_FACTOR * h * h
    floor = -1.0 + cert.epsilon
    for i in range(record.n_samples):
        t = record.t[i]
        if t > cert.T:
            break
        g = record.gamma[i]
        if record.r_norm[i] < cert.r0 or g <= floor:
            continue
        if g > gamma_envelope(cert.gamma0, cert.c2, t) + slack:
            return False
    return True
