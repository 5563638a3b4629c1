"""The certificate algebra, checked against a high-precision oracle.

The required decay rate and the gain chain are recomputed with mpmath at 50
digits; the double-precision implementation has to stay within a relative
1e-13 of that, which leaves room only for honest rounding.
"""

import json
import math
import os

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rel_of, scalar_args, state_from_rel
from mcpursuit.cli import main
from mcpursuit.dynamics import ParticleState
from mcpursuit.errors import DegenerateStart, InvalidGeometry, InvalidSpeedRatio
from mcpursuit.gain_design import (
    GainCertificate,
    choose_epsilon,
    compute_c1,
    design_certificate,
    required_c2,
)
from mcpursuit.geometry import PlanarVector
from mcpursuit.guidance import MCPG, scalar_pursuer_control
from mcpursuit.metrics import gamma_envelope, metric_values
from mcpursuit.scenario_io import parse_scenario

mpmath.mp.dps = 50


def _oracle_required_c2(nu, gamma0, epsilon, r_init, r0):
    nu = mpmath.mpf(nu)
    gamma0 = mpmath.mpf(gamma0)
    epsilon = mpmath.mpf(epsilon)
    target = mpmath.log(epsilon / (2 - epsilon)) / 2
    return (1 + nu) * (mpmath.atanh(gamma0) - target) / (mpmath.mpf(r_init) - mpmath.mpf(r0))


def _oracle_mu(nu, r0, c0):
    nu = mpmath.mpf(nu)
    return ((1 + nu) / (1 - nu)) * ((1 + nu) / mpmath.mpf(r0) + mpmath.mpf(c0))


def test_c1_frozen_example():
    # nu = 1/2, unit curvature bound: 0.25 * 1.5 / 0.25 = 1.5 exactly.
    assert compute_c1(0.5, 1.0) == 1.5
    assert compute_c1(0.0, 5.0) == 0.0
    assert compute_c1(0.9, 0.0) == 0.0


def test_c1_validation():
    with pytest.raises(InvalidSpeedRatio):
        compute_c1(1.0, 1.0)
    with pytest.raises(InvalidSpeedRatio):
        compute_c1(-0.2, 1.0)
    with pytest.raises(ValueError):
        compute_c1(0.5, -1.0)
    with pytest.raises(ValueError):
        compute_c1(0.5, math.inf)


def test_choose_epsilon_caps_at_the_admissible_band():
    assert choose_epsilon(0.01, 0.0) == 0.01
    assert choose_epsilon(0.5, 0.9) == pytest.approx(1.0 - 0.81, rel=1e-15)
    with pytest.raises(DegenerateStart):
        choose_epsilon(0.01, 1.0)
    with pytest.raises(ValueError):
        choose_epsilon(0.0, 0.0)
    with pytest.raises(ValueError):
        choose_epsilon(1.0, 0.0)
    for gamma0 in (-1.5, 1.5, math.nan):
        with pytest.raises(ValueError, match="gamma0 out of"):
            choose_epsilon(0.01, gamma0)


@given(
    st.floats(min_value=0.0, max_value=0.97),
    st.floats(min_value=-0.995, max_value=0.995),
    st.floats(min_value=0.001, max_value=0.5),
    st.floats(min_value=0.5, max_value=500.0),
    st.floats(min_value=0.01, max_value=0.9),
)
@settings(max_examples=300, deadline=None)
def test_required_c2_matches_the_high_precision_oracle(nu, gamma0, eps, r_init, r0_frac):
    r0 = r0_frac * r_init
    got = required_c2(nu, gamma0, eps, r_init, r0)
    want = float(_oracle_required_c2(nu, gamma0, eps, r_init, r0))
    assert got == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_required_c2_validation():
    with pytest.raises(DegenerateStart):
        required_c2(0.5, 1.0, 0.01, 10.0, 1.0)
    with pytest.raises(InvalidGeometry):
        required_c2(0.5, 0.0, 0.01, 10.0, 10.0)
    with pytest.raises(InvalidGeometry):
        required_c2(0.5, 0.0, 0.01, 10.0, 0.0)
    for nu in (-0.1, 1.0, math.nan):
        with pytest.raises(InvalidSpeedRatio):
            required_c2(nu, 0.0, 0.01, 10.0, 1.0)
    for epsilon in (0.0, 1.5, math.nan):
        with pytest.raises(ValueError, match="epsilon out of"):
            required_c2(0.5, 0.0, epsilon, 10.0, 1.0)


def test_design_frozen_example():
    # Straight evader, head-start geometry: every constant reduces to a form
    # that can be recomputed by hand.
    cert = design_certificate(nu=0.9, u_e_max=0.0, gamma0=0.0, r_init=100.0, r0_choice=1.0)
    assert cert.c1 == 0.0
    assert cert.epsilon == 0.01
    assert cert.c2 == pytest.approx(0.05079433922715422, rel=1e-15)
    assert cert.mu == pytest.approx(37.065092445315926, rel=1e-14)
    assert cert.T == pytest.approx(99.0 / 1.9, rel=1e-15)
    assert not cert.met_at_start


def test_design_uses_r_init_over_100_by_default():
    cert = design_certificate(nu=0.5, u_e_max=0.1, gamma0=0.2, r_init=50.0)
    assert cert.r0 == 0.5


certificate_inputs = (
    st.floats(min_value=0.0, max_value=0.97),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=-0.999, max_value=0.999),
    st.floats(min_value=0.1, max_value=1000.0),
    st.floats(min_value=0.002, max_value=0.5),
    st.floats(min_value=0.01, max_value=0.9),
)


@given(*certificate_inputs)
@settings(max_examples=300, deadline=None)
def test_designed_certificates_validate(nu, u_e_max, gamma0, r_init, eps_t, r0_frac):
    r0 = r0_frac * r_init
    cert = design_certificate(
        nu=nu, u_e_max=u_e_max, gamma0=gamma0, r_init=r_init,
        epsilon_target=eps_t, r0_choice=r0,
    )
    assert (cert.nu, cert.u_e_max, cert.gamma0, cert.r_init, cert.r0) == (
        nu, u_e_max, gamma0, r_init, r0)
    assert cert.c1 == compute_c1(nu, u_e_max)
    assert 0.0 < cert.epsilon <= eps_t
    c0 = cert.c2 + cert.c1 / math.sqrt(cert.epsilon)
    assert cert.mu == pytest.approx(float(_oracle_mu(nu, r0, c0)), rel=1e-12, abs=0.0)
    if cert.met_at_start:
        assert cert.T == 0.0
        assert cert.c2 >= 0.0
    else:
        assert cert.epsilon <= 1.0 - gamma0 * gamma0 + 1e-15
        assert cert.c2 > 0.0
        want_T = (mpmath.mpf(r_init) - mpmath.mpf(r0)) / (1 + mpmath.mpf(nu))
        assert cert.T == pytest.approx(float(want_T), rel=1e-15, abs=0.0)


@given(*certificate_inputs)
@settings(max_examples=200, deadline=None)
def test_design_satisfies_both_gain_conditions_tightly(nu, u_e_max, gamma0, r_init, eps_t, r0_frac):
    cert = design_certificate(
        nu=nu, u_e_max=u_e_max, gamma0=gamma0, r_init=r_init,
        epsilon_target=eps_t, r0_choice=r0_frac * r_init,
    )
    sq = math.sqrt(cert.epsilon)
    c0 = cert.c2 + cert.c1 / sq
    # Damping condition.
    assert c0 >= 2.0 * cert.c1 / sq - 1e-12 * max(1.0, c0)
    if not cert.met_at_start:
        req = required_c2(cert.nu, cert.gamma0, cert.epsilon, cert.r_init, cert.r0)
        # Arrival condition, and minimality: one of the two constraints is
        # active, so c0 cannot be lowered.
        assert cert.c2 >= req - 1e-12 * max(1.0, abs(req))
        slack_damping = c0 - 2.0 * cert.c1 / sq
        slack_arrival = cert.c2 - req
        assert min(slack_damping, slack_arrival) <= 1e-9 * max(1.0, c0)
        # The oracle agrees on the resulting gain.
        want = float(_oracle_mu(cert.nu, cert.r0, c0))
        assert cert.mu == pytest.approx(want, rel=1e-12)


@given(*certificate_inputs)
@settings(max_examples=200, deadline=None)
def test_envelope_reaches_the_band_by_the_deadline(nu, u_e_max, gamma0, r_init, eps_t, r0_frac):
    cert = design_certificate(
        nu=nu, u_e_max=u_e_max, gamma0=gamma0, r_init=r_init,
        epsilon_target=eps_t, r0_choice=r0_frac * r_init,
    )
    if cert.met_at_start:
        assert gamma0 <= -1.0 + eps_t
        assert cert.T == 0.0
    else:
        assert gamma_envelope(cert.gamma0, cert.c2, cert.T) <= -1.0 + cert.epsilon + 1e-9


def _gamma_rate(cert, s, u_e):
    """(gamma, dgamma/dt) at state s under MCPG at cert.mu and evader command u_e.

    With v = x_p - nu x_e and a = dv/dt = u_p x_p^perp - nu^2 u_e x_e^perp,
    dgamma/dt = (|v|^2 + r.a)/(|r||v|) - gamma((r.v)/|r|^2 + (v.a)/|v|^2).
    """
    nu = cert.nu
    u_p = scalar_pursuer_control(MCPG(cert.mu), nu)(*scalar_args(s, u_e))
    p, e = s
    rx, ry, vx, vy = rel_of(s, nu)
    ax = -u_p * math.sin(p.heading) + nu * nu * u_e * math.sin(e.heading)
    ay = u_p * math.cos(p.heading) - nu * nu * u_e * math.cos(e.heading)
    rr = rx * rx + ry * ry
    vv = vx * vx + vy * vy
    rv = rx * vx + ry * vy
    rnvn = math.sqrt(rr * vv)
    gamma = rv / rnvn
    return gamma, (vv + rx * ax + ry * ay) / rnvn - gamma * (rv / rr + (vx * ax + vy * ay) / vv)


angles = st.floats(min_value=-math.pi, max_value=math.pi)


@given(
    st.floats(min_value=0.05, max_value=0.95),
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.0)),
    st.floats(min_value=-0.98, max_value=0.95),
    st.floats(min_value=0.1, max_value=1000.0),
    st.floats(min_value=0.01, max_value=0.9),
    st.lists(st.tuples(st.floats(min_value=1.0, max_value=100.0), angles, angles, angles,
                       st.sampled_from((1.0, -1.0))), min_size=1, max_size=20),
)
@settings(max_examples=300, deadline=None)
def test_the_designed_gain_meets_the_certificates_differential_inequality(
        nu, u_e_max, gamma0, r_init, r0_frac, states):
    # The envelope tanh(atanh(gamma0) - c2 t) solves dgamma/dt = -c2 (1 - gamma^2),
    # so the certificate rests on dgamma/dt <= -c2 (1 - gamma^2) at every state
    # of its region, |r| >= r0 and 1 - gamma^2 >= eps, against u_e = +-u_e_max.
    cert = design_certificate(nu=nu, u_e_max=u_e_max, gamma0=gamma0, r_init=r_init,
                              r0_choice=r0_frac * r_init)
    assert not cert.met_at_start
    for scale, bearing, pth, eth, sign in states:
        rn = cert.r0 * scale
        s = (ParticleState(PlanarVector(rn * math.cos(bearing), rn * math.sin(bearing)), pth),
             ParticleState(PlanarVector(0.0, 0.0), eth))
        gamma, rate = _gamma_rate(cert, s, sign * u_e_max)
        if 1.0 - gamma * gamma >= cert.epsilon:
            assert rate <= -cert.c2 * (1.0 - gamma * gamma)


def test_the_differential_inequality_fails_just_outside_the_region():
    # Near gamma = +1 the evader's turn moves gamma at first order in the angle
    # between r and v, and the law damps it only at second order; choose_epsilon
    # caps eps at 1 - gamma0^2 to keep such states out of the region.
    cert = design_certificate(nu=0.5, u_e_max=1.0, gamma0=0.5, r_init=10.0)
    s = state_from_rel(2.0, 0.0, 1.2 * math.cos(1e-3), 1.2 * math.sin(1e-3), cert.nu)
    gamma, rate = _gamma_rate(cert, s, -cert.u_e_max)
    assert 0.0 < 1.0 - gamma < 1e-5
    assert 2.0 >= cert.r0 and 1.0 - gamma * gamma < cert.epsilon
    assert rate > -cert.c2 * (1.0 - gamma * gamma)


@given(
    st.floats(min_value=0.1, max_value=0.95),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=0.9),
)
@settings(max_examples=150, deadline=None)
def test_gain_grows_with_evader_agility_and_worse_starts(nu, u_e_max, gamma0):
    base = design_certificate(nu=nu, u_e_max=u_e_max, gamma0=gamma0, r_init=100.0)
    harder_evader = design_certificate(
        nu=nu, u_e_max=u_e_max + 0.5, gamma0=gamma0, r_init=100.0
    )
    worse_start = design_certificate(
        nu=nu, u_e_max=u_e_max, gamma0=min(gamma0 + 0.05, 0.99), r_init=100.0
    )
    assert harder_evader.mu >= base.mu
    assert worse_start.mu >= base.mu


def test_met_at_start_branch():
    cert = design_certificate(nu=0.8, u_e_max=0.3, gamma0=-0.995, r_init=20.0,
                              epsilon_target=0.01)
    assert cert.met_at_start
    assert cert.T == 0.0
    assert cert.epsilon == 0.01


def test_design_rejects_degenerate_inputs():
    with pytest.raises(DegenerateStart):
        design_certificate(nu=0.5, u_e_max=0.0, gamma0=1.0, r_init=10.0)
    with pytest.raises(InvalidSpeedRatio):
        design_certificate(nu=1.0, u_e_max=0.0, gamma0=0.0, r_init=10.0)
    with pytest.raises(InvalidGeometry):
        design_certificate(nu=0.5, u_e_max=0.0, gamma0=0.0, r_init=10.0, r0_choice=10.0)
    with pytest.raises(InvalidGeometry):
        design_certificate(nu=0.5, u_e_max=0.0, gamma0=0.0, r_init=-1.0)
    with pytest.raises(ValueError):
        design_certificate(nu=0.5, u_e_max=-0.1, gamma0=0.0, r_init=10.0)


@pytest.mark.parametrize("changes, error, message", [
    ({"nu": 1.0}, InvalidSpeedRatio, "nu out of"),
    ({"nu": -0.1}, InvalidSpeedRatio, "nu out of"),
    ({"nu": math.nan}, InvalidSpeedRatio, "nu out of"),
    ({"u_e_max": -0.1}, ValueError, "u_e_max must be"),
    ({"u_e_max": math.inf}, ValueError, "u_e_max must be"),
    ({"epsilon_target": 0.0}, ValueError, "epsilon_target out of"),
    ({"epsilon_target": 1.0}, ValueError, "epsilon_target out of"),
    ({"gamma0": 1.5}, ValueError, "gamma0 out of"),
    ({"gamma0": 1.0}, DegenerateStart, "gamma0 = 1"),
    ({"r_init": 0.0}, InvalidGeometry, "r_init must be"),
    ({"r_init": math.inf}, InvalidGeometry, "r_init must be"),
    ({"r0_choice": 40.0}, InvalidGeometry, "need 0 < r0 < r_init"),
    ({"r0_choice": 0.0}, InvalidGeometry, "need 0 < r0 < r_init"),
    ({"r0_choice": 1e-309}, InvalidGeometry, "is not finite"),
], ids=["nu", "nu_negative", "nu_nan", "u_e_max", "u_e_max_inf", "epsilon_zero",
        "epsilon_one", "gamma0", "gamma0_one", "r_init", "r_init_inf", "r0", "r0_zero", "mu"])
def test_design_names_the_broken_input(changes, error, message):
    inputs = {"nu": 0.6, "u_e_max": 0.2, "gamma0": 0.3, "r_init": 40.0} | changes
    with pytest.raises(error, match=message):
        design_certificate(**inputs)


SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scenarios")


@pytest.mark.parametrize("name", ["random_weave", "sine_weave", "straight_chase"])
def test_a_saved_certificate_is_the_designed_one(name, tmp_path):
    # A saved certificate is checked by redesigning it from the scenario.
    path = os.path.join(SCENARIOS, f"{name}.txt")
    assert main(["certify", "--scenario", path, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "certificate.json", encoding="utf-8") as f:
        saved = GainCertificate(**json.load(f)["certificate"])
    with open(path, encoding="utf-8") as f:
        config = parse_scenario(f.read())
    p, e, nu = config.pursuer_init, config.evader_init, config.nu
    r_init, _, gamma0, *_ = metric_values(
        p.position.x - e.position.x, p.position.y - e.position.y,
        math.cos(p.heading) - nu * math.cos(e.heading),
        math.sin(p.heading) - nu * math.sin(e.heading),
    )
    assert saved == design_certificate(
        nu=nu, u_e_max=config.evader_program.max_abs_control(), gamma0=gamma0,
        r_init=r_init, epsilon_target=0.01,
    )
