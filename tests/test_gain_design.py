"""The certificate algebra, checked against a high-precision oracle.

The required decay rate and the gain chain are recomputed with mpmath at 50
digits; the double-precision implementation has to stay within a relative
1e-13 of that, which leaves room only for honest rounding.
"""

import dataclasses
import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcpursuit.errors import DegenerateStart, InvalidGeometry, InvalidSpeedRatio
from mcpursuit.gain_design import (
    GainCertificate,
    choose_epsilon,
    compute_c1,
    design_certificate,
    required_c2,
)
from mcpursuit.metrics import gamma_envelope

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
    cert.validate()


def test_design_uses_r_init_over_100_by_default():
    cert = design_certificate(nu=0.5, u_e_max=0.1, gamma0=0.2, r_init=50.0)
    assert cert.r0 == 0.5
    cert.validate()


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
    cert = design_certificate(
        nu=nu, u_e_max=u_e_max, gamma0=gamma0, r_init=r_init,
        epsilon_target=eps_t, r0_choice=r0_frac * r_init,
    )
    cert.validate()


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
    cert.validate()


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


def test_validate_catches_tampered_certificates():
    cert = design_certificate(nu=0.6, u_e_max=0.2, gamma0=0.3, r_init=40.0)
    cert.validate()
    with pytest.raises(ValueError):
        dataclasses.replace(cert, c2=cert.c2 * 0.5).validate()
    with pytest.raises(ValueError):
        dataclasses.replace(cert, mu=cert.mu * 1.01).validate()
    with pytest.raises(ValueError):
        dataclasses.replace(cert, c1=cert.c1 * 2.0).validate()
    with pytest.raises(ValueError):
        dataclasses.replace(cert, T=cert.T + 1.0).validate()


def _consistent(cert, **changes):
    """cert with the changes and mu recomputed from them, so that mu's check passes."""
    c = dataclasses.replace(cert, **changes)
    c0 = c.c2 + c.c1 / math.sqrt(c.epsilon)
    return dataclasses.replace(c, mu=((1.0 + c.nu) / (1.0 - c.nu)) * ((1.0 + c.nu) / c.r0 + c0))


# The damping condition sets c0 in _SHARP; in _CALM (c1 = 0) the arrival condition does.
_SHARP = design_certificate(nu=0.6, u_e_max=0.2, gamma0=0.3, r_init=40.0)
_CALM = design_certificate(nu=0.6, u_e_max=0.0, gamma0=0.3, r_init=40.0)
_MET = design_certificate(nu=0.8, u_e_max=0.0, gamma0=-0.995, r_init=20.0)


@pytest.mark.parametrize("cert, error, message", [
    (dataclasses.replace(_SHARP, nu=1.0), InvalidSpeedRatio, "nu out of"),
    (dataclasses.replace(_SHARP, u_e_max=-0.1), ValueError, "u_e_max negative"),
    (dataclasses.replace(_SHARP, gamma0=1.0), DegenerateStart, "gamma0 out of"),
    (dataclasses.replace(_SHARP, r0=_SHARP.r_init), InvalidGeometry, "need 0 < r0 < r_init"),
    (dataclasses.replace(_SHARP, epsilon=0.0), ValueError, "epsilon out of"),
    (dataclasses.replace(_SHARP, epsilon=1.5), ValueError, "epsilon out of"),
    (_consistent(_SHARP, c2=0.5 * _SHARP.c2), ValueError, "damping condition violated"),
    (dataclasses.replace(_MET, T=1.0), ValueError, "must have T = 0"),
    (_consistent(_MET, c2=-1e-13), ValueError, "c2 negative"),
    (_consistent(_CALM, epsilon=0.95), ValueError, "exceeds admissible band"),
    (_consistent(_CALM, c2=0.0), ValueError, "c2 must be positive"),
    (_consistent(_CALM, c2=0.5 * _CALM.c2), ValueError, "arrival condition violated"),
], ids=["nu", "u_e_max", "gamma0", "r0", "epsilon_zero", "epsilon_over_one", "damping",
        "met_T", "met_c2", "band", "c2_zero", "arrival"])
def test_validate_names_the_broken_condition(cert, error, message):
    with pytest.raises(error, match=message):
        cert.validate()


def test_the_untampered_certificates_validate():
    for cert in (_SHARP, _CALM, _MET):
        cert.validate()
