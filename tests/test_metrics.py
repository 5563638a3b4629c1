import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import state_from_rel
from mcpursuit.dynamics import EngagementState, ParticleState
from mcpursuit.errors import CertificateMismatch, DegenerateGamma, ZeroBaseline
from mcpursuit.gain_design import design_certificate
from mcpursuit.geometry import PlanarVector
from mcpursuit.guidance import MCPG, PPNG, Constant, Zero
from mcpursuit.metrics import (
    camouflage_test,
    check_envelope,
    compute_metrics,
    gamma_envelope,
    metric_values,
)
from mcpursuit.scenario_io import TrajectoryRecord, build_scenario, initial_state
from mcpursuit.simulation import simulate


def test_kernel_frozen_example():
    # r = (2, 0), rdot = (-1, 1): half-closing at 45 degrees with unit
    # counterclockwise transverse speed.
    rn, dn, g, w, los, residual = metric_values(2.0, 0.0, -1.0, 1.0)
    assert rn == 2.0
    assert dn == math.sqrt(2.0)
    assert g == -2.0 / (2.0 * math.sqrt(2.0))
    assert w == 1.0
    assert los == 0.5
    assert residual == pytest.approx(0.5, abs=1e-15)


def test_kernel_rejects_zero_baseline():
    with pytest.raises(ZeroBaseline):
        metric_values(0.0, 0.0, 1.0, 0.0)


rel_speeds = st.floats(min_value=-1.9, max_value=1.9)
baselines = st.floats(min_value=-30.0, max_value=30.0)


@st.composite
def rel_geometries(draw):
    nu = draw(st.floats(min_value=0.05, max_value=0.95))
    rx = draw(baselines)
    ry = draw(baselines)
    if rx * rx + ry * ry < 1e-6:
        rx = 1.0
    angle = draw(st.floats(min_value=-math.pi, max_value=math.pi))
    speed = draw(st.floats(min_value=1.0 - nu + 1e-9, max_value=1.0 + nu - 1e-9))
    return nu, rx, ry, speed * math.cos(angle), speed * math.sin(angle)


@given(rel_geometries())
@settings(max_examples=200)
def test_state_builder_realizes_requested_relative_velocity(geom):
    nu, rx, ry, drx, dry = geom
    s = state_from_rel(rx, ry, drx, dry, nu)
    m = compute_metrics(s, nu)
    assert m.baseline.x == rx
    assert m.baseline.y == ry
    assert m.rel_vel.x == pytest.approx(drx, abs=1e-9)
    assert m.rel_vel.y == pytest.approx(dry, abs=1e-9)


@given(rel_geometries())
@settings(max_examples=200)
def test_gamma_and_transverse_satisfy_the_unit_identity(geom):
    nu, rx, ry, drx, dry = geom
    s = state_from_rel(rx, ry, drx, dry, nu)
    m = compute_metrics(s, nu)
    dn = math.hypot(m.rel_vel.x, m.rel_vel.y)
    assert -1.0 <= m.gamma <= 1.0
    assert m.gamma**2 + (m.w_signed / dn) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert m.residual == pytest.approx(1.0 - m.gamma**2, abs=1e-15)


@given(rel_geometries())
@settings(max_examples=200)
def test_kernel_agrees_with_vector_formulas(geom):
    nu, rx, ry, drx, dry = geom
    rn, dn, g, w, los, residual = metric_values(rx, ry, drx, dry)
    r_len = math.hypot(rx, ry)
    d_len = math.hypot(drx, dry)
    # The scalar kernel uses sqrt of the squared sum while hypot does not;
    # at engagement scales they agree to a few ulps.
    assert rn == pytest.approx(r_len, rel=1e-15)
    assert dn == pytest.approx(d_len, rel=1e-15)
    assert w == pytest.approx((rx * dry - ry * drx) / r_len, rel=1e-12, abs=1e-12)
    assert g == pytest.approx((rx * drx + ry * dry) / (r_len * d_len), rel=1e-12, abs=1e-12)
    assert los == w / rn


def _dummy_scenario():
    return build_scenario(
        nu=0.5,
        pursuer_init=ParticleState(PlanarVector(10.0, 0.0), 2.5),
        evader_init=ParticleState(PlanarVector(0.0, 0.0), 0.5),
        pursuer_law=MCPG(2.0),
    )


def _synthetic_record(px, py, ex, ey):
    n = len(px)
    return TrajectoryRecord(
        scenario=_dummy_scenario(),
        termination="time_limit",
        t=[0.1 * i for i in range(n)],
        px=list(px), py=list(py), ex=list(ex), ey=list(ey),
        ptheta=[0.0] * n, etheta=[0.0] * n,
        u_p=[0.0] * n, u_e=[0.0] * n,
        r_norm=[math.hypot(a - c, b - d) for a, b, c, d in zip(px, py, ex, ey)],
        gamma=[0.0] * n, w=[0.0] * n, los_rate=[0.0] * n, residual=[1.0] * n,
    )


def test_camouflage_holds_for_exactly_parallel_baselines():
    # Baselines all along (1, 0), shrinking: zero transverse residual.
    rec = _synthetic_record(
        px=[10.0, 8.0, 5.0], py=[0.0, 0.0, 0.0],
        ex=[0.0, 0.0, 0.0], ey=[0.0, 0.0, 0.0],
    )
    trace, ok = camouflage_test(rec, tol=1e-12)
    assert ok
    assert trace.reference_bearing == PlanarVector(1.0, 0.0)
    assert trace.lambda_along == [10.0, 8.0, 5.0]
    assert trace.transverse_residual == [0.0, 0.0, 0.0]


def test_camouflage_fails_once_the_baseline_swings():
    rec = _synthetic_record(
        px=[10.0, 8.0, 5.0], py=[0.0, 0.1, 0.4],
        ex=[0.0, 0.0, 0.0], ey=[0.0, 0.0, 0.0],
    )
    trace, ok = camouflage_test(rec, tol=1e-3)
    assert not ok
    assert trace.transverse_residual[1] == pytest.approx(0.1, rel=1e-12)
    _, ok_loose = camouflage_test(rec, tol=0.1)
    assert ok_loose


def test_camouflage_single_sample_passes_vacuously():
    rec = _synthetic_record(px=[10.0], py=[0.0], ex=[0.0], ey=[0.0])
    _, ok = camouflage_test(rec, tol=0.0)
    assert ok


def test_camouflage_rejects_zero_baseline_samples():
    rec = _synthetic_record(px=[10.0, 0.0], py=[0.0, 0.0], ex=[0.0, 0.0], ey=[0.0, 0.0])
    with pytest.raises(ZeroBaseline):
        camouflage_test(rec, tol=1.0)


@pytest.mark.parametrize("px, message", [([], "empty record has no baseline"),
                                         ([0.0, 10.0], "initial baseline has zero length")],
                         ids=["empty", "zero_start"])
def test_camouflage_needs_an_initial_baseline(px, message):
    rec = _synthetic_record(px=px, py=[0.0] * len(px), ex=[0.0] * len(px), ey=[0.0] * len(px))
    with pytest.raises(ZeroBaseline, match=message):
        camouflage_test(rec, tol=1.0)


def test_envelope_frozen_value_and_monotonicity():
    assert gamma_envelope(0.5, 0.1, 2.0) == math.tanh(math.atanh(0.5) - 0.2)
    assert gamma_envelope(0.5, 0.1, 0.0) == pytest.approx(0.5, rel=1e-15)
    with pytest.raises(DegenerateGamma):
        gamma_envelope(1.0, 0.1, 0.0)
    with pytest.raises(DegenerateGamma):
        gamma_envelope(-1.0, 0.1, 0.0)


@given(st.floats(min_value=-0.99, max_value=0.99),
       st.floats(min_value=0.001, max_value=10.0),
       st.floats(min_value=0.0, max_value=50.0),
       st.floats(min_value=1e-6, max_value=5.0))
def test_envelope_never_increases_in_time(g0, c2, t, dt):
    # Only non-strict: tanh saturates to exactly -1 in floats once the
    # argument is far enough out.
    assert gamma_envelope(g0, c2, t + dt) <= gamma_envelope(g0, c2, t)


def _certified_run():
    cfg = build_scenario(
        nu=0.5,
        pursuer_init=ParticleState(PlanarVector(10.0, 0.0), 2.2),
        evader_init=ParticleState(PlanarVector(0.0, 0.0), 0.9),
        pursuer_law=MCPG(1.0),
        evader_program=Zero(),
    )
    m = compute_metrics(initial_state(cfg), cfg.nu)
    cert = design_certificate(
        nu=cfg.nu, u_e_max=0.0, gamma0=m.gamma, r_init=m.baseline_len,
        epsilon_target=0.01, r0_choice=0.5,
    )
    from mcpursuit.guidance import stability_step_cap

    law = MCPG(cert.mu)
    cfg = dataclasses.replace(
        cfg,
        pursuer_law=law,
        step_size=stability_step_cap(law, cfg.nu, cfg.capture_radius),
        t_max=1.05 * cert.T,
    )
    return simulate(cfg), cert


def test_check_envelope_accepts_a_certified_run():
    record, cert = _certified_run()
    assert check_envelope(record, cert)


def test_check_envelope_rejects_an_envelope_that_is_too_steep():
    record, cert = _certified_run()
    steep = dataclasses.replace(cert, c2=10.0 / record.scenario.step_size)
    assert not check_envelope(record, steep)


def test_check_envelope_passes_a_truncated_record():
    record, cert = _certified_run()
    short = TrajectoryRecord(
        scenario=record.scenario,
        termination="time_limit",
        **{
            name: getattr(record, name)[:10]
            for name in (
                "t", "px", "py", "ptheta", "ex", "ey", "etheta",
                "u_p", "u_e", "r_norm", "gamma", "w", "los_rate", "residual",
            )
        },
    )
    assert check_envelope(short, cert)


def test_check_envelope_rejects_an_empty_record():
    record, cert = _certified_run()
    empty = TrajectoryRecord(scenario=record.scenario, termination="non_finite")
    with pytest.raises(ZeroBaseline, match="empty record"):
        check_envelope(empty, cert)


def test_check_envelope_rejects_mismatched_runs():
    record, cert = _certified_run()
    with pytest.raises(CertificateMismatch):
        check_envelope(record, dataclasses.replace(cert, nu=0.4))
    with pytest.raises(CertificateMismatch):
        check_envelope(record, dataclasses.replace(cert, mu=cert.mu * 1.5))
    with pytest.raises(CertificateMismatch):
        check_envelope(record, dataclasses.replace(cert, r_init=cert.r_init * 2.0))
    with pytest.raises(CertificateMismatch):
        check_envelope(record, dataclasses.replace(cert, gamma0=cert.gamma0 + 0.1))
    ppng_record = dataclasses.replace(
        record, scenario=dataclasses.replace(record.scenario, pursuer_law=PPNG(0.3))
    )
    with pytest.raises(CertificateMismatch):
        check_envelope(ppng_record, cert)
    maneuvering = dataclasses.replace(
        record,
        scenario=dataclasses.replace(record.scenario, evader_program=Constant(0.3)),
    )
    with pytest.raises(CertificateMismatch):
        check_envelope(maneuvering, cert)


def test_compute_metrics_los_rate_matches_w_over_range():
    s = state_from_rel(4.0, -3.0, 0.4, 0.9, 0.6)
    m = compute_metrics(s, 0.6)
    assert m.los_rate == m.w_signed / m.baseline_len
