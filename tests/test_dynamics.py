import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcpursuit.dynamics import ParticleState, rk4_step_scalars
from mcpursuit.geometry import PlanarVector
from mcpursuit.guidance import MCPG
from mcpursuit.scenario_io import build_scenario
from mcpursuit.simulation import simulate


def _zero_pursuer(t, px, py, pth, cp, sp, ex, ey, eth, ce, se, ue):
    return 0.0


def _zero_evader(t):
    return 0.0


def test_straight_motion_advances_by_exactly_h():
    # With zero controls and zero headings the RK4 combination collapses to
    # x + h for the pursuer and x + h*nu for the evader, with no rounding.
    out = rk4_step_scalars(0.0, 0.0, 0.0, 0.0, 5.0, 0.0, 0.0, 0.25, 0.5,
                           _zero_pursuer, _zero_evader)
    assert out == (0.25, 0.0, 0.0, 5.125, 0.0, 0.0)


def test_stage_times_are_t_then_two_midpoints_then_t_plus_h():
    seen = []

    def evader(t):
        seen.append(t)
        return 0.0

    rk4_step_scalars(1.0, 0.0, 0.0, 0.0, 5.0, 0.0, 0.0, 0.5, 0.5,
                     _zero_pursuer, evader)
    # The two middle stages share one evaluation of a time-only signal.
    assert seen == [1.0, 1.25, 1.5]
    # Stage-1 controls handed over by the caller are not evaluated again.
    seen.clear()
    rk4_step_scalars(1.0, 0.0, 0.0, 0.0, 5.0, 0.0, 0.0, 0.5, 0.5,
                     _zero_pursuer, evader, 0.0, 0.0)
    assert seen == [1.25, 1.5]


def _circle_position(x0, y0, th0, t):
    # Unit speed with unit turn rate: the path is the unit circle through
    # (x0, y0) with initial tangent at angle th0.
    return (
        x0 + math.sin(th0 + t) - math.sin(th0),
        y0 - math.cos(th0 + t) + math.cos(th0),
    )


def _run_circle(h, steps, th0=0.3):
    def one_pursuer(t, px, py, pth, cp, sp, ex, ey, eth, ce, se, ue):
        return 1.0

    px, py, pth = 0.0, 0.0, th0
    ex, ey, eth = 100.0, 0.0, 0.0
    t = 0.0
    for k in range(steps):
        px, py, pth, ex, ey, eth = rk4_step_scalars(
            k * h, px, py, pth, ex, ey, eth, h, 0.0, one_pursuer, _zero_evader
        )
    return px, py, pth


def test_constant_turn_tracks_the_closed_form_circle():
    # Over a full revolution the per-step truncation errors cancel by
    # symmetry, so the closed loop is hit at rounding level.
    h = 2.0 * math.pi / 400.0
    px, py, pth = _run_circle(h, 400)
    x_true, y_true = _circle_position(0.0, 0.0, 0.3, 2.0 * math.pi)
    err = math.hypot(px - x_true, py - y_true)
    assert err < 1e-11
    assert pth == pytest.approx(0.3 + 2.0 * math.pi, rel=1e-12)


def test_halving_the_step_cuts_the_arc_error_about_sixteenfold():
    # A partial arc avoids the full-circle cancellation and shows the real
    # fourth-order convergence.
    x_true, y_true = _circle_position(0.0, 0.0, 0.3, 1.0)
    errs = []
    for n in (20, 40):
        px, py, _ = _run_circle(1.0 / n, n)
        errs.append(math.hypot(px - x_true, py - y_true))
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0


def test_step_matches_the_scalar_kernel_bitwise():
    # simulate's first step under a state-level pursuer override.
    config = build_scenario(
        nu=0.8,
        pursuer_init=ParticleState(PlanarVector(3.0, -1.0), 0.7),
        evader_init=ParticleState(PlanarVector(0.0, 0.5), -0.2),
        pursuer_law=MCPG(1.0),
        step_size=0.01,
        t_max=0.01,
    )

    def pursuer_state(state, ue):
        return 0.3 * state.pursuer.heading - 0.1 * ue

    def evader(t):
        return 0.05 * t

    after = simulate(config, pursuer_control=pursuer_state, evader_control=evader)

    def pursuer_scalar(t, px, py, pth, cp, sp, ex, ey, eth, ce, se, ue):
        return 0.3 * pth - 0.1 * ue

    expected = rk4_step_scalars(0.0, 3.0, -1.0, 0.7, 0.0, 0.5, -0.2, 0.01, 0.8,
                                pursuer_scalar, evader)
    got = (after.px[1], after.py[1], after.ptheta[1], after.ex[1], after.ey[1], after.etheta[1])
    assert got == expected
    assert after.t[1] == 0.01


def _handoff_pursuer(t, px, py, pth, cp, sp, ex, ey, eth, ce, se, ue):
    return 0.7 * ((px - ex) * (sp - 0.6 * se) - (py - ey) * (cp - 0.6 * ce)) + 0.2 * ue


def _handoff_evader(t):
    return 0.4 * math.sin(1.3 * t)


_finite = st.floats(min_value=-50.0, max_value=50.0)


@given(_finite, _finite, _finite, _finite, _finite, _finite, _finite,
       st.floats(min_value=1e-6, max_value=0.5), st.floats(min_value=0.0, max_value=0.95))
def test_handed_over_stage_one_is_bitwise_the_plain_step(t, px, py, pth, ex, ey, eth, h, nu):
    ue1 = _handoff_evader(t)
    a1 = _handoff_pursuer(t, px, py, pth, math.cos(pth), math.sin(pth),
                          ex, ey, eth, math.cos(eth), math.sin(eth), ue1)
    plain = rk4_step_scalars(t, px, py, pth, ex, ey, eth, h, nu,
                             _handoff_pursuer, _handoff_evader)
    handed = rk4_step_scalars(t, px, py, pth, ex, ey, eth, h, nu,
                              _handoff_pursuer, _handoff_evader, ue1, a1)
    assert [v.hex() for v in handed] == [v.hex() for v in plain]


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=0.95),
)
def test_speed_is_preserved_over_a_step(pth, eth, nu):
    # The chord of one step divided by h converges to the speed; with the
    # smooth controls below and a tiny step it should be within O(h^2).
    h = 1e-3

    def pursuer(t, px, py, pth_, cp, sp, ex, ey, eth_, ce, se, ue):
        return 0.4

    px, py, pth2, ex, ey, eth2 = rk4_step_scalars(
        0.0, 0.0, 0.0, pth, 2.0, 0.0, eth, h, nu, pursuer, lambda t: 0.2
    )
    assert math.hypot(px, py) / h == pytest.approx(1.0, abs=1e-6)
    if nu > 0.0:
        assert math.hypot(ex - 2.0, ey) / h == pytest.approx(nu, abs=1e-6)


def test_long_integration_keeps_heading_consistent_with_motion():
    # 100k straight steps: position must equal steps * h exactly in this
    # special geometry, so drift of any kind would show up.
    h = 0.01
    px, py, pth, ex, ey, eth = 0.0, 0.0, 0.0, 1.0, 0.0, 0.0
    for k in range(100_000):
        px, py, pth, ex, ey, eth = rk4_step_scalars(
            k * h, px, py, pth, ex, ey, eth, h, 0.5, _zero_pursuer, _zero_evader
        )
    assert px == pytest.approx(1000.0, rel=1e-12)
    assert py == 0.0
    assert pth == 0.0
    assert ex == pytest.approx(1.0 + 500.0, rel=1e-12)


def test_non_finite_control_raises_through_step():
    # An infinite heading rate reaches the stage-2 trig as an infinite angle.
    def infinite_pursuer(t, px, py, pth, cp, sp, ex, ey, eth, ce, se, ue):
        return math.inf

    with pytest.raises(ValueError):
        rk4_step_scalars(0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.1, 0.5,
                         infinite_pursuer, _zero_evader)
