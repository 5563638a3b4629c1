import ast
import dataclasses
import math
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Linear, Ramp
from mcpursuit import dynamics
from mcpursuit.dynamics import ParticleState, law_code, rk4_step_scalars
from mcpursuit.errors import ZeroBaseline
from mcpursuit.geometry import PlanarVector
from mcpursuit.guidance import (
    MCPG,
    _Law,
    PPNG,
    Constant,
    Exact,
    PiecewiseRandom,
    Sinusoid,
    Zero,
    scalar_evader_control,
    scalar_pursuer_control,
)
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
    # simulate's first step under a test-only law of the pursuer heading.
    config = build_scenario(
        nu=0.8,
        pursuer_init=ParticleState(PlanarVector(3.0, -1.0), 0.7),
        evader_init=ParticleState(PlanarVector(0.0, 0.5), -0.2),
        pursuer_law=Linear(0.3, 0.1),
        evader_program=Ramp(0.05),
        step_size=0.01,
        t_max=0.01,
    )
    after = simulate(config)

    def pursuer_scalar(t, px, py, pth, cp, sp, ex, ey, eth, ce, se, ue):
        return 0.3 * pth - 0.1 * ue

    def evader(t):
        return 0.05 * t

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


_LAWS = (MCPG(3.0), Exact(2.5), PPNG(4.0))
_PROGRAMS = (Zero(), Constant(0.3), Sinusoid(amplitude=0.2, angular_freq=1.1, phase=0.4),
             PiecewiseRandom(seed=5, dwell=0.3, u_max=0.5))


def _outcome(run):
    """The state's bits, None if the run returned None, or the type of what it raised."""
    try:
        state = run()
    except (ZeroBaseline, ValueError, OverflowError, ZeroDivisionError) as exc:
        return type(exc)
    return None if state is None else [v.hex() for v in state]


def _plain_steps(law, program, k0, n, state, h, nu):
    pursuer = scalar_pursuer_control(law, nu)
    evader = scalar_evader_control(program)
    for k in range(k0, k0 + n):
        state = rk4_step_scalars(k * h, *state, h, nu, pursuer, evader)
    return state


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_LAWS), st.sampled_from(_PROGRAMS),
       st.tuples(_finite, _finite, st.floats(-7.0, 7.0), _finite, _finite, st.floats(-7.0, 7.0)),
       st.integers(0, 10**6), st.integers(0, 25),
       st.floats(min_value=1e-4, max_value=0.2), st.floats(min_value=0.0, max_value=0.95))
def test_fused_loop_is_bitwise_the_plain_steps(law, program, state, k0, n, h, nu):
    fused = law_code(type(law)).loop
    got = _outcome(lambda: fused(law, k0, n, *state, h, nu, scalar_evader_control(program)))
    assert got == _outcome(lambda: _plain_steps(law, program, k0, n, state, h, nu))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_LAWS + (Linear(0.3, 0.1),)), st.sampled_from(_PROGRAMS + (Ramp(0.05),)),
       st.tuples(_finite, _finite, st.floats(-7.0, 7.0), _finite, _finite, st.floats(-7.0, 7.0)),
       st.integers(0, 10**6), st.integers(0, 25),
       st.floats(min_value=1e-4, max_value=0.2), st.floats(min_value=0.0, max_value=0.95))
def test_the_split_halves_are_bitwise_the_fused_loop(law, program, state, k0, n, h, nu):
    evader = scalar_evader_control(program)
    code = law_code(type(law))
    fused = _outcome(lambda: code.loop(law, k0, n, *state, h, nu, evader))
    evade, pursue, row = code.evade, code.pursue, code.row
    rows = []
    moved = _outcome(lambda: evade(k0, n, *state[3:], h, nu, evader, rows.append))
    if isinstance(moved, list):
        # The row of step n, which starts from the evader's state after the n steps.
        evade(k0 + n, 1, *map(float.fromhex, moved), h, nu, evader, rows.append)

    def pursued(m):
        """pursue's outcome over the first m rows."""
        return _outcome(lambda: pursue(law, row.iter_unpack(b"".join(rows[:m])), n, *state[:3],
                                       h, nu))

    if isinstance(fused, list):
        # With the row of step n, pursue returns the whole state, the evader's too.
        assert pursued(n + 1) == fused
        # Without it, or with fewer rows still, pursue returns None.
        for m in range(n + 1):
            assert pursued(m) is None
    else:
        # A step that raises in the fused loop raises in one of its halves.
        assert not (isinstance(moved, list) and isinstance(pursued(n + 1), list))
    # Each row starts with the evader's state at its step's start.
    if rows:
        assert row.unpack(rows[0])[:3] == state[3:]


def _names_of(source, context):
    return {node.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and isinstance(node.ctx, context)}


@pytest.mark.parametrize("law", _LAWS + (Linear(0.3, 0.1),), ids=lambda law: law.variant)
def test_the_evader_half_reads_nothing_of_the_pursuer(law):
    # The split runs the evader's texts in a process that never sees the pursuer.
    control = dynamics._LAW + type(law).kernel + "\n"
    pursuer = dynamics._pursuer_half(control, control)
    read = _names_of(dynamics._EVADER_HALF + dynamics._EVADER_MOVE, ast.Load)
    assert not read & (_names_of(pursuer, ast.Store) | {"px", "py", "pth"})


def _evader_raising_after_start(t):
    if t > 0.0:
        raise ZeroDivisionError("program undefined after t = 0")
    return 0.0


def test_the_evader_half_runs_before_the_pursuer_half():
    # The pursuer starts on the evader, so the law raises at stage 1; the
    # evader program raises at stage 2, in the half that runs first.
    with pytest.raises(ZeroDivisionError):
        law_code(MCPG).loop(MCPG(1.0), 0, 1, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.1, 0.5,
                            _evader_raising_after_start)
    with pytest.raises(ZeroDivisionError):
        rk4_step_scalars(0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.1, 0.5,
                         scalar_pursuer_control(MCPG(1.0), 0.5), _evader_raising_after_start)


def test_a_zero_baseline_inside_the_loop_raises_through_it():
    # The pursuer runs straight into a still evader; stage 4 of step 3 lands on it.
    state = (0.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    for law in _LAWS:
        with pytest.raises(ZeroBaseline):
            law_code(type(law)).loop(law, 0, 8, *state, 0.25, 0.0, scalar_evader_control(Zero()))


def test_importing_the_cli_compiles_no_law_code():
    code = (
        "import gc, types\n"
        "import mcpursuit.cli\n"
        "print(*sorted(f.__code__.co_filename for f in gc.get_objects()\n"
        "              if isinstance(f, types.FunctionType)\n"
        "              and f.__code__.co_filename.startswith('<rk4')), sep='|')\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "<rk4 step>"


def _renamed_mcpg(name):
    """MCPG's kernel with its gain as a field called ``name``."""
    return dataclasses.make_dataclass(
        "Renamed", [(name, float)], bases=(_Law,), frozen=True,
        namespace={"variant": f"mcpg_{name}", "kernel": MCPG.kernel.replace("mu", name)})


@pytest.mark.parametrize("name", ["h", "nu", "t", "k", "n", "a", "half", "px", "cp1", "rsq",
                                  "law", "evader", "range", "sqrt", "rows", "put", "pack", "islice"])
def test_a_law_field_may_not_take_a_name_of_the_generated_step(name):
    # A field named h would be bound over the step size inside the loop.
    cls = _renamed_mcpg(name)
    with pytest.raises(ValueError, match=f"field '{name}'"):
        law_code(cls)


def test_a_law_compiles_once_into_one_source():
    compiled = []
    real = dynamics._compile

    def count(source, filename, *args, **names):
        compiled.append(filename)
        return real(source, filename, *args, **names)

    cls = _renamed_mcpg("gain")  # a fresh class, so nothing of it is cached yet
    with mock.patch.object(dynamics, "_compile", count):
        make, loop, evade, pursue, _ = law_code(cls)
    assert compiled == [f"<rk4 {cls.variant}>"]
    assert {f.__code__.co_filename for f in (make, loop, evade, pursue)} == {compiled[0]}
