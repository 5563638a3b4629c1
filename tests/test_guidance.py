import math
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import State, scalar_args
from mcpursuit.dynamics import ParticleState
from mcpursuit.errors import ZeroBaseline
from mcpursuit.geometry import PlanarVector
from mcpursuit.guidance import (
    MCPG,
    PPNG,
    Constant,
    Exact,
    PiecewiseRandom,
    Sinusoid,
    Zero,
    _GAMMA,
    _MASK64,
    _splitmix64,
    random_level,
    scalar_evader_control,
    scalar_pursuer_control,
    stability_step_cap,
)

headings = st.floats(min_value=-7.0, max_value=7.0, allow_nan=False)
positions = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def _state(px, py, pth, ex, ey, eth):
    return State(ParticleState(PlanarVector(px, py), pth), ParticleState(PlanarVector(ex, ey), eth))


def _u_p(law, s, nu, ue=0.0):
    """The law's closure evaluated at state s."""
    return scalar_pursuer_control(law, nu)(*scalar_args(s, ue))


def _u_e(program, t):
    """A fresh closure of the program evaluated at t."""
    return scalar_evader_control(program)(t)


states = st.builds(
    _state, positions, positions, headings, positions, positions, headings
).filter(
    lambda s: math.hypot(
        s.pursuer.position.x - s.evader.position.x,
        s.pursuer.position.y - s.evader.position.y,
    )
    > 1e-6
)


def test_mcpg_turns_toward_cancelling_transverse_motion():
    # Baseline along +x with unit length, relative velocity along +y: the
    # transverse speed is +1, so the command is exactly mu.
    s = _state(1.0, 0.0, math.pi / 2, 0.0, 0.0, 0.0)
    assert _u_p(MCPG(2.0), s, nu=0.0) == 2.0


def test_mcpg_sign_flips_with_transverse_direction():
    s = _state(1.0, 0.0, -math.pi / 2, 0.0, 0.0, 0.0)
    assert _u_p(MCPG(2.0), s, nu=0.0) == -2.0


def test_laws_reject_zero_baseline():
    s = _state(1.0, 1.0, 0.3, 1.0, 1.0, 0.1)
    with pytest.raises(ZeroBaseline):
        _u_p(MCPG(1.0), s, nu=0.5)
    with pytest.raises(ZeroBaseline):
        _u_p(PPNG(1.0), s, nu=0.5)
    with pytest.raises(ZeroBaseline):
        _u_p(Exact(1.0), s, nu=0.5, ue=0.0)


@given(states, st.floats(min_value=0.01, max_value=50.0),
       st.floats(min_value=0.0, max_value=0.95))
def test_exact_law_reduces_to_mcpg_for_straight_evaders(s, mu, nu):
    assert _u_p(Exact(mu), s, nu, 0.0) == _u_p(MCPG(mu), s, nu)


@given(states, st.floats(min_value=0.01, max_value=50.0),
       st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=-2.0, max_value=2.0))
@example(s=_state(0.0, -1.0, 0.0, 0.0, 0.0, 0.0), mu=32.0, nu=0.5, ue=5.3469047210606456e-08)
def test_exact_feedforward_is_bounded_by_nu_squared_ue(s, mu, nu, ue):
    # The heading-alignment coefficient has modulus at most one, so the
    # correction can never exceed nu^2 * |u_e|. Adding it to the MCPG term
    # rounds the sum by up to half an ulp of the Exact command, which the
    # subtraction below gets back, so one ulp of that command is the slack.
    exact = _u_p(Exact(mu), s, nu, ue)
    diff = exact - _u_p(MCPG(mu), s, nu)
    assert abs(diff) <= nu * nu * abs(ue) * (1.0 + 1e-9) + math.ulp(exact)


@given(states, st.floats(min_value=0.01, max_value=50.0),
       st.floats(min_value=0.0, max_value=0.95))
def test_mcpg_is_ppng_with_range_scheduled_gain(s, mu, nu):
    rn = math.hypot(
        s.pursuer.position.x - s.evader.position.x,
        s.pursuer.position.y - s.evader.position.y,
    )
    a = _u_p(MCPG(mu), s, nu)
    b = _u_p(PPNG(mu * rn), s, nu)
    assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_gain_records_reject_nonpositive_gains():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            MCPG(bad)
        with pytest.raises(ValueError):
            Exact(bad)
        with pytest.raises(ValueError):
            PPNG(bad)


def test_program_parameter_validation():
    with pytest.raises(ValueError):
        Constant(math.inf)
    with pytest.raises(ValueError):
        Sinusoid(amplitude=math.nan, angular_freq=1.0)
    with pytest.raises(ValueError):
        PiecewiseRandom(seed=1, dwell=0.0, u_max=0.5)
    with pytest.raises(ValueError):
        PiecewiseRandom(seed=1, dwell=1.0, u_max=-0.5)


@pytest.mark.parametrize("seed", [1.5, True])
def test_a_piecewise_random_seed_that_is_not_an_integer_is_rejected(seed):
    # 1.5 would fail inside random_level; True would be written back as
    # "True", which the scenario reader rejects.
    with pytest.raises(ValueError, match="seed must be an integer"):
        PiecewiseRandom(seed=seed, dwell=1.0, u_max=0.5)


def test_program_values_and_bounds():
    assert _u_e(Zero(), 3.7) == 0.0
    assert _u_e(Constant(-0.4), 100.0) == -0.4
    sine = Sinusoid(amplitude=0.3, angular_freq=2.0, phase=0.5)
    assert _u_e(sine, 1.25) == 0.3 * math.sin(2.0 * 1.25 + 0.5)
    assert Zero().max_abs_control() == 0.0
    assert Constant(-0.4).max_abs_control() == 0.4
    assert sine.max_abs_control() == 0.3
    assert PiecewiseRandom(seed=3, dwell=1.0, u_max=0.7).max_abs_control() == 0.7


# Reference outputs of the 64-bit mixer for the stream seeded at zero, from
# the published description of the generator.
SPLITMIX_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_mixer_matches_published_stream():
    got = tuple(_splitmix64((0 + (i + 1) * _GAMMA) & _MASK64) for i in range(3))
    assert got == SPLITMIX_SEED0


FROZEN_LEVELS = (
    (42, 0, 1.0, 0.48312975754364684),
    (42, 1, 1.0, -0.6801792142461598),
    (42, 2, 1.0, -0.44279773948972245),
    (7, 5, 0.25, -0.12528423885862833),
)


@pytest.mark.parametrize("seed,index,u_max,expected", FROZEN_LEVELS)
def test_random_levels_are_frozen(seed, index, u_max, expected):
    assert random_level(seed, index, u_max) == expected


@given(st.integers(min_value=0, max_value=2**63), st.integers(min_value=0, max_value=10_000))
def test_random_levels_stay_inside_the_bound(seed, index):
    v = random_level(seed, index, 0.8)
    assert -0.8 <= v < 0.8


def test_piecewise_random_holds_first_level_before_first_midpoint():
    prog = PiecewiseRandom(seed=11, dwell=0.5, u_max=0.3)
    first = random_level(11, 0, 0.3)
    for t in (0.0, 0.1, 0.2, 0.25):
        assert _u_e(prog, t) == first


def test_piecewise_random_interpolates_between_midpoints():
    prog = PiecewiseRandom(seed=11, dwell=0.5, u_max=0.3)
    v0 = random_level(11, 0, 0.3)
    v1 = random_level(11, 1, 0.3)
    # Midpoints sit at t = (k + 0.5) * dwell; halfway between them the value
    # is the average of the two levels.
    assert _u_e(prog, 0.25) == v0
    assert _u_e(prog, 0.75) == v1
    assert _u_e(prog, 0.5) == pytest.approx(0.5 * (v0 + v1), rel=1e-15)


@given(st.floats(min_value=0.0, max_value=500.0), st.floats(min_value=0.0, max_value=500.0))
@settings(max_examples=200)
def test_piecewise_random_is_continuous(t, dt_scale):
    prog = PiecewiseRandom(seed=5, dwell=1.3, u_max=0.6)
    eps = 1e-9
    a = _u_e(prog, t)
    b = _u_e(prog, t + eps)
    # Slope is bounded by 2*u_max/dwell, so nearby times give nearby values.
    assert abs(a - b) <= 2.0 * 0.6 / 1.3 * eps * 1.01 + 1e-15


def _reference_u_e(program, t):
    """u_e(t) written out from each program's definition, as a pure function of t."""
    if isinstance(program, Zero):
        return 0.0
    if isinstance(program, Constant):
        return program.c
    if isinstance(program, Sinusoid):
        return program.amplitude * math.sin(program.angular_freq * t + program.phase)
    m = t / program.dwell - 0.5
    k = math.floor(m)
    if k < 0:
        return random_level(program.seed, 0, program.u_max)
    v0 = random_level(program.seed, k, program.u_max)
    v1 = random_level(program.seed, k + 1, program.u_max)
    return v0 + (m - k) * (v1 - v0)


@given(st.floats(min_value=0.0, max_value=200.0))
def test_scalar_evader_closure_matches_pure_function(t):
    for prog in (
        Zero(),
        Constant(0.3),
        Sinusoid(amplitude=0.2, angular_freq=0.7, phase=1.0),
        PiecewiseRandom(seed=99, dwell=0.8, u_max=0.4),
    ):
        assert _u_e(prog, t) == _reference_u_e(prog, t)
        # A closure that has moved to other intervals gives the same values.
        closure = scalar_evader_control(prog)
        for u in (t + 7.0, 0.0, t):
            assert closure(u) == _reference_u_e(prog, u)


def test_piecewise_random_is_identical_across_processes():
    prog = PiecewiseRandom(seed=123456789, dwell=0.75, u_max=0.5)
    times = [0.0, 0.3, 1.7, 12.125, 400.5]
    local = [repr(_u_e(prog, t)) for t in times]
    code = (
        "from mcpursuit.guidance import PiecewiseRandom, scalar_evader_control\n"
        "prog = PiecewiseRandom(seed=123456789, dwell=0.75, u_max=0.5)\n"
        "for t in [0.0, 0.3, 1.7, 12.125, 400.5]:\n"
        "    print(repr(scalar_evader_control(prog)(t)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == local


@given(states, st.floats(min_value=0.05, max_value=0.95))
def test_scalar_adapters_agree_with_state_level_controls(s, nu):
    args = scalar_args(s, 0.25)
    _, px, py, _, cp, sp, ex, ey, _, ce, se, ue = args
    rx, ry, drx, dry = px - ex, py - ey, cp - nu * ce, sp - nu * se
    # Each law's formula, written out as the reference.
    rn = math.sqrt(rx * rx + ry * ry)
    mcpg = 3.0 * (rx * dry - ry * drx) / rn
    dpe = cp * ce + sp * se
    kernels = {
        MCPG(3.0): mcpg,
        Exact(3.0): mcpg + ((dpe - nu) / (1.0 - nu * dpe)) * (nu * nu) * ue,
        PPNG(4.0): 4.0 * (rx * dry - ry * drx) / (rx * rx + ry * ry),
    }
    for law, want in kernels.items():
        assert scalar_pursuer_control(law, nu)(*args) == want


def test_stability_cap_values():
    assert MCPG(20.0).stability_gain(0.05) == 20.0
    assert Exact(20.0).stability_gain(0.05) == 20.0
    assert PPNG(2.0).stability_gain(0.05) == 40.0
    assert stability_step_cap(MCPG(20.0), 0.9, 0.05) == 0.1 / (20.0 * 1.9)
    assert stability_step_cap(PPNG(2.0), 0.9, 0.05) == 0.1 / (40.0 * 1.9)
