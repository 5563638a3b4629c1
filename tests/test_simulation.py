"""Engagement loop behavior: sampling and termination, under shipped and test-only records."""

import collections
import dataclasses
import math
import tracemalloc
from dataclasses import dataclass
from typing import ClassVar

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Steer, Switch, state_at
from mcpursuit import scenario_io, simulation
from mcpursuit.dynamics import ParticleState
from mcpursuit.errors import ValidationError
from mcpursuit.geometry import PlanarVector
from mcpursuit.guidance import MCPG, PPNG, Constant, Exact, PiecewiseRandom, Sinusoid, Zero, _Law
from mcpursuit.metrics import compute_metrics
from mcpursuit.scenario_io import (
    CSV_COLUMNS,
    RECORD_CHUNK,
    TERMINATION_CAPTURE,
    TERMINATION_NON_FINITE,
    TERMINATION_TIME_LIMIT,
    build_scenario,
)
from mcpursuit.simulation import simulate


@dataclass(frozen=True)
class Reciprocal:
    """u_e = 1 / t, which divides by zero at t = 0."""

    variant: ClassVar[str] = "reciprocal"

    def max_abs_control(self):
        return 0.0  # unbounded; validation only asks for a finite number

    def scalar_control(self):
        return lambda t: 1.0 / t


@dataclass(frozen=True)
class Late(_Law):
    """u_p = g * sqrt(t - 1), which raises ValueError before t = 1."""

    variant: ClassVar[str] = "late"
    kernel: ClassVar[str] = "g * sqrt(t - 1.0)"
    g: float


def _state(x, y, heading):
    return ParticleState(PlanarVector(x, y), heading)


def _scenario(**kwargs):
    defaults = dict(
        nu=0.5,
        pursuer_init=_state(5.0, 0.0, math.pi / 2.0),
        evader_init=_state(0.0, 0.0, 0.0),
        pursuer_law=MCPG(2.0),
        step_size=0.01,
        t_max=1.0,
    )
    defaults.update(kwargs)
    return build_scenario(**defaults)


def test_initial_collision_is_rejected():
    with pytest.raises(ValidationError):
        dataclasses.replace(_scenario(), pursuer_init=_scenario().evader_init)


def test_head_on_run_captures_at_the_closing_speed():
    # Pursuer runs left at speed 1, evader runs right at 0.1: the 0.2 gap
    # closes at 0.9 per unit time down to the 0.05 capture radius.
    config = _scenario(
        nu=0.1,
        pursuer_init=_state(0.2, 0.0, math.pi),
        evader_init=_state(0.0, 0.0, math.pi),
        pursuer_law=Steer(0.0),
        step_size=0.001,
        t_max=4.0,
    )
    record = simulate(config)
    assert record.termination == TERMINATION_CAPTURE
    expected = (0.2 - 0.05) / 0.9
    assert record.capture_time == pytest.approx(expected, abs=config.step_size)
    assert record.r_norm[-1] <= config.capture_radius
    assert record.capture_time == record.t[-1]


def test_sample_count_with_exact_binary_step():
    config = _scenario(step_size=0.125, t_max=1.0, pursuer_law=MCPG(0.1))
    record = simulate(config)
    assert record.termination == TERMINATION_TIME_LIMIT
    assert record.n_samples == 9
    assert list(record.t) == [0.125 * i for i in range(9)]
    assert record.t[-1] == 1.0


def test_stride_samples_every_nth_step():
    config = _scenario(step_size=0.125, t_max=1.0, sample_stride=4, pursuer_law=MCPG(0.1))
    record = simulate(config)
    assert list(record.t) == [0.0, 0.5, 1.0]
    dense = simulate(_scenario(step_size=0.125, t_max=1.0, pursuer_law=MCPG(0.1)))
    assert record.px[1] == dense.px[4]
    assert record.gamma[2] == dense.gamma[8]


def test_zero_control_override_runs_straight():
    config = _scenario(t_max=2.0, pursuer_law=Steer(0.0))
    record = simulate(config)
    for t, x, y in zip(record.t, record.px, record.py):
        assert x == pytest.approx(5.0 + t * math.cos(math.pi / 2.0), abs=1e-9)
        assert y == pytest.approx(t, rel=1e-12, abs=1e-12)
    assert all(u == 0.0 for u in record.u_p)


def test_evader_override_is_recorded_and_steers():
    config = _scenario(t_max=0.5, evader_program=Switch(0.75))
    record = simulate(config)
    assert all(u == 0.75 for u in record.u_e)
    reference = simulate(_scenario(t_max=0.5, evader_program=Constant(0.75)))
    assert record.etheta == reference.etheta
    assert record.ex == reference.ex


def test_non_finite_control_stops_the_run_before_recording_garbage():
    config = _scenario(t_max=1.0, pursuer_law=Steer(0.0, t_off=0.1, after=math.inf))
    record = simulate(config)
    assert record.termination == TERMINATION_NON_FINITE
    assert record.n_samples >= 1
    assert all(math.isfinite(u) for u in record.u_p)
    assert all(math.isfinite(x) for x in record.px)


def test_configured_run_matches_recorded_controls():
    config = _scenario(
        t_max=0.5,
        evader_program=Sinusoid(amplitude=0.3, angular_freq=2.0, phase=0.1),
    )
    record = simulate(config)
    for t, ue in zip(record.t, record.u_e):
        assert ue == pytest.approx(0.3 * math.sin(2.0 * t + 0.1), rel=1e-12, abs=1e-15)


def test_time_limit_is_exclusive_of_later_samples():
    # t_max that is not a sample instant: the run stops at the last sample
    # at or before it, within half a sample interval.
    config = _scenario(step_size=0.125, t_max=0.9, pursuer_law=MCPG(0.1))
    record = simulate(config)
    assert record.termination == TERMINATION_TIME_LIMIT
    assert record.t[-1] == pytest.approx(0.875, abs=1e-12)


def test_termination_constants_round_trip_through_records():
    record = simulate(_scenario(t_max=0.25, pursuer_law=MCPG(0.1)))
    assert record.termination in {
        TERMINATION_CAPTURE,
        TERMINATION_TIME_LIMIT,
        TERMINATION_NON_FINITE,
    }
    assert record.scenario.t_max == 0.25
    assert record.capture_time is None


def test_metric_columns_match_recomputation():
    config = _scenario(t_max=0.5, evader_program=Constant(0.4))
    record = simulate(config)
    for i in range(record.n_samples):
        m = compute_metrics(state_at(record, i), config.nu)
        assert record.gamma[i] == m.gamma
        assert record.w[i] == m.w_signed
        assert record.r_norm[i] == m.baseline_len
        assert record.los_rate[i] == m.los_rate
        assert record.residual[i] == m.residual


def _column_lengths(record):
    return {len(getattr(record, name)) for name in CSV_COLUMNS}


@pytest.mark.parametrize("n", [RECORD_CHUNK, 2 * RECORD_CHUNK + 3])
def test_packed_columns_stay_aligned_across_chunks(n):
    h = 2.0 ** -10
    record = simulate(_scenario(step_size=h, t_max=(n - 1) * h, pursuer_law=MCPG(0.1)))
    assert record.termination == TERMINATION_TIME_LIMIT
    assert _column_lengths(record) == {n}
    assert all(record.t[i] == i * h for i in range(n))


def test_capture_exit_keeps_the_last_partial_chunk():
    config = _scenario(
        nu=0.1,
        pursuer_init=_state(4.0, 0.0, math.pi),
        evader_init=_state(0.0, 0.0, math.pi),
        pursuer_law=Steer(0.0),
        step_size=0.001,
        t_max=10.0,
    )
    record = simulate(config)
    assert record.termination == TERMINATION_CAPTURE
    assert record.n_samples % RECORD_CHUNK and record.n_samples > RECORD_CHUNK
    assert _column_lengths(record) == {record.n_samples}
    assert record.r_norm[-1] <= config.capture_radius < record.r_norm[-2]


def test_non_finite_exit_keeps_the_last_partial_chunk():
    h = 2.0 ** -7
    last = RECORD_CHUNK + 904
    config = _scenario(step_size=h, t_max=2.0 * last * h,
                       pursuer_law=Steer(0.0, t_off=last * h, after=math.inf))
    record = simulate(config)
    assert record.termination == TERMINATION_NON_FINITE
    assert _column_lengths(record) == {last + 1}
    assert record.t[-1] == last * h


@pytest.mark.parametrize("split", [False, True], ids=["in_process", "forked_worker"])
def test_recorded_samples_are_packed(split, monkeypatch):
    # 14 columns of 8-byte doubles are 112 bytes per sample; a record of
    # float objects in lists would keep about 430. Tracing slows the run
    # about thirtyfold, so each record is kept short: two or three chunks,
    # the last one partial. Beyond what it keeps, the run holds one chunk of packed
    # samples (112 KB at 1,024 samples) and, when its evader runs in a
    # worker, one chunk of the worker's rows (139 KB); the untraced run first
    # fills the code caches, so that their memory is not charged to the
    # traced one.
    h = 2.0 ** -10
    if split:
        if not scenario_io._can_fork():
            pytest.skip("needs fork, two usable CPUs and no other thread")
        # A budget of _SPLIT_AFTER steps at stride 2 streams the evader from
        # a worker; the run captures at sample 1,831, well before its t_max.
        config = _scenario(step_size=h, t_max=simulation._SPLIT_AFTER * h, sample_stride=2)
        n, bound = 1831, 0.3e6
    else:
        n, bound = 2 * RECORD_CHUNK + 3, 0.2e6
        config = _scenario(step_size=h, t_max=(n - 1) * h, pursuer_law=MCPG(0.1))
    forks = []
    real = scenario_io._fork

    def fork(keep, body):
        forks.append(real(keep, body))
        return forks[-1]

    monkeypatch.setattr(scenario_io, "_fork", fork)
    simulate(config)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        record = simulate(config)
        after, peak = tracemalloc.get_traced_memory()
        kept = after - before
    finally:
        tracemalloc.stop()
    assert record.n_samples == n
    assert len(forks) == 2 * split
    assert kept / n <= 130.0
    assert peak - after <= bound


_GAINS = (MCPG(0.1), Exact(0.1), PPNG(0.001))


@pytest.mark.parametrize("law", _GAINS, ids=lambda law: law.variant)
def test_a_zero_baseline_between_samples_ends_the_run_as_capture(law):
    # Straight at a still evader 1 away: stage 4 of step 3 lands exactly on
    # it, inside the unsampled steps of the first stride.
    config = _scenario(nu=0.0, pursuer_init=_state(0.0, 0.0, 0.0),
                       evader_init=_state(1.0, 0.0, 0.0), pursuer_law=law,
                       step_size=0.25, t_max=10.0, capture_radius=0.01)
    dense = simulate(config)
    coarse = simulate(dataclasses.replace(config, sample_stride=8))
    assert dense.termination == coarse.termination == TERMINATION_CAPTURE
    assert list(dense.t) == [0.0, 0.25, 0.5, 0.75]
    assert list(coarse.t) == [0.0]


def test_an_infinite_heading_between_samples_ends_the_run_as_non_finite():
    # An infinite turn rate makes the evader heading infinite at the next stage.
    config = _scenario(step_size=0.02, t_max=5.0, sample_stride=20,
                       evader_program=Switch(0.0, t_off=0.1, after=math.inf))
    record = simulate(config)
    assert record.termination == TERMINATION_NON_FINITE
    assert list(record.t) == [0.0]


def test_a_baseline_length_that_overflows_ends_the_run_as_non_finite():
    # One step of 1e297 leaves both states finite but some 1e297 apart on
    # each axis, so the squared baseline length overflows.
    config = _scenario(pursuer_law=MCPG(1e-300), step_size=1e297, t_max=1e298)
    record = simulate(config)
    assert record.termination == TERMINATION_NON_FINITE
    assert list(record.t) == [0.0]
    assert all(math.isfinite(v) for v in record.r_norm)


@pytest.mark.parametrize("changes", [dict(evader_program=Reciprocal()),
                                     dict(pursuer_law=Late(1.0))], ids=["program", "law"])
def test_a_control_that_raises_at_a_sample_ends_the_run_as_non_finite(changes):
    # The same error inside a step already ended the run this way.
    record = simulate(_scenario(**changes))
    assert record.termination == TERMINATION_NON_FINITE
    assert record.n_samples == 0


def test_simulate_calls_the_hooks_the_benchmark_counts(monkeypatch):
    # bench/layers.py counts steps and control calls by patching these names
    # on the simulation module, which simulate looks up each time it is called.
    calls = collections.Counter()

    def counted(name):
        real = getattr(simulation, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(simulation, name, wrapper)

    for name in ("rk4_step_scalars", "scalar_pursuer_control", "scalar_evader_control"):
        counted(name)
    h = 0.125
    record = simulate(_scenario(step_size=h, t_max=27 * h, sample_stride=3, pursuer_law=MCPG(0.1)))
    assert record.termination == TERMINATION_TIME_LIMIT
    assert record.n_samples == 10
    assert calls == {"rk4_step_scalars": 9, "scalar_pursuer_control": 1, "scalar_evader_control": 1}


@settings(max_examples=25, deadline=None)
@given(st.sampled_from((MCPG(3.0), Exact(3.0), PPNG(0.5), Steer(0.7, t_off=0.5, after=-0.4))),
       st.sampled_from((Zero(), Constant(0.4), Sinusoid(amplitude=0.5, angular_freq=2.0),
                        PiecewiseRandom(seed=3, dwell=0.2, u_max=0.6))),
       st.integers(min_value=2, max_value=9),
       st.floats(min_value=0.3, max_value=3.0), st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=0.0, max_value=0.9))
def test_a_strided_record_is_every_stride_th_row_of_the_dense_one(law, program, stride, x, pth,
                                                                  eth, nu):
    config = _scenario(nu=nu, pursuer_init=_state(x, 0.2, pth), evader_init=_state(0.0, 0.0, eth),
                       pursuer_law=law, evader_program=program, step_size=None, t_max=1.0)
    dense = simulate(config)
    coarse = simulate(dataclasses.replace(config, sample_stride=stride))
    rows = min(coarse.n_samples, -(-dense.n_samples // stride))
    assert rows >= 1
    for name in CSV_COLUMNS:
        want = getattr(dense, name)[::stride][:rows]
        assert [v.hex() for v in getattr(coarse, name)[:rows]] == [v.hex() for v in want]
