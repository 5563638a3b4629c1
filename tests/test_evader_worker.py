"""A long strided run integrates its evader in a forked worker.

Every test compares a run that forks with the same run in process, column
for column and bit for bit. The start point and the worker's chunk size are
lowered so that short runs cross them.
"""

import gc
import math
import os
import signal
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import ClassVar
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Linear, Ramp, Steer, Switch
from mcpursuit import scenario_io, simulation
from mcpursuit.cli import main
from mcpursuit.dynamics import ParticleState
from mcpursuit.geometry import PlanarVector
from mcpursuit.guidance import MCPG, PPNG, Constant, Exact, PiecewiseRandom, Sinusoid, Zero
from mcpursuit.scenario_io import (
    CSV_COLUMNS,
    TERMINATION_CAPTURE,
    TERMINATION_NON_FINITE,
    TERMINATION_TIME_LIMIT,
    build_scenario,
)

SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scenarios")


def _state(x, y, heading):
    return ParticleState(PlanarVector(x, y), heading)


def _scenario(**kwargs):
    defaults = dict(nu=0.5, pursuer_init=_state(5.0, 0.0, math.pi / 2.0),
                    evader_init=_state(0.0, 0.0, 0.0), pursuer_law=MCPG(2.0),
                    step_size=0.005, t_max=1.0, sample_stride=5)
    defaults.update(kwargs)
    return build_scenario(**defaults)


@contextmanager
def _split(after, chunk=scenario_io.RECORD_CHUNK, cpus=2):
    """The pids of the workers started, with the start point, the chunk size
    (rows per pipe write and samples per record chunk) and the CPU count set."""
    forks = []
    real = scenario_io._fork

    def fork(keep, body):
        pid = real(keep, body)
        if pid and len(keep) == 1:  # the worker keeps its pipe, the CSV writer four
            forks.append(pid)
        return pid

    with mock.patch.object(simulation, "_SPLIT_AFTER", after), \
            mock.patch.object(simulation, "RECORD_CHUNK", chunk), \
            mock.patch.object(scenario_io, "_usable_cpus", lambda: cpus), \
            mock.patch.object(scenario_io, "_fork", fork):
        yield forks


def _in_process(config):
    with _split(math.inf) as forks:
        record = simulation.simulate(config)
    assert not forks
    return record


def _assert_same_record(got, want):
    assert got.termination == want.termination
    for name in CSV_COLUMNS:
        assert [v.hex() for v in getattr(got, name)] == [v.hex() for v in getattr(want, name)], name


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((MCPG(3.0), Exact(3.0), PPNG(0.5), Steer(0.7, t_off=0.5, after=-0.4),
                        Linear(0.3, 0.1))),
       st.sampled_from((Zero(), Constant(0.4), Sinusoid(amplitude=0.5, angular_freq=2.0),
                        PiecewiseRandom(seed=3, dwell=0.2, u_max=0.6), Ramp(0.5))),
       st.integers(min_value=2, max_value=25),
       st.integers(min_value=0, max_value=60) | st.integers(min_value=198, max_value=202),
       st.integers(min_value=1, max_value=50),
       st.floats(min_value=0.3, max_value=3.0), st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=0.0, max_value=0.9))
def test_a_split_run_is_bitwise_the_in_process_run(law, program, stride, after, chunk, x, pth,
                                                   eth, nu):
    config = _scenario(nu=nu, pursuer_init=_state(x, 0.2, pth), evader_init=_state(0.0, 0.0, eth),
                       pursuer_law=law, evader_program=program, sample_stride=stride)
    steps = []
    real = simulation.rk4_step_scalars

    def step(*args):
        state = real(*args)
        steps.append(state)
        return state

    with _split(after, chunk) as forks, mock.patch.object(simulation, "rk4_step_scalars", step):
        record = simulation.simulate(config)
    _assert_same_record(record, _in_process(config))
    # The worker forks when the run's first step completes, if the stride is
    # above 1 and the step budget reaches the start point.
    budget = math.ceil(config.t_max / config.step_size)
    assert len(forks) == (stride > 1 and budget >= after and bool(steps))
    _assert_no_children()


@pytest.mark.parametrize("stride, termination, samples, forked", [
    (5, TERMINATION_CAPTURE, 8, 1),  # 35 steps taken, 200 budgeted
    (400, TERMINATION_TIME_LIMIT, 1, 0),  # the initial sample is the last
])
def test_the_step_budget_not_the_steps_taken_decides(stride, termination, samples, forked):
    config = _scenario(pursuer_init=_state(0.3, 0.0, math.pi), pursuer_law=MCPG(3.0),
                       sample_stride=stride)
    with _split(60) as forks:
        record = simulation.simulate(config)
    assert (record.termination, record.n_samples, len(forks)) == (termination, samples, forked)
    _assert_same_record(record, _in_process(config))
    _assert_no_children()


def test_a_zero_baseline_inside_a_streamed_stretch_ends_the_run_as_capture():
    # Straight at a still evader 5 away: stage 4 of step 19 lands on it, in
    # the third stride; the worker starts at the second sample.
    config = _scenario(nu=0.0, pursuer_init=_state(0.0, 0.0, 0.0), evader_init=_state(5.0, 0.0, 0.0),
                       pursuer_law=MCPG(0.1), step_size=0.25, t_max=20.0, capture_radius=0.01,
                       sample_stride=8)
    with _split(8) as forks:
        record = simulation.simulate(config)
    assert len(forks) == 1
    assert record.termination == TERMINATION_CAPTURE
    assert list(record.t) == [0.0, 2.0, 4.0]
    _assert_same_record(record, _in_process(config))


def test_an_infinite_pursuer_command_inside_a_streamed_stretch_ends_the_run_as_non_finite():
    # The command turns infinite at t = 0.62, inside the stretch after the
    # sample at 0.6.
    config = _scenario(pursuer_law=Steer(0.0, t_off=0.62, after=math.inf), sample_stride=10)
    with _split(20) as forks:
        record = simulation.simulate(config)
    assert len(forks) == 1
    assert record.termination == TERMINATION_NON_FINITE
    assert record.t[-1] == pytest.approx(0.6)
    _assert_same_record(record, _in_process(config))


@pytest.mark.parametrize("after", [math.inf, math.nan])
def test_an_evader_that_goes_non_finite_ends_the_stream_short(after):
    # After t = 0.62, inside the stretch after the sample at 0.6, the evader's
    # command is ``after``. An infinite heading raises in the worker, whose
    # stream then ends; that stretch runs again in process and raises there
    # too. A NaN raises nowhere: the stream goes on, and the state at the
    # next sample is not finite.
    config = _scenario(evader_program=Switch(0.0, t_off=0.62, after=after), sample_stride=10)
    calls = []
    real = simulation.rk4_loop

    def loop(law_class):
        run = real(law_class)

        def recorded(law, k, n, *args):
            calls.append(k)
            return run(law, k, n, *args)

        return recorded

    with _split(20) as forks, mock.patch.object(simulation, "rk4_loop", loop):
        record = simulation.simulate(config)
    assert len(forks) == 1
    assert record.termination == TERMINATION_NON_FINITE
    assert record.t[-1] == pytest.approx(0.6)
    # Before the start point each stretch runs in process; after it, only
    # the stretch in which the stream ended short.
    assert [k for k in calls if k > 20] == ([121] if math.isinf(after) else [])
    _assert_same_record(record, _in_process(config))


@dataclass(frozen=True)
class Doomed:
    """u_e = 0.3 sin(t); a worker process that calls it at t >= t_kill kills itself."""

    variant: ClassVar[str] = "doomed"
    parent: int
    t_kill: float

    def max_abs_control(self):
        return 0.3

    def scalar_control(self):
        parent, t_kill = self.parent, self.t_kill

        def control(t):
            if t >= t_kill and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return 0.3 * math.sin(t)

        return control


@pytest.mark.parametrize("chunk", [1, 7, 1024])
def test_a_worker_killed_mid_run_gives_the_same_record(chunk):
    config = _scenario(evader_program=Doomed(os.getpid(), 0.6), t_max=2.0, sample_stride=6)
    with _split(12, chunk) as forks:
        record = simulation.simulate(config)
    assert len(forks) == 1
    assert record.termination == TERMINATION_TIME_LIMIT
    _assert_same_record(record, _in_process(config))
    _assert_no_children()


def test_the_worker_keeps_only_its_pipe_open(tmp_path):
    if not os.path.isdir(f"/proc/{os.getpid()}/fd"):
        pytest.skip("needs /proc/<pid>/fd")
    # A file open in the parent, like the CSV writer's pipe during a run.
    # The worker's rows outgrow its pipe, so it is still writing at the
    # first chunk of samples after it starts.
    held = open(tmp_path / "held", "wb")
    config = _scenario(t_max=50.0, sample_stride=2)
    seen = []

    def on_chunk(record):
        if forks and not seen:
            seen.append(os.listdir(f"/proc/{forks[0]}/fd"))

    try:
        with _split(16) as forks, mock.patch.object(simulation, "RECORD_CHUNK", 32):
            simulation.simulate(config, on_chunk=on_chunk)
    finally:
        held.close()
    assert len(forks) == 1
    assert len(seen) == 1 and len(seen[0]) == 1


@pytest.mark.parametrize("why", ["one CPU", "no fork", "fork fails", "a second thread",
                                 "stride 1"])
def test_runs_that_may_not_fork_stay_in_process(why, monkeypatch):
    config = _scenario(sample_stride=1 if why == "stride 1" else 5)
    want = _in_process(config)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    refused = mock.Mock(side_effect=OSError("fork refused"))
    fds = f"/proc/{os.getpid()}/fd"
    before = sorted(os.listdir(fds)) if os.path.isdir(fds) else None
    with _split(10, cpus=1 if why == "one CPU" else 2) as forks:
        if why == "no fork":
            monkeypatch.delattr(os, "fork")
        if why == "fork fails":
            monkeypatch.setattr(os, "fork", refused)
        if why == "a second thread":
            thread.start()
        try:
            record = simulation.simulate(config)
        finally:
            done.set()
            if thread.ident is not None:
                thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert not forks
    assert refused.call_count == (why == "fork fails")
    _assert_same_record(record, want)
    _assert_no_children()
    if before is not None:
        assert sorted(os.listdir(fds)) == before


def test_certify_verify_leaves_no_child_and_no_open_file(tmp_path):
    # The worker forks at the first stretch, before the CSV writer starts
    # (RECORD_CHUNK samples of stride 20); the budget, about 627,000 steps,
    # is past the start point.
    argv = ["certify", "--verify", "--scenario", os.path.join(SCENARIOS, "random_weave.txt"),
            "--out", str(tmp_path)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with _split(100_000) as forks:
            assert main(argv) == 0
        gc.collect()
    assert len(forks) == 1
    _assert_no_children()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
