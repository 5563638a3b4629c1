"""trajectory.csv written by a second process while the run integrates."""

import gc
import io
import os
import subprocess
import sys
import warnings
from array import array

import pytest

from mcpursuit import csvrows, scenario_io
from mcpursuit.cli import EXIT_IO, EXIT_NUMERICAL, EXIT_OK, main
from mcpursuit.scenario_io import (
    CSV_COLUMNS,
    RECORD_CHUNK,
    TERMINATION_NON_FINITE,
    TERMINATION_TIME_LIMIT,
    TrajectoryRecord,
    parse_scenario_with_overrides,
    write_trajectory_csv,
)
from mcpursuit.simulation import simulate

SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scenarios")


def _text(name):
    with open(os.path.join(SCENARIOS, f"{name}.txt"), encoding="utf-8") as f:
        return f.read()


@pytest.fixture
def spawned(monkeypatch):
    """Every process started through subprocess.Popen during the test."""
    procs = []
    real = subprocess.Popen

    class Recorded(real):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            procs.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    return procs


def _ppng_overrides(n):
    """Stride-1 overrides under which ppng_lateral records exactly n samples."""
    h = parse_scenario_with_overrides(_text("ppng_lateral"), {}).step_size
    return {"sample_stride": "1", "t_max": repr((n - 1) * h)}


def _run(name, overrides, out):
    argv = ["run", "--scenario", os.path.join(SCENARIOS, f"{name}.txt"), "--out", str(out)]
    for key, value in overrides.items():
        argv += ["--set", f"{key}={value}"]
    return main(argv)


def _reference_csv(name, overrides):
    record = simulate(parse_scenario_with_overrides(_text(name), overrides))
    sink = io.StringIO()
    write_trajectory_csv(record, sink)
    return record, sink.getvalue().encode("ascii")


def _read(path):
    with open(path, "rb") as f:
        return f.read()


def _worker_expected(n):
    return n >= RECORD_CHUNK and scenario_io._usable_cpus() > 1


@pytest.mark.parametrize("n", [RECORD_CHUNK - 1, RECORD_CHUNK, 2 * RECORD_CHUNK + 3])
def test_run_csv_matches_the_in_process_writer(n, tmp_path, spawned, capsys):
    overrides = _ppng_overrides(n)
    assert _run("ppng_lateral", overrides, tmp_path) == EXIT_OK
    record, want = _reference_csv("ppng_lateral", overrides)
    assert record.n_samples == n
    assert _read(tmp_path / "trajectory.csv") == want
    assert len(spawned) == _worker_expected(n)
    assert all(p.returncode == 0 for p in spawned)
    capsys.readouterr()


def test_non_finite_run_csv_matches_the_in_process_writer(tmp_path, spawned, capsys):
    # An evader turn rate near the largest double overflows the RK4 sum once
    # |sin| passes about 0.3, some 6,000 steps into this run.
    overrides = {
        "evader_program.amplitude": "1e308",
        "evader_program.angular_freq": "0.02",
        "evader_program.phase": "0",
        "pursuer_init.x": "30",
        "sample_stride": "1",
        "t_max": "30",
    }
    assert _run("sine_weave", overrides, tmp_path) == EXIT_NUMERICAL
    record, want = _reference_csv("sine_weave", overrides)
    assert record.termination == TERMINATION_NON_FINITE
    assert RECORD_CHUNK < record.n_samples < 2 * RECORD_CHUNK
    assert _read(tmp_path / "trajectory.csv") == want
    assert len(spawned) == _worker_expected(record.n_samples)
    capsys.readouterr()


def test_one_cpu_writes_the_csv_in_process(tmp_path, spawned, monkeypatch, capsys):
    monkeypatch.setattr(scenario_io, "_usable_cpus", lambda: 1)
    overrides = _ppng_overrides(2 * RECORD_CHUNK + 3)
    assert _run("ppng_lateral", overrides, tmp_path) == EXIT_OK
    assert _read(tmp_path / "trajectory.csv") == _reference_csv("ppng_lateral", overrides)[1]
    assert spawned == []
    capsys.readouterr()


def test_a_writer_that_cannot_start_falls_back_in_process(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(scenario_io, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(scenario_io, "_writer_argv",
                        lambda data: [str(tmp_path / "no-such-interpreter"), data])
    overrides = _ppng_overrides(RECORD_CHUNK + 1)
    assert _run("ppng_lateral", overrides, tmp_path / "out") == EXIT_OK
    want = _reference_csv("ppng_lateral", overrides)[1]
    assert _read(tmp_path / "out" / "trajectory.csv") == want
    capsys.readouterr()


def _fails_cleanly(run, capsys, spawned):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run()
        gc.collect()
    err = capsys.readouterr().err
    assert code == EXIT_IO
    assert "Traceback" not in err
    assert all(p.returncode is not None for p in spawned)
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    return err


def test_a_failing_writer_exits_5_and_leaves_no_csv(tmp_path, spawned, monkeypatch, capsys):
    monkeypatch.setattr(scenario_io, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(scenario_io, "_writer_argv",
                        lambda data: [sys.executable, "-c", "import sys; sys.exit(3)"])
    overrides = _ppng_overrides(2 * RECORD_CHUNK + 3)
    err = _fails_cleanly(lambda: _run("ppng_lateral", overrides, tmp_path), capsys, spawned)
    assert "trajectory.csv" in err and "status 3" in err
    assert len(spawned) == 1
    assert not os.path.exists(tmp_path / "trajectory.csv")


def test_an_output_path_that_is_a_file_exits_5(tmp_path, spawned, capsys):
    out = tmp_path / "taken"
    out.write_text("", encoding="utf-8")
    overrides = _ppng_overrides(RECORD_CHUNK + 1)
    _fails_cleanly(lambda: _run("ppng_lateral", overrides, out), capsys, spawned)
    assert spawned == []


def test_a_failure_after_the_run_kills_the_writer(tmp_path, spawned, monkeypatch, capsys):
    # summary.json cannot be written while the writer is still formatting.
    monkeypatch.setattr(scenario_io, "_usable_cpus", lambda: 2)
    os.makedirs(tmp_path / "summary.json")
    overrides = _ppng_overrides(2 * RECORD_CHUNK + 3)
    _fails_cleanly(lambda: _run("ppng_lateral", overrides, tmp_path), capsys, spawned)
    assert len(spawned) == 1
    assert not os.path.exists(tmp_path / "trajectory.csv")


def _chunk_file(path, columns):
    with open(path, "wb") as f:
        for column in columns:
            f.write(array("d", column).tobytes())


def test_the_writer_script_runs_alone_and_matches_the_in_process_rows(tmp_path):
    values = [[0.1 * k + j for k in range(3)] for j in range(len(CSV_COLUMNS))]
    values[3] = [5e-324, -0.0, -1e308]
    values[4] = [1.0 / 3.0, 123456.789012345678, 2.0]
    data = tmp_path / "chunk.f64"
    _chunk_file(data, values)
    done = subprocess.run(
        [sys.executable, "-I", "-S", csvrows.__file__, str(data)],
        input=(3).to_bytes(csvrows.COUNT_BYTES, sys.byteorder),
        capture_output=True,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    record = TrajectoryRecord(
        scenario=parse_scenario_with_overrides(_text("straight_chase"), {}),
        termination=TERMINATION_TIME_LIMIT,
        **{name: array("d", column) for name, column in zip(CSV_COLUMNS, values)},
    )
    sink = io.StringIO()
    write_trajectory_csv(record, sink)
    assert sink.getvalue().encode("ascii") == csvrows.CSV_HEADER.encode("ascii") + done.stdout


def test_the_writer_script_fails_on_a_short_chunk(tmp_path):
    data = tmp_path / "chunk.f64"
    _chunk_file(data, [[1.0, 2.0]] * len(CSV_COLUMNS))
    done = subprocess.run(
        [sys.executable, "-I", "-S", csvrows.__file__, str(data)],
        input=(3).to_bytes(csvrows.COUNT_BYTES, sys.byteorder),
        capture_output=True,
        check=False,
    )
    assert done.returncode != 0
    assert b"cut short" in done.stderr
