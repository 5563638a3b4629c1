"""trajectory.csv written by a forked child while the run integrates."""

import gc
import io
import os
import subprocess
import sys
import threading
import time
import warnings
from array import array

import pytest

from mcpursuit import scenario_io, simulation
from mcpursuit.cli import EXIT_IO, EXIT_NUMERICAL, EXIT_OK, main
from mcpursuit.scenario_io import (
    COUNT_BYTES,
    CSV_COLUMNS,
    CSV_HEADER,
    RECORD_CHUNK,
    SAMPLE,
    TERMINATION_NON_FINITE,
    TERMINATION_TIME_LIMIT,
    TrajectoryCsvStream,
    TrajectoryRecord,
    parse_scenario_with_overrides,
    write_trajectory_csv,
)
from mcpursuit.simulation import simulate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIOS = os.path.join(ROOT, "scenarios")


def _text(name):
    with open(os.path.join(SCENARIOS, f"{name}.txt"), encoding="utf-8") as f:
        return f.read()


@pytest.fixture
def spawned(monkeypatch):
    """The pid of every child forked during the test."""
    pids = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _ppng_overrides(n, stride=1):
    """Overrides under which ppng_lateral records exactly n samples."""
    h = parse_scenario_with_overrides(_text("ppng_lateral"), {}).step_size
    return {"sample_stride": str(stride), "t_max": repr((n - 1) * stride * h)}


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


@pytest.mark.parametrize("n", [RECORD_CHUNK - 1, RECORD_CHUNK, 2 * RECORD_CHUNK + 3])
def test_run_csv_matches_the_in_process_writer(n, tmp_path, spawned, capsys):
    overrides = _ppng_overrides(n)
    assert _run("ppng_lateral", overrides, tmp_path) == EXIT_OK
    record, want = _reference_csv("ppng_lateral", overrides)
    assert record.n_samples == n
    assert _read(tmp_path / "trajectory.csv") == want
    assert len(spawned) == scenario_io._can_fork()
    _assert_reaped(spawned)
    assert sorted(os.listdir(tmp_path)) == ["summary.json", "trajectory.csv"]
    capsys.readouterr()


def test_non_finite_run_csv_matches_the_in_process_writer(tmp_path, spawned, capsys):
    # An evader turn rate near the largest double overflows the RK4 sum once
    # |sin| passes about 0.3, at step 6,360 of this run's 10,000, which stride
    # 4 records as sample 1,590, inside the second chunk. The budget is under
    # simulation._SPLIT_AFTER, so no evader worker forks.
    overrides = {
        "evader_program.amplitude": "1e308",
        "evader_program.angular_freq": "0.02",
        "evader_program.phase": "0",
        "pursuer_init.x": "30",
        "sample_stride": "4",
        "t_max": "30",
    }
    assert _run("sine_weave", overrides, tmp_path) == EXIT_NUMERICAL
    record, want = _reference_csv("sine_weave", overrides)
    assert record.termination == TERMINATION_NON_FINITE
    assert RECORD_CHUNK < record.n_samples < 2 * RECORD_CHUNK
    assert _read(tmp_path / "trajectory.csv") == want
    assert len(spawned) == scenario_io._can_fork()
    _assert_reaped(spawned)
    capsys.readouterr()


def test_one_cpu_writes_the_csv_in_process(tmp_path, spawned, monkeypatch, capsys):
    monkeypatch.setattr(scenario_io, "_usable_cpus", lambda: 1)
    overrides = _ppng_overrides(2 * RECORD_CHUNK + 3)
    assert _run("ppng_lateral", overrides, tmp_path) == EXIT_OK
    assert _read(tmp_path / "trajectory.csv") == _reference_csv("ppng_lateral", overrides)[1]
    assert spawned == []
    capsys.readouterr()


def test_a_threaded_caller_writes_the_csv_in_process(tmp_path, spawned, monkeypatch, capsys):
    # A fork copies only the forking thread, so a process running two forks nothing.
    monkeypatch.setattr(scenario_io, "_usable_cpus", lambda: 2)
    overrides = _ppng_overrides(RECORD_CHUNK + 1)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        assert _run("ppng_lateral", overrides, tmp_path) == EXIT_OK
    finally:
        done.set()
        thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert spawned == []
    assert _read(tmp_path / "trajectory.csv") == _reference_csv("ppng_lateral", overrides)[1]
    capsys.readouterr()


def test_a_writer_that_cannot_start_falls_back_in_process(tmp_path, monkeypatch, capsys):
    def fork():
        raise OSError("no more processes")

    monkeypatch.setattr(scenario_io, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", fork)
    overrides = _ppng_overrides(RECORD_CHUNK + 1)
    assert _run("ppng_lateral", overrides, tmp_path / "out") == EXIT_OK
    want = _reference_csv("ppng_lateral", overrides)[1]
    assert _read(tmp_path / "out" / "trajectory.csv") == want
    assert sorted(os.listdir(tmp_path / "out")) == ["summary.json", "trajectory.csv"]
    capsys.readouterr()


def _fails_cleanly(run, capture, spawned):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run()
        gc.collect()
    err = capture.readouterr().err
    assert code == EXIT_IO
    assert "Traceback" not in err
    _assert_reaped(spawned)
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    return err


def test_a_failing_writer_exits_5_and_leaves_no_csv(tmp_path, spawned, monkeypatch, capfd):
    # The child's row loop raises at its first chunk; the main process's
    # rows are not formatted on this path.
    def lines(rows):
        raise ValueError("injected row failure")

    monkeypatch.setattr(scenario_io, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(scenario_io, "_csv_lines", lines)
    overrides = _ppng_overrides(2 * RECORD_CHUNK + 3)
    err = _fails_cleanly(lambda: _run("ppng_lateral", overrides, tmp_path), capfd, spawned)
    assert "trajectory.csv" in err and "status 1" in err
    assert err.count("injected row failure") == 1
    assert len(spawned) == 1
    assert sorted(os.listdir(tmp_path)) == ["summary.json"]


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
    assert sorted(os.listdir(tmp_path)) == ["summary.json"]


def _record(columns):
    return TrajectoryRecord(
        scenario=parse_scenario_with_overrides(_text("straight_chase"), {}),
        termination=TERMINATION_TIME_LIMIT,
        **{name: array("d", column) for name, column in zip(CSV_COLUMNS, columns)},
    )


def _packed(columns):
    """The rows of equal-length columns, each packed as one SAMPLE row."""
    return b"".join(SAMPLE.pack(*row) for row in zip(*columns))


def _loop(tmp_path, columns, count):
    """Run the writer child's loop in process: the rows of ``columns``
    packed in an unlinked data file, ``count`` down a pipe; return the bytes
    it wrote."""
    data = os.open(tmp_path / "chunk.f64", os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o600)
    os.unlink(tmp_path / "chunk.f64")
    read, write = os.pipe()
    try:
        os.write(data, _packed(columns))
        os.write(write, count.to_bytes(COUNT_BYTES, sys.byteorder))
        os.close(write)
        with open(tmp_path / "rows.csv", "wb") as out:
            scenario_io._write_chunks(read, data, out.fileno())
    finally:
        os.close(read)
        os.close(data)
    return _read(tmp_path / "rows.csv")


def test_the_writer_loop_matches_the_in_process_rows(tmp_path):
    values = [[0.1 * k + j for k in range(3)] for j in range(len(CSV_COLUMNS))]
    values[3] = [5e-324, -0.0, -1e308]
    values[4] = [1.0 / 3.0, 123456.789012345678, 2.0]
    sink = io.StringIO()
    write_trajectory_csv(_record(values), sink)
    want = sink.getvalue().encode("ascii")
    assert want == CSV_HEADER.encode("ascii") + _loop(tmp_path, values, 3)


def test_the_writer_loop_fails_on_a_short_chunk(tmp_path):
    with pytest.raises(EOFError, match="cut short"):
        _loop(tmp_path, [[1.0, 2.0]] * len(CSV_COLUMNS), 3)


def test_the_writer_child_keeps_only_its_three_descriptors_and_fd_2(tmp_path, spawned,
                                                                      monkeypatch):
    if not os.path.isdir(f"/proc/{os.getpid()}/fd"):
        pytest.skip("needs /proc/<pid>/fd")
    monkeypatch.setattr(scenario_io, "_usable_cpus", lambda: 2)
    columns = [[float(k + j) for k in range(RECORD_CHUNK)] for j in range(len(CSV_COLUMNS))]
    record = _record(columns)
    sink = io.StringIO()
    write_trajectory_csv(record, sink)
    want = sink.getvalue().encode("ascii")
    path = tmp_path / "trajectory.csv"
    held = open(tmp_path / "held", "wb")  # open in the parent at the fork
    try:
        with TrajectoryCsvStream(str(path)) as stream:
            stream.send(memoryview(_packed(columns)))
            # Once the chunk is in the file the child waits on the count pipe.
            deadline = time.monotonic() + 30.0
            while os.path.getsize(path) < len(want) and time.monotonic() < deadline:
                time.sleep(0.01)
            fd_dir = f"/proc/{spawned[0]}/fd"
            targets = {int(fd): os.readlink(os.path.join(fd_dir, fd)) for fd in os.listdir(fd_dir)}
    finally:
        held.close()
    assert _read(path) == want
    assert len(spawned) == 1
    _assert_reaped(spawned)
    assert 2 in targets and len(targets) == 4
    kept = sorted(target for fd, target in targets.items() if fd != 2)
    assert kept[0] == str(path)
    assert kept[1].startswith(f"{path}.") and kept[1].endswith(".f64 (deleted)")
    assert kept[2].startswith("pipe:")


def _open_fds():
    return sorted(os.listdir(f"/proc/{os.getpid()}/fd"))


def test_a_run_that_forks_the_worker_first_leaves_no_child_and_no_open_file(tmp_path, spawned,
                                                                           monkeypatch, capsys):
    # The stride makes the run budget more than simulation._SPLIT_AFTER
    # steps, so the evader worker starts at the first stretch; the CSV writer
    # at sample RECORD_CHUNK.
    if not os.path.isdir(f"/proc/{os.getpid()}/fd"):
        pytest.skip("needs /proc/<pid>/fd")
    monkeypatch.setattr(scenario_io, "_usable_cpus", lambda: 2)
    workers = []
    real = scenario_io._fork

    def fork(keep, body):
        pid = real(keep, body)
        if len(keep) == 1:  # the worker keeps its pipe, the CSV writer four
            workers.append(pid)
        return pid

    monkeypatch.setattr(scenario_io, "_fork", fork)
    stride = -(-simulation._SPLIT_AFTER // RECORD_CHUNK)
    overrides = _ppng_overrides(RECORD_CHUNK + 50, stride=stride)
    before = _open_fds()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert _run("ppng_lateral", overrides, tmp_path) == EXIT_OK
        gc.collect()
    assert _open_fds() == before
    assert len(spawned) == 2 and spawned[0] == workers[0]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    monkeypatch.setattr(scenario_io, "_usable_cpus", lambda: 1)
    assert _read(tmp_path / "trajectory.csv") == _reference_csv("ppng_lateral", overrides)[1]
    assert sorted(os.listdir(tmp_path)) == ["summary.json", "trajectory.csv"]
    capsys.readouterr()


def test_a_streamed_run_imports_neither_subprocess_nor_tempfile(tmp_path):
    code = (
        "import os, sys\n"
        "from mcpursuit import cli, scenario_io\n"
        "scenario_io._usable_cpus = lambda: 2\n"
        "forks = []\n"
        "real = os.fork\n"
        "def fork():\n"
        "    pid = real()\n"
        "    forks.append(pid)\n"
        "    return pid\n"
        "os.fork = fork\n"
        "code = cli.main(sys.argv[1:])\n"
        "top = {name.partition('.')[0] for name in sys.modules}\n"
        "outside = sorted(top - set(sys.stdlib_module_names) - {'__main__', 'mcpursuit'})\n"
        "print(code, len(forks), 'subprocess' in sys.modules, 'tempfile' in sys.modules, outside)\n"
    )
    argv = ["run", "--scenario", os.path.join(SCENARIOS, "ppng_lateral.txt"),
            "--out", str(tmp_path)]
    for key, value in _ppng_overrides(RECORD_CHUNK + 1).items():
        argv += ["--set", f"{key}={value}"]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    # Without site, whose .pth files may import either module on their own.
    out = subprocess.run([sys.executable, "-S", "-c", code, *argv], capture_output=True,
                         text=True, check=True, env=env)
    # The last field lists the modules imported from outside the standard library.
    assert out.stdout.split()[-5:] == ["0", "1", "False", "False", "[]"]
