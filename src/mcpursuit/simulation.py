"""Fixed-step engagement simulation producing trajectory records."""

from __future__ import annotations

import itertools
import math
import os
import struct
from typing import Callable, Optional

from . import scenario_io
from .dynamics import rk4_loop, rk4_split, rk4_step_scalars
from .errors import ZeroBaseline
from .guidance import scalar_evader_control, scalar_pursuer_control
from .metrics import metric_values
from .scenario_io import (
    CSV_COLUMNS,
    RECORD_CHUNK,
    TERMINATION_CAPTURE,
    TERMINATION_NON_FINITE,
    TERMINATION_TIME_LIMIT,
    ScenarioConfig,
    TrajectoryRecord,
    validate_scenario,
)

#: Steps a strided run takes in process before its evader may move to a
#: worker: a shorter run would spend more on the fork than the worker saves.
_SPLIT_AFTER = 1 << 15

#: Steps whose rows the worker packs into one write down its pipe.
_CHUNK_STEPS = 1024

#: Bytes the worker's pipe is asked to hold, some 7,000 MCPG rows: with the
#: default 64 KiB a pause of either process soon stalls the other.
_PIPE_BYTES = 1 << 20


def _fork_evader(evade, k, end, ex, ey, eth, h, nu, evader) -> Optional[tuple]:
    """Start a worker running the evader from step k up to step end - 1.

    The worker keeps only its pipe open and writes its packed rows down it,
    _CHUNK_STEPS steps a write. It exits when it is done or its evader half
    raises, after the rows of the steps before. Returns (pid, the pipe's
    read end), or None if the fork fails.
    """
    read, write = os.pipe()
    try:
        import fcntl

        fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    except (ImportError, AttributeError, OSError):
        pass  # a smaller pipe only lets the worker run less far ahead

    def stream(k, ex, ey, eth):
        while k < end:
            n = min(_CHUNK_STEPS, end - k)
            chunk = []
            try:
                ex, ey, eth = evade(k, n, ex, ey, eth, h, nu, evader, chunk.append)
            finally:
                scenario_io._write_all(write, b"".join(chunk))
            k += n

    pid = scenario_io._fork({write}, lambda: stream(k, ex, ey, eth))
    os.close(write)
    if pid is None:
        os.close(read)
        return None
    return pid, open(read, "rb")


def _rows(pipe, row: struct.Struct):
    """The rows unpacked from the pipe, read a chunk at a time, up to the
    last whole row before the stream ends."""
    size = _CHUNK_STEPS * row.size

    def chunks():
        while True:
            try:
                data = pipe.read(size)
            except OSError:
                return
            yield data[:len(data) - len(data) % row.size]
            if len(data) < size:
                return

    return itertools.chain.from_iterable(map(row.iter_unpack, chunks()))


def simulate(
    scenario: ScenarioConfig,
    *,
    on_chunk: Optional[Callable[[TrajectoryRecord], None]] = None,
) -> TrajectoryRecord:
    """Integrate one engagement and return its sampled record.

    The state is sampled every sample_stride integration steps, starting with
    the initial state. At each sample the termination conditions are checked
    in order: capture when the baseline length is at or below the capture
    radius, then the time limit once t reaches t_max (to within half a sample
    interval). A non-finite state or a control evaluation that blows up ends
    the run with termination "non_finite"; the offending sample is not
    recorded. Controls recorded at a sample are the ones steering the step
    that leaves it: they are handed to that step as its RK4 stage 1, so each
    control is evaluated once per stage, sampled or not. The stride - 1
    unsampled steps after it are one call of the law's dynamics.rk4_loop.
    There is no other path: a run is steered only by the scenario's law and
    program records.

    A long strided run moves its evader to a second CPU. At the first
    sample at or past step _SPLIT_AFTER (2**15), if sample_stride > 1 and
    scenario_io._can_fork() (two usable CPUs, fork, no other thread), it
    forks a worker that runs the evader's half of dynamics.rk4_split and
    streams each step's row down a pipe. The unsampled steps then run the
    pursuer's half over those rows, which hold exactly what rk4_loop would
    compute, so the record is the same bit for bit. If the stream ends short
    (the evader's half raised, or the worker died), the stretch it ended in
    and every later one run through rk4_loop. The worker is killed and
    reaped before simulate returns. Like TrajectoryCsvStream's writer, it is
    forked by scenario_io._fork and keeps only its own pipe. It calls its
    own copy of the evader program's closure, which must therefore depend on
    the time alone.

    ``on_chunk``, if given, is called with the record each time buffered
    samples move into its packed columns: after every RECORD_CHUNK samples
    and once at the end of the run, before the termination is set. It must
    not resize the columns.
    """
    validate_scenario(scenario)

    nu = scenario.nu
    h = scenario.step_size
    stride = scenario.sample_stride
    capture_radius = scenario.capture_radius
    t_max = scenario.t_max
    half_sample = 0.5 * h * stride

    law = scenario.pursuer_law
    up_fn = scalar_pursuer_control(law, nu)
    ue_fn = scalar_evader_control(scenario.evader_program)
    run = rk4_loop(type(law))

    px = scenario.pursuer_init.position.x
    py = scenario.pursuer_init.position.y
    pth = scenario.pursuer_init.heading
    ex = scenario.evader_init.position.x
    ey = scenario.evader_init.position.y
    eth = scenario.evader_init.heading

    record = TrajectoryRecord(scenario=scenario, termination=TERMINATION_TIME_LIMIT)
    # Samples gather in short list buffers, one per CSV column, and move into
    # the record's packed columns a chunk at a time: appending a float to a
    # list is cheaper than appending it to an array('d').
    columns = tuple(getattr(record, name) for name in CSV_COLUMNS)
    buffers = tuple([] for _ in columns)
    (col_t, col_px, col_py, col_pth, col_ex, col_ey, col_eth,
     col_up, col_ue, col_rn, col_g, col_w, col_los, col_res) = (b.append for b in buffers)
    pack = struct.pack

    def flush() -> None:
        for column, buf in zip(columns, buffers):
            column.frombytes(pack(f"{len(buf)}d", *buf))
            buf.clear()
        if on_chunk is not None:
            on_chunk(record)

    room = RECORD_CHUNK

    cos = math.cos
    sin = math.sin
    isfinite = math.isfinite
    metrics = metric_values
    step = rk4_step_scalars

    k = 0
    termination = TERMINATION_TIME_LIMIT
    split_at = _SPLIT_AFTER  # the step from which the evader may move to a worker
    worker = None  # the worker's (pid, pipe), once it is started
    rows = None  # the worker's rows, until its stream ends
    try:
        while True:
            t = k * h
            cp = cos(pth)
            sp = sin(pth)
            ce = cos(eth)
            se = sin(eth)
            rx = px - ex
            ry = py - ey
            drx = cp - nu * ce
            dry = sp - nu * se
            try:
                rn, _, g, w, los, res = metrics(rx, ry, drx, dry)
                ue0 = ue_fn(t)
                up0 = up_fn(t, px, py, pth, cp, sp, ex, ey, eth, ce, se, ue0)
            except ZeroBaseline:
                termination = TERMINATION_CAPTURE
                break
            if not (isfinite(up0) and isfinite(ue0)):
                termination = TERMINATION_NON_FINITE
                break
            col_t(t)
            col_px(px)
            col_py(py)
            col_pth(pth)
            col_ex(ex)
            col_ey(ey)
            col_eth(eth)
            col_up(up0)
            col_ue(ue0)
            col_rn(rn)
            col_g(g)
            col_w(w)
            col_los(los)
            col_res(res)
            room -= 1
            if not room:
                flush()
                room = RECORD_CHUNK
            if rn <= capture_radius:
                termination = TERMINATION_CAPTURE
                break
            if t >= t_max - half_sample:
                termination = TERMINATION_TIME_LIMIT
                break
            try:
                # The step leaving the sample reuses its controls as RK4 stage 1.
                px, py, pth, ex, ey, eth = step(
                    t, px, py, pth, ex, ey, eth, h, nu, up_fn, ue_fn, ue0, up0
                )
                if stride > 1:
                    if k >= split_at:
                        split_at = math.inf  # one worker at most per run
                        if scenario_io._can_fork():
                            evade, pursue, row = rk4_split(type(law))
                            # The worker stops past the last step the run can reach.
                            worker = _fork_evader(evade, k + 1, math.ceil(t_max / h) + 2 * stride,
                                                  ex, ey, eth, h, nu, ue_fn)
                            if worker is not None:
                                rows = _rows(worker[1], row)
                    if rows is not None:
                        qx, qy, qth = pursue(law, rows, stride - 1, px, py, pth, h, nu)
                        # The next sample's step starts from the evader's state in its row.
                        start = next(rows, None)
                        if start is None:
                            rows = None  # the stream ended short: this stretch runs in process
                        else:
                            px, py, pth = qx, qy, qth
                            ex, ey, eth = start[0], start[1], start[2]
                    if rows is None:
                        px, py, pth, ex, ey, eth = run(
                            law, k + 1, stride - 1, px, py, pth, ex, ey, eth, h, nu, ue_fn
                        )
                k += stride
            except ZeroBaseline:
                termination = TERMINATION_CAPTURE
                break
            except (ValueError, OverflowError, ZeroDivisionError):
                termination = TERMINATION_NON_FINITE
                break
            if not (
                isfinite(px) and isfinite(py) and isfinite(pth)
                and isfinite(ex) and isfinite(ey) and isfinite(eth)
            ):
                termination = TERMINATION_NON_FINITE
                break
    finally:
        if worker is not None:
            worker[1].close()
            scenario_io._kill(worker[0])

    flush()
    record.termination = termination
    return record
