"""Fixed-step engagement simulation producing trajectory records."""

from __future__ import annotations

import math
import os
import struct
from typing import Callable, Optional

from . import scenario_io
from .dynamics import law_code, rk4_step_scalars
from .errors import ZeroBaseline
from .guidance import scalar_evader_control, scalar_pursuer_control
from .metrics import metric_values
from .scenario_io import (
    CSV_COLUMNS,
    RECORD_CHUNK,
    SAMPLE,
    TERMINATION_CAPTURE,
    TERMINATION_NON_FINITE,
    TERMINATION_TIME_LIMIT,
    ScenarioConfig,
    TrajectoryRecord,
)

#: Steps a strided run must budget, ceil(t_max / step_size), for its evader
#: to move to a worker: a shorter run would spend more on the fork than the
#: worker saves.
_SPLIT_AFTER = 1 << 15

#: Bytes the worker's pipe is asked to hold, some 7,000 MCPG rows: with the
#: default 64 KiB a pause of either process soon stalls the other.
_PIPE_BYTES = 1 << 20


def _evader_rows(evade, row: struct.Struct, ex, ey, eth, h, nu, evader):
    """The rows of steps 1, 2, ..., unpacked, from a worker running the evader's half.

    Nothing happens until the first next(). It then forks, through
    scenario_io._fork, a worker that keeps only its pipe open and runs
    ``evade`` from step 0 with the evader's state (ex, ey, eth), writing the
    rows packed by ``row`` down the pipe, RECORD_CHUNK steps a write, as far
    ahead of the reader as the pipe holds. It runs until it is killed or its
    evader half raises, which ends the stream after the rows of the steps
    before. Each read fills one buffer of RECORD_CHUNK rows, allocated once,
    and the rows are unpacked from a view of it. Step 0 is a sampled step,
    which the run takes itself, so its row is skipped. The rows stop at the
    last whole row the stream holds, and at once if the fork fails. Closing
    the generator or running it to its end kills and reaps the worker.
    """
    read, write = os.pipe()
    try:
        import fcntl

        fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    except (ImportError, AttributeError, OSError):
        pass  # a smaller pipe only lets the worker run less far ahead

    def stream(k, ex, ey, eth):
        while True:
            chunk = []
            try:
                ex, ey, eth = evade(k, RECORD_CHUNK, ex, ey, eth, h, nu, evader, chunk.append)
            finally:
                scenario_io._write_all(write, b"".join(chunk))
            k += RECORD_CHUNK

    pid = scenario_io._fork({write}, lambda: stream(0, ex, ey, eth))
    os.close(write)
    data = memoryview(bytearray(RECORD_CHUNK * row.size))
    with open(read, "rb") as pipe:
        if pid is None:
            return
        try:
            pipe.read(row.size)  # step 0's row
            while n := pipe.readinto(data):
                yield from row.iter_unpack(data[:n - n % row.size])
        except OSError:
            pass  # a stream that cannot be read has ended
        finally:
            scenario_io._kill(pid)


def simulate(
    scenario: ScenarioConfig,
    *,
    on_chunk: Optional[Callable[[memoryview], None]] = None,
) -> TrajectoryRecord:
    """Integrate one engagement and return its sampled record.

    The state is sampled every sample_stride integration steps, starting with
    the initial state. At each sample the termination conditions are checked
    in order: capture when the baseline length is at or below the capture
    radius, then the time limit at the first sample with
    t >= t_max - h * sample_stride / 2, the sample nearest t_max, so the end
    time moves with the stride. If h * sample_stride >= 2 * t_max that is
    the initial sample, and the run takes no step. A sample whose state or
    controls are not finite, or whose baseline length overflows, ends the
    run with termination "non_finite" and is not recorded. A control or
    metric that raises ends the run the same way at a sample as inside the
    step into it: ZeroBaseline as "capture", ValueError, OverflowError or
    ZeroDivisionError as "non_finite". Controls recorded at a sample are the
    ones steering the step that leaves it: they are handed to that step as
    its RK4 stage 1, so each control is evaluated once per stage, sampled or
    not. The stride - 1 unsampled steps after it are one call of ``loop`` of
    the law's dynamics.law_code, looked up once per run. There is no other
    path: a run is steered only by the scenario's law and program records.

    A long strided run moves its evader to a second CPU. Before its first
    step, simulate decides whether the run streams its evader: it does if
    sample_stride > 1, its step budget ceil(t_max / step_size) is at least
    _SPLIT_AFTER (2**15), and scenario_io._can_fork() (two usable CPUs,
    fork, no other thread). Its first unsampled stretch then forks, through
    _evader_rows, a worker that runs the code's ``evade`` and streams each
    step's row down a pipe; a run that ends at its first sample forks
    nothing. A stretch is one call of ``pursue`` over those rows, which
    returns ``loop``'s state at the next sample bit for bit, the evader's
    read from that sample's row. If the stream ends short (the fork failed,
    the evader's half raised, or the worker died), the stretch it ended in
    and every later one run through ``loop``. simulate kills and reaps the
    worker before it returns. Like trajectory_csv_stream's writer, it keeps
    only its own pipe. It calls its own copy of the evader program's
    closure, which must therefore depend on the time alone.

    ``on_chunk``, if given, is called with a memoryview of the samples just
    moved into the record's columns, each a packed scenario_io.SAMPLE row:
    once per RECORD_CHUNK samples and once at the end of the run, that last
    time with the samples left over, possibly none. The view is released
    when the call returns, and the buffer behind it is reused.
    """
    nu = scenario.nu
    h = scenario.step_size
    stride = scenario.sample_stride
    capture_radius = scenario.capture_radius
    t_max = scenario.t_max
    half_sample = 0.5 * h * stride

    law = scenario.pursuer_law
    up_fn = scalar_pursuer_control(law, nu)
    ue_fn = scalar_evader_control(scenario.evader_program)
    code = law_code(type(law))

    px = scenario.pursuer_init.position.x
    py = scenario.pursuer_init.position.y
    pth = scenario.pursuer_init.heading
    ex = scenario.evader_init.position.x
    ey = scenario.evader_init.position.y
    eth = scenario.evader_init.heading

    record = TrajectoryRecord(scenario=scenario, termination=TERMINATION_TIME_LIMIT)
    # Each sample is packed once, as a SAMPLE row, into one chunk of
    # RECORD_CHUNK rows allocated for the run. flush moves the rows filled so
    # far into the record's packed columns, one strided copy each, and hands
    # them to on_chunk.
    columns = tuple(getattr(record, name) for name in CSV_COLUMNS)
    put = SAMPLE.pack_into
    size = SAMPLE.size
    full = RECORD_CHUNK * size
    chunk = bytearray(full)

    def flush(end: int) -> None:
        with memoryview(chunk)[:end] as filled:
            values = filled.cast("d")
            for i, column in enumerate(columns):
                column.frombytes(values[i::len(columns)].tobytes())
            if on_chunk is not None:
                on_chunk(filled)

    at = 0  # bytes of the chunk filled

    cos = math.cos
    sin = math.sin
    isfinite = math.isfinite
    metrics = metric_values
    step = rk4_step_scalars

    k = 0
    rows = None  # the worker's rows, until its stream ends
    if stride > 1 and math.ceil(t_max / h) >= _SPLIT_AFTER and scenario_io._can_fork():
        rows = _evader_rows(code.evade, code.row, ex, ey, eth, h, nu, ue_fn)
    try:
        while True:
            try:
                if k:
                    # The step leaving the last sample reuses its controls as RK4 stage 1.
                    px, py, pth, ex, ey, eth = step(
                        t, px, py, pth, ex, ey, eth, h, nu, up_fn, ue_fn, ue0, up0
                    )
                    if stride > 1:
                        state = None if rows is None else code.pursue(law, rows, stride - 1,
                                                                      px, py, pth, h, nu)
                        if state is None:
                            rows = None  # no stream, or it has ended: run in process
                            state = code.loop(law, k - stride + 1, stride - 1,
                                              px, py, pth, ex, ey, eth, h, nu, ue_fn)
                        px, py, pth, ex, ey, eth = state
                t = k * h
                cp = cos(pth)
                sp = sin(pth)
                ce = cos(eth)
                se = sin(eth)
                rx = px - ex
                ry = py - ey
                drx = cp - nu * ce
                dry = sp - nu * se
                rn, _, g, w, los, res = metrics(rx, ry, drx, dry)
                ue0 = ue_fn(t)
                up0 = up_fn(t, px, py, pth, cp, sp, ex, ey, eth, ce, se, ue0)
            except ZeroBaseline:
                record.termination = TERMINATION_CAPTURE
                break
            except (ValueError, OverflowError, ZeroDivisionError):
                record.termination = TERMINATION_NON_FINITE
                break
            if not (
                isfinite(px) and isfinite(py) and isfinite(pth) and isfinite(ex)
                and isfinite(ey) and isfinite(eth) and isfinite(up0) and isfinite(ue0)
                and isfinite(rn)
            ):
                record.termination = TERMINATION_NON_FINITE
                break
            put(chunk, at, t, px, py, pth, ex, ey, eth, up0, ue0, rn, g, w, los, res)
            at += size
            if at == full:
                flush(at)
                at = 0
            if rn <= capture_radius:
                record.termination = TERMINATION_CAPTURE
                break
            if t >= t_max - half_sample:
                break  # termination stays time_limit
            k += stride
    finally:
        if rows is not None:
            rows.close()  # an ended stream has reaped its worker already

    flush(at)
    return record
