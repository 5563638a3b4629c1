"""Fixed-step engagement simulation producing trajectory records."""

from __future__ import annotations

import math
import struct
from typing import Callable, Optional

from .dynamics import rk4_loop, rk4_step_scalars
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

    flush()
    record.termination = termination
    return record
