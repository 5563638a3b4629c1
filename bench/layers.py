"""Per-layer figures: counts from a traced run, microseconds from replay.

The traced run wraps, with counters, the functions ``simulation.simulate``
looks up at call time: ``rk4_step_scalars`` and the closures made by
``scalar_pursuer_control`` and ``scalar_evader_control``. It also times
``cli.main`` and every package function that ``cli`` calls, which gives the
CLI's self time, and counts calls at the lookup sites in ``CALL_SITES``. A
timer around a sub-microsecond kernel costs about as much as the kernel, so
every microsecond figure instead comes from replaying the states and inputs
the workload recorded through the public function in a tight loop. The bare
loop's time is subtracted and the best of several repeats is kept. A
function the traced rounds never call is not replayed, and its figure is 0.
"""

from __future__ import annotations

import collections
import dataclasses
import inspect
import math
import os
import shutil
import statistics
import time

from mcpursuit import cli, dynamics, gain_design, guidance, metrics, scenario_io, simulation

import checks

clock = time.perf_counter

#: Lookup sites of the functions replayed for a per-layer figure. A workload
#: whose traced rounds make no call at any site of a metric reports 0 for it:
#: the layer does no work there.
CALL_SITES = {
    "metrics.check_envelope_us": ((metrics, "check_envelope"), (cli, "check_envelope")),
    "metrics.camouflage_test_us": ((metrics, "camouflage_test"),),
    "scenario_io.parse_us": ((scenario_io, "parse_scenario"),
                             (scenario_io, "parse_scenario_with_overrides"),
                             (cli, "parse_scenario_with_overrides")),
    "scenario_io.write_scenario_us": ((scenario_io, "write_scenario"),),
    "scenario_io.csv_row_us": ((cli, "write_trajectory_csv"),),
    "scenario_io.svg_us_per_sample": ((cli, "emit_figure_svg"),),
    "scenario_io.summary_us": ((scenario_io, "summary_dict"),),
    "gain_design.design_us": ((gain_design, "design_certificate"), (cli, "design_certificate")),
    "cli.self_ms": ((cli, "main"),),
}

#: Rows of each record the writer replays use; their cost per row is flat.
WRITER_ROWS = 4000


class Tracer:
    """Counters and timers patched onto module attributes; undone on exit."""

    def __init__(self):
        self.counts = collections.Counter()
        self.seconds = collections.Counter()
        self._undo = []

    def _patch(self, module, name, value) -> None:
        self._undo.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def _counted(self, module, name, key) -> None:
        fn, counts = getattr(module, name), self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        self._patch(module, name, counted)

    def _counted_products(self, module, name, key) -> None:
        factory, counts = getattr(module, name), self.counts

        def make(*args):
            fn = factory(*args)

            def counted(*a):
                counts[key] += 1
                return fn(*a)

            return counted

        self._patch(module, name, make)

    def _timed(self, module, name, key) -> None:
        """Time calls into ``key``; count them under their lookup site."""
        fn, counts, seconds, site = getattr(module, name), self.counts, self.seconds, (module, name)

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[key] += clock() - t0
                counts[site] += 1

        self._patch(module, name, timed)

    def __enter__(self) -> "Tracer":
        self._counted(simulation, "rk4_step_scalars", "steps")
        self._counted_products(simulation, "scalar_pursuer_control", "law_calls")
        self._counted_products(simulation, "scalar_evader_control", "evader_calls")
        for module, name in {site for sites in CALL_SITES.values() for site in sites}:
            if module is not cli:
                self._counted(module, name, (module, name))
        for name, fn in list(vars(cli).items()):
            if inspect.isfunction(fn) and fn.__module__.startswith("mcpursuit.") \
                    and fn.__module__ != cli.__name__:
                self._timed(cli, name, "cli.children")
        self._timed(cli, "main", "cli.main")
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            module, name, value = self._undo.pop()
            setattr(module, name, value)

    def called(self, metric: str) -> bool:
        return any(self.counts[site] for site in CALL_SITES[metric])

    def cli_self_ms(self) -> float:
        return (self.seconds["cli.main"] - self.seconds["cli.children"]) * 1e3 / self.counts[(cli, "main")]


# ---------------------------------------------------------------------------
# replay


def loop_us(fn, calls, repeats: int = 5) -> float:
    """Best per-call time of fn(*args) over the argument tuples, bare loop removed."""
    best = math.inf
    for _ in range(repeats):
        t0 = clock()
        for args in calls:
            fn(*args)
        t1 = clock()
        for args in calls:
            pass
        t2 = clock()
        best = min(best, (t1 - t0) - (t2 - t1))
    return best * 1e6 / len(calls)


def _weighted(pairs) -> float:
    pairs = [(v, w) for v, w in pairs if w > 0]
    return sum(v * w for v, w in pairs) / sum(w for _, w in pairs)


def _rows(record, limit: int = 1000):
    return range(0, record.n_samples, max(1, record.n_samples // limit))


def record_steps(record) -> int:
    """Steps a record integrated, from its final sample time and step size."""
    return round(record.t[-1] / record.scenario.step_size) if record.t else 0


def _head(record, n: int):
    return dataclasses.replace(record, **{c: getattr(record, c)[:n] for c in checks.COLUMNS})


def _writer_us(writer, records, path: str) -> float:
    pairs = []
    for record in records:
        part = _head(record, WRITER_ROWS)
        best = math.inf
        for _ in range(3):
            with open(path, "w", encoding="utf-8", newline="\n") as f:
                t0 = clock()
                writer(part, f)
                best = min(best, clock() - t0)
        pairs.append((best * 1e6 / part.n_samples, record.n_samples))
    return _weighted(pairs)


def kernel_us(records) -> dict:
    """RK4 step, law, evader and metric kernels replayed at recorded states."""
    step, law, evader, metric = [], [], [], []
    cos, sin = math.cos, math.sin
    for rec in records:
        cfg = rec.scenario
        nu, h = cfg.nu, cfg.step_size
        up = guidance.scalar_pursuer_control(cfg.pursuer_law, nu)
        ue = guidance.scalar_evader_control(cfg.evader_program)
        rows = [(rec.t[i], rec.px[i], rec.py[i], rec.ptheta[i], rec.ex[i], rec.ey[i], rec.etheta[i],
                 rec.u_e[i]) for i in _rows(rec)]
        n = record_steps(rec)
        step.append((loop_us(dynamics.rk4_step_scalars,
                             [(t, px, py, pth, ex, ey, eth, h, nu, up, ue)
                              for t, px, py, pth, ex, ey, eth, _ in rows]), n))
        law.append((loop_us(up, [(t, px, py, pth, cos(pth), sin(pth), ex, ey, eth, cos(eth), sin(eth), u)
                                 for t, px, py, pth, ex, ey, eth, u in rows]), n))
        evader.append((loop_us(ue, [(r[0],) for r in rows]), n))
        metric.append((loop_us(metrics.metric_values,
                               [(px - ex, py - ey, cos(pth) - nu * cos(eth), sin(pth) - nu * sin(eth))
                                for _, px, py, pth, ex, ey, eth, _ in rows]), rec.n_samples))
    return {
        "dynamics.rk4_step_us": _weighted(step),
        "guidance.law_call_us": _weighted(law),
        "guidance.evader_call_us": _weighted(evader),
        "metrics.metric_values_us": _weighted(metric),
    }


def sample_self_us(records, max_records: int = 4, max_steps: int = 5000) -> float:
    """simulate's own cost per recorded sample, replayed on record prefixes.

    A prefix of a record is run twice with the same steps: at stride 1, and
    with one stride spanning the prefix, which records only its two ends.
    The difference per sample is the sampler's cost. It does not depend on
    the stride, and at stride 1 it is not swamped by the cost of the steps.
    """
    chosen = records[::max(1, len(records) // max_records)][:max_records]
    pairs = []
    for rec in chosen:
        cfg = rec.scenario
        # Stop short of the record's end, so a stride-1 prefix cannot
        # capture earlier than the record did.
        steps = min(max_steps, int(0.9 * record_steps(rec)))
        if steps < 100:
            continue
        dense = dataclasses.replace(cfg, t_max=steps * cfg.step_size, sample_stride=1)
        sparse = dataclasses.replace(dense, sample_stride=steps)
        best = {dense: math.inf, sparse: math.inf}
        for _ in range(5):
            for run in best:
                t0 = clock()
                simulation.simulate(run)
                best[run] = min(best[run], clock() - t0)
        pairs.append(((best[dense] - best[sparse]) * 1e6 / (steps - 1), rec.n_samples))
    return _weighted(pairs)


def _design_call(d: dict) -> tuple:
    return (d["nu"], d["u_e_max"], d["gamma0"], d["r_init"], d["epsilon_target"], None)


def replays(inputs: dict, records, replay_dir: str, tracer: Tracer) -> dict:
    """Microseconds per call of the CALL_SITES functions, replayed on the
    workload's own inputs; the CLI's self time comes from the traced rounds."""
    path = os.path.join(replay_dir, "replay.out")
    return {
        "metrics.check_envelope_us": lambda: _weighted(
            (loop_us(metrics.check_envelope, [(rec, cert)]) / rec.n_samples, rec.n_samples)
            for rec, cert in inputs["certs"]),
        "metrics.camouflage_test_us": lambda: _weighted(
            (loop_us(metrics.camouflage_test, [(rec, 1e-3)]) / rec.n_samples, rec.n_samples)
            for rec in records),
        "scenario_io.parse_us": lambda: statistics.fmean(
            loop_us(fn, [args] * 20) for fn, args in inputs["parse"]),
        "scenario_io.write_scenario_us": lambda: statistics.fmean(
            loop_us(scenario_io.write_scenario, [(cfg,)] * 20) for cfg in inputs["configs"]),
        "scenario_io.csv_row_us": lambda: _writer_us(scenario_io.write_trajectory_csv, records, path),
        "scenario_io.svg_us_per_sample": lambda: _writer_us(scenario_io.emit_figure_svg, records, path),
        "scenario_io.summary_us": lambda: statistics.fmean(
            loop_us(scenario_io.summary_dict, [s] * 5) for s in inputs["summaries"]),
        "gain_design.design_us": lambda: statistics.fmean(
            loop_us(gain_design.design_certificate, [_design_call(d)] * 50) for d in inputs["design"]),
        "cli.self_ms": tracer.cli_self_ms,
    }


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


def per_layer(workload, records, tracer: Tracer, traced_rounds: int, replay_dir: str) -> dict:
    """Every per-layer metric but the tracing overhead.

    ``records`` are the last round's; ``tracer`` has counted
    ``traced_rounds`` rounds.
    """
    shutil.rmtree(replay_dir, ignore_errors=True)
    os.makedirs(replay_dir)
    found = kernel_us(records)
    found.update({
        "dynamics.steps": tracer.counts["steps"] / traced_rounds,
        "guidance.law_calls_per_step": tracer.counts["law_calls"] / tracer.counts["steps"],
        "guidance.evader_calls_per_step": tracer.counts["evader_calls"] / tracer.counts["steps"],
        "simulation.sample_self_us": sample_self_us(records),
        "simulation.samples": sum(r.n_samples for r in records),
        "scenario_io.output_bytes": _dir_bytes(workload.out),
    })
    replay = replays(workload.replay_inputs(records), records, replay_dir, tracer)
    for metric in CALL_SITES:
        found[metric] = replay[metric]() if tracer.called(metric) else 0.0
    return found
