"""Command line interface.

Subcommands: run, sweep, certify, compare. Exit codes: 0 success, 2 usage
error, 3 validation, parse or other package error (McpursuitError; a scenario
file over MAX_SCENARIO_BYTES among them), 4 numerical blow-up, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, replace
from itertools import islice
from typing import Dict, List, Optional, Tuple

from .errors import McpursuitError, ParseError, ValidationError
from .gain_design import DEFAULT_EPSILON_TARGET, GainCertificate, design_certificate
from .guidance import MCPG, PPNG, Exact, PursuerLaw, gain, scaled, stability_step_cap
from .metrics import check_envelope, compute_metrics
from .scenario_io import (
    KNOWN_KEYS,
    MAX_SCENARIO_BYTES,
    TERMINATION_CAPTURE,
    TERMINATION_NON_FINITE,
    ScenarioConfig,
    TrajectoryRecord,
    emit_figure_svg,
    emit_overlay_svg,
    f17,
    initial_range,
    initial_state,
    parse_scenario_with_overrides,
    summary_dict,
    trajectory_csv_stream,
    write_json,
)
from .simulation import simulate

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4
EXIT_IO = 5

#: Gamma level marking the end of the transient for sweep peak measurement.
SWEEP_TRANSIENT_GAMMA = -0.9
SWEEP_SETTLE_FRACTION = 0.05


class _UsageError(Exception):
    pass


def _overrides(args) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for item in args.set or []:
        if "=" not in item:
            raise _UsageError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        if key not in KNOWN_KEYS:
            raise _UsageError(f"--set: unknown scenario key {key!r}")
        if key in out:
            raise _UsageError(f"--set: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _load_scenario(args) -> ScenarioConfig:
    with open(args.scenario, "rb") as f:
        data = f.read(MAX_SCENARIO_BYTES + 1)
    if len(data) > MAX_SCENARIO_BYTES:
        raise ParseError(f"{args.scenario}: over the limit of MAX_SCENARIO_BYTES = "
                         f"{MAX_SCENARIO_BYTES} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{args.scenario}: not UTF-8 text at byte {exc.start}") from None
    return parse_scenario_with_overrides(text, _overrides(args))


def _open_out(outdir: str, name: str):
    os.makedirs(outdir, exist_ok=True)
    return open(os.path.join(outdir, name), "w", encoding="utf-8", newline="\n")


def _simulate_into(
    outdir: str,
    config: ScenarioConfig,
    figure: bool,
    cert: Optional[GainCertificate] = None,
) -> Tuple[TrajectoryRecord, dict]:
    """Run ``config`` and write trajectory.csv, summary.json and, with ``figure``, figure.svg.

    trajectory.csv is formatted while the run integrates, by a writer that
    trajectory_csv_stream starts before the run, and completed after the
    other files. With ``cert``, summary.json carries the certificate and the
    envelope check's verdict. Returns the record and the summary written.
    """
    os.makedirs(outdir, exist_ok=True)
    with trajectory_csv_stream(os.path.join(outdir, "trajectory.csv")) as send:
        record = simulate(config, on_chunk=send)
        envelope_ok = None if cert is None else check_envelope(record, cert)
        summary = summary_dict(record, cert, envelope_ok)
        with _open_out(outdir, "summary.json") as f:
            write_json(summary, f)
        if figure:
            with _open_out(outdir, "figure.svg") as f:
                emit_figure_svg(record, f)
    return record, summary


def _cell(value: Optional[float], none: str = "") -> str:
    return none if value is None else f17(value)


def _capped(config: ScenarioConfig, law: PursuerLaw) -> float:
    """The scenario's step, tightened to ``law``'s stability cap if that is smaller."""
    return min(config.step_size, stability_step_cap(law, config.nu, config.capture_radius))


def _cmd_run(args, config: ScenarioConfig) -> List[dict]:
    _, summary = _simulate_into(args.out, config, args.figure)
    print(
        f"run: termination={summary['termination']} samples={summary['n_samples']} "
        f"final_gamma={_cell(summary['gamma_final'], 'n/a')} out={args.out}"
    )
    return [summary]


def _post_transient_peak(gamma: List[float]) -> Optional[float]:
    """Largest gamma + 1 once the run has settled.

    The transient is taken as over when gamma first closes 95 percent of the
    gap between its starting value and the deepest value it ever reaches, so
    the measurement scales with the run instead of a fixed threshold. A run
    that never gets below the sweep threshold reports None; an empty record
    has an infinite floor, so it is such a run. Otherwise settle is at least
    the floor, so the loop returns by the floor's index at the latest.
    """
    floor = min(gamma, default=math.inf)
    if floor > SWEEP_TRANSIENT_GAMMA:
        return None
    settle = floor + SWEEP_SETTLE_FRACTION * (gamma[0] - floor)
    for i, g in enumerate(gamma):
        if g <= settle:
            return max(islice(gamma, i, None)) + 1.0


def _parse_gains(spec: str) -> Dict[str, float]:
    """The multipliers in ``spec`` by the name of their run's output directory."""
    parts = [p.strip() for p in spec.split(",")]
    if not parts or any(not p for p in parts):
        raise _UsageError(f"--gains expects comma-separated multipliers, got {spec!r}")
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise _UsageError(f"--gains expects comma-separated multipliers, got {spec!r}") from None
    runs: Dict[str, float] = {}
    for v in vals:
        if not (math.isfinite(v) and v > 0.0):
            raise _UsageError(f"--gains multipliers must be finite and positive, got {v}")
        name = f"gain_x{v:g}"
        if name in runs:
            raise _UsageError(f"--gains multipliers {runs[name]!r} and {v!r} both write to {name}")
        runs[name] = v
    return runs


def _cmd_sweep(args, config: ScenarioConfig) -> List[dict]:
    runs = _parse_gains(args.gains)
    summaries: List[dict] = []
    rows: List[str] = ["multiplier,gain,peak_gamma_excess,ratio_vs_prev"]
    prev_peak: Optional[float] = None
    # One step for every run, stable at the largest multiplier.
    step = _capped(config, scaled(config.pursuer_law, max(runs.values())))
    for name, m in runs.items():
        cfg = replace(config, pursuer_law=scaled(config.pursuer_law, m), step_size=step)
        record, summary = _simulate_into(os.path.join(args.out, name), cfg, args.figure)
        summaries.append(summary)
        peak = _post_transient_peak(record.gamma)
        ratio = None
        if prev_peak is not None and peak is not None and peak > 0.0:
            ratio = prev_peak / peak
        rows.append(",".join((f17(m), f17(gain(cfg.pursuer_law)), _cell(peak), _cell(ratio))))
        prev_peak = peak
    with _open_out(args.out, "sweep.csv") as f:
        f.write("\n".join(rows) + "\n")
    print(f"sweep: {len(runs)} runs out={args.out}")
    return summaries


def _cmd_certify(args, config: ScenarioConfig) -> List[dict]:
    if args.figure and not args.verify:
        raise _UsageError("certify: --figure draws the --verify run, so it needs --verify")
    if not isinstance(config.pursuer_law, MCPG):
        raise ValidationError("certify requires pursuer_law.variant = mcpg")
    sample = compute_metrics(initial_state(config), config.nu)
    cert = design_certificate(
        nu=config.nu,
        u_e_max=config.evader_program.max_abs_control(),
        gamma0=sample.gamma,
        r_init=sample.baseline_len,
        r0_choice=args.r0,
    )
    payload: dict = {"schema": 1, "certificate": asdict(cert)}
    summaries: List[dict] = []
    if args.verify:
        law = MCPG(cert.mu)
        step = _capped(config, law)
        t_max = 1.02 * cert.T + step * config.sample_stride
        cfg = replace(config, pursuer_law=law, step_size=step, t_max=t_max)
        record, summary = _simulate_into(args.out, cfg, args.figure, cert=cert)
        summaries.append(summary)
        threshold = -1.0 + cert.epsilon
        t1 = next((t for t, g in zip(record.t, record.gamma) if g <= threshold), None)
        gamma_final = summary["gamma_final"]
        captured_aligned = (
            summary["termination"] == TERMINATION_CAPTURE
            and gamma_final is not None
            and gamma_final <= -1.0 + math.sqrt(cert.epsilon)
        )
        payload["verification"] = {
            "achieved": (t1 is not None and t1 <= cert.T) or captured_aligned,
            "t1": t1,
            "T": cert.T,
            "termination": summary["termination"],
            "final_gamma": gamma_final,
            "envelope_ok": summary["envelope_ok"],
            "step_size": step,
        }
    with _open_out(args.out, "certificate.json") as f:
        write_json(payload, f)
    print(
        f"certify: mu={f17(cert.mu)} T={f17(cert.T)} epsilon={f17(cert.epsilon)} "
        f"out={args.out}"
    )
    return summaries


def _cmd_compare(args, config: ScenarioConfig) -> List[dict]:
    base = config.pursuer_law
    if not isinstance(base, (MCPG, Exact)):
        raise ValidationError("compare requires an mcpg or exact scenario to supply mu")
    mu = base.mu
    r_init = initial_range(config)
    r0 = args.r0 if args.r0 is not None else r_init / 100.0
    if not (math.isfinite(r0) and 0.0 < r0 < r_init):
        raise ValidationError(f"--r0 must lie strictly between 0 and the initial range: {r0}")
    n_gain = mu * r0  # the PPNG gain whose command matches MCPG's at range r0
    try:
        ppng = PPNG(n_gain)
    except ValueError as exc:
        raise ValidationError(f"ppng gain mu * r0 = {n_gain!r}: {exc}") from None
    records: List[TrajectoryRecord] = []
    summaries: List[dict] = []
    rows = ["law,step_size,termination,capture_time,final_gamma,peak_residual,peak_abs_u_p"]
    stats = ("capture_time", "gamma_final", "peak_residual", "peak_abs_u_p")
    for law in (MCPG(mu), Exact(mu), ppng):
        step = _capped(config, law)
        cfg = replace(config, pursuer_law=law, step_size=step)
        record, summary = _simulate_into(os.path.join(args.out, law.variant), cfg, args.figure)
        records.append(record)
        summaries.append(summary)
        cells = [law.variant, f17(step), summary["termination"]]
        rows.append(",".join(cells + [_cell(summary[key]) for key in stats]))
    with _open_out(args.out, "comparison.csv") as f:
        f.write("\n".join(rows) + "\n")
    with _open_out(args.out, "overlay.svg") as f:
        emit_overlay_svg(records, f)
    print(f"compare: mu={f17(mu)} ppng_gain={f17(n_gain)} out={args.out}")
    return summaries


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scenario", required=True, help="path to a scenario file")
    sub.add_argument("--out", default=".", help="output directory (default: current)")
    sub.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a scenario key; repeatable",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcpursuit",
        description="Planar pursuit simulation with motion-camouflage feedback laws",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="simulate one scenario")
    _add_common(p_run)
    p_run.add_argument("--figure", action="store_true", help="also write figure.svg")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = subs.add_parser("sweep", help="rerun a scenario across gain multipliers")
    _add_common(p_sweep)
    p_sweep.add_argument(
        "--gains", required=True, help="comma-separated gain multipliers, e.g. 1,3,9"
    )
    p_sweep.add_argument("--figure", action="store_true", help="also write per-run figures")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cert = subs.add_parser("certify", help="design a certified gain for a scenario")
    _add_common(p_cert)
    p_cert.add_argument("--r0", type=float, help="standoff range (default: r_init / 100)")
    p_cert.add_argument(
        "--verify",
        action="store_true",
        help="rerun the scenario at the certified gain and check the envelope",
    )
    p_cert.add_argument("--figure", action="store_true",
                        help="write figure.svg of the --verify run (without --verify: exit 2)")
    p_cert.set_defaults(func=_cmd_certify)

    p_cmp = subs.add_parser("compare", help="run the guidance law family side by side")
    _add_common(p_cmp)
    p_cmp.add_argument("--r0", type=float, help="standoff used for the ppng gain")
    p_cmp.add_argument("--figure", action="store_true", help="also write per-law figures")
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        summaries = args.func(args, _load_scenario(args))
    except (_UsageError, McpursuitError, OSError) as exc:
        print(f"mcpursuit: {exc}", file=sys.stderr)
        return (EXIT_USAGE if isinstance(exc, _UsageError)
                else EXIT_VALIDATION if isinstance(exc, McpursuitError) else EXIT_IO)
    if any(s["termination"] == TERMINATION_NON_FINITE for s in summaries):
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
