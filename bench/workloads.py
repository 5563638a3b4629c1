"""The three workloads: their inputs, one round of operations, and the checks.

A round runs the workload's whole operation set once through the package's
public entry points (``cli.main`` for the CLI workloads). Functions are
looked up on their modules at call time, so the tracer in ``layers.py``
sees every call. Checks run after the timed rounds, on the last round's
outputs, and are not timed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random

import checks
from checks import Problems

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIO_DIR = os.path.join(ROOT, "scenarios")

import mcpursuit  # noqa: E402  (the runner puts the checkout's src/ first on sys.path)

if os.path.dirname(os.path.abspath(mcpursuit.__file__)) != os.path.join(ROOT, "src", "mcpursuit"):
    raise SystemExit(f"bench: mcpursuit imported from {mcpursuit.__file__}, not this checkout")

from mcpursuit import cli, gain_design, metrics, scenario_io, simulation  # noqa: E402
from mcpursuit.guidance import (  # noqa: E402
    MCPG, PPNG, Constant, Exact, PiecewiseRandom, Sinusoid, Zero,
)
from mcpursuit.dynamics import ParticleState  # noqa: E402
from mcpursuit.geometry import PlanarVector  # noqa: E402

SHIPPED = ("circling_evader", "ppng_lateral", "random_weave", "sine_weave", "straight_chase")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _shipped_path(name: str) -> str:
    return os.path.join(SCENARIO_DIR, f"{name}.txt")


def _initial_kinematics(cfg):
    p, e = cfg.pursuer_init, cfg.evader_init
    return checks.kinematics(p.position.x, p.position.y, p.heading,
                             e.position.x, e.position.y, e.heading, cfg.nu)


class Workload:
    """Inputs and operations of one workload; subclasses fill in the parts."""

    name = ""
    #: Module whose ``simulate`` attribute the workload's operations call.
    sim_module = simulation

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out = out_dir

    def setup(self) -> None:
        """Parse and validate the inputs, designing certificates where used."""
        raise NotImplementedError

    def run_round(self) -> tuple:
        """Run every operation once; return (attempted, failed)."""
        raise NotImplementedError

    def check(self) -> Problems:
        """Problems found in the last round's outputs."""
        raise NotImplementedError

    def self_check(self) -> Problems:
        """Problems if a corrupted output passes its check."""
        raise NotImplementedError

    def replay_inputs(self, records) -> dict:
        """Inputs of the per-layer replays (``layers.replays``) of the functions
        the workload calls."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# certify-verify


class CertifyVerify(Workload):
    """``mcpursuit certify --verify`` on scenarios/random_weave.txt."""

    name = "certify-verify"
    sim_module = cli
    scenario = "random_weave"

    def setup(self) -> None:
        self.path = _shipped_path(self.scenario)
        self.text = _read(self.path)
        self.cfg = scenario_io.parse_scenario_with_overrides(self.text, {})
        sample = metrics.compute_metrics(scenario_io.initial_state(self.cfg), self.cfg.nu)
        self.design_args = dict(
            nu=self.cfg.nu, u_e_max=self.cfg.evader_program.max_abs_control(),
            gamma0=sample.gamma, r_init=sample.baseline_len,
            epsilon_target=cli.DEFAULT_EPSILON_TARGET,
        )
        self.cert = gain_design.design_certificate(**self.design_args)
        self.argv = ["certify", "--scenario", self.path, "--out", self.out, "--verify"]

    def run_round(self) -> tuple:
        return 1, int(cli.main(self.argv) != 0)

    def _outputs(self):
        with open(os.path.join(self.out, "certificate.json"), encoding="utf-8") as f:
            payload = json.load(f)
        with open(os.path.join(self.out, "summary.json"), encoding="utf-8") as f:
            summary = json.load(f)
        return payload, summary, _read(os.path.join(self.out, "trajectory.csv"))

    def _check_certificate(self, cert: dict) -> Problems:
        rn, _, g0, _, _ = _initial_kinematics(self.cfg)
        return checks.check_certificate(
            cert, self.cfg.nu, self.cfg.evader_program.max_abs_control(), g0, rn)

    def check(self) -> Problems:
        p = Problems()
        payload, summary, text = self._outputs()
        cert = payload["certificate"]
        nu = self.cfg.nu
        p.extend_from("certificate", self._check_certificate(cert))
        ver = payload["verification"]
        h = min(self.cfg.step_size, checks.stability_cap(cert["mu"], nu))
        if not (ver["achieved"] and ver["envelope_ok"] and ver["step_size"] == h):
            p.add(f"verification block {ver}")
        cols = checks.read_csv(text)
        stride = self.cfg.sample_stride
        captured = ver["termination"] == "capture"
        t_max = 1.02 * cert["T"] + h * stride
        p.extend_from("csv", checks.check_derived(cols, nu))
        p.extend_from("csv", checks.check_time_grid(cols, h, stride))
        p.extend_from("csv", checks.check_kinematic_bounds(cols, nu))
        p.extend_from("csv", checks.check_band_and_envelope(cols, cert, nu, h, captured))
        p.extend_from("summary", checks.check_summary(
            summary, cols, self.cfg.label, self.cfg.capture_radius, t_max, h, stride))
        if summary.get("certificate") != cert or summary.get("envelope_ok") is not True:
            p.add("summary.json certificate block differs from certificate.json")
        return p

    def self_check(self) -> Problems:
        p = Problems()
        payload, _, text = self._outputs()
        cols = checks.read_csv(checks.corrupt_csv_cell(text, "gamma"))
        if not checks.check_derived(cols, self.cfg.nu):
            p.add("a corrupted gamma cell in trajectory.csv passed the column check")
        cert = dict(payload["certificate"])
        cert["c2"] = float(checks.corrupt_digit(repr(cert["c2"])))
        if not self._check_certificate(cert):
            p.add("a corrupted c2 in certificate.json passed the formula chain check")
        return p

    def replay_inputs(self, records) -> dict:
        return {
            "parse": [(scenario_io.parse_scenario_with_overrides, (self.text, {}))],
            "design": [self.design_args],
            "certs": [(records[0], self.cert)],
            "summaries": [(records[0], self.cert, True)],
        }


# ---------------------------------------------------------------------------
# dense-trace


class DenseTrace(Workload):
    """``mcpursuit run --figure --set sample_stride=1`` on every shipped scenario."""

    name = "dense-trace"
    sim_module = cli
    overrides = {"sample_stride": "1"}

    def setup(self) -> None:
        self.runs = []
        for name in SHIPPED:
            path = _shipped_path(name)
            text = _read(path)
            cfg = scenario_io.parse_scenario_with_overrides(text, self.overrides)
            out = os.path.join(self.out, name)
            argv = ["run", "--scenario", path, "--out", out, "--figure", "--set", "sample_stride=1"]
            self.runs.append((name, text, cfg, out, argv))

    def run_round(self) -> tuple:
        failed = sum(cli.main(argv) != 0 for *_, argv in self.runs)
        return len(self.runs), failed

    def check(self) -> Problems:
        p = Problems()
        for name, text, cfg, out, _ in self.runs:
            cols = checks.read_csv(_read(os.path.join(out, "trajectory.csv")))
            with open(os.path.join(out, "summary.json"), encoding="utf-8") as f:
                summary = json.load(f)
            h = cfg.step_size
            q = Problems()
            q.extend_from("csv", checks.check_derived(cols, cfg.nu))
            q.extend_from("csv", checks.check_time_grid(cols, h, 1))
            q.extend_from("csv", checks.check_kinematic_bounds(cols, cfg.nu))
            program = cfg.evader_program
            if isinstance(program, (Zero, Constant)):
                q.extend_from("csv", checks.check_evader_closed_form(
                    cols, type(program).__name__, getattr(program, "c", 0.0), cfg.nu))
            q.extend_from("summary", checks.check_summary(
                summary, cols, cfg.label, cfg.capture_radius, cfg.t_max, h, 1))
            q.extend_from("svg", checks.check_svg(os.path.join(out, "figure.svg")))
            own = scenario_io.parse_scenario(text)
            coarse = checks.record_columns(simulation.simulate(own))
            q.extend_from(f"stride {own.sample_stride}",
                          checks.check_stride_rows(cols, coarse, own.sample_stride))
            p.extend_from(name, q)
        return p

    def self_check(self) -> Problems:
        p = Problems()
        name, _, cfg, out, _ = self.runs[0]
        text = _read(os.path.join(out, "trajectory.csv"))
        cols = checks.read_csv(checks.corrupt_csv_cell(text, "gamma"))
        if not checks.check_derived(cols, cfg.nu):
            p.add(f"a corrupted gamma cell in {name}/trajectory.csv passed the column check")
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as f:
            summary = json.load(f)
        summary["gamma_min"] = float(checks.corrupt_digit(repr(summary["gamma_min"])))
        cols = checks.read_csv(text)
        if not checks.check_summary(summary, cols, cfg.label, cfg.capture_radius,
                                    cfg.t_max, cfg.step_size, 1):
            p.add(f"a corrupted gamma_min in {name}/summary.json passed the summary check")
        return p

    def replay_inputs(self, records) -> dict:
        return {
            "parse": [(scenario_io.parse_scenario_with_overrides, (text, self.overrides))
                      for _, text, *_ in self.runs],
            "summaries": [(rec, None, None) for rec in records],
        }


# ---------------------------------------------------------------------------
# battery

#: Speed-ratio strata; engagement i draws nu from stratum i and flies evader
#: program i, so every seed covers [0.3, 0.95] evenly, runs all four
#: programs and does the same amount of work in a round.
N_STRATA = 4
NU_RANGE = (0.3, 0.95)
#: Initial ranges of the shipped scenarios: circling_evader (sqrt 97) to
#: random_weave (20).
R_INIT = (math.sqrt(97.0), 20.0)
#: The scenario format's default, which ``compare`` runs with.
CAPTURE_RADIUS = 0.05
#: Disturbance scale c1 = nu^2 (1+nu) u_e_max / (1-nu)^2 of the evader bound.
#: The shipped random_weave has c1 = 7.7, which at nu = 0.95 would certify
#: mu of about 6400 and make a round about 11M steps; this range keeps a
#: round to about 1M steps.
C1 = (0.05, 0.3)
GAMMA0_MAX = 0.9
T_MAX_FACTOR = 1.05
SAMPLES_PER_RUN = 1000
CAMOUFLAGE_TOL = 1e-3
#: Shipped scenarios run as stride twins at stride 1 and at their own stride.
#: All capture, at both strides, within one sample interval of each other;
#: ppng_lateral is left out for its 127k-sample stride-1 record.
TWIN_SCENARIOS = ("circling_evader", "random_weave", "sine_weave", "straight_chase")


def stratum_steps(nu_hi: float) -> dict:
    """Steps each law takes in a stratum: enough for its worst-case gain.

    The certified gain times the deadline grows with nu, c1, gamma0 and
    r_init, so the stratum's corner bounds every draw in it. r0 and epsilon
    are the CLI defaults (r_init / 100 and 0.01), as for ``certify``. PPNG
    at N = mu r0 has stability gain mu r0 / CAPTURE_RADIUS.
    """
    r_init = R_INIT[1]
    chain = checks.certificate_chain(
        nu_hi, C1[1] * (1.0 - nu_hi) ** 2 / (nu_hi * nu_hi * (1.0 + nu_hi)), GAMMA0_MAX,
        r_init, cli.DEFAULT_EPSILON_TARGET)
    t_max = T_MAX_FACTOR * chain["T"]
    mu = chain["mu"]
    return {law: math.ceil(t_max / checks.stability_cap(gain, nu_hi)) for law, gain in
            (("mcpg", mu), ("exact", mu), ("ppng", mu * chain["r0"] / CAPTURE_RADIUS))}


@dataclasses.dataclass
class Engagement:
    """One seeded engagement flown under all three laws."""

    design_args: dict
    configs: list  # (law name, ScenarioConfig)
    r_init: float
    gamma0: float
    cert: object = None


class Battery(Workload):
    """In-process Monte Carlo over seeded engagements; writes no files."""

    name = "battery"

    def _draw(self, rng: random.Random, i: int) -> Engagement:
        width = (NU_RANGE[1] - NU_RANGE[0]) / N_STRATA
        lo = NU_RANGE[0] + i * width
        steps = stratum_steps(lo + width)
        eps_target = cli.DEFAULT_EPSILON_TARGET
        while True:
            nu = rng.uniform(lo, lo + width)
            r_init = rng.uniform(*R_INIT)
            u_bound = rng.uniform(*C1) * (1.0 - nu) ** 2 / (nu * nu * (1.0 + nu))
            phi = rng.uniform(0.0, 2.0 * math.pi)
            pursuer = ParticleState(PlanarVector(r_init * math.cos(phi), r_init * math.sin(phi)),
                                    rng.uniform(0.0, 2.0 * math.pi))
            evader = ParticleState(PlanarVector(0.0, 0.0), rng.uniform(0.0, 2.0 * math.pi))
            rn, _, g0, _, _ = checks.kinematics(pursuer.position.x, pursuer.position.y, pursuer.heading,
                                                0.0, 0.0, evader.heading, nu)
            if -1.0 + eps_target < g0 <= GAMMA0_MAX:
                break
        kind = i % 4
        if kind == 0:
            program = Zero()
        elif kind == 1:
            program = Constant(rng.choice((-1.0, 1.0)) * u_bound * rng.uniform(0.3, 1.0))
        elif kind == 2:
            # Around sine_weave's angular frequency of 1.2.
            program = Sinusoid(amplitude=u_bound * rng.uniform(0.3, 1.0),
                               angular_freq=rng.uniform(0.3, 3.0),
                               phase=rng.uniform(0.0, 2.0 * math.pi))
        else:
            # Around random_weave's dwell of 0.6.
            program = PiecewiseRandom(seed=rng.randrange(2 ** 32), dwell=rng.uniform(0.3, 1.5),
                                      u_max=u_bound * rng.uniform(0.3, 1.0))
        design_args = dict(nu=nu, u_e_max=program.max_abs_control(), gamma0=g0, r_init=rn,
                           epsilon_target=eps_target)
        cert = gain_design.design_certificate(**design_args)
        t_max = T_MAX_FACTOR * cert.T
        common = dict(nu=nu, pursuer_init=pursuer, evader_init=evader, evader_program=program,
                      t_max=t_max, capture_radius=CAPTURE_RADIUS)
        # PPNG at N = mu r0, as ``compare`` does.
        laws = (("mcpg", MCPG(cert.mu)), ("exact", Exact(cert.mu)), ("ppng", PPNG(cert.mu * cert.r0)))
        configs = [(name, scenario_io.build_scenario(
                        pursuer_law=law, label=f"battery {i} {name}", step_size=t_max / steps[name],
                        sample_stride=max(1, steps[name] // SAMPLES_PER_RUN), **common))
                   for name, law in laws]
        return Engagement(design_args, configs, rn, g0)

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.engagements = [self._draw(rng, i) for i in range(N_STRATA)]
        self.twins = []
        for name in TWIN_SCENARIOS:
            own = scenario_io.parse_scenario(_read(_shipped_path(name)))
            self.twins.append((dataclasses.replace(own, sample_stride=1), own))
        # Capture between samples: at stride 4 the pursuer passes through a
        # 0.01 capture disk between two samples and the run ends time_limit.
        text = _read(_shipped_path("straight_chase"))
        self.twins.append(tuple(
            scenario_io.parse_scenario_with_overrides(
                text, {"capture_radius": "0.01", "sample_stride": str(s)})
            for s in (1, 4)))

    def run_round(self) -> tuple:
        # Twins first, so that their stride-1 records are freed before the
        # engagements' records pile up.
        failed = 0
        for fine_cfg, coarse_cfg in self.twins:
            fine = simulation.simulate(fine_cfg)
            coarse = simulation.simulate(coarse_cfg)
            interval = coarse_cfg.step_size * coarse_cfg.sample_stride
            failed += not (fine.termination == coarse.termination and (
                fine.capture_time is None
                or abs(fine.capture_time - coarse.capture_time) <= interval * (1.0 + 1e-12)))
        del fine, coarse
        self.results = []
        for e in self.engagements:
            e.cert = gain_design.design_certificate(**e.design_args)
            for name, cfg in e.configs:
                parsed = scenario_io.parse_scenario(scenario_io.write_scenario(cfg))
                record = simulation.simulate(parsed)
                cert = e.cert if name == "mcpg" else None
                envelope = metrics.check_envelope(record, cert) if cert else None
                _, camouflaged = metrics.camouflage_test(record, CAMOUFLAGE_TOL)
                summary = scenario_io.summary_dict(record, cert, envelope)
                self.results.append((e, name, cfg, parsed, record, envelope, camouflaged, summary))
        return len(self.results) + len(self.twins), failed

    def _check_cert(self, e: Engagement, cert: dict) -> Problems:
        a = e.design_args
        return checks.check_certificate(cert, a["nu"], a["u_e_max"], e.gamma0, e.r_init,
                                        a["epsilon_target"])

    def check(self) -> Problems:
        p = Problems()
        mcpg_zero = {}
        for e, name, cfg, parsed, record, envelope, camouflaged, summary in self.results:
            where = cfg.label
            cols = checks.record_columns(record)
            q = Problems()
            if parsed != cfg:
                q.add("write_scenario -> parse_scenario did not round-trip the config")
            q.extend_from("columns", checks.check_derived(cols, cfg.nu))
            q.extend_from("columns", checks.check_time_grid(cols, cfg.step_size, cfg.sample_stride))
            q.extend_from("columns", checks.check_kinematic_bounds(cols, cfg.nu))
            q.extend_from("summary", checks.check_summary(
                summary, cols, cfg.label, cfg.capture_radius, cfg.t_max,
                cfg.step_size, cfg.sample_stride))
            q.extend_from("camouflage", checks.check_camouflage_verdict(cols, CAMOUFLAGE_TOL, camouflaged))
            if name == "mcpg":
                cert = dataclasses.asdict(e.cert)
                q.extend_from("certificate", self._check_cert(e, cert))
                q.extend_from("certificate", checks.check_band_and_envelope(
                    cols, cert, cfg.nu, cfg.step_size, record.termination == "capture"))
                q.extend_from("commands", checks.check_mcpg_commands(cols, cert["mu"], cfg.nu))
                if envelope is not True:
                    q.add(f"check_envelope returned {envelope!r}")
                if isinstance(cfg.evader_program, Zero):
                    mcpg_zero[id(e)] = cols
            elif name == "exact" and isinstance(cfg.evader_program, Zero):
                if cols != mcpg_zero.get(id(e)):
                    q.add("exact run differs from the mcpg run under a zero evader")
            p.extend_from(where, q)
        return p

    def self_check(self) -> Problems:
        p = Problems()
        e, _, cfg, _, record, _, _, summary = self.results[0]
        summary = dict(summary)
        summary["gamma_min"] = float(checks.corrupt_digit(repr(summary["gamma_min"])))
        if not checks.check_summary(summary, checks.record_columns(record), cfg.label,
                                    cfg.capture_radius, cfg.t_max, cfg.step_size, cfg.sample_stride):
            p.add("a corrupted gamma_min summary field passed the summary check")
        cert = dataclasses.asdict(e.cert)
        cert["mu"] = float(checks.corrupt_digit(repr(cert["mu"])))
        if not self._check_cert(e, cert):
            p.add("a corrupted certificate mu passed the formula chain check")
        return p

    def replay_inputs(self, records) -> dict:
        return {
            "parse": [(scenario_io.parse_scenario, (scenario_io.write_scenario(r[2]),))
                      for r in self.results],
            "configs": [r[2] for r in self.results],
            "design": [e.design_args for e in self.engagements],
            "certs": [(r[4], r[0].cert) for r in self.results if r[1] == "mcpg"],
            "summaries": [(r[4], r[0].cert if r[1] == "mcpg" else None, r[5]) for r in self.results],
        }


WORKLOADS = {w.name: w for w in (CertifyVerify, DenseTrace, Battery)}
