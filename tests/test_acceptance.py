"""Acceptance suite: each test drives one end-to-end scenario at its stated
tolerance and emits a single PASS or FAIL line.

The random battery is drawn once per session from a fixed seed, simulated with
gains designed by the certificate chain, and shared by the battery tests.
"""

import dataclasses
import io
import json
import math
import os
import random
import time

import pytest

from conftest import Steer, csv_columns, scalar_args, state_at
from mcpursuit.cli import DEFAULT_EPSILON_TARGET
from mcpursuit.cli import main as cli_main
from mcpursuit.dynamics import ParticleState
from mcpursuit.gain_design import design_certificate
from mcpursuit.geometry import PlanarVector
from mcpursuit.guidance import (
    MCPG,
    PPNG,
    Constant,
    Exact,
    PiecewiseRandom,
    Sinusoid,
    Zero,
    scalar_pursuer_control,
    stability_step_cap,
)
from mcpursuit.metrics import camouflage_test, check_envelope, compute_metrics
from mcpursuit.scenario_io import (
    CSV_COLUMNS,
    TERMINATION_CAPTURE,
    TERMINATION_TIME_LIMIT,
    build_scenario,
    initial_state,
    parse_scenario,
    write_scenario,
    write_trajectory_csv,
)
from mcpursuit.simulation import simulate


def _report(tag, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


def _gamma0_of(nu, pursuer, evader):
    return compute_metrics((pursuer, evader), nu).gamma


# ---------------------------------------------------------------------------
# shared runs


@pytest.fixture(scope="module")
def aligned_run():
    """Fast evader chase at the designed gain, hundredfold range contraction."""
    nu = 0.9
    pursuer = ParticleState(PlanarVector(100.0, 0.0), math.pi / 2.0 + 0.2)
    evader = ParticleState(PlanarVector(0.0, 0.0), 1.9)
    cert = design_certificate(
        nu=nu, u_e_max=0.0, gamma0=_gamma0_of(nu, pursuer, evader),
        r_init=100.0, r0_choice=1.0,
    )
    h = 0.1 / (cert.mu * (1.0 + nu))
    config = build_scenario(nu=nu, pursuer_init=pursuer, evader_init=evader,
                            pursuer_law=MCPG(cert.mu), step_size=h, t_max=cert.T)
    t0 = time.perf_counter()
    record = simulate(config)
    return cert, record, time.perf_counter() - t0


@pytest.fixture(scope="module")
def battery():
    """Fifty randomized engagements across the speed-ratio range, each run at
    its designed gain until just past the certified deadline."""
    rng = random.Random(20260822)
    entries = []
    t0 = time.perf_counter()
    while len(entries) < 50:
        nu = rng.uniform(0.3, 0.95)
        r_init = rng.uniform(6.0, 30.0)
        r0 = r_init * rng.uniform(0.04, 0.12)
        eps_target = rng.uniform(0.02, 0.08)
        c1_cap = rng.uniform(0.05, 1.2)
        u_bound = c1_cap * (1.0 - nu) ** 2 / (nu * nu * (1.0 + nu))
        kind = rng.randrange(4)
        if kind == 0:
            program = Zero()
        elif kind == 1:
            program = Constant(rng.choice([-1.0, 1.0]) * u_bound * rng.uniform(0.3, 1.0))
        elif kind == 2:
            program = Sinusoid(amplitude=u_bound * rng.uniform(0.3, 1.0),
                               angular_freq=rng.uniform(0.3, 3.0),
                               phase=rng.uniform(0.0, 2.0 * math.pi))
        else:
            program = PiecewiseRandom(seed=rng.randrange(2 ** 32),
                                      dwell=rng.uniform(0.3, 1.5),
                                      u_max=u_bound * rng.uniform(0.3, 1.0))
        phi = rng.uniform(0.0, 2.0 * math.pi)
        pursuer = ParticleState(
            PlanarVector(r_init * math.cos(phi), r_init * math.sin(phi)),
            rng.uniform(0.0, 2.0 * math.pi))
        evader = ParticleState(PlanarVector(0.0, 0.0), rng.uniform(0.0, 2.0 * math.pi))
        gamma0 = _gamma0_of(nu, pursuer, evader)
        if gamma0 > 0.9:
            continue
        cert = design_certificate(nu=nu, u_e_max=program.max_abs_control(),
                                  gamma0=gamma0, r_init=r_init,
                                  epsilon_target=eps_target, r0_choice=r0)
        if cert.met_at_start:
            continue
        h = 0.1 / (cert.mu * (1.0 + nu))
        t_max = 1.05 * cert.T + h
        steps = int(math.ceil(t_max / h))
        if steps > 120_000:
            continue
        config = build_scenario(
            nu=nu, pursuer_init=pursuer, evader_init=evader,
            pursuer_law=MCPG(cert.mu), evader_program=program,
            step_size=h, t_max=t_max,
            capture_radius=min(0.05, r0 / 4.0),
            sample_stride=max(1, steps // 2000))
        entries.append((config, cert, simulate(config)))
    return entries, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# acceptance scenarios


def test_certified_gain_drives_alignment_monotonically(aligned_run):
    cert, record, wall = aligned_run
    worst = max(b - a for a, b in zip(record.gamma, record.gamma[1:]))
    t1 = next((t for t, g in zip(record.t, record.gamma)
               if g <= -1.0 + cert.epsilon), None)
    ok = worst <= 1e-9 and t1 is not None and t1 <= cert.T and wall < 5.0
    _report(
        "monotone-alignment",
        ok,
        f"worst per-step increase {worst:.3e} (slack 1e-9), "
        f"band reached at t={t1:.4f} of deadline {cert.T:.2f}, wall {wall:.2f}s",
    )


def test_tripling_the_gain_cuts_ripple_about_ninefold():
    nu = 0.9
    h = 0.1 / (1800.0 * (1.0 + nu))
    t0 = time.perf_counter()
    ratios = {}
    for name, program in (
        ("sine", Sinusoid(amplitude=0.1, angular_freq=2.1, phase=0.4)),
        ("random", PiecewiseRandom(seed=5, dwell=0.7, u_max=0.1)),
    ):
        peaks = []
        for mu in (600.0, 1800.0):
            config = build_scenario(
                nu=nu,
                pursuer_init=ParticleState(PlanarVector(10.0, 0.0), math.pi / 2.0),
                evader_init=ParticleState(PlanarVector(0.0, 0.0), 0.15),
                pursuer_law=MCPG(mu), evader_program=program,
                step_size=h, t_max=5.0, sample_stride=10)
            record = simulate(config)
            assert record.termination == TERMINATION_TIME_LIMIT
            peaks.append(
                max(g for t, g in zip(record.t, record.gamma) if t >= 2.0) + 1.0)
        ratios[name] = peaks[0] / peaks[1]
    wall = time.perf_counter() - t0
    ok = all(6.0 <= r <= 12.0 for r in ratios.values()) and wall < 30.0
    _report(
        "gain-tripling-ripple",
        ok,
        f"settled-peak ratios sine {ratios['sine']:.3f}, random "
        f"{ratios['random']:.3f}, both in [6, 12], wall {wall:.1f}s",
    )


SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scenarios")


def _shipped():
    """(name, config) of each shipped scenario, in name order."""
    for name in sorted(os.listdir(SCENARIOS)):
        with open(os.path.join(SCENARIOS, name), encoding="utf-8") as f:
            yield name[:-4], parse_scenario(f.read())


def _designed(config):
    """The certificate certify designs for a scenario."""
    sample = compute_metrics(initial_state(config), config.nu)
    return design_certificate(
        nu=config.nu, u_e_max=config.evader_program.max_abs_control(),
        gamma0=sample.gamma, r_init=sample.baseline_len,
        epsilon_target=DEFAULT_EPSILON_TARGET)


def _mcpg_at_cap(config, mu, t_max):
    """The scenario flown by MCPG(mu) at its stability cap, every step recorded."""
    law = MCPG(mu)
    return simulate(dataclasses.replace(
        config, pursuer_law=law, sample_stride=1, t_max=t_max,
        step_size=stability_step_cap(law, config.nu, config.capture_radius)))


def test_band_entry_time_scales_as_one_over_the_gain():
    # The paper's high-gain limit: in scaled time tau = mu*t the gamma
    # dynamics become autonomous, so the band entry time t_enter ~ C/mu. Each
    # shipped geometry flies MCPG at a quarter, one and four times the gain
    # certify designs, at the stability cap, whose step in tau is 0.1/(1+nu).
    t0 = time.perf_counter()
    spread = {}
    for name, config in _shipped():
        cert = _designed(config)
        scaled_entries = []
        for m in (0.25, 1.0, 4.0):
            mu = cert.mu * m
            record = _mcpg_at_cap(config, mu, 40.0 / mu)
            t_enter = next((t for t, g in zip(record.t, record.gamma)
                            if g <= -1.0 + cert.epsilon), math.inf)
            scaled_entries.append(t_enter * mu)
        tau_step = 0.1 / (1.0 + config.nu)
        spread[name] = (scaled_entries, tau_step)
    wall = time.perf_counter() - t0
    ok = all(all(map(math.isfinite, entries)) and max(entries) - min(entries) <= tau_step
             for entries, tau_step in spread.values())
    _report(
        "high-gain-entry-time",
        ok,
        "t_enter*mu at mu_cert*{1/4, 1, 4}: " + "; ".join(
            f"{name} " + "/".join(f"{v:.4f}" for v in entries) + f" (step {tau_step:.4f})"
            for name, (entries, tau_step) in spread.items()) + f"; wall {wall:.2f}s",
    )


def _boundary_layer_error(record):
    """Largest |gamma - gamma_bl| over a stride-1 MCPG record.

    gamma_bl comes from the high-gain limit: in tau = mu*t the positions and
    the evader's heading freeze at their t = 0 values, and the pursuer's
    heading follows dthp/dtau = (r x v(thp))/|r|. A separate RK4 of that ODE
    at mu*h/100 lands on every sample.
    """
    config = record.scenario
    nu = config.nu
    p, e = initial_state(config)
    rx, ry = p.position.x - e.position.x, p.position.y - e.position.y
    rn = math.sqrt(rx * rx + ry * ry)
    vex, vey = nu * math.cos(e.heading), nu * math.sin(e.heading)

    def w(th):
        return (rx * (math.sin(th) - vey) - ry * (math.cos(th) - vex)) / rn

    def gamma_bl(th):
        vx, vy = math.cos(th) - vex, math.sin(th) - vey
        return (rx * vx + ry * vy) / (rn * math.sqrt(vx * vx + vy * vy))

    d = config.pursuer_law.mu * config.step_size / 100.0
    th = p.heading
    worst = abs(record.gamma[0] - gamma_bl(th))
    for g in record.gamma[1:]:
        for _ in range(100):
            k1 = w(th)
            k2 = w(th + 0.5 * d * k1)
            k3 = w(th + 0.5 * d * k2)
            k4 = w(th + d * k3)
            th += d * (k1 + 2.0 * (k2 + k3) + k4) / 6.0
        worst = max(worst, abs(g - gamma_bl(th)))
    return worst


def test_gamma_converges_to_the_boundary_layer_at_rate_one_over_the_gain():
    # The paper's high-gain limit over the whole transient: gamma(tau/mu)
    # tends to the boundary layer's gamma_bl(tau) as 1/mu. Each shipped
    # geometry flies MCPG to tau = 8 at a quarter, one, four and sixteen times
    # the gain certify designs, at the stability cap and stride 1.
    t0 = time.perf_counter()
    ratios = {}
    for name, config in _shipped():
        cert = _designed(config)
        errors = []
        for m in (0.25, 1.0, 4.0, 16.0):
            mu = cert.mu * m
            record = _mcpg_at_cap(config, mu, 8.0 / mu)
            assert record.termination == TERMINATION_TIME_LIMIT
            errors.append(_boundary_layer_error(record))
        ratios[name] = [a / b for a, b in zip(errors, errors[1:])]
    wall = time.perf_counter() - t0
    ok = all(3.5 <= r <= 4.5 for rs in ratios.values() for r in rs)
    _report(
        "high-gain-transient",
        ok,
        "max|gamma - gamma_bl| cut per 4x in mu from mu_cert/4 to 16 mu_cert, each in "
        "[3.5, 4.5]: " + "; ".join(
            f"{name} " + "/".join(f"{r:.3f}" for r in rs) for name, rs in ratios.items())
        + f"; wall {wall:.2f}s",
    )


def test_the_certified_band_carries_the_range_down_to_r0_by_its_deadline():
    # The certificate puts gamma in the band gamma <= -1 + eps by T, and the
    # band is forward invariant while |r| >= r0. With d|r|/dt = gamma |rdot|
    # and |rdot| >= 1 - nu, |r| then falls at least at (1-eps)(1-nu), so it
    # reaches r0 by T_r0 = T + 2(r_init - r0)/((1-eps)(1-nu)), and by the
    # a-posteriori t1 + (|r(t1)| - r0)/((1-eps)(1-nu)). This corollary is
    # derived in the ROADMAP (item 17), not in the paper. Each shipped
    # geometry but random_weave (some 2 s) flies MCPG(mu_cert) at the capped
    # step, stride 20, capture radius min(R, r0), to t_max = T_r0.
    t0 = time.perf_counter()
    found = {}
    ok = True
    for name, config in _shipped():
        if name == "random_weave":
            continue
        cert = _designed(config)
        law = MCPG(cert.mu)
        radius = min(config.capture_radius, cert.r0)
        rate = (1.0 - cert.epsilon) * (1.0 - config.nu)
        deadline = cert.T + 2.0 * (cert.r_init - cert.r0) / rate
        step = min(config.step_size, stability_step_cap(law, config.nu, radius))
        record = simulate(dataclasses.replace(
            config, pursuer_law=law, step_size=step, sample_stride=20,
            capture_radius=radius, t_max=deadline))
        band = -1.0 + cert.epsilon
        i1 = next(i for i, g in enumerate(record.gamma) if g <= band)
        t1 = record.t[i1]
        stays = all(g <= band for g, r in zip(record.gamma[i1:], record.r_norm[i1:])
                    if r >= cert.r0)
        bound = t1 + (record.r_norm[i1] - cert.r0) / rate
        reached = next((t for t, r in zip(record.t, record.r_norm) if r <= cert.r0), math.inf)
        ok = ok and t1 <= cert.T and stays and reached <= min(deadline, bound)
        found[name] = (t1, cert.T, stays, reached, bound, deadline)
    wall = time.perf_counter() - t0
    _report(
        "range-deadline",
        ok,
        "t1 <= T, in band while |r| >= r0, |r| <= r0 by both bounds: " + "; ".join(
            f"{name} t1 {t1:.4f} <= T {T:.3f}, band {stays}, r0 at {reached:.3f} "
            f"<= {bound:.3f} and {deadline:.2f}"
            for name, (t1, T, stays, reached, bound, deadline) in found.items())
        + f"; wall {wall:.2f}s",
    )


def test_a_rigid_motion_of_the_start_leaves_every_sample_unchanged():
    # The laws and metrics read only relative quantities and the programs only
    # the time, so rotating both initial states (positions and headings) by
    # one angle and translating them moves nothing but rounding. t_max is cut
    # to 11 to bound the test's time; circling_evader and random_weave still
    # end by capture, the others at the time limit.
    def moved(state, phi, dx, dy):
        c, s = math.cos(phi), math.sin(phi)
        x, y = state.position.x, state.position.y
        return ParticleState(PlanarVector(c * x - s * y + dx, s * x + c * y + dy),
                             state.heading + phi)

    d_gamma = d_range = d_up = 0.0
    ends = {}
    same = True
    for name, config in _shipped():
        config = dataclasses.replace(config, t_max=min(config.t_max, 11.0))
        a = simulate(config)
        ends[name] = a.termination
        for phi, dx, dy in ((0.7, 3.5, -12.25), (-2.3, -7.0, 5.5)):
            b = simulate(dataclasses.replace(
                config, pursuer_init=moved(config.pursuer_init, phi, dx, dy),
                evader_init=moved(config.evader_init, phi, dx, dy)))
            same = same and (b.termination, b.n_samples) == (a.termination, a.n_samples)
            d_gamma = max(d_gamma, *(abs(x - y) for x, y in zip(a.gamma, b.gamma)))
            d_range = max(d_range, *(abs(x - y) / x for x, y in zip(a.r_norm, b.r_norm)))
            d_up = max(d_up, *(abs(x - y) for x, y in zip(a.u_p, b.u_p)))
    ok = (same and TERMINATION_CAPTURE in ends.values()
          and d_gamma <= 1e-9 and d_range <= 1e-8 and d_up <= 1e-9)
    _report(
        "rigid-motion-invariance",
        ok,
        f"same end and sample count: {same} ({ends}); largest |dgamma| {d_gamma:.1e} "
        f"(budget 1e-9), relative d|r| {d_range:.1e} (1e-8), |du_p| {d_up:.1e} (1e-9)",
    )


def test_randomized_battery_meets_its_certificates(battery):
    entries, wall = battery
    failures = []
    for i, (config, cert, record) in enumerate(entries):
        t1 = next((t for t, g in zip(record.t, record.gamma)
                   if g <= -1.0 + cert.epsilon), None)
        captured_aligned = (
            record.termination == TERMINATION_CAPTURE
            and record.gamma[-1] <= -1.0 + math.sqrt(cert.epsilon))
        if not ((t1 is not None and t1 <= cert.T) or captured_aligned):
            failures.append(i)
    ok = not failures and wall < 300.0
    _report(
        "certified-battery",
        ok,
        f"{len(entries) - len(failures)}/{len(entries)} engagements reached the "
        f"alignment band by their deadline, wall {wall:.1f}s (failures: {failures})",
    )


def test_randomized_battery_respects_the_decay_envelope(battery):
    entries, _ = battery
    failures = [i for i, (config, cert, record) in enumerate(entries)
                if not check_envelope(record, cert)]
    _report(
        "decay-envelope",
        not failures,
        f"{len(entries) - len(failures)}/{len(entries)} runs under the "
        f"tanh envelope with 10*h^2 slack (failures: {failures})",
    )


def test_all_records_satisfy_structural_invariants(battery, aligned_run):
    entries, _ = battery
    _, aligned_record, _ = aligned_run
    records = [(config.nu, record) for config, _, record in entries]
    records.append((0.9, aligned_record))
    worst_identity = 0.0
    worst_shortfall = -math.inf
    bad = 0
    for nu, record in records:
        r_start = record.r_norm[0]
        for j in range(record.n_samples):
            g = record.gamma[j]
            if not -1.0 <= g <= 1.0:
                bad += 1
            drx = math.cos(record.ptheta[j]) - nu * math.cos(record.etheta[j])
            dry = math.sin(record.ptheta[j]) - nu * math.sin(record.etheta[j])
            dn = math.hypot(drx, dry)
            if not (1.0 - nu - 1e-12 <= dn <= 1.0 + nu + 1e-12):
                bad += 1
            identity = abs(g * g + (record.w[j] / dn) ** 2 - 1.0)
            worst_identity = max(worst_identity, identity)
            if identity > 1e-10:
                bad += 1
            floor = r_start - (1.0 + nu) * record.t[j] - 1e-9 * max(1.0, r_start)
            worst_shortfall = max(worst_shortfall, floor - record.r_norm[j])
            if record.r_norm[j] < floor:
                bad += 1
    ok = bad == 0
    _report(
        "structural-invariants",
        ok,
        f"{len(records)} records clean; worst identity error {worst_identity:.2e} "
        f"(budget 1e-10), worst range-bound shortfall {worst_shortfall:.2e}",
    )


def test_camouflage_verdicts_separate_aligned_and_misaligned_runs():
    nu = 0.6
    theta_e = 0.25
    baseline = PlanarVector(-12.0, 3.0)
    rn = math.hypot(baseline.x, baseline.y)
    bx, by = baseline.x / rn, baseline.y / rn
    ex_dir, ey_dir = math.cos(theta_e), math.sin(theta_e)
    c = ex_dir * bx + ey_dir * by
    s = nu * c + math.sqrt(nu * nu * c * c + 1.0 - nu * nu)
    theta_p = math.atan2(nu * ey_dir - s * by, nu * ex_dir - s * bx)

    def run(heading_offset, u_e_value):
        config = build_scenario(
            nu=nu,
            pursuer_init=ParticleState(baseline, theta_p + heading_offset),
            evader_init=ParticleState(PlanarVector(0.0, 0.0), theta_e),
            pursuer_law=Steer(0.0), evader_program=Constant(u_e_value),
            step_size=0.01, t_max=10.0)
        return simulate(config)

    def peak_w_over_speed(record):
        out = 0.0
        for w, pt, et in zip(record.w, record.ptheta, record.etheta):
            dn = math.hypot(math.cos(pt) - nu * math.cos(et),
                            math.sin(pt) - nu * math.sin(et))
            out = max(out, abs(w) / dn)
        return out

    # On the manifold: straight motion keeps the baseline direction fixed.
    exact = run(0.0, 0.0)
    exact_peak = peak_w_over_speed(exact)
    _, exact_ok = camouflage_test(exact, 1e-9)

    # A 1e-4 heading error shows up at the matching scale in both verdicts.
    bent = run(1e-4, 0.0)
    tau, _ = camouflage_test(bent, math.inf)
    bent_peak = peak_w_over_speed(bent)

    # A turning evader under a frozen pursuer is not camouflaged.
    _, turning_ok = camouflage_test(run(0.0, 0.5), 1e-3)

    ok = (exact_ok and exact_peak <= 1e-9
          and bent_peak <= 10.0 * tau and tau > 1e-6
          and not turning_ok)
    _report(
        "camouflage-verdicts",
        ok,
        f"manifold peak {exact_peak:.2e} <= 1e-9 and verdict {exact_ok}; "
        f"perturbed peak {bent_peak:.2e} <= 10*tau with tau {tau:.2e}; "
        f"turning-evader verdict {turning_ok} (expected False)",
    )


def test_integrator_shows_fourth_order_convergence():
    # Constant unit curvature has a closed-form circular arc; one unit of arc
    # keeps the per-step truncation terms from cancelling by symmetry the way
    # a full revolution does.
    x0, y0, th0 = 0.25, -0.5, 0.6

    def circle_error(h):
        config = build_scenario(
            nu=0.5,
            pursuer_init=ParticleState(PlanarVector(x0, y0), th0),
            evader_init=ParticleState(PlanarVector(5.0, 5.0), 0.0),
            pursuer_law=Steer(1.0), step_size=h, t_max=1.0)
        record = simulate(config)
        assert record.termination == TERMINATION_TIME_LIMIT
        t = record.t[-1]
        cx = x0 + math.sin(th0 + t) - math.sin(th0)
        cy = y0 - math.cos(th0 + t) + math.cos(th0)
        return math.hypot(record.px[-1] - cx, record.py[-1] - cy)

    circle_ratio = circle_error(0.05) / circle_error(0.025)

    # The order also survives closed-loop feedback: endpoint error of a full
    # engagement against an eightfold-finer reference run.
    def engagement_end(h):
        config = build_scenario(
            nu=0.6,
            pursuer_init=ParticleState(PlanarVector(6.0, 1.0), 2.4),
            evader_init=ParticleState(PlanarVector(0.0, 0.0), 3.3),
            pursuer_law=MCPG(3.0),
            evader_program=Sinusoid(amplitude=0.5, angular_freq=1.7, phase=0.2),
            step_size=h, t_max=4.0)
        record = simulate(config)
        assert record.termination == TERMINATION_TIME_LIMIT
        return (record.px[-1], record.py[-1], record.ex[-1], record.ey[-1])

    ref = engagement_end(0.0025)
    errs = [math.sqrt(sum((a - b) ** 2 for a, b in zip(engagement_end(h), ref)))
            for h in (0.02, 0.01)]
    engagement_ratio = errs[0] / errs[1]
    ok = (12.0 <= circle_ratio <= 20.0
          and 12.0 <= engagement_ratio <= 20.0 and errs[1] > 1e-13)
    _report(
        "fourth-order-convergence",
        ok,
        f"closed-form circle halving ratio {circle_ratio:.2f}, closed-loop "
        f"engagement ratio {engagement_ratio:.2f}, both in [12, 20]",
    )


def test_gain_families_coincide_under_their_equivalences(battery, tmp_path):
    entries, _ = battery
    config, cert, record = entries[0]
    nu = config.nu
    mu = cert.mu
    mcpg = scalar_pursuer_control(MCPG(mu), nu)
    worst = 0.0
    for i in range(record.n_samples):
        args = scalar_args(state_at(record, i), t=record.t[i])
        a = mcpg(*args)
        b = scalar_pursuer_control(PPNG(mu * record.r_norm[i]), nu)(*args)
        scale = max(1.0, abs(a))
        worst = max(worst, abs(a - b) / scale)
    pointwise_ok = worst <= 1e-12

    # The comparison command against a straight evader: the feedforward term
    # vanishes, so the mcpg and exact runs must be bit-identical on disk.
    scenario_path = tmp_path / "straight.txt"
    scenario_path.write_text(
        "nu = 0.5\n"
        "pursuer_init.x = 8.0\npursuer_init.y = -3.0\npursuer_init.heading = 1.1\n"
        "evader_init.x = 0.0\nevader_init.y = 0.0\nevader_init.heading = 2.9\n"
        "pursuer_law.variant = mcpg\npursuer_law.mu = 4.0\n"
        "step_size = 0.01\nt_max = 3.0\n",
        encoding="utf-8",
    )
    out = tmp_path / "cmp"
    assert cli_main(["compare", "--scenario", str(scenario_path),
                     "--out", str(out)]) == 0
    columns_equal = (
        (out / "mcpg" / "trajectory.csv").read_bytes()
        == (out / "exact" / "trajectory.csv").read_bytes())
    ok = pointwise_ok and columns_equal
    _report(
        "law-equivalences",
        ok,
        f"range-scaled gain matches pointwise to {worst:.2e} (tol 1e-12) over "
        f"{record.n_samples} states; compare run wrote identical mcpg and "
        f"exact trajectories: {columns_equal}",
    )


CORPUS_LAWS = [MCPG(2.0), Exact(3.5), PPNG(4.25)]
CORPUS_PROGRAMS = [
    Zero(),
    Constant(0.35),
    Sinusoid(amplitude=0.3, angular_freq=1.25, phase=0.5),
    PiecewiseRandom(seed=99, dwell=0.75, u_max=0.4),
]


def test_outputs_are_deterministic_and_round_trip(tmp_path):
    scenario_path = tmp_path / "scenario.txt"
    scenario_path.write_text(
        "nu = 0.4\n"
        "pursuer_init.x = 3.0\npursuer_init.y = 0.0\npursuer_init.heading = 2.0\n"
        "evader_init.x = 0.0\nevader_init.y = 0.0\nevader_init.heading = 0.5\n"
        "pursuer_law.variant = mcpg\npursuer_law.mu = 2.0\n"
        "step_size = 0.02\nt_max = 2.0\nsample_stride = 5\n",
        encoding="utf-8",
    )
    outs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        code = cli_main(["run", "--scenario", str(scenario_path),
                         "--out", str(out), "--figure"])
        assert code == 0
        outs.append(out)
    identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("trajectory.csv", "summary.json", "figure.svg"))
    summary = json.loads((outs[0] / "summary.json").read_text(encoding="utf-8"))

    # Bit-exact CSV round trip on a freshly simulated record.
    config = build_scenario(
        nu=0.4,
        pursuer_init=ParticleState(PlanarVector(3.0, 0.0), 2.0),
        evader_init=ParticleState(PlanarVector(0.0, 0.0), 0.5),
        pursuer_law=MCPG(2.0), step_size=0.02, t_max=2.0)
    record = simulate(config)
    sink = io.StringIO()
    write_trajectory_csv(record, sink)
    columns = csv_columns(io.StringIO(sink.getvalue()))
    round_trip = all(columns[name] == list(getattr(record, name))
                     for name in CSV_COLUMNS)

    # Twenty scenario files survive write -> parse -> write unchanged.
    corpus_ok = True
    count = 0
    for i in range(20):
        config = build_scenario(
            nu=0.3 + 0.03 * i,
            pursuer_init=ParticleState(
                PlanarVector(5.0 + i, (-1.0) ** i * (1.0 + 0.1 * i)), 0.3 * i),
            evader_init=ParticleState(PlanarVector(0.0, 0.0), 0.1 * i - 1.0),
            pursuer_law=CORPUS_LAWS[i % 3],
            evader_program=CORPUS_PROGRAMS[i % 4],
            t_max=10.0 + i,
            sample_stride=1 + i % 3,
            label=f"corpus {i}",
        )
        path = tmp_path / f"corpus_{i:02d}.txt"
        path.write_text(write_scenario(config), encoding="utf-8")
        parsed = parse_scenario(path.read_text(encoding="utf-8"))
        count += 1
        if parsed != config or write_scenario(parsed) != path.read_text(encoding="utf-8"):
            corpus_ok = False
    ok = identical and round_trip and corpus_ok and summary["schema"] == 1
    _report(
        "deterministic-io",
        ok,
        f"repeat runs byte-identical: {identical}; CSV round trip exact: "
        f"{round_trip}; {count}-file corpus stable: {corpus_ok}",
    )
