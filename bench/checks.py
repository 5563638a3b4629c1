"""Output checks made apart from the program.

Every formula here is written out again from the paper's definitions (see
the docstrings of ``mcpursuit.metrics`` and ``mcpursuit.gain_design``) and
does not call the package, so a fault in a package formula cannot hide
behind the same formula in its check. Each check returns a ``Problems``
list; an empty one passes.
"""

from __future__ import annotations

import math

COLUMNS = (
    "t", "px", "py", "ptheta", "ex", "ey", "etheta",
    "u_p", "u_e", "r_norm", "gamma", "w", "los_rate", "residual",
)
STATE = COLUMNS[:7]
DERIVED = ("r_norm", "gamma", "w", "los_rate", "residual")


class Problems(list):
    """Problem messages; keeps the first few and counts the rest."""

    KEEP = 8

    def __init__(self):
        super().__init__()
        self.dropped = 0

    def add(self, message: str) -> None:
        if len(self) < self.KEEP:
            self.append(message)
        else:
            self.dropped += 1

    def extend_from(self, where: str, other: "Problems") -> None:
        for message in other:
            self.add(f"{where}: {message}")
        self.dropped += other.dropped


def _close(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


# ---------------------------------------------------------------------------
# reading outputs


def read_csv(text: str) -> dict:
    """Trajectory CSV text to columns, without the package's reader."""
    lines = text.splitlines()
    if tuple(lines[0].split(",")) != COLUMNS:
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    cols = {name: [] for name in COLUMNS}
    appends = [cols[name].append for name in COLUMNS]
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(COLUMNS):
            raise ValueError(f"row with {len(cells)} cells: {line!r}")
        for append, cell in zip(appends, cells):
            append(float(cell))
    return cols


def record_columns(record) -> dict:
    return {name: getattr(record, name) for name in COLUMNS}


def corrupt_digit(text: str) -> str:
    """Change the third digit of a number's text (or its last, if shorter) by 5 mod 10."""
    where = [i for i, ch in enumerate(text) if ch.isdigit()][:3]
    i = where[-1]
    return text[:i] + str((int(text[i]) + 5) % 10) + text[i + 1:]


def corrupt_csv_cell(text: str, column: str) -> str:
    """Corrupt one digit of one cell: the middle row's ``column``."""
    lines = text.split("\n")
    row = (len(lines) - 1) // 2 or 1
    cells = lines[row].split(",")
    j = COLUMNS.index(column)
    cells[j] = corrupt_digit(cells[j])
    lines[row] = ",".join(cells)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# kinematics and the certificate chain, written out from the paper


def kinematics(px, py, pth, ex, ey, eth, nu):
    """(|r|, |rdot|, gamma, w, r x rdot) for one state.

    r is the baseline from evader to pursuer, rdot = (cos pth, sin pth) -
    nu (cos eth, sin eth), gamma = r.rdot / (|r| |rdot|) clamped to [-1, 1]
    and w = (r x rdot) / |r|.
    """
    rx = px - ex
    ry = py - ey
    vx = math.cos(pth) - nu * math.cos(eth)
    vy = math.sin(pth) - nu * math.sin(eth)
    rn = math.hypot(rx, ry)
    vn = math.hypot(vx, vy)
    cross = rx * vy - ry * vx
    gamma = max(-1.0, min(1.0, (rx * vx + ry * vy) / (rn * vn)))
    return rn, vn, gamma, cross / rn, cross


def certificate_chain(nu, u_e_max, gamma0, r_init, epsilon_target=0.01, r0=None):
    """The gain-design constants for a start that is not yet in the band."""
    if r0 is None:
        r0 = r_init / 100.0
    if gamma0 <= -1.0 + epsilon_target:
        raise ValueError(f"gamma0 {gamma0} already in the target band")
    c1 = nu * nu * (1.0 + nu) * u_e_max / (1.0 - nu) ** 2
    eps = min(epsilon_target, 1.0 - gamma0 * gamma0)
    sq = math.sqrt(eps)
    c2_req = (1.0 + nu) * (math.atanh(gamma0) - 0.5 * math.log(eps / (2.0 - eps))) / (r_init - r0)
    c0 = max(2.0 * c1 / sq, c2_req + c1 / sq)
    return {
        "c1": c1,
        "epsilon": eps,
        "c2": c0 - c1 / sq,
        "mu": ((1.0 + nu) / (1.0 - nu)) * ((1.0 + nu) / r0 + c0),
        "T": (r_init - r0) / (1.0 + nu),
        "r0": r0,
    }


def stability_cap(gain: float, nu: float) -> float:
    """Largest step the README allows for a law of effective gain ``gain``."""
    return 0.1 / (gain * (1.0 + nu))


# ---------------------------------------------------------------------------
# checks


def check_certificate(cert: dict, nu, u_e_max, gamma0, r_init, epsilon_target=0.01, r0=None):
    """Certificate constants against the formula chain, to 1e-12."""
    p = Problems()
    want = certificate_chain(nu, u_e_max, gamma0, r_init, epsilon_target, r0)
    for key, value in want.items():
        if not _close(cert[key], value, rel=1e-12, abs_=0.0):
            p.add(f"certificate {key} = {cert[key]!r}, formula chain gives {value!r}")
    if cert.get("met_at_start"):
        p.add("certificate claims the band is met at the start")
    return p


def check_derived(cols: dict, nu: float) -> Problems:
    """Metric columns recomputed from the state columns, and the identities."""
    p = Problems()
    rows = zip(*(cols[name] for name in STATE + DERIVED))
    for i, (t, px, py, pth, ex, ey, eth, rn_c, g_c, w_c, los_c, res_c) in enumerate(rows):
        rn, vn, g, w, _ = kinematics(px, py, pth, ex, ey, eth, nu)
        want = (rn, g, w, w / rn, 1.0 - g * g)
        for name, got, value in zip(DERIVED, (rn_c, g_c, w_c, los_c, res_c), want):
            if not _close(got, value):
                p.add(f"row {i} t={t!r}: {name} = {got!r}, recomputed {value!r}")
        if abs(g_c * g_c + (w_c / vn) ** 2 - 1.0) > 1e-10:
            p.add(f"row {i}: gamma^2 + (w/|rdot|)^2 = {g_c * g_c + (w_c / vn) ** 2!r}")
        if not (-1.0 <= g_c <= 1.0 and 1.0 - nu - 1e-12 <= vn <= 1.0 + nu + 1e-12):
            p.add(f"row {i}: gamma {g_c!r} or |rdot| {vn!r} out of range")
    return p


def check_time_grid(cols: dict, h: float, stride: int) -> Problems:
    """Sample i lies at (i * stride) * h exactly."""
    p = Problems()
    for i, t in enumerate(cols["t"]):
        if t != (i * stride) * h:
            p.add(f"row {i}: t = {t!r}, expected {(i * stride) * h!r}")
    return p


def check_kinematic_bounds(cols: dict, nu: float) -> Problems:
    """Range bound |r(t)| >= |r(0)| - (1+nu) t and the speed bounds between samples."""
    p = Problems()
    t, px, py, ex, ey = (cols[k] for k in ("t", "px", "py", "ex", "ey"))
    r_init = math.hypot(px[0] - ex[0], py[0] - ey[0])
    slack = 1e-9 * max(1.0, r_init)
    for i in range(len(t)):
        r = math.hypot(px[i] - ex[i], py[i] - ey[i])
        if r < r_init - (1.0 + nu) * t[i] - slack:
            p.add(f"row {i}: |r| = {r!r} below the range bound at t={t[i]!r}")
        if i:
            dt = t[i] - t[i - 1]
            dp = math.hypot(px[i] - px[i - 1], py[i] - py[i - 1])
            de = math.hypot(ex[i] - ex[i - 1], ey[i] - ey[i - 1])
            if dp > dt * (1.0 + 1e-9) + 1e-15 or de > nu * dt * (1.0 + 1e-9) + 1e-15:
                p.add(f"row {i}: displacement {dp!r}/{de!r} exceeds speed bound over {dt!r}")
    return p


def check_band_and_envelope(cols: dict, cert: dict, nu: float, h: float, captured: bool) -> Problems:
    """The certified band is reached by T and gamma stays under the envelope.

    gamma is rederived from the state columns. While t <= T, |r| >= r0 and
    gamma > -1 + eps, gamma(t) <= tanh(atanh(gamma0) - c2 t) + 10 h^2.
    A run that is captured aligned (gamma <= -1 + sqrt(eps)) before reaching
    the band also meets its certificate.
    """
    p = Problems()
    floor = -1.0 + cert["epsilon"]
    slack = 10.0 * h * h
    a0 = math.atanh(cert["gamma0"])
    t1 = None
    g = None
    for i, t in enumerate(cols["t"]):
        rn, _, g, _, _ = kinematics(*(cols[k][i] for k in STATE[1:]), nu)
        if t1 is None and g <= floor:
            t1 = t
        if t > cert["T"] or rn < cert["r0"] or g <= floor:
            continue
        bound = math.tanh(a0 - cert["c2"] * t) + slack
        if g > bound:
            p.add(f"row {i} t={t!r}: gamma {g!r} above envelope {bound!r}")
    aligned = captured and g is not None and g <= -1.0 + math.sqrt(cert["epsilon"])
    if not ((t1 is not None and t1 <= cert["T"]) or aligned):
        p.add(f"band -1+eps not reached by T={cert['T']!r} (first at {t1!r})")
    return p


def check_evader_closed_form(cols: dict, program: str, c: float, nu: float, tol: float = 1e-7) -> Problems:
    """Evader path and heading against the closed form for zero and constant programs.

    A constant curvature c at speed nu turns the heading at nu*c, so the
    evader runs a circle of radius 1/|c|; c = 0 is a straight line.
    """
    p = Problems()
    x0, y0, th0 = cols["ex"][0], cols["ey"][0], cols["etheta"][0]
    for i, t in enumerate(cols["t"]):
        th = th0 + nu * c * t
        if c == 0.0:
            x = x0 + nu * t * math.cos(th0)
            y = y0 + nu * t * math.sin(th0)
        else:
            x = x0 + (math.sin(th) - math.sin(th0)) / c
            y = y0 - (math.cos(th) - math.cos(th0)) / c
        err = max(abs(cols["ex"][i] - x), abs(cols["ey"][i] - y), abs(cols["etheta"][i] - th))
        if err > tol * max(1.0, t):
            p.add(f"{program} evader row {i} t={t!r}: off the closed form by {err!r}")
    return p


def check_summary(summary: dict, cols: dict, label: str, capture_radius: float,
                  t_max: float, h: float, stride: int) -> Problems:
    """Every summary field against values recomputed from the sample columns."""
    p = Problems()
    t = cols["t"]
    captured = cols["r_norm"][-1] <= capture_radius
    if captured:
        termination = "capture"
    elif t[-1] >= t_max - 0.5 * h * stride:
        termination = "time_limit"
    else:
        termination = "non_finite"
    want = {
        "schema": 1,
        "label": label,
        "termination": termination,
        "n_samples": len(t),
        "capture_time": t[-1] if captured else None,
        "final_time": t[-1],
        "final_r_norm": cols["r_norm"][-1],
        "gamma_min": min(cols["gamma"]),
        "gamma_max": max(cols["gamma"]),
        "gamma_final": cols["gamma"][-1],
        "peak_residual": max(cols["residual"]),
        "peak_abs_u_p": max(abs(v) for v in cols["u_p"]),
    }
    for key, value in want.items():
        if summary.get(key) != value:
            p.add(f"summary {key} = {summary.get(key)!r}, recomputed {value!r}")
    return p


def check_svg(path: str) -> Problems:
    import xml.etree.ElementTree as ET

    p = Problems()
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        p.add(f"{path} is not XML: {exc}")
        return p
    if not root.tag.endswith("svg") or not list(root):
        p.add(f"{path} has no SVG content")
    return p


def check_stride_rows(fine: dict, coarse: dict, stride: int) -> Problems:
    """Every stride-th stride-1 row equals the coarse run's row, bit for bit."""
    p = Problems()
    n = min(len(coarse["t"]), (len(fine["t"]) + stride - 1) // stride)
    for i in range(n):
        j = i * stride
        for name in COLUMNS:
            if fine[name][j] != coarse[name][i]:
                p.add(f"row {j} {name} = {fine[name][j]!r}, stride-{stride} run has {coarse[name][i]!r}")
    return p


def check_mcpg_commands(cols: dict, mu: float, nu: float) -> Problems:
    """Recorded MCPG command equals mu*w and PPNG with N = mu |r|, to 1e-12."""
    p = Problems()
    for i in range(len(cols["t"])):
        rn, _, _, w, cross = kinematics(*(cols[k][i] for k in STATE[1:]), nu)
        u = cols["u_p"][i]
        ppng = (mu * rn) * cross / (rn * rn)
        scale = 1e-12 * max(1.0, abs(u))
        if abs(u - mu * w) > scale or abs(u - ppng) > scale:
            p.add(f"row {i}: u_p {u!r}, mu*w {mu * w!r}, ppng {ppng!r}")
    return p


def check_camouflage_verdict(cols: dict, tol: float, verdict: bool) -> Problems:
    """The verdict holds iff every baseline stays within tol of its initial bearing."""
    px, py, ex, ey = (cols[k] for k in ("px", "py", "ex", "ey"))
    bx, by = px[0] - ex[0], py[0] - ey[0]
    b = math.hypot(bx, by)
    bx, by = bx / b, by / b
    ok = all(abs((x - a) * by - (y - c) * bx) <= tol * math.hypot(x - a, y - c)
             for x, y, a, c in zip(px, py, ex, ey))
    p = Problems()
    if ok != verdict:
        p.add(f"camouflage verdict {verdict}, recomputed {ok}")
    return p
