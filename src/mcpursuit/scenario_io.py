"""Scenario files, trajectory records, and every on-disk format.

Scenario grammar: flat ``key = value`` lines. Blank lines and lines starting
with ``#`` are ignored; keys use dots to reach into sub-records; the value is
everything after the first ``=``, stripped. Example::

    label = crossing demo
    nu = 0.9
    pursuer_init.x = 100.0
    pursuer_init.y = 0.0
    pursuer_init.heading = 3.0
    evader_init.x = 0.0
    evader_init.y = 0.0
    evader_init.heading = 1.9
    pursuer_law.variant = mcpg
    pursuer_law.mu = 40.0
    evader_program.variant = sinusoid
    evader_program.amplitude = 0.2
    evader_program.angular_freq = 0.4
    evader_program.phase = 0.0
    step_size = 0.001
    t_max = 200.0
    capture_radius = 0.05
    sample_stride = 1

The ``pursuer_law.*`` and ``evader_program.*`` keys come from the law and
program records in guidance: ``variant`` selects a record from LAWS or
PROGRAMS, and each of its dataclass fields is one key. An ``int`` field is
read as an integer, a field with a default is optional, and every other
field is a required finite number. Law variants: ``mcpg`` and ``exact`` take
``pursuer_law.mu``; ``ppng`` takes ``pursuer_law.N``. Program variants:
``zero`` (default, no parameters), ``constant`` (``c``), ``sinusoid``
(``amplitude``, ``angular_freq``, optional ``phase``), ``piecewise_random``
(``seed``, ``dwell``, ``u_max``).

A ``label`` is one line with no leading or trailing blanks. Defaults when a
key is omitted: ``label`` empty, ``evader_program.variant`` zero,
``capture_radius`` 0.05, ``sample_stride`` 1, ``t_max`` twice the initial
range divided by (1 - nu), and ``step_size`` the stability cap
0.1/(g*(1+nu)) for the law's effective gain g (g = mu for mcpg/exact,
N/capture_radius for ppng).

Trajectory CSV columns, in order:
t,px,py,ptheta,ex,ey,etheta,u_p,u_e,r_norm,gamma,w,los_rate,residual
with every number printed to 17 significant digits so parsing the file back
recovers bit-identical doubles.

A TrajectoryRecord keeps each of those columns as a packed ``array('d')``, 8
bytes per value. The CSV and SVG writers stream: they format and write a row
or a chunk of polyline points at a time and never hold a whole file or a
whole column of text in memory. trajectory_csv_stream forks, as its block
starts, a child that formats a run's packed sample rows while the run
integrates; ``simulate``'s evader worker is started, fed and killed through
the same helpers (_can_fork, _fork, _write_all, _kill).

Both JSON files, summary.json and certificate.json, share one layout,
written by write_json: sorted keys, two-space indent, a final newline; their
``"schema": 1`` comes from summary_dict and certify's payload. Figures are
self-contained SVG 1.1 with an auto-fitted viewBox and a 5 percent margin,
drawn by one body: solid pursuer paths over a dashed evader path. A run's
figure adds light gray baseline segments at evenly spaced sample indices; an
overlay draws several pursuer paths.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
import threading
from array import array
from contextlib import contextmanager, suppress
from dataclasses import MISSING, asdict, dataclass, field, fields
from itertools import islice
from operator import neg
from typing import Dict, List, Optional, Sequence, TextIO, Tuple

from .dynamics import ParticleState
from .errors import ParseError, ValidationError
from .geometry import PlanarVector
from .guidance import LAWS, PROGRAMS, EvaderProgram, PursuerLaw, Zero, stability_step_cap

TERMINATION_CAPTURE = "capture"
TERMINATION_TIME_LIMIT = "time_limit"
TERMINATION_NON_FINITE = "non_finite"

#: Bytes of one chunk's row count on the CSV writer child's count pipe.
COUNT_BYTES = 8

#: The one chunk size of every streamed stage: samples ``simulate`` packs
#: into one chunk before moving them into the record's columns, rows an
#: evader worker writes per pipe write and its parent reads into one buffer,
#: rows the CSV writers format per write, and polyline points the SVG
#: writers format per write.
RECORD_CHUNK = 1024

#: Most integration steps a scenario may ask for: ceil(t_max / step_size).
#: At 2.5-5 us a step (Python 3.11.7, a two-CPU Xeon VM), four to eight minutes.
MAX_STEPS = 10**8

#: Most bytes a scenario file may hold; the CLI reads no further.
MAX_SCENARIO_BYTES = 1 << 20

#: Most samples a scenario may ask for: ceil(t_max / (step_size *
#: sample_stride)); the record holds at most one more. The 14 packed columns
#: of 10**7 samples take about 1.1 GB.
MAX_SAMPLES = 10**7

#: Baseline segments drawn in a figure, at evenly spaced sample indices.
_FIGURE_BASELINES = 12

#: Relative tolerance applied to the stability cap so a step size computed as
#: exactly the cap is never rejected for a rounding hair.
_CAP_SLOP = 1e-9

#: Key prefix of the law and of the program, with their records by variant.
_VARIANT_TABLES = (("pursuer_law", LAWS), ("evader_program", PROGRAMS))

#: Key prefixes of the two initial states, and the keys under each.
_STATES = ("pursuer_init", "evader_init")
_STATE_KEYS = ("x", "y", "heading")

#: Keys of the run, in the order write_scenario writes them; each is optional.
_RUN_KEYS = ("step_size", "t_max", "capture_radius", "sample_stride")

KNOWN_KEYS = frozenset(
    ["label", "nu", *_RUN_KEYS]
    + [f"{p}.{c}" for p in _STATES for c in _STATE_KEYS]
    + [f"{prefix}.variant" for prefix, _ in _VARIANT_TABLES]
    + [
        f"{prefix}.{f.name}"
        for prefix, table in _VARIANT_TABLES
        for cls in table.values()
        for f in fields(cls)
    ]
)


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved description of one engagement run, valid once constructed.

    Construction fills the documented defaults and checks every invariant,
    raising ValidationError naming the first one violated; so does
    ``dataclasses.replace``, which constructs a new config. step_size
    defaults to the stability cap for the law; t_max to twice the initial
    range over (1 - nu). ``build_scenario`` is this same constructor.
    """

    nu: float
    pursuer_init: ParticleState
    evader_init: ParticleState
    pursuer_law: PursuerLaw
    evader_program: EvaderProgram = Zero()
    step_size: Optional[float] = None
    t_max: Optional[float] = None
    capture_radius: float = 0.05
    sample_stride: int = 1
    label: str = ""

    def __post_init__(self) -> None:
        nu = self.nu
        if not 0.0 <= nu < 1.0:  # before the defaults, which divide by 1 - nu
            raise ValidationError(f"nu out of [0, 1): {nu}")
        radius = self.capture_radius
        if not (math.isfinite(radius) and radius > 0.0):  # the cap divides by it for ppng
            raise ValidationError(f"capture_radius must be finite and positive: {radius}")
        cap = stability_step_cap(self.pursuer_law, nu, radius)
        r_init = initial_range(self)
        if not math.isfinite(r_init):  # before the default t_max, which it would make inf
            raise ValidationError(f"initial range is not finite: {r_init}")
        if self.step_size is None:
            object.__setattr__(self, "step_size", cap)
        if self.t_max is None:
            object.__setattr__(self, "t_max", 2.0 * r_init / (1.0 - nu))
        for name, p in (("pursuer_init", self.pursuer_init), ("evader_init", self.evader_init)):
            if not math.isfinite(p.heading):
                raise ValidationError(f"{name}.heading is not finite: {p.heading}")
        if not (math.isfinite(self.step_size) and self.step_size > 0.0):
            raise ValidationError(f"step_size must be finite and positive: {self.step_size}")
        if not (math.isfinite(self.t_max) and self.t_max >= 0.0):
            raise ValidationError(f"t_max must be finite and nonnegative: {self.t_max}")
        stride = self.sample_stride
        # The run computes with the stride as a float, so it must convert to
        # one; a bool would be written back as True, which the reader rejects.
        if not (isinstance(stride, int) and not isinstance(stride, bool)
                and 1 <= stride <= sys.float_info.max):
            raise ValidationError(f"sample_stride must be an integer >= 1 that fits a float: {stride}")
        if r_init == 0.0:
            raise ValidationError("coincident initial positions: the baseline has zero length")
        bound = self.evader_program.max_abs_control()
        if not math.isfinite(bound):
            raise ValidationError("evader program has an unbounded curvature declaration")
        if self.step_size > cap * (1.0 + _CAP_SLOP):
            raise ValidationError(
                f"step size violates stability cap: step_size={self.step_size}, cap={cap}"
            )
        steps = self.t_max / self.step_size
        if steps > MAX_STEPS:
            count = math.ceil(steps) if math.isfinite(steps) else steps
            raise ValidationError(
                f"t_max / step_size asks for {count} steps, over the limit of MAX_STEPS = {MAX_STEPS}"
            )
        if steps > MAX_SAMPLES * stride:  # exact for any integer stride
            raise ValidationError(
                f"t_max / (step_size * sample_stride) asks for {math.ceil(steps / stride)} samples, "
                f"over the limit of MAX_SAMPLES = {MAX_SAMPLES}"
            )
        # write_scenario puts the label on one line, and the parser strips it.
        label = self.label
        if label != label.strip() or len(label.splitlines()) > 1:
            raise ValidationError(f"label must be one line without leading or trailing blanks: {label!r}")


#: A second name for the constructor, which the scenario builders call.
build_scenario = ScenarioConfig


def initial_state(config: ScenarioConfig) -> Tuple[ParticleState, ParticleState]:
    """The (pursuer, evader) pair at t = 0, as compute_metrics takes it."""
    return config.pursuer_init, config.evader_init


def initial_range(config: ScenarioConfig) -> float:
    dx = config.pursuer_init.position.x - config.evader_init.position.x
    dy = config.pursuer_init.position.y - config.evader_init.position.y
    return math.sqrt(dx * dx + dy * dy)


# ---------------------------------------------------------------------------
# scenario text format


def _parse_entries(text: str) -> Dict[str, Tuple[str, int]]:
    entries: Dict[str, Tuple[str, int]] = {}
    for lineno, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ParseError(f"line {lineno}: empty key")
        if key not in KNOWN_KEYS:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = (value.strip(), lineno)
    return entries


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


#: What a value read as each kind must look like, for its parse error.
_EXPECTED = {_finite_float: "a finite number", int: "an integer"}


def _config_from_entries(entries: Dict[str, Tuple[str, int]]) -> ScenarioConfig:
    """Read the entries in scenario file order into a ScenarioConfig's arguments.

    The first fault met in that order is the one reported: a missing key or
    an unknown variant as a ValidationError, a value that does not convert
    as a ParseError naming its line (or the override). Last, any entry the
    chosen variants do not read is a ValidationError.
    """
    used = set()

    def read(key: str, kind=_finite_float, default=MISSING):
        if key not in entries:
            if default is MISSING:
                raise ValidationError(f"missing required key {key!r}")
            return default
        used.add(key)
        value, lineno = entries[key]
        try:
            return kind(value)
        except ValueError:
            where = f"line {lineno}: key" if lineno > 0 else "override key"
            raise ParseError(f"{where} {key!r}: expected {_EXPECTED[kind]}, got {value!r}") from None

    args = {"label": read("label", str, ""), "nu": read("nu")}
    for prefix in _STATES:
        x, y, heading = (read(f"{prefix}.{c}") for c in _STATE_KEYS)
        args[prefix] = ParticleState(PlanarVector(x, y), heading)
    variants = (read("pursuer_law.variant", str), read("evader_program.variant", str, "") or "zero")
    for (prefix, table), variant in zip(_VARIANT_TABLES, variants):
        if variant not in table:
            raise ValidationError(f"unknown {prefix}.variant {variant!r}")
        cls = table[variant]
        values = {
            f.name: read(f"{prefix}.{f.name}", int if f.type in (int, "int") else _finite_float,
                         f.default)
            for f in fields(cls)
        }
        try:
            args[prefix] = cls(**values)
        except ValueError as exc:
            raise ValidationError(f"invalid {prefix.replace('_', ' ')}: {exc}") from exc
    for key in _RUN_KEYS:
        if key in entries:  # else ScenarioConfig's default
            args[key] = read(key, int if key == "sample_stride" else _finite_float)

    leftover = min(set(entries) - used, default=None)
    if leftover is not None:
        lineno = entries[leftover][1]
        where = f"line {lineno}: " if lineno > 0 else ""
        raise ValidationError(f"{where}key {leftover!r} does not apply to the selected variants")
    return ScenarioConfig(**args)


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse scenario text, apply defaults, validate, and return the config."""
    return _config_from_entries(_parse_entries(text))


def parse_scenario_with_overrides(text: str, overrides: Dict[str, str]) -> ScenarioConfig:
    """Parse scenario text with key = value overrides applied on top.

    Override keys must be members of KNOWN_KEYS; callers are expected to check
    membership first so they can report unknown keys as usage errors.
    """
    entries = _parse_entries(text)
    for key, value in overrides.items():
        if key not in KNOWN_KEYS:
            raise ParseError(f"unknown override key {key!r}")
        entries[key] = (value, 0)
    return _config_from_entries(entries)


def write_scenario(config: ScenarioConfig) -> str:
    """Serialize a config to scenario text; a float prints as its repr, so parse_scenario
    inverts it exactly."""
    lines: List[str] = []
    if config.label:
        lines.append(f"label = {config.label}")
    lines.append(f"nu = {config.nu}")
    for prefix in _STATES:
        p = getattr(config, prefix)
        for c, value in zip(_STATE_KEYS, (p.position.x, p.position.y, p.heading)):
            lines.append(f"{prefix}.{c} = {value}")
    for prefix, _ in _VARIANT_TABLES:
        record = getattr(config, prefix)
        lines.append(f"{prefix}.variant = {record.variant}")
        for f in fields(record):
            lines.append(f"{prefix}.{f.name} = {getattr(record, f.name)}")
    lines.extend(f"{key} = {getattr(config, key)}" for key in _RUN_KEYS)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# trajectory records


def _column() -> array:
    return array("d")


@dataclass
class TrajectoryRecord:
    """Columnar record of one simulation; one row per sample instant.

    Treated as immutable once the simulation returns it. Sample times are
    (k * sample_stride) * step_size for consecutive k starting at 0. The
    simulation fills each column as a packed ``array('d')``; any sequence of
    floats, such as a list, works as a column for the readers and writers.
    """

    scenario: ScenarioConfig
    termination: str
    t: Sequence[float] = field(default_factory=_column)
    px: Sequence[float] = field(default_factory=_column)
    py: Sequence[float] = field(default_factory=_column)
    ptheta: Sequence[float] = field(default_factory=_column)
    ex: Sequence[float] = field(default_factory=_column)
    ey: Sequence[float] = field(default_factory=_column)
    etheta: Sequence[float] = field(default_factory=_column)
    u_p: Sequence[float] = field(default_factory=_column)
    u_e: Sequence[float] = field(default_factory=_column)
    r_norm: Sequence[float] = field(default_factory=_column)
    gamma: Sequence[float] = field(default_factory=_column)
    w: Sequence[float] = field(default_factory=_column)
    los_rate: Sequence[float] = field(default_factory=_column)
    residual: Sequence[float] = field(default_factory=_column)

    @property
    def n_samples(self) -> int:
        return len(self.t)

    @property
    def capture_time(self) -> Optional[float]:
        if self.termination == TERMINATION_CAPTURE and self.t:
            return self.t[-1]
        return None


#: The record's sample columns, in order: the CSV's columns.
CSV_COLUMNS = tuple(f.name for f in fields(TrajectoryRecord) if f.default_factory is _column)

#: Seventeen significant digits: every double parses back bit-identically.
F17 = "%.17g"
CSV_HEADER = ",".join(CSV_COLUMNS) + "\n"
#: One row as ASCII bytes: bytes %-formatting prints a float as str's does.
CSV_ROW = (",".join([F17] * len(CSV_COLUMNS)) + "\n").encode("ascii")
#: One sample packed as doubles, its values in CSV_COLUMNS order: the row
#: ``simulate`` packs and trajectory_csv_stream's ``send`` formats.
SAMPLE = struct.Struct(f"{len(CSV_COLUMNS)}d")


def f17(v: float) -> str:
    """A float at 17 significant digits, the precision of every output file."""
    return F17 % v


def write_trajectory_csv(record: TrajectoryRecord, sink: TextIO) -> None:
    """Write the record as CSV, RECORD_CHUNK rows at a time; numbers carry 17 significant digits."""
    sink.write(CSV_HEADER)
    lines = map(CSV_ROW.__mod__, zip(*(getattr(record, name) for name in CSV_COLUMNS)))
    while chunk := b"".join(islice(lines, RECORD_CHUNK)):
        sink.write(chunk.decode("ascii"))


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _can_fork() -> bool:
    """Whether a second process may be forked: two usable CPUs, a fork
    function, and no other thread, since the child would run without it."""
    return _usable_cpus() >= 2 and hasattr(os, "fork") and threading.active_count() == 1


def _fork(keep, body) -> Optional[int]:
    """Fork a child that closes every descriptor but those in ``keep`` and runs ``body()``.

    The child leaves by os._exit, without the parent's clean-up: with status
    0 when body returns, else 1 after one line on fd 2 if it is kept. Returns
    the child's pid, or None if the fork fails.
    """
    try:
        pid = os.fork()
    except OSError:
        return None
    if pid:
        return pid
    status = 1
    try:
        low = 0
        for fd in sorted(keep):
            os.closerange(low, fd)
            low = fd + 1
        os.closerange(low, os.sysconf("SC_OPEN_MAX"))
        body()
        status = 0
    except BaseException as exc:
        # If fd 2 is closed this raises too, and the child still exits here.
        os.write(2, f"mcpursuit: {exc}\n".encode("utf-8", "replace"))
    finally:
        os._exit(status)


def _write_all(fd: int, data) -> None:
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view):]


def _kill(pid: int) -> None:
    """Kill the child ``pid`` and reap it."""
    import signal  # not at import: it would add about 1 ms to every start-up

    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)


def _csv_lines(rows) -> bytes:
    """The CSV lines, newline included, of a buffer of packed SAMPLE rows, as ASCII bytes."""
    return b"".join(map(CSV_ROW.__mod__, SAMPLE.iter_unpack(rows)))


def _write_chunks(counts: int, data: int, out: int) -> None:
    """The CSV writer child's loop: write to fd ``out`` the rows that fd ``counts`` announces.

    Each count n, COUNT_BYTES native-endian, takes the next n packed SAMPLE
    rows, n * SAMPLE.size bytes, from fd ``data``. Returns when ``counts``
    ends; raises EOFError if a count or its chunk is cut short.
    """
    offset = 0
    # A count is one write of fewer than PIPE_BUF bytes, so it arrives whole.
    while head := os.read(counts, COUNT_BYTES):
        if len(head) != COUNT_BYTES:
            raise EOFError("row count cut short")
        n = int.from_bytes(head, sys.byteorder)
        size = n * SAMPLE.size
        block = os.pread(data, size, offset)
        if len(block) != size:
            raise EOFError(f"chunk of {n} rows cut short")
        offset += size
        _write_all(out, _csv_lines(block))


@contextmanager
def trajectory_csv_stream(path: str):
    """Write a run's trajectory CSV to ``path`` while the run integrates.

    Yields the ``send`` hook to pass ``simulate`` as ``on_chunk``. Entering
    creates the file with its header and, if _can_fork(), forks a child that
    runs _write_chunks on the file, a data file and a count pipe; each
    ``send`` appends its packed rows to the data file and their count to the
    pipe, so ``simulate`` never waits for the child. The data file is
    unlinked as soon as it is opened, so no exit leaves it behind. Leaving
    the block reaps the child and raises OSError naming the file and the
    exit status if it failed. If _can_fork() is false (so for a threaded
    caller too) or the fork fails, ``send`` formats the rows into the file
    itself, the same bytes. If the block raises, the child is killed and the
    file is removed.
    """
    out = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    fds = [out]  # the descriptors this process holds open
    pid = None  # the writer child, until it is reaped

    def close() -> None:
        while fds:
            os.close(fds.pop())

    def send(rows) -> None:
        """Hand over a buffer of packed SAMPLE rows; it is read before the call returns."""
        if pid is None:
            _write_all(out, _csv_lines(rows))
        elif fds:
            data, counts = fds
            _write_all(data, rows)
            try:
                _write_all(counts, (len(rows) // SAMPLE.size).to_bytes(COUNT_BYTES, sys.byteorder))
            except BrokenPipeError:
                close()  # the child has died; leaving the block reports its exit status

    try:
        _write_all(out, CSV_HEADER.encode("ascii"))
        if _can_fork():
            data_path = f"{path}.{os.getpid()}.f64"
            data = os.open(data_path, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o600)
            fds.append(data)
            os.unlink(data_path)
            counts, write = os.pipe()
            fds.append(write)
            pid = _fork({data, counts, out, 2}, lambda: _write_chunks(counts, data, out))
            os.close(counts)
            if pid is not None:  # else the data file and pipe lie unused until the block ends
                os.close(fds.pop(0))  # the file, which the child writes
        yield send
        close()  # the child reads to the end of the counts and exits
        if pid is not None:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pid = None
            if status != 0:
                raise OSError(f"{path}: the CSV row writer exited with status {status}")
    except BaseException:
        close()
        if pid is not None:
            _kill(pid)
        with suppress(FileNotFoundError):
            os.remove(path)
        raise


# ---------------------------------------------------------------------------
# JSON files


def write_json(obj, sink: TextIO) -> None:
    """Write ``obj`` as every output file's JSON: sorted keys, two-space indent, final newline."""
    json.dump(obj, sink, indent=2, sort_keys=True)
    sink.write("\n")


def summary_dict(record: TrajectoryRecord, cert=None, envelope_ok: Optional[bool] = None) -> dict:
    out: dict = {
        "schema": 1,
        "label": record.scenario.label,
        "termination": record.termination,
        "n_samples": record.n_samples,
        "capture_time": record.capture_time,
        "final_time": record.t[-1] if record.t else None,
        "final_r_norm": record.r_norm[-1] if record.r_norm else None,
        "gamma_min": min(record.gamma) if record.gamma else None,
        "gamma_max": max(record.gamma) if record.gamma else None,
        "gamma_final": record.gamma[-1] if record.gamma else None,
        "peak_residual": max(record.residual) if record.residual else None,
        "peak_abs_u_p": max(map(abs, record.u_p)) if record.u_p else None,
    }
    if cert is not None:
        out["certificate"] = asdict(cert)
    if envelope_ok is not None:
        out["envelope_ok"] = envelope_ok
    return out


# ---------------------------------------------------------------------------
# SVG figures


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _svg_open(
    sink: TextIO, xs: Sequence[Sequence[float]], ys: Sequence[Sequence[float]]
) -> float:
    """Write the svg element fitted to the points of the columns; return the stroke width.

    The figure's y axis is flipped, so its extents are -max(y) to -min(y).
    Empty columns are skipped, and a figure with no points fits the origin.
    """
    xmin = min((min(c) for c in xs if c), default=0.0)
    xmax = max((max(c) for c in xs if c), default=0.0)
    ymin = -max((max(c) for c in ys if c), default=0.0)
    ymax = -min((min(c) for c in ys if c), default=0.0)
    extent = max(xmax - xmin, ymax - ymin, 1e-9)
    margin = 0.05 * extent
    w = (xmax - xmin) + 2.0 * margin
    h = (ymax - ymin) + 2.0 * margin
    view = f"{_fmt(xmin - margin)} {_fmt(ymin - margin)} {_fmt(w)} {_fmt(h)}"
    sink.write(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{view}">\n'
    )
    return 0.004 * max(w, h)


def _write_polyline(sink: TextIO, xs: Sequence[float], ys: Sequence[float], style: str) -> None:
    """Write one polyline through (x, -y), formatting its points a chunk at a time."""
    write = sink.write
    write(f'<polyline fill="none" {style} points="')
    points = map("%.6g,%.6g".__mod__, zip(xs, map(neg, ys)))
    sep = ""
    while chunk := list(islice(points, RECORD_CHUNK)):
        write(sep + " ".join(chunk))
        sep = " "
    write('"/>\n')


def _emit_svg(records: List[TrajectoryRecord], sink: TextIO, figure: bool) -> None:
    """Render each record's pursuer path over the dashed evader path of the longest one.

    The y axis is flipped so the figure reads in the usual orientation. A
    ``figure`` draws its one record with light baseline segments at evenly
    spaced sample indices under the paths, and a one-sample record as two
    dots. Its evader path is grey, an overlay's red. Output depends only on
    the records and ``figure``.
    """
    evader = max(records, key=lambda r: r.n_samples)
    pxs, pys, exs, eys = evader.px, evader.py, evader.ex, evader.ey
    sw = _svg_open(sink, [exs] + [rec.px for rec in records], [eys] + [rec.py for rec in records])
    write = sink.write
    n = evader.n_samples
    if figure:
        # Evenly spaced sample indices: they never decrease, so dropping repeats keeps their order.
        last = _FIGURE_BASELINES - 1
        for i in dict.fromkeys(round(k * (n - 1) / last) for k in range(last + 1) if n):
            write(
                f'<line x1="{_fmt(pxs[i])}" y1="{_fmt(-pys[i])}" '
                f'x2="{_fmt(exs[i])}" y2="{_fmt(-eys[i])}" '
                f'stroke="#c9c9c9" stroke-width="{_fmt(0.6 * sw)}"/>\n'
            )
    if figure and n == 1:
        r = _fmt(2.0 * sw)
        write(f'<circle cx="{_fmt(pxs[0])}" cy="{_fmt(-pys[0])}" r="{r}" fill="#111111"/>\n')
        write(f'<circle cx="{_fmt(exs[0])}" cy="{_fmt(-eys[0])}" r="{r}" fill="#444444"/>\n')
    else:
        def dashes(on: float, off: float) -> str:
            return f'stroke-dasharray="{_fmt(on * sw)} {_fmt(off * sw)}"'

        width = f'stroke-width="{_fmt(sw)}"'
        stroke = "#333333" if figure else "#bb4444"
        _write_polyline(sink, exs, eys, f'stroke="{stroke}" {width} {dashes(3.0, 2.0)}')
        styles = ('stroke="#111111"', f'stroke="#555555" {dashes(5.0, 2.5)}',
                  f'stroke="#999999" {dashes(1.5, 1.5)}')
        for idx, rec in enumerate(records):
            _write_polyline(sink, rec.px, rec.py, f"{styles[idx % len(styles)]} {width}")
    write("</svg>\n")


def emit_figure_svg(record: TrajectoryRecord, sink: TextIO) -> None:
    """Render one engagement as SVG: its paths plus light baseline segments."""
    _emit_svg([record], sink, figure=True)


def emit_overlay_svg(records: List[TrajectoryRecord], sink: TextIO) -> None:
    """Overlay several pursuer paths over a shared evader path."""
    if not records:
        raise ValidationError("overlay needs at least one record")
    _emit_svg(records, sink, figure=False)
