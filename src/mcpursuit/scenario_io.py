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

Defaults when a key is omitted: ``label`` empty, ``evader_program.variant``
zero, ``capture_radius`` 0.05, ``sample_stride`` 1, ``t_max`` twice the
initial range divided by (1 - nu), and ``step_size`` the stability cap
0.1/(g*(1+nu)) for the law's effective gain g (g = mu for mcpg/exact,
N/capture_radius for ppng).

Trajectory CSV columns, in order:
t,px,py,ptheta,ex,ey,etheta,u_p,u_e,r_norm,gamma,w,los_rate,residual
with every number printed to 17 significant digits so parsing the file back
recovers bit-identical doubles.

A TrajectoryRecord keeps each of those columns as a packed ``array('d')``, 8
bytes per value. The CSV and SVG writers stream: they format and write a row
or a chunk of polyline points at a time and never hold a whole file or a
whole column of text in memory. TrajectoryCsvStream formats a long run's rows
in a forked child while the run integrates; ``simulate``'s evader worker is
started, fed and killed through the same helpers (_can_fork, _fork,
_write_all, _kill).

Summary files are JSON with ``"schema": 1``. Figures are self-contained
SVG 1.1: solid dark pursuer path, dashed dark evader path, light gray
baseline segments at evenly spaced sample indices, auto-fitted viewBox with
a 5 percent margin.
"""

from __future__ import annotations

import json
import math
import os
import sys
import threading
from array import array
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from itertools import islice
from operator import neg
from typing import Dict, List, Optional, Sequence, TextIO, Tuple

from .dynamics import EngagementState, ParticleState
from .errors import ParseError, ValidationError
from .geometry import PlanarVector
from .guidance import LAWS, PROGRAMS, EvaderProgram, PursuerLaw, Zero, stability_step_cap

TERMINATION_CAPTURE = "capture"
TERMINATION_TIME_LIMIT = "time_limit"
TERMINATION_NON_FINITE = "non_finite"

CSV_COLUMNS = (
    "t", "px", "py", "ptheta", "ex", "ey", "etheta",
    "u_p", "u_e", "r_norm", "gamma", "w", "los_rate", "residual",
)

#: Seventeen significant digits: every double parses back bit-identically.
F17 = "%.17g"
CSV_HEADER = ",".join(CSV_COLUMNS) + "\n"
#: One row as ASCII bytes: bytes %-formatting prints a float as str's does.
CSV_ROW = (",".join([F17] * len(CSV_COLUMNS)) + "\n").encode("ascii")

#: Bytes of one chunk's row count on the CSV writer child's count pipe.
COUNT_BYTES = 8

#: Samples that ``simulate`` buffers per column before it moves them into the
#: record's packed columns; also the fewest rows that TrajectoryCsvStream
#: hands to its writer child.
RECORD_CHUNK = 4096

#: Most integration steps a scenario may ask for: ceil(t_max / step_size).
#: At about 160k steps per second this is some ten minutes of integration.
MAX_STEPS = 10**8

#: Most samples a scenario may ask for: ceil(t_max / (step_size *
#: sample_stride)); the record holds at most one more. The 14 packed columns
#: of 10**7 samples take about 1.1 GB.
MAX_SAMPLES = 10**7

#: Polyline points formatted and written per chunk by the SVG writers.
_POINTS_CHUNK = 4096

#: Relative tolerance applied to the stability cap so a step size computed as
#: exactly the cap is never rejected for a rounding hair.
_CAP_SLOP = 1e-9

#: Key prefix of the law and of the program, with their records by variant.
_VARIANT_TABLES = (("pursuer_law", LAWS), ("evader_program", PROGRAMS))

KNOWN_KEYS = frozenset(
    ["label", "nu", "step_size", "t_max", "capture_radius", "sample_stride"]
    + [f"{p}.{c}" for p in ("pursuer_init", "evader_init") for c in ("x", "y", "heading")]
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
    """Fully resolved description of one engagement run."""

    nu: float
    pursuer_init: ParticleState
    evader_init: ParticleState
    pursuer_law: PursuerLaw
    evader_program: EvaderProgram
    step_size: float
    t_max: float
    capture_radius: float
    sample_stride: int
    label: str = ""


def initial_state(config: ScenarioConfig) -> EngagementState:
    return EngagementState(pursuer=config.pursuer_init, evader=config.evader_init, time=0.0)


def initial_range(config: ScenarioConfig) -> float:
    dx = config.pursuer_init.position.x - config.evader_init.position.x
    dy = config.pursuer_init.position.y - config.evader_init.position.y
    return math.sqrt(dx * dx + dy * dy)


def build_scenario(
    nu: float,
    pursuer_init: ParticleState,
    evader_init: ParticleState,
    pursuer_law: PursuerLaw,
    evader_program: EvaderProgram = Zero(),
    step_size: Optional[float] = None,
    t_max: Optional[float] = None,
    capture_radius: float = 0.05,
    sample_stride: int = 1,
    label: str = "",
) -> ScenarioConfig:
    """Construct and validate a ScenarioConfig, filling the documented defaults.

    step_size defaults to the stability cap for the law; t_max to twice the
    initial range over (1 - nu).
    """
    _check_nu(nu)  # before the defaults, which divide by 1 - nu
    if step_size is None:
        # The default step divides by the capture radius for ppng.
        _check_capture_radius(capture_radius)
        step_size = stability_step_cap(pursuer_law, nu, capture_radius)
    config = ScenarioConfig(
        nu=nu,
        pursuer_init=pursuer_init,
        evader_init=evader_init,
        pursuer_law=pursuer_law,
        evader_program=evader_program,
        step_size=step_size,
        t_max=t_max,
        capture_radius=capture_radius,
        sample_stride=sample_stride,
        label=label,
    )
    if t_max is None:
        config = replace(config, t_max=2.0 * initial_range(config) / (1.0 - nu))
    validate_scenario(config)
    return config


def validate_scenario(config: ScenarioConfig) -> None:
    """Raise ValidationError naming the first violated invariant."""
    _check_nu(config.nu)
    for name, p in (("pursuer_init", config.pursuer_init), ("evader_init", config.evader_init)):
        if not math.isfinite(p.heading):
            raise ValidationError(f"{name}.heading is not finite: {p.heading}")
    if not (math.isfinite(config.step_size) and config.step_size > 0.0):
        raise ValidationError(f"step_size must be finite and positive: {config.step_size}")
    if not (math.isfinite(config.t_max) and config.t_max >= 0.0):
        raise ValidationError(f"t_max must be finite and nonnegative: {config.t_max}")
    _check_capture_radius(config.capture_radius)
    stride = config.sample_stride
    # The run computes with the stride as a float, so it must convert to one.
    if not (isinstance(stride, int) and 1 <= stride <= sys.float_info.max):
        raise ValidationError(f"sample_stride must be an integer >= 1 that fits a float: {stride}")
    r_init = initial_range(config)
    if r_init == 0.0:
        raise ValidationError("coincident initial positions: the baseline has zero length")
    if not math.isfinite(r_init):
        raise ValidationError(f"initial range is not finite: {r_init}")
    bound = config.evader_program.max_abs_control()
    if not math.isfinite(bound):
        raise ValidationError("evader program has an unbounded curvature declaration")
    cap = stability_step_cap(config.pursuer_law, config.nu, config.capture_radius)
    if config.step_size > cap * (1.0 + _CAP_SLOP):
        raise ValidationError(
            f"step size violates stability cap: step_size={config.step_size}, cap={cap}"
        )
    steps = config.t_max / config.step_size
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


def _check_nu(nu: float) -> None:
    if not 0.0 <= nu < 1.0:
        raise ValidationError(f"nu out of [0, 1): {nu}")


def _check_capture_radius(capture_radius: float) -> None:
    if not (math.isfinite(capture_radius) and capture_radius > 0.0):
        raise ValidationError(f"capture_radius must be finite and positive: {capture_radius}")


# ---------------------------------------------------------------------------
# scenario text format


def _parse_entries(text: str) -> Dict[str, Tuple[str, int]]:
    entries: Dict[str, Tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
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


class _EntryReader:
    """Typed, consumed-key-tracking access to the raw key/value map."""

    def __init__(self, entries: Dict[str, Tuple[str, int]]):
        self.entries = entries
        self.used: set = set()

    def raw(self, key: str) -> Optional[str]:
        if key in self.entries:
            self.used.add(key)
            return self.entries[key][0]
        return None

    def _convert(self, key: str, kind, kindname: str):
        value, lineno = self.entries[key]
        self.used.add(key)
        try:
            return kind(value)
        except ValueError:
            where = f"line {lineno}: key" if lineno > 0 else "override key"
            raise ParseError(f"{where} {key!r}: expected {kindname}, got {value!r}") from None

    def number(self, key: str, default: Optional[float] = None) -> Optional[float]:
        if key not in self.entries:
            return default
        return self._convert(key, _finite_float, "a finite number")

    def integer(self, key: str, default: Optional[int] = None) -> Optional[int]:
        if key not in self.entries:
            return default
        return self._convert(key, int, "an integer")

    def require(self, key: str, integer: bool = False):
        if key not in self.entries:
            raise ValidationError(f"missing required key {key!r}")
        return self.integer(key) if integer else self.number(key)

    def unused(self):
        return sorted(set(self.entries) - self.used)


def _variant_from_entries(r: _EntryReader, prefix: str, table: dict, variant: str):
    """The record ``table[variant]``, read from the ``prefix.<field>`` keys."""
    if variant not in table:
        raise ValidationError(f"unknown {prefix}.variant {variant!r}")
    cls = table[variant]
    values = {}
    for f in fields(cls):
        key = f"{prefix}.{f.name}"
        if f.default is MISSING:
            values[f.name] = r.require(key, integer=f.type in (int, "int"))
        else:
            values[f.name] = r.number(key, f.default)
    try:
        return cls(**values)
    except ValueError as exc:
        what = prefix.replace("_", " ")
        raise ValidationError(f"invalid {what}: {exc}") from exc


def _config_from_entries(entries: Dict[str, Tuple[str, int]]) -> ScenarioConfig:
    r = _EntryReader(entries)
    label = r.raw("label") or ""
    nu = r.require("nu")

    pursuer = ParticleState(
        PlanarVector(r.require("pursuer_init.x"), r.require("pursuer_init.y")),
        r.require("pursuer_init.heading"),
    )
    evader = ParticleState(
        PlanarVector(r.require("evader_init.x"), r.require("evader_init.y")),
        r.require("evader_init.heading"),
    )

    variant = r.raw("pursuer_law.variant")
    if variant is None:
        raise ValidationError("missing required key 'pursuer_law.variant'")
    law = _variant_from_entries(r, "pursuer_law", LAWS, variant)
    program = _variant_from_entries(
        r, "evader_program", PROGRAMS, r.raw("evader_program.variant") or "zero"
    )

    step_size = r.number("step_size")
    t_max = r.number("t_max")
    capture_radius = r.number("capture_radius", 0.05)
    sample_stride = r.integer("sample_stride", 1)

    leftovers = r.unused()
    if leftovers:
        key = leftovers[0]
        lineno = entries[key][1]
        where = f"line {lineno}: " if lineno > 0 else ""
        raise ValidationError(f"{where}key {key!r} does not apply to the selected variants")

    return build_scenario(
        nu=nu,
        pursuer_init=pursuer,
        evader_init=evader,
        pursuer_law=law,
        evader_program=program,
        step_size=step_size,
        t_max=t_max,
        capture_radius=capture_radius,
        sample_stride=sample_stride,
        label=label,
    )


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
    for prefix, p in (("pursuer_init", config.pursuer_init), ("evader_init", config.evader_init)):
        lines.append(f"{prefix}.x = {p.position.x}")
        lines.append(f"{prefix}.y = {p.position.y}")
        lines.append(f"{prefix}.heading = {p.heading}")
    for prefix, record in (
        ("pursuer_law", config.pursuer_law),
        ("evader_program", config.evader_program),
    ):
        lines.append(f"{prefix}.variant = {record.variant}")
        for f in fields(record):
            lines.append(f"{prefix}.{f.name} = {getattr(record, f.name)}")
    lines.append(f"step_size = {config.step_size}")
    lines.append(f"t_max = {config.t_max}")
    lines.append(f"capture_radius = {config.capture_radius}")
    lines.append(f"sample_stride = {config.sample_stride}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# trajectory records


def _column() -> array:
    return array("d")


@dataclass
class TrajectoryRecord:
    """Columnar record of one simulation; one row per sample instant.

    Treated as immutable once the simulation returns it. Sample times are
    k * step_size * sample_stride for consecutive k starting at 0. The
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


def f17(v: float) -> str:
    """A float at 17 significant digits, the precision of every output file."""
    return F17 % v


def rows(columns):
    """The CSV lines, newline included, of equal-length columns of floats, as ASCII bytes."""
    return map(CSV_ROW.__mod__, zip(*columns))


def write_trajectory_csv(record: TrajectoryRecord, sink: TextIO) -> None:
    """Write the record as CSV, RECORD_CHUNK rows at a time; numbers carry 17 significant digits."""
    sink.write(CSV_HEADER)
    lines = rows(getattr(record, name) for name in CSV_COLUMNS)
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


def _write_chunks(counts: int, data: int, out: int) -> None:
    """The CSV writer child's loop: write to fd ``out`` the rows that fd ``counts`` announces.

    Each count n, COUNT_BYTES native-endian, takes the next n values of each
    column, in CSV_COLUMNS order, from the doubles in fd ``data``. Returns
    when ``counts`` ends; raises EOFError if a count or its chunk is cut short.
    """
    width = len(CSV_COLUMNS)
    offset = 0
    # A count is one write of fewer than PIPE_BUF bytes, so it arrives whole.
    while head := os.read(counts, COUNT_BYTES):
        if len(head) != COUNT_BYTES:
            raise EOFError("row count cut short")
        n = int.from_bytes(head, sys.byteorder)
        size = 8 * width * n
        block = os.pread(data, size, offset)
        if len(block) != size:
            raise EOFError(f"chunk of {n} rows cut short")
        offset += size
        values = memoryview(block).cast("d")
        _write_all(out, b"".join(rows(values[i * n:(i + 1) * n] for i in range(width))))


class TrajectoryCsvStream:
    """Writes a run's trajectory CSV to ``path`` while the run integrates.

    Use it as a context manager around ``simulate`` and pass ``send`` as its
    ``on_chunk`` hook. Once the record holds RECORD_CHUNK samples, the stream
    writes the header and forks a child that runs _write_chunks on the file,
    a data file and a count pipe. Each call then appends the new rows' raw
    columns to the data file and their count to the pipe, so ``simulate``
    never waits for the child. The data file is unlinked as soon as it is
    opened, so no exit leaves it behind. Leaving the block reaps the child
    and raises OSError naming the file and the exit status if it failed.

    If the record stays under one chunk, _can_fork() is false (so for a
    threaded caller too) or the fork fails, ``write_trajectory_csv`` writes
    the same bytes on leaving the block instead. If the block raises, the
    child is killed and a partly written file is removed.
    """

    def __init__(self, path: str):
        self.path = path
        self._record: Optional[TrajectoryRecord] = None
        self._tried = False  # set once send has tried to start the child
        self._pid: Optional[int] = None  # the writer child, until it is reaped
        self._data: Optional[int] = None  # the unlinked data file
        self._counts: Optional[int] = None  # the count pipe, until the child stops reading
        self._sent = 0
        self._opened = False

    def __enter__(self) -> "TrajectoryCsvStream":
        return self

    def send(self, record: TrajectoryRecord) -> None:
        """Hand over the rows of ``record`` not sent yet; its columns are ``array('d')``."""
        self._record = record
        if self._pid is None:
            if self._tried or len(record.t) < RECORD_CHUNK:
                return
            self._start()
            if self._pid is None:
                return
        n = len(record.t)
        if n == self._sent or self._counts is None:
            return
        for name in CSV_COLUMNS:
            _write_all(self._data, getattr(record, name)[self._sent:n])
        try:
            _write_all(self._counts, (n - self._sent).to_bytes(COUNT_BYTES, sys.byteorder))
        except BrokenPipeError:
            # The child has died; leaving the block reports its exit status.
            os.close(self._counts)
            self._counts = None
        self._sent = n

    def _start(self) -> None:
        self._tried = True
        if not _can_fork():
            return
        with open(self.path, "wb") as csv:
            self._opened = True
            csv.write(CSV_HEADER.encode("ascii"))
            csv.flush()
            data_path = f"{self.path}.{os.getpid()}.f64"
            data = self._data = os.open(data_path, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o600)
            os.unlink(data_path)
            counts, self._counts = os.pipe()
            out = csv.fileno()
            self._pid = _fork({data, counts, out, 2}, lambda: _write_chunks(counts, data, out))
            os.close(counts)
        if self._pid is None:
            self._close()

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is not None:
                self._abort()
                return
            try:
                self._finish()
            except BaseException:
                self._abort()
                raise
        finally:
            self._close()

    def _finish(self) -> None:
        if self._pid is None:
            self._opened = True
            with open(self.path, "w", encoding="utf-8", newline="\n") as f:
                write_trajectory_csv(self._record, f)
            return
        self._close()  # the child reads to the end of the counts and exits
        pid, self._pid = self._pid, None
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status != 0:
            raise OSError(f"{self.path}: the CSV row writer exited with status {status}")

    def _abort(self) -> None:
        if self._pid is not None:
            _kill(self._pid)
            self._pid = None
        if self._opened:
            try:
                os.remove(self.path)
            except FileNotFoundError:
                pass

    def _close(self) -> None:
        for fd in (self._data, self._counts):
            if fd is not None:
                os.close(fd)
        self._data = self._counts = None


# ---------------------------------------------------------------------------
# summary JSON


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
        "peak_abs_u_p": max(abs(v) for v in record.u_p) if record.u_p else None,
    }
    if cert is not None:
        out["certificate"] = asdict(cert)
    if envelope_ok is not None:
        out["envelope_ok"] = envelope_ok
    return out


def write_summary_json(
    record: TrajectoryRecord, sink: TextIO, cert=None, envelope_ok: Optional[bool] = None
) -> None:
    json.dump(summary_dict(record, cert, envelope_ok), sink, indent=2, sort_keys=True)
    sink.write("\n")


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
    while chunk := list(islice(points, _POINTS_CHUNK)):
        write(sep + " ".join(chunk))
        sep = " "
    write('"/>\n')


def _baseline_indices(n: int, count: int) -> List[int]:
    if count <= 0 or n == 0:
        return []
    if count == 1 or n == 1:
        return [0]
    # The indices never decrease, so dropping repeats keeps them in order.
    return list(dict.fromkeys(round(k * (n - 1) / (count - 1)) for k in range(count)))


def emit_figure_svg(record: TrajectoryRecord, sink: TextIO, baseline_count: int = 12) -> None:
    """Render one engagement as SVG: paths plus light baseline segments.

    The y axis is flipped so the figure reads in the usual orientation.
    Output depends only on the record and baseline_count.
    """
    pxs, pys, exs, eys = record.px, record.py, record.ex, record.ey
    sw = _svg_open(sink, (pxs, exs), (pys, eys))
    write = sink.write
    n = record.n_samples
    for i in _baseline_indices(n, baseline_count):
        write(
            f'<line x1="{_fmt(pxs[i])}" y1="{_fmt(-pys[i])}" '
            f'x2="{_fmt(exs[i])}" y2="{_fmt(-eys[i])}" '
            f'stroke="#c9c9c9" stroke-width="{_fmt(0.6 * sw)}"/>\n'
        )
    if n == 1:
        r = _fmt(2.0 * sw)
        write(f'<circle cx="{_fmt(pxs[0])}" cy="{_fmt(-pys[0])}" r="{r}" fill="#111111"/>\n')
        write(f'<circle cx="{_fmt(exs[0])}" cy="{_fmt(-eys[0])}" r="{r}" fill="#444444"/>\n')
    else:
        _write_polyline(
            sink, exs, eys,
            f'stroke="#333333" stroke-width="{_fmt(sw)}" '
            f'stroke-dasharray="{_fmt(3.0 * sw)} {_fmt(2.0 * sw)}"',
        )
        _write_polyline(sink, pxs, pys, f'stroke="#111111" stroke-width="{_fmt(sw)}"')
    write("</svg>\n")


_OVERLAY_STYLES = (
    'stroke="#111111"',
    'stroke="#555555" stroke-dasharray="{d1} {d2}"',
    'stroke="#999999" stroke-dasharray="{d3} {d3}"',
)


def emit_overlay_svg(records: List[TrajectoryRecord], sink: TextIO) -> None:
    """Overlay several pursuer paths over a shared evader path."""
    if not records:
        raise ValidationError("overlay needs at least one record")
    evader_src = max(records, key=lambda r: r.n_samples)
    xs = [evader_src.ex] + [rec.px for rec in records]
    ys = [evader_src.ey] + [rec.py for rec in records]
    sw = _svg_open(sink, xs, ys)
    _write_polyline(
        sink, evader_src.ex, evader_src.ey,
        f'stroke="#bb4444" stroke-width="{_fmt(sw)}" '
        f'stroke-dasharray="{_fmt(3.0 * sw)} {_fmt(2.0 * sw)}"',
    )
    for idx, rec in enumerate(records):
        style = _OVERLAY_STYLES[idx % len(_OVERLAY_STYLES)].format(
            d1=_fmt(5.0 * sw), d2=_fmt(2.5 * sw), d3=_fmt(1.5 * sw)
        )
        _write_polyline(sink, rec.px, rec.py, f'{style} stroke-width="{_fmt(sw)}"')
    sink.write("</svg>\n")
