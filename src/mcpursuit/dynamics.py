"""Unit-speed particle models and the fixed-step RK4 integrator.

Both vehicles are planar particles steered by curvature: the pursuer moves at
unit speed with heading rate u_p, the evader at speed nu (0 <= nu < 1) with
heading rate nu * u_e, so u_e is the evader's path curvature. Headings are in
radians, unwrapped and unbounded. Controls are re-evaluated at every RK4 stage
with the stage's state and time; the update x + h*((k1 + 2*(k2+k3) + k4)/6)
advances a coordinate by exactly h under a constant unit rate.

Scalar control convention: the pursuer callable receives

    (t, px, py, pth, cp, sp, ex, ey, eth, ce, se, u_e_now)

where (cp, sp) and (ce, se) are the cos/sin of the two headings, already
computed for the stage; the evader callable receives the stage time only.

The RK4 step is written once, as three source texts run in this order: the
evader's half (its trig, positions, program calls, b and stage times), the
pursuer's half (its trig, positions and update, with a slot per stage for one
control text, written in the convention's plain names and renamed to the
stage's values: cp2, px2, a2, ...) and the evader's move. The evader's half
reads nothing of the pursuer, because u_e is a function of time alone.
Two sources are compiled from the texts:

* rk4_step_scalars, one step calling the controls it is given, compiled at
  import. A stage-1 control the caller already evaluated (simulate does, to
  record it at a sample) is passed as a trailing argument and not called again.
* law_code(law_class), a LawCode: one source with the law's kernel inline
  at each stage, compiled at the law's first use and cached per law class.
  The LawCode docstring gives the calling conventions of its four functions.

All of them run the same texts, so they give bitwise the same states, and
``n`` steps of a loop are bitwise ``n`` rk4_step_scalars calls with the
closure. A kernel is an expression in rx, ry (pursuer minus evader), drx,
dry (its rate), rsq = rx*rx + ry*ry, the stage's t, px, py, pth, ex, ey,
eth, cp, sp, ce, se and ue, nu, sqrt and the law's fields; a zero baseline
raises ZeroBaseline before it. A field named like a name of the generated
code (h, nu, t, px, cp1, rows, ...; all of them in _TAKEN) is a ValueError:
binding it would overwrite that name.
"""

from __future__ import annotations

import functools
import itertools
import linecache
import math
import re
import struct
from dataclasses import dataclass, fields
from textwrap import indent
from typing import Callable, NamedTuple

from .errors import ZeroBaseline
from .geometry import PlanarVector


@dataclass(frozen=True)
class ParticleState:
    """Position plus heading angle of one vehicle."""

    position: PlanarVector
    heading: float


# One RK4 step from (t, px, py, pth, ex, ey, eth) to the state at t + h in the
# same names. The first line is stage 1's program call, which rk4_step_scalars
# puts under ``if ue1 is None:``. bK = nu * u_e.
_EVADER_HALF = """\
ue1 = evader(t)  # stage 1 at t
ce1 = cos(eth); se1 = sin(eth)
vce1 = nu * ce1; vse1 = nu * se1
b1 = nu * ue1
t2 = t + half  # stage 2 at t + h/2
eth2 = eth + half * b1
ce2 = cos(eth2); se2 = sin(eth2)
vce2 = nu * ce2; vse2 = nu * se2
ex2 = ex + half * vce1; ey2 = ey + half * vse1
ue2 = evader(t2)
b2 = nu * ue2
eth3 = eth + half * b2  # stage 3, also at t + h/2
ce3 = cos(eth3); se3 = sin(eth3)
vce3 = nu * ce3; vse3 = nu * se3
ex3 = ex + half * vce2; ey3 = ey + half * vse2
b3 = b2  # u_e is a function of time alone, so stage 3 reuses stage 2's
t4 = t + h  # stage 4 at t + h
eth4 = eth + h * b3
ce4 = cos(eth4); se4 = sin(eth4)
vce4 = nu * ce4; vse4 = nu * se4
ex4 = ex + h * vce3; ey4 = ey + h * vse3
ue4 = evader(t4)
b4 = nu * ue4
"""
# The control text in slot {stageK} sets aK from stage K's values.
_PURSUER_HALF = """\
cp1 = cos(pth); sp1 = sin(pth)  # stage 1
{stage1}
pth2 = pth + half * a1  # stage 2
cp2 = cos(pth2); sp2 = sin(pth2)
px2 = px + half * cp1; py2 = py + half * sp1
{stage2}
pth3 = pth + half * a2  # stage 3
cp3 = cos(pth3); sp3 = sin(pth3)
px3 = px + half * cp2; py3 = py + half * sp2
{stage3}
pth4 = pth + h * a3  # stage 4
cp4 = cos(pth4); sp4 = sin(pth4)
px4 = px + h * cp3; py4 = py + h * sp3
{stage4}
px = px + h * ((cp1 + 2.0 * (cp2 + cp3) + cp4) / 6.0)
py = py + h * ((sp1 + 2.0 * (sp2 + sp3) + sp4) / 6.0)
pth = pth + h * ((a1 + 2.0 * (a2 + a3) + a4) / 6.0)
"""
_EVADER_MOVE = """\
ex = ex + h * (nu * ((ce1 + 2.0 * (ce2 + ce3) + ce4) / 6.0))
ey = ey + h * (nu * ((se1 + 2.0 * (se2 + se3) + se4) / 6.0))
eth = eth + h * ((b1 + 2.0 * (b2 + b3) + b4) / 6.0)
"""

# Stage k's names for the time, the state and u_e; trig values and a get suffix k.
_STAGES = ((1, "t", "", "ue1"), (2, "t2", "2", "ue2"), (3, "t2", "3", "ue2"), (4, "t4", "4", "ue4"))

# The law text in the convention's names: the relative state, the zero-baseline
# rule, then the kernel (appended) sets a. vce, vse are nu*ce, nu*se.
_LAW = """\
rx = px - ex
ry = py - ey
drx = cp - vce
dry = sp - vse
rsq = rx * rx + ry * ry
if rsq == 0.0:
    raise ZeroBaseline("pursuit law undefined at zero baseline")
a = """

# The code compiled per law: the closure's maker, the fused loop and its two
# halves for a split run (evade puts each step's row, pursue reads it).
# {gains} binds the law's fields to locals of the same names.
_LAW_CODE = """\
def make(law, nu):
{gains}    def control(t, px, py, pth, cp, sp, ex, ey, eth, ce, se, ue):
        vce = nu * ce; vse = nu * se
{law}        return a
    return control


def loop(law, k, n, px, py, pth, ex, ey, eth, h, nu, evader, cos=cos, sin=sin, sqrt=sqrt):
{gains}    half = 0.5 * h
    for k in range(k, k + n):
        t = k * h
{step}    return px, py, pth, ex, ey, eth


def evade(k, n, ex, ey, eth, h, nu, evader, put, pack=pack, cos=cos, sin=sin):
    half = 0.5 * h
    for k in range(k, k + n):
        t = k * h
{evade}    return ex, ey, eth


def pursue(law, rows, n, px, py, pth, h, nu, islice=islice, cos=cos, sin=sin, sqrt=sqrt):
{gains}    half = 0.5 * h
    for {columns} in islice(rows, n):
{pursue}    for {columns} in islice(rows, 1):
        return px, py, pth, ex, ey, eth
"""


def _names(text: str) -> list:
    """The names ``text`` reads or sets, outside comments, slots and strings."""
    return re.findall(r"[A-Za-z_]\w*", re.sub(r'#.*|\{\w+\}|"[^"]*"', "", text))


# Every name the generated code uses besides a kernel's own; a law field may
# not take one of them, since binding it would overwrite the step's value.
_TAKEN = frozenset(_names(_EVADER_HALF + _PURSUER_HALF + _EVADER_MOVE + _LAW + _LAW_CODE))


def _stage(text: str, k: int, t: str, state: str, ue: str) -> str:
    names = {"t": t, "ue": ue}
    names.update((n, n + state) for n in ("px", "py", "pth", "ex", "ey", "eth"))
    names.update((n, f"{n}{k}") for n in ("cp", "sp", "ce", "se", "vce", "vse", "a"))
    return re.sub(r"[A-Za-z_]\w*", lambda m: names.get(m[0], m[0]), text)


def _pursuer_half(first: str, control: str) -> str:
    """``_PURSUER_HALF`` with ``first`` in stage 1's slot and ``control`` in the others."""
    slots = {f"stage{k}": _stage(first if k == 1 else control, k, *names).rstrip()
             for k, *names in _STAGES}
    return _PURSUER_HALF.format(**slots)


def _compile(source: str, filename: str, **names) -> dict:
    namespace = dict(__name__=__name__, cos=math.cos, sin=math.sin, sqrt=math.sqrt,
                     islice=itertools.islice, ZeroBaseline=ZeroBaseline, **names)
    exec(compile(source, filename, "exec"), namespace)
    # Tracebacks and inspect show the generated lines.
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    return namespace


_CALL = "a = pursuer(t, px, py, pth, cp, sp, ex, ey, eth, ce, se, ue)\n"
rk4_step_scalars = _compile(
    "def rk4_step_scalars(t, px, py, pth, ex, ey, eth, h, nu, pursuer, evader, ue1=None, a1=None):\n"
    "    half = 0.5 * h\n"
    + indent("if ue1 is None:\n    " + _EVADER_HALF
             + _pursuer_half("if a is None:\n    " + _CALL, _CALL) + _EVADER_MOVE, "    ")
    + "    return px, py, pth, ex, ey, eth\n", "<rk4 step>")["rk4_step_scalars"]
rk4_step_scalars.__doc__ = """One classical RK4 step; returns the state at t + h.

    ``ue1`` and ``a1`` are stage-1 controls the caller has; neither given is
    evaluated again. The evader's half runs whole first: if both halves would
    raise, the evader's exception propagates. Trig of an infinite heading
    raises ValueError, which simulate turns into a non_finite end."""


class LawCode(NamedTuple):
    """A law class's compiled code. Its functions run the same texts, so their
    states are bitwise each other's.

    ``make(law, nu)``: the law's closure in the scalar control convention.
    ``loop(law, k, n, px, py, pth, ex, ey, eth, h, nu, evader)`` runs steps k
    to k + n - 1 (step j starts at t = j*h) under ``law`` and returns the
    state after them.
    ``evade(k, n, ex, ey, eth, h, nu, evader, put)`` runs the evader through
    the same steps and returns its state after them. Each step passes ``put``
    one row packed by the struct ``row``: the evader's state at the step's
    start, then every stage value of the evader's that the law reads.
    ``pursue(law, rows, n, px, py, pth, h, nu)`` runs the pursuer through
    the next n steps, reading the unpacked rows from the iterator ``rows``,
    then returns the state after them, (px, py, pth, ex, ey, eth), the
    evader's read from one more row; None if ``rows`` runs out first.
    """

    make: Callable
    loop: Callable
    evade: Callable
    pursue: Callable
    row: struct.Struct


@functools.lru_cache(maxsize=None)
def law_code(law_class: type) -> LawCode:
    """``_LAW_CODE`` compiled for ``law_class``."""
    names = [f.name for f in fields(law_class)]
    for name in names:
        if name in _TAKEN:
            raise ValueError(f"{law_class.__name__} field {name!r} would overwrite a name "
                             "of the generated RK4 step; rename the field")
    law = _LAW + law_class.kernel + "\n"
    pursuer = _pursuer_half(law, law)
    # The evader's values that the pursuer reads, after the state they start from.
    state = ("ex", "ey", "eth")
    made = {"t", *state, *re.findall(r"(\w+) = ", _EVADER_HALF)}
    values = tuple(dict.fromkeys(state + tuple(n for n in _names(pursuer) if n in made)))
    columns = ", ".join(values)
    row = struct.Struct(f"{len(values)}d")
    source = _LAW_CODE.format(
        gains="".join(f"    {name} = law.{name}\n" for name in names), law=indent(law, "        "),
        step=indent(_EVADER_HALF + pursuer + _EVADER_MOVE, "        "), columns=columns,
        evade=indent(_EVADER_HALF + f"put(pack({columns}))\n" + _EVADER_MOVE, "        "),
        pursue=indent(pursuer, "        "))
    code = _compile(source, f"<rk4 {law_class.variant}>", pack=row.pack)
    return LawCode(code["make"], code["loop"], code["evade"], code["pursue"], row)
