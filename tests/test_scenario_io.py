"""Scenario text format, trajectory CSV, summary JSON, and SVG output."""

import dataclasses
import io
import json
import math
import os
import re
import textwrap
import xml.etree.ElementTree as ET
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import Switch, _state, csv_columns
from mcpursuit import scenario_io
from mcpursuit.errors import ParseError, ValidationError
from mcpursuit.guidance import (
    MCPG,
    PPNG,
    Constant,
    Exact,
    PiecewiseRandom,
    Sinusoid,
    Zero,
    gain,
    scaled,
    stability_step_cap,
)
from mcpursuit.scenario_io import (
    CSV_COLUMNS,
    KNOWN_KEYS,
    MAX_SAMPLES,
    MAX_STEPS,
    TERMINATION_TIME_LIMIT,
    ScenarioConfig,
    TrajectoryRecord,
    build_scenario,
    emit_figure_svg,
    emit_overlay_svg,
    parse_scenario,
    parse_scenario_with_overrides,
    summary_dict,
    write_json,
    write_scenario,
    write_trajectory_csv,
)

BASE_TEXT = """\
# demo engagement
nu = 0.5
pursuer_init.x = 10.0
pursuer_init.y = 0.0
pursuer_init.heading = 1.5
evader_init.x = 0.0
evader_init.y = 0.0
evader_init.heading = 0.25

pursuer_law.variant = mcpg
pursuer_law.mu = 3.0
"""


def test_parse_minimal_scenario_fills_defaults():
    config = parse_scenario(BASE_TEXT)
    assert config.nu == 0.5
    assert config.pursuer_law == MCPG(3.0)
    assert config.evader_program == Zero()
    assert config.capture_radius == 0.05
    assert config.sample_stride == 1
    assert config.label == ""
    assert config.step_size == stability_step_cap(MCPG(3.0), 0.5, 0.05)
    assert config.t_max == 2.0 * 10.0 / (1.0 - 0.5)


def test_parse_full_scenario():
    text = BASE_TEXT + (
        "label = demo\n"
        "evader_program.variant = sinusoid\n"
        "evader_program.amplitude = 0.4\n"
        "evader_program.angular_freq = 2.0\n"
        "step_size = 0.001\n"
        "t_max = 12.0\n"
        "capture_radius = 0.02\n"
        "sample_stride = 4\n"
    )
    config = parse_scenario(text)
    assert config.label == "demo"
    assert config.evader_program == Sinusoid(amplitude=0.4, angular_freq=2.0, phase=0.0)
    assert config.step_size == 0.001
    assert config.t_max == 12.0
    assert config.capture_radius == 0.02
    assert config.sample_stride == 4


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("just words", "line 3"),
        ("= 1.0", "empty key"),
        ("mystery_key = 1.0", "unknown key"),
        ("nu = 0.7", "duplicate key"),
    ],
)
def test_parse_errors_carry_line_numbers(line, fragment):
    text = "label = x\nnu = 0.5\n" + line + "\n"
    with pytest.raises(ParseError, match=fragment):
        parse_scenario(text)


def test_non_numeric_value_is_rejected_with_the_line():
    text = BASE_TEXT.replace("nu = 0.5", "nu = fast")
    with pytest.raises(ParseError, match="line 2"):
        parse_scenario(text)


def test_missing_required_keys_are_reported():
    with pytest.raises(ValidationError, match="pursuer_law.variant"):
        parse_scenario(BASE_TEXT.replace("pursuer_law.variant = mcpg\n", ""))
    with pytest.raises(ValidationError, match="pursuer_law.mu"):
        parse_scenario(BASE_TEXT.replace("pursuer_law.mu = 3.0\n", ""))
    with pytest.raises(ValidationError, match="nu"):
        parse_scenario(BASE_TEXT.replace("nu = 0.5\n", ""))


def test_keys_for_other_variants_are_rejected():
    text = BASE_TEXT + "evader_program.variant = constant\nevader_program.c = 0.2\n"
    bad = text + "evader_program.amplitude = 0.4\n"
    with pytest.raises(ValidationError, match="does not apply"):
        parse_scenario(bad)
    with pytest.raises(ValidationError, match="pursuer_law.N"):
        parse_scenario(BASE_TEXT + "pursuer_law.N = 4.0\n")


def test_unknown_variants_are_rejected():
    with pytest.raises(ValidationError, match="pursuit"):
        parse_scenario(BASE_TEXT.replace("mcpg", "pursuit"))
    with pytest.raises(ValidationError, match="waltz"):
        parse_scenario(BASE_TEXT + "evader_program.variant = waltz\n")


def test_piecewise_random_seed_must_be_an_integer():
    text = BASE_TEXT + (
        "evader_program.variant = piecewise_random\n"
        "evader_program.seed = 1.5\n"
        "evader_program.dwell = 0.5\n"
        "evader_program.u_max = 0.3\n"
    )
    with pytest.raises(ParseError, match="integer"):
        parse_scenario(text)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_numbers_are_parse_errors(value):
    text = BASE_TEXT.replace("pursuer_init.x = 10.0", f"pursuer_init.x = {value}")
    with pytest.raises(ParseError, match="line 3: key 'pursuer_init.x'"):
        parse_scenario(text)
    with pytest.raises(ParseError, match="override key 't_max'"):
        parse_scenario_with_overrides(BASE_TEXT, {"t_max": value})


# (scenario text, overrides, error, its whole message): the reader reports
# the first fault it meets, reading in file order, and an override's fault
# carries no line number.
FIRST_FAULTS = [
    (BASE_TEXT.replace("nu = 0.5\n", "") + "sample_stride = 1.5\n", {}, ValidationError,
     "missing required key 'nu'"),
    (BASE_TEXT, {"pursuer_law.N": "4.0"}, ValidationError,
     "key 'pursuer_law.N' does not apply to the selected variants"),
    (BASE_TEXT + "pursuer_law.N = 4.0\n", {}, ValidationError,
     "line 12: key 'pursuer_law.N' does not apply to the selected variants"),
    (BASE_TEXT + "pursuer_law.N = 4.0\n", {"evader_program.c": "1.0"}, ValidationError,
     "key 'evader_program.c' does not apply to the selected variants"),
    (BASE_TEXT.replace("mu = 3.0", "mu = 0") + "evader_program.variant = waltz\n", {},
     ValidationError, "invalid pursuer law: mu must be finite and positive, got 0.0"),
    (BASE_TEXT + "evader_program.variant = waltz\nsample_stride = x\n", {}, ValidationError,
     "unknown evader_program.variant 'waltz'"),
    (BASE_TEXT + "t_max = soon\n", {"sample_stride": "2.5"}, ParseError,
     "line 12: key 't_max': expected a finite number, got 'soon'"),
    (BASE_TEXT, {"sample_stride": "2.5"}, ParseError,
     "override key 'sample_stride': expected an integer, got '2.5'"),
    (BASE_TEXT, {"nu": "x", "speed": "1"}, ParseError, "unknown override key 'speed'"),
]


@pytest.mark.parametrize("text,overrides,error,message", FIRST_FAULTS)
def test_the_reader_reports_the_first_fault_in_file_order(text, overrides, error, message):
    with pytest.raises(error) as info:
        parse_scenario_with_overrides(text, overrides)
    assert str(info.value) == message


def test_overrides_replace_and_extend_entries():
    config = parse_scenario_with_overrides(
        BASE_TEXT, {"nu": "0.25", "t_max": "7.5", "label": "patched"}
    )
    assert config.nu == 0.25
    assert config.t_max == 7.5
    assert config.label == "patched"


def test_validate_rejects_bad_configs():
    good = parse_scenario(BASE_TEXT)
    import dataclasses

    with pytest.raises(ValidationError, match="nu"):
        dataclasses.replace(good, nu=1.0)
    with pytest.raises(ValidationError, match="step_size"):
        dataclasses.replace(good, step_size=0.0)
    with pytest.raises(ValidationError, match="stability cap"):
        dataclasses.replace(good, step_size=good.step_size * 2.0)
    with pytest.raises(ValidationError, match="sample_stride"):
        dataclasses.replace(good, sample_stride=0)
    with pytest.raises(ValidationError, match="coincident"):
        dataclasses.replace(good, pursuer_init=good.evader_init)
    with pytest.raises(ValidationError, match="t_max"):
        dataclasses.replace(good, t_max=-1.0)
    with pytest.raises(ValidationError, match="unbounded curvature declaration"):
        dataclasses.replace(good, evader_program=Switch(math.inf))
    with pytest.raises(ValidationError, match="heading"):
        build_scenario(
            nu=0.5,
            pursuer_init=_state(1.0, 0.0, math.nan),
            evader_init=_state(0.0, 0.0, 0.0),
            pursuer_law=MCPG(2.0),
        )


def test_build_scenario_is_the_config_constructor():
    assert build_scenario is ScenarioConfig


def test_a_stride_that_is_a_bool_is_a_validation_error():
    # write_scenario would write it as "True", which the reader rejects.
    with pytest.raises(ValidationError, match="sample_stride must be an integer"):
        dataclasses.replace(parse_scenario(BASE_TEXT), sample_stride=True)


@pytest.mark.parametrize("nu", [1.0, 1.5])
def test_a_speed_ratio_of_one_or_more_is_a_validation_error_with_the_default_t_max(nu):
    # The default t_max divides by 1 - nu, so nu is checked before it.
    with pytest.raises(ValidationError, match=r"nu out of \[0, 1\)"):
        build_scenario(nu=nu, pursuer_init=_state(1.0, 0.0, 0.0),
                       evader_init=_state(0.0, 0.0, 0.0), pursuer_law=MCPG(2.0))


def test_an_initial_range_that_overflows_is_named_with_the_default_t_max():
    # The default t_max, 2 |r(0)| / (1 - nu), would be inf too, so |r(0)| is checked before it.
    with pytest.raises(ValidationError, match=r"^initial range is not finite: inf$"):
        build_scenario(nu=0.5, pursuer_init=_state(1e308, 0.0, 0.0),
                       evader_init=_state(-1e308, 0.0, 0.0), pursuer_law=MCPG(1.0))


ROUND_TRIP_CONFIGS = [
    build_scenario(
        nu=0.5,
        pursuer_init=_state(10.0, -2.0, 1.5),
        evader_init=_state(0.0, 0.5, 0.25),
        pursuer_law=MCPG(3.0),
        label="mcpg zero",
    ),
    build_scenario(
        nu=0.7,
        pursuer_init=_state(-4.0, 3.0, -0.5),
        evader_init=_state(1.0, 1.0, 2.0),
        pursuer_law=Exact(2.5),
        evader_program=Constant(0.3),
        t_max=15.0,
        sample_stride=3,
    ),
    build_scenario(
        nu=0.3,
        pursuer_init=_state(0.0, 8.0, 0.1),
        evader_init=_state(0.0, 0.0, 0.0),
        pursuer_law=PPNG(4.0),
        evader_program=Sinusoid(amplitude=0.2, angular_freq=1.5, phase=0.75),
        capture_radius=0.1,
    ),
    build_scenario(
        nu=0.9,
        pursuer_init=_state(30.0, 0.0, 3.0),
        evader_init=_state(0.0, 0.0, 1.0),
        pursuer_law=MCPG(40.0),
        evader_program=PiecewiseRandom(seed=11, dwell=0.5, u_max=0.3),
        label="random weave",
    ),
]


@pytest.mark.parametrize("config", ROUND_TRIP_CONFIGS, ids=lambda c: type(c.evader_program).__name__)
def test_write_then_parse_recovers_the_config(config):
    text = write_scenario(config)
    again = parse_scenario(text)
    assert again == config
    assert write_scenario(again) == text


def test_write_scenario_writes_every_kind_of_key_in_a_fixed_order():
    config = build_scenario(
        nu=0.9,
        pursuer_init=_state(30.0, 0.0, 3.0),
        evader_init=_state(0.0, -1.5, 1.0),
        pursuer_law=MCPG(40.0),
        evader_program=PiecewiseRandom(seed=11, dwell=0.5, u_max=0.3),
        step_size=0.001,
        t_max=12.5,
        capture_radius=0.05,
        sample_stride=4,
        label="random weave",
    )
    assert write_scenario(config) == textwrap.dedent("""\
        label = random weave
        nu = 0.9
        pursuer_init.x = 30.0
        pursuer_init.y = 0.0
        pursuer_init.heading = 3.0
        evader_init.x = 0.0
        evader_init.y = -1.5
        evader_init.heading = 1.0
        pursuer_law.variant = mcpg
        pursuer_law.mu = 40.0
        evader_program.variant = piecewise_random
        evader_program.seed = 11
        evader_program.dwell = 0.5
        evader_program.u_max = 0.3
        step_size = 0.001
        t_max = 12.5
        capture_radius = 0.05
        sample_stride = 4
        """)


def test_the_keys_write_scenario_writes_are_the_known_keys():
    laws = (MCPG(3.0), Exact(2.5), PPNG(4.0))
    programs = (Zero(), Constant(0.3), Sinusoid(amplitude=0.2, angular_freq=1.5),
                PiecewiseRandom(seed=11, dwell=0.5, u_max=0.3))
    assert {law.variant for law in laws} == set(scenario_io.LAWS)
    assert {program.variant for program in programs} == set(scenario_io.PROGRAMS)
    configs = [
        build_scenario(nu=0.5, pursuer_init=_state(10.0, -2.0, 1.5),
                       evader_init=_state(0.0, 0.5, 0.25), pursuer_law=law,
                       evader_program=program, label="every key")
        for law, program in [(law, Zero()) for law in laws] + [(MCPG(3.0), p) for p in programs]
    ]
    written = set()
    for config in configs:
        keys = {line.split(" = ", 1)[0] for line in write_scenario(config).splitlines()}
        assert keys <= KNOWN_KEYS
        written |= keys
    assert written == KNOWN_KEYS
    assert len(KNOWN_KEYS) == 23


@pytest.mark.parametrize("label", [" padded ", "two\nlines", "a\x0bb", "a\u2028b", "x\nnu = 0.1"])
def test_a_label_the_scenario_file_cannot_hold_is_a_validation_error(label):
    # Each was accepted, then came back stripped or made the file unparseable.
    with pytest.raises(ValidationError, match="label must be one line"):
        build_scenario(nu=0.5, pursuer_init=_state(1.0, 0.0, 0.0),
                       evader_init=_state(0.0, 0.0, 0.0), pursuer_law=MCPG(2.0), label=label)


@given(st.text())
@example("random weave")
def test_every_label_build_scenario_accepts_is_written_back(label):
    try:
        config = build_scenario(nu=0.5, pursuer_init=_state(1.0, 0.0, 0.0),
                                evader_init=_state(0.0, 0.0, 0.0), pursuer_law=MCPG(2.0),
                                label=label)
    except ValidationError:
        return
    assert parse_scenario(write_scenario(config)) == config


def test_written_floats_survive_exactly():
    config = build_scenario(
        nu=1.0 / 3.0,
        pursuer_init=_state(0.1, 1e-300, math.pi),
        evader_init=_state(-1e12, 2.0 / 3.0, -math.pi),
        pursuer_law=MCPG(1.0 / 7.0),
        step_size=0.1,
        t_max=1e6,
    )
    assert parse_scenario(write_scenario(config)) == config


def _small_record():
    config = build_scenario(
        nu=0.5,
        pursuer_init=_state(2.0, 0.0, 1.0),
        evader_init=_state(0.0, 0.0, 0.0),
        pursuer_law=MCPG(2.0),
        t_max=1.0,
    )
    values = [0.0, 0.1, -0.0, 1.0 / 3.0, 5e-324, -1e308, 123456.789012345678, 2.0]
    cols = {name: list(values) for name in CSV_COLUMNS}
    cols["t"] = [0.125 * i for i in range(8)]
    return TrajectoryRecord(scenario=config, termination=TERMINATION_TIME_LIMIT, **cols)


def test_trajectory_csv_round_trip_is_bit_exact():
    record = _small_record()
    sink = io.StringIO()
    write_trajectory_csv(record, sink)
    columns = csv_columns(io.StringIO(sink.getvalue()))
    assert set(columns) == set(CSV_COLUMNS)
    for name in CSV_COLUMNS:
        got = columns[name]
        want = getattr(record, name)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert math.copysign(1.0, g) == math.copysign(1.0, w)
            assert g == w


def test_trajectory_csv_matches_a_per_cell_reference():
    record = _small_record()
    # Cells that print as words, a negative zero and subnormals, in every column.
    special = [math.inf, -math.inf, math.nan, -0.0, 5e-324, -2.5e-310]
    record = dataclasses.replace(record, **{
        name: list(getattr(record, name)) + special for name in CSV_COLUMNS})
    sink = io.StringIO()
    write_trajectory_csv(record, sink)
    rows = zip(*(getattr(record, name) for name in CSV_COLUMNS))
    want = ",".join(CSV_COLUMNS) + "\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n" for row in rows
    )
    assert sink.getvalue() == want


def test_list_and_array_backed_records_write_identical_bytes():
    lists = _small_record()
    packed = dataclasses.replace(
        lists, **{name: array("d", getattr(lists, name)) for name in CSV_COLUMNS}
    )
    for write in (write_trajectory_csv, emit_figure_svg,
                  lambda rec, sink: emit_overlay_svg([rec, _small_record()], sink)):
        outputs = []
        for record in (lists, packed):
            sink = io.StringIO()
            write(record, sink)
            outputs.append(sink.getvalue())
        assert outputs[0] == outputs[1]


def test_summary_json_shape_and_determinism():
    record = _small_record()
    sink = io.StringIO()
    write_json(summary_dict(record), sink)
    text = sink.getvalue()
    assert text.endswith("\n")
    data = json.loads(text)
    assert data["schema"] == 1
    assert data["termination"] == TERMINATION_TIME_LIMIT
    assert data["n_samples"] == 8
    assert data["capture_time"] is None
    assert data["gamma_min"] == min(record.gamma)
    assert data["peak_abs_u_p"] == 1e308
    assert "certificate" not in data
    assert "envelope_ok" not in data
    again = io.StringIO()
    write_json(summary_dict(record), again)
    assert again.getvalue() == text


def test_summary_json_with_certificate_block():
    from mcpursuit.gain_design import design_certificate

    cert = design_certificate(nu=0.5, u_e_max=0.1, gamma0=0.2, r_init=50.0)
    data = summary_dict(_small_record(), cert=cert, envelope_ok=True)
    assert data["certificate"]["mu"] == cert.mu
    assert data["certificate"]["met_at_start"] is False
    assert data["envelope_ok"] is True


def _parse_svg(text):
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    return root


def test_figure_svg_is_well_formed():
    record = _small_record()
    sink = io.StringIO()
    emit_figure_svg(record, sink)
    root = _parse_svg(sink.getvalue())
    tags = [child.tag.split("}")[-1] for child in root]
    assert tags.count("polyline") == 2
    assert tags.count("line") >= 2


def test_single_sample_figure_uses_markers():
    record = _small_record()
    import dataclasses

    one = dataclasses.replace(
        record, **{name: [getattr(record, name)[0]] for name in CSV_COLUMNS}
    )
    sink = io.StringIO()
    emit_figure_svg(one, sink)
    root = _parse_svg(sink.getvalue())
    tags = [child.tag.split("}")[-1] for child in root]
    assert tags.count("circle") == 2


def test_figures_of_an_empty_record_are_well_formed():
    # A run whose first sample is non-finite records nothing.
    empty = TrajectoryRecord(scenario=_small_record().scenario, termination="non_finite")
    for write in (emit_figure_svg, lambda rec, sink: emit_overlay_svg([rec, rec], sink)):
        sink = io.StringIO()
        write(empty, sink)
        root = _parse_svg(sink.getvalue())
        assert all(child.get("points") == "" for child in root)
    # Beside a record with samples, the overlay fits that record alone.
    alone, beside = io.StringIO(), io.StringIO()
    emit_overlay_svg([_small_record()], alone)
    emit_overlay_svg([_small_record(), empty], beside)
    assert _parse_svg(beside.getvalue()).get("viewBox") == _parse_svg(alone.getvalue()).get("viewBox")


def test_overlay_svg_draws_one_pursuer_path_per_record():
    records = [_small_record(), _small_record(), _small_record()]
    sink = io.StringIO()
    emit_overlay_svg(records, sink)
    root = _parse_svg(sink.getvalue())
    tags = [child.tag.split("}")[-1] for child in root]
    # Three pursuer paths plus the shared evader path.
    assert tags.count("polyline") == 4


def test_an_overlay_of_no_records_is_a_validation_error():
    with pytest.raises(ValidationError, match="at least one record"):
        emit_overlay_svg([], io.StringIO())


def test_scaled_law_multiplies_the_gain():
    assert scaled(MCPG(3.0), 2.0) == MCPG(6.0)
    assert scaled(Exact(1.5), 3.0) == Exact(4.5)
    assert scaled(PPNG(4.0), 0.5) == PPNG(2.0)
    assert [gain(law) for law in (MCPG(3.0), Exact(1.5), PPNG(4.0))] == [3.0, 1.5, 4.0]
    # A product that is no valid gain names the multiplier.
    for bad in (1e308, 0.0, -1.0, math.nan):
        with pytest.raises(ValidationError, match=re.escape(f"gain multiplier {bad!r}:")):
            scaled(MCPG(4.0), bad)


SHIPPED = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scenarios")


def _shipped(name):
    with open(os.path.join(SHIPPED, f"{name}.txt"), encoding="utf-8") as f:
        return f.read()


def _readme_block(section, fence="```\n"):
    """The first fenced block under the README heading ``## section``."""
    with open(os.path.join(os.path.dirname(SHIPPED), "README.md"), encoding="utf-8") as f:
        text = f.read().split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return text.split(fence, 1)[1].split("```\n", 1)[0]


def _documented_examples():
    """The README's example under "## Scenario files" and the scenario_io docstring's."""
    docstring = scenario_io.__doc__.split("Example::\n\n", 1)[1].split("\n\n", 1)[0]
    return [_readme_block("Scenario files"), textwrap.dedent(docstring)]


@pytest.mark.parametrize("text", _documented_examples(), ids=["readme", "docstring"])
def test_the_documented_scenario_examples_parse(text):
    config = parse_scenario(text)
    assert parse_scenario(write_scenario(config)) == config


def test_the_readme_library_example_runs(capsys):
    # It designs a gain and simulates an engagement at it, in a few
    # hundredths of a second; the run must end captured and aligned.
    exec(compile(_readme_block("Library", "```python\n"), "README.md", "exec"), {})
    termination, gamma_min = capsys.readouterr().out.split()
    assert termination == "capture"
    assert float(gamma_min) <= -0.99


def test_step_budget_is_checked_before_any_run():
    text = _shipped("straight_chase")
    with pytest.raises(ValidationError, match=r"60000000000 steps.*MAX_STEPS = 100000000"):
        parse_scenario_with_overrides(text, {"t_max": "1e9"})
    # A power-of-two step makes the step count exact on both sides of the
    # limit, and a stride of 10 keeps the samples inside theirs.
    h = 2.0 ** -7
    at_limit = {"step_size": repr(h), "t_max": repr(MAX_STEPS * h), "sample_stride": "10"}
    assert parse_scenario_with_overrides(text, at_limit).t_max == MAX_STEPS * h
    with pytest.raises(ValidationError, match=str(MAX_STEPS + 1)):
        parse_scenario_with_overrides(text, dict(at_limit, t_max=repr((MAX_STEPS + 1) * h)))


def test_a_stride_too_large_for_a_float_is_a_validation_error():
    # simulate works out half a sample interval as a float, which such a
    # stride overflows.
    text = _shipped("straight_chase")
    with pytest.raises(ValidationError, match="sample_stride must be an integer >= 1"):
        parse_scenario_with_overrides(text, {"sample_stride": str(10**400)})
    config = parse_scenario_with_overrides(text, {"sample_stride": str(10**308)})
    assert config.sample_stride == 10**308


@pytest.mark.parametrize("stride", [1, 3])
def test_sample_budget_is_checked_before_any_run(stride):
    text = _shipped("straight_chase")
    h = 2.0 ** -7
    at_limit = {"step_size": repr(h), "t_max": repr(MAX_SAMPLES * stride * h),
                "sample_stride": str(stride)}
    assert parse_scenario_with_overrides(text, at_limit).t_max == MAX_SAMPLES * stride * h
    over = dict(at_limit, t_max=repr((MAX_SAMPLES * stride + 1) * h))
    with pytest.raises(ValidationError, match=rf"{MAX_SAMPLES + 1} samples.*MAX_SAMPLES = 10000000"):
        parse_scenario_with_overrides(text, over)


def test_step_budget_reports_an_overflowing_step_count():
    with pytest.raises(ValidationError, match="inf steps"):
        parse_scenario_with_overrides(
            _shipped("straight_chase"), {"step_size": "5e-324", "t_max": "1e300"})


_ODD_VALUES = st.one_of(
    st.sampled_from(["0", "-0", "-1", "-2.5", "5e-324", "-5e-324", "1e-310", "1e308",
                     "-1e308", "1e200", "3", "-7", "12345678901234567890", "", "abc",
                     "1e", "0x10", "mcpg", "ppng", "zero", "sinusoid"]),
    st.integers(min_value=-(10**30), max_value=10**30).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.text(max_size=8),
)


@example("ppng_lateral", {"capture_radius": "0"})
@example("ppng_lateral", {"capture_radius": "-1"})
@given(
    st.sampled_from(["circling_evader", "ppng_lateral", "random_weave", "sine_weave",
                     "straight_chase"]),
    st.dictionaries(st.sampled_from(sorted(KNOWN_KEYS)), _ODD_VALUES, min_size=1, max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_scenario_input_parses_or_fails_cleanly(name, overrides):
    try:
        config = parse_scenario_with_overrides(_shipped(name), overrides)
    except (ParseError, ValidationError):
        return
    assert dataclasses.replace(config) == config
