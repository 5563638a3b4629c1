"""Command line behavior, exercised in process through main()."""

import io
import json
import math
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import csv_columns
from mcpursuit import cli, scenario_io
from mcpursuit.cli import (
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    main,
)
from mcpursuit.errors import McpursuitError
from mcpursuit.gain_design import design_certificate
from mcpursuit.guidance import PPNG, scaled, stability_step_cap
from mcpursuit.scenario_io import KNOWN_KEYS, parse_scenario, parse_scenario_with_overrides

FAST_SCENARIO = """\
nu = 0.4
pursuer_init.x = 3.0
pursuer_init.y = 0.0
pursuer_init.heading = 2.0
evader_init.x = 0.0
evader_init.y = 0.0
evader_init.heading = 0.5
pursuer_law.variant = mcpg
pursuer_law.mu = 2.0
step_size = 0.02
t_max = 2.0
sample_stride = 5
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "engagement.txt"
    path.write_text(FAST_SCENARIO, encoding="utf-8")
    return str(path)


def _read(path):
    with open(path, "rb") as f:
        return f.read()


def test_run_writes_trajectory_and_summary(scenario_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    code = main(["run", "--scenario", scenario_file, "--out", out, "--figure"])
    assert code == EXIT_OK
    assert os.path.exists(os.path.join(out, "trajectory.csv"))
    assert os.path.exists(os.path.join(out, "figure.svg"))
    summary = json.loads(_read(os.path.join(out, "summary.json")))
    assert summary["schema"] == 1
    assert summary["termination"] in {"capture", "time_limit"}
    line = capsys.readouterr().out.strip()
    assert summary["termination"] in line


def test_run_is_byte_deterministic(scenario_file, tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["run", "--scenario", scenario_file, "--out", out_a, "--figure"]) == EXIT_OK
    assert main(["run", "--scenario", scenario_file, "--out", out_b, "--figure"]) == EXIT_OK
    for name in ("trajectory.csv", "summary.json", "figure.svg"):
        assert _read(os.path.join(out_a, name)) == _read(os.path.join(out_b, name))


def test_set_overrides_change_the_run(scenario_file, tmp_path):
    out = str(tmp_path / "out")
    code = main(
        ["run", "--scenario", scenario_file, "--out", out, "--set", "t_max=0.5"]
    )
    assert code == EXIT_OK
    summary = json.loads(_read(os.path.join(out, "summary.json")))
    assert summary["final_time"] <= 0.5 + 1e-12


def test_missing_scenario_file_is_an_io_error(tmp_path):
    code = main(["run", "--scenario", str(tmp_path / "nope.txt"), "--out", str(tmp_path)])
    assert code == EXIT_IO


def test_bad_scenario_text_is_a_validation_error(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("nu 0.5\n", encoding="utf-8")
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION


def test_a_scenario_file_that_is_not_utf8_is_a_validation_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"nu = 0.5\xff\n")
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == f"mcpursuit: {path}: not UTF-8 text at byte 8\n"
    assert "Traceback" not in err
    assert not os.path.exists(tmp_path / "o")


def test_a_scenario_file_with_a_byte_order_mark_reads_as_the_plain_file(tmp_path, capsys):
    plain = _shipped("straight_chase")
    marked = tmp_path / "marked.txt"
    marked.write_bytes(b"\xef\xbb\xbf" + _read(plain))
    text = _read(plain).decode("utf-8")
    assert parse_scenario("\ufeff" + text) == parse_scenario(text)
    for path, out in ((plain, "plain"), (marked, "marked")):
        assert main(["run", "--figure", "--scenario", str(path),
                     "--out", str(tmp_path / out)]) == EXIT_OK
    for name in ("trajectory.csv", "summary.json", "figure.svg"):
        assert _read(tmp_path / "marked" / name) == _read(tmp_path / "plain" / name)


def test_a_bad_byte_after_a_byte_order_mark_is_reported_at_its_file_offset(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xef\xbb\xbfnu = 0.5\xff\n")
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"mcpursuit: {path}: not UTF-8 text at byte 11\n"


# A run neither captured nor blown up ends at the first sample with
# t >= t_max - step_size * sample_stride / 2, so its end time moves with the
# stride; once step_size * sample_stride >= 2 * t_max that is the initial
# sample. straight_chase steps 1/60.
@pytest.mark.parametrize("t_max, stride, samples, final_time", [
    ("1", 1, 61, 1.0),
    ("1", 7, 10, 1.05),
    ("1", 100, 2, 100 / 60),
    ("30", 100_000_000, 1, 0.0),
])
def test_a_time_limited_run_ends_at_the_sample_nearest_t_max(t_max, stride, samples, final_time,
                                                             tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["run", "--scenario", _shipped("straight_chase"), "--out", out,
                 "--set", f"t_max={t_max}", "--set", f"sample_stride={stride}"]) == EXIT_OK
    assert f"termination=time_limit samples={samples} " in capsys.readouterr().out
    summary = json.loads(_read(os.path.join(out, "summary.json")))
    assert summary["termination"] == "time_limit"
    assert summary["final_time"] == pytest.approx(final_time)


def test_non_finite_file_value_is_a_validation_error(tmp_path, capsys):
    path = tmp_path / "nan.txt"
    path.write_text(FAST_SCENARIO.replace("pursuer_init.x = 3.0", "pursuer_init.x = nan"),
                    encoding="utf-8")
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    assert "line 2" in capsys.readouterr().err


def test_non_finite_set_value_is_a_validation_error(scenario_file, tmp_path, capsys):
    code = main(
        ["run", "--scenario", scenario_file, "--out", str(tmp_path / "o"),
         "--set", "pursuer_init.x=inf"]
    )
    assert code == EXIT_VALIDATION
    assert "pursuer_init.x" in capsys.readouterr().err


def test_unknown_set_key_is_a_usage_error(scenario_file, tmp_path):
    code = main(
        ["run", "--scenario", scenario_file, "--out", str(tmp_path / "o"),
         "--set", "warp_factor=9"]
    )
    assert code == EXIT_USAGE


def test_set_without_equals_is_a_usage_error(scenario_file, tmp_path):
    code = main(
        ["run", "--scenario", scenario_file, "--out", str(tmp_path / "o"), "--set", "nu"]
    )
    assert code == EXIT_USAGE


def test_no_subcommand_is_a_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


def test_sweep_writes_one_subdir_per_multiplier(scenario_file, tmp_path):
    out = str(tmp_path / "sweep")
    # One shared step for every multiplier, so it must satisfy the cap at x4.
    code = main(
        ["sweep", "--scenario", scenario_file, "--out", out, "--gains", "1,2,4",
         "--set", "step_size=0.008"]
    )
    assert code == EXIT_OK
    table = _read(os.path.join(out, "sweep.csv")).decode("utf-8").splitlines()
    assert table[0] == "multiplier,gain,peak_gamma_excess,ratio_vs_prev"
    assert len(table) == 4
    for m in ("1", "2", "4"):
        sub = os.path.join(out, f"gain_x{m}")
        assert os.path.exists(os.path.join(sub, "trajectory.csv"))
        assert os.path.exists(os.path.join(sub, "summary.json"))


def test_sweep_rejects_bad_gain_lists(scenario_file, tmp_path):
    out = str(tmp_path / "o")
    assert main(["sweep", "--scenario", scenario_file, "--out", out,
                 "--gains", "1,zap"]) == EXIT_USAGE
    assert main(["sweep", "--scenario", scenario_file, "--out", out,
                 "--gains", "0,1"]) == EXIT_USAGE
    assert main(["sweep", "--scenario", scenario_file, "--out", out,
                 "--gains", ""]) == EXIT_USAGE


def test_certify_emits_a_valid_certificate(scenario_file, tmp_path):
    out = str(tmp_path / "cert")
    code = main(["certify", "--scenario", scenario_file, "--out", out])
    assert code == EXIT_OK
    data = json.loads(_read(os.path.join(out, "certificate.json")))
    cert = data["certificate"]
    assert cert["nu"] == 0.4
    assert cert["mu"] > 0.0
    assert cert["T"] >= 0.0
    assert math.isfinite(cert["c2"])
    assert "verification" not in data


def test_certify_with_verification_runs_the_loop(scenario_file, tmp_path):
    out = str(tmp_path / "cert")
    code = main(["certify", "--scenario", scenario_file, "--out", out, "--verify"])
    assert code == EXIT_OK
    data = json.loads(_read(os.path.join(out, "certificate.json")))
    ver = data["verification"]
    assert ver["achieved"] is True
    assert ver["envelope_ok"] is True
    assert ver["termination"] in {"capture", "time_limit"}
    assert os.path.exists(os.path.join(out, "trajectory.csv"))


def test_certify_requires_the_baseline_law(scenario_file, tmp_path):
    path = os.path.join(os.path.dirname(scenario_file), "ppng.txt")
    with open(path, "w", encoding="utf-8") as f:
        f.write(FAST_SCENARIO.replace("variant = mcpg", "variant = ppng")
                .replace("pursuer_law.mu", "pursuer_law.N"))
    assert main(["certify", "--scenario", path, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION


def test_compare_runs_the_three_laws(scenario_file, tmp_path):
    out = str(tmp_path / "cmp")
    code = main(["compare", "--scenario", scenario_file, "--out", out])
    assert code == EXIT_OK
    table = _read(os.path.join(out, "comparison.csv")).decode("utf-8").splitlines()
    assert table[0] == (
        "law,step_size,termination,capture_time,final_gamma,peak_residual,peak_abs_u_p"
    )
    laws = [row.split(",")[0] for row in table[1:]]
    assert laws == ["mcpg", "exact", "ppng"]
    assert os.path.exists(os.path.join(out, "overlay.svg"))
    for law in laws:
        assert os.path.exists(os.path.join(out, law, "trajectory.csv"))


def test_compare_matches_mcpg_and_exact_against_a_still_evader(scenario_file, tmp_path):
    out = str(tmp_path / "cmp")
    assert main(["compare", "--scenario", scenario_file, "--out", out]) == EXIT_OK
    rows = _read(os.path.join(out, "comparison.csv")).decode("utf-8").splitlines()[1:]
    cells = {row.split(",")[0]: row.split(",") for row in rows}
    # With a straight evader the feedforward term vanishes.
    assert cells["mcpg"][3:] == cells["exact"][3:]


SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scenarios")


def test_compare_flies_ppng_at_mu_times_r0(tmp_path, capsys):
    # The navigation gain N = mu * r0 makes PPNG's command MCPG's at range r0.
    cert = design_certificate(nu=0.9, u_e_max=0.0, gamma0=0.0, r_init=100.0, r0_choice=1.0)
    out = str(tmp_path / "cmp")
    sets = {"pursuer_law.mu": repr(cert.mu), "t_max": "0.5"}
    argv = ["compare", "--scenario", os.path.join(SCENARIOS, "straight_chase.txt"), "--out", out,
            "--r0", repr(cert.r0)]
    assert main(argv + [a for k, v in sets.items() for a in ("--set", f"{k}={v}")]) == EXIT_OK
    n_gain = cert.mu * cert.r0
    assert n_gain == pytest.approx(37.065092445315926, rel=1e-14)
    assert f" ppng_gain={cli.f17(n_gain)} " in capsys.readouterr().out
    with open(os.path.join(SCENARIOS, "straight_chase.txt"), encoding="utf-8") as f:
        config = parse_scenario_with_overrides(f.read(), sets)
    cap = stability_step_cap(PPNG(n_gain), config.nu, config.capture_radius)
    rows = _read(os.path.join(out, "comparison.csv")).decode("utf-8").splitlines()
    assert rows[3].split(",")[:2] == ["ppng", cli.f17(min(config.step_size, cap))]


@pytest.mark.parametrize("radius", ["0", "-1"])
def test_bad_capture_radius_on_ppng_is_a_validation_error(radius, tmp_path, capsys):
    # The ppng default step divides by the capture radius.
    code = main(
        ["run", "--scenario", os.path.join(SCENARIOS, "ppng_lateral.txt"),
         "--out", str(tmp_path / "o"), "--set", f"capture_radius={radius}"]
    )
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert "capture_radius" in err
    assert "Traceback" not in err


def test_sweep_tightens_its_shared_step_to_the_largest_gain(tmp_path, capsys):
    path = os.path.join(SCENARIOS, "straight_chase.txt")
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--scenario", path, "--out", out, "--gains", "1,3"]) == EXIT_OK
    capsys.readouterr()
    with open(path, encoding="utf-8") as f:
        config = parse_scenario(f.read())
    cap = stability_step_cap(scaled(config.pursuer_law, 3.0), config.nu, config.capture_radius)
    assert cap < config.step_size
    for m in ("1", "3"):
        with open(os.path.join(out, f"gain_x{m}", "trajectory.csv"), encoding="utf-8") as f:
            t = csv_columns(f)["t"]
        assert t[1] == config.sample_stride * cap


def _shipped(name):
    return os.path.join(SCENARIOS, f"{name}.txt")


# Commands whose inputs overflow, with the exit code each must end with.
OVERFLOWS = [
    # The initial range overflows to inf.
    (["run", "--figure", "--scenario", _shipped("straight_chase"),
      "--set", "evader_init.x=1e308", "--set", "t_max=0.5"], EXIT_VALIDATION),
    # The first sample is non-finite, so the record is empty.
    (["run", "--figure", "--scenario", _shipped("straight_chase"),
      "--set", "pursuer_law.mu=1e308", "--set", "t_max=0"], EXIT_NUMERICAL),
    (["sweep", "--gains", "1", "--scenario", _shipped("straight_chase"),
      "--set", "pursuer_law.mu=1e308", "--set", "t_max=0"], EXIT_NUMERICAL),
    # The scaled gain overflows to inf.
    (["sweep", "--gains", "1e308", "--scenario", _shipped("straight_chase")], EXIT_VALIDATION),
    # The certified gain overflows to inf.
    (["certify", "--scenario", _shipped("random_weave"), "--r0", "1e-309"], EXIT_VALIDATION),
    (["certify", "--verify", "--scenario", _shipped("random_weave"), "--r0", "1e-309"],
     EXIT_VALIDATION),
]


@pytest.mark.parametrize("argv,code", OVERFLOWS)
def test_overflowing_inputs_exit_with_their_documented_codes(argv, code, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "o")]) == code
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("error", McpursuitError.__subclasses__(), ids=lambda e: e.__name__)
def test_every_package_error_exits_3(error, scenario_file, tmp_path, monkeypatch, capsys):
    def fail(args, config):
        raise error("the message")

    monkeypatch.setattr(cli, "_cmd_run", fail)
    assert main(["run", "--scenario", scenario_file, "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "mcpursuit: the message\n"


COMMANDS = {
    "run": ("_cmd_run", []),
    "sweep": ("_cmd_sweep", ["--gains", "1"]),
    "certify": ("_cmd_certify", []),
    "compare": ("_cmd_compare", []),
}

# What a command does -> the exit code main returns and what it prints on stderr.
OUTCOMES = {
    "usage": (cli._UsageError("the message"), EXIT_USAGE, "mcpursuit: the message\n"),
    "package": (McpursuitError("the message"), EXIT_VALIDATION, "mcpursuit: the message\n"),
    "io": (OSError("the message"), EXIT_IO, "mcpursuit: the message\n"),
    "non_finite": ([{"termination": "capture"}, {"termination": "non_finite"}],
                   EXIT_NUMERICAL, ""),
    "finite": ([{"termination": "capture"}, {"termination": "time_limit"}], EXIT_OK, ""),
}


@pytest.mark.parametrize("outcome", OUTCOMES)
@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_reports_through_main(command, outcome, scenario_file, tmp_path,
                                            monkeypatch, capsys):
    # main loads the scenario, maps each error to its exit code and returns 4
    # when any summary a command returns ended non_finite, for every command.
    name, extra = COMMANDS[command]
    result, code, err = OUTCOMES[outcome]
    seen = []

    def stub(args, config):
        seen.append(config)
        if isinstance(result, Exception):
            raise result
        return result

    monkeypatch.setattr(cli, name, stub)
    argv = [command, "--scenario", scenario_file, "--out", str(tmp_path)] + extra
    assert main(argv) == code
    assert capsys.readouterr().err == err
    with open(scenario_file, encoding="utf-8") as f:
        assert seen == [parse_scenario(f.read())]


# Gains whose stability cap overflows to a zero step.
HUGE_GAINS = [
    # ppng's N / capture_radius overflows; N = mu * r0 with r0 = r_init / 100.
    (["compare", "--scenario", _shipped("straight_chase"),
      "--set", "pursuer_law.mu=1e308", "--set", "t_max=0"], "ppng gain 1.2"),
    # r0 = 3e-307 certifies mu near 1.2e308, finite, but mu * (1 + nu) is not.
    (["certify", "--verify", "--scenario", _shipped("random_weave"), "--r0", "3e-307"],
     "mcpg gain 1.2"),
    (["run", "--scenario", _shipped("straight_chase"),
      "--set", "pursuer_law.mu=1e308", "--set", "nu=0.9"], "mcpg gain 1e+308"),
]


@pytest.mark.parametrize("argv,names", HUGE_GAINS, ids=["compare", "certify", "run"])
def test_a_gain_that_leaves_no_step_is_named(argv, names, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert names in err and "leaves no finite positive step cap" in err


# mu * r0 is not a valid ppng gain: it overflows to inf or underflows to 0.
BAD_PPNG_GAINS = [
    ["compare", "--scenario", _shipped("straight_chase"), "--set", "pursuer_law.mu=1e308",
     "--set", "t_max=0", "--r0", "3"],
    ["compare", "--scenario", _shipped("straight_chase"), "--set", "pursuer_law.mu=1e-300",
     "--r0", "1e-30"],
]


@pytest.mark.parametrize("argv", BAD_PPNG_GAINS, ids=["inf", "zero"])
def test_a_compare_ppng_gain_that_is_not_valid_is_named(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "ppng gain" in err and "Traceback" not in err


def test_sweep_rejects_multipliers_that_share_an_output_dir(scenario_file, tmp_path, capsys):
    out = tmp_path / "sweep"
    argv = ["sweep", "--scenario", scenario_file, "--out", str(out), "--gains", "3,1,1.0000001"]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "1.0 and 1.0000001" in err and "gain_x1" in err
    assert not out.exists()


# Values for --set, --r0 and --gains: malformed, non-finite, overflowing,
# subnormal and a few valid ones.
_CLI_VALUES = st.sampled_from(
    ["0", "-0", "-1", "0.3", "0.9", "1.5", "3", "40", "5e-324", "1e-310", "1e-300", "1e154",
     "1e297", "1e308", "-1e308", "12345678901234567890", "", "abc", "nan", "inf", "mcpg",
     "exact", "ppng", "zero", "constant", "sinusoid", "piecewise_random"]
)
_GAINS = st.sampled_from(
    ["1", "3", "1,3", "0.5,2", "1e308", "1e-310", "5e-324", "0", "-1", "", "abc", "1,nan", "2,inf"]
)
SHIPPED = ("circling_evader", "ppng_lateral", "random_weave", "sine_weave", "straight_chase")


@st.composite
def _commands(draw):
    """argv for one subcommand on a shipped scenario, with random overrides."""
    command = draw(st.sampled_from(["run", "sweep", "certify", "compare"]))
    argv = [command, "--scenario", _shipped(draw(st.sampled_from(SHIPPED)))]
    if command == "certify" and draw(st.booleans()):
        argv.append("--verify")
    if command != "certify" and draw(st.booleans()):
        argv.append("--figure")
    if command == "sweep":
        argv += ["--gains", draw(_GAINS)]
    if command in ("certify", "compare") and draw(st.booleans()):
        argv += ["--r0", draw(_CLI_VALUES)]
    keys = st.sampled_from(sorted(KNOWN_KEYS - {"t_max"}))
    for key, value in draw(st.dictionaries(keys, _CLI_VALUES, max_size=3)).items():
        argv += ["--set", f"{key}={value}"]
    return argv + ["--set", "t_max=" + draw(st.sampled_from(["0", "0.2", "0.5"]) | _CLI_VALUES)]


def _strict_json(path):
    """Parse the file at ``path`` as JSON, failing on NaN and the infinities."""
    def reject(constant):
        raise ValueError(f"{path}: {constant} is not JSON")

    with open(path, encoding="utf-8") as f:
        return json.load(f, parse_constant=reject)


# Finite states whose baseline length overflows.
_BASELINE_OVERFLOW = ["run", "--scenario", _shipped("straight_chase"),
                      "--set", "pursuer_law.mu=1e-300", "--set", "step_size=1e297",
                      "--set", "t_max=1e298"]


@example(argv=OVERFLOWS[0][0])
@example(argv=OVERFLOWS[1][0])
@example(argv=OVERFLOWS[3][0])
@example(argv=BAD_PPNG_GAINS[0])
@example(argv=BAD_PPNG_GAINS[1])
@example(argv=_BASELINE_OVERFLOW)
@example(argv=["certify", "--verify", "--scenario", _shipped("straight_chase")])
@given(argv=_commands())
@settings(max_examples=300, deadline=None)
def test_any_command_line_ends_with_a_documented_exit_code(argv):
    # With so few steps allowed no run is long, whatever t_max or --verify asks.
    with tempfile.TemporaryDirectory() as out, mock.patch.object(scenario_io, "MAX_STEPS", 5000):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            code = main(argv + ["--out", out])
        for folder, _, files in os.walk(out):
            for name in {"summary.json", "certificate.json"} & set(files):
                _strict_json(os.path.join(folder, name))
    assert code in {EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EXIT_NUMERICAL, EXIT_IO}, err.getvalue()
    assert "Traceback" not in err.getvalue()
