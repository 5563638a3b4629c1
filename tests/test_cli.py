"""Command line behavior, exercised in process through main()."""

import json
import math
import os

import pytest

from mcpursuit.cli import (
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    main,
)
from mcpursuit.guidance import stability_step_cap
from mcpursuit.scenario_io import parse_scenario, read_trajectory_csv, scaled_law

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
    cap = stability_step_cap(scaled_law(config.pursuer_law, 3.0), config.nu, config.capture_radius)
    assert cap < config.step_size
    for m in ("1", "3"):
        with open(os.path.join(out, f"gain_x{m}", "trajectory.csv"), encoding="utf-8") as f:
            t = read_trajectory_csv(f)["t"]
        assert t[1] == config.sample_stride * cap
