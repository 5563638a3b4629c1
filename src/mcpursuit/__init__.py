"""Planar pursuit-evasion with motion-camouflage feedback laws.

The package simulates a unit-speed pursuer chasing a slower evader in the
plane, both steered by curvature controls. It provides the motion-camouflage
proportional guidance family, a gain design routine that certifies alignment
within a stated horizon, engagement metrics, deterministic scenario and
trajectory file formats, and a command line front end.
"""

from .dynamics import ParticleState
from .errors import (
    CertificateMismatch,
    DegenerateGamma,
    DegenerateStart,
    InvalidGeometry,
    InvalidSpeedRatio,
    McpursuitError,
    ParseError,
    ValidationError,
    ZeroBaseline,
)
from .gain_design import (
    GainCertificate,
    choose_epsilon,
    compute_c1,
    design_certificate,
    required_c2,
)
from .geometry import PlanarVector
from .guidance import (
    MCPG,
    PPNG,
    Constant,
    Exact,
    PiecewiseRandom,
    Sinusoid,
    Zero,
    random_level,
    stability_step_cap,
)
from .metrics import (
    MetricSample,
    camouflage_test,
    check_envelope,
    compute_metrics,
    gamma_envelope,
)
from .scenario_io import (
    ScenarioConfig,
    TrajectoryRecord,
    build_scenario,
    initial_range,
    initial_state,
    parse_scenario,
    write_scenario,
    write_trajectory_csv,
)
from .simulation import simulate

__version__ = "0.1.0"

__all__ = [
    "CertificateMismatch",
    "Constant",
    "DegenerateGamma",
    "DegenerateStart",
    "Exact",
    "GainCertificate",
    "InvalidGeometry",
    "InvalidSpeedRatio",
    "MCPG",
    "McpursuitError",
    "MetricSample",
    "PPNG",
    "ParseError",
    "ParticleState",
    "PiecewiseRandom",
    "PlanarVector",
    "ScenarioConfig",
    "Sinusoid",
    "TrajectoryRecord",
    "ValidationError",
    "Zero",
    "ZeroBaseline",
    "build_scenario",
    "camouflage_test",
    "check_envelope",
    "choose_epsilon",
    "compute_c1",
    "compute_metrics",
    "design_certificate",
    "gamma_envelope",
    "initial_range",
    "initial_state",
    "parse_scenario",
    "random_level",
    "required_c2",
    "simulate",
    "stability_step_cap",
    "write_scenario",
    "write_trajectory_csv",
]
