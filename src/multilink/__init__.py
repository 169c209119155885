"""Simulation and analysis of an (N+1)-link nonholonomic wheeled vehicle:
a Chaplygin sleigh towing a chain of hinged trailer platforms."""

from .analysis import (
    CensusTable,
    Classification,
    DegenerateSpectrumError,
    FixedPoint,
    FixedPointBlock,
    FixedPointKind,
    NoSpeedupError,
    PeriodError,
    PowerLawFit,
    SpeedupLaw,
    classify_fixed_point,
    enumerate_fixed_points,
    fit_power_law,
    linearization_matrix,
)
from .config import ConfigError, ScenarioConfig, parse_config
from .dynamics import (
    PoseState,
    ReducedState,
    Trajectory,
    attachment_positions,
    energy,
    simulate,
)
from .integrator import (
    DivergenceError,
    IntegrationError,
    IntegratorOptions,
    Solution,
    StepUnderflowError,
    integrate,
)
from .model import (
    DegenerateShapeError,
    DerivedParams,
    InvalidParameterError,
    RotorProfile,
    VehicleParams,
    derive_params,
    phi_from_theta,
    sine_rotor,
    theta_from_phi,
    zero_rotor,
)
from .scenarios import run_scenario

__version__ = "0.1.0"
