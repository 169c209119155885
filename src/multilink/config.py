"""JSON scenario configuration: parsing, validation, defaults.

The accepted document shape (defaults in parentheses; unknown keys are
rejected everywhere):

    {
      "scenario":   "inertial" | "manifold" | "speedup" | "fixed_points",
      "sign":       "plus" | "minus",          # manifold only, required there
      "vehicle":    {"m": [...], "I": [...], "a0": x, "a": [...], "c": [...],
                     "N": int (inferred)},
      "rotor":      {"kind": "sine", "amplitude": x, "period": x (1.0)},
      "initial":    {"v1": (1.0), "omega": (0.0), "phi": ([0...]),
                     "x": (0.0), "y": (0.0), "psi": (0.0)},
      "integrator": {"t_end": x, "rtol": (1e-10), "atol": (1e-12),
                     "h0": (min(1e-3, hmax), the first trial step),
                     "hmax": (inf, see below), "sample_stride": (1)},
      "outputs":    {"directory": ("out"), "formats": (["csv","svg","report"])}
    }

The step cap hmax is unbounded, except in the "speedup" scenario, where it
defaults to rotor.period / 13: its envelope fits take per-period maxima of
the emitted samples, and at the tolerances that scenario needs the
Dormand-Prince 8(5,3) pair's own steps come too few per rotor period for
those maxima (at rtol = atol = 1e-8 about 7).  The cap makes it 13, at
which a per-period maximum reads at most 1 - cos(pi/13) ~ 3% low.

Every number must be finite: NaN and Infinity, which Python's json
accepts, are rejected (an unbounded hmax is the default, not a value).
So are a "speedup" rotor whose mean squared rate is 0, a balanced sleigh,
and a "speedup" vehicle and rotor whose law's constant or coefficients
leave the float range.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import NoSpeedupError, asymptotic_prediction
from .dynamics import PoseState, ReducedState, energy
from .integrator import IntegratorOptions
from .model import (
    DerivedParams,
    InvalidParameterError,
    RotorProfile,
    VehicleParams,
    derive_params,
    sine_rotor,
    zero_rotor,
)

SCENARIOS = ("inertial", "manifold", "speedup", "fixed_points")
FORMATS = ("csv", "svg", "report")


class ConfigError(ValueError):
    """Raised for malformed or invalid scenario configuration documents."""


@dataclass(frozen=True)
class OutputOptions:
    directory: str = "out"
    formats: tuple[str, ...] = FORMATS


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    vehicle: VehicleParams
    derived: DerivedParams  # derive_params(vehicle)
    rotor: RotorProfile  # zero_rotor() where the document has no rotor block
    initial: ReducedState
    pose: PoseState
    integrator: IntegratorOptions
    outputs: OutputOptions = field(default_factory=OutputOptions)
    sign: int | None = None  # +1 / -1 on manifold runs


def _check_keys(obj: dict, allowed, where: str):
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}; "
                          f"allowed: {sorted(allowed)}")


def _number(obj, key, where, default=None, required=False):
    if key not in obj:
        if required:
            raise ConfigError(f"missing required field '{key}' in {where}")
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"field '{key}' in {where} must be a number")
    return _finite(v, f"field '{key}' in {where}")


def _number_list(obj, key, where):
    if key not in obj:
        raise ConfigError(f"missing required field '{key}' in {where}")
    v = obj[key]
    if not isinstance(v, list) or any(
            isinstance(x, bool) or not isinstance(x, (int, float)) for x in v):
        raise ConfigError(f"field '{key}' in {where} must be a list of numbers")
    return [_finite(x, f"entry {i} of field '{key}' in {where}")
            for i, x in enumerate(v)]


def _finite(v, what: str) -> float:
    """v as a float; Python's json accepts NaN, Infinity and integers beyond
    the float range, none of which is a usable parameter."""
    try:
        x = float(v)
    except OverflowError:
        raise ConfigError(f"{what} is beyond the float range") from None
    if not math.isfinite(x):
        raise ConfigError(f"{what} must be finite, got {x}")
    return x


def _parse_vehicle(block) -> tuple[VehicleParams, DerivedParams]:
    """The vehicle and its derived constants, whose sums can overflow where
    the parameters do not."""
    if not isinstance(block, dict):
        raise ConfigError("'vehicle' must be an object")
    _check_keys(block, ("N", "m", "I", "a0", "a", "c"), "'vehicle'")
    masses = _number_list(block, "m", "'vehicle'")
    inertias = _number_list(block, "I", "'vehicle'")
    a = _number_list(block, "a", "'vehicle'")
    c = _number_list(block, "c", "'vehicle'")
    a0 = _number(block, "a0", "'vehicle'", required=True)
    n = len(masses) - 1
    if "N" in block:
        if not isinstance(block["N"], int) or isinstance(block["N"], bool):
            raise ConfigError("'vehicle.N' must be an integer")
        if block["N"] != n:
            raise ConfigError(
                f"'vehicle.N' = {block['N']} contradicts array lengths: "
                f"m has {len(masses)} entries (N+1), so N = {n}")
    try:
        vehicle = VehicleParams(masses=np.array(masses),
                                inertias=np.array(inertias), a0=a0,
                                a=np.array(a), c=np.array(c))
        # DerivedParams names a non-finite constant; numpy need not warn
        with np.errstate(all="ignore"):
            return vehicle, derive_params(vehicle)
    except InvalidParameterError as e:
        raise ConfigError(f"invalid 'vehicle' block: {e}") from e


def _parse_rotor(block) -> RotorProfile:
    if not isinstance(block, dict):
        raise ConfigError("'rotor' must be an object")
    _check_keys(block, ("kind", "amplitude", "period"), "'rotor'")
    kind = block.get("kind")
    if kind != "sine":
        raise ConfigError(f"unsupported rotor kind {kind!r}; only 'sine' "
                          f"(omit the rotor block for a resting rotor)")
    amplitude = _number(block, "amplitude", "'rotor'", required=True)
    period = _number(block, "period", "'rotor'", default=1.0)
    try:
        return sine_rotor(amplitude, period)
    except InvalidParameterError as e:
        raise ConfigError(f"invalid 'rotor' block: {e}") from e


def _parse_initial(block, n: int) -> tuple[ReducedState, PoseState]:
    if not isinstance(block, dict):
        raise ConfigError("'initial' must be an object")
    _check_keys(block, ("v1", "omega", "phi", "x", "y", "psi"), "'initial'")
    v1 = _number(block, "v1", "'initial'", default=1.0)
    omega = _number(block, "omega", "'initial'", default=0.0)
    if "phi" in block:
        phi = _number_list(block, "phi", "'initial'")
        if len(phi) != n:
            raise ConfigError(f"'initial.phi' has {len(phi)} entries, "
                              f"expected N = {n}")
    else:
        phi = [0.0] * n
    pose = PoseState(_number(block, "x", "'initial'", default=0.0),
                     _number(block, "y", "'initial'", default=0.0),
                     _number(block, "psi", "'initial'", default=0.0))
    return ReducedState(v1, omega, np.array(phi)), pose


def _parse_integrator(block, default_hmax: float) -> IntegratorOptions:
    if not isinstance(block, dict):
        raise ConfigError("'integrator' must be an object")
    allowed = ("rtol", "atol", "h0", "hmax", "t_end", "sample_stride")
    _check_keys(block, allowed, "'integrator'")
    hmax = _number(block, "hmax", "'integrator'", default=default_hmax)
    try:
        return IntegratorOptions(
            t_end=_number(block, "t_end", "'integrator'", required=True),
            rtol=_number(block, "rtol", "'integrator'", default=1e-10),
            atol=_number(block, "atol", "'integrator'", default=1e-12),
            h0=_number(block, "h0", "'integrator'", default=min(1e-3, hmax)),
            hmax=hmax,
            sample_stride=block.get("sample_stride", 1),
        )
    except ValueError as e:
        raise ConfigError(f"invalid 'integrator' block: {e}") from e


def _parse_outputs(block) -> OutputOptions:
    if not isinstance(block, dict):
        raise ConfigError("'outputs' must be an object")
    _check_keys(block, ("directory", "formats"), "'outputs'")
    directory = block.get("directory", "out")
    if not isinstance(directory, str) or not directory:
        raise ConfigError("'outputs.directory' must be a non-empty string")
    formats = block.get("formats", list(FORMATS))
    if (not isinstance(formats, list) or not formats
            or any(f not in FORMATS for f in formats)):
        raise ConfigError(f"'outputs.formats' must be a non-empty subset of "
                          f"{list(FORMATS)}")
    return OutputOptions(directory, tuple(dict.fromkeys(formats)))


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario document; all defaults applied."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"JSON syntax error at line {e.lineno}, "
                          f"column {e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise ConfigError("top-level JSON value must be an object")
    _check_keys(doc, ("scenario", "sign", "vehicle", "rotor", "initial",
                      "integrator", "outputs"), "the top-level object")

    scenario = doc.get("scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"'scenario' must be one of {list(SCENARIOS)}, "
                          f"got {scenario!r}")
    if "vehicle" not in doc:
        raise ConfigError("missing required field 'vehicle'")
    vehicle, derived = _parse_vehicle(doc["vehicle"])
    rotor = _parse_rotor(doc["rotor"]) if "rotor" in doc else zero_rotor()
    if scenario == "speedup":
        if "rotor" not in doc:
            raise ConfigError("scenario 'speedup' requires a 'rotor' block")
        # the predicates of analysis.asymptotic_prediction
        if rotor.mean_sq_rate() <= 0.0:
            raise ConfigError(f"'rotor.amplitude' {rotor.amplitude:g} leaves "
                              f"the rotor momentum constant: no speedup")
    if scenario in ("speedup", "fixed_points") and derived.static_moment == 0.0:
        # a predicate of analysis.asymptotic_prediction and of
        # analysis.classify_fixed_point
        outcome = "no speedup" if scenario == "speedup" else \
            "no node/saddle classification"
        raise ConfigError(f"'vehicle.a0' {vehicle.a0:g} balances the sleigh "
                          f"(static moment m0 a0 = 0): {outcome}")
    if scenario == "speedup":
        # past the two predicates above, the law's constant and coefficients
        # can leave the float range, by the vehicle's fields or the rotor's
        try:
            asymptotic_prediction(vehicle, derived, rotor)
        except NoSpeedupError as e:
            raise ConfigError(f"'vehicle' and 'rotor' give no speedup law: "
                              f"{e}") from None
    if "integrator" not in doc:
        raise ConfigError("missing required field 'integrator'")
    # the speedup scenario's step cap: see the module docstring
    integrator = _parse_integrator(
        doc["integrator"],
        rotor.period / 13 if scenario == "speedup" else math.inf)

    sign = None
    if scenario == "manifold":
        if "sign" not in doc:
            raise ConfigError("scenario 'manifold' requires a 'sign' field "
                              "('plus' or 'minus')")
        if doc["sign"] not in ("plus", "minus"):
            raise ConfigError(f"'sign' must be 'plus' or 'minus', "
                              f"got {doc['sign']!r}")
        sign = 1 if doc["sign"] == "plus" else -1
        if vehicle.n_links == 0:
            raise ConfigError("scenario 'manifold' needs at least one trailer "
                              "platform: 'vehicle' has N = 0")
    elif "sign" in doc:
        raise ConfigError("'sign' is only valid for scenario 'manifold'")

    initial, pose = _parse_initial(doc.get("initial", {}), vehicle.n_links)
    if scenario == "manifold":
        # the level set of the manifold's speed
        with np.errstate(over="ignore"):
            h = float(energy(initial, vehicle, derived))
        if not math.isfinite(h):
            raise ConfigError(f"'initial' has energy {h}: the manifold "
                              f"scenario needs a finite one")
    outputs = _parse_outputs(doc.get("outputs", {}))
    return ScenarioConfig(scenario, vehicle, derived, rotor, initial, pose,
                          integrator, outputs, sign)
