"""Physical parameters, angle coordinates and shape coefficients of the
(N+1)-link wheeled vehicle.

The vehicle is a leading platform ("sleigh", index 0) with a knife-edge
wheel pair, towing N trailer platforms coupled by frictionless vertical
hinges.  Everything downstream (dynamics, analysis) is written in terms of
the reduced constants produced by :func:`derive_params` and the theta
angle coordinates produced by :func:`theta_from_phi`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class InvalidParameterError(ValueError):
    """Raised when vehicle parameters violate their physical constraints."""


class DegenerateShapeError(ValueError):
    """Raised when the effective longitudinal inertia is non-positive.

    Cannot happen for parameters built by :func:`derive_params` (see the
    bound in :func:`angle_coeffs`), but hand-built `DerivedParams` with
    fabricated coupling coefficients can trigger it.
    """


@dataclass(frozen=True)
class VehicleParams:
    """Mass-geometric description of the vehicle.

    masses:  platform masses, length N+1 (sleigh first)
    inertias: central moments of inertia, length N+1
    a0:      sleigh center-of-mass offset from the wheel-pair center
    a:       trailer center-of-mass offsets from the rear hinge, length N
    c:       trailer hinge-to-wheel-pair distances, length N
    """

    masses: np.ndarray
    inertias: np.ndarray
    a0: float
    a: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        masses = np.asarray(self.masses, dtype=float)
        inertias = np.asarray(self.inertias, dtype=float)
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        if masses.ndim != 1 or masses.size < 1:
            raise InvalidParameterError("masses must be a 1-d array of length N+1")
        n = masses.size - 1
        if inertias.shape != (n + 1,):
            raise InvalidParameterError(
                f"inertias has length {inertias.size}, expected {n + 1} (one per platform)")
        if a.shape != (n,) or c.shape != (n,):
            raise InvalidParameterError(
                f"trailer arrays must be 1-d of length {n}: got shapes "
                f"a={'x'.join(map(str, a.shape))}, c={'x'.join(map(str, c.shape))}")
        for name, values in (("masses", masses), ("inertias", inertias),
                             ("a0", [self.a0]), ("a", a), ("c", c)):
            if not all(map(math.isfinite, values)):
                raise InvalidParameterError(f"{name} must be finite, got {values}")
        if np.any(masses <= 0):
            raise InvalidParameterError("all platform masses must be positive")
        if np.any(inertias < 0):
            raise InvalidParameterError("moments of inertia must be non-negative")
        if np.any(c <= 0):
            raise InvalidParameterError("hinge-to-wheel distances c must be positive")
        if self.a0 < 0 or np.any(a < 0):
            raise InvalidParameterError("center-of-mass offsets must be non-negative")
        for name, arr in (("masses", masses), ("inertias", inertias), ("a", a), ("c", c)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_links(self) -> int:
        """Number of trailer platforms N."""
        return self.c.size


@dataclass(frozen=True)
class DerivedParams:
    """Reduced constants of the equations of motion.

    mass:          total vehicle mass
    inertia:       sleigh yaw inertia about the wheel contact point
                   (I0 + m0*a0^2)
    static_moment: m0*a0, couples longitudinal and angular motion
    coupling:      per-trailer coefficients
                   (I_i + m_i a_i (a_i - 2 c_i)) / c_i^2, length N;
                   may be negative
    """

    mass: float
    inertia: float
    static_moment: float
    coupling: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        coupling = np.atleast_1d(np.asarray(self.coupling, dtype=float))
        if coupling.ndim != 1:
            raise InvalidParameterError(
                f"coupling must be 1-d, got shape {coupling.shape}")
        coupling.flags.writeable = False
        object.__setattr__(self, "coupling", coupling)
        # a NaN passes every comparison below silently
        for name in ("mass", "inertia", "static_moment"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParameterError(
                    f"{name} must be finite, got {getattr(self, name)}")
        for i, value in enumerate(coupling.tolist()):
            if not math.isfinite(value):
                raise InvalidParameterError(
                    f"coupling[{i}] must be finite, got {value}")
        if self.mass <= 0 or self.inertia <= 0:
            raise InvalidParameterError("total mass and sleigh inertia must be positive")
        if self.static_moment < 0:
            raise InvalidParameterError("static moment must be non-negative")


def derive_params(p: VehicleParams) -> DerivedParams:
    """Collapse the raw mass geometry into the reduced constants."""
    mass = float(np.sum(p.masses))
    inertia = float(p.inertias[0] + p.masses[0] * p.a0 * p.a0)
    static_moment = float(p.masses[0] * p.a0)
    m_t, i_t = p.masses[1:], p.inertias[1:]
    coupling = (i_t + m_t * p.a * (p.a - 2.0 * p.c)) / (p.c * p.c)
    return DerivedParams(mass, inertia, static_moment, coupling)


# --- theta angle coordinates -----------------------------------------------
#
# theta_i = (-1)^(i+1) phi_i + 2 sum_{j<i} (-1)^(j+1) phi_j  (1-based i).
# The map is an integer unimodular lower-triangular matrix, so it is exactly
# invertible.  Both directions act along the last axis, so one state and a
# (samples, N) block go through the same code.


def theta_from_phi(phi) -> np.ndarray:
    """Map relative platform angles to theta angle coordinates."""
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    alt = alternating_signs(phi.shape[-1]) * phi
    return 2.0 * np.cumsum(alt, axis=-1) - alt


def phi_from_theta(theta) -> np.ndarray:
    """Exact inverse of :func:`theta_from_phi` (forward substitution)."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.empty_like(theta)
    acc = np.zeros(theta.shape[:-1])  # 2 * sum_{j<i} (-1)^(j+1) phi_j
    for i in range(theta.shape[-1]):
        s = 1.0 if i % 2 == 0 else -1.0
        phi[..., i] = s * (theta[..., i] - acc)
        acc += 2.0 * s * phi[..., i]
    return phi


def alternating_signs(n: int) -> np.ndarray:
    """Signs (-1)^(i+1) for 1-based i = 1..n, i.e. (+1, -1, +1, ...)."""
    signs = np.ones(n)
    signs[1::2] = -1.0
    return signs


def angle_coeffs(theta, d: DerivedParams, c) -> tuple[float, float, float]:
    """Angle-dependent coefficients of the longitudinal equation.

    Returns (m_eff, quad_v, quad_cross) such that

        m_eff * dv1/dt = static_moment * omega^2 + quad_v * v1^2
                         + quad_cross * omega * v1.

    m_eff is the effective longitudinal inertia; it stays positive for any
    physical vehicle because each coupling coefficient is bounded below by
    -m_i (I_i >= 0 and a_i (2 c_i - a_i) <= c_i^2).

    Raises DegenerateShapeError if m_eff <= 0.
    """
    theta = np.asarray(theta, dtype=float)
    c = np.asarray(c, dtype=float)
    mu = d.coupling
    sin_t = np.sin(theta)
    sin_cos = sin_t * np.cos(theta)
    m_eff = d.mass + float(np.dot(mu, sin_t * sin_t))
    if not m_eff > 0.0:
        raise DegenerateShapeError(
            f"effective longitudinal inertia {m_eff} <= 0 at theta={theta}")
    w = sin_t / c
    inner = np.cumsum(w) - 0.5 * w  # sin(theta_i)/(2 c_i) + sum_{j<i} sin(theta_j)/c_j
    quad_v = 2.0 * float(np.dot(mu * sin_cos, inner))
    quad_cross = float(np.dot(mu, sin_cos))
    return m_eff, quad_v, quad_cross


# --- rotor ------------------------------------------------------------------


@dataclass(frozen=True)
class RotorProfile:
    """Prescribed angular momentum of the sleigh rotor,
    k(t) = amplitude * sin(freq * t) with freq = 2 pi / period.

    freq is computed once per rotor; the zero rotor's infinite period gives
    freq 0.0, and so k = kdot = 0.0 exactly for t >= 0.
    """

    amplitude: float
    period: float
    freq: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "freq", 2.0 * math.pi / self.period)

    def momentum(self, t: float) -> float:
        """Rotor momentum k(t)."""
        return self.amplitude * math.sin(self.freq * t)

    def rate(self, t: float) -> float:
        """Its time derivative kdot(t) = amplitude * freq * cos(freq * t)."""
        return self.amplitude * self.freq * math.cos(self.freq * t)

    def mean_sq_rate(self) -> float:
        """Period average of rate(t)^2, (amplitude * freq)^2 / 2."""
        return 0.5 * (self.amplitude * self.freq) ** 2

    def max_abs_rate(self) -> float:
        """Max of |rate|, reached at t = 0."""
        return abs(self.amplitude * self.freq)


def sine_rotor(amplitude: float, period: float = 1.0) -> RotorProfile:
    """Rotor momentum k(t) = amplitude * sin(2 pi t / period)."""
    if not math.isfinite(amplitude):
        raise InvalidParameterError(f"rotor amplitude {amplitude} is not finite")
    if not (period > 0 and math.isfinite(period)):
        raise InvalidParameterError(f"rotor period {period} is not positive and finite")
    rotor = RotorProfile(amplitude, period)
    peak = rotor.max_abs_rate()
    # mean_sq_rate squares the rate
    if not math.isfinite(peak * peak):
        raise InvalidParameterError(
            f"rotor amplitude {amplitude} and period {period} give a squared "
            f"peak rate (amplitude * 2 pi / period)^2 beyond the float range")
    return rotor


def zero_rotor() -> RotorProfile:
    """Rotor at rest: amplitude 0 and an infinite period, so frequency 0."""
    return RotorProfile(0.0, math.inf)


# --- random admissible parameters -------------------------------------------


def random_vehicle(rng: np.random.Generator, n_links: int) -> VehicleParams:
    """Draw a random admissible parameter set: log-uniform masses/inertias in
    [0.1, 10], lengths in [0.2, 5].

    The effective longitudinal inertia is positive for every such draw
    (coupling_i >= -m_i), so no rejection is needed; the assertion guards the
    bound.
    """

    def logu(lo, hi, size=None):
        return np.exp(rng.uniform(np.log(lo), np.log(hi), size))

    p = VehicleParams(
        masses=logu(0.1, 10.0, n_links + 1),
        inertias=logu(0.1, 10.0, n_links + 1),
        a0=float(logu(0.2, 5.0)),
        a=logu(0.2, 5.0, n_links),
        c=logu(0.2, 5.0, n_links),
    )
    d = derive_params(p)
    assert d.mass - np.sum(np.maximum(0.0, -d.coupling)) > 0.0
    return p
