"""Oracles that only tests use.

``constraint_residuals`` gives one state's wheel-constraint residuals with
the rates rebuilt from the reduced equations; ``AngleSystemState`` and
``make_angle_system_rhs`` are the fixed-energy angle system in rescaled
time, the oracle of :func:`multilink.analysis.linearization_matrix`;
``averaged_law_check`` checks the closed form of the averaged slowdown law
behind :class:`multilink.analysis.SpeedupLaw`.
"""

import math
from dataclasses import dataclass

import numpy as np

from multilink.analysis import SpeedupLaw
from multilink.dynamics import (
    PoseState,
    ReducedState,
    _check_coupling,
    angle_coeffs_at_phi,
    angle_rates,
    residuals_from_rates,
)
from multilink.integrator import IntegratorOptions, integrate
from multilink.model import (
    DegenerateShapeError,
    DerivedParams,
    RotorProfile,
    VehicleParams,
)


def constraint_residuals(pose: PoseState, state: ReducedState,
                         p: VehicleParams) -> np.ndarray:
    """Residuals of the N+1 no-side-slip constraints, with the generalized
    rates reconstructed from the reduced equations themselves (so nonzero
    values indicate formula errors, not integrator error)."""
    xdot = state.v1 * math.cos(pose.psi)
    ydot = state.v1 * math.sin(pose.psi)
    phidot = angle_rates(state.v1, state.omega, state.phi, p)
    return residuals_from_rates(pose.psi, state.phi, xdot, ydot, state.omega,
                                phidot, p.c)


@dataclass(frozen=True)
class AngleSystemState:
    """State of the fixed-energy angle system, in rescaled time.

    velocity_angle parameterizes the velocities on the energy level h:
    v1 = sqrt(2h/m_eff) cos, omega = sqrt(2h/J) sin.
    """

    velocity_angle: float
    phi: np.ndarray
    energy: float

    def __post_init__(self):
        phi = np.atleast_1d(np.asarray(self.phi, dtype=float))
        phi.flags.writeable = False
        object.__setattr__(self, "phi", phi)
        if not self.energy > 0:
            raise ValueError("energy level must be positive")

    @classmethod
    def from_velocities(cls, v1, omega, phi, p: VehicleParams,
                        d: DerivedParams) -> "AngleSystemState":
        m_eff, _, _ = angle_coeffs_at_phi(phi, p, d)
        h = 0.5 * (m_eff * v1 * v1 + d.inertia * omega * omega)
        ang = math.atan2(omega * math.sqrt(d.inertia), v1 * math.sqrt(m_eff))
        return cls(ang % (2.0 * math.pi), phi, h)

    def velocities(self, p: VehicleParams, d: DerivedParams) -> tuple[float, float]:
        m_eff, _, _ = angle_coeffs_at_phi(self.phi, p, d)
        v1 = math.sqrt(2.0 * self.energy / m_eff) * math.cos(self.velocity_angle)
        omega = math.sqrt(2.0 * self.energy / d.inertia) * math.sin(self.velocity_angle)
        return v1, omega

    def as_array(self) -> np.ndarray:
        return np.concatenate(([self.velocity_angle], self.phi))


def make_angle_system_rhs(p: VehicleParams, d: DerivedParams):
    """Rescaled-time vector field over [velocity_angle, phi...] on a fixed
    energy level: a list of floats in, a list out.  The velocity-angle
    equation decouples; the energy value itself never enters."""
    _check_coupling(p, d)
    links = list(zip(p.c.tolist(), d.coupling.tolist()))
    mass, inertia, b = d.mass, d.inertia, d.static_moment

    def rhs(tau, y):
        ang = y[0]
        sin_a, cos_a = math.sin(ang), math.cos(ang)
        m_eff = mass
        acc = 0.0  # 2 * sum_{j<i} (-1)^(j+1) phi_j
        sign = 1.0  # (-1)^(i+1)
        rates = []
        for (ci, mui), phi in zip(links, y[1:]):
            alt = sign * phi
            th = alt + acc
            acc += 2.0 * alt
            sin_t = math.sin(th)
            m_eff += mui * sin_t * sin_t
            rates.append(-sign * (sin_t / ci) * cos_a)
            sign = -sign
        if not m_eff > 0.0:
            raise DegenerateShapeError(
                f"effective longitudinal inertia {m_eff} <= 0 at phi={y[1:]}")
        drift = math.sqrt(m_eff / inertia) * sin_a
        return [-(b / inertia) * sin_a, *[r - drift for r in rates]]

    return rhs


@dataclass(frozen=True)
class AveragedLawReport:
    """Consistency report for the averaged slowdown law of p = 1/v1.

    substitution_residual: coefficient defect of the closed form
        p(t) = cube_rate^(-1/3) t^(-1/3) inserted into
        dp/dt = -gain p^4, gain = <rate^2>/(b m).  The closed form solves the
        equation exactly when cube_rate = 3 gain, so this is zero up to the
        arithmetic of that identity.
    ode_error: |p_numeric - p_closed| at t_end for the scalar averaged ODE
        started on the closed form at t_start.
    final_ratio: p * (cube_rate * t)^(1/3) at the last trajectory sample
        (None when no trajectory is supplied); tends to 1 on accelerating
        runs.
    """

    substitution_residual: float
    ode_error: float
    final_ratio: float | None


def averaged_law_check(p: VehicleParams, d: DerivedParams, rotor: RotorProfile,
                       trajectory=None, t_start: float = 1e3,
                       t_end: float = 1e5) -> AveragedLawReport:
    law = SpeedupLaw.of(p, d, rotor)
    gain = law.mean_sq_rate / (d.static_moment * d.mass)
    delta = 3.0 * gain
    substitution_residual = abs(gain - delta / 3.0)

    p0 = delta ** (-1.0 / 3.0) * t_start ** (-1.0 / 3.0)
    opts = IntegratorOptions(t_end=t_end, rtol=1e-12, atol=1e-16, h0=1.0)
    sol = integrate(lambda t, y: [-gain * y[0] ** 4], [p0], opts, t0=t_start)
    p_closed = delta ** (-1.0 / 3.0) * t_end ** (-1.0 / 3.0)
    ode_error = abs(float(sol.states[-1, 0]) - p_closed)

    final_ratio = None
    if trajectory is not None:
        t_last = float(trajectory.times[-1])
        v_last = float(trajectory.v1[-1])
        final_ratio = (delta * t_last) ** (1.0 / 3.0) / v_last
    return AveragedLawReport(substitution_residual, ode_error, final_ratio)
