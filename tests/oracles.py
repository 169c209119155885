"""Oracles that only tests use.

``constraint_residuals`` gives one state's wheel-constraint residuals with
the rates rebuilt from the reduced equations; ``AngleSystemState`` and
``make_angle_system_rhs`` are the fixed-energy angle system in rescaled
time, the oracle of :func:`multilink.analysis.linearization_matrix`.
"""

import math
from dataclasses import dataclass

import numpy as np

from multilink.dynamics import (
    PoseState,
    ReducedState,
    _check_coupling,
    angle_coeffs_at_phi,
    angle_rates,
    residuals_from_rates,
)
from multilink.model import DegenerateShapeError, DerivedParams, VehicleParams


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
