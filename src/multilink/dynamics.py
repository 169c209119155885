"""Right-hand sides of the vehicle's dynamical systems, energy, planar
reconstruction, and nonholonomic constraint residuals.

State conventions (all plain float64 arrays):

* reduced chart:      y = [v1, omega, phi_1 .. phi_N]
* full chart:         y = [v1, omega, phi..., x, y, psi]
* angle system:       y = [velocity_angle, phi...]   (rescaled time)
* manifold flow:      y = [phi...]                   (rescaled time)

The angle system and the manifold flow live in the rescaled time variable;
they are integrated as-is, without remapping to physical time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrator import IntegratorOptions, Solution, integrate
from .model import (
    DegenerateShapeError,
    DerivedParams,
    RotorProfile,
    VehicleParams,
    alternating_signs,
    angle_coeffs,
    shape_terms,
    theta_from_phi,
    zero_rotor,
)


@dataclass(frozen=True)
class ReducedState:
    """State of the reduced system: longitudinal speed of the sleigh contact
    point, sleigh angular velocity, and the N relative platform angles."""

    v1: float
    omega: float
    phi: np.ndarray

    def __post_init__(self):
        phi = np.atleast_1d(np.asarray(self.phi, dtype=float))
        phi.flags.writeable = False
        object.__setattr__(self, "phi", phi)

    def as_array(self) -> np.ndarray:
        return np.concatenate(([self.v1, self.omega], self.phi))

    @classmethod
    def from_array(cls, y) -> "ReducedState":
        y = np.asarray(y, dtype=float)
        return cls(float(y[0]), float(y[1]), y[2:].copy())


@dataclass(frozen=True)
class PoseState:
    """Planar pose of the sleigh contact point."""

    x: float = 0.0
    y: float = 0.0
    psi: float = 0.0

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.psi])


# --- core derivative kernel ---------------------------------------------------
#
# The kernel runs in scalar arithmetic on lists of floats, the stepper's
# representation (see the integrator module): it sits inside its innermost
# loop, where numpy overhead on length-N vectors dominates for the small N of
# interest.  Its angle recurrence is the scalar form of model.theta_from_phi
# (equal up to roundoff); a unit test keeps it consistent with
# model.angle_coeffs.  Every vector field of the package is this kernel: the
# reduced and full charts, and the manifold flow as its omega = 0 slice.


def _reduced_deriv(t, y, c, mu, mass, inertia, b, rate, pose):
    v1 = y[0]
    om = y[1]
    n = len(c)
    m_eff = mass
    quad_v = 0.0
    quad_cross = 0.0
    acc = 0.0   # 2 * sum_{j<i} (-1)^(j+1) phi_j
    accw = 0.0  # sum_{j<i} sin(theta_j) / c_j
    d_ang = []
    s = 1.0
    for ang, ci, mui in zip(y[2:n + 2], c, mu):
        alt = s * ang
        th = alt + acc
        acc += 2.0 * alt
        sin_t = math.sin(th)
        w = sin_t / ci
        mu_sc = mui * sin_t * math.cos(th)
        m_eff += mui * sin_t * sin_t
        quad_v += 2.0 * mu_sc * (accw + 0.5 * w)
        quad_cross += mu_sc
        d_ang.append(-s * (v1 * w) - om)
        accw += w
        s = -s
    if not m_eff > 0.0:
        raise DegenerateShapeError(
            f"effective longitudinal inertia {m_eff} <= 0 at t={t}")
    out = [
        (b * om * om + quad_v * v1 * v1 + quad_cross * om * v1) / m_eff,
        (-b * om * v1 - rate(t)) / inertia,
    ]
    out += d_ang
    if pose:
        psi = y[n + 4]
        out += [v1 * math.cos(psi), v1 * math.sin(psi), om]
    return out


def _bind_kernel(p: VehicleParams, d: DerivedParams, rotor: RotorProfile,
                 pose: bool):
    c, mu = p.c.tolist(), d.coupling.tolist()
    mass, inertia, b = d.mass, d.inertia, d.static_moment
    rate = rotor.rate

    def rhs(t, y):
        return _reduced_deriv(t, y, c, mu, mass, inertia, b, rate, pose)

    return rhs


def make_reduced_rhs(p: VehicleParams, d: DerivedParams, rotor: RotorProfile):
    """Vector field over [v1, omega, phi...] for the stepper: a list of
    floats in, a list out."""
    return _bind_kernel(p, d, rotor, False)


def make_full_rhs(p: VehicleParams, d: DerivedParams, rotor: RotorProfile):
    """Vector field over [v1, omega, phi..., x, y, psi]: a list of floats
    in, a list out.  The last three rates are the planar kinematics
    (v1 cos psi, v1 sin psi, omega)."""
    return _bind_kernel(p, d, rotor, True)


def make_manifold_rhs(p: VehicleParams, sign: int):
    """Rescaled-time flow of the trailer angles on the invariant manifold
    where the sleigh runs straight: the kernel's angle rates at v1 = sign,
    omega = 0, i.e. -sign (-1)^(i+1) sin(theta_i) / c_i.  sign=+1 gives the
    forward manifold, -1 the backward one (the two flows are time reversals
    of each other).  A list of floats in, a list out."""
    if sign not in (1, -1):
        raise ValueError("manifold sign must be +1 or -1")
    c = p.c.tolist()
    # The couplings do not enter the angle rates; with none, the discarded
    # velocity rates cannot raise DegenerateShapeError.
    free = [0.0] * len(c)
    v1 = float(sign)
    rest = zero_rotor().rate

    def rhs(tau, phi):
        return _reduced_deriv(tau, [v1, 0.0, *phi], c, free, 1.0, 1.0, 0.0,
                              rest, False)[2:]

    return rhs


# --- energy-sphere angle system and invariant manifolds ----------------------


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


def angle_coeffs_at_phi(phi, p: VehicleParams, d: DerivedParams):
    """Longitudinal-equation coefficients evaluated at relative angles."""
    return angle_coeffs(theta_from_phi(phi), d, p.c)


def make_angle_system_rhs(p: VehicleParams, d: DerivedParams):
    """Rescaled-time vector field over [velocity_angle, phi...] on a fixed
    energy level.  The velocity-angle equation decouples; the energy value
    itself never enters."""
    c, mu = p.c, d.coupling
    mass, inertia, b = d.mass, d.inertia, d.static_moment
    signs = alternating_signs(p.n_links)

    def rhs(tau, y):
        ang = y[0]
        _, w, m_eff, _, _ = shape_terms(theta_from_phi(y[1:]), c, mu, mass)
        sin_a = math.sin(ang)
        out = np.empty_like(y)
        out[0] = -(b / inertia) * sin_a
        out[1:] = -signs * w * math.cos(ang) - math.sqrt(m_eff / inertia) * sin_a
        return out

    return rhs


# --- conserved energy, constraints, plane geometry ---------------------------


def energy(state: ReducedState | np.ndarray, p: VehicleParams,
           d: DerivedParams) -> float:
    """Kinetic energy integral of the rotor-free motion:
    m_eff v1^2 / 2 + J omega^2 / 2."""
    y = state.as_array() if isinstance(state, ReducedState) else np.asarray(state, float)
    m_eff, _, _ = angle_coeffs_at_phi(y[2:], p, d)
    return 0.5 * (m_eff * y[0] * y[0] + d.inertia * y[1] * y[1])


def angle_rates(v1: float, omega: float, phi, p: VehicleParams) -> np.ndarray:
    """dphi/dt of the reduced system (needs only the hinge distances).  For a
    (S, N) block of phi, pass v1 and omega as (S, 1) columns."""
    signs = alternating_signs(p.n_links)
    theta = theta_from_phi(phi)
    return -signs * (v1 * np.sin(theta) / p.c) - omega


def residuals_from_rates(psi, phi, xdot, ydot, psidot, phidot, c) -> np.ndarray:
    """Wheel-constraint residuals for explicitly given generalized rates.

    Entry 0 is the lateral sleigh-contact velocity; entry i is the lateral
    velocity of trailer wheel pair i.  Both vanish identically on motions of
    the reduced system.  Inputs may carry a leading sample axis (psi, xdot,
    ydot, psidot of shape (S,), phi and phidot of shape (S, N)); the result
    then has shape (S, N+1), else N+1.
    """
    phi = np.asarray(phi, dtype=float)
    rate = np.asarray(psidot, dtype=float)[..., None] + phidot  # psidot + phidot_j
    n = phi.shape[-1]
    res = np.empty(phi.shape[:-1] + (n + 1,))
    res[..., 0] = -xdot * np.sin(psi) + ydot * np.cos(psi)
    for i in range(n):
        head = psi + phi[..., i]
        r = -xdot * np.sin(head) + ydot * np.cos(head) - c[i] * rate[..., i]
        for j in range(i):
            r -= 2.0 * c[j] * rate[..., j] * np.cos(phi[..., i] - phi[..., j])
        res[..., i + 1] = r
    return res


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


def attachment_positions(pose: PoseState, phi, p: VehicleParams) -> np.ndarray:
    """Plane positions of the N+1 wheel-pair centers (sleigh first).

    Each trailer wheel pair sits a hinge-to-wheel distance behind its front
    hinge; consecutive hinges are 2 c_j apart along platform j's axis.
    """
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    pts = np.empty((phi.size + 1, 2))
    pts[0] = pose.x, pose.y
    acc_x, acc_y = pose.x, pose.y
    for i in range(phi.size):
        head = pose.psi + phi[i]
        tx, ty = math.cos(head), math.sin(head)
        pts[i + 1] = acc_x - p.c[i] * tx, acc_y - p.c[i] * ty
        acc_x -= 2.0 * p.c[i] * tx
        acc_y -= 2.0 * p.c[i] * ty
    return pts


# --- trajectory record --------------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    """Dense record of a reduced + pose simulation.

    Column arrays all share the sample count; `phi` has shape (n, N).
    `energy`, `residual_max` and `rotor_momentum` are filled when the run is
    made with diagnostics enabled, else None.
    """

    times: np.ndarray
    v1: np.ndarray
    omega: np.ndarray
    phi: np.ndarray
    x: np.ndarray
    y: np.ndarray
    psi: np.ndarray
    energy: np.ndarray | None = None
    residual_max: np.ndarray | None = None
    rotor_momentum: np.ndarray | None = None

    @property
    def n_samples(self) -> int:
        return self.times.size

    @property
    def n_links(self) -> int:
        return self.phi.shape[1]

    def state_at(self, i: int) -> ReducedState:
        return ReducedState(float(self.v1[i]), float(self.omega[i]), self.phi[i])

    def pose_at(self, i: int) -> PoseState:
        return PoseState(float(self.x[i]), float(self.y[i]), float(self.psi[i]))


def energy_series(v1, omega, phi, p: VehicleParams, d: DerivedParams) -> np.ndarray:
    """Vectorized energy integral over sample arrays."""
    s = np.sin(theta_from_phi(np.atleast_2d(phi)))
    m_eff = d.mass + (s * s) @ d.coupling
    return 0.5 * (m_eff * v1 * v1 + d.inertia * omega * omega)


def residual_max_series(v1, omega, phi, psi, p: VehicleParams,
                        block: int = 65536) -> np.ndarray:
    """Vectorized max |constraint residual| over sample arrays."""
    phi = np.atleast_2d(phi)
    out = np.empty(phi.shape[0])
    for lo in range(0, phi.shape[0], block):
        rows = slice(lo, lo + block)
        v, om, ps = v1[rows], omega[rows], psi[rows]
        phid = angle_rates(v[:, None], om[:, None], phi[rows], p)
        res = residuals_from_rates(ps, phi[rows], v * np.cos(ps),
                                   v * np.sin(ps), om, phid, p.c)
        out[rows] = np.max(np.abs(res), axis=1)
    return out


def simulate(p: VehicleParams, d: DerivedParams, rotor: RotorProfile,
             initial: ReducedState, pose: PoseState, opts: IntegratorOptions,
             t_eval=None, diagnostics: bool = True) -> Trajectory:
    """Integrate the reduced system together with the planar pose and collect
    per-sample diagnostics."""
    n = p.n_links
    y0 = np.concatenate((initial.as_array(), pose.as_array()))
    sol = integrate(make_full_rhs(p, d, rotor), y0, opts, t_eval=t_eval)
    return trajectory_from_solution(sol, n, p, d, rotor, diagnostics)


def trajectory_from_solution(sol: Solution, n_links: int, p: VehicleParams,
                             d: DerivedParams, rotor: RotorProfile,
                             diagnostics: bool = True) -> Trajectory:
    """Repackage a full-chart integrator solution as a Trajectory."""
    n = n_links
    v1 = sol.states[:, 0].copy()
    omega = sol.states[:, 1].copy()
    phi = sol.states[:, 2: n + 2].copy()
    x = sol.states[:, n + 2].copy()
    y = sol.states[:, n + 3].copy()
    psi = sol.states[:, n + 4].copy()
    e = r = k = None
    if diagnostics:
        e = energy_series(v1, omega, phi, p, d)
        r = residual_max_series(v1, omega, phi, psi, p)
        k = np.array([rotor.momentum(t) for t in sol.times])
    return Trajectory(sol.times, v1, omega, phi, x, y, psi, e, r, k)
