"""Right-hand sides of the vehicle's dynamical systems, energy, planar
reconstruction, and nonholonomic constraint residuals.

State conventions (all plain float64 arrays):

* reduced chart:      y = [v1, omega, phi_1 .. phi_N]
* staggered chart:    y = [v1, omega, theta_1 .. theta_N]
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


# --- core derivative kernels -------------------------------------------------
#
# The reduced kernels run in scalar arithmetic on lists of floats, the
# stepper's representation (see the integrator module): they sit inside its
# innermost loop, where numpy overhead on length-N vectors dominates for the
# small N of interest.  The angle recurrences match model.theta_from_phi up to
# roundoff; a unit test keeps them consistent with model.angle_coeffs.


def _reduced_deriv(t, y, c, mu, mass, inertia, b, rate, staggered, pose):
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
        if staggered:
            th = ang
        else:
            alt = s * ang
            th = alt + acc
            acc += 2.0 * alt
        sin_t = math.sin(th)
        w = sin_t / ci
        mu_sc = mui * sin_t * math.cos(th)
        m_eff += mui * sin_t * sin_t
        quad_v += 2.0 * mu_sc * (accw + 0.5 * w)
        quad_cross += mu_sc
        if staggered:
            d_ang.append(-v1 * (w + 2.0 * accw) - om)
        else:
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


def reduced_rhs_phi(t, y, p: VehicleParams, d: DerivedParams,
                    rotor: RotorProfile) -> np.ndarray:
    """Time derivative of [v1, omega, phi...] (relative-angle chart)."""
    return np.array(make_reduced_rhs(p, d, rotor)(
        t, np.asarray(y, dtype=float).tolist()))


def reduced_rhs_theta(t, y, p: VehicleParams, d: DerivedParams,
                      rotor: RotorProfile) -> np.ndarray:
    """Time derivative of [v1, omega, theta...] (staggered-angle chart)."""
    return np.array(make_theta_rhs(p, d, rotor)(
        t, np.asarray(y, dtype=float).tolist()))


def pose_rhs(pose, v1: float, omega: float) -> np.ndarray:
    """Planar kinematics: (dx, dy, dpsi) = (v1 cos psi, v1 sin psi, omega)."""
    psi = pose.psi if isinstance(pose, PoseState) else float(np.asarray(pose)[2])
    return np.array([v1 * math.cos(psi), v1 * math.sin(psi), omega])


def make_reduced_rhs(p: VehicleParams, d: DerivedParams, rotor: RotorProfile):
    """Vector field over [v1, omega, phi...] for the stepper: a list of
    floats in, a list out."""
    c, mu = p.c.tolist(), d.coupling.tolist()
    mass, inertia, b = d.mass, d.inertia, d.static_moment
    rate = rotor.rate

    def rhs(t, y):
        return _reduced_deriv(t, y, c, mu, mass, inertia, b, rate, False, False)

    return rhs


def make_theta_rhs(p: VehicleParams, d: DerivedParams, rotor: RotorProfile):
    """Vector field over [v1, omega, theta...] for the stepper: a list of
    floats in, a list out."""
    c, mu = p.c.tolist(), d.coupling.tolist()
    mass, inertia, b = d.mass, d.inertia, d.static_moment
    rate = rotor.rate

    def rhs(t, y):
        return _reduced_deriv(t, y, c, mu, mass, inertia, b, rate, True, False)

    return rhs


def make_full_rhs(p: VehicleParams, d: DerivedParams, rotor: RotorProfile):
    """Vector field over [v1, omega, phi..., x, y, psi]: a list of floats
    in, a list out."""
    c, mu = p.c.tolist(), d.coupling.tolist()
    mass, inertia, b = d.mass, d.inertia, d.static_moment
    rate = rotor.rate

    def rhs(t, y):
        return _reduced_deriv(t, y, c, mu, mass, inertia, b, rate, False, True)

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
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
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


def angle_system_rhs(tau, y, p: VehicleParams, d: DerivedParams) -> np.ndarray:
    """Rescaled-time derivative of [velocity_angle, phi...] on a fixed energy
    level.  The velocity-angle equation decouples; the energy value itself
    never enters."""
    return make_angle_system_rhs(p, d)(tau, np.asarray(y, dtype=float))


def make_angle_system_rhs(p: VehicleParams, d: DerivedParams):
    c, mu = p.c, d.coupling
    mass, inertia, b = d.mass, d.inertia, d.static_moment
    signs = alternating_signs(p.n_links)

    def rhs(tau, y):
        ang = y[0]
        phi = y[1:]
        alt = signs * phi
        theta = 2.0 * np.cumsum(alt) - alt
        _, w, m_eff, _, _ = shape_terms(theta, c, mu, mass)
        sin_a = math.sin(ang)
        out = np.empty_like(y)
        out[0] = -(b / inertia) * sin_a
        out[1:] = -signs * w * math.cos(ang) - math.sqrt(m_eff / inertia) * sin_a
        return out

    return rhs


def manifold_rhs(tau, phi, sign: int, p: VehicleParams) -> np.ndarray:
    """Rescaled-time flow of the trailer angles on the invariant manifold
    where the sleigh runs straight; sign=+1 for the forward manifold, -1 for
    the backward one (the two flows are time reversals of each other)."""
    return make_manifold_rhs(p, sign)(tau, np.asarray(phi, dtype=float))


def make_manifold_rhs(p: VehicleParams, sign: int):
    if sign not in (1, -1):
        raise ValueError("manifold sign must be +1 or -1")
    c = p.c
    signs = alternating_signs(p.n_links)

    def rhs(tau, phi):
        alt = signs * phi
        theta = 2.0 * np.cumsum(alt) - alt
        return (-sign) * signs * (np.sin(theta) / c)

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
    """dphi/dt of the reduced system (needs only the hinge distances)."""
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    signs = alternating_signs(p.n_links)
    theta = theta_from_phi(phi)
    return -signs * (v1 * np.sin(theta) / p.c) - omega


def residuals_from_rates(psi, phi, xdot, ydot, psidot, phidot, c) -> np.ndarray:
    """Wheel-constraint residuals for explicitly given generalized rates.

    Entry 0 is the lateral sleigh-contact velocity; entry i is the lateral
    velocity of trailer wheel pair i.  Both vanish identically on motions of
    the reduced system.
    """
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    phidot = np.atleast_1d(np.asarray(phidot, dtype=float))
    c = np.asarray(c, dtype=float)
    n = phi.size
    res = np.empty(n + 1)
    res[0] = -xdot * math.sin(psi) + ydot * math.cos(psi)
    for i in range(n):
        head = psi + phi[i]
        r = -xdot * math.sin(head) + ydot * math.cos(head)
        for j in range(i):
            r -= 2.0 * c[j] * (psidot + phidot[j]) * math.cos(phi[i] - phi[j])
        r -= c[i] * (psidot + phidot[i])
        res[i + 1] = r
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
    phi = np.atleast_2d(phi)
    signs = alternating_signs(p.n_links)
    alt = signs * phi
    theta = 2.0 * np.cumsum(alt, axis=1) - alt
    s = np.sin(theta)
    m_eff = d.mass + (s * s) @ d.coupling
    return 0.5 * (m_eff * v1 * v1 + d.inertia * omega * omega)


def residual_max_series(v1, omega, phi, psi, p: VehicleParams,
                        block: int = 65536) -> np.ndarray:
    """Vectorized max |constraint residual| over sample arrays."""
    phi = np.atleast_2d(phi)
    n_samples, n = phi.shape
    out = np.empty(n_samples)
    signs = alternating_signs(n)
    c = p.c
    for lo in range(0, n_samples, block):
        hi = min(lo + block, n_samples)
        ph = phi[lo:hi]
        v = v1[lo:hi]
        om = omega[lo:hi]
        ps = psi[lo:hi]
        alt = signs * ph
        theta = 2.0 * np.cumsum(alt, axis=1) - alt
        phid = -signs * (v[:, None] * np.sin(theta) / c) - om[:, None]
        xd = v * np.cos(ps)
        yd = v * np.sin(ps)
        res = np.empty((hi - lo, n + 1))
        res[:, 0] = -xd * np.sin(ps) + yd * np.cos(ps)
        rate = om[:, None] + phid  # psidot + phidot_j
        for i in range(n):
            head = ps + ph[:, i]
            r = -xd * np.sin(head) + yd * np.cos(head) - c[i] * rate[:, i]
            for j in range(i):
                r -= 2.0 * c[j] * rate[:, j] * np.cos(ph[:, i] - ph[:, j])
            res[:, i + 1] = r
        out[lo:hi] = np.max(np.abs(res), axis=1)
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
