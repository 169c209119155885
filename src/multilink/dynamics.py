"""Right-hand sides of the vehicle's dynamical systems, energy, planar
reconstruction, and nonholonomic constraint residuals.

State conventions (all plain float64 arrays):

* reduced chart:      y = [v1, omega, phi_1 .. phi_N]
* full chart:         y = [v1, omega, phi..., x, y, psi]
* manifold flow:      y = [phi...]                   (rescaled time)

The manifold flow lives in the rescaled time variable; it is integrated
as-is, without remapping to physical time.  The reduced and full charts and
the manifold flow are one vector field, a loop over the links on plain
floats (see "the vehicle kernel" below), which the compiled loop repeats in
C.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, nan, sin

import numpy as np

from . import _compiled
from .integrator import IntegratorOptions, Solution, integrate
from .model import (
    DegenerateShapeError,
    DerivedParams,
    InvalidParameterError,
    RotorProfile,
    VehicleParams,
    alternating_signs,
    angle_coeffs,
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


@dataclass(frozen=True)
class PoseState:
    """Planar pose of the sleigh contact point."""

    x: float = 0.0
    y: float = 0.0
    psi: float = 0.0


# --- the vehicle kernel -------------------------------------------------------
#
# The reduced and full charts, and the manifold flow as their omega = 0
# slice, are one scalar loop over the links on plain floats: list and numpy
# overhead on length-N vectors would dominate for the small N of interest.
# The rotor's rate is af * cos(freq * t), af = amplitude * freq, the bits of
# RotorProfile.rate.  The angle recurrence is the scalar form of
# model.theta_from_phi (equal up to roundoff); a unit test keeps the loop
# consistent with model.angle_coeffs.  A stage that is not finite gives
# non-finite rates, which the step rejects; only a finite m_eff <= 0 is a
# degenerate shape.


def _vehicle_field(vehicle):
    """The vector field rhs(t, y) -> list of one vehicle, which carries as
    ``vehicle`` the arguments of the compiled kernel: the chart ("reduced",
    "full" or "manifold"), the hinge distances c, the couplings mu, mass,
    inertia and static moment b, and the rotor's (af, freq).  On the
    manifold the last two are the fixed (v1, omega), and the field takes
    and returns the angles only."""
    chart, c, mu, mass, inertia, b, af, freq = vehicle
    n = len(c)
    manifold = chart == "manifold"
    pose = chart == "full"
    dim = n + (0 if manifold else 5 if pose else 2)
    # link i + 1 with its parity: alt = (-1)^i phi_(i+1)
    links = tuple(zip(c, mu, [i % 2 == 1 for i in range(n)]))

    def rhs(t, y):
        if len(y) != dim:
            raise ValueError(f"state has {len(y)} components, the {chart} "
                             f"chart of N = {n} links takes {dim}")
        if manifold:
            v1, om, rates, phi = af, freq, [], y
        else:
            v1, om, rates, phi = y[0], y[1], [0.0, 0.0], y[2:]
        try:
            acc = 0.0   # 2 * sum_{j<i} (-1)^(j+1) phi_j
            m_eff = mass
            quad_v = 0.0
            quad_cross = 0.0
            accw = 0.0  # sum_{j<i} sin(theta_j) / c_j
            for p, (ci, mui, odd) in zip(phi, links):
                alt = -p if odd else p
                th = alt + acc
                acc += 2.0 * alt
                sin_t = sin(th)
                w = sin_t / ci
                mu_sc = mui * sin_t * cos(th)
                m_eff += mui * sin_t * sin_t
                quad_v += 2.0 * mu_sc * (accw + 0.5 * w)
                quad_cross += mu_sc
                rates.append(v1 * w - om if odd else -(v1 * w) - om)
                accw += w
            if not m_eff <= 0.0:  # a NaN too: the step rejects the stage
                if not manifold:
                    rates[0] = (b * om * om + quad_v * v1 * v1
                                + quad_cross * om * v1) / m_eff
                    rates[1] = (-b * om * v1 - af * cos(freq * t)) / inertia
                    if pose:
                        psi = y[-1]
                        rates += (v1 * cos(psi), v1 * sin(psi), om)
                return rates
        except ValueError:  # sin or cos of an infinite stage
            return [nan] * dim
        raise DegenerateShapeError(
            f"effective longitudinal inertia {m_eff} <= 0 at t={t}")

    rhs.vehicle = vehicle
    return rhs


def _check_coupling(p: VehicleParams, d: DerivedParams):
    if len(d.coupling) != p.n_links:
        raise InvalidParameterError(f"coupling has {len(d.coupling)} entries, "
                                    f"expected one per link, N = {p.n_links}")


def _bind_vehicle(p: VehicleParams, d: DerivedParams, rotor: RotorProfile,
                  chart: str):
    _check_coupling(p, d)
    return _vehicle_field((chart, p.c.tolist(), d.coupling.tolist(), d.mass,
                           d.inertia, d.static_moment,
                           rotor.amplitude * rotor.freq, rotor.freq))


def make_reduced_rhs(p: VehicleParams, d: DerivedParams, rotor: RotorProfile):
    """Vector field over [v1, omega, phi...] for the stepper: a list of
    floats in, a list out."""
    return _bind_vehicle(p, d, rotor, "reduced")


def make_full_rhs(p: VehicleParams, d: DerivedParams, rotor: RotorProfile):
    """Vector field over [v1, omega, phi..., x, y, psi]: a list of floats
    in, a list out.  The last three rates are the planar kinematics
    (v1 cos psi, v1 sin psi, omega)."""
    return _bind_vehicle(p, d, rotor, "full")


def make_manifold_rhs(p: VehicleParams, sign: int):
    """Rescaled-time flow of the trailer angles on the invariant manifold
    where the sleigh runs straight: the kernel's angle rates at v1 = sign,
    omega = 0, i.e. -sign (-1)^(i+1) sin(theta_i) / c_i.  sign=+1 gives the
    forward manifold, -1 the backward one (the two flows are time reversals
    of each other).  A list of floats in, a list out."""
    if sign not in (1, -1):
        raise ValueError("manifold sign must be +1 or -1")
    # The couplings do not enter the angle rates; with none, m_eff stays 1
    # and cannot raise DegenerateShapeError.
    return _vehicle_field(("manifold", p.c.tolist(), [0.0] * p.n_links, 1.0,
                           1.0, 0.0, float(sign), 0.0))


# --- conserved energy, constraints, plane geometry ---------------------------


def angle_coeffs_at_phi(phi, p: VehicleParams, d: DerivedParams):
    """Longitudinal-equation coefficients evaluated at relative angles."""
    return angle_coeffs(theta_from_phi(phi), d, p.c)


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


def attachment_positions(pose: PoseState, phi, p: VehicleParams) -> np.ndarray:
    """Plane positions of the N+1 wheel-pair centers (sleigh first), shape
    (N+1, 2).

    Each trailer wheel pair sits a hinge-to-wheel distance behind its front
    hinge; consecutive hinges are 2 c_j apart along platform j's axis.  For
    S samples at once, give the pose fields as (S,) arrays and phi as an
    (S, N) block; the result then has shape (S, N+1, 2).
    """
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    x, y, psi = (np.asarray(v, dtype=float) for v in (pose.x, pose.y, pose.psi))
    n = phi.shape[-1]
    pts = np.empty(phi.shape[:-1] + (n + 1, 2))
    pts[..., 0, 0], pts[..., 0, 1] = x, y
    acc_x, acc_y = x, y
    for i in range(n):
        head = psi + phi[..., i]
        tx, ty = np.cos(head), np.sin(head)
        pts[..., i + 1, 0] = acc_x - p.c[i] * tx
        pts[..., i + 1, 1] = acc_y - p.c[i] * ty
        acc_x = acc_x - 2.0 * p.c[i] * tx
        acc_y = acc_y - 2.0 * p.c[i] * ty
    return pts


# --- trajectory record --------------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    """Dense record of a reduced + pose simulation.

    Column arrays all share the sample count; `phi` has shape (n, N).
    """

    times: np.ndarray
    v1: np.ndarray
    omega: np.ndarray
    phi: np.ndarray
    x: np.ndarray
    y: np.ndarray
    psi: np.ndarray
    energy: np.ndarray
    residual_max: np.ndarray
    rotor_momentum: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.times.size

    @property
    def n_links(self) -> int:
        return self.phi.shape[1]


# samples per block of the numpy residuals, which bounds their temporaries
_RESIDUAL_BLOCK = 65536


def effective_inertia(sin2, d: DerivedParams) -> np.ndarray:
    """m_eff of each row of an (S, N) block of sin(theta)^2."""
    return d.mass + sin2 @ d.coupling


def energy_series(v1, omega, phi, p: VehicleParams, d: DerivedParams) -> np.ndarray:
    """Vectorized energy integral over sample arrays."""
    s = np.sin(theta_from_phi(np.atleast_2d(phi)))
    return _energy(v1, omega, s * s, d)


def _energy(v1, omega, sin2, d: DerivedParams) -> np.ndarray:
    """energy_series from the (S, N) block sin2 of sin(theta)^2."""
    return 0.5 * (effective_inertia(sin2, d) * v1 * v1
                  + d.inertia * omega * omega)


def _column(x, samples: int) -> np.ndarray:
    """x as a float64 vector of length samples; one value is broadcast."""
    x = np.asarray(x, dtype=float)
    return x if x.shape == (samples,) else np.broadcast_to(x, samples)


def residual_max_series(v1, omega, phi, psi, p: VehicleParams) -> np.ndarray:
    """Vectorized max |constraint residual| over sample arrays.

    phi is an (S, N) block, or one sample's N angles; v1, omega and psi hold
    one value per sample, or one value for all of them.  Both paths take
    them as float64, v1, omega and psi as columns of length S.  Where the
    library is loaded (:mod:`multilink._compiled`) the compiled maximum
    gives the bits of the numpy code below, which stays the fallback and the
    oracle.  A non-finite sample gives NaN on both, without a warning.
    """
    phi = np.atleast_2d(np.asarray(phi, dtype=float))
    if phi.ndim != 2 or phi.shape[1] != p.n_links:
        raise ValueError(f"phi has shape {phi.shape}, expected (samples, "
                         f"{p.n_links}) for N = {p.n_links}")
    samples = phi.shape[0]
    v1, omega, psi = [_column(x, samples) for x in (v1, omega, psi)]
    out = _compiled.residual_max(v1, omega, phi, psi, p.c)
    if out is not None:
        return out
    out = np.empty(samples)
    with np.errstate(all="ignore"):  # sin(inf) is NaN, as in C
        for lo in range(0, samples, _RESIDUAL_BLOCK):
            rows = slice(lo, lo + _RESIDUAL_BLOCK)
            v, om, ps = v1[rows], omega[rows], psi[rows]
            phid = angle_rates(v[:, None], om[:, None], phi[rows], p)
            res = residuals_from_rates(ps, phi[rows], v * np.cos(ps),
                                       v * np.sin(ps), om, phid, p.c)
            out[rows] = np.max(np.abs(res), axis=1)
    return out


def simulate(p: VehicleParams, d: DerivedParams, rotor: RotorProfile,
             initial: ReducedState, pose: PoseState,
             opts: IntegratorOptions) -> Trajectory:
    """Integrate the reduced system together with the planar pose and collect
    per-sample diagnostics at the samples that opts asks for."""
    y0 = [initial.v1, initial.omega, *initial.phi.tolist(), pose.x, pose.y,
          pose.psi]
    sol = integrate(make_full_rhs(p, d, rotor), y0, opts)
    return trajectory_from_solution(sol, p, d, rotor)


def trajectory_from_solution(sol: Solution, p: VehicleParams, d: DerivedParams,
                             rotor: RotorProfile) -> Trajectory:
    """Repackage a full-chart integrator solution as a Trajectory, whose
    state columns are views of sol.states.  Where the library is loaded
    (:mod:`multilink._compiled`), one compiled pass gives the residual
    maxima and the sin(theta)^2 of the energy, to the bits of
    :func:`residual_max_series` and :func:`energy_series`."""
    n = p.n_links
    s = sol.states
    if s.ndim != 2 or s.shape[1] != n + 5:
        raise ValueError(f"states have shape {s.shape}, expected (samples, "
                         f"{n + 5}) for the full chart of N = {n}")
    v1, omega, phi = s[:, 0], s[:, 1], s[:, 2:n + 2]
    x, y, psi = s[:, n + 2], s[:, n + 3], s[:, n + 4]
    diag = _compiled.diagnostics(s, p.c)
    if diag is None:
        e = energy_series(v1, omega, phi, p, d)
        r = residual_max_series(v1, omega, phi, psi, p)
    else:
        r, sin2 = diag
        e = _energy(v1, omega, sin2, d)
    # RotorProfile.momentum on the whole array: numpy's sin gives math.sin's
    # bits (tests/test_dynamics.py checks it on the shipped speedup samples)
    k = rotor.amplitude * np.sin(rotor.freq * sol.times)
    return Trajectory(sol.times, v1, omega, phi, x, y, psi, e, r, k)
