import dataclasses
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multilink.config import parse_config
from multilink.dynamics import (
    PoseState,
    ReducedState,
    angle_coeffs_at_phi,
    angle_rates,
    attachment_positions,
    energy,
    energy_series,
    make_full_rhs,
    make_manifold_rhs,
    make_reduced_rhs,
    residual_max_series,
    residuals_from_rates,
    simulate,
    trajectory_from_solution,
)
from multilink.integrator import IntegratorOptions, Solution, integrate
from multilink.model import (
    DegenerateShapeError,
    DerivedParams,
    InvalidParameterError,
    VehicleParams,
    alternating_signs,
    angle_coeffs,
    derive_params,
    random_vehicle,
    sine_rotor,
    theta_from_phi,
    zero_rotor,
)
from oracles import (
    AngleSystemState,
    constraint_residuals,
    make_angle_system_rhs,
)


def scalar_residuals(psi, phi, xdot, ydot, psidot, phidot, c):
    """Wheel-constraint residuals of one state by an explicit double loop
    (scalar oracle for the vectorized residuals_from_rates)."""
    n = len(phi)
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


def scalar_constraint_residuals(pose, state, p):
    """constraint_residuals through the scalar oracle."""
    phidot = angle_rates(state.v1, state.omega, state.phi, p)
    return scalar_residuals(pose.psi, state.phi, state.v1 * math.cos(pose.psi),
                            state.v1 * math.sin(pose.psi), state.omega, phidot,
                            p.c)


def brute_force_rhs(t, y, p, d, rotor):
    """Literal transcription of the reduced equations, kept independent of
    the production kernel (explicit sums, sin(2 theta) form)."""
    n = p.n_links
    v1, om = y[0], y[1]
    phi = y[2:]
    theta = [(-1.0) ** i * phi[i]
             + 2.0 * sum((-1.0) ** j * phi[j] for j in range(i))
             for i in range(n)]
    mu, c = d.coupling, p.c
    f0 = d.mass + sum(mu[i] * math.sin(theta[i]) ** 2 for i in range(n))
    f1 = sum(mu[i] * math.sin(2 * theta[i])
             * (math.sin(theta[i]) / (2 * c[i])
                + sum(math.sin(theta[j]) / c[j] for j in range(i)))
             for i in range(n))
    f2 = 0.5 * sum(mu[i] * math.sin(2 * theta[i]) for i in range(n))
    b, inertia = d.static_moment, d.inertia
    out = [(b * om ** 2 + f1 * v1 ** 2 + f2 * om * v1) / f0,
           (-b * om * v1 - rotor.rate(t)) / inertia]
    out += [(-1.0) ** (i + 1) * (v1 / c[i]) * math.sin(theta[i]) - om
            for i in range(n)]
    return np.array(out)


def reduced_deriv(t, y, c, mu, mass, inertia, b, rate, pose):
    """The vehicle kernel as one loop over the links, written independently
    of the fields of multilink.dynamics: their bit-identity oracle, in the
    same floating-point operations."""
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
    if m_eff <= 0.0:
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


def bits(values):
    return np.array(values, dtype=float).tobytes()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(n=st.integers(0, 12), seed=st.integers(0, 2 ** 32 - 1),
       chart=st.sampled_from(["reduced", "full", "manifold"]),
       sine=st.booleans(), t=st.floats(-50.0, 50.0),
       y=st.lists(st.floats(-4.0, 4.0), min_size=17, max_size=17))
def test_kernel_matches_loop_oracle(n, seed, chart, sine, t, y):
    # the field of every chart and N, with a sine or the zero rotor, against
    # the loop, bit for bit (signed zeros included)
    p = random_vehicle(np.random.default_rng(seed), n)
    d = derive_params(p)
    rotor = sine_rotor(0.3, 0.7) if sine else zero_rotor()
    c = p.c.tolist()
    if chart == "manifold":
        sign = 1 if seed % 2 else -1
        state = y[:n]
        rhs = make_manifold_rhs(p, sign)
        expected = reduced_deriv(t, [float(sign), 0.0, *state], c, [0.0] * n,
                                 1.0, 1.0, 0.0, zero_rotor().rate, False)[2:]
    else:
        full = chart == "full"
        state = y[:n + 5] if full else y[:n + 2]
        rhs = (make_full_rhs if full else make_reduced_rhs)(p, d, rotor)
        expected = reduced_deriv(t, state, c, d.coupling.tolist(), d.mass,
                                 d.inertia, d.static_moment, rotor.rate, full)
    rates = rhs(t, state)
    assert type(rates) is list and bits(rates) == bits(expected)


@pytest.mark.parametrize("chart", [make_reduced_rhs, make_full_rhs])
def test_kernel_raises_degenerate_shape(reference_vehicle, chart):
    # a hand-built coupling that makes m_eff vanish at theta_1 = pi/2
    bad = DerivedParams(mass=1.0, inertia=1.0, static_moment=0.5,
                        coupling=[-2.0, 0.0])
    pose = chart is make_full_rhs
    y = [1.0, 0.3, math.pi / 2, 0.0] + ([0.0, 0.0, 0.0] if pose else [])
    with pytest.raises(DegenerateShapeError, match="effective longitudinal"):
        reduced_deriv(0.5, y, reference_vehicle.c.tolist(), [-2.0, 0.0], 1.0,
                      1.0, 0.5, zero_rotor().rate, pose)
    rhs = chart(reference_vehicle, bad, sine_rotor(0.05, 1.0))
    with pytest.raises(DegenerateShapeError, match="effective longitudinal"):
        rhs(0.5, y)


@pytest.mark.parametrize("chart", [make_reduced_rhs, make_full_rhs])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_kernel_non_finite_state_gives_non_finite_rates(reference_vehicle,
                                                        reference_derived,
                                                        chart, bad):
    # not a degenerate shape: the step rejects the stage, and a run that
    # keeps producing such stages ends in DivergenceError
    rhs = chart(reference_vehicle, reference_derived, sine_rotor(0.05, 1.0))
    pose = [0.0, 0.0, 0.0] if chart is make_full_rhs else []
    for at in [0, 1, 2, 3] + [6] * bool(pose):  # x and y enter no rate
        y = [1.0, 0.3, 0.5, -0.2, *pose]
        y[at] = bad
        rates = rhs(0.5, y)
        assert len(rates) == len(y) and not all(map(math.isfinite, rates))


@pytest.mark.parametrize("chart", [make_reduced_rhs, make_full_rhs])
@pytest.mark.parametrize("coupling", [[], [0.5], [0.5, 0.5, 0.5]])
def test_coupling_length_checked(reference_vehicle, chart, coupling):
    # the loop over the links would silently drop or ignore a coupling
    d = DerivedParams(mass=1.0, inertia=1.0, static_moment=0.5,
                      coupling=coupling)
    with pytest.raises(InvalidParameterError, match=r"coupling.*N = 2"):
        chart(reference_vehicle, d, zero_rotor())


@pytest.mark.parametrize("chart, dim", [("reduced", 4), ("full", 7),
                                        ("manifold", 2)])
def test_state_length_checked(reference_vehicle, reference_derived, chart,
                              dim):
    # a state of another length than the chart's would run on the compiled
    # loop with the wrong number of links
    if chart == "manifold":
        rhs = make_manifold_rhs(reference_vehicle, 1)
    else:
        rhs = (make_full_rhs if chart == "full" else make_reduced_rhs)(
            reference_vehicle, reference_derived, zero_rotor())
    assert len(rhs(0.0, [0.1] * dim)) == dim
    for wrong in (dim - 1, dim + 1):
        with pytest.raises(ValueError, match=rf"{wrong} components.*takes {dim}"):
            rhs(0.0, [0.1] * wrong)
        with pytest.raises(ValueError, match=rf"{wrong} components"):
            integrate(rhs, [0.1] * wrong, IntegratorOptions(t_end=1.0))


def test_reduced_rhs_equilibrium(reference_vehicle, reference_derived):
    y = np.array([1.0, 0.0, 0.0, 0.0])
    dy = make_reduced_rhs(reference_vehicle, reference_derived,
                          zero_rotor())(0.0, y.tolist())
    assert np.all(np.array(dy) == 0.0)


def test_reduced_rhs_decoupled_case(decoupled_vehicle):
    p = decoupled_vehicle
    d = derive_params(p)
    dy = make_reduced_rhs(p, d, zero_rotor())(0.0, [0.0, 1.0, 0.4, -0.2])
    assert dy[0] == pytest.approx(d.static_moment / d.mass, abs=1e-15)
    assert dy[1] == 0.0


def test_reduced_rhs_independent_oracle(reference_vehicle, reference_derived):
    rotor = sine_rotor(0.05, 1.0)
    # the numerical-experiment initial state, then random states
    states = [np.array([10.0, 1.0, 0.5, 0.5])]
    rng = np.random.default_rng(8)
    states += [np.concatenate((rng.normal(0, 3, 2), rng.uniform(-3, 3, 2)))
               for _ in range(100)]
    for t in (0.0, 0.37):
        for y in states:
            mine = np.array(make_reduced_rhs(
                reference_vehicle, reference_derived, rotor)(t, y.tolist()))
            ref = brute_force_rhs(t, y, reference_vehicle,
                                  reference_derived, rotor)
            assert mine == pytest.approx(ref, abs=1e-12)


def test_reduced_rhs_oracle_other_sizes():
    rng = np.random.default_rng(9)
    rotor = sine_rotor(0.2, 0.7)
    for n in (0, 1, 3, 5):
        p = random_vehicle(rng, n)
        d = derive_params(p)
        for _ in range(20):
            y = np.concatenate((rng.normal(0, 2, 2), rng.uniform(-3, 3, n)))
            mine = np.array(make_reduced_rhs(p, d, rotor)(0.9, y.tolist()))
            assert mine == pytest.approx(brute_force_rhs(0.9, y, p, d, rotor),
                                         abs=1e-12)


def test_theta_chart_single_link():
    # for one link theta_1 = phi_1, so the phi chart gives the theta rate
    p = VehicleParams(masses=[1.0, 1.0], inertias=[1.0, 1.0], a0=0.5,
                      a=[0.2], c=[1.3])
    d = derive_params(p)
    v1, om, th = 1.7, -0.4, 0.8
    dy = make_reduced_rhs(p, d, zero_rotor())(0.0, [v1, om, th])
    assert dy[2] == pytest.approx(-(v1 / 1.3) * math.sin(th) - om, abs=1e-14)


def test_pose_rhs(reference_vehicle, reference_derived):
    # the last three rates of the full chart are the planar kinematics
    # (v1 cos psi, v1 sin psi, omega)
    rhs = make_full_rhs(reference_vehicle, reference_derived, zero_rotor())

    def pose_rates(pose, v1, omega):
        return np.array(rhs(0.0, [v1, omega, 0.3, -0.4,
                                  pose.x, pose.y, pose.psi])[-3:])

    assert pose_rates(PoseState(0, 0, math.pi / 2), 2.0, 0.3) == pytest.approx(
        [0.0, 2.0, 0.3], abs=1e-15)
    assert np.all(pose_rates(PoseState(1, 2, 0.7), 0.0, 0.0) == 0.0)
    assert pose_rates(PoseState(0, 0, 0.0), 1.0, 0.0) == pytest.approx(
        [1.0, 0.0, 0.0], abs=0)


def test_attachment_positions_straight_chain():
    p = VehicleParams(masses=[1, 1, 1], inertias=[1, 1, 1], a0=0.5,
                      a=[0.1, 0.1], c=[1.0, 1.5])
    pts = attachment_positions(PoseState(0, 0, 0), [0.0, 0.0], p)
    assert pts == pytest.approx(np.array([[0, 0], [-1, 0], [-3.5, 0]]),
                                abs=1e-15)


def test_attachment_positions_single():
    p = VehicleParams(masses=[1.0], inertias=[1.0], a0=0.0, a=[], c=[])
    pts = attachment_positions(PoseState(2.0, -1.0, 0.3), [], p)
    assert pts.shape == (1, 2)
    assert pts[0] == pytest.approx([2.0, -1.0], abs=0)


def test_attachment_positions_folded():
    p = VehicleParams(masses=[1, 1], inertias=[1, 1], a0=0.5, a=[0.1], c=[1.0])
    pts = attachment_positions(PoseState(0, 0, 0), [math.pi], p)
    assert pts[1] == pytest.approx([1.0, 0.0], abs=1e-12)


def test_constraint_residuals_straight_line(reference_vehicle):
    for v1 in (0.0, 1.0, -2.5):
        res = constraint_residuals(PoseState(0, 0, 0.4),
                                   ReducedState(v1, 0.0, [0.0, 0.0]),
                                   reference_vehicle)
        assert np.all(np.abs(res) < 1e-15)


def test_constraint_residuals_random_states():
    rng = np.random.default_rng(12)
    for n in (1, 2, 4):
        p = random_vehicle(rng, n)
        for _ in range(100 // n):
            state = ReducedState(float(rng.normal(0, 3)),
                                 float(rng.normal(0, 2)),
                                 rng.uniform(-math.pi, math.pi, n))
            pose = PoseState(*rng.normal(0, 5, 2), float(rng.uniform(-4, 4)))
            res = constraint_residuals(pose, state, p)
            assert np.max(np.abs(res)) < 1e-12


def test_constraint_fault_injection(reference_vehicle):
    # adding eps to ydot at psi = 0 shifts the sleigh residual by exactly eps
    state = ReducedState(1.3, 0.2, [0.4, -0.7])
    eps = 1e-3
    rates = angle_rates(state.v1, state.omega, state.phi, reference_vehicle)
    res = residuals_from_rates(0.0, state.phi, state.v1, 0.0 + eps,
                               state.omega, rates, reference_vehicle.c)
    assert res[0] == pytest.approx(eps, abs=1e-15)


def test_energy_examples(reference_vehicle, reference_derived):
    e = energy(ReducedState(1.0, 0.0, [0.0, 0.0]), reference_vehicle,
               reference_derived)
    assert e == pytest.approx(1.7, abs=1e-12)
    assert energy(ReducedState(0.0, 0.0, [0.3, 0.8]), reference_vehicle,
                  reference_derived) == 0.0


def test_energy_conservation_random_params():
    rng = np.random.default_rng(21)
    p = random_vehicle(rng, 3)
    d = derive_params(p)
    traj = simulate(p, d, zero_rotor(),
                    ReducedState(1.0, 0.6, rng.uniform(-2, 2, 3)), PoseState(),
                    IntegratorOptions(t_end=200.0, rtol=1e-10, atol=1e-12))
    drift = np.max(np.abs(traj.energy - traj.energy[0])) / traj.energy[0]
    assert drift < 1e-7
    assert np.max(traj.residual_max) < 1e-10


def test_angle_system_fixed_points(reference_vehicle, reference_derived):
    for ang in (0.0, math.pi):
        dy = make_angle_system_rhs(reference_vehicle, reference_derived)(
            0.0, [ang, 0.0, 0.0])
        assert abs(dy[0]) < 1e-15


def test_angle_system_formula(reference_vehicle, reference_derived):
    # hand evaluation of the rescaled equations at a generic point
    rng = np.random.default_rng(13)
    for _ in range(50):
        ang = float(rng.uniform(0, 2 * math.pi))
        phi = rng.uniform(-3, 3, 2)
        y = np.concatenate(([ang], phi))
        dy = make_angle_system_rhs(reference_vehicle, reference_derived)(
            0.0, y.tolist())
        d = reference_derived
        theta = theta_from_phi(phi)
        m_eff = d.mass + float(d.coupling @ np.sin(theta) ** 2)
        assert dy[0] == pytest.approx(-(d.static_moment / d.inertia)
                                      * math.sin(ang), abs=1e-14)
        for i in range(2):
            expect = ((-1.0) ** (i + 1) / reference_vehicle.c[i] \
                      * math.cos(ang) * math.sin(theta[i])
                      - math.sqrt(m_eff / d.inertia) * math.sin(ang))
            assert dy[1 + i] == pytest.approx(expect, abs=1e-13)


def numpy_angle_system_rhs(p, d):
    """The angle system's vector field on numpy arrays: the oracle of the
    scalar loop."""
    c = p.c
    inertia, b = d.inertia, d.static_moment
    signs = alternating_signs(p.n_links)

    def rhs(tau, y):
        y = np.asarray(y, dtype=float)
        ang = y[0]
        theta = theta_from_phi(y[1:])
        w = np.sin(theta) / c
        m_eff, _, _ = angle_coeffs(theta, d, c)
        sin_a = math.sin(ang)
        out = np.empty_like(y)
        out[0] = -(b / inertia) * sin_a
        out[1:] = -signs * w * math.cos(ang) - math.sqrt(m_eff / inertia) * sin_a
        return out

    return rhs


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 8), st.integers(0, 2 ** 32 - 1))
def test_angle_system_matches_numpy_oracle(n, seed):
    rng = np.random.default_rng(seed)
    p = random_vehicle(rng, n)
    d = derive_params(p)
    y = [float(rng.uniform(0.0, 2.0 * math.pi)), *rng.uniform(-4.0, 4.0, n)]
    dy = make_angle_system_rhs(p, d)(0.0, y)
    assert type(dy) is list and len(dy) == n + 1
    assert dy == pytest.approx(numpy_angle_system_rhs(p, d)(0.0, y).tolist(),
                               rel=1e-12, abs=1e-12)


def test_angle_system_degenerate_and_coupling_checked(reference_vehicle):
    bad = DerivedParams(mass=1.0, inertia=1.0, static_moment=0.5,
                        coupling=[-2.0, 0.0])
    y = [0.3, math.pi / 2, 0.0]
    for rhs in (numpy_angle_system_rhs, make_angle_system_rhs):
        with pytest.raises(DegenerateShapeError, match="effective longitudinal"):
            rhs(reference_vehicle, bad)(0.0, y)
    short = DerivedParams(mass=1.0, inertia=1.0, static_moment=0.5,
                          coupling=[0.5])
    with pytest.raises(InvalidParameterError, match=r"coupling.*N = 2"):
        make_angle_system_rhs(reference_vehicle, short)


def test_angle_state_energy_identity(reference_vehicle, reference_derived):
    rng = np.random.default_rng(14)
    for _ in range(20):
        v1, om = rng.normal(0, 2, 2)
        phi = rng.uniform(-3, 3, 2)
        st = AngleSystemState.from_velocities(v1, om, phi, reference_vehicle,
                                              reference_derived)
        v1b, omb = st.velocities(reference_vehicle, reference_derived)
        assert (v1b, omb) == pytest.approx((v1, om), rel=1e-12, abs=1e-12)
        assert st.energy == pytest.approx(
            energy(ReducedState(v1, om, phi), reference_vehicle,
                   reference_derived), rel=1e-13)


def test_manifold_fixed_points():
    p = VehicleParams(masses=[1, 1, 1], inertias=[1, 1, 1], a0=0.5,
                      a=[0.1, 0.1], c=[1.0, 1.5])
    for sign in (1, -1):
        rhs = make_manifold_rhs(p, sign)
        assert np.all(np.array(rhs(0.0, [0.0, 0.0])) == 0.0)
        dy = rhs(0.0, [math.pi, math.pi])
        assert np.max(np.abs(dy)) < 1e-15


def test_manifold_time_reversal():
    p = VehicleParams(masses=[1, 1, 1], inertias=[1, 1, 1], a0=0.5,
                      a=[0.1, 0.1], c=[1.0, 1.5])
    rng = np.random.default_rng(15)
    for _ in range(100):
        phi = rng.uniform(-math.pi, math.pi, 2)
        fwd = np.array(make_manifold_rhs(p, 1)(0.0, phi.tolist()))
        bwd = np.array(make_manifold_rhs(p, -1)(0.0, phi.tolist()))
        assert np.all(fwd == -bwd)


def test_manifold_sign_validation():
    p = VehicleParams(masses=[1, 1], inertias=[1, 1], a0=0.5, a=[0.1], c=[1.0])
    with pytest.raises(ValueError):
        make_manifold_rhs(p, 0)


def test_velocity_angle_monotone(reference_vehicle, reference_derived):
    # on rotor-free trajectories the velocity angle decays strictly toward 0
    # whenever it starts inside (0, pi)
    y0 = np.array([math.sqrt(2 * 1.0 / 3.4), 0.0, 0.3, -0.5])  # ang near 0+
    st = AngleSystemState.from_velocities(0.4, 0.9, [0.3, -0.5],
                                          reference_vehicle, reference_derived)
    assert 0.0 < st.velocity_angle < math.pi
    rhs = make_angle_system_rhs(reference_vehicle, reference_derived)
    sol = integrate(rhs, np.concatenate(([st.velocity_angle], st.phi)),
                    IntegratorOptions(t_end=40.0, rtol=1e-10, atol=1e-12))
    ang = sol.states[:, 0]
    assert np.all(np.diff(ang) < 0.0)
    assert ang[-1] < 1e-3


def test_residual_series_matches_scalar(reference_vehicle, reference_derived):
    rng = np.random.default_rng(16)
    v1 = rng.normal(0, 2, 40)
    om = rng.normal(0, 1, 40)
    phi = rng.uniform(-3, 3, (40, 2))
    psi = rng.uniform(-4, 4, 40)
    series = residual_max_series(v1, om, phi, psi, reference_vehicle)
    for i in range(40):
        res = scalar_constraint_residuals(PoseState(0, 0, psi[i]),
                                          ReducedState(v1[i], om[i], phi[i]),
                                          reference_vehicle)
        assert series[i] == pytest.approx(np.max(np.abs(res)), abs=1e-13)


def test_simulate_diagnostics(reference_vehicle, reference_derived):
    traj = simulate(reference_vehicle, reference_derived, zero_rotor(),
                    ReducedState(1.0, 0.5, [0.3, -0.4]), PoseState(),
                    IntegratorOptions(t_end=10.0, rtol=1e-10, atol=1e-12))
    assert traj.n_links == 2
    assert traj.times[0] == 0.0 and traj.times[-1] == 10.0
    assert np.all(np.diff(traj.times) > 0)
    assert np.all(traj.rotor_momentum == 0.0)
    assert isinstance(traj.v1[3], float) and traj.phi[3].shape == (2,)
    # pose actually moves
    assert abs(traj.x[-1]) > 0.5


def test_momentum_column_is_rotor_momentum():
    # numpy's sin on the whole column gives math.sin's bits: on the shipped
    # speedup run's first tenth of samples (the same steps, to t = 2000), and
    # on a grid as dense as all its 130,005 samples over its whole span; the
    # whole run would add about 0.5 s to the suite
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                           "speedup.json")) as f:
        cfg = parse_config(f.read())
    p, rotor = cfg.vehicle, cfg.rotor
    d = derive_params(p)
    traj = simulate(p, d, rotor, cfg.initial, cfg.pose,
                    dataclasses.replace(cfg.integrator, t_end=2000.0))
    grid = np.linspace(0.0, cfg.integrator.t_end, 130_005)
    on_grid = trajectory_from_solution(
        Solution(grid, np.zeros((grid.size, 7)), 0, 0, 0), p, d, rotor)
    for run in (traj, on_grid):
        expected = [rotor.momentum(t) for t in run.times.tolist()]
        assert run.rotor_momentum.tobytes() == np.array(expected).tobytes()
    # and exactly +0.0 for the resting rotor
    traj = simulate(p, d, zero_rotor(), cfg.initial, cfg.pose,
                    IntegratorOptions(t_end=5.0))
    assert traj.rotor_momentum.tobytes() == bytes(8 * traj.n_samples)


@pytest.mark.parametrize("shape", [(3, 4), (3,)])
def test_trajectory_from_solution_rejects_other_shapes(reference_vehicle,
                                                       reference_derived,
                                                       shape):
    sol = Solution(np.zeros(3), np.zeros(shape), 0, 0, 0)
    with pytest.raises(ValueError, match=rf"^states have shape "
                       rf"{re.escape(str(shape))}, expected \(samples, 7\) "
                       rf"for the full chart of N = 2$"):
        trajectory_from_solution(sol, reference_vehicle, reference_derived,
                                 zero_rotor())


@pytest.mark.parametrize("n", [65, 100])
def test_energy_and_residuals_many_links(n):
    rng = np.random.default_rng(n)
    p = random_vehicle(rng, n)
    d = derive_params(p)
    v1, om = rng.normal(0, 2, 8), rng.normal(0, 1, 8)
    phi, psi = rng.uniform(-3, 3, (8, n)), rng.uniform(-4, 4, 8)
    series = energy_series(v1, om, phi, p, d)
    residuals = residual_max_series(v1, om, phi, psi, p)
    for i in range(8):
        theta = [(-1.0) ** k * phi[i, k]
                 + 2.0 * sum((-1.0) ** j * phi[i, j] for j in range(k))
                 for k in range(n)]
        m_eff = d.mass + sum(d.coupling[k] * math.sin(theta[k]) ** 2
                             for k in range(n))
        expected = 0.5 * (m_eff * v1[i] ** 2 + d.inertia * om[i] ** 2)
        state = ReducedState(v1[i], om[i], phi[i])
        assert energy(state, p, d) == pytest.approx(expected, rel=1e-12)
        assert series[i] == pytest.approx(expected, rel=1e-12)
        scalar = scalar_constraint_residuals(PoseState(0, 0, psi[i]), state, p)
        assert scalar.size == n + 1
        assert residuals[i] == pytest.approx(np.max(np.abs(scalar)), abs=1e-13)
    assert np.max(residuals) < 1e-11


@settings(max_examples=50, deadline=None, derandomize=True)
@given(n=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1),
       v1=st.floats(0.3, 2.0), forward=st.booleans(),
       omega=st.floats(-1.5, 1.5),
       phi=st.lists(st.floats(-math.pi, math.pi), min_size=8, max_size=8))
def test_invariants_of_random_vehicles_on_default_method(n, seed, v1, forward,
                                                         omega, phi):
    # criteria 1 and 2 over the parameter space: a random vehicle coasting
    # from a random state, on the default integrator options
    p = random_vehicle(np.random.default_rng(seed), n)
    d = derive_params(p)
    state = ReducedState(v1 if forward else -v1, omega, np.array(phi[:n]))
    # the equations are homogeneous of degree two in the velocities, so
    # scaling them to an energy bound of 1.5 on the angle rates only
    # rescales time, and keeps every run short
    h = energy(state, p, d)
    m_low = d.mass + float(np.sum(np.minimum(d.coupling, 0.0)))
    bound = (math.sqrt(2.0 * h / m_low) / float(np.min(p.c))
             + math.sqrt(2.0 * h / d.inertia))
    scale = 1.5 / bound
    state = ReducedState(state.v1 * scale, state.omega * scale, state.phi)
    opts = IntegratorOptions(t_end=20.0)
    traj = simulate(p, d, zero_rotor(), state, PoseState(), opts)
    e = traj.energy
    assert np.max(np.abs(e - e[0])) / abs(e[0]) < 1e-7
    assert np.max(traj.residual_max) < 1e-10
