import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multilink.dynamics import (
    AngleSystemState,
    PoseState,
    ReducedState,
    angle_coeffs_at_phi,
    angle_rates,
    attachment_positions,
    constraint_residuals,
    energy,
    energy_series,
    make_angle_system_rhs,
    make_full_rhs,
    make_manifold_rhs,
    make_reduced_rhs,
    residual_max_series,
    residuals_from_rates,
    simulate,
)
from multilink.integrator import IntegratorOptions, integrate
from multilink.model import (
    VehicleParams,
    derive_params,
    random_vehicle,
    sine_rotor,
    theta_from_phi,
    zero_rotor,
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


def test_reduced_rhs_equilibrium(reference_vehicle, reference_derived):
    y = np.array([1.0, 0.0, 0.0, 0.0])
    dy = make_reduced_rhs(reference_vehicle, reference_derived,
                          zero_rotor())(0.0, y.tolist())
    assert np.all(np.array(dy) == 0.0)


def test_reduced_rhs_decoupled_case():
    from multilink.model import zero_coupling_inertias

    m = np.array([1.2, 1.2])
    a = np.array([0.1, 0.2])
    c = np.array([1.05, 1.10])
    p = VehicleParams(masses=[1.0, *m],
                      inertias=[1.5, *zero_coupling_inertias(m, a, c)],
                      a0=0.7, a=a, c=c)
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
    st = traj.state_at(3)
    assert st.v1 == traj.v1[3] and st.phi.shape == (2,)
    # pose actually moves
    assert abs(traj.x[-1]) > 0.5


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
