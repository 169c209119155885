"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line with the measured numbers (run `pytest -s` to see them all).

Criterion 4 checks the rotor speedup on the pinned inputs (reference
vehicle, v1(0)=10, rotor momentum 0.05 sin(2 pi t), window [1e3, 1e5])
against the finite-inertia averaged law, and that law's t -> inf limit
against the paper's t^(1/3) asymptotics.  The window is pre-asymptotic:
b v1 passes J Omega only at t ~ 1.8e5, and the law's local v1 exponent is
0.25 at t=1e5 and stays within 0.02 of 1/3 only from t ~ 1.3e7 on, so the
fitted exponents there (v1 ~ t^0.098) are compared with the law's, not
with the limit's.
"""

import math
import time

import numpy as np
import pytest

from multilink.analysis import (
    FixedPointKind,
    asymptotic_prediction,
    averaged_law_check,
    classify_fixed_point,
    enumerate_fixed_points,
    envelope_points,
    finite_inertia_prediction,
    fit_power_law,
    linearization_matrix,
    wrapped_distance,
)
from multilink.dynamics import (
    PoseState,
    ReducedState,
    angle_coeffs_at_phi,
    make_manifold_rhs,
    make_reduced_rhs,
    simulate,
)
from multilink.integrator import METHOD_RK45, IntegratorOptions, integrate
from multilink.model import (
    VehicleParams,
    angle_coeffs,
    derive_params,
    random_vehicle,
    sine_rotor,
    theta_from_phi,
    zero_coupling_inertias,
    zero_rotor,
)


def report(criterion: str, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    return ok


def vehicle_with_links(n: int) -> VehicleParams:
    """Reference mass geometry, trailer extended by copying platform 2."""
    base_m, base_i = [1.2, 1.2], [2.0, 2.0]
    base_a, base_c = [0.1, 0.2], [1.05, 1.10]
    while len(base_m) < n:
        base_m.append(1.2)
        base_i.append(2.0)
        base_a.append(0.2)
        base_c.append(1.10)
    return VehicleParams(masses=[1.0, *base_m[:n]],
                         inertias=[1.5, *base_i[:n]], a0=0.7,
                         a=base_a[:n], c=base_c[:n])


@pytest.fixture(scope="module")
def conservation_runs():
    """Rotor-free trajectories for criteria 1 and 2: N in {1, 2, 4},
    10 seeded-random initial states each, t in [0, 200]."""
    rng = np.random.default_rng(2024)
    runs = []
    for n in (1, 2, 4):
        p = vehicle_with_links(n)
        d = derive_params(p)
        for _ in range(10):
            v1 = float(rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0]))
            omega = float(rng.uniform(-1.5, 1.5))
            phi = rng.uniform(-math.pi, math.pi, n)
            start = time.perf_counter()
            traj = simulate(p, d, zero_rotor(), ReducedState(v1, omega, phi),
                            PoseState(),
                            IntegratorOptions(t_end=200.0, rtol=1e-10,
                                              atol=1e-12))
            runs.append({"n": n, "traj": traj,
                         "runtime": time.perf_counter() - start})
    return runs


def test_criterion_1_energy_integral(conservation_runs):
    worst_drift = 0.0
    worst_runtime = 0.0
    for run in conservation_runs:
        e = run["traj"].energy
        worst_drift = max(worst_drift,
                          float(np.max(np.abs(e - e[0])) / abs(e[0])))
        worst_runtime = max(worst_runtime, run["runtime"])
    ok = worst_drift < 1e-7 and worst_runtime < 10.0
    assert report("1 (energy integral)", ok,
                  f"30 rotor-free runs (N=1,2,4), worst relative drift "
                  f"{worst_drift:.3e} (tolerance 1e-7), worst runtime "
                  f"{worst_runtime:.2f}s (limit 10s)")


def test_criterion_2_constraint_identity(conservation_runs):
    worst = max(float(np.max(run["traj"].residual_max))
                for run in conservation_runs)
    ok = worst < 1e-10
    assert report("2 (constraint identity)", ok,
                  f"max wheel-constraint residual over all criterion-1 "
                  f"trajectories {worst:.3e} (tolerance 1e-10)")


def test_criterion_3_node_classification():
    rng = np.random.default_rng(7)
    checked = 0
    worst_eig = 0.0
    ok = True
    for n in range(1, 6):
        for _ in range(50):
            p = random_vehicle(rng, n)
            d = derive_params(p)
            stable = unstable = saddles = 0
            for fp in enumerate_fixed_points(n):
                cls = classify_fixed_point(fp, p, d)
                a = linearization_matrix(fp, p, d)
                general = np.sort(np.linalg.eigvals(a).real)
                worst_eig = max(worst_eig, float(np.max(np.abs(
                    general - np.sort(cls.eigenvalues)))))
                if cls.kind == FixedPointKind.STABLE_NODE:
                    stable += 1
                    ok &= fp.v_sign == 1 and bool(np.all(fp.phi == 0.0))
                elif cls.kind == FixedPointKind.UNSTABLE_NODE:
                    unstable += 1
                    ok &= fp.v_sign == -1 and bool(np.all(fp.phi == 0.0))
                else:
                    saddles += 1
            ok &= stable == 1 and unstable == 1 \
                and saddles == 2 ** (n + 1) - 2
            checked += 1
    ok &= worst_eig < 1e-12
    assert report("3 (node/saddle census)", ok,
                  f"{checked} random parameter sets over N=1..5: one stable "
                  f"node (forward aligned), one unstable node (backward "
                  f"aligned), rest saddles; diagonal vs general eigensolver "
                  f"max diff {worst_eig:.2e} (tolerance 1e-12)")


@pytest.fixture(scope="module")
def faithful_speedup_run():
    """The pinned speedup scenario: reference vehicle, v1(0)=10, omega(0)=1,
    phi(0)=(0.5, 0.5), rotor momentum 0.05 sin(2 pi t), t to 1e5.

    rtol 1e-8 per the long-run default; atol 1e-8 keeps the per-component
    error floor well below the omega/angle envelopes (~1e-2) without
    chasing their zero crossings.  The 5(4) pair, as in the speedup
    scenario: the envelopes are per-period maxima of the step samples.
    """
    p = vehicle_with_links(2)
    d = derive_params(p)
    rotor = sine_rotor(0.05, 1.0)
    rhs = make_reduced_rhs(p, d, rotor)
    y0 = np.array([10.0, 1.0, 0.5, 0.5])
    opts = IntegratorOptions(t_end=1e5, method=METHOD_RK45, rtol=1e-8,
                             atol=1e-8, sample_stride=2)
    start = time.perf_counter()
    sol = integrate(rhs, y0, opts)
    runtime = time.perf_counter() - start
    return {"vehicle": p, "derived": d, "rotor": rotor, "times": sol.times,
            "states": sol.states, "runtime": runtime}


def test_criterion_4_speedup_asymptotics(faithful_speedup_run):
    run = faithful_speedup_run
    p, d, rotor = run["vehicle"], run["derived"], run["rotor"]
    t, s = run["times"], run["states"]
    pred = asymptotic_prediction(p, d, rotor)
    window = (1e3, 1e5)
    period = rotor.period

    # anchor after the omega(0)=1 transient (decay time J/(b v1) ~ 0.3);
    # anchoring at t=0 puts that transient's energy into the law's offset
    # and leaves it 9% off
    k = int(np.flatnonzero(t <= 100.0)[-1])
    law = finite_inertia_prediction(p, d, rotor, float(t[k]), float(s[k, 0]))

    # v1 pointwise: the law drops only the angle terms of the longitudinal
    # equation (quadratic in the small angles) and the ripple within a period
    in_window = (t >= window[0]) & (t <= window[1])
    tw = t[in_window]
    v1_err = float(np.max(np.abs(s[in_window, 0] / law.v1(tw) - 1.0)))

    # envelopes: per-period maxima of the run against the law's amplitudes
    # at the times of those maxima; full periods only (envelope_points keeps
    # a one-sample bin at t=1e5)
    names = ["omega"] + [f"phi_{i + 1}" for i in range(p.n_links)]
    worst_env = 0.0
    fits = {"v1": (fit_power_law(t, s[:, 0], window),
                   fit_power_law(tw, law.v1(tw), window))}
    for col, name in enumerate(names, start=1):
        te, ve = envelope_points(tw, s[in_window, col], period)
        law_ve = (law.omega_amplitude(te) if col == 1
                  else law.phi_amplitudes(te)[:, col - 2])
        full = (np.floor(te / period) + 1.0) * period <= window[1]
        worst_env = max(worst_env, float(np.max(np.abs(
            ve[full] / law_ve[full] - 1.0))))
        # run and law fitted on the same points; the run's fit equals its
        # envelope-mode fit_power_law over the window
        fits[name] = (fit_power_law(te, ve, window),
                      fit_power_law(te, law_ve, window))

    # the law's t -> inf limit is the paper's asymptotics; at t=1e15 the
    # J Omega / (b v1) and Omega c_i / v1 corrections are ~1e-7
    t_far = 1e15
    limit_dev = max(
        abs(float(law.v1(t_far) / pred.v1_envelope(t_far)) - 1.0),
        abs(float(law.omega_amplitude(t_far) / pred.omega_envelope(t_far))
            - 1.0),
        *(abs(float(law.phi_amplitudes(t_far)[i]
                    / pred.phi_envelope(i, t_far)) - 1.0)
          for i in range(p.n_links)))

    checks = {
        # the law tracks v1 to ~1e-6 over the window
        "v1 within 1e-5 of the law": v1_err <= 1e-5,
        # with ~13 samples per period, sampling alone undershoots a peak by
        # up to 1 - cos(pi/13) ~ 3%
        "envelopes within 3% of the law": worst_env <= 0.03,
        "limit within 1e-4 of the asymptotics": limit_dev <= 1e-4,
        "runtime < 5 min": run["runtime"] < 300.0,
    }
    # exponent tolerances as for the asymptotic fits: 0.02 for v1, 0.05 for
    # the envelopes; prefactors 10% for v1, 15% for the envelopes
    for name, (sim, ref) in fits.items():
        exp_tol, pre_tol = (0.02, 0.10) if name == "v1" else (0.05, 0.15)
        checks[f"{name} exponent +-{exp_tol}"] = \
            abs(sim.exponent - ref.exponent) <= exp_tol
        checks[f"{name} prefactor within {pre_tol:.0%}"] = \
            abs(sim.prefactor / ref.prefactor - 1.0) <= pre_tol
    failed = [name for name, good in checks.items() if not good]
    exps = ", ".join(f"{name} t^{sim.exponent:+.3f} (law {ref.exponent:+.3f})"
                     for name, (sim, ref) in fits.items())
    detail = (f"run to t=1e5 in {run['runtime']:.0f}s; over [1e3, 1e5] "
              f"against the finite-inertia law anchored at t={t[k]:.1f}: v1 "
              f"within {v1_err:.2e}, envelopes within {worst_env:.3f}, "
              f"fitted {exps}; crossover b v1 = J Omega at "
              f"t={law.crossover_time:.3g}; law/asymptotics at t=1e15 within "
              f"{limit_dev:.1e} (v1 ~ {pred.v1_coeff:.3g} t^+0.333); "
              f"failed: {failed if failed else 'none'}")
    assert report("4 (speedup asymptotics)", not failed, detail), (
        "the pinned run (rotor amplitude 0.05, start speed 10, window "
        "[1e3, 1e5]) must follow the finite-inertia averaged law: v1 to 1e-5, "
        "per-period envelopes to 3%, fitted exponents to 0.02/0.05 and "
        "prefactors to 10%/15% of the law's; the law must reach the "
        "t^(1/3) asymptotics to 1e-4 at t=1e15")


def test_criterion_5_averaged_law(reference_vehicle, reference_derived):
    rep = averaged_law_check(reference_vehicle, reference_derived,
                             sine_rotor(0.05, 1.0))
    ok = rep.substitution_residual == 0.0 and rep.ode_error < 1e-9
    assert report("5 (averaged slowdown law)", ok,
                  f"closed-form substitution residual "
                  f"{rep.substitution_residual} (must be exactly 0), "
                  f"averaged ODE vs closed form at t=1e5: "
                  f"{rep.ode_error:.2e} (tolerance 1e-9)")


def test_criterion_6_decoupling():
    m = np.array([1.2, 1.2])
    a = np.array([0.1, 0.2])
    c = np.array([1.05, 1.10])
    p = VehicleParams(masses=[1.0, *m],
                      inertias=[1.5, *zero_coupling_inertias(m, a, c)],
                      a0=0.7, a=a, c=c)
    d = derive_params(p)

    rng = np.random.default_rng(55)
    worst_coeff = 0.0
    for _ in range(10_000):
        theta = rng.uniform(-math.pi, math.pi, 2)
        m_eff, quad_v, quad_cross = angle_coeffs(theta, d, p.c)
        worst_coeff = max(worst_coeff, abs(m_eff - d.mass), abs(quad_v),
                          abs(quad_cross))

    y0 = np.array([0.8, 0.7, 0.4, -0.6])
    t_eval = np.linspace(0.0, 20.0, 2001)
    opts = IntegratorOptions(t_end=20.0, rtol=1e-12, atol=1e-14)
    full = integrate(make_reduced_rhs(p, d, zero_rotor()), y0, opts,
                     t_eval=t_eval)
    b, mass, inertia = d.static_moment, d.mass, d.inertia

    def sleigh_only(t, y):
        return np.array([b * y[1] * y[1] / mass, -b * y[1] * y[0] / inertia])

    alone = integrate(sleigh_only, y0[:2], opts, t_eval=t_eval)
    worst_traj = float(np.max(np.abs(full.states[:, :2] - alone.states)))
    ok = worst_coeff < 1e-14 and worst_traj < 1e-10
    assert report("6 (decoupled velocity subsystem)", ok,
                  f"zeroed-coupling inertias: angle coefficients vanish to "
                  f"{worst_coeff:.2e} at 1e4 random angles (tolerance 1e-14); "
                  f"(v1, omega) vs standalone sleigh subsystem sup "
                  f"{worst_traj:.2e} (tolerance 1e-10)")


def test_criterion_7_angle_variable(reference_vehicle, reference_derived):
    p, d = reference_vehicle, reference_derived
    # map a rotor-free reduced trajectory into the velocity angle and check
    # the rescaled decoupled equation by central differences
    dt = 5e-4
    t_eval = np.arange(0.0, 5.0 + dt / 2, dt)
    sol = integrate(make_reduced_rhs(p, d, zero_rotor()),
                    np.array([1.0, 0.5, 0.3, -0.4]),
                    IntegratorOptions(t_end=5.0, rtol=1e-12, atol=1e-14),
                    t_eval=t_eval)
    v1s, oms, phis = sol.states[:, 0], sol.states[:, 1], sol.states[:, 2:]
    m_eff = np.array([angle_coeffs_at_phi(ph, p, d)[0] for ph in phis])
    h = 0.5 * (m_eff[0] * v1s[0] ** 2 + d.inertia * oms[0] ** 2)
    ang = np.arctan2(oms * math.sqrt(d.inertia), v1s * np.sqrt(m_eff))
    d_ang = (ang[2:] - ang[:-2]) / (2.0 * dt)
    residual = d_ang * np.sqrt(m_eff[1:-1] / (2.0 * h)) \
        + (d.static_moment / d.inertia) * np.sin(ang[1:-1])
    worst_res = float(np.max(np.abs(residual)))

    # the decoupled angle equation against its closed form
    ratio = d.static_moment / d.inertia
    ang0 = 2.1
    sol2 = integrate(lambda t, y: -ratio * np.sin(y), [ang0],
                     IntegratorOptions(t_end=6.0, rtol=1e-12, atol=1e-14),
                     t_eval=np.array([1.0, 3.0, 6.0]))
    closed = 2.0 * np.arctan(math.tan(ang0 / 2.0)
                             * np.exp(-ratio * sol2.times))
    worst_closed = float(np.max(np.abs(sol2.states[:, 0] - closed)))
    ok = worst_res < 1e-6 and worst_closed < 1e-9
    assert report("7 (velocity-angle system)", ok,
                  f"rescaled-equation residual along a mapped trajectory "
                  f"{worst_res:.2e} (tolerance 1e-6); integrator vs closed "
                  f"form {worst_closed:.2e} (tolerance 1e-9)")


def test_criterion_8_heteroclinic_passage():
    p = VehicleParams(masses=[1.0, 1.0, 1.0], inertias=[1.0, 1.0, 1.0],
                      a0=0.5, a=[0.1, 0.1], c=[1.0, 1.5])
    rhs = make_manifold_rhs(p, 1)
    source = np.array([math.pi, math.pi])
    # start 1e-3 off the source along its dominant unstable direction
    # (eigenvector (1, -4)/sqrt(17) of the manifold-flow Jacobian there)
    y0 = source + 1e-3 * np.array([1.0, -4.0]) / math.sqrt(17.0)
    sol = integrate(rhs, y0, IntegratorOptions(t_end=90.0, rtol=1e-10,
                                               atol=1e-12))
    saddles = (np.array([math.pi, 0.0]), np.array([0.0, math.pi]))
    d_saddle = np.array([min(wrapped_distance(s, tgt) for tgt in saddles)
                         for s in sol.states])
    d_node = np.array([wrapped_distance(s, np.zeros(2))
                       for s in sol.states])
    near_saddle = np.flatnonzero(d_saddle < 0.05)
    near_node = np.flatnonzero(d_node < 1e-6)
    ok = (near_saddle.size > 0 and near_node.size > 0
          and near_saddle[0] < near_node[0])
    assert report("8 (heteroclinic passage)", ok,
                  f"perturbed source trajectory: closest saddle approach "
                  f"{float(d_saddle.min()):.3e} rad (threshold 0.05) at "
                  f"tau={sol.times[near_saddle[0]] if near_saddle.size else 'n/a'}"
                  f", then settles to {float(d_node[-1]):.2e} of the aligned "
                  f"node (threshold 1e-6)")
