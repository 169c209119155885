import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multilink import analysis, cli
from multilink.analysis import (
    DegenerateSpectrumError,
    FixedPointKind,
    NoSpeedupError,
    PeriodError,
    SpeedupLaw,
    classify_fixed_point,
    enumerate_fixed_points,
    envelope_points,
    fit_power_law,
    linearization_matrix,
    wrap_angles,
)
from multilink.dynamics import make_reduced_rhs
from multilink.integrator import IntegratorOptions, integrate
from multilink.model import (
    VehicleParams,
    derive_params,
    phi_from_theta,
    random_vehicle,
    sine_rotor,
    theta_from_phi,
    zero_rotor,
)
from oracles import averaged_law_check, make_angle_system_rhs

MEAN_SQ_RATE = (0.1 * math.pi) ** 2 / 2  # <kdot^2> of 0.05 sin(2 pi t)


def test_enumerate_counts():
    assert len(enumerate_fixed_points(2)) == 8
    assert len(enumerate_fixed_points(0)) == 2
    assert len(enumerate_fixed_points(5)) == 64
    with pytest.raises(ValueError, match="link count must be >= 0"):
        enumerate_fixed_points(-1)


def test_enumerate_aligned_point():
    pts = enumerate_fixed_points(3)
    aligned = [fp for fp in pts
               if fp.v_sign == 1 and np.all(fp.theta_signs == 1)]
    assert len(aligned) == 1
    assert np.all(aligned[0].phi == 0.0)
    assert aligned[0].velocity_angle == 0.0


def test_enumerate_distinct_angles():
    pts = enumerate_fixed_points(3)
    seen = {(fp.v_sign, tuple(fp.phi)) for fp in pts}
    assert len(seen) == 16
    for fp in pts:
        assert set(np.unique(fp.phi)) <= {0.0, math.pi}
        # relative and staggered angles describe the same configuration
        assert np.linalg.norm(wrap_angles(theta_from_phi(fp.phi) - fp.theta)) \
            < 1e-12


@settings(max_examples=11, deadline=None, derandomize=True)
@given(st.integers(0, 10))
def test_enumerate_census_property(n):
    pts = enumerate_fixed_points(n)
    assert len({(fp.v_sign, tuple(fp.phi)) for fp in pts}) == 2 ** (n + 1)
    phi = np.array([fp.phi for fp in pts]).reshape(len(pts), n)
    theta = np.array([fp.theta for fp in pts]).reshape(len(pts), n)
    assert np.all((phi == 0.0) | (phi == math.pi))
    # theta_from_phi(fp.phi) = fp.theta (mod 2 pi), on the whole block at once
    gap = np.abs(theta_from_phi(phi) - theta) % (2.0 * math.pi)
    assert np.all(np.minimum(gap, 2.0 * math.pi - gap) < 1e-12)


@pytest.mark.parametrize("n", range(13))
def test_census_phi_is_phi_from_theta(n):
    # theta = 2 cumsum(alt phi) - alt phi, so phi_i and theta_i agree modulo
    # 2 in units of pi and the census takes the theta angles for phi: at
    # every point, the exact integer map phi_from_theta gives the same
    block = enumerate_fixed_points(n)
    units = (block.theta / math.pi).astype(np.int64)
    want = (phi_from_theta(units).astype(np.int64) & 1) * math.pi
    assert block.phi.shape == (2 ** (n + 1), n)
    assert block.phi.tobytes() == want.tobytes()


def test_linearization_reference_eigenvalues(reference_vehicle,
                                             reference_derived):
    pts = enumerate_fixed_points(2)
    stable = [fp for fp in pts
              if fp.v_sign == 1 and np.all(fp.theta_signs == 1)][0]
    a = linearization_matrix(stable, reference_vehicle, reference_derived)
    # diagonal: -b/J, -1/c_1, -1/c_2
    expect = np.array([-0.7 / 1.99, -1.0 / 1.05, -1.0 / 1.10])
    assert np.diag(a) == pytest.approx(expect, abs=1e-12)
    assert np.all(np.triu(a, 1) == 0.0)


def test_linearization_matches_eigensolver():
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 5):
        p = random_vehicle(rng, n)
        d = derive_params(p)
        for fp in enumerate_fixed_points(n):
            a = linearization_matrix(fp, p, d)
            general = np.sort(np.linalg.eigvals(a).real)
            assert np.max(np.abs(general - np.sort(np.diag(a)))) < 1e-12
            cls = classify_fixed_point(fp, p, d)
            assert np.sort(cls.eigenvalues) == pytest.approx(general,
                                                             abs=1e-12)


def test_classification_named_points(reference_vehicle, reference_derived):
    pts = enumerate_fixed_points(2)

    def find(v_sign, phi):
        return [fp for fp in pts if fp.v_sign == v_sign
                and np.allclose(fp.phi, phi)][0]

    assert classify_fixed_point(find(1, [0, 0]), reference_vehicle,
                                reference_derived).kind \
        == FixedPointKind.STABLE_NODE
    assert classify_fixed_point(find(-1, [0, 0]), reference_vehicle,
                                reference_derived).kind \
        == FixedPointKind.UNSTABLE_NODE
    assert classify_fixed_point(find(1, [0, math.pi]), reference_vehicle,
                                reference_derived).kind \
        == FixedPointKind.SADDLE


def test_classification_census_random_params():
    rng = np.random.default_rng(32)
    for n in (1, 2, 3):
        for _ in range(10):
            p = random_vehicle(rng, n)
            d = derive_params(p)
            kinds = {}
            for fp in enumerate_fixed_points(n):
                cls = classify_fixed_point(fp, p, d)
                kinds.setdefault(cls.kind, []).append(fp)
            assert len(kinds[FixedPointKind.STABLE_NODE]) == 1
            assert len(kinds[FixedPointKind.UNSTABLE_NODE]) == 1
            assert len(kinds.get(FixedPointKind.SADDLE, [])) \
                == 2 ** (n + 1) - 2
            stable = kinds[FixedPointKind.STABLE_NODE][0]
            assert stable.v_sign == 1 and np.all(stable.phi == 0.0)
            unstable = kinds[FixedPointKind.UNSTABLE_NODE][0]
            assert unstable.v_sign == -1 and np.all(unstable.phi == 0.0)


def test_classification_balanced_sleigh_rejected():
    p = VehicleParams(masses=[1.0, 1.0], inertias=[1.0, 1.0], a0=0.0,
                      a=[0.1], c=[1.0])
    d = derive_params(p)
    with pytest.raises(DegenerateSpectrumError):
        classify_fixed_point(enumerate_fixed_points(1)[0], p, d)
    with pytest.raises(DegenerateSpectrumError):
        classify_fixed_point(enumerate_fixed_points(1), p, d)


def census_oracle(n, p, d):
    """The census one point at a time: the equilibria in
    itertools.product order and the triangular spectrum of each."""
    rows = []
    for pattern in itertools.product((1, -1), repeat=n + 1):
        v_sign, signs = pattern[0], np.array(pattern[1:], dtype=int)
        theta_units = (1 - signs) // 2
        phi_units = phi_from_theta(theta_units) % 2
        s0 = float(v_sign)
        eig = np.empty(n + 1)
        eig[0] = -(d.static_moment / d.inertia) * s0
        eig[1:] = -(s0 / p.c) * signs
        if np.all(eig < 0):
            kind = FixedPointKind.STABLE_NODE
        elif np.all(eig > 0):
            kind = FixedPointKind.UNSTABLE_NODE
        else:
            kind = FixedPointKind.SADDLE
        rows.append((v_sign, signs, 0.0 if v_sign > 0 else math.pi,
                     theta_units * math.pi, phi_units * math.pi, eig, kind))
    return rows


@pytest.mark.parametrize("n", range(11))
@settings(max_examples=4, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_block_census_matches_point_oracle(n, seed):
    p = random_vehicle(np.random.default_rng(seed), n)
    d = derive_params(p)
    block = enumerate_fixed_points(n)
    cls = classify_fixed_point(block, p, d)
    oracle = census_oracle(n, p, d)
    assert len(block) == len(oracle) == 2 ** (n + 1)
    assert cls.eigenvalues.shape == (len(oracle), n + 1)
    assert cls.kind.tolist() == [row[6] for row in oracle]
    assert cls.eigenvalues.tobytes() == np.array(
        [row[5] for row in oracle]).reshape(-1, n + 1).tobytes()
    for k, (fp, row) in enumerate(zip(block, oracle)):
        v_sign, signs, angle, theta, phi, eig, kind = row
        assert (fp.v_sign, fp.velocity_angle) == (v_sign, angle)
        assert fp.theta_signs.tobytes() == signs.tobytes()
        assert fp.theta.tobytes() == theta.tobytes()
        assert fp.phi.tobytes() == phi.tobytes()
        one = classify_fixed_point(block[k], p, d)
        assert one.kind is kind and one.eigenvalues.tobytes() == eig.tobytes()


def test_asymptotic_prediction_values(reference_vehicle, reference_derived):
    pred = SpeedupLaw.of(reference_vehicle, reference_derived,
                         sine_rotor(0.05, 1.0))
    cube_rate = 3.0 * MEAN_SQ_RATE / (0.7 * 3.4)
    assert pred.cube_rate == pytest.approx(cube_rate, rel=1e-12)
    assert pred.cube_rate == pytest.approx(0.0622, abs=2e-4)
    assert pred.v1_coeff == pytest.approx(cube_rate ** (1 / 3), rel=1e-12)
    assert pred.mean_sq_rate == pytest.approx(MEAN_SQ_RATE, rel=1e-12)
    # peak momentum rate of the sine profile
    assert pred.max_rate == pytest.approx(0.1 * math.pi, rel=1e-6)
    # chain coefficient of the second trailer angle: c_2 + 2 c_1 = 3.20
    ratio = pred.phi_coeffs[1] / pred.theta_coeffs[1]
    assert ratio * reference_vehicle.c[1] == pytest.approx(3.20, rel=1e-6)
    assert pred.omega_coeff == pytest.approx(
        pred.max_rate / (0.7 * pred.v1_coeff), rel=1e-12)


def test_reference_law_bits(reference_vehicle, reference_derived):
    # recorded as float.hex before the asymptotic and the finite-inertia
    # law were one value: the report, the SVG envelopes and criterion 4
    # print from these bits
    law = SpeedupLaw.of(reference_vehicle, reference_derived,
                        sine_rotor(0.05, 1.0))
    assert [law.cube_rate.hex(), law.v1_coeff.hex(), law.omega_coeff.hex()] \
        == ["0x1.fd91f639e8ed8p-5", "0x1.95bb15694fdcbp-2",
            "0x1.21f871258d980p+0"]
    assert [v.hex() for v in law.theta_coeffs.tolist()] \
        == ["0x1.803735f2030e4p+1", "0x1.9282fb8fd2708p+1"]
    assert [v.hex() for v in law.phi_coeffs.tolist()] \
        == ["0x1.803735f2030e4p+1", "0x1.24bc59dcf6234p+3"]
    assert law.anchored(100.0, 11.0).crossover_time.hex() \
        == "0x1.5796644f6317ep+17"


def test_asymptotic_prediction_errors(reference_vehicle):
    balanced = VehicleParams(masses=[1.0, 1.0], inertias=[1.0, 1.0], a0=0.0,
                             a=[0.1], c=[1.0])
    with pytest.raises(NoSpeedupError) as e:
        SpeedupLaw.of(balanced, derive_params(balanced), sine_rotor(0.05, 1.0))
    assert e.value.field == "vehicle.a0"
    d = derive_params(reference_vehicle)
    with pytest.raises(NoSpeedupError) as e:
        SpeedupLaw.of(reference_vehicle, d, zero_rotor())
    assert e.value.field == "rotor.amplitude"
    # with both at fault, the rotor is named, as the config names it
    with pytest.raises(NoSpeedupError) as e:
        SpeedupLaw.of(balanced, derive_params(balanced), zero_rotor())
    assert e.value.field == "rotor.amplitude"
    # the constant or the coefficients past the float range: named, with
    # no numpy warning; b m rounds to 0 at the subnormal b, to inf at the
    # heavy sleigh
    for masses, a0, amp, name in [
            ([1.0, 1.0], 1e-310, 0.05, "constant .* is inf"),
            ([0.4, 0.02], 1e-323, 0.05, "constant .* is inf"),
            ([1e300, 1.0], 1.0, 0.05, "constant .* is 0"),
            ([0.2, 0.2], 0.5, 1e153, "constant .* is inf"),
            ([1.0, 1e300], 1e-300, 1e12, "envelope coefficients overflow")]:
        p = VehicleParams(masses=masses, inertias=[1.0, 1.0], a0=a0,
                          a=[0.1], c=[1.0])
        rotor = sine_rotor(amp, 1.0)
        with pytest.raises(NoSpeedupError, match=name) as e:
            SpeedupLaw.of(p, derive_params(p), rotor)
        assert e.value.field is None


def test_finite_inertia_law_solves_averaged_ode(reference_vehicle,
                                                reference_derived):
    # m v1' = b <kdot^2> / ((b v1)^2 + (J Omega)^2), integrated directly
    rotor = sine_rotor(0.05, 1.0)
    law = SpeedupLaw.of(reference_vehicle, reference_derived,
                        rotor).anchored(100.0, 11.0)
    b, m = reference_derived.static_moment, reference_derived.mass
    j_omega = reference_derived.inertia * 2.0 * math.pi

    def averaged(t, y):
        return np.array([b * MEAN_SQ_RATE / m
                         / ((b * y[0]) ** 2 + j_omega ** 2)])

    # at every sample of the run
    sol = integrate(averaged, [11.0], IntegratorOptions(
        t_end=1e6, rtol=1e-12, atol=1e-12), t0=100.0)
    assert sol.times[0] == 100.0 and sol.times[-1] == 1e6
    assert law.v1(sol.times) == pytest.approx(sol.states[:, 0], rel=1e-9)
    assert law.v1(100.0) == pytest.approx(11.0, rel=1e-15)
    assert law.v1(law.crossover_time) == pytest.approx(law.crossover_speed,
                                                       rel=1e-12)
    assert law.crossover_speed == pytest.approx(j_omega / b, rel=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_finite_inertia_law_limit_is_asymptotics(n):
    p = VehicleParams(masses=[1.0] + [1.2] * n, inertias=[1.5] + [2.0] * n,
                      a0=0.7, a=[0.1, 0.2, 0.2][:n], c=[1.05, 1.10, 1.10][:n])
    d = derive_params(p)
    rotor = sine_rotor(0.05, 1.0)
    pred = SpeedupLaw.of(p, d, rotor)
    law = pred.anchored(100.0, 11.0)
    t = 1e15
    assert law.v1(t) == pytest.approx(pred.v1_envelope(t), rel=1e-4)
    assert law.omega_amplitude(t) == pytest.approx(pred.omega_envelope(t),
                                                   rel=1e-4)
    assert law.theta_amplitudes(t) == pytest.approx(
        pred.theta_coeffs * t ** pred.ANGLE_EXPONENT, rel=1e-4)
    assert law.phi_amplitudes(t) == pytest.approx(
        [pred.phi_envelope(i, t) for i in range(n)], rel=1e-4)


def test_finite_inertia_law_matches_pinned_run(reference_vehicle,
                                               reference_derived):
    p, d = reference_vehicle, reference_derived
    rotor = sine_rotor(0.05, 1.0)
    sol = integrate(make_reduced_rhs(p, d, rotor),
                    np.array([10.0, 1.0, 0.5, 0.5]),
                    IntegratorOptions(t_end=300.0, rtol=1e-8, atol=1e-8,
                                      hmax=1 / 13))
    t, s = sol.times, sol.states
    k = int(np.flatnonzero(t <= 100.0)[-1])
    law = SpeedupLaw.of(p, d, rotor).anchored(float(t[k]), float(s[k, 0]))
    late = t >= 100.0
    assert np.max(np.abs(s[late, 0] / law.v1(t[late]) - 1.0)) < 1e-6
    for col in (1, 2, 3):
        te, ve = envelope_points(t[late], s[late, col], 1.0)
        full = np.floor(te) + 1.0 <= 300.0  # drops the one-sample last bin
        te, ve = te[full], ve[full]
        law_ve = (law.omega_amplitude(te) if col == 1
                  else law.phi_amplitudes(te)[:, col - 2])
        assert np.max(np.abs(ve / law_ve - 1.0)) < 0.03


def test_finite_inertia_law_errors(reference_vehicle, reference_derived):
    p, d = reference_vehicle, reference_derived
    with pytest.raises(NoSpeedupError):
        SpeedupLaw.of(p, d, zero_rotor())
    law = SpeedupLaw.of(p, d, sine_rotor(0.05, 1.0))
    with pytest.raises(ValueError):
        law.anchored(0.0, 0.0)
    # the curve needs an anchor; the envelopes do not
    for curve in (law.v1, law.omega_amplitude, law.phi_amplitudes):
        with pytest.raises(ValueError, match="no anchor"):
            curve(1.0)
    with pytest.raises(ValueError, match="no anchor"):
        law.crossover_time
    assert law.v1_envelope(1.0) == law.v1_coeff
    with pytest.raises(ValueError):
        law.anchored(0.0, 1.0).v1(-1e9)
    # (J Omega)^2 and v1^3 past the float range
    heavy = VehicleParams(masses=[1.0, 1.0], inertias=[1e300, 1.0], a0=0.5,
                          a=[0.1], c=[1.0])
    heavy_law = SpeedupLaw.of(heavy, derive_params(heavy),
                              sine_rotor(0.05, 1.0))
    with pytest.raises(ValueError, match="overflows at its anchor"):
        heavy_law.anchored(0.0, 10.0)
    with pytest.raises(ValueError, match="overflows at its anchor"):
        law.anchored(0.0, 1e200)


def test_fit_power_law_exact():
    t = np.linspace(10.0, 1000.0, 400)
    fit = fit_power_law(t, 2.0 * t ** (1.0 / 3.0), (10.0, 1000.0))
    assert fit.exponent == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert fit.prefactor == pytest.approx(2.0, rel=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_power_law_constant():
    t = np.linspace(1.0, 100.0, 200)
    fit = fit_power_law(t, np.full(200, 3.7), (1.0, 100.0))
    assert fit.exponent == pytest.approx(0.0, abs=1e-12)
    assert fit.prefactor == pytest.approx(3.7, rel=1e-12)


def test_fit_power_law_domain_errors():
    t = np.linspace(1.0, 100.0, 200)
    with pytest.raises(ValueError, match="positive values"):
        fit_power_law(t, np.sin(t), (1.0, 100.0))  # negative values, raw mode
    for bad, name in [(0.0, "positive values"), (math.nan, "finite")]:
        v = t.copy()
        v[100] = bad
        with pytest.raises(ValueError, match=name):
            fit_power_law(t, v, (1.0, 100.0))
    with pytest.raises(ValueError):
        fit_power_law(t, t, (-1.0, 100.0))  # window into t <= 0
    with pytest.raises(ValueError):
        fit_power_law(t[:10], t[:10], (1.0, 100.0))  # too few samples
    with pytest.raises(ValueError):
        fit_power_law(t, t, (1.0, 100.0), mode="envelope")  # missing period


@pytest.mark.parametrize("window", [(math.nan, 10.0), (1.0, math.nan),
                                    (5.0, 2.0), (3.0, 3.0), (0.0, 5.0),
                                    (-1.0, 5.0), (math.inf, math.inf)])
def test_fit_window_must_be_ordered_and_positive(window):
    # named before any sample is counted: a NaN end, reversed or equal ends
    # and a start at or below 0 (these used to read "got 0" samples)
    t = np.linspace(1.0, 100.0, 200)
    with pytest.raises(ValueError, match=rf"fit window \[{window[0]}, "
                                         rf"{window[1]}\] must have 0 < t_lo"):
        fit_power_law(t, t, window)


def test_fit_argument_errors_come_before_the_window_count():
    # ten samples: the window count would fail, but the arguments fail first
    t = np.linspace(1.0, 10.0, 10)
    with pytest.raises(ValueError, match="unknown fit mode 'bogus'"):
        fit_power_law(t, t, (1.0, 10.0), mode="bogus")
    with pytest.raises(PeriodError,
                       match="^envelope mode needs the rotor period$"):
        fit_power_law(t, t, (1.0, 10.0), mode="envelope")
    with pytest.raises(PeriodError, match="positive and finite, got nan"):
        fit_power_law(t, t, (1.0, 10.0), mode="envelope", period=math.nan)
    with pytest.raises(ValueError, match="at least 30 samples"):
        fit_power_law(t, t, (1.0, 10.0), mode="envelope", period=1.0)
    # an open window end stays valid
    t = np.linspace(1.0, 100.0, 200)
    fit = fit_power_law(t, 2.0 * t, (1.0, math.inf))
    assert fit.n_points == 200
    assert fit.exponent == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("period", [0.0, -1.0, math.nan, math.inf, 1e3])
def test_fit_envelope_period_errors(period):
    # each used to return a one-point fit with r^2 1 (or raise LinAlgError)
    t = np.linspace(0.0, 10.0, 5000)
    v = np.cos(2 * math.pi * t) / (1.0 + t)
    with pytest.raises(PeriodError, match="period"):
        fit_power_law(t, v, (1.0, 10.0), mode="envelope", period=period)
    if period != 1e3:
        with pytest.raises(PeriodError, match="period"):
            envelope_points(t, v, period)
    # raw mode takes no period; one time repeated spans no log t, and
    # t = 1 throughout (log t 0, where np.polyfit divided 0 by 0) neither
    fit_power_law(t, t, (1.0, 10.0), period=period)
    for one in (5.0, 1.0):
        with pytest.raises(ValueError, match="spans too little of log t"):
            fit_power_law(np.full(40, one), np.ones(40), (1.0, 10.0))


@pytest.mark.parametrize("period", [5e-324, 1e-308])
def test_envelope_period_whose_quotient_overflows(period, tmp_path, capsys):
    # t / period past the float range: rejected by name before the divide
    # (a numpy overflow warning fails the test, see pyproject.toml)
    t = np.linspace(1.0, 10.0, 100)
    v = np.cos(2 * math.pi * t)
    with pytest.raises(PeriodError, match=rf"period {period!r} is too small"):
        envelope_points(t, v, period)
    with pytest.raises(PeriodError, match="period"):
        fit_power_law(t, v, (1.0, 10.0), mode="envelope", period=period)
    # a quotient that stays finite is no error: one sample per bin
    te, _ = envelope_points(t, v, 1e-300)
    assert np.array_equal(te, t)
    path = tmp_path / "series.csv"
    path.write_text("t,v1\n" + "".join(f"{a:.17g},{b:.17g}\n"
                                       for a, b in zip(t, v)))
    assert cli.main(["fit", str(path), "--window", "1:10", "--mode",
                     "envelope", f"--period={period!r}"]) == 2
    assert capsys.readouterr().err.startswith("error: --period: period ")


def test_runtime_warning_in_program_code_is_an_error():
    # pyproject.toml's filterwarnings applies to every multilink module
    with pytest.raises(RuntimeWarning, match="overflow"):
        exec("np.divide(np.ones(1), 5e-324)", vars(analysis))


def test_envelope_points():
    t = np.linspace(0.0, 10.0, 5000)
    v = np.cos(2 * math.pi * t) / (1.0 + t)
    te, ve = envelope_points(t, v, 1.0)
    assert te.size == 11  # 10 full periods plus the final sample bin
    assert ve[0] == pytest.approx(1.0, abs=1e-4)
    # envelope of |cos|/(1+t) is 1/(1+floor-time) at each period start
    assert np.all(np.diff(ve) < 0.0)


def envelope_points_loop(times, values, period):
    """Reference: one np.argmax per run of samples in the same period bin."""
    times = np.asarray(times, dtype=float)
    mags = np.abs(np.asarray(values, dtype=float))
    bins = np.floor(times / period).astype(np.int64)
    t_out, v_out = [], []
    start = 0
    for k in range(1, times.size + 1):
        if k == times.size or bins[k] != bins[start]:
            j = start + int(np.argmax(mags[start:k]))
            t_out.append(times[j])
            v_out.append(mags[j])
            start = k
    return np.array(t_out), np.array(v_out)


def test_envelope_points_matches_loop():
    cases = [
        # ties, including a tie between v and -v: the first sample wins
        ([0.1, 0.2, 0.3, 0.4, 1.1, 1.5], [2.0, -2.0, 1.0, 2.0, 0.5, -0.5]),
        # one-sample bins and negative values only
        ([0.5, 1.5, 2.5, 3.7], [-1.0, -3.0, -0.25, -7.0]),
        # trailing partial bin of one sample, a NaN, an empty input
        ([0.0, 0.25, 0.5, 0.75, 1.0], [1.0, np.nan, 3.0, np.nan, 4.0]),
        ([], []),
    ]
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(1, 80))
        t = np.sort(rng.uniform(0.0, 7.3, n))  # ends inside a period
        cases.append((t, rng.integers(-3, 4, n).astype(float)))
    t = np.linspace(1e3, 1.1e3, 20_001)
    cases.append((t, np.cos(2 * math.pi * t) * t ** -0.3))
    for t, v in cases:
        fast, slow = envelope_points(t, v, 1.0), envelope_points_loop(t, v, 1.0)
        for a, b in zip(fast, slow):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_fit_power_law_prefactor_overflow_is_value_error():
    # a slope of -300 over ten periods puts the intercept near
    # 300 ln 1000 = 2072, beyond the largest exp argument (about 709)
    t = np.linspace(1000.0, 1010.0, 200)
    v = np.exp(-300.0 * np.log(t / 1000.0)) * (1.0 + 0.01 * np.cos(t))
    with pytest.raises(ValueError, match=r"\[1000.0, 1010.0\]"):
        fit_power_law(t, v, (1000.0, 1010.0))


def test_fit_envelope_mode():
    t = np.linspace(1.0, 400.0, 40_000)
    v = 5.0 * t ** (-2.0 / 3.0) * np.cos(2 * math.pi * t)
    fit = fit_power_law(t, v, (2.0, 400.0), mode="envelope", period=1.0)
    assert fit.exponent == pytest.approx(-2.0 / 3.0, abs=1e-3)
    assert fit.prefactor == pytest.approx(5.0, rel=1e-2)


def test_averaged_law_substitution_and_ode(reference_vehicle,
                                           reference_derived):
    report = averaged_law_check(reference_vehicle, reference_derived,
                                sine_rotor(0.05, 1.0))
    assert report.substitution_residual == 0.0
    assert report.ode_error < 1e-9
    assert report.final_ratio is None


def test_averaged_law_errors(reference_vehicle, reference_derived):
    with pytest.raises(NoSpeedupError):
        averaged_law_check(reference_vehicle, reference_derived, zero_rotor())


def test_wrap_helpers():
    assert wrap_angles(math.pi) == pytest.approx(math.pi, abs=0)
    assert wrap_angles(-math.pi) == pytest.approx(math.pi, abs=1e-15)
    assert wrap_angles(2 * math.pi + 0.3) == pytest.approx(0.3, abs=1e-12)
    assert np.linalg.norm(wrap_angles([2 * math.pi, 0.0])) < 1e-12


def sequential_exponential(a, z0, tau):
    """Closed-form flow of a lower-triangular linear system with distinct
    eigenvalues (variation of constants, row by row)."""
    n = a.shape[0]
    lam = np.diag(a)
    g = np.zeros((n, n))
    for i in range(n):
        for k in range(i):
            g[i, k] = sum(a[i, j] * g[j, k] for j in range(k, i)) \
                / (lam[k] - lam[i])
        g[i, i] = z0[i] - g[i, :i].sum()
    return g @ np.exp(lam * tau)


def test_near_equilibrium_matches_linearization(reference_vehicle,
                                                reference_derived):
    pts = enumerate_fixed_points(2)
    stable = [fp for fp in pts
              if fp.v_sign == 1 and np.all(fp.theta_signs == 1)][0]
    a = linearization_matrix(stable, reference_vehicle, reference_derived)
    rng = np.random.default_rng(33)
    rhs = make_angle_system_rhs(reference_vehicle, reference_derived)
    for _ in range(5):
        delta = rng.normal(size=3)
        delta *= 1e-6 / np.linalg.norm(delta)
        for tau in (0.25, 1.0):
            sol = integrate(rhs, delta, IntegratorOptions(
                t_end=tau, rtol=1e-13, atol=1e-16))
            lin = sequential_exponential(a, delta, tau)
            rel = np.linalg.norm(sol.states[-1] - lin) / np.linalg.norm(lin)
            assert rel < 1e-3


# --- accelerating-run properties (session fixture, strong rotor) -------------


def test_speedup_asymptotics_in_regime(reference_vehicle, reference_derived,
                                       strong_rotor_run):
    """With the transients gone the trajectory follows the predicted
    envelopes: exponents 1/3, -1/3, -2/3 and late-time coefficients."""
    run = strong_rotor_run
    t, s = run["times"], run["states"]
    pred = SpeedupLaw.of(reference_vehicle, reference_derived, run["rotor"])
    window = (1e3, 1e4)
    fit_v1 = fit_power_law(t, s[:, 0], window)
    assert fit_v1.exponent == pytest.approx(1.0 / 3.0, abs=0.05)
    fit_om = fit_power_law(t, s[:, 1], window, mode="envelope", period=1.0)
    assert fit_om.exponent == pytest.approx(-1.0 / 3.0, abs=0.05)
    for i in (0, 1):
        fit_phi = fit_power_law(t, s[:, 2 + i], window, mode="envelope",
                                period=1.0)
        assert fit_phi.exponent == pytest.approx(-2.0 / 3.0, abs=0.05)

    # late-time pointwise envelope ratios approach 1
    late = t > 0.8 * t[-1]
    assert np.mean(s[late, 0] / pred.v1_envelope(t[late])) \
        == pytest.approx(1.0, abs=0.1)
    te, ve = envelope_points(t[late], s[late, 1], 1.0)
    assert np.mean(ve / pred.omega_envelope(te)) == pytest.approx(1.0, abs=0.1)
    for i in (0, 1):
        te, ve = envelope_points(t[late], s[late, 2 + i], 1.0)
        assert np.mean(ve / pred.phi_envelope(i, te)) \
            == pytest.approx(1.0, abs=0.15)


def test_omega_tracks_rotor_rate(reference_vehicle, reference_derived,
                                 strong_rotor_run):
    # omega * b * (cube_rate t)^(1/3) follows -kdot at large times
    run = strong_rotor_run
    t, s = run["times"], run["states"]
    pred = SpeedupLaw.of(reference_vehicle, reference_derived, run["rotor"])
    late = t > 0.8 * t[-1]
    tt, om = t[late], s[late, 1]
    scaled = om * reference_derived.static_moment * pred.v1_coeff \
        * tt ** (1.0 / 3.0)
    rate = np.array([run["rotor"].rate(x) for x in tt])
    te, ve = envelope_points(tt, scaled, 1.0)
    assert np.max(np.abs(ve - pred.max_rate)) / pred.max_rate < 0.15
    # sign: scaled omega anti-correlates with the momentum rate
    corr = np.corrcoef(scaled, -rate)[0, 1]
    assert corr > 0.9


def test_staggered_angles_alternate_with_rotor(reference_vehicle,
                                               reference_derived,
                                               strong_rotor_run):
    # theta_i carries the sign factor (-1)^(i+1) relative to kdot
    run = strong_rotor_run
    t, s = run["times"], run["states"]
    late = t > 0.8 * t[-1]
    theta = np.array([theta_from_phi(row) for row in s[late, 2:]])
    rate = np.array([run["rotor"].rate(x) for x in t[late]])
    for i in (0, 1):
        corr = np.corrcoef((-1.0) ** (i + 2) * theta[:, i], rate)[0, 1]
        assert corr > 0.9


def test_averaged_ratio_on_simulation(reference_vehicle, reference_derived,
                                      strong_rotor_run):
    from multilink.dynamics import Trajectory

    run = strong_rotor_run
    t, s = run["times"], run["states"]
    zero = np.zeros_like(t)  # the pose and diagnostics go unread
    traj = Trajectory(times=t, v1=s[:, 0], omega=s[:, 1], phi=s[:, 2:],
                      x=zero, y=zero, psi=zero, energy=zero,
                      residual_max=zero, rotor_momentum=zero)
    report = averaged_law_check(reference_vehicle, reference_derived,
                                run["rotor"], trajectory=traj)
    assert report.final_ratio == pytest.approx(1.0, abs=0.1)
