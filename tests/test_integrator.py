import itertools
import math

import numpy as np
import pytest

from multilink import integrator
from multilink.dynamics import make_reduced_rhs
from multilink.integrator import (
    DivergenceError,
    IntegrationError,
    IntegratorOptions,
    StepUnderflowError,
    integrate,
)
from multilink.model import sine_rotor


def decay_rhs(t, y):
    # velocity-angle equation with unit ratio: closed form
    # 2 atan(tan(y0/2) exp(-tau))
    return -np.sin(y)


def decay_exact(y0, tau):
    return 2.0 * math.atan(math.tan(y0 / 2.0) * math.exp(-tau))


def test_closed_form_oracle():
    opts = IntegratorOptions(t_end=math.log(2.0), rtol=1e-10, atol=1e-12)
    sol = integrate(decay_rhs, [math.pi / 2], opts)
    # 2 atan(1/2) = 0.9272952180016122
    assert decay_exact(math.pi / 2, math.log(2.0)) == pytest.approx(
        2.0 * math.atan(0.5), abs=0)
    assert abs(sol.states[-1, 0] - 2.0 * math.atan(0.5)) < 1e-9


def test_equilibrium_stays_constant(reference_vehicle, reference_derived):
    from multilink.model import zero_rotor

    rhs = make_reduced_rhs(reference_vehicle, reference_derived, zero_rotor())
    y0 = np.array([1.0, 0.0, 0.0, 0.0])
    sol = integrate(rhs, y0, IntegratorOptions(t_end=100.0, rtol=1e-10,
                                               atol=1e-12))
    assert np.max(np.abs(sol.states - y0)) < 1e-13


def test_cross_method_agreement(reference_vehicle, reference_derived):
    # against an independent integrator; scipy is an oracle here only
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    rotor = sine_rotor(0.05, 1.0)
    rhs = make_reduced_rhs(reference_vehicle, reference_derived, rotor)
    y0 = np.array([10.0, 1.0, 0.5, 0.5])
    times = np.linspace(0.0, 10.0, 501)
    adaptive = integrate(rhs, y0, IntegratorOptions(
        t_end=10.0, rtol=1e-10, atol=1e-12, sample_interval=0.02))
    assert np.array_equal(adaptive.times, times)
    ref = solve_ivp(rhs, (0.0, 10.0), y0, method="DOP853", t_eval=times,
                    rtol=1e-12, atol=1e-12)
    assert ref.success
    assert np.max(np.abs(adaptive.states - ref.y.T)) < 1e-6


def test_determinism(reference_vehicle, reference_derived):
    rotor = sine_rotor(0.05, 1.0)
    rhs = make_reduced_rhs(reference_vehicle, reference_derived, rotor)
    y0 = np.array([10.0, 1.0, 0.5, 0.5])
    opts = IntegratorOptions(t_end=25.0, rtol=1e-8, atol=1e-10)
    a = integrate(rhs, y0, opts)
    b = integrate(rhs, y0, opts)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)
    assert a.n_accepted == b.n_accepted and a.n_rejected == b.n_rejected


def test_step_underflow_carries_time():
    # finite-time singularity drives the step to zero near t = 0.5
    def rhs(t, y):
        return np.array([1.0 / (0.5 - t)])

    with pytest.raises(StepUnderflowError) as info:
        integrate(rhs, [0.0], IntegratorOptions(t_end=1.0, rtol=1e-8,
                                                atol=1e-10))
    assert info.value.time == pytest.approx(0.5, abs=1e-6)


def test_divergence_error():
    with pytest.raises(DivergenceError):
        integrate(lambda t, y: np.array([math.nan]), [0.0],
                  IntegratorOptions(t_end=1.0))
    with pytest.raises(DivergenceError):
        integrate(lambda t, y: np.array([math.inf]), [0.0],
                  IntegratorOptions(t_end=1.0))


def test_grid_hit_exactly():
    # each point is t0 + k * interval, not a running sum (6 * 0.1 is
    # 0.6000000000000001, a sum of six 0.1 is 0.6), then t_end: 10 * 0.1 is
    # 1.0, so no point lies just below it, but 10 * 0.0999 leaves a last gap
    # of 1e-3
    for interval, last in ((0.1, 9), (0.0999, 10)):
        sol = integrate(decay_rhs, [1.0],
                        IntegratorOptions(t_end=1.0, rtol=1e-9, atol=1e-12,
                                          sample_interval=interval))
        k = np.arange(1, last + 1)
        assert np.array_equal(sol.times, [0.0, *(k * interval), 1.0])


def test_nonzero_start_time():
    sol = integrate(lambda t, y: np.array([2.0 * t]), [100.0],
                    IntegratorOptions(t_end=20.0, rtol=1e-10, atol=1e-12),
                    t0=10.0)
    assert sol.times[0] == 10.0
    assert sol.states[-1, 0] == pytest.approx(100.0 + 20.0 ** 2 - 10.0 ** 2,
                                              rel=1e-10)


def test_sample_stride():
    # every 10th accepted step, the initial point and the last one
    opts = dict(t_end=1.0, rtol=1e-12, atol=1e-14, hmax=0.013)
    every = integrate(decay_rhs, [1.0], IntegratorOptions(**opts))
    tenth = integrate(decay_rhs, [1.0],
                      IntegratorOptions(**opts, sample_stride=10))
    assert every.n_accepted % 10 != 0 and every.times.size > 20
    keep = [*range(0, every.times.size, 10), every.times.size - 1]
    assert np.array_equal(tenth.times, every.times[keep])
    assert np.array_equal(tenth.states, every.states[keep])
    assert tenth.times[0] == 0.0 and tenth.times[-1] == 1.0


def test_sample_interval_grid():
    # t0, every t0 + k * interval below t_end, and t_end, each landed on by
    # a step; the steps between are the pair's own
    t0, interval = 0.25, 0.1
    sol = integrate(decay_rhs, [1.0],
                    IntegratorOptions(t_end=1.28, rtol=1e-10, atol=1e-12,
                                      sample_interval=interval), t0=t0)
    k = np.arange(1, 11)
    assert np.array_equal(sol.times, [t0, *(t0 + k * interval), 1.28])
    exact = [decay_exact(1.0, t - t0) for t in sol.times]
    assert np.allclose(sol.states[:, 0], exact, rtol=1e-9, atol=0)


@pytest.mark.parametrize("kwargs, message", [
    (dict(sample_interval=0.1, sample_stride=2),
     "sample_interval 0.1 takes sample_stride 1, got 2"),
    (dict(t_end=100.0, sample_interval=1e-13),
     r"sample_interval 1e-13 is below the step floor 1e-14 \* t_end"),
    (dict(sample_interval=-0.5), "sample_interval must not be negative"),
    (dict(sample_interval=math.inf), "sample_interval must be finite"),
    (dict(sample_interval=math.nan), "sample_interval must be finite"),
])
def test_sample_interval_rejected(kwargs, message):
    with pytest.raises(ValueError, match=message):
        IntegratorOptions(**{"t_end": 1.0, **kwargs})


def test_options_validation():
    with pytest.raises(ValueError):
        IntegratorOptions(t_end=-1.0)
    with pytest.raises(ValueError):
        IntegratorOptions(t_end=1.0, rtol=0.0)
    with pytest.raises(ValueError):
        IntegratorOptions(t_end=1.0, h0=2.0, hmax=1.0)
    with pytest.raises(ValueError):
        IntegratorOptions(t_end=1.0, sample_stride=0)


@pytest.mark.parametrize("stride", [1.5, 2.0, True, "2", None])
def test_sample_stride_must_be_an_integer(stride):
    # 1.5 used to emit every 3rd step (n_acc % 1.5 == 0) and True every one
    with pytest.raises(ValueError, match="sample_stride must be an integer"):
        IntegratorOptions(t_end=1.0, sample_stride=stride)


def test_numpy_integer_stride(reference_vehicle, reference_derived):
    # on the compiled loop of a vehicle field and on the Python loop
    rhs = make_reduced_rhs(reference_vehicle, reference_derived,
                           sine_rotor(0.05, 1.0))
    for field in (rhs, lambda t, y: rhs(t, y)):
        runs = [integrate(field, [10.0, 1.0, 0.5, 0.5],
                          IntegratorOptions(t_end=2.0, sample_stride=stride))
                for stride in (3, np.int64(3))]
        assert np.array_equal(runs[0].times, runs[1].times)
        assert np.array_equal(runs[0].states, runs[1].states)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field, kwargs", [
    ("t_end", dict(t_end=NAN)),
    ("t_end", dict(t_end=INF)),
    ("rtol", dict(t_end=1.0, rtol=NAN)),
    ("atol", dict(t_end=1.0, atol=INF)),
    ("h0", dict(t_end=1.0, h0=NAN)),
    ("h0", dict(t_end=1.0, h0=INF)),
    ("hmax", dict(t_end=1.0, hmax=NAN)),
])
def test_options_reject_non_finite(field, kwargs):
    # raised at construction: with h0 = NaN, integrate would never return
    with pytest.raises(ValueError, match=rf"\b{field}\b"):
        IntegratorOptions(**kwargs)


def test_long_horizon_starts_at_the_step_floor():
    # h0 = 1e-3 lies below the step floor 1e-14 * t_end past t_end = 1e11;
    # such runs used to underflow at t = 0 (a vehicle field on both loops:
    # test_compiled_loop.py::test_long_horizon_matches)
    sol = integrate(lambda t, y: [1.0], [0.0], IntegratorOptions(t_end=2e11))
    assert sol.times[-1] == 2e11
    assert sol.states[-1, 0] == pytest.approx(2e11, rel=1e-12)


def test_landing_step_below_the_step_floor():
    # t_end - t0 lies below the step floor 1e-14 * t_end, and so does the
    # gap between the last grid point and t_end, but one step lands on each
    # exactly;
    # such runs used to underflow (a vehicle field on both loops:
    # test_compiled_loop.py::test_landing_step_below_the_floor_matches)
    t0 = 1.0 - 1e-15
    sol = integrate(lambda t, y: [1.0], [0.0], IntegratorOptions(t_end=1.0),
                    t0=t0)
    assert sol.times.tolist() == [t0, 1.0] and sol.n_accepted == 1
    assert sol.states[-1, 0] == pytest.approx(1.0 - t0, rel=1e-12)
    interval = 1.0 - 2e-15
    sol = integrate(lambda t, y: [1.0], [0.0],
                    IntegratorOptions(t_end=1.0, sample_interval=interval))
    assert sol.times.tolist() == [0.0, interval, 1.0]
    # a step that would not land still underflows
    with pytest.raises(StepUnderflowError):
        integrate(lambda t, y: [1.0 / (0.5 - t)], [0.0],
                  IntegratorOptions(t_end=1.0), t0=0.5 - 1e-12)


def test_far_negative_start_runs():
    # a step of the step floor's scale still moves t at t0 = -1e3 (the ulp
    # there is 1.1e-13); a t0 whose steps cannot move t underflows
    # (test_compiled_loop.py::test_step_that_cannot_move_t_underflows)
    sol = integrate(lambda t, y: [-y[0]], [1.0], IntegratorOptions(t_end=1.0),
                    t0=-1e3)
    assert sol.times[0] == -1e3 and sol.times[-1] == 1.0
    assert sol.n_accepted == 199 and sol.times.size == 200
    # within 10 * atol once the state has decayed to the run's atol 1e-12
    assert np.allclose(sol.states[:, 0], np.exp(-1e3 - sol.times), rtol=1e-7,
                       atol=1e-11)


def test_hmax_below_the_step_floor_rejected():
    with pytest.raises(ValueError, match=r"hmax 1e-13 is below the step floor"):
        IntegratorOptions(t_end=100.0, hmax=1e-13)
    assert IntegratorOptions(t_end=1.0, h0=1e-14, hmax=1e-14).hmax == 1e-14


def test_options_default_hmax_unbounded():
    assert IntegratorOptions(t_end=1.0).hmax == INF


def test_scalar_rhs_accepts_lists():
    sol = integrate(lambda t, y: [-y[0]], 1.0,
                    IntegratorOptions(t_end=1.0, rtol=1e-10, atol=1e-12))
    assert sol.states[-1, 0] == pytest.approx(math.exp(-1.0), rel=1e-9)


# right-hand-side calls per attempted step
CALLS_PER_ATTEMPT = 12


@pytest.mark.parametrize("stage", [
    pytest.param(s, id=f"dop853-{s}") for s in range(2, 14)])
def test_nan_in_one_stage_and_component_rejects(stage):
    # After the initial evaluation every attempt makes one call per stage
    # from stage 2 on (stage 1 is the previous step's last stage): 2-13, of
    # which stages 2-5 and 13 have zero error weight.  The NaN sits in the
    # last component only, and that component ignores the state, so the NaN
    # reaches the step only through the stage it is returned at.
    calls = itertools.count()

    def rhs(t, y):
        k = next(calls)
        nan_here = k > 0 and (k - 1) % CALLS_PER_ATTEMPT == stage - 2
        return [-y[0], -y[1], math.nan if nan_here else 1.0]

    with pytest.raises(DivergenceError) as info:
        integrate(rhs, [1.0, 2.0, 0.0], IntegratorOptions(t_end=1.0))
    assert info.value.time == 0.0


def test_blow_up_ends_in_typed_error():
    # y' = y^2 from y(0) = 1 blows up at t = 1
    with pytest.raises(IntegrationError) as info:
        integrate(lambda t, y: [y[0] * y[0]], [1.0],
                  IntegratorOptions(t_end=2.0))
    assert info.value.time == pytest.approx(1.0, abs=1e-3)


def test_rhs_contract():
    seen = []

    def rhs(t, y):
        seen.append(type(y))
        return (-y[0], 0.5)  # any sequence of floats

    sol = integrate(rhs, np.array([1.0, 0.0]),
                    IntegratorOptions(t_end=1.0, rtol=1e-10, atol=1e-12))
    assert set(seen) == {list}
    assert sol.states[-1] == pytest.approx([math.exp(-1.0), 0.5], rel=1e-9)
    with pytest.raises(ValueError, match="2 values"):
        integrate(lambda t, y: [0.0], [1.0, 2.0], IntegratorOptions(t_end=1.0))


@pytest.mark.parametrize("pair", ["adaptive-dop853"])
def test_adaptive_pairs_closed_form(pair):
    times = np.linspace(0.0, 3.0, 7)
    opts = IntegratorOptions(t_end=3.0, rtol=1e-10, atol=1e-12,
                             sample_interval=0.5)
    sol = integrate(decay_rhs, [math.pi / 2], opts)
    assert np.array_equal(sol.times, times)
    exact = [decay_exact(math.pi / 2, t) for t in times]
    assert np.max(np.abs(sol.states[:, 0] - exact)) < 1e-9
    again = integrate(decay_rhs, [math.pi / 2], opts)
    assert np.array_equal(again.states, sol.states)
    assert sol.n_evals == 1 + CALLS_PER_ATTEMPT * (
        sol.n_accepted + sol.n_rejected)


def test_dop853_coefficients_match_scipy():
    # scipy is an oracle here only; the program never imports it
    ref = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    n = 12  # stages; stage 13 is the derivative at the new point
    assert integrator._DOP853_C == tuple(ref.C[:n + 1].tolist())
    assert len(integrator._DOP853_A) == n
    for i, row in enumerate(integrator._DOP853_A):
        assert row == tuple(ref.A[i, :i].tolist())
        assert not ref.A[i, i:].any()
    assert integrator._DOP853_B == tuple(ref.B.tolist())
    assert integrator._DOP853_E5 == tuple(ref.E5.tolist())
    assert integrator._DOP853_E3 == tuple(ref.E3.tolist())


def test_dop853_order_conditions():
    c = np.array(integrator._DOP853_C[:12])
    b = np.array(integrator._DOP853_B)
    for i, row in enumerate(integrator._DOP853_A):
        assert math.fsum(row) == pytest.approx(c[i], abs=1e-14)
    # quadrature conditions up to order 8, and not beyond
    for k in range(8):
        assert b @ c ** k == pytest.approx(1.0 / (k + 1), rel=1e-14, abs=0)
    assert abs(b @ c ** 8 - 1.0 / 9) > 1e-6
    # both error estimates vanish on a constant derivative
    assert math.fsum(integrator._DOP853_E5) == pytest.approx(0.0, abs=1e-15)
    assert math.fsum(integrator._DOP853_E3) == pytest.approx(0.0, abs=1e-15)
    assert integrator._DOP853_C[12] == 1.0


@pytest.mark.parametrize("t0", [5.0, 1.0, NAN, -INF])
def test_unusable_start_time_rejected(t0):
    # t0 = 5 used to return the initial sample after 0 steps, t0 = NaN two
    # samples at t = NaN
    with pytest.raises(ValueError, match=r"\bt0\b"):
        integrate(lambda t, y: [0.0], [0.0], IntegratorOptions(t_end=1.0),
                  t0=t0)


@pytest.mark.parametrize("y0", [[], [[1.0, 2.0]], np.zeros((2, 1))])
def test_unusable_initial_state_rejected(y0):
    with pytest.raises(ValueError, match=r"\by0\b"):
        integrate(lambda t, y: y, y0, IntegratorOptions(t_end=1.0))
