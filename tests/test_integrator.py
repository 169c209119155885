import itertools
import math

import numpy as np
import pytest

from multilink import integrator
from multilink.dynamics import make_reduced_rhs
from multilink.integrator import (
    METHOD_DOP853,
    METHOD_RK4,
    METHOD_RK45,
    DivergenceError,
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
    rotor = sine_rotor(0.05, 1.0)
    rhs = make_reduced_rhs(reference_vehicle, reference_derived, rotor)
    y0 = np.array([10.0, 1.0, 0.5, 0.5])
    t_eval = np.linspace(0.0, 10.0, 501)
    adaptive = integrate(rhs, y0, IntegratorOptions(t_end=10.0, rtol=1e-10,
                                                    atol=1e-12), t_eval=t_eval)
    fixed = integrate(rhs, y0, IntegratorOptions(t_end=10.0, method=METHOD_RK4,
                                                 h0=1e-3), t_eval=t_eval)
    assert np.max(np.abs(adaptive.states - fixed.states)) < 1e-6


def test_fixed_step_fourth_order():
    # halving the step cuts the terminal error by about 2^4 against the
    # adaptive reference
    ref = integrate(decay_rhs, [math.pi / 2],
                    IntegratorOptions(t_end=2.0, rtol=1e-12, atol=1e-14))
    ref_val = ref.states[-1, 0]
    errs = []
    for h in (0.2, 0.1, 0.05):
        sol = integrate(decay_rhs, [math.pi / 2],
                        IntegratorOptions(t_end=2.0, method=METHOD_RK4, h0=h))
        errs.append(abs(sol.states[-1, 0] - ref_val))
    for a, b in zip(errs, errs[1:]):
        assert 12.0 < a / b < 20.0


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
                  IntegratorOptions(t_end=1.0, method=METHOD_RK4, h0=0.1))


def test_t_eval_hit_exactly():
    t_eval = np.array([0.0, 0.1, 0.25, 1 / 3, 0.9999, 1.0])
    sol = integrate(decay_rhs, [1.0], IntegratorOptions(t_end=1.0, rtol=1e-9,
                                                        atol=1e-12),
                    t_eval=t_eval)
    assert np.array_equal(sol.times, t_eval)
    sol4 = integrate(decay_rhs, [1.0],
                     IntegratorOptions(t_end=1.0, method=METHOD_RK4, h0=0.01),
                     t_eval=t_eval)
    assert np.array_equal(sol4.times, t_eval)


def test_t_eval_validation():
    with pytest.raises(ValueError):
        integrate(decay_rhs, [1.0], IntegratorOptions(t_end=1.0),
                  t_eval=[0.5, 0.5])
    with pytest.raises(ValueError):
        integrate(decay_rhs, [1.0], IntegratorOptions(t_end=1.0),
                  t_eval=[0.5, 2.0])


def test_nonzero_start_time():
    sol = integrate(lambda t, y: np.array([2.0 * t]), [100.0],
                    IntegratorOptions(t_end=20.0, rtol=1e-10, atol=1e-12),
                    t0=10.0)
    assert sol.times[0] == 10.0
    assert sol.states[-1, 0] == pytest.approx(100.0 + 20.0 ** 2 - 10.0 ** 2,
                                              rel=1e-10)


def test_sample_stride():
    opts = IntegratorOptions(t_end=1.0, method=METHOD_RK4, h0=0.01,
                             sample_stride=10)
    sol = integrate(decay_rhs, [1.0], opts)
    # 100 steps -> every 10th plus the initial point
    assert sol.times.size == 11
    assert sol.times[0] == 0.0 and sol.times[-1] == 1.0


def test_options_validation():
    with pytest.raises(ValueError):
        IntegratorOptions(t_end=-1.0)
    with pytest.raises(ValueError):
        IntegratorOptions(t_end=1.0, rtol=0.0)
    with pytest.raises(ValueError):
        IntegratorOptions(t_end=1.0, h0=2.0, hmax=1.0)
    with pytest.raises(ValueError):
        IntegratorOptions(t_end=1.0, method="leapfrog")
    with pytest.raises(ValueError):
        IntegratorOptions(t_end=1.0, sample_stride=0)


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


def test_options_default_hmax_unbounded():
    assert IntegratorOptions(t_end=1.0).hmax == INF


def test_scalar_rhs_accepts_lists():
    sol = integrate(lambda t, y: [-y[0]], 1.0,
                    IntegratorOptions(t_end=1.0, rtol=1e-10, atol=1e-12))
    assert sol.states[-1, 0] == pytest.approx(math.exp(-1.0), rel=1e-9)


# right-hand-side calls per attempted step of each adaptive pair
CALLS_PER_ATTEMPT = {METHOD_RK45: 6, METHOD_DOP853: 12}


@pytest.mark.parametrize("method, stage", [
    *(pytest.param(METHOD_RK45, s, id=str(s)) for s in range(2, 8)),
    *(pytest.param(METHOD_DOP853, s, id=f"dop853-{s}") for s in range(2, 14)),
])
def test_nan_in_one_stage_and_component_rejects(method, stage):
    # After the initial evaluation every attempt makes one call per stage
    # from stage 2 on (stage 1 is the previous step's last stage): 2-7 for
    # the 5(4) pair, 2-13 for the 8(5,3) pair, whose stages 2-5 and 13 have
    # zero error weight.  The NaN sits in the last component only, and that
    # component ignores the state, so the NaN reaches the step only through
    # the stage it is returned at.
    calls = itertools.count()
    per_attempt = CALLS_PER_ATTEMPT[method]

    def rhs(t, y):
        k = next(calls)
        nan_here = k > 0 and (k - 1) % per_attempt == stage - 2
        return [-y[0], -y[1], math.nan if nan_here else 1.0]

    with pytest.raises(DivergenceError) as info:
        integrate(rhs, [1.0, 2.0, 0.0],
                  IntegratorOptions(t_end=1.0, method=method))
    assert info.value.time == 0.0


def test_rk4_overflow_to_inf_diverges():
    # y' = y^2 from y(0) = 1 blows up at t = 1; the fixed steps overflow
    # to Inf shortly after
    with pytest.raises(DivergenceError) as info:
        integrate(lambda t, y: [y[0] * y[0]], [1.0],
                  IntegratorOptions(t_end=2.0, method=METHOD_RK4, h0=0.1))
    assert 1.0 <= info.value.time < 2.0


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


def test_default_method_is_dop853():
    assert IntegratorOptions(t_end=1.0).method == METHOD_DOP853
    assert set(integrator.METHODS) == {METHOD_DOP853, METHOD_RK45, METHOD_RK4}


@pytest.mark.parametrize("method", [METHOD_RK45, METHOD_DOP853])
def test_adaptive_pairs_closed_form(method):
    t_eval = np.linspace(0.0, 3.0, 7)
    opts = IntegratorOptions(t_end=3.0, method=method, rtol=1e-10, atol=1e-12)
    sol = integrate(decay_rhs, [math.pi / 2], opts, t_eval=t_eval)
    assert np.array_equal(sol.times, t_eval)
    exact = [decay_exact(math.pi / 2, t) for t in t_eval]
    assert np.max(np.abs(sol.states[:, 0] - exact)) < 1e-9
    again = integrate(decay_rhs, [math.pi / 2], opts, t_eval=t_eval)
    assert np.array_equal(again.states, sol.states)
    assert sol.n_evals == 1 + CALLS_PER_ATTEMPT[method] * (
        sol.n_accepted + sol.n_rejected)


def test_dop853_takes_fewer_steps_at_tight_tolerance(reference_vehicle,
                                                     reference_derived):
    rhs = make_reduced_rhs(reference_vehicle, reference_derived,
                           sine_rotor(0.05, 1.0))
    y0 = [10.0, 1.0, 0.5, 0.5]
    sols = {m: integrate(rhs, y0, IntegratorOptions(t_end=10.0, method=m,
                                                     rtol=1e-10, atol=1e-12))
            for m in (METHOD_RK45, METHOD_DOP853)}
    assert sols[METHOD_DOP853].n_evals < sols[METHOD_RK45].n_evals / 2
    diff = sols[METHOD_DOP853].states[-1] - sols[METHOD_RK45].states[-1]
    assert np.max(np.abs(diff)) < 1e-8


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
