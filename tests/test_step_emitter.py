"""The emitted adaptive step against the hand-written step it replaces.

hand_dop853 below is the Dormand-Prince 8(5,3) step as it was written out
stage by stage before the integrator emitted it from its tableau.  It is
kept as a bit-identity oracle: the emitted steps must give the same times,
states and step counts to the last bit, both when they call a vehicle field
and when they call a plain function around it.  Its coefficients are read
from the integrator's tuples, which the scipy test checks.
"""

import inspect
import math
import os
import re
import subprocess
import sys
import traceback

import numpy as np
import pytest

import multilink
from multilink import _compiled, integrator
from multilink.dynamics import (
    PoseState,
    ReducedState,
    make_full_rhs,
    make_reduced_rhs,
    simulate,
)
from multilink.integrator import IntegratorOptions, integrate
from multilink.model import derive_params, random_vehicle, sine_rotor, zero_rotor

# --- the hand-written oracle ------------------------------------------------------

# _Di_j is row i, column j of the 8(5,3) stage matrix; _Dcj, _Dbj, _D5ej
# and _D3ej the abscissa, the propagation weight and the two error weights
# of stage j
(_, _Dc2, _Dc3, _Dc4, _Dc5, _Dc6, _Dc7, _Dc8, _Dc9, _Dc10, _Dc11, _,
 _) = integrator._DOP853_C
(_, (_D2_1,), (_D3_1, _D3_2), (_D4_1, _, _D4_3), (_D5_1, _, _D5_3, _D5_4),
 (_D6_1, _, _, _D6_4, _D6_5), (_D7_1, _, _, _D7_4, _D7_5, _D7_6),
 (_D8_1, _, _, _D8_4, _D8_5, _D8_6, _D8_7),
 (_D9_1, _, _, _D9_4, _D9_5, _D9_6, _D9_7, _D9_8),
 (_D10_1, _, _, _D10_4, _D10_5, _D10_6, _D10_7, _D10_8, _D10_9),
 (_D11_1, _, _, _D11_4, _D11_5, _D11_6, _D11_7, _D11_8, _D11_9, _D11_10),
 (_D12_1, _, _, _D12_4, _D12_5, _D12_6, _D12_7, _D12_8, _D12_9, _D12_10,
  _D12_11)) = integrator._DOP853_A
(_Db1, _, _, _, _, _Db6, _Db7, _Db8, _Db9, _Db10, _Db11,
 _Db12) = integrator._DOP853_B
(_D5e1, _, _, _, _, _D5e6, _D5e7, _D5e8, _D5e9, _D5e10, _D5e11, _D5e12,
 _) = integrator._DOP853_E5
(_D3e1, _, _, _, _, _D3e6, _D3e7, _D3e8, _D3e9, _D3e10, _D3e11, _D3e12,
 _) = integrator._DOP853_E3
del _


def hand_dop853(rhs, t, h, y, k1, atol, rtol):
    k2 = rhs(t + _Dc2 * h, [a + h * (_D2_1 * s1) for a, s1 in zip(y, k1)])
    k3 = rhs(t + _Dc3 * h, [a + h * (_D3_1 * s1 + _D3_2 * s2)
                            for a, s1, s2 in zip(y, k1, k2)])
    k4 = rhs(t + _Dc4 * h, [a + h * (_D4_1 * s1 + _D4_3 * s3)
                            for a, s1, s3 in zip(y, k1, k3)])
    k5 = rhs(t + _Dc5 * h, [a + h * (_D5_1 * s1 + _D5_3 * s3 + _D5_4 * s4)
                            for a, s1, s3, s4 in zip(y, k1, k3, k4)])
    k6 = rhs(t + _Dc6 * h, [a + h * (_D6_1 * s1 + _D6_4 * s4 + _D6_5 * s5)
                            for a, s1, s4, s5 in zip(y, k1, k4, k5)])
    k7 = rhs(t + _Dc7 * h, [a + h * (_D7_1 * s1 + _D7_4 * s4 + _D7_5 * s5
                                     + _D7_6 * s6)
                            for a, s1, s4, s5, s6 in zip(y, k1, k4, k5, k6)])
    k8 = rhs(t + _Dc8 * h, [a + h * (_D8_1 * s1 + _D8_4 * s4 + _D8_5 * s5
                                     + _D8_6 * s6 + _D8_7 * s7)
                            for a, s1, s4, s5, s6, s7
                            in zip(y, k1, k4, k5, k6, k7)])
    k9 = rhs(t + _Dc9 * h, [a + h * (_D9_1 * s1 + _D9_4 * s4 + _D9_5 * s5
                                     + _D9_6 * s6 + _D9_7 * s7 + _D9_8 * s8)
                            for a, s1, s4, s5, s6, s7, s8
                            in zip(y, k1, k4, k5, k6, k7, k8)])
    k10 = rhs(t + _Dc10 * h, [a + h * (_D10_1 * s1 + _D10_4 * s4
                                       + _D10_5 * s5 + _D10_6 * s6
                                       + _D10_7 * s7 + _D10_8 * s8
                                       + _D10_9 * s9)
                              for a, s1, s4, s5, s6, s7, s8, s9
                              in zip(y, k1, k4, k5, k6, k7, k8, k9)])
    k11 = rhs(t + _Dc11 * h, [a + h * (_D11_1 * s1 + _D11_4 * s4
                                       + _D11_5 * s5 + _D11_6 * s6
                                       + _D11_7 * s7 + _D11_8 * s8
                                       + _D11_9 * s9 + _D11_10 * s10)
                              for a, s1, s4, s5, s6, s7, s8, s9, s10
                              in zip(y, k1, k4, k5, k6, k7, k8, k9, k10)])
    k12 = rhs(t + h, [a + h * (_D12_1 * s1 + _D12_4 * s4 + _D12_5 * s5
                               + _D12_6 * s6 + _D12_7 * s7 + _D12_8 * s8
                               + _D12_9 * s9 + _D12_10 * s10 + _D12_11 * s11)
                      for a, s1, s4, s5, s6, s7, s8, s9, s10, s11
                      in zip(y, k1, k4, k5, k6, k7, k8, k9, k10, k11)])
    y_new = [a + h * (_Db1 * s1 + _Db6 * s6 + _Db7 * s7 + _Db8 * s8
                      + _Db9 * s9 + _Db10 * s10 + _Db11 * s11 + _Db12 * s12)
             for a, s1, s6, s7, s8, s9, s10, s11, s12
             in zip(y, k1, k6, k7, k8, k9, k10, k11, k12)]
    k13 = rhs(t + h, y_new)

    # max-norm form of err5^2 / sqrt(err5^2 + 0.01 err3^2) over a
    # per-component scale
    scale = [atol + rtol * max(abs(a), abs(b)) for a, b in zip(y, y_new)]
    err5 = [abs(_D5e1 * s1 + _D5e6 * s6 + _D5e7 * s7 + _D5e8 * s8
                + _D5e9 * s9 + _D5e10 * s10 + _D5e11 * s11 + _D5e12 * s12) / sc
            for sc, s1, s6, s7, s8, s9, s10, s11, s12
            in zip(scale, k1, k6, k7, k8, k9, k10, k11, k12)]
    err3 = [abs(_D3e1 * s1 + _D3e6 * s6 + _D3e7 * s7 + _D3e8 * s8
                + _D3e9 * s9 + _D3e10 * s10 + _D3e11 * s11 + _D3e12 * s12) / sc
            for sc, s1, s6, s7, s8, s9, s10, s11, s12
            in zip(scale, k1, k6, k7, k8, k9, k10, k11, k12)]
    # stages 2-5 and 13 have zero weight in both estimates, so they are
    # checked on their own
    if math.isnan(sum(err5)) or not math.isfinite(
            sum(k2) + sum(k3) + sum(k4) + sum(k5) + sum(k13)):
        return y_new, k13, math.nan
    e5 = max(err5)
    if e5 == 0.0:
        return y_new, k13, 0.0
    e3 = max(err3)
    root = math.sqrt(e5 * e5 + 0.01 * e3 * e3)
    if root == 0.0:  # both squares underflow: divide through by e5
        q = e3 / e5
        return y_new, k13, h * e5 / math.sqrt(1.0 + 0.01 * q * q)
    return y_new, k13, h * e5 * e5 / root


# --- the emitted step against it --------------------------------------------

# The one adaptive pair, the Dormand-Prince 8(5,3).  The runs below take it
# as a parameter so that their ids name the pair they step with.
one_pair = pytest.mark.parametrize("pair", ["adaptive-dop853"])


def hand_run(monkeypatch, rhs, y0, opts):
    """integrate with the hand-written step in place of the emitted one, on
    the Python loop, checking that it made every step."""
    calls = []

    def step(*args):
        calls.append(None)
        return hand_dop853(*args)

    with monkeypatch.context() as m:
        m.setattr(_compiled, "_lib", False)
        m.setattr(integrator, "_emit_step", lambda dim: step)
        sol = integrate(rhs, y0, opts)
    assert len(calls) == sol.n_accepted + sol.n_rejected > 0
    return sol


def assert_bit_identical(monkeypatch, rhs, y0, opts):
    """The runs of a vehicle field on the compiled loop (where it builds)
    and on the emitted step, and the run of the same field behind a plain
    function, against the hand-written step."""
    def called(t, y):
        return rhs(t, y)

    hand = hand_run(monkeypatch, rhs, y0, opts)
    runs = [integrate(rhs, y0, opts), integrate(called, y0, opts)]
    with monkeypatch.context() as m:
        m.setattr(_compiled, "_lib", False)  # the emitted step
        runs.append(integrate(rhs, y0, opts))
    for sol in runs:
        assert np.array_equal(sol.times, hand.times)
        assert np.array_equal(sol.states, hand.states)
        assert (sol.n_accepted, sol.n_rejected, sol.n_evals) == (
            hand.n_accepted, hand.n_rejected, hand.n_evals)
    return hand


@one_pair
def test_emitted_step_matches_hand_written_pinned_run(
        monkeypatch, pair, reference_vehicle, reference_derived):
    # the pinned speedup run of criterion 4, to t=50
    rhs = make_reduced_rhs(reference_vehicle, reference_derived,
                           sine_rotor(0.05, 1.0))
    opts = IntegratorOptions(t_end=50.0, rtol=1e-8, atol=1e-8, hmax=1 / 13)
    sol = assert_bit_identical(monkeypatch, rhs, [10.0, 1.0, 0.5, 0.5], opts)
    assert sol.n_rejected > 0


@one_pair
@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_emitted_step_matches_hand_written_random_vehicles(monkeypatch, pair,
                                                           n):
    rng = np.random.default_rng(600 + n)
    p = random_vehicle(rng, n)
    rhs = make_full_rhs(p, derive_params(p), sine_rotor(0.5, 1.0))
    y0 = [1.0, *rng.uniform(-1.0, 1.0, n + 1), 0.0, 0.0, 0.0]
    opts = IntegratorOptions(t_end=10.0, rtol=1e-10, atol=1e-12)
    assert_bit_identical(monkeypatch, rhs, y0, opts)


@one_pair
def test_emitted_step_matches_hand_written_t_eval_and_hmax(
        monkeypatch, pair, reference_vehicle, reference_derived):
    # evaluation times on the grid of sample_interval, and capped steps
    rhs = make_reduced_rhs(reference_vehicle, reference_derived,
                           sine_rotor(0.05, 1.0))
    opts = IntegratorOptions(t_end=5.0, rtol=1e-9, atol=1e-11, hmax=0.05,
                             sample_interval=5.0 / 36)
    sol = assert_bit_identical(monkeypatch, rhs, [10.0, 1.0, 0.5, 0.5], opts)
    assert np.array_equal(sol.times, np.linspace(0.0, 5.0, 37))


def test_emitted_step_matches_hand_written_underflowing_norm(
        monkeypatch, reference_vehicle, reference_derived):
    # error ratios near 1e-180, whose squares in the 8(5,3) norm underflow
    rhs = make_reduced_rhs(reference_vehicle, reference_derived, zero_rotor())
    sol = assert_bit_identical(monkeypatch, rhs, [0.0, 1e-180, 0.0, 0.0],
                               IntegratorOptions(t_end=1.0))
    assert sol.times[-1] == 1.0 and sol.n_rejected == 0
    # a plain right-hand side
    sol = integrate(lambda t, y: [-y[0]], [1e-180], IntegratorOptions(t_end=1.0))
    assert sol.states[-1, 0] / 1e-180 == pytest.approx(math.exp(-1.0), rel=1e-8)


@pytest.mark.parametrize("silent", [(2, 3, 4, 5, 13)], ids=["dop853"])
def test_emitted_source(silent):
    dim = 3
    a, b = integrator._DOP853_A, integrator._DOP853_B
    rows = (integrator._DOP853_E5, integrator._DOP853_E3)
    nonzero = [x for row in (*a, b, *rows) for x in row if x != 0.0]
    step = integrator._emit_step(dim)
    source = inspect.getsource(step)
    assert source.startswith(f"def {step.__name__}(")
    # per component, one term per non-zero coefficient of the stage matrix,
    # the weights and the error rows, in that order, and none for a zero one
    for i in range(dim):
        coeffs = re.findall(rf"(-?\d[\d.e+-]*) \* k\d+_{i}\b", source)
        assert [float(x) for x in coeffs] == nonzero
    # every stage but the last calls rhs with a list of one float per
    # component; the last gets the new state, the list y_new of n0, n1, ...
    calls = re.findall(r"= rhs\(t(?: \+ [^,]*)?, (.*)\)$", source, re.M)
    assert len(calls) == len(a)
    *stages, last = calls
    assert all(c.startswith("[") and c.endswith("]") for c in stages)
    assert all(len(re.findall(r"(?:^\[|, )y\d", c)) == dim for c in stages)
    assert last == "y_new"
    assert f"    y_new = [{', '.join(f'n{i}' for i in range(dim))}]" in source
    # the stages no error row weighs, checked on their own, every component
    (check,) = [line for line in source.splitlines() if "isfinite" in line]
    assert re.findall(r"k(\d+)_(\d+)", check) == [
        (str(j), str(i)) for j in silent for i in range(dim)]


def test_traceback_shows_emitted_line():
    def rhs(t, y):
        if t > 0.0:
            raise ZeroDivisionError
        return [0.0]

    with pytest.raises(ZeroDivisionError) as info:
        integrate(rhs, [1.0], IntegratorOptions(t_end=1.0))
    (frame,) = [f for f in traceback.extract_tb(info.tb)
                if f.filename == "<_step_dop853_1>"]
    c2 = integrator._DOP853_C[1]
    assert frame.line == f"[k2_0] = rhs(t + {c2!r} * h, [y0 + h * ({c2!r} * k1_0)])"


# --- compiled on first use, once --------------------------------------------------


def test_import_compiles_no_step():
    code = ("import multilink, linecache\n"
            "from multilink import integrator\n"
            "assert integrator._emit_step.cache_info().currsize == 0\n"
            "assert not [f for f in linecache.cache if f.startswith('<_step')]\n")
    src = os.path.dirname(os.path.dirname(multilink.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_only_steps_are_generated():
    # every chart and a plain function on the Python loop: the emitted steps
    # are the only generated code, so no second generator grows back
    code = ("import linecache\n"
            "import numpy as np\n"
            "from multilink import _compiled, dynamics, integrator, model\n"
            "_compiled._lib = False\n"
            "p = model.random_vehicle(np.random.default_rng(5), 2)\n"
            "d = model.derive_params(p)\n"
            "rotor = model.sine_rotor(0.5, 1.0)\n"
            "opts = integrator.IntegratorOptions(t_end=1.0)\n"
            "runs = [(dynamics.make_reduced_rhs(p, d, rotor), 4),\n"
            "        (dynamics.make_full_rhs(p, d, rotor), 7),\n"
            "        (dynamics.make_manifold_rhs(p, -1), 2),\n"
            "        (lambda t, y: [-y[0], y[1]], 2)]\n"
            "for rhs, dim in runs:\n"
            "    integrator.integrate(rhs, [0.3] * dim, opts)\n"
            "names = sorted(linecache.cache)\n"
            "assert names == ['<_step_dop853_2>', '<_step_dop853_4>',\n"
            "                 '<_step_dop853_7>'], names\n")
    src = os.path.dirname(os.path.dirname(multilink.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@one_pair
def test_second_run_compiles_nothing(monkeypatch, pair):
    # the second run wraps its field in a plain function: one step per
    # dimension serves both, on the Python loop
    monkeypatch.setattr(_compiled, "_lib", False)
    rng = np.random.default_rng(31)
    opts = IntegratorOptions(t_end=1.0)
    runs = []
    for wrapped in (False, True):
        p = random_vehicle(rng, 3)
        rhs = make_full_rhs(p, derive_params(p), zero_rotor())
        if wrapped:
            rhs = (lambda field: lambda t, y: field(t, y))(rhs)
        integrate(rhs, [1.0, 0.5, 0.3, -0.2, 0.1, 0.0, 0.0, 0.0], opts)
        runs.append(integrator._emit_step.cache_info())
    steps, steps_again = runs
    assert steps_again.misses == steps.misses


def test_many_links_run_keeps_invariants():
    # criteria 1 and 2 at N = 64, full chart
    n = 64
    rng = np.random.default_rng(64)
    p = random_vehicle(rng, n)
    d = derive_params(p)
    state = ReducedState(1.0, 0.4, rng.uniform(-math.pi, math.pi, n))
    traj = simulate(p, d, zero_rotor(), state, PoseState(),
                    IntegratorOptions(t_end=2.0))
    drift = np.max(np.abs(traj.energy - traj.energy[0])) / traj.energy[0]
    assert drift < 1e-7
    assert np.max(traj.residual_max) < 1e-10
