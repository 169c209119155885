"""The compiled loop against the emitted Python steps, the compiled
constraint residuals against numpy, the compiled CSV row formatter against
Python's "%.17g", the compiled CSV row parser against numpy.loadtxt, and
the compiled power-law fit against the fit's Python path (with
analysis.envelope_points) and np.polyfit.

integrate runs the vector fields of multilink.dynamics through the C loop of
multilink/_loop.c, built once per process, and every other right-hand side
through the emitted Python steps.  Both must give the same times, states and
counts to the last bit, and the same typed errors; without a compiler every
run takes the Python loop.  Setting ``_compiled._lib`` to False forces the
Python loop, the numpy residuals, the Python rows of the trajectory CSV,
its numpy.loadtxt read and the fit's Python path.
"""

import ctypes
import ctypes.util
import decimal
import importlib.resources
import inspect
import json
import locale
import math
import os
import re
import shlex
import shutil
import signal
import struct
import subprocess
import sys
import sysconfig
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import multilink
from multilink import _compiled, analysis, cli, config, scenarios
from multilink.dynamics import (
    Trajectory,
    energy_series,
    make_full_rhs,
    make_manifold_rhs,
    make_reduced_rhs,
    residual_max_series,
    simulate,
    trajectory_from_solution,
)
from multilink.integrator import (
    DivergenceError,
    IntegratorOptions,
    Solution,
    StepUnderflowError,
    integrate,
)
from multilink.model import (
    DegenerateShapeError,
    DerivedParams,
    VehicleParams,
    derive_params,
    random_vehicle,
    sine_rotor,
    theta_from_phi,
    zero_rotor,
)


# The one adaptive pair, the Dormand-Prince 8(5,3).  The runs below take it
# as a parameter so that their ids name the pair they step with.
one_pair = pytest.mark.parametrize("pair", ["adaptive-dop853"])


@pytest.fixture(scope="module")
def compiled():
    """The compiled loop; skipped where no compiler is installed, failing
    where one is and the loop does not build."""
    if not _compiled.load():
        cc = sysconfig.get_config_var("CC")
        if not cc or not any(os.access(os.path.join(d, shlex.split(cc)[0]), os.X_OK)
                             for d in os.environ.get("PATH", "").split(os.pathsep)):
            pytest.skip("no C compiler")
        pytest.fail(f"the compiled loop did not build with {cc}")
    return _compiled.load()


def outcome(run):
    """What a run gives: the bytes of its samples and its counts, or the
    type, message and time of its error."""
    try:
        sol = run()
    except Exception as e:
        return type(e), str(e), getattr(e, "time", None)
    return (sol.times.tobytes(), sol.states.tobytes(), sol.times.shape,
            sol.states.shape, sol.n_accepted, sol.n_rejected, sol.n_evals)


def both_loops(rhs, y0, opts, **kwargs):
    """The outcome of the compiled and of the Python loop, checking that
    each ran: the C loop is entered once per chunk of samples."""
    calls = []
    lib = _compiled._lib
    run = lib.ml_run
    with pytest.MonkeyPatch.context() as m:
        m.setattr(lib, "ml_run", lambda *args: calls.append(None) or run(*args))
        fast = outcome(lambda: integrate(rhs, y0, opts, **kwargs))
        assert calls
        m.setattr(_compiled, "_lib", False)
        slow = outcome(lambda: integrate(rhs, y0, opts, **kwargs))
    return fast, slow


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(0, 12), seed=st.integers(0, 2 ** 32 - 1),
       chart=st.sampled_from(["reduced", "full", "manifold"]),
       sine=st.booleans(),
       stride=st.integers(1, 3),
       interval=st.one_of(st.just(0.0), st.floats(0.05, 5.0)),
       hmax=st.sampled_from([math.inf, 0.05, 0.3]),
       t0=st.sampled_from([0.0, -1.5, 2.25]),
       chunk=st.sampled_from([3, _compiled.CHUNK]),
       budget=st.sampled_from([5, _compiled.STEPS_PER_CALL]))
def test_compiled_loop_matches_python_loop(compiled, n, seed, chart, sine,
                                           stride, interval, hmax, t0, chunk,
                                           budget):
    rng = np.random.default_rng(seed)
    p = random_vehicle(rng, n)
    d = derive_params(p)
    rotor = sine_rotor(float(rng.uniform(0.05, 1.0)), 1.0) if sine else zero_rotor()
    phi = rng.uniform(-math.pi, math.pi, n)
    if chart == "manifold":
        n = max(n, 1)
        rhs = make_manifold_rhs(random_vehicle(rng, n), 1 if seed % 2 else -1)
        y0 = rng.uniform(-math.pi, math.pi, n)
    else:
        rhs = (make_full_rhs if chart == "full" else make_reduced_rhs)(p, d, rotor)
        y0 = [rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0), *phi]
        y0 += list(rng.uniform(-1.0, 1.0, 3)) * (chart == "full")
    # a sample grid, its interval up to wider than the span 3.0, takes
    # stride 1
    opts = IntegratorOptions(t_end=t0 + 3.0, rtol=1e-9, atol=1e-11,
                             hmax=hmax, h0=min(1e-3, hmax),
                             sample_stride=1 if interval else stride,
                             sample_interval=interval)
    with pytest.MonkeyPatch.context() as m:
        # a short buffer and step budget make the loop resume from its state
        m.setattr(_compiled, "CHUNK", chunk)
        m.setattr(_compiled, "STEPS_PER_CALL", budget)
        fast, slow = both_loops(rhs, y0, opts, t0=t0)
    assert fast == slow
    assert isinstance(fast[0], bytes)


@one_pair
def test_pinned_run_matches_python_loop(compiled, pair, reference_vehicle,
                                        reference_derived):
    # the pinned speedup run of criterion 4, to t=50
    rhs = make_reduced_rhs(reference_vehicle, reference_derived,
                           sine_rotor(0.05, 1.0))
    opts = IntegratorOptions(t_end=50.0, rtol=1e-8, atol=1e-8, hmax=1 / 13)
    fast, slow = both_loops(rhs, [10.0, 1.0, 0.5, 0.5], opts)
    assert fast == slow and fast[5] > 0


@pytest.mark.parametrize("chart, n", [(chart, n) for chart in _compiled.CHARTS
                                      for n in range(chart == "manifold", 13)])
def test_every_state_dimension_matches(compiled, chart, n):
    # state dimensions 1 .. 17: the compiled loop's work rows are padded to
    # a multiple of 4 doubles, so these cross every 4-lane boundary and fill
    # the last block of a row from one lane to all four
    rng = np.random.default_rng(n)
    p = random_vehicle(rng, n)
    if chart == "manifold":
        rhs = make_manifold_rhs(p, -1)
        y0 = list(rng.uniform(-math.pi, math.pi, n))
    else:
        rhs = (make_full_rhs if chart == "full" else make_reduced_rhs)(
            p, derive_params(p), sine_rotor(0.3, 1.0))
        y0 = [rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0),
              *rng.uniform(-math.pi, math.pi, n)]
        y0 += list(rng.uniform(-1.0, 1.0, 3)) * (chart == "full")
    opts = IntegratorOptions(t_end=0.5, rtol=1e-9, atol=1e-11)
    fast, slow = both_loops(rhs, y0, opts)
    assert fast == slow
    assert isinstance(fast[0], bytes) and fast[3][1] == len(y0)


@pytest.mark.parametrize("stride", [2 ** 63 - 1, 2 ** 63, 2 ** 70 + 3])
def test_stride_beyond_c_long_matches(compiled, stride, reference_vehicle,
                                      reference_derived):
    # a stride no run reaches emits the first and the last sample only; a C
    # long kept 2**70 + 3 as 3
    rhs = make_reduced_rhs(reference_vehicle, reference_derived,
                           sine_rotor(0.05, 1.0))
    opts = IntegratorOptions(t_end=5.0, sample_stride=stride)
    fast, slow = both_loops(rhs, [10.0, 1.0, 0.5, 0.5], opts)
    assert fast == slow and fast[2] == (2,)


def grid_times(t0, interval, t_end):
    """The sample grid of IntegratorOptions.sample_interval: t0, each
    t0 + k * interval below t_end, and t_end."""
    k = np.arange(1.0, math.ceil((t_end - t0) / interval) + 1)
    points = t0 + k * interval
    return np.array([t0, *points[points < t_end], t_end])


@pytest.mark.parametrize("chart, t0, t_end, interval, hmax, chunk, budget", [
    # 5,001 samples: the grid crosses a chunk of the compiled loop
    ("reduced", 0.0, 50.0, 0.01, math.inf, _compiled.CHUNK,
     _compiled.STEPS_PER_CALL),
    # t0 != 0 and t_end off the grid, resumed after every 3 samples and
    # every 5 step attempts, which carries the grid index across calls
    ("full", 0.25, 3.1, 0.2, math.inf, 3, 5),
    ("reduced", -1.5, 7.0, 1 / 13, math.inf, 3, 5),
    # an interval of at least t_end - t0: t0 and t_end only
    ("reduced", 1.0, 3.0, 2.0, math.inf, _compiled.CHUNK,
     _compiled.STEPS_PER_CALL),
    ("full", 1.0, 3.0, 5.0, math.inf, _compiled.CHUNK,
     _compiled.STEPS_PER_CALL),
    # an explicit hmax smaller than the interval still caps the steps
    ("full", 0.0, 4.0, 0.3, 0.05, _compiled.CHUNK, _compiled.STEPS_PER_CALL),
])
def test_sample_grid_matches(compiled, chart, t0, t_end, interval, hmax, chunk,
                             budget, reference_vehicle, reference_derived):
    rhs = (make_full_rhs if chart == "full" else make_reduced_rhs)(
        reference_vehicle, reference_derived, sine_rotor(0.05, 1.0))
    y0 = [10.0, 1.0, 0.5, 0.5] + [0.1, 0.2, 0.3] * (chart == "full")
    opts = IntegratorOptions(t_end=t_end, rtol=1e-8, atol=1e-8, hmax=hmax,
                             h0=min(1e-3, hmax), sample_interval=interval)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_compiled, "CHUNK", chunk)
        m.setattr(_compiled, "STEPS_PER_CALL", budget)
        fast, slow = both_loops(rhs, y0, opts, t0=t0)
    assert fast == slow
    times = np.frombuffer(fast[0])
    assert np.array_equal(times, grid_times(t0, interval, t_end))
    if hmax < interval:  # capped steps between the samples
        assert fast[4] >= (t_end - t0) / hmax > times.size


# --- typed errors ----------------------------------------------------------------


@one_pair
def test_step_underflow_matches(compiled, pair, reference_vehicle,
                                reference_derived):
    # tolerances under the roundoff of every step
    rhs = make_reduced_rhs(reference_vehicle, reference_derived,
                           sine_rotor(0.05, 1.0))
    opts = IntegratorOptions(t_end=10.0, rtol=1e-30, atol=1e-30)
    fast, slow = both_loops(rhs, [10.0, 1.0, 0.5, 0.5], opts)
    assert fast == slow
    assert fast[0] is StepUnderflowError and fast[2] == 0.0


@pytest.mark.parametrize("chart", ["reduced", "full"])
def test_landing_step_below_the_floor_matches(compiled, chart,
                                              reference_vehicle,
                                              reference_derived):
    # landing steps shorter than the step floor 1e-14 * t_end: to t_end from
    # a t0 just below it, and from the last grid point, 2e-15 below t_end;
    # both loops used to underflow
    rhs = (make_full_rhs if chart == "full" else make_reduced_rhs)(
        reference_vehicle, reference_derived, sine_rotor(0.05, 1.0))
    y0 = [10.0, 1.0, 0.5, 0.5] + [0.1, 0.2, 0.3] * (chart == "full")
    opts = IntegratorOptions(t_end=1.0)
    fast, slow = both_loops(rhs, y0, opts, t0=1.0 - 1e-15)
    assert fast == slow and fast[2] == (2,)
    opts = IntegratorOptions(t_end=1.0, sample_interval=1.0 - 2e-15)
    fast, slow = both_loops(rhs, y0, opts)
    assert fast == slow and fast[2] == (3,)


def test_step_that_cannot_move_t_underflows(compiled):
    # at t0 = -1e20 a step of 1e-3 leaves t where it is; both loops used to
    # take such steps forever, so the run is a child process with a time
    # limit (its stride keeps a loop that does hang from filling memory)
    code = ("import json, sys\n"
            f"sys.path.insert(0, {os.path.dirname(__file__)!r})\n"
            "from test_compiled_loop import both_loops, outcome\n"
            "from multilink import _compiled, dynamics, integrator, model\n"
            "p = model.VehicleParams([1.0, 1.2, 1.2], [1.5, 2.0, 2.0], 0.7,\n"
            "                        [0.1, 0.2], [1.05, 1.10])\n"
            "rhs = dynamics.make_reduced_rhs(p, model.derive_params(p),\n"
            "                                model.sine_rotor(0.05))\n"
            "assert _compiled.load()\n"
            "opts = integrator.IntegratorOptions(t_end=1.0,\n"
            "                                    sample_stride=1000)\n"
            "y0 = [10.0, 1.0, 0.5, 0.5]\n"
            "runs = [*both_loops(rhs, y0, opts, t0=-1e20),\n"
            "        outcome(lambda: integrator.integrate(\n"
            "            lambda t, y: [-y[0]], [1.0], opts, t0=-1e20))]\n"
            "print(json.dumps([[e.__name__, m, t] for e, m, t in runs]))\n")
    src = os.path.dirname(os.path.dirname(multilink.__file__))
    # the time limit covers the build of the library, 0.3 to 0.4 s
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    message = ("step size 1.000e-03 underflowed at t=-1e+20 (tolerances "
               "unreachable here)")
    assert json.loads(proc.stdout) == [["StepUnderflowError", message,
                                        -1e20]] * 3


@one_pair
def test_divergence_matches(compiled, pair, reference_vehicle,
                            reference_derived):
    # a rotor rate of ~1e150 overflows the stages
    rhs = make_full_rhs(reference_vehicle, reference_derived, sine_rotor(1e150))
    opts = IntegratorOptions(t_end=1.0)
    fast, slow = both_loops(rhs, [10.0, 1.0, 0.5, 0.5, 0.0, 0.0, 0.0],
                            opts, t0=0.5)
    assert fast == slow == (DivergenceError,
                            "right-hand side or state not finite near t=0.5", 0.5)


@one_pair
@pytest.mark.parametrize("chart", [make_reduced_rhs, make_full_rhs])
def test_degenerate_shape_matches(compiled, pair, chart, reference_vehicle):
    # a hand-built coupling with m_eff = 1 - 3 sin^2(theta_1), > 0 at the
    # start; the first trial step's stages swing theta_1 past the zero
    bad = DerivedParams(mass=1.0, inertia=1.0, static_moment=0.5,
                        coupling=[-3.0, 0.0])
    rhs = chart(reference_vehicle, bad, sine_rotor(0.3, 1.0))
    y0 = [0.1, -10.0, 0.3, 0.0] + [0.0, 0.0, 0.0] * (chart is make_full_rhs)
    opts = IntegratorOptions(t_end=1.0, h0=0.5)
    fast, slow = both_loops(rhs, y0, opts, t0=0.25)
    assert fast == slow
    assert fast[0] is DegenerateShapeError
    assert fast[1].startswith("effective longitudinal inertia -")


@pytest.mark.parametrize("n, chart", [(1, make_reduced_rhs),
                                      (2, make_full_rhs)])
def test_degenerate_stage_matches_on_padded_rows(compiled, n, chart,
                                                 reference_vehicle):
    # as above, on state dimensions 3 and 7, which the compiled loop's work
    # rows pad to 4 and 8: the stage input that m_eff <= 0 stops at is read
    # at its padded row and handed to the Python field, which raises the
    # Python loop's error
    ref = reference_vehicle
    p = VehicleParams(masses=ref.masses[:n + 1], inertias=ref.inertias[:n + 1],
                      a0=ref.a0, a=ref.a[:n], c=ref.c[:n])
    bad = DerivedParams(mass=1.0, inertia=1.0, static_moment=0.5,
                        coupling=[-3.0, 0.0][:n])
    rhs = chart(p, bad, sine_rotor(0.3, 1.0))
    y0 = [0.1, -10.0, 0.3, 0.0][:n + 2] + [0.0] * 3 * (chart is make_full_rhs)
    opts = IntegratorOptions(t_end=1.0, h0=0.5)
    stages = []
    fail = _compiled._fail
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_compiled, "_fail",
                  lambda *args: stages.append(args[3]) or fail(*args))
        fast, slow = both_loops(rhs, y0, opts, t0=0.25)
    assert fast == slow
    assert fast[0] is DegenerateShapeError
    assert fast[1].startswith("effective longitudinal inertia -")
    assert len(stages) == 1 and stages[0].size == len(y0)


@pytest.mark.parametrize("chart", [make_reduced_rhs, make_full_rhs])
def test_start_failures_match(compiled, chart, reference_vehicle,
                              reference_derived):
    # the compiled loop takes the derivative at t0 and leaves a failing
    # start to the Python loop: a state of another length, a non-finite
    # derivative, and m_eff = 1 - 3 sin^2(theta_1) <= 0 at t0
    rhs = chart(reference_vehicle, reference_derived, sine_rotor(0.3, 1.0))
    y0 = [0.1, -10.0, 0.3, 0.0] + [0.0, 0.0, 0.0] * (chart is make_full_rhs)
    opts = IntegratorOptions(t_end=1.0)
    bad = DerivedParams(mass=1.0, inertia=1.0, static_moment=0.5,
                        coupling=[-3.0, 0.0])
    for field, y, error in [(rhs, y0[:-1], ValueError),
                            (rhs, [*y0[:2], math.inf, *y0[3:]],
                             DivergenceError),
                            (chart(reference_vehicle, bad, zero_rotor()),
                             [0.1, 0.0, 1.5, *y0[3:]], DegenerateShapeError)]:
        fast, slow = both_loops(field, y, opts, t0=0.25)
        assert fast == slow and fast[0] is error


@pytest.mark.parametrize("chart", [make_reduced_rhs, make_full_rhs])
def test_long_horizon_matches(compiled, chart, reference_vehicle,
                              reference_derived):
    # a vehicle at rest to t = 2e11, where h0 = 1e-3 lies below the step
    # floor 1e-14 * t_end: both loops used to underflow at t = 0
    rhs = chart(reference_vehicle, reference_derived, zero_rotor())
    y0 = [0.0, 0.0, 0.5, -0.3] + [1.0, 2.0, 0.4] * (chart is make_full_rhs)
    fast, slow = both_loops(rhs, y0, IntegratorOptions(t_end=2e11))
    assert fast == slow
    times = np.frombuffer(fast[0])
    states = np.frombuffer(fast[1]).reshape(fast[3])
    assert times[-1] == 2e11 and np.all(states == y0)


def test_zero_divisor_in_853_norm_matches(compiled, reference_vehicle,
                                          reference_derived):
    # squares of error ratios near 1e-180 underflow to a zero divisor; both
    # norms then divide through by the 5th-order ratio, and the run ends
    rhs = make_reduced_rhs(reference_vehicle, reference_derived, zero_rotor())
    fast, slow = both_loops(rhs, [0.0, 1e-180, 0.0, 0.0],
                            IntegratorOptions(t_end=1.0))
    assert fast == slow
    states = np.frombuffer(fast[1]).reshape(fast[3])
    assert isinstance(fast[0], bytes) and fast[5] == 0
    assert np.all(np.isfinite(states)) and states[-1, 1] != 0.0


def test_cli_rotor_overflow_exits_1(compiled, tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text('{"scenario": "speedup", "vehicle": {"m": [1.0, 1.2, 1.2],'
                    ' "I": [1.5, 2.0, 2.0], "a0": 0.7, "a": [0.1, 0.2],'
                    ' "c": [1.05, 1.10]}, "initial": {"v1": 10.0, "omega": 1.0,'
                    ' "phi": [0.5, 0.5]}, "rotor": {"kind": "sine",'
                    ' "amplitude": 1e150}, "integrator": {"t_end": 1.0}}')
    assert cli.main(["simulate", str(path), "--output-dir",
                     str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        "error: right-hand side or state not finite near t=0.0\n")
    assert not (tmp_path / "o").exists()


# --- fallback, packaging, processes ---------------------------------------------


def test_missing_compiler_takes_python_loop(monkeypatch, compiled,
                                            reference_vehicle,
                                            reference_derived):
    rhs = make_full_rhs(reference_vehicle, reference_derived,
                        sine_rotor(0.05, 1.0))
    y0 = [1.0, 0.5, 0.3, -0.2, 0.0, 0.0, 0.0]
    opts = IntegratorOptions(t_end=5.0, sample_stride=2)
    expected = outcome(lambda: integrate(rhs, y0, opts))
    vars_ = sysconfig.get_config_vars()
    monkeypatch.setitem(vars_, "CC", "no-such-compiler-for-multilink")
    monkeypatch.setattr(_compiled, "_lib", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert outcome(lambda: integrate(rhs, y0, opts)) == expected
    assert _compiled._lib is False


def test_c_source_is_package_data():
    source = importlib.resources.files("multilink") / "_loop.c"
    assert source.is_file()
    assert "int ml_run(" in source.read_text()


def test_import_and_fields_start_no_compiler(tmp_path):
    # a compiler run would leave its temporary directory until exit; the
    # modules only a build needs stay unloaded
    code = ("import multilink, sys\n"
            "build = {'subprocess', 'sysconfig', 'shlex', 'signal'}\n"
            "assert not build & set(sys.modules), build & set(sys.modules)\n"
            "from multilink import _compiled, dynamics, model\n"
            "p = model.VehicleParams([1.0, 1.0], [1.0, 1.0], 0.5, [0.1], [1.0])\n"
            "d = model.derive_params(p)\n"
            "dynamics.make_full_rhs(p, d, model.sine_rotor(0.1))\n"
            "dynamics.make_reduced_rhs(p, d, model.zero_rotor())\n"
            "dynamics.make_manifold_rhs(p, 1)\n"
            "assert _compiled._lib is None\n"
            "assert not build & set(sys.modules), build & set(sys.modules)\n")
    src = os.path.dirname(os.path.dirname(multilink.__file__))
    env = {**os.environ, "PYTHONPATH": src, "TMPDIR": str(tmp_path)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    assert os.listdir(tmp_path) == []


def test_build_directory_removed_at_exit(compiled, tmp_path):
    code = ("import os, tempfile\n"
            "from multilink import _compiled\n"
            "assert _compiled.load()\n"
            "assert os.listdir(tempfile.gettempdir())\n")
    src = os.path.dirname(os.path.dirname(multilink.__file__))
    env = {**os.environ, "PYTHONPATH": src, "TMPDIR": str(tmp_path)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    assert os.listdir(tmp_path) == []


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_compiler_timeout_kills_its_process_group(monkeypatch, tmp_path):
    # a "compiler" that starts a child of its own and hangs: both go
    pids = tmp_path / "pids"
    script = ("import os, subprocess, sys, time\n"
              "child = subprocess.Popen([sys.executable, '-c', "
              "'import time; time.sleep(60)'])\n"
              f"open({str(pids)!r}, 'w').write(f'{{os.getpid()}} {{child.pid}}')\n"
              "time.sleep(60)\n")
    monkeypatch.setattr(_compiled, "COMPILE_TIMEOUT_S", 2.5)
    with pytest.raises(subprocess.TimeoutExpired):
        _compiled._compile([sys.executable, "-c", script])
    started = [int(pid) for pid in pids.read_text().split()]
    assert len(started) == 2
    for _ in range(100):
        if not any(map(_alive, started)):
            break
        time.sleep(0.05)
    assert not any(map(_alive, started))


def test_interrupt_stops_a_long_compiled_run(compiled):
    # to t = 1e7 on a grid wider than the span, which emits t0 and t_end
    # only: no sample fills the buffer, so only the step budget of a call
    # returns control to Python
    code = ("from multilink import _compiled, dynamics, integrator, model\n"
            "p = model.VehicleParams([1.0, 1.2, 1.2], [1.5, 2.0, 2.0], 0.7,\n"
            "                        [0.1, 0.2], [1.05, 1.10])\n"
            "rhs = dynamics.make_reduced_rhs(p, model.derive_params(p),\n"
            "                                model.sine_rotor(0.05))\n"
            "assert _compiled.load()\n"
            "print('running', flush=True)\n"
            "integrator.integrate(rhs, [10.0, 1.0, 0.5, 0.5],\n"
            "                     integrator.IntegratorOptions(\n"
            "                         t_end=1e7, sample_interval=1e7))\n")
    src = os.path.dirname(os.path.dirname(multilink.__file__))
    proc = subprocess.Popen([sys.executable, "-c", code],
                            env={**os.environ, "PYTHONPATH": src},
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        assert proc.stdout.readline() == "running\n"
        time.sleep(0.3)
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=10)
    finally:
        proc.kill()
        proc.wait()
    assert "KeyboardInterrupt" in err


@one_pair
@pytest.mark.parametrize("chart", [make_reduced_rhs, make_full_rhs])
def test_signed_zeros_match(compiled, pair, chart, reference_vehicle,
                            reference_derived):
    # at rest with exact and negative zeros, every stage sum is a signed
    # zero, whose sign depends on where the sum starts
    rhs = chart(reference_vehicle, reference_derived, zero_rotor())
    y0 = [-0.0, 0.0, -0.0, 0.0] + [-0.0, 0.0, -0.0] * (chart is make_full_rhs)
    fast, slow = both_loops(rhs, y0, IntegratorOptions(t_end=1.0))
    assert fast == slow
    assert np.signbit(np.frombuffer(fast[1])).any()


# --- the CSV row formatter --------------------------------------------------------


def python_text(table):
    return "".join(",".join(["%.17g" % v for v in row]) + "\n"
                   for row in table.tolist())


def written_by_c(values):
    """Whether the compiled formatter writes each of values: all but the
    finite nonzero ones outside [10^-39, 10^17), which it leaves to
    Python."""
    a = np.abs(values)
    return ~np.isfinite(a) | (a == 0.0) | ((a >= FORMAT_LOW) & (a < 1e17))


def check_chunks(table, chunk):
    """Each chunk of rows of table as the writer passes it: formatted by C
    to Python's bytes, or declined whole where it holds a value that C
    leaves to Python."""
    table = np.asarray(table, dtype=float)
    for start in range(0, len(table), chunk):
        rows = table[start:start + chunk]
        text = _compiled.format_rows(rows)
        if written_by_c(rows).all():
            assert text == python_text(rows).encode()
        else:
            assert text is None, rows


def _bits(n, exponents=(0, 2048)):
    """Random bit patterns, their exponent field in the given range."""
    rng = np.random.default_rng([416, *exponents])
    bits = rng.integers(0, 2 ** 64, n, dtype=np.uint64, endpoint=False)
    field = rng.integers(*exponents, n).astype(np.uint64) << np.uint64(52)
    return (bits & ~np.uint64(0x7FF << 52) | field).view(float)


_POWERS = [float(f"1e{k}") for k in range(-325, 309)]


def _least_double_at_or_above(power):
    """The least double >= 10^power."""
    x = float(f"1e{power}")
    while Fraction(x) < Fraction(10) ** power:
        x = math.nextafter(x, math.inf)
    return x


# the compiled formatter writes the finite nonzero values of [10^-39, 10^17)
FORMAT_LOW = _least_double_at_or_above(-39)


def _every_binade():
    """The least, the greatest and a random significand of every binade,
    subnormals included."""
    rng = np.random.default_rng(417)
    fields = np.arange(2047, dtype=np.uint64) << np.uint64(52)
    frac = np.uint64((1 << 52) - 1)
    return np.concatenate([fields | np.uint64(1), fields | frac,
                           fields | rng.integers(0, 1 << 52, 2047,
                                                 dtype=np.uint64)]).view(float)

FORMAT_INPUTS = {
    "random-bits": _bits(10_000),
    # 2^-54 to 2^57: about the exact range, where the C digits are used
    "random-bits-in-range": _bits(100_000, (969, 1081)),
    "zeros-and-nans": [0.0, -0.0, math.nan, -math.nan,
                       np.uint64(0x7FF0000000000001).view(float),
                       np.uint64(0xFFF8000000000123).view(float)],
    "inf-subnormal-max": [math.inf, -math.inf, 5e-324, -5e-324,
                          2.2250738585072009e-308, 2.2250738585072014e-308,
                          1.7976931348623157e308, -1.7976931348623157e308],
    # 1e-14 lies below 10^-14, and its 17 digits round up to 10^17
    "powers-of-ten": [y for x in _POWERS for y in
                      (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))],
    # on [2^50, 2^51) the spacing is 1/4: x.25 and x.75 are exact ties at
    # 17 digits, broken to the even digit
    "ties": [0.5, 2.5, 1.5, -2.5, 0.125,
             *[2.0 ** 50 + i + f for i in (0, 1, 12345) for f in (0.25, 0.75)]],
    "near-2^53": [float(2 ** 53 + i) for i in range(-4, 5)]
                 + [float(2 ** 54 + i) for i in (-2, 0, 4)],
    "range-edges": [y for x in (1e-39, FORMAT_LOW, 1e-16, 1e17) for y in
                    (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))]
                   + [99999999999999984.0, 9.9999999999999998e-17],
    "every-binade": _every_binade(),
    "below-1e-16": 10.0 ** np.random.default_rng(418).uniform(-39.5, -16, 20_000),
    "subnormals": _bits(2_000, (0, 1)),
}


@pytest.mark.parametrize("values", FORMAT_INPUTS.values(),
                         ids=FORMAT_INPUTS.keys())
def test_formatter_matches_python(compiled, values):
    table = np.reshape(values, (-1, 1))
    kept = written_by_c(table[:, 0])
    check_chunks(table[kept], 1024)
    # each value left to Python declines its row, and any chunk holding it
    check_chunks(table[~kept], 1)
    check_chunks(table, 64)


def _double(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# any bit pattern, a binade near 10^-39 .. 10^17 and the powers of ten
ANY_DOUBLE = (st.integers(0, 2 ** 64 - 1).map(_double)
              | st.tuples(st.integers(895, 1081), st.integers(0, 2 ** 52 - 1),
                          st.booleans()).map(
                  lambda t: _double(t[2] << 63 | t[0] << 52 | t[1]))
              | st.sampled_from(_POWERS).flatmap(
                  lambda x: st.sampled_from([math.nextafter(x, 0.0), x,
                                             math.nextafter(x, math.inf)])))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=st.lists(ANY_DOUBLE, min_size=1, max_size=40))
def test_formatter_matches_python_on_any_double(compiled, values):
    check_chunks(np.reshape(values, (-1, 1)), 7)


def test_formatter_hands_rows_across_chunks(compiled, tmp_path, monkeypatch):
    # rows 0, 4, 5 and 9 each hold a value left to Python: the writer's
    # chunks of 3 rows that hold them are written by Python, the others by
    # C, to the bytes of the Python writer
    table = np.arange(100.0).reshape(10, 10) + 0.1
    table[[0, 4, 5, 9], [1, 0, 2, 9]] = [1e-300, -1e300, 5e-324, 1e17]
    texts = [_compiled.format_rows(table[i:i + 3]) for i in range(0, 10, 3)]
    assert [text is None for text in texts] == [True, True, False, True]
    check_chunks(table, 3)
    columns = list(table.T)
    traj = Trajectory(*columns[:3], table[:, 3:4], *columns[4:])
    monkeypatch.setattr(scenarios, "_CSV_CHUNK_ROWS", 3)
    scenarios.write_trajectory_csv(tmp_path / "fast.csv", traj)
    monkeypatch.setattr(_compiled, "_lib", False)
    scenarios.write_trajectory_csv(tmp_path / "slow.csv", traj)
    assert (tmp_path / "fast.csv").read_bytes() \
        == (tmp_path / "slow.csv").read_bytes()


def test_speedup_csv_same_bytes_without_library(compiled, tmp_path,
                                                monkeypatch):
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                           "speedup.json")) as f:
        doc = json.load(f)
    doc["integrator"]["t_end"] = 100.0
    cfg = config.parse_config(json.dumps(doc))
    p = cfg.vehicle
    traj = simulate(p, derive_params(p), cfg.rotor, cfg.initial, cfg.pose,
                    cfg.integrator)
    tiny = traj.residual_max[traj.residual_max != 0.0]
    assert np.count_nonzero(tiny < 1e-16) > 5
    monkeypatch.setattr(scenarios, "_CSV_CHUNK_ROWS", 64)  # several chunks
    scenarios.write_trajectory_csv(tmp_path / "fast.csv", traj)
    monkeypatch.setattr(_compiled, "_lib", False)
    scenarios.write_trajectory_csv(tmp_path / "slow.csv", traj)
    assert (tmp_path / "fast.csv").read_bytes() \
        == (tmp_path / "slow.csv").read_bytes()


def build_loop(tmp_path, *options):
    """_loop.c built with the library's flags and the options given, its
    functions declared as _compiled declares them; skipped where no compiler
    is installed."""
    cc = sysconfig.get_config_var("CC")
    if not cc or not shutil.which(shlex.split(cc)[0]):
        pytest.skip("no C compiler")
    source = importlib.resources.files("multilink") / "_loop.c"
    with importlib.resources.as_file(source) as path:
        proc = subprocess.run(
            [*shlex.split(cc), *_compiled.FLAGS, *options, str(path), "-o",
             str(tmp_path / "_loop.so"), "-lm"],
            capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lib = ctypes.CDLL(str(tmp_path / "_loop.so"))
    declared = _compiled.load()
    for name in EXPORTED:
        if declared and hasattr(lib, name):
            getattr(lib, name).argtypes = getattr(declared, name).argtypes
            getattr(lib, name).restype = getattr(declared, name).restype
    return lib


@pytest.mark.parametrize("define", [[], ["-U__SIZEOF_INT128__"]],
                         ids=["int128", "no-int128"])
def test_c_source_compiles_without_warnings(define, tmp_path):
    # the one flag set must stay warning-free through the optimizer, whose
    # passes give some warnings; without 128-bit integers the loop, the
    # points and the parser still build, the writer takes the Python rows
    # and the parser converts every field by strtod, to the same bits
    lib = build_loop(tmp_path, "-Wall", "-Wextra", "-Werror", *define)
    assert hasattr(lib, "ml_format_rows") == (define == [])
    assert all(hasattr(lib, name) for name in EXPORTED
               if name != "ml_format_rows")
    if not _compiled.load():
        return
    values = np.concatenate((_bits(500), _bits(500, (895, 1081))))
    table = values.reshape(-1, 2)
    path = tmp_path / "traj.csv"
    path.write_bytes(b"t,v1\n" + python_text(table).encode())
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_compiled, "_lib", lib)
        got = parsed(path, [0, 1])
        if define == []:
            check_chunks(table, 1024)
        else:
            assert _compiled.format_rows(table) is None
    assert got.tobytes() == table.tobytes()


# the definitions of the functions that _loop.c exports: each one's return
# type, name and parameters
DEFINITIONS = re.findall(r"^(?!static\b)([A-Za-z_][\w \t]*?\**)\s*\b(\w+)"
                         r"\(([^;{)]*)\)\s*\{",
                         (importlib.resources.files("multilink")
                          / "_loop.c").read_text(), re.M)
EXPORTED = [name for _, name, _ in DEFINITIONS]


def test_every_exported_function_is_declared(compiled):
    # an undeclared function takes ctypes' defaults, which pass a Python int
    # as a C int and cut a long return to an int
    build = inspect.getsource(_compiled._build)
    restypes = {"void": None, "int": ctypes.c_int, "long": ctypes.c_long}
    assert {"ml_run", "ml_residual_max", "ml_format_points", "ml_format_rows",
            "ml_parse_rows"} <= set(EXPORTED)
    for restype, name, params in DEFINITIONS:
        assert f"lib.{name}.argtypes = " in build
        assert f"lib.{name}.restype = " in build
        function = getattr(compiled, name)
        assert len(function.argtypes) == len(params.split(",")), name
        assert function.restype is restypes[restype.strip()], name


# --- the CSV row parser -----------------------------------------------------------


def parsed(path, keep):
    """The compiled parser's rows of the CSV at path, columns keep, or None
    where it declines them."""
    with open(path, "rb") as f:
        fields = len(f.readline().split(b","))
        return _compiled._parse_rows(f, fields, keep)


def csv_file(tmp_path, body, header=b"t,v1,k\n"):
    path = tmp_path / "traj.csv"
    path.write_bytes(header + body)
    return path


# a body that the parser declines: the odd field is the first, which every
# read converts, a middle one or the last, which loadtxt converts where it
# reads a subset
DECLINED = {
    "crlf": b"1,2,3\r\n",
    "cr-inside": b"1,2\r,3\n",
    "cr-alone": b"1,2,3\r4,5,6\n",
    "comment-line": b"1,2,3\n#c\n",
    "comment-after": b"1,2,3#c\n",
    "blank-line": b"1,2,3\n\n4,5,6\n",
    "plus": b"1,+2,3\n",
    "leading-dot": b"1,2,.5\n",
    "trailing-dot": b"1.,2,3\n",
    "hex": b"1,2,0x10\n",
    "hex-float": b"0x1p3,2,3\n",
    "infinity": b"1,infinity,3\n",
    "capital-inf": b"Inf,2,3\n",
    "capital-nan": b"1,2,NaN\n",
    "minus-nan": b"-nan,2,3\n",
    "nan-payload": b"1,2,nan(1)\n",
    "capital-e": b"1E+05,2,3\n",
    "unsigned-exponent": b"1,2,1e5\n",
    "empty-exponent": b"1,1e+,3\n",
    "underscore": b"1_0,2,3\n",
    "space-before": b"1, 2,3\n",
    "space-after": b"1,2,3 \n",
    "empty-field": b"1,,3\n",
    "too-few": b"1,2,3\n1,2\n",
    "too-many": b"1,2,3,4\n",
    "no-final-newline": b"1,2,3\n4,5,6",
    "no-rows": b"",
    "non-ascii": b"1,2,\xc3\xa9\n",
    "nul": b"1,2\x00,3\n",
}


@pytest.mark.parametrize("body", DECLINED.values(), ids=DECLINED.keys())
def test_parser_declines_other_text(compiled, both_readers, tmp_path, body):
    path = csv_file(tmp_path, body)
    for keep in ([0, 1, 2], [0]):
        assert parsed(path, keep) is None
    # loadtxt then reads the file, whatever it makes of it
    for columns in (None, ["v1"], []):
        fast, slow = both_readers(
            lambda: scenarios.read_trajectory_csv(str(path), columns))
        assert fast == slow


@pytest.mark.parametrize("text", [b"t,v1,k\r\n1,2,3\n", b"t,v1,\xc3\xa9\n1,2,3\n",
                                  b"t,v1,\xff\n1,2,3\n", b"t,v1,k"],
                         ids=["crlf", "utf-8", "not-utf-8", "header-only"])
def test_reader_declines_other_headers(compiled, both_readers, tmp_path, text):
    # the text-mode read takes a carriage return for a newline and decodes
    # by the locale: the compiled path leaves such a header to it
    path = tmp_path / "traj.csv"
    path.write_bytes(text)
    calls = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_compiled, "_parse_rows", lambda *args: calls.append(args))
        fast, slow = both_readers(
            lambda: scenarios.read_trajectory_csv(str(path)))
    assert calls == [] and fast == slow


# each value in every column, as the writer writes it or in its grammar
ACCEPTED = ["0", "-0", "1", "-17", "00012", "-00.000e-0", "0.5", "inf", "-inf",
            "nan", "1e+400", "-1e+400", "1e-400", "1.7976931348623157e+308",
            # half an ulp above the largest double, and half the smallest
            # subnormal: ties, to even
            "1.797693134862315807937289714053e+308",
            "2.4703282292062327208828439643e-324", "2.4703282292062328e-324",
            "4.9406564584124654e-324", "2.2250738585072011e-308",
            "9007199254740993", "0.1000000000000000055511151231257827021181583404541015625",
            "123456789012345678901234567890e-10", "1e+00000000000000000000001",
            "1e+99999999999999999999", "0e+99999999999999999999",
            "1e-99999999999999999999"]


def test_parser_matches_loadtxt(compiled, both_readers, tmp_path):
    body = "".join(f"{x},{x},{x}\n" for x in ACCEPTED).encode()
    path = csv_file(tmp_path, body)
    assert parsed(path, [0, 1, 2]) is not None
    fast, slow = both_readers(lambda: scenarios.read_trajectory_csv(str(path)))
    assert fast == slow


@pytest.mark.parametrize("form", ["%.17g", "%.16g", "%.15g", "%.3g", "%.20e",
                                  "%.40f", "%r"])
def test_parser_matches_loadtxt_on_random_doubles(compiled, both_readers,
                                                  tmp_path, form):
    values = np.concatenate((_bits(4_000), _bits(16_000, (969, 1081))))
    text = [form % x for x in values.tolist()]
    body = "".join(f"{a},{b}\n" for a, b in zip(text[::2], text[1::2]))
    path = csv_file(tmp_path, body.encode(), b"t,v1\n")
    assert parsed(path, [0, 1]) is not None
    fast, slow = both_readers(lambda: scenarios.read_trajectory_csv(str(path)))
    assert fast == slow


def _halfway(x):
    """The exact decimal halfway between the double x and the next one up."""
    mid = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
    with decimal.localcontext(decimal.Context(prec=1100)):
        return format(decimal.Decimal(mid.numerator) / mid.denominator, "e")


# a field as the writer writes it, or in its grammar as it never does: fewer
# digits, 18 to 20 digits, integers past 2^53 and exact halfway cases
FIELD = (ANY_DOUBLE.map(lambda x: "%.17g" % x)
         | st.tuples(st.integers(1, 16), ANY_DOUBLE).map(lambda t: "%.*g" % t)
         | st.tuples(st.integers(17, 19), ANY_DOUBLE).map(lambda t: "%.*e" % t)
         | st.integers(-10 ** 20, 10 ** 20).map(str)
         | st.sampled_from(["9007199254740993", "-9007199254740995",
                            "4.9406564584124654e-324"])
         | ANY_DOUBLE.filter(lambda x: 0.0 < x < math.inf).map(_halfway))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(fields=st.lists(FIELD, min_size=2, max_size=60).filter(
    lambda f: len(f) % 2 == 0))
def test_parser_matches_float(compiled, both_readers, tmp_path_factory,
                              fields):
    path = tmp_path_factory.mktemp("csv") / "traj.csv"
    body = "".join(f"{a},{b}\n" for a, b in zip(fields[::2], fields[1::2]))
    path.write_bytes(b"t,v1\n" + body.encode())
    assert parsed(path, [0, 1]) is not None
    fast, slow = both_readers(lambda: scenarios.read_trajectory_csv(str(path)))
    assert fast == slow
    expected = np.array([float(x) for x in fields]).reshape(-1, 2)
    assert [a for _, _, _, a in fast] \
        == [expected[:, 0].tobytes(), expected[:, 1].tobytes()]


COUNTED_STRTOD = """#include <stdlib.h>
long strtod_calls;
double counted_strtod(const char *s, char **end)
{
    strtod_calls++;
    return strtod(s, end);
}
"""


@pytest.fixture(scope="module")
def counting(compiled, tmp_path_factory):
    """The library built with every strtod call counted: (lib, count), where
    count() is the number of calls since the last count()."""
    cc = shlex.split(sysconfig.get_config_var("CC"))
    tmp = tmp_path_factory.mktemp("counted")
    (tmp / "count.c").write_text(COUNTED_STRTOD)
    subprocess.run([*cc, "-fPIC", "-c", str(tmp / "count.c"), "-o",
                    str(tmp / "count.o")], check=True)
    lib = build_loop(tmp, "-Dstrtod=counted_strtod", str(tmp / "count.o"))
    calls = ctypes.c_long.in_dll(lib, "strtod_calls")

    def count():
        n, calls.value = calls.value, 0
        return n

    return lib, count


def test_counting_library_counts(counting, tmp_path):
    lib, count = counting
    path = csv_file(tmp_path, b"0.1,1e-400,3\n12345678901234567890,2,1\n")
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_compiled, "_lib", lib)
        assert parsed(path, [0, 1, 2]).tolist() \
            == [[0.1, 0.0, 3.0], [12345678901234567890.0, 2.0, 1.0]]
    assert count() == 2


def stays_in_c(counting, paths):
    """The strtod calls and the values of reading the CSVs at paths back
    through the counting library."""
    lib, count = counting
    reads = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_compiled, "_lib", lib)
        for path in paths:
            reads.append(scenarios.read_trajectory_csv(str(path)))
    return count(), reads


def count_python_rows(monkeypatch):
    """The rows of the chunks that the compiled formatter declines from now
    on, which write_trajectory_csv writes in Python."""
    handed = []
    format_rows = _compiled.format_rows

    def counted(rows):
        text = format_rows(rows)
        if text is None:
            handed.extend(rows.tolist())
        return text

    monkeypatch.setattr(_compiled, "format_rows", counted)
    return handed


def test_benchmark_csvs_stay_in_c(compiled, counting, both_readers, tmp_path,
                                  monkeypatch):
    # the scenario-pipeline's three CSVs at seed 410: every row formatted in
    # C, every field converted without strtod, to loadtxt's bits
    from test_benchmark_contract import load_perfbench

    workload = load_perfbench("workloads").ScenarioPipeline(410, str(tmp_path))
    handed = count_python_rows(monkeypatch)
    paths = []
    for item in workload.items:
        if item.name in ("inertial", "manifold", "speedup"):
            code, stdout = item.run(None)
            assert code == 0
            paths += [line[6:] for line in stdout.splitlines()
                      if line.startswith("wrote ") and line.endswith(".csv")]
    assert len(paths) == 3 and handed == []
    calls, reads = stays_in_c(counting, paths)
    assert calls == 0
    for path, read in zip(paths, reads):
        fast, slow = both_readers(
            lambda: scenarios.read_trajectory_csv(str(path)))
        assert fast == slow
        assert [a.tobytes() for a in read.values()] == [a for *_, a in fast]


def test_shipped_speedup_csv_stays_in_c(compiled, counting, tmp_path,
                                        monkeypatch):
    # the shipped speedup run to t=2e4: 130,005 rows, thousands of them with
    # a residual_max below 1e-16
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                           "speedup.json")) as f:
        cfg = config.parse_config(f.read())
    traj = simulate(cfg.vehicle, cfg.derived, cfg.rotor, cfg.initial,
                    cfg.pose, cfg.integrator)
    tiny = traj.residual_max[traj.residual_max != 0.0]
    assert np.count_nonzero(tiny < 1e-16) > 1000
    handed = count_python_rows(monkeypatch)
    path = tmp_path / "speedup_trajectory.csv"
    scenarios.write_trajectory_csv(str(path), traj)
    assert handed == []
    calls, (read,) = stays_in_c(counting, [path])
    assert calls == 0
    assert read["residual_max"].tobytes() == traj.residual_max.tobytes()
    assert read["t"].tobytes() == traj.times.tobytes()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_reader_reads_a_pipe(compiled, both_readers, tmp_path):
    # a pipe can be read once: the compiled path leaves it to loadtxt
    # before reading a byte
    text = b"t,v1,k\n" + b"1,2,3\n" * 100
    path = csv_file(tmp_path, text[7:])

    def read_pipe():
        r, w = os.pipe()
        try:
            os.write(w, text)
            os.close(w)
            return scenarios.read_trajectory_csv(f"/dev/fd/{r}")
        finally:
            os.close(r)

    fast, slow = both_readers(read_pipe)
    assert fast == slow \
        == both_readers(lambda: scenarios.read_trajectory_csv(str(path)))[0]


LOCALE_SOURCE = """LC_NUMERIC
decimal_point "<U002C>"
thousands_sep ""
grouping -1
END LC_NUMERIC
"""


def test_parser_declines_a_comma_decimal_point(compiled, both_readers,
                                               tmp_path, monkeypatch):
    # strtod follows LC_NUMERIC: under a comma decimal point it ends 0.5 at
    # the '.' and takes 1,2 for one number, so its end misses the delimiter
    # and the file is declined; loadtxt ignores the locale
    localedef = shutil.which("localedef")
    if localedef is None:
        pytest.skip("no localedef")
    (tmp_path / "comma.src").write_text(LOCALE_SOURCE)
    subprocess.run([localedef, "-c", "-i", str(tmp_path / "comma.src"), "-f",
                    "UTF-8", str(tmp_path / "comma")], capture_output=True)
    monkeypatch.setenv("LOCPATH", str(tmp_path))
    before = locale.setlocale(locale.LC_NUMERIC)
    try:
        locale.setlocale(locale.LC_NUMERIC, "comma")
    except locale.Error:
        pytest.skip("no locale with a comma decimal point")
    try:
        for body in (b"0.5,1,2\n", b"1,2,3\n"):
            path = csv_file(tmp_path, body)
            assert parsed(path, [0, 1, 2]) is None
            fast, slow = both_readers(
                lambda: scenarios.read_trajectory_csv(str(path)))
            assert fast == slow and isinstance(fast, list)
    finally:
        locale.setlocale(locale.LC_NUMERIC, before)


def one_byte(data):
    """One byte of the CSV's own or of a neighbouring grammar."""
    return data.draw(st.sampled_from(list(b",\n\r# +.ex0123456789"))
                     | st.integers(128, 255))


@settings(max_examples=250, deadline=None, derandomize=True)
@given(n=st.integers(0, 12), rows=st.integers(1, 4), data=st.data(),
       edit=st.sampled_from(["none", "insert", "delete", "replace",
                             "drop-newline"]),
       block=st.sampled_from([64, 512, _compiled.READ_BLOCK]))
def test_parser_matches_loadtxt_on_edited_files(compiled, both_readers,
                                                tmp_path_factory, n, rows,
                                                data, edit, block):
    # the writer's output of any floats, one byte inserted, deleted or
    # replaced, or the last newline dropped: the same arrays or the same
    # error from both readers, with lines carried across blocks of READ_BLOCK
    # bytes and declined where one is longer
    table = data.draw(arrays(np.float64, (rows, n + 9), elements=st.floats()))
    t, v1, omega, *rest = table.T
    path = tmp_path_factory.mktemp("csv") / "traj.csv"
    scenarios.write_trajectory_csv(str(path), Trajectory(
        t, v1, omega, table[:, 3:n + 3], *rest[n:]))
    text = bytearray(path.read_bytes())
    at = data.draw(st.integers(0, len(text) - 1))
    if edit == "insert":
        text[at:at] = [one_byte(data)]
    elif edit == "delete":
        del text[at]
    elif edit == "replace":
        text[at] = one_byte(data)
    elif edit == "drop-newline":
        del text[-1]
    path.write_bytes(text)
    names = scenarios.csv_header(n).split(",")
    columns = data.draw(st.none()
                        | st.lists(st.sampled_from(names), unique=True))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_compiled, "READ_BLOCK", block)
        fast, slow = both_readers(
            lambda: scenarios.read_trajectory_csv(str(path), columns))
        if edit == "none":
            longest = max(map(len, text.splitlines(keepends=True)[1:]))
            keep = list(range(len(names)))
            assert (parsed(path, keep) is not None) \
                == (longest <= block)
    assert fast == slow


def test_fresh_fit_builds_nothing(compiled, tmp_path, capsys):
    # a read takes the parser only where the library is already loaded: a
    # fit in a fresh process starts no compiler and prints what a process
    # with the library prints
    t = np.linspace(0.5, 40.0, 400)
    zeros = np.zeros_like(t)
    path = tmp_path / "traj.csv"
    scenarios.write_trajectory_csv(str(path), Trajectory(
        t, 1.5 * t ** 0.4, np.sin(t), zeros[:, None], *[zeros] * 6))
    assert parsed(path, [0, 1]) is not None
    argv = ["fit", str(path), "--column", "v1", "--window", "1:30"]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out
    code = ("import subprocess\n"
            "from multilink import _compiled, cli\n"
            "def no_process(*args, **kwargs):\n"
            "    raise AssertionError(f'a process was started: {args}')\n"
            "subprocess.Popen = no_process\n"
            f"assert cli.main({argv!r}) == 0\n"
            "assert _compiled._lib is None\n")
    src = os.path.dirname(os.path.dirname(multilink.__file__))
    (tmp_path / "tmp").mkdir()
    env = {**os.environ, "PYTHONPATH": src, "TMPDIR": str(tmp_path / "tmp")}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected
    assert os.listdir(tmp_path / "tmp") == []


# --- the constraint residuals and sincos --------------------------------------------


def both_residuals(compiled, v1, omega, phi, psi, p):
    """The dtype, shape and bytes of residual_max_series with the library
    loaded, where it must take ml_residual_max, and with _compiled._lib
    False, where it takes numpy."""
    calls = []
    fast = compiled.ml_residual_max
    with pytest.MonkeyPatch.context() as m:
        m.setattr(compiled, "ml_residual_max",
                  lambda *args: calls.append(None) or fast(*args))
        m.setattr(_compiled, "_lib", compiled)
        loaded = residual_max_series(v1, omega, phi, psi, p)
        assert calls == [None]
        m.setattr(_compiled, "_lib", False)
        unloaded = residual_max_series(v1, omega, phi, psi, p)
    return [(r.dtype, r.shape, r.tobytes()) for r in (loaded, unloaded)]


def random_samples(rng, rows, n, angle):
    """v1, omega, phi and psi of rows samples: angles up to +-angle, speeds
    from 1e-3 to 1e6."""
    def speed():
        return rng.normal(size=rows) * 10.0 ** rng.uniform(-3.0, 6.0, rows)

    return (speed(), speed(), rng.uniform(-angle, angle, (rows, n)),
            rng.uniform(-angle, angle, rows))


@pytest.mark.parametrize("n", [*range(1, 13), 70])
def test_compiled_residuals_match_numpy(compiled, n):
    rng = np.random.default_rng([417, n])
    p = random_vehicle(rng, n)
    for angle in (math.pi, 1e3):
        fast, slow = both_residuals(compiled,
                                    *random_samples(rng, 100, n, angle), p)
        assert fast == slow


def test_compiled_residuals_take_numpy_shapes(compiled, reference_vehicle,
                                              reference_derived):
    p = reference_vehicle
    # columns of a solution, none of them contiguous
    sol = integrate(make_full_rhs(p, reference_derived, zero_rotor()),
                    [1.0, 0.5, 0.3, -0.4, 0.2, -0.1, 0.7],
                    IntegratorOptions(t_end=5.0))
    s = sol.states
    assert not s[:, 2:4].flags.c_contiguous
    fast, slow = both_residuals(compiled, s[:, 0], s[:, 1], s[:, 2:4],
                                s[:, 6], p)
    assert fast == slow and fast[1] == (len(sol.times),)
    # one sample as a vector of angles, or as a scalar for one link; one
    # v1, omega or psi broadcast over every sample
    one = np.array([0.8])
    rng = np.random.default_rng(418)
    v1, om, phi, psi = random_samples(rng, 20, 2, math.pi)
    single = random_vehicle(rng, 1)
    for args, vehicle in [((one, -one, phi[0], one), p),
                          ((one, one, 0.3, -one), single),
                          ((one, om, phi, psi), p), ((v1, one, phi, psi), p),
                          ((v1, om, phi, one), p), ((one, one, phi, one), p)]:
        fast, slow = both_residuals(compiled, *args, vehicle)
        assert fast == slow


def test_compiled_residuals_special_samples(compiled):
    rng = np.random.default_rng(419)
    p = random_vehicle(rng, 4)
    v1, om, phi, psi = random_samples(rng, 12, 4, math.pi)
    phi[1, 2] = math.nan  # the sleigh's residual is finite, link 3's NaN
    v1[2] = math.nan
    phi[3, 1] = math.inf
    phi[4, 3] = -math.inf
    psi[5] = math.inf
    om[6] = -math.inf
    v1[7] = 1e300
    for row, zero in ((8, 0.0), (9, -0.0)):
        v1[row] = om[row] = psi[row] = zero
        phi[row] = zero
    fast, slow = both_residuals(compiled, v1, om, phi, psi, p)
    assert fast == slow
    r = np.frombuffer(fast[2])
    assert np.all(np.isnan(r[1:7])) and np.all(r[8:10] == 0.0)
    assert np.all(np.isfinite(r[[0, 10, 11]]))
    empty = both_residuals(compiled, np.empty(0), np.empty(0),
                           np.empty((0, 4)), np.empty(0), p)
    assert empty[0] == empty[1] == (np.dtype(float), (0,), b"")


def test_residuals_normalize_their_inputs(compiled, reference_vehicle):
    # one v1 for 70,000 samples, more than one block of the numpy path, and
    # a phi whose N is not the vehicle's, on both paths
    p = reference_vehicle
    rng = np.random.default_rng(421)
    _, om, phi, psi = random_samples(rng, 70_000, 2, math.pi)
    fast, slow = both_residuals(compiled, np.array([0.8]), om, phi, psi, p)
    assert fast == slow and fast[1] == (70_000,)
    for lib in (compiled, False):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(_compiled, "_lib", lib)
            with pytest.raises(ValueError, match="N = 2"):
                residual_max_series(om[:5], om[:5], phi[:5, :1], psi[:5], p)
    # contiguous float64 columns and blocks reach the library uncopied, the
    # columns with strides 1 and N and no sin^2 output, a full-chart state
    # block with its row length as both strides
    args = []
    fast = compiled.ml_residual_max
    states = np.column_stack((om, om, phi, om, om, psi))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(compiled, "ml_residual_max",
                  lambda *a: args.append(a) or fast(*a))
        residual_max_series(om, om, phi, psi, p)
        _compiled.diagnostics(states, p.c)
    columns, block = args
    assert columns[2:8] == (*[x.ctypes.data for x in (om, om, phi, psi)], 1, 2)
    assert columns[11] is None
    base = states.ctypes.data
    assert block[2:8] == (base, base + 8, base + 16, base + 48, 7, 7)
    assert block[11] is not None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.integers(1, 12), rows=st.integers(0, 8),
       seed=st.integers(0, 2 ** 32 - 1), every=st.integers(1, 2),
       special=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 16),
                                  st.sampled_from([math.nan, math.inf,
                                                   -math.inf])), max_size=3))
def test_fused_diagnostics_match_numpy(compiled, n, rows, seed, every,
                                       special):
    # one compiled pass over a full-chart state block, contiguous or every
    # other row of a larger one, gives the residual maxima and sin(theta)^2
    # of the numpy code, and the Trajectory's energy that of energy_series
    rng = np.random.default_rng(seed)
    p = random_vehicle(rng, n)
    d = derive_params(p)
    v1, om, phi, psi = random_samples(rng, rows * every, n, math.pi)
    pose = rng.uniform(-1.0, 1.0, (rows * every, 2))
    block = np.column_stack((v1, om, phi, pose, psi))[::every]
    for row, col, x in special:
        if row < rows:
            block[row, col % (n + 5)] = x
    v1, om, phi, psi = block[:, 0], block[:, 1], block[:, 2:n + 2], block[:, -1]
    sol = Solution(np.arange(float(rows)), block, 0, 0, 0)
    with np.errstate(all="ignore"):  # sin(inf), inf - inf, inf * 0
        fused = trajectory_from_solution(sol, p, d, zero_rotor())
        residuals, sin2 = _compiled.diagnostics(block, p.c)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(_compiled, "_lib", False)
            plain = trajectory_from_solution(sol, p, d, zero_rotor())
            expected = residual_max_series(v1, om, phi, psi, p)
        energies = energy_series(v1, om, phi, p, d)
        squares = np.sin(theta_from_phi(phi)) ** 2
    assert sin2.shape == squares.shape and sin2.tobytes() == squares.tobytes()
    assert (residuals.tobytes() == expected.tobytes()
            == fused.residual_max.tobytes() == plain.residual_max.tobytes())
    assert (fused.energy.tobytes() == energies.tobytes()
            == plain.energy.tobytes())
    assert residuals.shape == fused.energy.shape == (rows,)


def test_address_matches_ctypes_data():
    # ctypes takes the address of a writable, C-contiguous, non-empty array;
    # every other one falls back to .ctypes.data
    a = np.arange(6.0)
    frozen = a.copy()
    frozen.flags.writeable = False
    for x in (a, a[2:], a.reshape(2, 3), np.empty(0), np.empty((0, 3)),
              frozen, a[::2], a.reshape(2, 3).T, a.reshape(2, 3)[:, :2]):
        assert _compiled._address(x) == x.ctypes.data


def test_sincos_matches_sin_and_cos():
    # _loop.c calls sincos where the Python code takes math.sin and math.cos
    # of one argument, so libm's sincos must give their bits
    path = ctypes.util.find_library("m")
    sincos = getattr(ctypes.CDLL(path), "sincos", None) if path else None
    if sincos is None:
        pytest.skip("no sincos in libm")
    sincos.argtypes = [ctypes.c_double, ctypes.POINTER(ctypes.c_double),
                       ctypes.POINTER(ctypes.c_double)]
    sincos.restype = None
    quarter_turns = [k * math.pi / 2 for k in
                     (*range(-64, 65), 10 ** 3, 10 ** 6, 10 ** 9, 10 ** 15)]
    xs = [*_bits(1 << 15).tolist(), *_bits(512, (0, 1)).tolist(),
          *[y for x in quarter_turns for y in
            (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))],
          0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
          2.2250738585072014e-308, 1e22, -1e22, 1.7976931348623157e308,
          -1.7976931348623157e308]
    xs = [x for x in xs if math.isfinite(x)]
    s, c = ctypes.c_double(), ctypes.c_double()
    got = []
    for x in xs:
        sincos(x, ctypes.byref(s), ctypes.byref(c))
        got.append((s.value, c.value))
    expected = [(math.sin(x), math.cos(x)) for x in xs]
    assert np.array(got).tobytes() == np.array(expected).tobytes()


def test_fresh_diagnostics_build_nothing(compiled, tmp_path):
    # residual_max_series takes the compiled residuals only where the
    # library is already loaded: in a fresh process it starts no compiler
    # and gives the loaded process's bits
    code = ("import subprocess\n"
            "import numpy as np\n"
            "from multilink import _compiled, dynamics\n"
            "from multilink.model import random_vehicle\n"
            "def no_process(*args, **kwargs):\n"
            "    raise AssertionError(f'a process was started: {args}')\n"
            "subprocess.Popen = no_process\n"
            "rng = np.random.default_rng(420)\n"
            "p = random_vehicle(rng, 3)\n"
            "v1, om, psi = rng.normal(size=(3, 40))\n"
            "phi = rng.uniform(-3.0, 3.0, (40, 3))\n"
            "r = dynamics.residual_max_series(v1, om, phi, psi, p)\n"
            "assert _compiled._lib is None\n"
            "print(r.tobytes().hex())\n")
    src = os.path.dirname(os.path.dirname(multilink.__file__))
    (tmp_path / "tmp").mkdir()
    env = {**os.environ, "PYTHONPATH": src, "TMPDIR": str(tmp_path / "tmp")}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rng = np.random.default_rng(420)
    p = random_vehicle(rng, 3)
    v1, om, psi = rng.normal(size=(3, 40))
    phi = rng.uniform(-3.0, 3.0, (40, 3))
    assert _compiled._lib is compiled
    expected = residual_max_series(v1, om, phi, psi, p)
    assert proc.stdout == expected.tobytes().hex() + "\n"
    assert os.listdir(tmp_path / "tmp") == []


# --- the power-law fit: window, per-period envelope, logs and line -----------

# times on a grid of quarters, where ties and bin edges are common, and
# values that tie in magnitude, with a few of the values a fit must decline
FIT_TIMES = st.sampled_from([k / 4.0 for k in range(-4, 49)]
                            + [math.nan, math.inf, -math.inf, -0.0])
FIT_VALUES = st.one_of(
    st.sampled_from([1.0, 2.0, -2.0, 0.5, 3.0, -3.0, 0.0, -0.0, 1.5, -1.5] * 3
                    + [math.nan, -math.nan, math.inf, -math.inf, 5e-324]),
    st.floats(-1e3, 1e3))
# a few values, where runs hold ties, signed zeros and more than one NaN
FEW_VALUES = st.sampled_from([2.0, -2.0, 0.0, -0.0, math.nan])


def laid_out(draw, times, values):
    """The lists times and values as float64 vectors: contiguous, columns
    of one block or reversed views."""
    layout = draw(st.sampled_from(["plain", "column", "reversed"]))
    if layout == "column":
        block = np.array([times, values, values]).T
        return block[:, 0], block[:, 2]
    if layout == "reversed":
        return (np.array(times[::-1])[::-1], np.array(values[::-1])[::-1])
    return np.array(times), np.array(values)


def fit_input(draw, n_max, n_min=0):
    """Times and values drawn to one length, mostly sorted, and window ends,
    mostly in order, that are often sample times."""
    n = draw(st.integers(n_min, n_max))
    times = draw(st.lists(FIT_TIMES, min_size=n, max_size=n))
    values = draw(st.lists(draw(st.sampled_from([FIT_VALUES, FEW_VALUES])),
                           min_size=n, max_size=n))
    if draw(st.integers(0, 2)):
        times.sort(key=lambda t: (math.isnan(t), t))
    ends = st.one_of(st.sampled_from([-math.inf, 0.25, 12.0, math.inf]),
                     FIT_TIMES, st.sampled_from(times or [1.0]))
    t_lo, t_hi = draw(ends), draw(ends)
    if draw(st.integers(0, 3)) and t_lo > t_hi:
        t_lo, t_hi = t_hi, t_lo
    return (*laid_out(draw, times, values), t_lo, t_hi)


# nonzero values that tie in magnitude, where a window's points are a fit's
TIED_VALUES = st.sampled_from([2.0, -2.0, 1.0, -1.0, 0.5, -0.5])


@st.composite
def pass_inputs(draw):
    """The draws of fit_input, 40 to 80 samples or any up to 80, or those
    with values that tie in magnitude and are all finite and nonzero (or,
    for a raw fit, all positive), whose windows a fit often takes; and a
    period or None."""
    times, values, t_lo, t_hi = fit_input(draw, 80,
                                          draw(st.sampled_from([40, 0])))
    fill = draw(st.sampled_from(["as drawn", "tied", "positive"]))
    if fill != "as drawn":
        # in place, which keeps the layout
        values[:] = draw(st.lists(TIED_VALUES, min_size=values.size,
                                  max_size=values.size))
        t_lo = draw(st.sampled_from([0.25, 1.0, 2.5, t_lo]))
        t_hi = draw(st.sampled_from([12.0, 9.5, t_hi]))
    if fill == "positive":
        values[:] = np.abs(values)
    return (times, values, t_lo, t_hi,
            draw(st.sampled_from([None, 0.25, 0.7, 1.0, 3.0, 1e6])))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(args=pass_inputs())
def test_fit_pass_matches_envelope_points(compiled, args):
    # the compiled fit is the Python line through the samples of the
    # window, or their per-period maxima as envelope_points gives them from
    # the masked samples, to the bit, with the window count; it declines
    # where the Python path raises
    times, values, t_lo, t_hi, period = args
    found = _compiled.fit(times, values, t_lo, t_hi, period)
    try:
        points = analysis._window_points(times, values, t_lo, t_hi, period)
        want = analysis._fit_line(*points, t_lo, t_hi)
    except ValueError:  # which a window into t <= 0 raises from math.log
        assert found is None
        return
    assert found is not None
    assert struct.pack("<3d", *found[:3]) == struct.pack("<3d", *want[:3])
    assert found[3:] == (want[3], np.count_nonzero((times >= t_lo)
                                                   & (times <= t_hi)))


def fit_outcome(run):
    """The four fields of a fit, as bits, or the type and text of its
    error."""
    try:
        fit = run()
    except Exception as e:
        return type(e), str(e)
    return (struct.pack("<3d", fit.exponent, fit.prefactor, fit.r_squared),
            fit.n_points, type(fit.n_points))


@st.composite
def fit_inputs(draw):
    """The arguments of fit_power_law: mostly a rotor-like power law from
    t = 0.25 to 12 with a few drawn values, whose fits pass every check
    but for those values, else the draws of fit_input."""
    times, values, t_lo, t_hi = fit_input(draw, 80)
    if draw(st.integers(0, 3)) < 3:
        n = draw(st.integers(25, 80))
        times = np.linspace(0.25, 12.0, n)
        values = (1.5 + np.cos(2.0 * math.pi * times)) \
            * times ** draw(st.sampled_from([-0.5, 1.0 / 3.0]))
        for i, x in draw(st.lists(st.tuples(st.integers(0, 79), FIT_VALUES),
                                  max_size=2)):
            values[i % n] = x
        times, values = laid_out(draw, times.tolist(), values.tolist())
        t_lo = draw(st.sampled_from([0.25, 1, 3.0, 0.25, 1, 3.0, 9.5, t_lo]))
        t_hi = draw(st.sampled_from([12.0, 12, 12.0, 12, 9.5, math.inf,
                                     t_hi]))
    mode = draw(st.sampled_from(["envelope", "raw"] * 4 + ["bogus"]))
    period = draw(st.sampled_from([1.0, 0.7, 3.0, 2] * 4 + [
        None, 1e6, 0.0, -1.0, math.nan, math.inf, 5e-324, 1e-308]))
    t_lo = draw(st.sampled_from([t_lo] * 9 + [0.0, -1.0, 2 ** 60]))
    t_hi = draw(st.sampled_from([t_hi] * 9 + [2 ** 60]))
    return times, values, (t_lo, t_hi), mode, period


def both_fits(times, values, window, mode, period):
    """The outcome of fit_power_law with the library loaded and with
    _compiled._lib False."""
    def run():
        return analysis.fit_power_law(times, values, window, mode=mode,
                                      period=period)

    loaded = fit_outcome(run)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_compiled, "_lib", False)
        return loaded, fit_outcome(run)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(args=fit_inputs())
def test_fit_power_law_compiled_matches_python(compiled, args):
    # with the library loaded and without it, every fit gives the same
    # fields to the bit, and every error the same type and message
    loaded, unloaded = both_fits(*args)
    assert loaded == unloaded


@pytest.mark.parametrize("window", [(1.5, 30.0), (1.0, 30.0)],
                         ids=["29-samples", "30-samples"])
@pytest.mark.parametrize("mode, period", [("raw", None), ("envelope", 0.5),
                                          ("envelope", 1e6),
                                          ("envelope", 1e-308),
                                          ("envelope", math.inf),
                                          ("envelope", math.nan),
                                          ("envelope", 0.0),
                                          ("envelope", -1.0)],
                         ids=["raw", "envelope", "one-bin", "t/period-inf",
                              "inf", "nan", "zero", "negative"])
def test_fit_window_edges_compiled_matches_python(compiled, window, mode,
                                                  period):
    # a period of 1e-308 leaves two bins, t / period finite and infinite,
    # which envelope_points declines by name, as it does the periods that
    # are not positive and finite
    t = np.arange(1.0, 31.0)
    loaded, unloaded = both_fits(t, t ** 0.5, window, mode, period)
    assert loaded == unloaded
    assert isinstance(loaded[0], bytes) == (window[0] == 1.0
                                            and period in (None, 0.5))


def test_fit_numpy_period_past_the_window_warns_nothing(compiled):
    # t_hi / period past the float range with a numpy period: the fit
    # declines the pass with no numpy overflow warning, and the Python path
    # bins every t of the window
    t = np.linspace(1.0, 50.0, 2001)
    v = 4.0 + np.cos(2 * math.pi * t) * t ** 0.3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded, unloaded = both_fits(t, v, (5.0, 1e308), "envelope",
                                     np.float64(1e-10))
    assert isinstance(loaded[0], bytes) and loaded == unloaded


@pytest.mark.parametrize("mode, period", [("raw", None), ("envelope", 1.0)])
def test_fit_power_law_takes_the_compiled_pass(compiled, mode, period):
    # a fit whose checks all pass is one call of ml_fit, and gives the bits
    # of the Python path
    t = np.linspace(1.0, 50.0, 2001)
    block = np.column_stack((t, 4.0 + np.cos(2 * math.pi * t) * t ** 0.3))
    calls = []
    fast = compiled.ml_fit
    with pytest.MonkeyPatch.context() as m:
        m.setattr(compiled, "ml_fit",
                  lambda *args: calls.append(None) or fast(*args))
        loaded = fit_outcome(lambda: analysis.fit_power_law(
            block[:, 0], block[:, 1], (5.0, 50.0), mode=mode, period=period))
        m.setattr(_compiled, "_lib", False)
        unloaded = fit_outcome(lambda: analysis.fit_power_law(
            block[:, 0], block[:, 1], (5.0, 50.0), mode=mode, period=period))
    assert calls == [None]
    assert isinstance(loaded[0], bytes) and loaded == unloaded


def test_fit_sums_left_to_right(compiled):
    # points whose sums differ by order: the fit's from left to right, as
    # the C sums, against math.fsum (what the builtin sum gives from Python
    # 3.12) and np.sum (pairwise), each of which moves the line's bits; the
    # Python path keeps the C's
    k = np.arange(40)
    t = 1.0 + 25.0 * k
    v = t ** 0.3 * (1.0 + 0.1 * np.sin(7.0 * k))
    loaded, unloaded = both_fits(t, v, (1.0, 1e3), "raw", None)
    assert isinstance(loaded[0], bytes) and loaded == unloaded
    for other in (math.fsum, np.sum):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(_compiled, "_lib", False)
            m.setattr(analysis, "_total", lambda a: float(other(a)))
            moved = fit_outcome(lambda: analysis.fit_power_law(
                t, v, (1.0, 1e3)))
        assert moved[0] != loaded[0]


@st.composite
def line_inputs(draw):
    """Times and values in [1e-300, 1e300], 2 to 80 of them: any, one time
    repeated, t = 1 throughout, or times a few ulps to 1e-12 apart; and at
    times one value that is 0, negative or NaN."""
    n = draw(st.integers(30, 80) | st.integers(2, 80))
    t = draw(arrays(np.float64, n, elements=st.floats(1e-300, 1e300)))
    v = draw(arrays(np.float64, n, elements=st.floats(1e-300, 1e300)))
    kind = draw(st.sampled_from(["any"] * 3 + ["one t", "t = 1", "near"]))
    if kind == "one t":
        t[:] = t[0]
    elif kind == "t = 1":
        t[:] = 1.0
    elif kind == "near":
        step = draw(st.sampled_from([1e-16, 1e-15, 1e-14, 1e-13, 1e-12]))
        k = draw(arrays(np.int64, n, elements=st.integers(-n * n, n * n)))
        t = t[0] * (1.0 + k * step)
    if draw(st.integers(0, 3)) == 3:
        v[draw(st.integers(0, n - 1))] = draw(st.sampled_from(
            [0.0, -0.0, -1.0, math.nan]))
    return t, v


@settings(max_examples=300, deadline=None, derandomize=True)
@given(args=line_inputs())
def test_fit_line_compiled_matches_python(compiled, args):
    # over every sample (a window from half the least time to inf), the
    # compiled fit and the Python path give the same bits, or the same
    # error: fewer than 30 samples, a value that is not positive or not
    # finite, or no spread in log t
    t, v = args
    loaded, unloaded = both_fits(t, v, (0.5 * float(np.min(t)), math.inf),
                                 "raw", None)
    assert loaded == unloaded


def logs_and_polyfit(t, v):
    """math.log of the points, and np.polyfit's line through them, or None
    where its rank is below 2; log t 0 throughout, where np.polyfit divides
    0 by 0, counts as rank 1."""
    x = np.array(list(map(math.log, t.tolist())))
    y = np.array(list(map(math.log, v.tolist())))
    if not np.any(x):
        return x, y, None
    (slope, intercept), _, rank, _, _ = np.polyfit(x, y, 1, full=True)
    return x, y, (slope, intercept) if rank == 2 else None


def python_line(t, v):
    """The Python fit's slope and intercept, or None where it finds no
    spread in log t."""
    try:
        return analysis._fit_line(t, v, 1.0, 2.0)[:2]
    except ValueError as e:
        assert "spans too little of log t" in str(e)
        return None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(args=line_inputs())
def test_fit_line_no_spread_is_polyfit_rank_1(args):
    # the fit declines a line for no spread in log t exactly where
    # np.polyfit's rank (at its rcond n eps) is below 2
    t, v = args
    if np.all(v > 0) and np.all(np.isfinite(v)):
        assert (python_line(t, v) is None) == (logs_and_polyfit(t, v)[2]
                                               is None)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(args=line_inputs())
def test_fit_line_agrees_with_polyfit(args):
    """The line agrees with np.polyfit's within the first-order bound for
    a relative backward error eta of each of the columns [x, 1, y].

    The least-squares solution theta = (s, b) of A theta ~ y, A = [x, 1],
    moves by (A^T A)^-1 [A^T (dy - dA theta) + dA^T r] under perturbations
    dA, dy, r the residual; with |dx| <= eta |x|, |d1| <= eta sqrt(n) and
    |dy| <= eta |y| (2-norms), Cauchy-Schwarz on the rows of A^+ and of
    (A^T A)^-1 (Sxx the centered sum of squares, m the mean of x) bounds

        |ds| <= eta (D / sqrt(Sxx) + sqrt(1 + m^2) |A| |r| / Sxx),
        |db| <= eta (sqrt(|x|^2 / (n Sxx)) D
                     + sqrt(m^2 + (|x|^2 / n)^2) |A| |r| / Sxx),

    D = |y| + |s| |x| + |b| sqrt(n), |A| = sqrt(|x|^2 + n).  The centered
    two-pass line is within eta = 2 n u of the exact one (u = 2^-53: the
    sums' rounding, and the means' rounding, which shifts every centered
    term by one constant that the exact centered sums cancel to first
    order); np.polyfit's column-scaled SVD solve is normwise backward
    stable with an error of that order.  So they agree within eta = 4 n u.
    """
    t, v = args
    if not (np.all(v > 0) and np.all(np.isfinite(v))):
        return
    x, y, want = logs_and_polyfit(t, v)
    got = python_line(t, v)
    if got is None or want is None:
        return
    n = t.size
    s, b = got
    m = float(np.mean(x))
    sxx = float(np.sum((x - m) ** 2))
    nx, ny = float(np.linalg.norm(x)), float(np.linalg.norm(y))
    nr = float(np.linalg.norm(y - (s * x + b)))
    d = ny + abs(s) * nx + abs(b) * math.sqrt(n)
    na = math.sqrt(nx * nx + n)
    eta = 4 * n * 2.0 ** -53
    assert abs(s - want[0]) <= eta * (d / math.sqrt(sxx) + math.sqrt(
        1 + m * m) * na * nr / sxx)
    assert abs(b - want[1]) <= eta * (math.sqrt(nx * nx / (n * sxx)) * d
                                      + math.sqrt(m * m + (nx * nx / n) ** 2)
                                      * na * nr / sxx)


def test_fresh_envelope_fit_builds_nothing(tmp_path):
    # only integrate builds the library: an envelope fit in a fresh process
    # takes the Python path and starts no compiler
    code = ("import subprocess\n"
            "import numpy as np\n"
            "from multilink import _compiled, analysis\n"
            "def no_process(*args, **kwargs):\n"
            "    raise AssertionError(f'a process was started: {args}')\n"
            "subprocess.Popen = no_process\n"
            "t = np.linspace(1.0, 9.0, 300)\n"
            "f = analysis.fit_power_law(t, 1.5 + np.cos(6.0 * t), (2.0, 9.0),\n"
            "                           mode='envelope', period=1.0)\n"
            "assert _compiled._lib is None\n"
            "print(f.exponent.hex(), f.prefactor.hex(), f.r_squared.hex())\n")
    src = os.path.dirname(os.path.dirname(multilink.__file__))
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    t = np.linspace(1.0, 9.0, 300)
    f = analysis.fit_power_law(t, 1.5 + np.cos(6.0 * t), (2.0, 9.0),
                               mode="envelope", period=1.0)
    assert proc.stdout.split() == [f.exponent.hex(), f.prefactor.hex(),
                                   f.r_squared.hex()]
