"""The compiled loop against the emitted Python steps, the compiled
constraint residuals against numpy, the compiled CSV row formatter against
Python's "%.17g", and the compiled CSV row parser against numpy.loadtxt.

integrate runs the vector fields of multilink.dynamics through the C loop of
multilink/_loop.c, built once per process, and every other right-hand side
through the emitted Python steps.  Both must give the same times, states and
counts to the last bit, and the same typed errors; without a compiler every
run takes the Python loop.  Setting ``_compiled._lib`` to False forces the
Python loop, the numpy residuals, the Python rows of the trajectory CSV and
its numpy.loadtxt read.
"""

import ctypes
import ctypes.util
import importlib.resources
import io
import json
import locale
import math
import os
import shlex
import shutil
import signal
import subprocess
import sys
import sysconfig
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import multilink
from multilink import _compiled, cli, config, scenarios
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
       stride=st.integers(1, 3), landing=st.booleans(),
       hmax=st.sampled_from([math.inf, 0.05, 0.3]),
       t0=st.sampled_from([0.0, -1.5, 2.25]),
       chunk=st.sampled_from([3, _compiled.CHUNK]),
       budget=st.sampled_from([5, _compiled.STEPS_PER_CALL]))
def test_compiled_loop_matches_python_loop(compiled, n, seed, chart, sine,
                                           stride, landing, hmax, t0, chunk,
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
    t_end = t0 + 3.0
    opts = IntegratorOptions(t_end=t_end, rtol=1e-9, atol=1e-11,
                             hmax=hmax, h0=min(1e-3, hmax), sample_stride=stride)
    kwargs = {}
    if landing:
        # with the start or not, and the end or not
        k = 4 + seed % 9
        t_eval = np.sort(rng.uniform(t0, t_end, k))
        kwargs["t_eval"] = np.unique(np.concatenate(
            ([t0] * (seed % 2), t_eval, [t_end] * (seed % 3 == 0))))
    with pytest.MonkeyPatch.context() as m:
        # a short buffer and step budget make the loop resume from its state
        m.setattr(_compiled, "CHUNK", chunk)
        m.setattr(_compiled, "STEPS_PER_CALL", budget)
        fast, slow = both_loops(rhs, y0, opts, t0=t0, **kwargs)
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
    # landing steps shorter than the step floor 1e-14 * t_end: to t_end, and
    # between two output times; both loops used to underflow
    rhs = (make_full_rhs if chart == "full" else make_reduced_rhs)(
        reference_vehicle, reference_derived, sine_rotor(0.05, 1.0))
    y0 = [10.0, 1.0, 0.5, 0.5] + [0.1, 0.2, 0.3] * (chart == "full")
    opts = IntegratorOptions(t_end=1.0)
    fast, slow = both_loops(rhs, y0, opts, t0=1.0 - 1e-15)
    assert fast == slow and fast[2] == (2,)
    fast, slow = both_loops(rhs, y0, opts, t_eval=[0.5, 0.5 + 2e-15, 1.0])
    assert fast == slow and fast[2] == (3,)


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
    # to t = 1e7 with two output times: no sample fills the buffer, so only
    # the step budget of a call returns control to Python
    code = ("from multilink import _compiled, dynamics, integrator, model\n"
            "p = model.VehicleParams([1.0, 1.2, 1.2], [1.5, 2.0, 2.0], 0.7,\n"
            "                        [0.1, 0.2], [1.05, 1.10])\n"
            "rhs = dynamics.make_reduced_rhs(p, model.derive_params(p),\n"
            "                                model.sine_rotor(0.05))\n"
            "assert _compiled.load()\n"
            "print('running', flush=True)\n"
            "integrator.integrate(rhs, [10.0, 1.0, 0.5, 0.5],\n"
            "                     integrator.IntegratorOptions(t_end=1e7),\n"
            "                     t_eval=[0.0, 1e7])\n")
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


def compiled_text(table, chunk=1024):
    """The CSV rows of table through the compiled formatter, and the rows
    it left to the Python one."""
    handed = []

    def python_rows(rows):
        handed.extend(rows.tolist())
        return python_text(rows).encode()

    f = io.BytesIO()
    assert _compiled.write_rows(f, np.asarray(table, dtype=float), chunk,
                                python_rows)
    return f.getvalue().decode(), handed


def _bits(n, exponents=(0, 2048)):
    """Random bit patterns, their exponent field in the given range."""
    rng = np.random.default_rng([416, *exponents])
    bits = rng.integers(0, 2 ** 64, n, dtype=np.uint64, endpoint=False)
    field = rng.integers(*exponents, n).astype(np.uint64) << np.uint64(52)
    return (bits & ~np.uint64(0x7FF << 52) | field).view(float)


_POWERS = [float(f"1e{k}") for k in range(-20, 21)]

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
    "range-edges": [y for x in (1e-16, 1e17) for y in
                    (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))]
                   + [99999999999999984.0, 9.9999999999999998e-17],
}


@pytest.mark.parametrize("values", FORMAT_INPUTS.values(),
                         ids=FORMAT_INPUTS.keys())
def test_formatter_matches_python(compiled, values):
    table = np.reshape(values, (-1, 1))
    text, handed = compiled_text(table)
    assert text == python_text(table)
    # only finite nonzero values outside [10^-16, 10^17) are left to Python;
    # the double 1e-16 lies below 10^-16, the next one above it
    a = np.abs(table[:, 0])
    kept = ~np.isfinite(a) | (a == 0.0) | ((a > 1e-16) & (a < 1e17))
    assert len(handed) == np.count_nonzero(~kept)


def test_formatter_hands_rows_across_chunks(compiled):
    table = np.arange(30.0).reshape(10, 3) + 0.1
    table[[0, 4, 5, 9], [1, 0, 2, 2]] = [1e-300, -1e300, 5e-324, 1e17]
    text, handed = compiled_text(table, chunk=3)
    assert text == python_text(table)
    assert handed == table[[0, 4, 5, 9]].tolist()


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


@pytest.mark.parametrize("define", [[], ["-U__SIZEOF_INT128__"]],
                         ids=["int128", "no-int128"])
def test_c_source_compiles_without_warnings(define, tmp_path):
    # the one flag set must stay warning-free through the optimizer, whose
    # passes give some warnings; without 128-bit integers the loop and the
    # parser still build, and the writer takes the Python rows
    cc = sysconfig.get_config_var("CC")
    if not cc or not shutil.which(shlex.split(cc)[0]):
        pytest.skip("no C compiler")
    source = importlib.resources.files("multilink") / "_loop.c"
    with importlib.resources.as_file(source) as path:
        proc = subprocess.run(
            [*shlex.split(cc), *_compiled.FLAGS, "-Wall", "-Wextra", "-Werror",
             *define, str(path), "-o", str(tmp_path / "_loop.so"), "-lm"],
            capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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
