"""The compiled loop against the emitted Python steps.

integrate runs the vector fields of multilink.dynamics through the C loop of
multilink/_loop.c, built once per process, and every other right-hand side
through the emitted Python steps.  Both must give the same times, states and
counts to the last bit, and the same typed errors; without a compiler every
run takes the Python loop.  Setting ``integrator._loop`` to False forces the
Python loop.
"""

import importlib.resources
import math
import os
import shlex
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

import multilink
from multilink import _compiled, cli, integrator
from multilink.dynamics import make_full_rhs, make_manifold_rhs, make_reduced_rhs
from multilink.integrator import (
    DivergenceError,
    IntegratorOptions,
    StepUnderflowError,
    integrate,
)
from multilink.model import (
    DegenerateShapeError,
    DerivedParams,
    derive_params,
    random_vehicle,
    sine_rotor,
    zero_rotor,
)


# The one adaptive pair, the Dormand-Prince 8(5,3).  The runs below take it
# as a parameter so that their ids name the pair they step with.
one_pair = pytest.mark.parametrize("pair", ["adaptive-dop853"])


@pytest.fixture(scope="module")
def compiled():
    """The compiled loop; skipped where no compiler is installed, failing
    where one is and the loop does not build."""
    if not integrator._compiled_loop():
        cc = sysconfig.get_config_var("CC")
        if not cc or not any(os.access(os.path.join(d, shlex.split(cc)[0]), os.X_OK)
                             for d in os.environ.get("PATH", "").split(os.pathsep)):
            pytest.skip("no C compiler")
        pytest.fail(f"the compiled loop did not build with {cc}")
    return integrator._loop


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
    each ran."""
    calls = []
    loop = integrator._loop
    with pytest.MonkeyPatch.context() as m:
        m.setattr(integrator, "_loop",
                  lambda *args: calls.append(None) or loop(*args))
        fast = outcome(lambda: integrate(rhs, y0, opts, **kwargs))
        assert calls == [None]
        m.setattr(integrator, "_loop", False)
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
    monkeypatch.setattr(integrator, "_loop", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert outcome(lambda: integrate(rhs, y0, opts)) == expected
    assert integrator._loop is False


def test_c_source_is_package_data():
    source = importlib.resources.files("multilink") / "_loop.c"
    assert source.is_file()
    assert "int ml_run(" in source.read_text()


def test_import_and_fields_start_no_compiler(tmp_path):
    # a compiler run would leave its temporary directory until exit
    code = ("import multilink, sys\n"
            "from multilink import dynamics, integrator, model\n"
            "p = model.VehicleParams([1.0, 1.0], [1.0, 1.0], 0.5, [0.1], [1.0])\n"
            "d = model.derive_params(p)\n"
            "dynamics.make_full_rhs(p, d, model.sine_rotor(0.1))\n"
            "dynamics.make_reduced_rhs(p, d, model.zero_rotor())\n"
            "dynamics.make_manifold_rhs(p, 1)\n"
            "assert integrator._loop is None\n"
            "assert 'multilink._compiled' not in sys.modules\n")
    src = os.path.dirname(os.path.dirname(multilink.__file__))
    env = {**os.environ, "PYTHONPATH": src, "TMPDIR": str(tmp_path)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    assert os.listdir(tmp_path) == []


def test_build_directory_removed_at_exit(compiled, tmp_path):
    code = ("import os, tempfile\n"
            "from multilink import integrator\n"
            "assert integrator._compiled_loop()\n"
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
    code = ("from multilink import dynamics, integrator, model\n"
            "p = model.VehicleParams([1.0, 1.2, 1.2], [1.5, 2.0, 2.0], 0.7,\n"
            "                        [0.1, 0.2], [1.05, 1.10])\n"
            "rhs = dynamics.make_reduced_rhs(p, model.derive_params(p),\n"
            "                                model.sine_rotor(0.05))\n"
            "assert integrator._compiled_loop()\n"
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
