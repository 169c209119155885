import numpy as np
import pytest

from multilink import _compiled
from multilink.dynamics import make_reduced_rhs
from multilink.integrator import IntegratorOptions, integrate
from multilink.model import VehicleParams, derive_params, sine_rotor


@pytest.fixture(scope="session")
def reference_vehicle():
    """Three-link vehicle used throughout: the numerical-experiment
    parameter set (sleigh offset 0.7, two trailer platforms)."""
    return VehicleParams(masses=[1.0, 1.2, 1.2], inertias=[1.5, 2.0, 2.0],
                         a0=0.7, a=[0.1, 0.2], c=[1.05, 1.10])


@pytest.fixture(scope="session")
def reference_derived(reference_vehicle):
    return derive_params(reference_vehicle)


@pytest.fixture(scope="session")
def decoupled_vehicle():
    """The reference vehicle with trailer inertias I_i = m_i a_i (2 c_i - a_i),
    which make every coupling coefficient vanish and so decouple the
    velocity subsystem from the angles."""
    m = np.array([1.2, 1.2])
    a = np.array([0.1, 0.2])
    c = np.array([1.05, 1.10])
    return VehicleParams(masses=[1.0, *m],
                         inertias=[1.5, *(m * a * (2.0 * c - a))],
                         a0=0.7, a=a, c=c)


@pytest.fixture(scope="session")
def strong_rotor_run(reference_vehicle, reference_derived):
    """One accelerating trajectory deep in the asymptotic regime (strong
    rotor so the transients die well before the fit window).  Session-scoped:
    this costs ~25 s."""
    rotor = sine_rotor(2.0, 1.0)
    rhs = make_reduced_rhs(reference_vehicle, reference_derived, rotor)
    y0 = np.array([10.0, 1.0, 0.5, 0.5])
    # atol 1e-8: absolute floor well under the angle/omega envelopes, keeps
    # the error control from chasing their zero crossings; steps capped at
    # period / 13, 13 step samples per period, for per-period maxima of
    # step samples
    opts = IntegratorOptions(t_end=1e4, rtol=1e-8, atol=1e-8, hmax=1 / 13)
    sol = integrate(rhs, y0, opts)
    return {"rotor": rotor, "times": sol.times, "states": sol.states}


@pytest.fixture(scope="session")
def both_readers():
    """both(fn) -> (compiled, loadtxt): what fn gives with the compiled CSV
    parser loaded, where a compiler is, and with _compiled._lib False, where
    scenarios.read_trajectory_csv reads by numpy.loadtxt.  That is the
    type and message of fn's error, the name, dtype, shape and bytes of each
    array of a mapping fn returns, or else its value."""
    loaded = _compiled.load() or False

    def outcome(fn):
        try:
            value = fn()
        except Exception as e:
            return type(e), str(e)
        if isinstance(value, dict):
            return [(name, a.dtype, a.shape, a.tobytes())
                    for name, a in value.items()]
        return value

    def both(fn):
        results = []
        for lib in (loaded, False):
            with pytest.MonkeyPatch.context() as m:
                m.setattr(_compiled, "_lib", lib)
                results.append(outcome(fn))
        return tuple(results)

    return both
