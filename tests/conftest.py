import numpy as np
import pytest

from multilink.dynamics import make_reduced_rhs
from multilink.integrator import METHOD_RK45, IntegratorOptions, integrate
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
def strong_rotor_run(reference_vehicle, reference_derived):
    """One accelerating trajectory deep in the asymptotic regime (strong
    rotor so the transients die well before the fit window).  Session-scoped:
    this costs ~25 s."""
    rotor = sine_rotor(2.0, 1.0)
    rhs = make_reduced_rhs(reference_vehicle, reference_derived, rotor)
    y0 = np.array([10.0, 1.0, 0.5, 0.5])
    # atol 1e-8: absolute floor well under the angle/omega envelopes, keeps
    # the error control from chasing their zero crossings; the 5(4) pair, as
    # in the speedup scenario, for its per-period maxima of step samples
    opts = IntegratorOptions(t_end=1e4, method=METHOD_RK45, rtol=1e-8,
                             atol=1e-8, sample_stride=2)
    sol = integrate(rhs, y0, opts)
    return {"rotor": rotor, "times": sol.times, "states": sol.states}
