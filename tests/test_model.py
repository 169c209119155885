import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from multilink.model import (
    DegenerateShapeError,
    DerivedParams,
    InvalidParameterError,
    RotorProfile,
    VehicleParams,
    angle_coeffs,
    derive_params,
    phi_from_theta,
    random_vehicle,
    sine_rotor,
    theta_from_phi,
    zero_rotor,
)

# hand arithmetic from the reference mass geometry:
# mu_1 = (2 + 1.2*0.1*(0.1 - 2.1)) / 1.05^2 = 1.76/1.1025
# mu_2 = (2 + 1.2*0.2*(0.2 - 2.2)) / 1.10^2 = 1.52/1.21
MU_1 = 1.76 / 1.1025
MU_2 = 1.52 / 1.21


def test_derive_params_reference_values(reference_vehicle):
    d = derive_params(reference_vehicle)
    assert d.inertia == pytest.approx(1.99, abs=1e-12)
    assert d.mass == pytest.approx(3.4, abs=1e-12)
    assert d.static_moment == pytest.approx(0.7, abs=1e-15)
    assert d.coupling == pytest.approx([MU_1, MU_2], abs=1e-12)


def test_derive_params_single_platform():
    p = VehicleParams(masses=[1.0], inertias=[1.0], a0=0.0, a=[], c=[])
    d = derive_params(p)
    assert (d.inertia, d.mass, d.static_moment) == (1.0, 1.0, 0.0)
    assert d.coupling.size == 0


def test_zero_coupling_condition():
    # inertias m_i a_i (2 c_i - a_i) null the coupling exactly
    m = np.array([1.2, 0.7, 3.0])
    a = np.array([0.1, 0.9, 1.4])
    c = np.array([1.05, 1.3, 0.8])
    p = VehicleParams(masses=[1.0, *m], inertias=[1.5, *(m * a * (2.0 * c - a))],
                      a0=0.7, a=a, c=c)
    assert np.all(derive_params(p).coupling == 0.0)


@pytest.mark.parametrize("kwargs", [
    dict(masses=[1.0, -1.0], inertias=[1.0, 1.0], a0=0.1, a=[0.1], c=[1.0]),
    dict(masses=[1.0, 1.0], inertias=[1.0, 1.0], a0=0.1, a=[0.1], c=[0.0]),
    dict(masses=[1.0, 1.0], inertias=[1.0, -1.0], a0=0.1, a=[0.1], c=[1.0]),
    dict(masses=[1.0, 1.0], inertias=[1.0, 1.0], a0=-0.1, a=[0.1], c=[1.0]),
    dict(masses=[1.0, 1.0], inertias=[1.0], a0=0.1, a=[0.1], c=[1.0]),
    dict(masses=[1.0, 1.0, 1.0], inertias=[1.0, 1.0, 1.0], a0=0.1, a=[0.1], c=[1.0, 1.0]),
    dict(masses=[[1.0, 1.0]], inertias=[1.0, 1.0], a0=0.1, a=[0.1], c=[1.0]),
])
def test_invalid_params_rejected(kwargs):
    with pytest.raises(InvalidParameterError):
        VehicleParams(**{k: np.asarray(v, float) if isinstance(v, list) else v
                         for k, v in kwargs.items()})


@pytest.mark.parametrize("field", ["masses", "inertias", "a0", "a", "c"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_params_rejected(field, bad):
    kwargs = dict(masses=[1.0, 1.2], inertias=[1.5, 2.0], a0=0.7, a=[0.1],
                  c=[1.05])
    kwargs[field] = bad if field == "a0" else [*kwargs[field][:-1], bad]
    with pytest.raises(InvalidParameterError, match=f"^{field} must be finite"):
        VehicleParams(**kwargs)


@pytest.mark.parametrize("field", ["mass", "inertia", "static_moment",
                                   "coupling"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_derived_params_reject_non_finite(field, bad):
    kwargs = dict(mass=3.4, inertia=1.99, static_moment=0.7,
                  coupling=[1.6, 1.26])
    if field == "coupling":
        kwargs[field], field = [1.6, bad], r"coupling\[1\]"
    else:
        kwargs[field] = bad
    with pytest.raises(InvalidParameterError, match=f"^{field} must be finite"):
        DerivedParams(**kwargs)


def test_derived_params_reject_2d_coupling():
    with pytest.raises(InvalidParameterError,
                       match=r"^coupling must be 1-d, got shape \(1, 2\)"):
        DerivedParams(mass=1.0, inertia=1.0, static_moment=0.5,
                      coupling=[[0.5, 0.5]])


@pytest.mark.parametrize("field, bad, message", [
    ("mass", 0.0, "total mass and sleigh inertia must be positive"),
    ("inertia", -1.0, "total mass and sleigh inertia must be positive"),
    ("static_moment", -1.0, "static moment must be non-negative"),
])
def test_derived_params_reject_out_of_range(field, bad, message):
    kwargs = dict(mass=3.4, inertia=1.99, static_moment=0.7,
                  coupling=[1.6, 1.26])
    kwargs[field] = bad
    with pytest.raises(InvalidParameterError, match=f"^{message}$"):
        DerivedParams(**kwargs)


def test_trailer_array_shapes_reported():
    with pytest.raises(InvalidParameterError,
                       match=r"must be 1-d of length 2: got shapes a=2, c=1x2$"):
        VehicleParams(masses=[1.0, 1.2, 1.2], inertias=[1.5, 2.0, 2.0],
                      a0=0.7, a=[0.1, 0.2], c=[[1.05, 1.10]])


@pytest.mark.parametrize("args, field", [
    ((float("nan"),), "amplitude"),
    ((float("inf"),), "amplitude"),
    ((1.0, float("nan")), "period"),
    ((1.0, float("inf")), "period"),
])
def test_sine_rotor_rejects_non_finite(args, field):
    with pytest.raises(InvalidParameterError, match=rf"\b{field}\b"):
        sine_rotor(*args)


@pytest.mark.parametrize("args", [(1e308,), (0.05, 1e-308), (1e200,)])
def test_sine_rotor_rejects_overflowing_peak_rate(args):
    # (1e200,) has a finite peak rate whose square overflows mean_sq_rate
    with pytest.raises(InvalidParameterError,
                       match=r"amplitude .* period .* peak rate"):
        sine_rotor(*args)


def test_theta_map_examples():
    assert theta_from_phi([0.5, 0.5]) == pytest.approx([0.5, 0.5], abs=0)
    assert np.all(theta_from_phi(np.zeros(4)) == 0.0)
    # third row of the chain matrix is (2, -2, 1)
    assert theta_from_phi([1.0, 1.0, 1.0]) == pytest.approx([1.0, 1.0, 1.0], abs=0)


def chain_matrix(n: int) -> np.ndarray:
    """Integer matrix of the phi -> theta change, entry by entry from its
    definition (oracle for theta_from_phi)."""
    b = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        b[i, i] = (-1) ** i
        for j in range(i):
            b[i, j] = 2 * (-1) ** j
    return b


def test_chain_matrix_unimodular():
    for n in range(1, 13):
        # columns: the images of the unit vectors
        b = theta_from_phi(np.eye(n)).T
        assert np.all(b == chain_matrix(n))
        assert np.all(np.triu(b, 1) == 0)
        # triangular determinant: product of the +-1 diagonal
        det = int(np.prod(np.diag(b)))
        assert det in (1, -1)


def test_alternating_coefficient_identity():
    # (-1)^i + 2 sum_{j=1}^{i-1} (-1)^j = -1, the identity behind the
    # staggered-chart equations
    for i in range(1, 20):
        assert (-1) ** i + 2 * sum((-1) ** j for j in range(1, i)) == -1


def test_theta_matches_chain_matrix():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 5, 8):
        phi = rng.uniform(-math.pi, math.pi, n)
        assert theta_from_phi(phi) == pytest.approx(chain_matrix(n) @ phi,
                                                    abs=1e-13)


def test_phi_theta_round_trip():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        phi = rng.uniform(-math.pi, math.pi, n)
        back = phi_from_theta(theta_from_phi(phi))
        worst = max(worst, float(np.max(np.abs(back - phi))))
    assert worst < 1e-14


def test_inverse_example():
    assert phi_from_theta([0.5, 0.5]) == pytest.approx([0.5, 0.5], abs=0)
    assert np.all(phi_from_theta(np.zeros(3)) == 0.0)


def test_shape_coeffs_aligned(reference_vehicle, reference_derived):
    m_eff, quad_v, quad_cross = angle_coeffs(np.zeros(2), reference_derived,
                                             reference_vehicle.c)
    assert m_eff == pytest.approx(3.4, abs=1e-12)
    assert quad_v == 0.0 and quad_cross == 0.0


def test_shape_coeffs_quarter_turn(reference_vehicle, reference_derived):
    # theta = (pi/2, 0): only the sin^2 term of platform 1 survives
    m_eff, quad_v, quad_cross = angle_coeffs([math.pi / 2, 0.0],
                                             reference_derived,
                                             reference_vehicle.c)
    assert m_eff == pytest.approx(3.4 + MU_1, abs=1e-12)
    assert abs(quad_v) < 1e-15 and abs(quad_cross) < 1e-15


def test_shape_coeffs_diagonal(reference_vehicle, reference_derived):
    # theta = (pi/4, pi/4): sin(2 theta_i) = 1
    _, _, quad_cross = angle_coeffs([math.pi / 4, math.pi / 4],
                                    reference_derived, reference_vehicle.c)
    assert quad_cross == pytest.approx((MU_1 + MU_2) / 2, abs=1e-12)


def test_shape_lower_bound():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        p = random_vehicle(rng, n)
        d = derive_params(p)
        floor = d.mass - np.sum(np.maximum(0.0, -d.coupling))
        assert floor > 0.0
        for _ in range(500):
            theta = rng.uniform(-math.pi, math.pi, n)
            m_eff, _, _ = angle_coeffs(theta, d, p.c)
            assert m_eff >= floor - 1e-12


def test_zero_coupling_shape_identities(decoupled_vehicle):
    p = decoupled_vehicle
    d = derive_params(p)
    assert np.all(d.coupling == 0.0)
    rng = np.random.default_rng(3)
    theta = rng.uniform(-math.pi, math.pi, (10_000, 2))
    for row in theta:
        m_eff, quad_v, quad_cross = angle_coeffs(row, d, p.c)
        assert m_eff == d.mass
        assert quad_v == 0.0 and quad_cross == 0.0


def test_degenerate_shape_error():
    # couplings this negative cannot come from derive_params; the runtime
    # check still guards hand-built values
    d = DerivedParams(mass=2.0, inertia=1.0, static_moment=0.5,
                      coupling=np.array([-3.0]))
    with pytest.raises(DegenerateShapeError):
        angle_coeffs([math.pi / 2], d, np.array([1.0]))


def test_rotor_momentum_examples():
    r = sine_rotor(0.05, 1.0)
    assert r.momentum(0.25) == pytest.approx(0.05, abs=1e-15)
    assert r.rate(0.25) == pytest.approx(0.0, abs=1e-15)
    z = zero_rotor()
    for t in (0.0, 0.3, 17.2):
        assert (z.momentum(t), z.rate(t)) == (0.0, 0.0)


def test_rotor_periodicity():
    r = sine_rotor(0.05, 1.0)
    for t in (0.0, 0.13, 0.77):
        assert r.momentum(t + 1.0) == pytest.approx(r.momentum(t), abs=1e-15)


def test_rotor_mean_sq_rate_closed_form():
    # <kdot^2> of amplitude*sin(2 pi t): (amplitude*2 pi)^2 / 2
    r = sine_rotor(0.05, 1.0)
    assert r.mean_sq_rate() == pytest.approx((0.1 * math.pi) ** 2 / 2,
                                             rel=1e-13)


def test_rotor_rate_is_derivative():
    r = sine_rotor(0.37, 2.3)
    eps = 1e-6
    for t in np.linspace(0.0, 2.3, 17):
        fd = (r.momentum(t + eps) - r.momentum(t - eps)) / (2 * eps)
        assert fd == pytest.approx(r.rate(t), rel=1e-6, abs=1e-9)


def dense_max_abs_rate(rotor, samples=4096):
    """The largest |rate| over equally spaced samples of one period."""
    ts = np.linspace(0.0, rotor.period, samples, endpoint=False)
    return float(max(abs(rotor.rate(t)) for t in ts))


@given(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3))
@settings(max_examples=50, deadline=None)
def test_max_abs_rate_is_the_sampled_max(amplitude, period):
    rotor = sine_rotor(amplitude, period)
    assert rotor.max_abs_rate() == dense_max_abs_rate(rotor)


def test_max_abs_rate_needs_a_sine():
    # the zero rotor's period is infinite, so sample it over [0, 1)
    z = zero_rotor()
    ts = np.linspace(0.0, 1.0, 4096, endpoint=False)
    assert z.max_abs_rate() == max(abs(z.rate(t)) for t in ts) == 0.0


def float_bits(x: float) -> bytes:
    return np.float64(x).tobytes()


@given(amplitude=st.floats(-1e3, 1e3), period=st.floats(1e-3, 1e3),
       t=st.floats(-1e4, 1e4))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_rotor_value_matches_closures(amplitude, period, t):
    rotor = RotorProfile(amplitude, period)
    assert rotor == sine_rotor(amplitude, period)
    # the closures that RotorProfile held before it became a value
    freq = 2.0 * math.pi / period
    assert float_bits(rotor.momentum(t)) == float_bits(amplitude * math.sin(freq * t))
    assert float_bits(rotor.rate(t)) == float_bits(
        amplitude * freq * math.cos(freq * t))
    # the 64-node Gauss-Legendre period average it computed
    nodes, weights = np.polynomial.legendre.leggauss(64)
    half = 0.5 * period
    rates_sq = np.array([rotor.rate(s) ** 2 for s in half * (nodes + 1.0)])
    quadrature = float(np.dot(weights, rates_sq) * half / period)
    assert rotor.mean_sq_rate() == pytest.approx(quadrature, rel=1e-13)


@given(t=st.floats(0.0, allow_infinity=False))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_zero_rotor_is_exactly_zero(t):
    z = zero_rotor()
    assert float_bits(z.momentum(t)) == float_bits(z.rate(t)) == float_bits(0.0)
    assert z.max_abs_rate() == 0.0


def test_random_vehicle_admissible():
    rng = np.random.default_rng(0)
    for n in range(0, 5):
        p = random_vehicle(rng, n)
        assert p.n_links == n
        d = derive_params(p)
        assert d.mass > 0 and d.inertia > 0 and d.static_moment > 0


@pytest.mark.parametrize("n", [65, 100])
def test_phi_theta_round_trip_many_links(n):
    phi = np.random.default_rng(n).uniform(-math.pi, math.pi, n)
    theta = theta_from_phi(phi)
    assert theta == pytest.approx(chain_matrix(n) @ phi, abs=1e-12)
    assert phi_from_theta(theta) == pytest.approx(phi, abs=1e-12)


# --- properties of the two angle maps ------------------------------------------

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
# 1-d angle vectors or (samples, N) blocks, N = 0..12
ANGLE_BLOCKS = st.one_of(
    st.integers(0, 12).map(lambda n: (n,)),
    st.tuples(st.integers(1, 8), st.integers(0, 12)),
).flatmap(lambda shape: arrays(float, shape,
                               elements=st.floats(-math.pi, math.pi)))


@PROPERTY
@given(ANGLE_BLOCKS)
def test_phi_theta_round_trip_property(phi):
    theta = theta_from_phi(phi)
    assert theta.shape == phi.shape
    assert phi_from_theta(theta) == pytest.approx(phi, abs=1e-12)
    assert theta_from_phi(phi_from_theta(phi)) == pytest.approx(phi, abs=1e-12)


@PROPERTY
@given(ANGLE_BLOCKS)
def test_theta_block_rows_bit_equal(phi):
    block = np.atleast_2d(phi)
    theta, back = theta_from_phi(block), phi_from_theta(block)
    for k, row in enumerate(block):
        assert theta[k].tobytes() == theta_from_phi(row).tobytes()
        assert back[k].tobytes() == phi_from_theta(row).tobytes()
