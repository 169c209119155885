"""Straight-line equilibria, their stability, and the rotor-driven speedup
asymptotics.

All straight-line motions of the fixed-energy angle system come in two
families (sleigh moving forward or backward) and 2^N trailer fold patterns
each; the linearization at any of them is lower triangular, so the spectrum
is read off the diagonal.  With a periodic rotor the vehicle speeds up
without bound by one period-averaged law, :class:`SpeedupLaw`: v1 grows
like (cube_rate * t)^(1/3) and the angular oscillations decay with known
envelopes, which :func:`fit_power_law` extracts from simulated
trajectories.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass

import numpy as np

from . import _compiled
from .integrator import integrate  # noqa: F401 (perfbench/tracing.py wraps it)
from .model import DerivedParams, RotorProfile, VehicleParams, phi_from_theta


class DegenerateSpectrumError(ValueError):
    """Raised when a zero eigenvalue makes node/saddle classification
    meaningless (balanced sleigh, static moment = 0)."""


class NoSpeedupError(ValueError):
    """Raised by :meth:`SpeedupLaw.of` where the speedup constant is
    undefined (a rotor with constant momentum or a balanced sleigh), or it
    or the law's coefficients leave the float range.  field names the input
    the error blames, "rotor.amplitude" or "vehicle.a0", and is None where
    the vehicle and the rotor are at fault together."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class PeriodError(ValueError):
    """Raised for the rotor period of an envelope reduction: missing, not
    positive and finite, so small that t / period overflows, or too long to
    leave two per-period maxima."""


class FixedPointKind(enum.Enum):
    STABLE_NODE = "stable_node"
    UNSTABLE_NODE = "unstable_node"
    SADDLE = "saddle"


@dataclass(frozen=True)
class FixedPoint:
    """One straight-line equilibrium of the angle system.

    v_sign is the sign of the longitudinal velocity (velocity_angle 0 or pi);
    theta_signs are the cosines (+-1) of the theta angles, i.e. whether
    each platform is aligned with or folded onto its predecessor.
    """

    v_sign: int
    theta_signs: np.ndarray
    velocity_angle: float
    theta: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        for name in ("theta_signs", "theta", "phi"):
            arr = np.atleast_1d(np.asarray(getattr(self, name)))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_links(self) -> int:
        return self.theta_signs.size

    def describe(self) -> str:
        d = "forward" if self.v_sign > 0 else "backward"
        angles = ", ".join("pi" if v else "0" for v in self.phi != 0.0)
        return f"{d}, phi=({angles})" if self.phi.size else d


@dataclass(frozen=True)
class FixedPointBlock:
    """The 2^(N+1) straight-line equilibria of N = n_links links, in the
    order of itertools.product((1, -1), repeat=N + 1) over (v_sign,
    theta_signs...): bit N - j of item i is set where column j's sign is -1.

    Sized (up to N = 62, past which len() overflows), indexable and
    iterable (by index, up to the IndexError past the last item): item i is
    the :class:`FixedPoint` that its index bits give, decoded on demand.
    """

    n_links: int

    def __len__(self) -> int:
        return 2 ** (self.n_links + 1)

    def __getitem__(self, i: int) -> FixedPoint:
        n = self.n_links
        i = range(2 ** (n + 1))[i]
        signs = np.array([1 - 2 * (i >> k & 1) for k in range(n, -1, -1)])
        theta = (1 - signs[1:]) // 2 * math.pi  # 0 or 1 units of pi
        return FixedPoint(int(signs[0]), signs[1:],
                          0.0 if signs[0] > 0 else math.pi, theta, theta)


@dataclass(frozen=True)
class Classification:
    """Node/saddle type and triangular spectrum of one equilibrium."""

    kind: FixedPointKind
    eigenvalues: np.ndarray


@dataclass(frozen=True)
class CensusTable:
    """The spectra of a :class:`FixedPointBlock` by columns.  The
    linearization is lower triangular, so eigenvalue 0 depends on the
    velocity sign alone and eigenvalue i on it and the sign of theta_i.

    velocity[v] is eigenvalue 0 at v_sign (1, -1)[v], and links[v, i] the
    pair of eigenvalue i + 1 there with theta_{i+1} aligned and folded.
    counts maps each kind, in :class:`FixedPointKind` order, to its number
    of points (a Python int): a point's kind follows from its column
    choices, so a count is a sum over v of products over the columns.
    """

    velocity: np.ndarray
    links: np.ndarray
    counts: dict[FixedPointKind, int]


def enumerate_fixed_points(n: int) -> FixedPointBlock:
    """All 2^(n+1) straight-line equilibria, angles reported in [0, 2pi),
    in the order of itertools.product((1, -1), repeat=n + 1) over
    (v_sign, theta_signs...).

    Every entry of the angles is exactly 0.0 or pi.  The relative angles
    equal the theta angles: theta = 2 cumsum(alt phi) - alt phi, so theta_i
    and phi_i agree modulo 2 in units of pi.
    """
    if n < 0:
        raise ValueError("link count must be >= 0")
    return FixedPointBlock(n)


def _check_links(fp: FixedPoint | FixedPointBlock, p: VehicleParams):
    if fp.n_links != p.n_links:
        raise ValueError(f"an equilibrium of N = {fp.n_links} links against "
                         f"a vehicle of N = {p.n_links}")


def linearization_matrix(fp: FixedPoint, p: VehicleParams,
                         d: DerivedParams) -> np.ndarray:
    """Jacobian of the fixed-energy angle system at a straight-line
    equilibrium, in the (velocity_angle, phi...) variables.

    Lower triangular by construction, so its eigenvalues are the diagonal.
    """
    _check_links(fp, p)
    n = p.n_links
    s0 = float(fp.v_sign)
    a = np.zeros((n + 1, n + 1))
    a[0, 0] = -(d.static_moment / d.inertia) * s0
    root = math.sqrt(d.mass / d.inertia)
    for i in range(1, n + 1):
        si = float(fp.theta_signs[i - 1])
        ci = p.c[i - 1]
        a[i, 0] = -root * s0
        a[i, i] = -(s0 / ci) * si
        for j in range(1, i):
            a[i, j] = (-1.0) ** (i + j + 1) * (2.0 * s0 / ci) * si
    return a


def classify_fixed_point(fp: FixedPoint | FixedPointBlock, p: VehicleParams,
                         d: DerivedParams) -> Classification | CensusTable:
    """Node/saddle type from the triangular spectrum: of one equilibrium a
    :class:`Classification`, of a whole block its :class:`CensusTable`.

    The forward-aligned point is the unique stable node, the
    backward-aligned one the unique unstable node; every other sign pattern
    mixes eigenvalue signs and is a saddle.
    """
    _check_links(fp, p)
    if d.static_moment == 0.0:
        raise DegenerateSpectrumError(
            "balanced sleigh (static moment 0) has a zero eigenvalue; "
            "node/saddle classification does not apply")
    if isinstance(fp, FixedPointBlock):
        s0 = np.array([1.0, -1.0])
        velocity = -(d.static_moment / d.inertia) * s0
        links = -(s0[:, None, None] / p.c[:, None]) * np.array([1, -1])

        def nodes(side):  # the points whose eigenvalues all have side's sign
            return sum(math.prod([side * e0 > 0] + [
                (side * a > 0) + (side * f > 0) for a, f in pairs])
                for e0, pairs in zip(velocity.tolist(), links.tolist()))

        stable, unstable = nodes(-1.0), nodes(1.0)
        return CensusTable(velocity, links, dict(zip(FixedPointKind, (
            stable, unstable, 2 ** (fp.n_links + 1) - stable - unstable))))
    s0 = float(fp.v_sign)
    eig = np.append(-(d.static_moment / d.inertia) * s0,
                    -(s0 / p.c) * fp.theta_signs)
    return Classification(list(FixedPointKind)[
        0 if (eig < 0).all() else 1 if (eig > 0).all() else 2], eig)


# --- the speedup law ------------------------------------------------------------


@dataclass(frozen=True)
class SpeedupLaw:
    """The period-averaged speedup law of a vehicle and a periodic rotor,
    built by :meth:`of`.

    With v1 frozen over a rotor period, J omega' = -b v1 omega - kdot
    responds with amplitude max|kdot| / sqrt((b v1)^2 + (J Omega)^2),
    Omega = 2 pi / period.  Putting its mean square into m v1' = b <omega^2>
    and integrating gives the monotone cubic

        b^2 v1^3 / 3 + (J Omega)^2 v1 = offset + drive * t,
        drive = b <kdot^2> / m,

    with offset fixed by one anchor point (t, v1) of a trajectory
    (:meth:`anchored`).  The theta angles of the trailers follow omega
    through the linearized lower-triangular system (i Omega + v1/c_i)
    Theta_i = -2 v1 sum_{j<i} Theta_j/c_j - W, W the complex omega
    amplitude; the relative angles follow by the exact integer phi <- theta
    map.

    The rotor rate, amplitude * Omega * cos(Omega t), is the one harmonic
    of amplitude max|kdot| at frequency Omega that the law takes.  While
    b v1 < J Omega (before crossover_time) the response is inertia-limited
    and v1 grows more slowly than t^(1/3).  As t -> inf every amplitude
    tends to its envelope, which needs no anchor: v1 grows as
    v1_coeff * t^(1/3), v1_coeff = cube_rate^(1/3) with
    cube_rate = 3 <kdot^2> / (b m); |omega| is enveloped by
    omega_coeff * t^(-1/3); the theta and relative angles by theta_coeffs
    and phi_coeffs times t^(-2/3).
    """

    static_moment: float
    inertia_frequency: float  # J * Omega
    frequency: float  # Omega
    drive: float
    mean_sq_rate: float
    max_rate: float
    c: np.ndarray
    cube_rate: float
    v1_coeff: float
    omega_coeff: float
    theta_coeffs: np.ndarray
    phi_coeffs: np.ndarray
    offset: float | None = None  # None until anchored

    V1_EXPONENT = 1.0 / 3.0
    OMEGA_EXPONENT = -1.0 / 3.0
    ANGLE_EXPONENT = -2.0 / 3.0

    @classmethod
    def of(cls, p: VehicleParams, d: DerivedParams,
           rotor: RotorProfile) -> SpeedupLaw:
        """The law of vehicle p (d = derive_params(p)) and rotor; a
        NoSpeedupError where there is none, or where its constant or
        coefficients leave the float range."""
        b, m = d.static_moment, d.mass
        msr = rotor.mean_sq_rate()
        if msr <= 0.0:
            raise NoSpeedupError("rotor momentum is constant: no speedup",
                                 "rotor.amplitude")
        if b == 0.0:
            raise NoSpeedupError("balanced sleigh (static moment 0): no "
                                 "speedup", "vehicle.a0")
        # b m can round to 0 or to inf, and so the constant to inf or to 0
        bm = b * m
        cube_rate = 3.0 * (msr / bm) if bm != 0.0 else math.inf
        if not 0.0 < cube_rate < math.inf:
            raise NoSpeedupError(
                f"the speedup constant 3 <rate^2> / (b m) is {cube_rate:g}: "
                f"<rate^2> = {msr:.6g}, static moment b = {b:.6g}, "
                f"mass m = {m:.6g}")
        kmax = rotor.max_abs_rate()
        v1_coeff = cube_rate ** (1.0 / 3.0)
        bv = b * v1_coeff  # which can round to 0 as well
        omega_coeff = kmax / bv if bv != 0.0 else math.inf
        chain = p.c + 2.0 * np.concatenate(([0.0], np.cumsum(p.c)[:-1]))
        # kmax / b can overflow where the coefficients would not: named below
        with np.errstate(over="ignore", invalid="ignore"):
            theta_coeffs = p.c * kmax / b * cube_rate ** (-2.0 / 3.0)
            phi_coeffs = chain * kmax / b * cube_rate ** (-2.0 / 3.0)
        if not (math.isfinite(omega_coeff) and np.all(np.isfinite(phi_coeffs))
                and np.all(np.isfinite(theta_coeffs))):
            raise NoSpeedupError(
                f"the speedup law's envelope coefficients overflow: max "
                f"|rate| = {kmax:.6g}, static moment b = {b:.6g}, speedup "
                f"constant {cube_rate:.6g}, largest link length c = "
                f"{np.max(p.c, initial=0.0):.6g}")
        return cls(b, d.inertia * rotor.freq, rotor.freq, b * msr / m, msr,
                   kmax, p.c, cube_rate, v1_coeff, omega_coeff, theta_coeffs,
                   phi_coeffs)

    def anchored(self, t: float, v1: float) -> SpeedupLaw:
        """The law through the sample (t, v1).

        Anchor on a simulated sample after the start-up transient of omega
        has decayed (a few multiples of J / (b v1)); anchoring at t = 0 puts
        that transient's energy into the offset.  A ValueError where v1 is
        not positive or the law's terms overflow at the anchor.
        """
        t, v1 = float(t), float(v1)  # whose powers raise OverflowError
        if not v1 > 0.0:
            raise ValueError(f"anchor speed must be positive, got {v1}")
        b = self.static_moment
        try:
            offset = b * b * v1 ** 3 / 3.0 \
                + self.inertia_frequency ** 2 * v1 - self.drive * t
        except OverflowError:
            raise ValueError(f"the law overflows at its anchor: v1 = "
                             f"{v1:.6g}, J Omega = "
                             f"{self.inertia_frequency:.6g}") from None
        return dataclasses.replace(self, offset=offset)

    def _offset(self) -> float:
        if self.offset is None:
            raise ValueError("the law has no anchor: see SpeedupLaw.anchored")
        return self.offset

    def v1_envelope(self, t):
        return self.v1_coeff * np.asarray(t) ** self.V1_EXPONENT

    def omega_envelope(self, t):
        return self.omega_coeff * np.asarray(t) ** self.OMEGA_EXPONENT

    def phi_envelope(self, i: int, t):
        return self.phi_coeffs[i] * np.asarray(t) ** self.ANGLE_EXPONENT

    @property
    def crossover_speed(self) -> float:
        """Speed at which b v1 = J Omega."""
        return self.inertia_frequency / self.static_moment

    @property
    def crossover_time(self) -> float:
        """Time at which the anchored law's v1 reaches crossover_speed; a
        ValueError where its cube overflows."""
        v = self.crossover_speed
        try:
            cube = v ** 3
        except OverflowError:
            raise ValueError(f"the crossover speed J Omega / b = {v:.6g} "
                             "overflows when cubed") from None
        lhs = self.static_moment ** 2 * cube / 3.0 \
            + self.inertia_frequency ** 2 * v
        return (lhs - self._offset()) / self.drive

    def v1(self, t) -> np.ndarray:
        """Root of the anchored cubic law, by Newton's method from above."""
        offset = self._offset()
        target = offset + self.drive * np.asarray(t, dtype=float)
        if np.any(target <= 0.0):
            raise ValueError("the law gives v1 <= 0 before t = "
                             f"{-offset / self.drive:.6g}")
        cube = self.static_moment ** 2 / 3.0
        lin = self.inertia_frequency ** 2
        # each term alone bounds the root from above; the cubic is convex
        # there, so Newton decreases monotonically onto the root
        v = np.minimum(np.cbrt(target / cube), target / lin)
        for _ in range(100):
            step = (cube * v ** 3 + lin * v - target) \
                / (3.0 * cube * v * v + lin)
            v = v - step
            if np.all(np.abs(step) <= 4.0 * np.finfo(float).eps * v):
                break
        return v

    def omega_amplitude(self, t) -> np.ndarray:
        return self.max_rate / np.hypot(self.static_moment * self.v1(t),
                                        self.inertia_frequency)

    def _theta_response(self, t) -> np.ndarray:
        """Complex theta-angle amplitudes, shape t.shape + (N,)."""
        v1 = self.v1(t)
        w = -self.max_rate / (self.static_moment * v1
                              + 1j * self.inertia_frequency)
        theta = np.empty(v1.shape + (self.c.size,), dtype=complex)
        acc = np.zeros_like(w)  # sum_{j<i} Theta_j / c_j
        for i, ci in enumerate(self.c):
            theta[..., i] = (-2.0 * v1 * acc - w) \
                / (1j * self.frequency + v1 / ci)
            acc = acc + theta[..., i] / ci
        return theta

    def theta_amplitudes(self, t) -> np.ndarray:
        """Theta-angle amplitudes, shape t.shape + (N,)."""
        return np.abs(self._theta_response(t))

    def phi_amplitudes(self, t) -> np.ndarray:
        """Relative-angle amplitudes, shape t.shape + (N,)."""
        # phi_from_theta is linear with integer coefficients: its images of
        # the unit vectors give the exact matrix of the back-substitution
        back = phi_from_theta(np.eye(self.c.size))
        return np.abs(self._theta_response(t) @ back)


# --- power-law fitting ---------------------------------------------------------


@dataclass(frozen=True)
class PowerLawFit:
    exponent: float
    prefactor: float
    r_squared: float
    n_points: int


def _check_period(period):
    if not (period > 0.0 and math.isfinite(period)):
        raise PeriodError(f"period must be positive and finite, got {period!r}")


def _samples(times, values):
    """times and values as float arrays, which must be 1-d and of one
    length (a ValueError naming both shapes)."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.ndim != 1 or times.shape != values.shape:
        raise ValueError(f"times and values must be 1-d and of one length, "
                         f"got shapes {times.shape} and {values.shape}")
    return times, values


def envelope_points(times, values, period: float):
    """Per-period maxima of |values|: one (time-of-max, max) pair per full
    rotor period covered by the samples.

    Each run of consecutive samples in the same period bin gives one pair;
    within a run the first maximum wins (the first NaN, if any), as with
    np.argmax.  The period must be positive and finite, and large enough
    that t / period is finite for every finite t (PeriodError); times and
    values must be 1-d and of one length.
    """
    _check_period(period)
    times, values = _samples(times, values)
    latest = float(np.max(np.abs(times), where=np.isfinite(times), initial=0.0))
    if latest / period == math.inf:
        raise PeriodError(f"period {period!r} is too small: t / period "
                          f"overflows at |t| = {latest!r}")
    mags = np.abs(values)
    bins = np.floor(times / period)  # as floats: int64 wraps past 2**63
    new_bin = np.empty(bins.size, dtype=bool)
    new_bin[:1] = True
    np.not_equal(bins[1:], bins[:-1], out=new_bin[1:])
    starts = np.flatnonzero(new_bin)
    peaks = np.maximum.reduceat(mags, starts)
    run = np.cumsum(new_bin) - 1  # run index of every sample
    hits = np.flatnonzero((mags == peaks[run]) | np.isnan(mags))
    first = hits[np.flatnonzero(np.diff(run[hits], prepend=-1))]
    return times[first], mags[first]


def fit_power_law(times, values, window, mode: str = "raw",
                  period: float | None = None) -> PowerLawFit:
    """Least-squares fit of log|value| against log t over a time window.

    mode "raw" fits the samples as-is and requires them positive; mode
    "envelope" first reduces to per-period maxima of |value|, which needs a
    positive and finite period that leaves at least 2 of them (PeriodError
    otherwise).  The window needs 0 < t_lo < t_hi, checked with the mode and
    the period before any sample is counted, and at least 30 samples of the
    1-d times and values, which have one length; the points must be finite
    and spread in log t.  One compiled call
    (:func:`multilink._compiled.fit`) does the fit, or declines it where a
    check would fail; then, or without the library, numpy selects the
    points and :func:`_fit_line` fits them, to the same bits.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    t_lo, t_hi = window
    if mode not in ("raw", "envelope"):
        raise ValueError(f"unknown fit mode {mode!r}")
    if not 0.0 < t_lo < t_hi:
        raise ValueError(f"fit window [{t_lo}, {t_hi}] must have "
                         f"0 < t_lo < t_hi")
    if mode == "raw":
        period = None
    elif period is None:
        raise PeriodError("envelope mode needs the rotor period")
    else:
        _check_period(period)
    found = _compiled.fit(times, values, t_lo, t_hi, period)
    if found is None:
        found = _fit_line(*_window_points(times, values, t_lo, t_hi, period),
                          t_lo, t_hi)
    slope, intercept, r2, n_points = found[:4]
    try:
        prefactor = math.exp(intercept)
    except OverflowError:
        raise ValueError(
            f"power-law prefactor exp({intercept:.6g}) overflows: window "
            f"[{t_lo}, {t_hi}] is too narrow in log t for a fit") from None
    return PowerLawFit(slope, prefactor, r2, n_points)


def _window_points(times, values, t_lo, t_hi, period):
    """The points of :func:`fit_power_law` by numpy, with its checks: the
    samples in the window, or with a period their per-period maxima."""
    times, values = _samples(times, values)
    mask = (times >= t_lo) & (times <= t_hi)
    kept = np.count_nonzero(mask)
    if kept < 30:
        raise ValueError(
            f"need at least 30 samples in window [{t_lo}, {t_hi}], "
            f"got {kept}")
    t, v = times[mask], values[mask]
    if period is not None:
        t, v = envelope_points(t, v, period)
        if t.size < 2:
            raise PeriodError(
                f"period {period!r} leaves {t.size} per-period maximum in "
                f"window [{t_lo}, {t_hi}]; an envelope fit needs at least 2")
    if np.any(v <= 0):
        raise ValueError("power-law fit needs positive values "
                         "(zero or negative sample in window)")
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(t))):
        raise ValueError("power-law fit needs finite times and values "
                         "(NaN or infinite sample in window)")
    return t, v


def _total(a) -> float:
    """The sum of a from left to right, as ml_fit sums: np.sum sums
    pairwise, and the builtin sum is compensated from Python 3.12."""
    return float(np.cumsum(a)[-1])


def _fit_line(t, v, t_lo, t_hi):
    """The slope, intercept and r^2 of log v against log t, and the number
    of points, for the positive and finite points (t, v) of the window [t_lo,
    t_hi]: centered two-pass sums about means shifted by the first point, by
    ml_fit's operations in its order.  The window spans too little of log t
    where sqrt(Sxx) <= 2 n eps sqrt(sum x^2), np.polyfit's rank < 2 at rcond
    n eps (README, Numerical notes)."""
    n = t.size
    x = np.fromiter(map(math.log, t.tolist()), float, n)
    y = np.fromiter(map(math.log, v.tolist()), float, n)
    x0, y0 = float(x[0]), float(y[0])
    mx, my = x0 + _total(x - x0) / n, y0 + _total(y - y0) / n
    dx, dy = x - mx, y - my
    sxx = _total(dx * dx)
    if not math.sqrt(sxx) > 2.0 * n * math.ulp(1.0) * math.sqrt(_total(x * x)):
        raise ValueError(f"window [{t_lo}, {t_hi}] spans too little of log t "
                         f"for a fit")
    slope = _total(dx * dy) / sxx
    syy = _total(dy * dy)
    res = dy - slope * dx
    r2 = 1.0 if syy == 0.0 else 1.0 - _total(res * res) / syy
    return slope, my - slope * mx, r2, n


def wrap_angles(x) -> np.ndarray:
    """Wrap angles to (-pi, pi]."""
    x = np.asarray(x, dtype=float)
    return np.pi - np.mod(np.pi - x, 2.0 * np.pi)
