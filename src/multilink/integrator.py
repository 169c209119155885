"""Time stepping: adaptive Dormand-Prince 8(5,3) and 5(4), fixed-step RK4.

One driver loop serves the three methods.  Each method is a step function
that advances the state by one step of a given size and returns an error
norm; the driver owns everything else: landing on output times, sample
emission, the step-size controller and the typed errors.  The adaptive
pairs control the local error per step against atol + rtol * |y| (max-norm
scale) and land exactly on requested output times by clamping the step, so
emitted samples need no interpolation and runs are bit-reproducible.

The default is the 8(5,3) pair (``adaptive-dop853``): at the tight
tolerances of the energy and constraint checks it takes far fewer steps
than the 5(4) pair (``adaptive-rk45``).  Its long steps also mean fewer
samples: a few per rotor period at rtol = atol = 1e-8, too few for
envelope fits that take per-period maxima of the samples, which is why
the speedup scenario defaults to the 5(4) pair (see :mod:`multilink.config`).

Right-hand-side contract: ``rhs(t, y)`` receives the state as a list of
floats, which it must not modify, and returns a sequence of floats of the
same length.  The steppers hold the state and the stages as plain float
lists: for the few components of this model, numpy's per-operation overhead
on small arrays costs more than the arithmetic.  A list returned by the
right-hand side is used as it is; anything else (an ndarray, a tuple) is
converted with ``np.asarray(..., dtype=float).tolist()`` on every call.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

METHOD_DOP853 = "adaptive-dop853"
METHOD_RK45 = "adaptive-rk45"
METHOD_RK4 = "fixed-rk4"
METHODS = (METHOD_DOP853, METHOD_RK45, METHOD_RK4)

# Dormand-Prince 5(4) tableau (Hairer, Norsett & Wanner, Solving ODEs I,
# section II.5) as float constants: _Aij is row i, column j of the stage
# matrix, _Bj the 5th-order propagation weights, _Ej the weights of the
# embedded 4th-order difference used for error control.  Stage 7 is
# evaluated at the new point, so it is the first stage of the next step
# (FSAL); rows 6 and 7 share the abscissa 1.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247,
                                49 / 176, -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E2, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, 0.0, -71 / 16695, 71 / 1920,
                                      -17253 / 339200, 22 / 525, -1 / 40)

# Dormand-Prince 8(5,3) tableau (Hairer, Norsett & Wanner, Solving ODEs I,
# section II.10), to the last bit the values scipy's DOP853 uses.  Index i
# holds stage i + 1: _DOP853_C the abscissae, _DOP853_A the rows of the stage
# matrix, _DOP853_B the 8th-order propagation weights over stages 1-12, and
# _DOP853_E5/_DOP853_E3 the weights of the 5th- and 3rd-order error
# estimates over stages 1-12 and stage 13, the derivative at the new point,
# which is the first stage of the next step (FSAL).  Stages 12 and 13 share
# the abscissa 1.
_DOP853_C = (
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0)
_DOP853_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386,
     0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636))
_DOP853_B = (
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, 0.3111643669578199,
    -0.1521609496625161, 0.20136540080403034, 0.04471061572777259)
_DOP853_E5 = (
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0)
_DOP853_E3 = (
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, -0.4226823213237919,
    -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0)
# the step function spells out the non-zero entries: _Di_j is row i, column
# j of the stage matrix; _Dcj, _Dbj, _D5ej and _D3ej the abscissa, the
# propagation weight and the two error weights of stage j
(_, _Dc2, _Dc3, _Dc4, _Dc5, _Dc6, _Dc7, _Dc8, _Dc9, _Dc10, _Dc11, _,
 _) = _DOP853_C
(_, (_D2_1,), (_D3_1, _D3_2), (_D4_1, _, _D4_3), (_D5_1, _, _D5_3, _D5_4),
 (_D6_1, _, _, _D6_4, _D6_5), (_D7_1, _, _, _D7_4, _D7_5, _D7_6),
 (_D8_1, _, _, _D8_4, _D8_5, _D8_6, _D8_7),
 (_D9_1, _, _, _D9_4, _D9_5, _D9_6, _D9_7, _D9_8),
 (_D10_1, _, _, _D10_4, _D10_5, _D10_6, _D10_7, _D10_8, _D10_9),
 (_D11_1, _, _, _D11_4, _D11_5, _D11_6, _D11_7, _D11_8, _D11_9, _D11_10),
 (_D12_1, _, _, _D12_4, _D12_5, _D12_6, _D12_7, _D12_8, _D12_9, _D12_10,
  _D12_11)) = _DOP853_A
(_Db1, _, _, _, _, _Db6, _Db7, _Db8, _Db9, _Db10, _Db11, _Db12) = _DOP853_B
(_D5e1, _, _, _, _, _D5e6, _D5e7, _D5e8, _D5e9, _D5e10, _D5e11, _D5e12,
 _) = _DOP853_E5
(_D3e1, _, _, _, _, _D3e6, _D3e7, _D3e8, _D3e9, _D3e10, _D3e11, _D3e12,
 _) = _DOP853_E3
del _

_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_SAFETY = 0.9


class IntegrationError(RuntimeError):
    """Base class for integration failures; carries the failure time."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


class StepUnderflowError(IntegrationError):
    """Step size collapsed below the resolvable scale (stiffness or a
    singularity)."""


class DivergenceError(IntegrationError):
    """The right-hand side or the state stopped being finite."""


@dataclass(frozen=True)
class IntegratorOptions:
    """Stepper configuration.

    t_end is the integration horizon (integration starts at t0 passed to
    :func:`integrate`, 0 by default).  method is one of METHODS.
    sample_stride decimates the emitted samples: every k-th accepted step is
    recorded (first and last always are).  h0 is the fixed step of the RK4
    method and the initial trial step of the adaptive pairs, whose steps
    never exceed hmax.
    """

    t_end: float
    method: str = METHOD_DOP853
    rtol: float = 1e-10
    atol: float = 1e-12
    h0: float = 1e-3
    hmax: float = np.inf
    sample_stride: int = 1

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; "
                             f"use one of {list(METHODS)}")
        # a NaN would pass a failing comparison: a NaN t_end ends the run
        # after 0 steps, a NaN h0 is rejected and shrunk forever
        for name in ("t_end", "rtol", "atol", "h0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("rtol and atol must be positive")
        if not 0 < self.h0 <= self.hmax:  # also rejects hmax = NaN
            raise ValueError(f"need 0 < h0 <= hmax, got {self.h0} and {self.hmax}")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")


@dataclass(frozen=True)
class Solution:
    """Emitted samples of one integration run."""

    times: np.ndarray
    states: np.ndarray
    n_accepted: int
    n_rejected: int
    n_evals: int


class _Buffer:
    """Append-only sample store: flat float64 arrays, one row per sample."""

    def __init__(self, dim: int):
        self._t = array("d")
        self._y = array("d")
        self._dim = dim

    def append(self, t: float, y):
        self._t.append(t)
        self._y.extend(y)

    @property
    def last_time(self) -> float:
        return self._t[-1]

    def arrays(self):
        times = np.array(self._t)
        return times, np.array(self._y).reshape(times.size, self._dim)


def _listed(rhs):
    """Wrap a right-hand side whose values are not lists."""
    def f(t, y):
        return np.asarray(rhs(t, y), dtype=float).tolist()

    return f


def _prepare(rhs, y0, opts, t0, t_eval):
    """Validate the inputs; return the list-valued right-hand side, the
    initial state as a list, the output times still ahead as a list (or
    None), the derivative at t0 and the sample buffer holding the first
    sample."""
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)
        if t_eval.ndim != 1 or t_eval.size == 0:
            raise ValueError("t_eval must be a non-empty 1-d array")
        if np.any(np.diff(t_eval) <= 0):
            raise ValueError("t_eval must be strictly increasing")
        if t_eval[0] < t0 or t_eval[-1] > opts.t_end:
            raise ValueError("t_eval must lie within [t0, t_end]")
        t_eval = t_eval.tolist()
    y = y0.tolist()
    f0 = rhs(t0, y)
    if not isinstance(f0, list):
        rhs = _listed(rhs)
        f0 = np.asarray(f0, dtype=float).tolist()
    if not isinstance(f0, list) or len(f0) != len(y):
        raise ValueError(f"right-hand side must return {len(y)} values, "
                         f"one per state component")
    if not all(map(math.isfinite, f0)):
        raise DivergenceError(f"right-hand side not finite at t={t0}", t0)
    buf = _Buffer(len(y))
    if t_eval is None:
        buf.append(t0, y)
    elif t_eval[0] == t0:
        buf.append(t0, y)
        t_eval = t_eval[1:]
    return rhs, y, t_eval, f0, buf


def integrate(rhs, y0, opts: IntegratorOptions, t0: float = 0.0,
              t_eval=None) -> Solution:
    """Integrate dy/dt = rhs(t, y) from t0 to opts.t_end.

    rhs follows the contract in the module docstring.  If t_eval is given,
    exactly those times are emitted (the stepper lands on them); otherwise
    the accepted-step grid decimated by opts.sample_stride is emitted,
    always including the first and last points.
    """
    step, evals, exponent = _STEPPERS[opts.method]
    fixed = exponent is None
    rhs, y, targets, f, buf = _prepare(rhs, y0, opts, t0, t_eval)
    t_end, hmax = opts.t_end, opts.hmax
    rtol, atol = opts.rtol, opts.atol
    stride = opts.sample_stride
    # a fixed step is never shrunk, and reaches a target only by shortening
    h_floor = 0.0 if fixed else 1e-14 * abs(t_end)
    reach = 1.0 if fixed else 0.9
    n_targets = 0 if targets is None else len(targets)
    next_target = 0

    t = t0
    h_prop = min(opts.h0, hmax, t_end - t0)
    n_acc = n_rej = 0
    # the derivative at t0 is the first stage of an adaptive pair's first
    # step; the fixed step evaluates its own
    n_evals = 0 if fixed else 1

    while t < t_end:
        target = targets[next_target] if next_target < n_targets else t_end
        gap = target - t
        h = min(h_prop, hmax)
        if gap <= h / reach and gap <= hmax:
            # stretch/truncate to land exactly; avoids creeping up to the
            # target in vanishing increments
            h = gap
        clamped = h < h_prop
        if h < h_floor:
            raise StepUnderflowError(
                f"step size {h:.3e} underflowed at t={t!r} "
                f"(tolerances unreachable here)", t)

        y_new, f_new, err = step(rhs, t, h, y, f, atol, rtol)
        n_evals += evals

        if not math.isfinite(err):
            n_rej += 1
            h_prop = h * 0.25
            if fixed or h_prop < h_floor:
                raise DivergenceError(
                    f"right-hand side or state not finite near t={t!r}", t)
            continue
        if err > 1.0:
            n_rej += 1
            h_prop = h * max(_MIN_FACTOR, _SAFETY * err ** exponent)
            continue

        n_acc += 1
        t = target if h == gap else t + h
        y = y_new
        f = f_new

        if not fixed:
            factor = _MAX_FACTOR if err == 0.0 else \
                min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** exponent))
            h_prop = max(h_prop, h * factor) if clamped else h * factor

        if targets is not None:
            if next_target < n_targets and t == targets[next_target]:
                buf.append(t, y)
                next_target += 1
        elif n_acc % stride == 0 or t >= t_end:
            buf.append(t, y)

    if targets is None and buf.last_time != t:
        buf.append(t, y)
    times, states = buf.arrays()
    return Solution(times, states, n_acc, n_rej, n_evals)


# --- step functions ------------------------------------------------------------
#
# step(rhs, t, h, y, f, atol, rtol) -> (y_new, f_new, err) advances y, whose
# derivative is f, from t to t + h.  f_new is the derivative at the new point
# where the method computes it (FSAL) and err the error norm of the step: at
# most 1 to accept it, NaN or Inf when a stage or the new state is not
# finite.  A stage that is NaN in a component the others do not depend on
# still has to reach err, also where its error weight is zero.


def _step_rk45(rhs, t, h, y, k1, atol, rtol):
    k2 = rhs(t + _C2 * h, [a + h * (_A21 * p)
                           for a, p in zip(y, k1)])
    k3 = rhs(t + _C3 * h, [a + h * (_A31 * p + _A32 * q)
                           for a, p, q in zip(y, k1, k2)])
    k4 = rhs(t + _C4 * h, [a + h * (_A41 * p + _A42 * q + _A43 * r)
                           for a, p, q, r in zip(y, k1, k2, k3)])
    k5 = rhs(t + _C5 * h, [a + h * (_A51 * p + _A52 * q + _A53 * r
                                    + _A54 * s)
                           for a, p, q, r, s in zip(y, k1, k2, k3, k4)])
    k6 = rhs(t + h, [a + h * (_A61 * p + _A62 * q + _A63 * r + _A64 * s
                              + _A65 * u)
                     for a, p, q, r, s, u in zip(y, k1, k2, k3, k4, k5)])
    # the 5th-order solution is also the stage-7 abscissa
    y_new = [a + h * (_B1 * p + _B3 * r + _B4 * s + _B5 * u + _B6 * v)
             for a, p, r, s, u, v in zip(y, k1, k3, k4, k5, k6)]
    k7 = rhs(t + h, y_new)

    # per-component scale, as in standard embedded RK codes; the zero
    # weight of stage 2 keeps a NaN there in the estimate
    ratios = [abs(h * (_E1 * p + _E2 * q + _E3 * r + _E4 * s + _E5 * u
                       + _E6 * v + _E7 * w))
              / (atol + rtol * max(abs(a), abs(b)))
              for a, b, p, q, r, s, u, v, w
              in zip(y, y_new, k1, k2, k3, k4, k5, k6, k7)]
    # max() passes over a NaN that is not first; the sum keeps it
    err = math.nan if math.isnan(sum(ratios)) else max(ratios)
    return y_new, k7, err


def _step_dop853(rhs, t, h, y, k1, atol, rtol):
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

    # max-norm form of err5^2 / sqrt(err5^2 + 0.01 err3^2) over the same
    # per-component scale as the 5(4) pair
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
    return y_new, k13, h * e5 * e5 / math.sqrt(e5 * e5 + 0.01 * e3 * e3)


def _step_rk4(rhs, t, h, y, f, atol, rtol):
    half = 0.5 * h
    k1 = rhs(t, y)
    k2 = rhs(t + half, [a + half * p for a, p in zip(y, k1)])
    k3 = rhs(t + half, [a + half * q for a, q in zip(y, k2)])
    k4 = rhs(t + h, [a + h * r for a, r in zip(y, k3)])
    sixth = h / 6.0
    y_new = [a + sixth * (p + 2.0 * q + 2.0 * r + s)
             for a, p, q, r, s in zip(y, k1, k2, k3, k4)]
    return y_new, None, 0.0 if all(map(math.isfinite, y_new)) else math.nan


# method -> (step function, right-hand-side calls per step, exponent of the
# step-size controller, None for a fixed step)
_STEPPERS = {
    METHOD_DOP853: (_step_dop853, 12, -1 / 8),
    METHOD_RK45: (_step_rk45, 6, -0.2),
    METHOD_RK4: (_step_rk4, 4, None),
}
