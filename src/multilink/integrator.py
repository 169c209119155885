"""Time-stepping engines: fixed-step RK4 and adaptive Dormand-Prince RK45.

The adaptive stepper controls the local error per step against
rtol * |y| + atol (max-norm scale) and lands exactly on requested output
times by clamping the step, so emitted samples need no interpolation and
runs are bit-reproducible.

Right-hand-side contract: ``rhs(t, y)`` receives the state as a list of
floats, which it must not modify, and returns a sequence of floats of the
same length.  Both steppers hold the state and the stages as plain float
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

METHOD_RK45 = "adaptive-rk45"
METHOD_RK4 = "fixed-rk4"

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
    :func:`integrate`, 0 by default).  sample_stride decimates the emitted
    samples: every k-th accepted step is recorded (first and last always
    are).  h0 is the fixed step of the RK4 method and the initial trial step
    of RK45.
    """

    t_end: float
    method: str = METHOD_RK45
    rtol: float = 1e-10
    atol: float = 1e-12
    h0: float = 1e-3
    hmax: float = np.inf
    sample_stride: int = 1

    def __post_init__(self):
        if self.method not in (METHOD_RK45, METHOD_RK4):
            raise ValueError(f"unknown method {self.method!r}; "
                             f"use {METHOD_RK45!r} or {METHOD_RK4!r}")
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
    if opts.method == METHOD_RK4:
        return _run_rk4(rhs, y0, opts, t0, t_eval)
    return _run_rk45(rhs, y0, opts, t0, t_eval)


def _run_rk45(rhs, y0, opts, t0, t_eval):
    rhs, y, targets, k1, buf = _prepare(rhs, y0, opts, t0, t_eval)
    t_end, hmax = opts.t_end, opts.hmax
    rtol, atol = opts.rtol, opts.atol
    stride = opts.sample_stride
    h_floor = 1e-14 * abs(t_end)
    n_targets = 0 if targets is None else len(targets)
    next_target = 0

    t = t0
    h_prop = min(opts.h0, hmax, t_end - t0)
    n_acc = n_rej = 0
    n_evals = 1

    while t < t_end:
        target = targets[next_target] if next_target < n_targets else t_end
        gap = target - t
        h = min(h_prop, hmax)
        if gap <= h / 0.9 and gap <= hmax:
            # stretch/truncate to land exactly; avoids creeping up to the
            # target in vanishing increments
            h = gap
        clamped = h < h_prop
        if h < h_floor:
            raise StepUnderflowError(
                f"step size {h:.3e} underflowed at t={t!r} "
                f"(tolerances unreachable here)", t)

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
        n_evals += 6

        # per-component scale, as in standard embedded RK codes; the zero
        # weight of stage 2 keeps a NaN there in the estimate
        ratios = [abs(h * (_E1 * p + _E2 * q + _E3 * r + _E4 * s + _E5 * u
                           + _E6 * v + _E7 * w))
                  / (atol + rtol * max(abs(a), abs(b)))
                  for a, b, p, q, r, s, u, v, w
                  in zip(y, y_new, k1, k2, k3, k4, k5, k6, k7)]
        err_norm = max(ratios)

        # max() passes over a NaN that is not first; the sum keeps it
        if math.isnan(sum(ratios)) or err_norm == math.inf:
            n_rej += 1
            h_prop = h * 0.25
            if h_prop < h_floor:
                raise DivergenceError(
                    f"right-hand side not finite near t={t!r}", t)
            continue
        if err_norm > 1.0:
            n_rej += 1
            h_prop = h * max(_MIN_FACTOR, _SAFETY * err_norm ** -0.2)
            continue

        n_acc += 1
        t = target if h == gap else t + h
        y = y_new
        k1 = k7  # FSAL

        factor = _MAX_FACTOR if err_norm == 0.0 else \
            min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err_norm ** -0.2))
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


def _run_rk4(rhs, y0, opts, t0, t_eval):
    rhs, y, targets, _, buf = _prepare(rhs, y0, opts, t0, t_eval)
    t_end = opts.t_end
    n_targets = 0 if targets is None else len(targets)
    next_target = 0

    t = t0
    n_acc = 0
    n_evals = 0
    while t < t_end:
        target = targets[next_target] if next_target < n_targets else t_end
        h = min(opts.h0, target - t)
        half = 0.5 * h
        k1 = rhs(t, y)
        k2 = rhs(t + half, [a + half * p for a, p in zip(y, k1)])
        k3 = rhs(t + half, [a + half * q for a, q in zip(y, k2)])
        k4 = rhs(t + h, [a + h * r for a, r in zip(y, k3)])
        sixth = h / 6.0
        y = [a + sixth * (p + 2.0 * q + 2.0 * r + s)
             for a, p, q, r, s in zip(y, k1, k2, k3, k4)]
        n_evals += 4
        if not all(map(math.isfinite, y)):
            raise DivergenceError(f"state not finite after step at t={t!r}", t)
        t = target if h == target - t else t + h
        n_acc += 1
        if targets is not None:
            if next_target < n_targets and t == targets[next_target]:
                buf.append(t, y)
                next_target += 1
        elif n_acc % opts.sample_stride == 0 or t >= t_end:
            buf.append(t, y)

    if targets is None and buf.last_time != t:
        buf.append(t, y)
    times, states = buf.arrays()
    return Solution(times, states, n_acc, 0, n_evals)
