"""Time stepping: the adaptive Dormand-Prince 8(5,3) pair.

A driver loop runs the pair's step, a function that advances the state by
one step of a given size and returns an error norm; the driver owns
everything else: landing on sample times, sample emission, the step-size
controller and the typed errors.  The local error per step is controlled
against atol + rtol * |y| (max-norm scale).  Each loop has one landing
rule: a step is stretched or truncated to end exactly on the next grid
point below t_end (with a ``sample_interval``), else on t_end.  It has two
emit rules: on each landing with a grid; without one, on every
``sample_stride``-th accepted step and at t_end.  Emitted samples need no
interpolation and runs are bit-reproducible.  A step that does not land
underflows (:class:`StepUnderflowError`) where it is shorter than the step
floor or cannot move t at all, as at a t0 far below -t_end.

The step is emitted from the tableau, which is data, once per state
dimension, with every component of the state and the stages a local float
(:func:`_emit_step`).  Each is compiled on first use and cached; linecache
holds its source under a name like ``<_step_dop853_4>``, so tracebacks and
``inspect.getsource`` show the code that runs.

The pair's long steps can sample a periodic forcing thinly; a run that
needs samples throughout a period sets ``sample_interval``, which lands a
step on every point of an even grid of times, as the speedup scenario does
by default (:mod:`multilink.config`), or caps the step with ``hmax``.

Right-hand-side contract: ``rhs(t, y)`` receives the state as a list of
floats, which it must not modify, and returns a sequence of floats of the
same length: a list is used as it is, anything else (an ndarray, a tuple)
is converted with ``np.asarray(..., dtype=float).tolist()`` on every call.
The emitted step calls rhs once per stage with a new list of the stage's
input; the last stage gets the list of the new state that the step
returns.  For the few components of this model, numpy's per-operation
overhead on small arrays would cost more than the arithmetic.

A built-in vehicle field, one that carries a ``vehicle`` attribute
(:func:`multilink.dynamics.make_reduced_rhs`, ``make_full_rhs``,
``make_manifold_rhs``), runs on the compiled loop instead, with the same
times, states, counts and typed errors to the bit, where it builds:
:mod:`multilink._compiled` gives the full account.
"""

from __future__ import annotations

import functools
import linecache
import math
import numbers
import re
from array import array
from dataclasses import dataclass

import numpy as np

from . import _compiled

# Tableau of the pair (Hairer, Norsett & Wanner, Solving ODEs I, II.10),
# bit-equal to scipy's DOP853.  Index i is stage i + 1: abscissae _C, stage
# matrix _A, weights _B and error rows _E5, _E3, which also weigh the FSAL
# stage.
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
_ERROR_ROWS = (_DOP853_E5, _DOP853_E3)
# The pair's non-zero coefficients, (stage index, coefficient) from index 0,
# per row of the stage matrix after the first, of the weights and of the
# error rows; and the stages that no error row weighs.  The emitted steps
# and the compiled loop both read them.
_SPARSE_ROWS = tuple(tuple((j, x) for j, x in enumerate(row) if x != 0.0)
                     for row in (*_DOP853_A[1:], _DOP853_B, *_ERROR_ROWS))
_SILENT_STAGES = tuple(j for j in range(len(_DOP853_C))
                       if not any(row[j] for row in _ERROR_ROWS))

# the step-size controller: the error norm's exponent, the bounds of the
# factor a step size changes by, and the safety factor
_EXPONENT = -1 / 8
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_SAFETY = 0.9
# A step shorter than this fraction of t_end underflows, unless it lands.
# The first trial step is raised to it, and an hmax below it is rejected.
_STEP_FLOOR = 1e-14


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
    are).  A positive sample_interval emits a grid instead: t0, each
    t0 + k * sample_interval (k = 1, 2, ...) below t_end, and t_end, a step
    landing on each; it takes sample_stride 1 and must not lie below the
    step floor.  h0 is the first trial step, raised to the step floor
    1e-14 * t_end on long horizons; steps never exceed hmax, which must not
    lie below that floor.
    """

    t_end: float
    rtol: float = 1e-10
    atol: float = 1e-12
    h0: float = 1e-3
    hmax: float = np.inf
    sample_stride: int = 1
    sample_interval: float = 0.0

    def __post_init__(self):
        # a NaN would pass a failing comparison: a NaN t_end ends the run
        # after 0 steps, a NaN h0 is rejected and shrunk forever
        for name in ("t_end", "rtol", "atol", "h0", "sample_interval"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("rtol and atol must be positive")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.hmax < _STEP_FLOOR * self.t_end:
            raise ValueError(f"hmax {self.hmax} is below the step floor "
                             f"{_STEP_FLOOR} * t_end = {_STEP_FLOOR * self.t_end}")
        if not 0 < self.h0 <= self.hmax:  # also rejects hmax = NaN
            raise ValueError(f"need 0 < h0 <= hmax, got {self.h0} and {self.hmax}")
        stride = self.sample_stride
        if isinstance(stride, bool) or not isinstance(stride, numbers.Integral):
            raise ValueError(f"sample_stride must be an integer, got {stride!r}")
        if stride < 1:
            raise ValueError("sample_stride must be >= 1")
        interval = self.sample_interval
        if interval < 0:
            raise ValueError(f"sample_interval must not be negative, got "
                             f"{interval}")
        if interval and interval < _STEP_FLOOR * self.t_end:
            raise ValueError(f"sample_interval {interval} is below the step "
                             f"floor {_STEP_FLOOR} * t_end = "
                             f"{_STEP_FLOOR * self.t_end}")
        if interval and stride != 1:
            raise ValueError(f"sample_interval {interval} takes sample_stride "
                             f"1, got {stride}")


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

    def arrays(self):
        times = np.array(self._t)
        return times, np.array(self._y).reshape(times.size, self._dim)


def _listed(rhs):
    """Wrap a right-hand side whose values are not lists."""
    def f(t, y):
        return np.asarray(rhs(t, y), dtype=float).tolist()

    return f


def _prepare(y0, opts, t0):
    """Validate the inputs; return the initial state as a list."""
    if not (math.isfinite(t0) and t0 < opts.t_end):
        raise ValueError(f"t0 must be finite and below t_end, got {t0}")
    if type(y0) is list and y0 and all(type(v) is float for v in y0):
        return y0.copy()  # the common case: already the state the loops take
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    if y0.ndim != 1 or y0.size == 0:
        raise ValueError(f"y0 must be non-empty and 1-d, got shape {y0.shape}")
    return y0.tolist()


def _underflow(h, t):
    return StepUnderflowError(f"step size {h:.3e} underflowed at t={t!r} "
                              f"(tolerances unreachable here)", t)


def _diverged(t):
    return DivergenceError(f"right-hand side or state not finite near t={t!r}", t)


def integrate(rhs, y0, opts: IntegratorOptions, t0: float = 0.0) -> Solution:
    """Integrate dy/dt = rhs(t, y) from t0 to opts.t_end.

    rhs follows the contract in the module docstring.  With
    opts.sample_interval the samples are its grid (see
    :class:`IntegratorOptions`); otherwise the accepted-step grid decimated
    by opts.sample_stride is emitted, always including the first and last
    points.
    """
    y = _prepare(y0, opts, t0)
    h_floor = _STEP_FLOOR * opts.t_end
    h_prop = max(min(opts.h0, opts.hmax, opts.t_end - t0), h_floor)
    out = _compiled.integrate(rhs, y, opts, t0, h_prop, h_floor)
    if out is None:
        out = _python_steps(rhs, y, opts, t0, h_prop, h_floor)
    return Solution(*out)


def _python_steps(rhs, y, opts, t, h_prop, h_floor):
    """The driver loop over the emitted step: the sample times and states
    and the accepted, rejected and evaluation counts."""
    f = rhs(t, y)
    if not isinstance(f, list):
        rhs = _listed(rhs)
        f = np.asarray(f, dtype=float).tolist()
    if not isinstance(f, list) or len(f) != len(y):
        raise ValueError(f"right-hand side must return {len(y)} values, "
                         f"one per state component")
    if not all(map(math.isfinite, f)):
        raise DivergenceError(f"right-hand side not finite at t={t}", t)
    buf = _Buffer(len(y))
    buf.append(t, y)
    evals = len(_DOP853_A)  # each stage but the first, the last step's FSAL
    step = _emit_step(len(y))
    t_end, hmax = opts.t_end, opts.hmax
    rtol, atol = opts.rtol, opts.atol
    stride = opts.sample_stride
    # the sample grid: its origin and the index of its next point
    grid, t0, k = opts.sample_interval, t, 1
    n_acc = n_rej = 0
    n_evals = 1  # the derivative at t0, the first stage of the first step

    while t < t_end:
        target = t0 + k * grid if grid else t_end
        if not target < t_end:
            target = t_end
        gap = target - t
        h = min(h_prop, hmax)
        if gap <= h / 0.9 and gap <= hmax:
            # stretch/truncate to land exactly; avoids creeping up to the
            # target in vanishing increments
            h = gap
        elif h < h_floor or t + h == t:
            # a step that does not land must be no shorter than the floor
            # and must move t
            raise _underflow(h, t)
        clamped = h < h_prop

        y_new, f_new, err = step(rhs, t, h, y, f, atol, rtol)
        n_evals += evals

        if not math.isfinite(err):
            n_rej += 1
            h_prop = h * 0.25
            if h_prop < h_floor:
                raise _diverged(t)
            continue
        if err > 1.0:
            n_rej += 1
            h_prop = h * max(_MIN_FACTOR, _SAFETY * err ** _EXPONENT)
            continue

        n_acc += 1
        t = target if h == gap else t + h
        y = y_new
        f = f_new

        factor = _MAX_FACTOR if err == 0.0 else \
            min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** _EXPONENT))
        h_prop = max(h_prop, h * factor) if clamped else h * factor

        if grid:
            if t == target:
                buf.append(t, y)
                k += 1
        elif n_acc % stride == 0 or t >= t_end:
            buf.append(t, y)

    return (*buf.arrays(), n_acc, n_rej, n_evals)


# --- step functions ------------------------------------------------------------
#
# step(rhs, t, h, y, f, atol, rtol) -> (y_new, f_new, err) advances y,
# whose derivative is f, from t to t + h, calling rhs(t, [y0, y1, ...]).
# f_new is the derivative at the new point (FSAL) and err the error norm of
# the step: at most 1 to accept it, NaN or Inf when a stage or the new state
# is not finite.  A stage that is NaN in a component the others do not
# depend on still has to reach err, also a stage that no error row weighs.
#
# The error norm below is a template over the locals of an emitted step:
# y{i}, the new state n{i} and stage j, k{j}_{i}, at component i.  A line
# naming {i} is written once per component, {row0} and {row1} being the error
# rows' terms there; {x} lists x0, x1, ... of such a line's x, {silent} sums
# the stages that no error row weighs and {last} is the last stage.

_DOP853_NORM = """\
    # max-norm form of err5^2 / sqrt(err5^2 + 0.01 err3^2)
    sc{i} = atol + rtol * max(abs(y{i}), abs(n{i}))
    err5_{i} = abs({row0}) / sc{i}
    err3_{i} = abs({row1}) / sc{i}
    if math.isnan(sum(({err5_}))) or not math.isfinite({silent}):
        return y_new, {last}, math.nan
    e5 = max(({err5_}))
    if e5 == 0.0:
        return y_new, {last}, 0.0
    e3 = max(({err3_}))
    root = math.sqrt(e5 * e5 + 0.01 * e3 * e3)
    if root == 0.0:  # both squares underflow: divide through by e5
        q = e3 / e5
        return y_new, {last}, h * e5 / math.sqrt(1.0 + 0.01 * q * q)
    return y_new, {last}, h * e5 * e5 / root
"""


@functools.cache
def _emit_step(dim):
    """Compile the step for `dim` components, each a local float.  Stage s
    gets y{i} + h * (a_s1 * k1_{i} + ...) per component over the non-zero
    coefficients of its row (_SPARSE_ROWS), float literals in tableau order;
    then come the new state, the last stage and the error norm."""
    *stage_rows, weights, err5, err3 = _SPARSE_ROWS
    comps = range(dim)
    last = len(_DOP853_C)

    def names(prefix):
        return ", ".join(f"{prefix}{i}" for i in comps)

    def terms(row, i):
        return " + ".join(f"{x!r} * k{j + 1}_{i}" for j, x in row)

    name = f"_step_dop853_{dim}"
    lines = [f"def {name}(rhs, t, h, y, k1, atol, rtol):",
             f"    [{names('y')}] = y", f"    [{names('k1_')}] = k1"]
    for s, row in enumerate(stage_rows, 1):
        args = ", ".join(f"y{i} + h * ({terms(row, i)})" for i in comps)
        lines.append(f"    [{names(f'k{s + 1}_')}] = "
                     f"rhs(t + {_DOP853_C[s]!r} * h, [{args}])")
    lines += [f"    n{i} = y{i} + h * ({terms(weights, i)})" for i in comps]
    lines += [f"    y_new = [{names('n')}]",
              f"    k{last} = rhs(t + h, y_new)",
              f"    [{names(f'k{last}_')}] = k{last}"]
    fields = {x: names(x) + "," for x in re.findall(r"(\w+)\{i\} =", _DOP853_NORM)}
    fields["last"] = f"k{last}"
    fields["silent"] = " + ".join(f"sum(({names(f'k{j + 1}_')},))"
                                  for j in _SILENT_STAGES)
    for line in _DOP853_NORM.splitlines():
        if "{i}" in line:
            lines += [line.format(i=i, row0=terms(err5, i), row1=terms(err3, i))
                      for i in comps]
        else:
            lines.append(line.format(**fields))
    source = "\n".join(lines) + "\n"
    filename = f"<{name}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {"__name__": __name__, "math": math}
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]

