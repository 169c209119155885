"""The compiled C of ``_loop.c``: the adaptive loop with the vehicle
kernel, the constraint-residual maximum, the window and per-period envelope
of a power-law fit, the trajectory CSV's row formatter and parser, and the
SVG polyline points.  This module alone owns the library: whether it is
loaded, who may build it, and which inputs each of its functions takes.

Each consumer makes one call here, which returns a result, or None where
the consumer does the work in Python, to the same bits and bytes:
:func:`multilink.integrator.integrate` calls :func:`integrate` (which runs
only a vehicle field, one that carries ``vehicle``),
:func:`multilink.dynamics.residual_max_series` calls :func:`residual_max`,
:func:`multilink.dynamics.trajectory_from_solution` calls
:func:`diagnostics`, :func:`multilink.analysis.fit_power_law` calls
:func:`fit_points` (and runs its checks on the points),
:func:`multilink.scenarios.write_trajectory_csv` and
``read_trajectory_csv`` call :func:`format_rows` (once per chunk of rows)
and :func:`read_csv`, and ``multilink.svgplot._points`` calls
:func:`points`.  The C code performs the Python code's operations in their
order, calling one sincos where Python takes the sin and the cos of one
argument (glibc gives their bits; test_sincos_matches_sin_and_cos).  Its
text comes from integer arithmetic: the formatters write the bytes of
"%.17g" and of svgplot's two decimals, and the parser converts a field by
an exact fast path (checked against the digits that "%.17g" gives) or else
by strtod.  Each text function does a whole unit or declines it: a chunk
of rows or a polyline holding a value that the C leaves to Python, and a
file outside the writer's grammar and shape (which numpy.loadtxt reads),
are done by the Python path whole.

Only :func:`integrate` builds the library (:func:`load`): once per process,
with the compiler Python was built with (sysconfig ``CC``), into a
temporary directory removed at exit, in 0.3 to 0.4 s (gcc 12 on a 2-core
x86 VM).  Without a working compiler every call here returns None, and the
Python paths, which stay the oracle of the C ones, do the work.  Setting
``_lib`` to False forces every Python path.
"""

from __future__ import annotations

import atexit
import ctypes
import functools
import importlib.resources
import os
import shutil
import stat
import tempfile
from ctypes import POINTER, c_double, c_int, c_long, c_void_p
from itertools import accumulate

import numpy as np

# No fused multiply-adds, and no sin or cos that the compiler folds or fuses:
# each operation rounds as the Python one does.  _loop.c calls sincos itself
# where the Python code takes the sin and the cos of one argument; glibc
# gives their bits (test_sincos_matches_sin_and_cos).
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-builtin-sin",
         "-fno-builtin-cos")
COMPILE_TIMEOUT_S = 120.0
# A call returns to Python after this many step attempts at most, so that
# Ctrl-C stops a long run, and after filling a buffer of CHUNK samples.
STEPS_PER_CALL = 100_000
CHUNK = 4096
# The longest "%.17g" of a double with its separator:
# "-1.2345678901234567e-308,"
VALUE_BYTES = 25
# The longest value of a polyline's points with its separator:
# "-999999999999.99 "
POINT_BYTES = 17
# The trajectory CSV is parsed this many bytes at a time; a file with a
# longer line is left to numpy.loadtxt.
READ_BLOCK = 1 << 16

# the statuses and charts of _loop.c
DONE, MORE, UNDERFLOW, DIVERGED, DEGENERATE, START = range(6)
CHARTS = ("reduced", "full", "manifold")
# The largest C long.  A ctypes long field keeps a larger integer modulo
# 2**bits, so a larger sample stride is passed as this one; no run takes
# that many steps, so either stride emits the first and last sample only.
LONG_MAX = 2 ** (8 * ctypes.sizeof(c_long) - 1) - 1

# The library: None until the first call of load in a process, then the
# loaded CDLL, or False where it cannot be built.
_lib = None


class Vehicle(ctypes.Structure):
    _fields_ = [("n", c_int), ("chart", c_int), ("c", c_void_p),
                ("mu", c_void_p), ("mass", c_double), ("inertia", c_double),
                ("b", c_double), ("af", c_double), ("freq", c_double)]


class Pair(ctypes.Structure):
    _fields_ = [("stages", c_int), ("n_silent", c_int),
                ("exponent", c_double), ("c", POINTER(c_double)),
                ("row_start", POINTER(c_int)), ("col", POINTER(c_int)),
                ("val", POINTER(c_double)), ("silent", POINTER(c_int))]


class Run(ctypes.Structure):
    _fields_ = [("dim", c_int),
                *[(name, c_long) for name in
                  ("stride", "next_point", "max_steps")],
                *[(name, c_double) for name in
                  ("t", "t_end", "h_prop", "hmax", "h_floor", "rtol", "atol",
                   "t0", "interval")],
                *[(name, c_long) for name in
                  ("n_acc", "n_rej", "n_evals", "n_out")],
                *[(name, c_double) for name in ("h", "m_eff", "stage_t")]]


def _array(ctype, values):
    return (ctype * len(values))(*values)


def _address(a):
    """The address of the numpy array a's first element: through ctypes
    where a is a non-empty, writable, C-contiguous buffer (about 0.4 us),
    else through a.ctypes.data (about 1.5 us)."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except (TypeError, ValueError, BufferError):
        return a.ctypes.data


def _compile(cmd):
    """Run the compiler in its own process group, which is killed if the
    call does not end in time or is interrupted."""
    import signal
    import subprocess

    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        if proc.wait(timeout=COMPILE_TIMEOUT_S):
            raise subprocess.CalledProcessError(proc.returncode, cmd)
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def load():
    """The library, built and loaded by the first call in a process; None
    where that fails.  Only :func:`integrate` calls this."""
    global _lib
    if _lib is None:
        _lib = _build() or False
    return _lib or None


def _build():
    """Compile the C file and load it, or None without a working compiler.
    The modules only a build needs are imported here, which keeps them out
    of ``import multilink``."""
    import shlex
    import subprocess
    import sysconfig

    cc = sysconfig.get_config_var("CC")
    if not cc:
        return None
    tmp = tempfile.mkdtemp(prefix="multilink-")
    atexit.register(shutil.rmtree, tmp, ignore_errors=True)
    library = os.path.join(tmp, "multilink.so")
    try:
        source = importlib.resources.files(__package__) / "_loop.c"
        with importlib.resources.as_file(source) as path:
            _compile([*shlex.split(cc), *FLAGS, str(path), "-o", library, "-lm"])
        lib = ctypes.CDLL(library)
    except (OSError, subprocess.SubprocessError):
        return None
    lib.ml_run.argtypes = [POINTER(Pair), POINTER(Vehicle), POINTER(Run),
                           c_void_p, c_void_p, c_void_p, c_long]
    lib.ml_run.restype = c_int
    lib.ml_row.argtypes = [c_int]
    lib.ml_row.restype = c_int
    lib.ml_residual_max.argtypes = [c_long, c_int, *[c_void_p] * 4, c_long,
                                    c_long, *[c_void_p] * 4]
    lib.ml_residual_max.restype = None
    lib.ml_format_points.argtypes = [c_void_p, c_void_p, c_long, c_void_p]
    lib.ml_format_points.restype = c_long
    if hasattr(lib, "ml_format_rows"):
        lib.ml_format_rows.argtypes = [c_void_p, c_long, c_int, c_void_p]
        lib.ml_format_rows.restype = c_long
    lib.ml_parse_rows.argtypes = [c_void_p, c_long, c_int, POINTER(c_int),
                                  c_int, c_void_p, c_long, POINTER(c_long)]
    lib.ml_parse_rows.restype = c_long
    lib.ml_fit_points.argtypes = [c_void_p, c_long, c_void_p, c_long, c_long,
                                  c_double, c_double, c_int, c_double,
                                  c_void_p, c_void_p, POINTER(c_long)]
    lib.ml_fit_points.restype = c_long
    return lib


@functools.cache
def _pair():
    """The integrator's pair in the sparse form of _loop.c: the abscissae,
    the non-zero coefficients of the stage rows, the weights and the error
    rows, and the stages that no error row weighs."""
    from . import integrator  # which imports this module

    rows, silent = integrator._SPARSE_ROWS, integrator._SILENT_STAGES
    c = integrator._DOP853_C
    return Pair(len(c), len(silent), integrator._EXPONENT, _array(c_double, c),
                _array(c_int, list(accumulate(map(len, rows), initial=0))),
                _array(c_int, [j for row in rows for j, _ in row]),
                _array(c_double, [x for row in rows for _, x in row]),
                _array(c_int, silent))


def integrate(rhs, y, opts, t0, h_prop, h_floor):
    """integrate's loop for a vehicle field, building the library on the
    first call: the sample times and states (the first at t0) and the
    accepted, rejected and evaluation counts; None where rhs carries no
    ``vehicle``, the library cannot be built, or the start fails: a state
    of another dimension than the chart's, or a derivative at t0 that is
    not finite or meets a degenerate shape, whose error the Python loop
    raises.  The field's couplings have one entry per link."""
    if getattr(rhs, "vehicle", None) is None or not load():
        return None
    dim = len(y)
    pair = _pair()
    chart, c, mu, *constants = rhs.vehicle
    n = len(c)
    # One block: c and mu; y, the stages, the two error rows and the new
    # state, rows of ml_row(dim) doubles whose lanes past dim are zero (the
    # packed sums then meet no stray subnormal or NaN); then CHUNK sample
    # times and CHUNK states.
    head = 2 * n
    row = _lib.ml_row(dim)
    size = head + (pair.stages + 4) * row
    block = np.empty(size + CHUNK * (1 + dim))
    block[head + dim:size] = 0.0
    block[:head + dim] = c + mu + y
    base = _address(block)
    vehicle = Vehicle(n, CHARTS.index(chart), base, base + 8 * n, *constants)
    work = base + 8 * head
    run = Run(dim=dim, stride=min(opts.sample_stride, LONG_MAX),
              next_point=1, max_steps=STEPS_PER_CALL, t=t0, t_end=opts.t_end,
              h_prop=h_prop, hmax=opts.hmax, h_floor=h_floor, rtol=opts.rtol,
              atol=opts.atol, t0=t0, interval=opts.sample_interval)
    t_out, y_out = size, size + CHUNK
    times, states = [], []
    status = MORE
    while status == MORE:
        status = _lib.ml_run(pair, vehicle, run, work, base + 8 * t_out,
                             base + 8 * y_out, CHUNK)
        # copies: the next call overwrites the chunk
        times.append(block[t_out:t_out + run.n_out].copy())
        states.append(block[y_out:y_out + run.n_out * dim].copy())
    if status == START:
        return None
    if status != DONE:
        _fail(status, run, rhs, block[size - row:size - row + dim])
    if len(times) > 1:
        times, states = np.concatenate(times), np.concatenate(states)
    else:
        times, states = times[0], states[0]
    return (times, states.reshape(times.size, dim), run.n_acc, run.n_rej,
            run.n_evals)


def _fail(status, run, rhs, stage):
    """Raise the error of a run of the field rhs that ended in status, the
    failing stage's input being stage."""
    from . import integrator  # which imports this module

    if status == UNDERFLOW:
        raise integrator._underflow(run.h, run.t)
    if status == DIVERGED:
        raise integrator._diverged(run.t)
    # DEGENERATE: the Python field raises the same error on the same stage
    rhs(run.stage_t, stage.tolist())
    raise RuntimeError(f"compiled kernel: m_eff {run.m_eff} <= 0 at "
                       f"t={run.stage_t}, the Python field disagrees")


def residual_max(v1, omega, phi, psi, c):
    """The max |constraint residual| of each row of the float64 (S, N)
    block phi, where v1, omega and psi are float64 vectors of length S and
    c holds the N hinge distances; None where the library is not loaded.
    Contiguous inputs are passed as they are."""
    if not _lib:
        return None
    rows, n = phi.shape
    # the list holds the copies of non-contiguous inputs during the call
    columns = [np.ascontiguousarray(x) for x in (v1, omega, phi, psi)]
    return _residual_max(rows, n, *map(_address, columns), 1, n, c, None)


def diagnostics(states, c):
    """The residual maxima of :func:`residual_max` and the float64 (S, N)
    block of sin(theta)^2 for the full-chart float64 (S, N + 5) state block
    states, where c holds the N hinge distances; None where the library is
    not loaded."""
    if not _lib:
        return None
    states = np.ascontiguousarray(states, dtype=float)
    rows, dim = states.shape
    n = len(c)
    sin2 = np.empty((rows, n))
    base = _address(states)
    out = _residual_max(rows, n, base, base + 8, base + 16, base + 8 * (n + 4),
                        dim, dim, c, _address(sin2))
    return out, sin2


def _residual_max(rows, n, v1, omega, phi, psi, stride, phi_stride, c, sin2):
    """ml_residual_max on the addresses v1, omega, phi, psi and sin2 (or
    None); the maxima are a float64 vector of length rows."""
    block = np.empty(rows + 2 * n)  # the maxima, c, and the rates' work
    block[rows:rows + n] = c
    out = _address(block)
    _lib.ml_residual_max(rows, n, v1, omega, phi, psi, stride, phi_stride,
                         out + 8 * rows, out + 8 * (rows + n), out, sin2)
    return block[:rows]


def fit_points(times, values, t_lo, t_hi, period=None):
    """The points of ``analysis.fit_power_law``, by ml_fit_points: the
    samples of the float64 vectors times and values of one length whose time
    lies in [t_lo, t_hi], or, with a period, their per-period maxima of
    |value| as ``analysis.envelope_points`` gives them.  Returns the times
    and values of the points and the number of samples in the window; None
    where the library is not loaded, or the vectors are not such vectors
    (aligned, any stride), or the window ends or the period are not
    floats."""
    scalars = (t_lo, t_hi, 0.0 if period is None else period)
    if not _lib or not (isinstance(times, np.ndarray)
                        and isinstance(values, np.ndarray)
                        and times.dtype == values.dtype == np.float64
                        and times.ndim == values.ndim == 1
                        and times.size == values.size
                        and times.flags.aligned and values.flags.aligned
                        and all(isinstance(x, float) for x in scalars)):
        return None
    n = times.size
    out = np.empty(2 * n)
    kept = c_long()
    base = _address(out)
    k = _lib.ml_fit_points(_vector_address(times), times.strides[0] // 8,
                           _vector_address(values), values.strides[0] // 8,
                           n, t_lo, t_hi, period is not None, scalars[2],
                           base, base + 8 * n, kept)
    return out[:k], out[n:n + k], kept.value


def _vector_address(a):
    """The address of the float64 vector a's first element: by
    :func:`_address` where it is contiguous, else (a strided column) by
    a.ctypes.data, which spares the failed try."""
    return _address(a) if a.strides[0] == 8 else a.ctypes.data


def format_rows(rows):
    """The rows of the float array rows as CSV lines, each value the bytes
    of "%.17g" % v; None where the library is not loaded or has no
    formatter, or ml_format_rows leaves a value to the caller."""
    if not _lib or not hasattr(_lib, "ml_format_rows"):
        return None
    rows = np.ascontiguousarray(rows, dtype=float)
    out = np.empty(rows.size * VALUE_BYTES, dtype=np.uint8)
    size = _lib.ml_format_rows(_address(rows), *rows.shape, _address(out))
    return None if size < 0 else out[:size].tobytes()


def points(xs, ys):
    """The points attribute of ``multilink.svgplot._points`` for the
    vectors xs and ys of one length; None where the library is not loaded,
    they are not two such vectors, or ml_format_points leaves a value to
    svgplot."""
    if not _lib:
        return None
    xy = [np.ascontiguousarray(a, dtype=float) for a in (xs, ys)]
    if xy[0].ndim != 1 or xy[0].shape != xy[1].shape:
        return None
    out = np.empty(2 * xy[0].size * POINT_BYTES, dtype=np.uint8)
    size = _lib.ml_format_points(*map(_address, xy), xy[0].size, _address(out))
    return None if size < 0 else str(memoryview(out)[:size], "ascii")


def read_csv(path, columns):
    """read_trajectory_csv by the compiled parser, all columns or those
    named; None where the library is not loaded or the file is not in the
    writer's own grammar and shape: not regular (a pipe reads once), a
    header that is not ASCII or holds a carriage return (which a text-mode
    read takes for a newline), a column the header lacks, or rows that
    :func:`_parse_rows` declines."""
    if not _lib:
        return None
    with open(path, "rb") as f:
        if not stat.S_ISREG(os.fstat(f.fileno()).st_mode):
            return None
        line = f.readline()
        if not line.endswith(b"\n") or not line.isascii() or b"\r" in line:
            return None
        header = line.decode().strip().split(",")
        index = {name: i for i, name in enumerate(header)}  # last one wins
        if columns is None:
            keep = range(len(header))
        elif all(name in index for name in columns):
            keep = sorted({index[name] for name in columns})
        else:
            return None
        data = _parse_rows(f, len(header), keep)
    if data is None:
        return None
    if columns is None:
        return {name: data[:, i] for name, i in index.items()}
    return {header[i]: data[:, k] for k, i in enumerate(keep)}


def _parse_rows(f, fields, keep):
    """The lines after the header of the binary file f, fields values each,
    as a (rows, len(keep)) float array of the columns keep (ascending), read
    READ_BLOCK bytes at a time; None where ml_parse_rows declines the text,
    a line is longer than a block, the last line has no newline or there is
    no line."""
    slot = [-1] * fields
    for k, j in enumerate(keep):
        slot[j] = k
    slots = _array(c_int, slot)
    # a line takes at least two bytes per field: a digit and a delimiter
    cap = (os.fstat(f.fileno()).st_size - f.tell()) // (2 * fields)
    out = np.empty((cap, len(keep)))  # the pages never written stay unused
    address, row_bytes = out.ctypes.data, out.strides[0]
    block = bytearray(READ_BLOCK)
    view = memoryview(block)
    text = ctypes.addressof(ctypes.c_char.from_buffer(block))
    rows = carry = 0
    used = c_long()
    while n := f.readinto(view[carry:]):
        got = _lib.ml_parse_rows(text, carry + n, fields, slots, len(keep),
                                 address + rows * row_bytes, cap - rows, used)
        if got < 0:
            return None
        rows += got
        carry += n - used.value
        if carry == READ_BLOCK:
            return None
        ctypes.memmove(text, text + used.value, carry)  # the partial line
    if carry or not rows:
        return None
    out.resize((rows, len(keep)), refcheck=False)
    return out
