"""The adaptive loop, the vehicle kernel, the constraint-residual maximum
and the CSV row formatter and parser as compiled C (``_loop.c``).

:func:`multilink.integrator.integrate` runs this loop on the vector fields
of :mod:`multilink.dynamics`; every other right-hand side takes the emitted
Python steps.  Once the library is loaded,
:func:`multilink.dynamics.residual_max_series` computes its float64 samples
through ml_residual_max (:func:`_residual_max`),
:func:`multilink.scenarios.write_trajectory_csv` writes its rows through the
formatter (:func:`_write_rows`), and
:func:`multilink.scenarios.read_trajectory_csv` reads a file in the
writer's own grammar and shape through the parser (:func:`_parse_rows`),
leaving every other file to numpy.loadtxt.
:func:`load` compiles the C file, once, with the compiler Python was built
with (sysconfig ``CC``), into a private temporary directory that is removed
at exit, and loads it with ctypes.  It returns None where that fails, and
the integrator then keeps to its Python loop, the diagnostics to numpy, the
writer to its Python rows and the reader to numpy.loadtxt, which give the
same bits and bytes.
"""

from __future__ import annotations

import atexit
import ctypes
import functools
import importlib.resources
import os
import shlex
import shutil
import signal
import subprocess
import sysconfig
import tempfile
from ctypes import POINTER, c_char_p, c_double, c_int, c_long, c_void_p
from itertools import accumulate

import numpy as np

from . import integrator

# No fused multiply-adds, and no sin or cos that the compiler folds or fuses:
# each operation rounds as the Python one does.  _loop.c calls sincos itself
# where the Python code takes the sin and the cos of one argument; glibc
# gives their bits (tests/test_compiled_loop.py::
# test_sincos_matches_sin_and_cos).
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
# The trajectory CSV is parsed this many bytes at a time; a file with a
# longer line is left to numpy.loadtxt.
READ_BLOCK = 1 << 16

# the statuses and charts of _loop.c
DONE, MORE, UNDERFLOW, DIVERGED, DEGENERATE = range(5)
CHARTS = ("reduced", "full", "manifold")


class Vehicle(ctypes.Structure):
    _fields_ = [("n", c_int), ("chart", c_int),
                ("c", POINTER(c_double)), ("mu", POINTER(c_double)),
                ("mass", c_double), ("inertia", c_double), ("b", c_double),
                ("af", c_double), ("freq", c_double)]


class Pair(ctypes.Structure):
    _fields_ = [("stages", c_int), ("n_silent", c_int),
                ("exponent", c_double), ("c", POINTER(c_double)),
                ("row_start", POINTER(c_int)), ("col", POINTER(c_int)),
                ("val", POINTER(c_double)), ("silent", POINTER(c_int))]


class Run(ctypes.Structure):
    _fields_ = [("dim", c_int), ("landing", c_int),
                *[(name, c_long) for name in
                  ("stride", "n_targets", "next_target", "max_steps")],
                ("targets", POINTER(c_double)),
                *[(name, c_double) for name in
                  ("t", "t_end", "h_prop", "hmax", "h_floor", "rtol", "atol",
                   "last_t")],
                *[(name, c_long) for name in
                  ("n_acc", "n_rej", "n_evals", "n_out")],
                *[(name, c_double) for name in ("h", "m_eff", "stage_t")]]


def _array(ctype, values):
    return (ctype * len(values))(*values)


def _compile(cmd):
    """Run the compiler in its own process group, which is killed if the
    call does not end in time or is interrupted."""
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
    """Compile and load the library; return the runner for integrate, or
    None without a working compiler.  The runner's ``residual_max`` gives
    the constraint-residual maximum per sample (:func:`_residual_max`), its
    ``write_rows`` writes CSV rows (:func:`_write_rows`), or is None where
    the compiler has no 128-bit integers, and its ``parse_rows`` reads them
    (:func:`_parse_rows`)."""
    cc = sysconfig.get_config_var("CC")
    if not cc:
        return None
    tmp = tempfile.mkdtemp(prefix="multilink-")
    atexit.register(shutil.rmtree, tmp, ignore_errors=True)
    library = os.path.join(tmp, "_loop.so")
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
    runner = functools.partial(_run, lib.ml_run)
    lib.ml_residual_max.argtypes = [c_long, c_int, *[c_void_p] * 7]
    lib.ml_residual_max.restype = None
    runner.residual_max = functools.partial(_residual_max,
                                            lib.ml_residual_max)
    runner.write_rows = None
    if hasattr(lib, "ml_format_rows"):
        lib.ml_format_rows.argtypes = [c_void_p, c_long, c_int, c_char_p,
                                       POINTER(c_long)]
        lib.ml_format_rows.restype = c_long
        runner.write_rows = functools.partial(_write_rows,
                                              lib.ml_format_rows)
    lib.ml_parse_rows.argtypes = [c_void_p, c_long, c_int, POINTER(c_int),
                                  c_int, c_void_p, c_long, POINTER(c_long)]
    lib.ml_parse_rows.restype = c_long
    runner.parse_rows = functools.partial(_parse_rows, lib.ml_parse_rows)
    return runner


@functools.cache
def _pair():
    """The integrator's pair in the sparse form of _loop.c: the stage rows,
    the weights and the error rows, non-zero coefficients only."""
    c, a, b = integrator._DOP853_C, integrator._DOP853_A, integrator._DOP853_B
    err_rows = integrator._ERROR_ROWS
    stages = len(a) + 1
    rows = [[(j, x) for j, x in enumerate(row) if x != 0.0]
            for row in (*a[1:], b, *err_rows)]
    silent = [j for j in range(stages) if not any(row[j] for row in err_rows)]
    return Pair(stages, len(silent), integrator._EXPONENT,
                _array(c_double, [*c[:len(a)], 1.0]),
                _array(c_int, list(accumulate(map(len, rows), initial=0))),
                _array(c_int, [j for row in rows for j, _ in row]),
                _array(c_double, [x for row in rows for _, x in row]),
                _array(c_int, silent))


def _run(entry, rhs, y, f, targets, opts, t0, h_prop, h_floor, buf):
    """integrate's loop for a vehicle field: appends the samples to buf and
    returns the accepted, rejected and evaluation counts.  integrate has
    called the field's kernel on y, whose arity is the chart's dimension,
    and the field's couplings have one entry per link."""
    dim = len(y)
    pair = _pair()
    chart, c, mu, *constants = rhs.vehicle
    vehicle = Vehicle(len(c), CHARTS.index(chart), _array(c_double, c),
                      _array(c_double, mu), *constants)
    # y, the stages, the two error rows, the new state
    work = np.empty((pair.stages + 4) * dim)
    work[:dim] = y
    work[dim:2 * dim] = f
    t_out = np.empty(CHUNK)
    y_out = np.empty(CHUNK * dim)
    landing = targets is not None
    run = Run(dim=dim, landing=landing, stride=opts.sample_stride,
              max_steps=STEPS_PER_CALL, t=t0, t_end=opts.t_end,
              h_prop=h_prop, hmax=opts.hmax, h_floor=h_floor, rtol=opts.rtol,
              atol=opts.atol, last_t=t0, n_evals=1)
    if landing:
        stops = np.array(targets, dtype=float)
        run.n_targets = stops.size
        run.targets = stops.ctypes.data_as(POINTER(c_double))
    status = MORE
    while status == MORE:
        status = entry(pair, vehicle, run, work.ctypes.data, t_out.ctypes.data,
                       y_out.ctypes.data, CHUNK)
        buf.extend(t_out[:run.n_out], y_out[:run.n_out * dim])
    if status == UNDERFLOW:
        raise integrator._underflow(run.h, run.t)
    if status == DIVERGED:
        raise integrator._diverged(run.t)
    if status == DEGENERATE:
        # the Python kernel raises the same error on the same stage
        rhs.kernel(run.stage_t, *work[-dim:].tolist())
        raise RuntimeError(f"compiled kernel: m_eff {run.m_eff} <= 0 at "
                           f"t={run.stage_t}, the Python kernel disagrees")
    return run.n_acc, run.n_rej, run.n_evals


def _residual_max(entry, v1, omega, phi, psi, c):
    """The max |constraint residual| of each row of the float64 (rows, N)
    array phi, where v1, omega and psi are float64 vectors of one value or
    one per row and c holds the N hinge distances."""
    rows, n = phi.shape
    v1, omega, psi = (np.ascontiguousarray(x if x.size == rows
                                           else np.broadcast_to(x, rows))
                      for x in (v1, omega, psi))
    phi = np.ascontiguousarray(phi)
    c = np.ascontiguousarray(c, dtype=float)
    rate = np.empty(n)
    out = np.empty(rows)
    entry(rows, n, v1.ctypes.data, omega.ctypes.data, phi.ctypes.data,
          psi.ctypes.data, c.ctypes.data, rate.ctypes.data, out.ctypes.data)
    return out


def _write_rows(entry, f, table, chunk, python_rows):
    """Write the rows of the C-ordered float array table to the binary file
    f as CSV lines, each value the bytes of "%.17g" % v, chunk rows at a
    time through one buffer.  A row holding a value that ml_format_rows
    leaves to the caller is written as python_rows(rows) -> bytes."""
    table = np.ascontiguousarray(table, dtype=float)
    n_rows, cols = table.shape
    out = ctypes.create_string_buffer(chunk * cols * VALUE_BYTES)
    view = memoryview(out)
    done = c_long()
    address, stride = table.ctypes.data, table.strides[0]
    start = 0
    while start < n_rows:
        count = min(chunk, n_rows - start)
        size = entry(address + start * stride, count, cols, out, done)
        f.write(view[:size])
        start += done.value
        if done.value < count:
            f.write(python_rows(table[start:start + 1]))
            start += 1


def _parse_rows(entry, f, fields, keep):
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
        got = entry(text, carry + n, fields, slots, len(keep),
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
