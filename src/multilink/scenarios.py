"""Scenario execution: drive the integrators from a validated config and
write CSV trajectories, plain-text reports, and SVG figures.

CSV schema (fixed): t, v1, omega, phi_1..phi_N, x, y, psi, energy,
residual_max, k.  Each value is written as the bytes of ``"%.17g" % v``, so
a re-read reproduces the samples bit-exactly.  Where the compiled library
is loaded, the writer and the reader go through it with the same bytes and
bits (:mod:`multilink._compiled`); neither builds it.
"""

from __future__ import annotations

import functools
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import _compiled, analysis, svgplot
from .config import ConfigError, ScenarioConfig
from .dynamics import (
    PoseState,
    Trajectory,
    attachment_positions,
    effective_inertia,
    energy,
    make_manifold_rhs,
    residual_max_series,
    simulate,
)
from .integrator import IntegratorOptions, integrate
from .model import DegenerateShapeError, derive_params, theta_from_phi

DEFAULT_FIT_WINDOW = (1e3, 1e5)
OUTPUT_DIR_ENV = "MULTILINK_OUTPUT_DIR"
_CSV_CHUNK_ROWS = 1024


@dataclass(frozen=True)
class ScenarioResult:
    scenario: str
    output_dir: str
    files: tuple[str, ...]
    summary: str


# --- CSV ----------------------------------------------------------------------


def csv_header(n_links: int) -> str:
    cols = ["t", "v1", "omega"] + [f"phi_{i + 1}" for i in range(n_links)]
    cols += ["x", "y", "psi", "energy", "residual_max", "k"]
    return ",".join(cols)


def write_trajectory_csv(path: str, traj: Trajectory):
    """Write traj as CSV, _CSV_CHUNK_ROWS rows at a time, which keeps the
    text off the memory peak; a chunk that the compiled formatter declines
    is written by Python, to the same bytes."""
    table = np.column_stack((traj.times, traj.v1, traj.omega, traj.phi, traj.x,
                             traj.y, traj.psi, traj.energy, traj.residual_max,
                             traj.rotor_momentum))
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "wb") as f:
        f.write(f"{csv_header(traj.n_links)}\n".encode())
        for start in range(0, len(table), _CSV_CHUNK_ROWS):
            rows = table[start:start + _CSV_CHUNK_ROWS]
            text = _compiled.format_rows(rows)
            if text is None:
                text = "".join([row % tuple(values)
                                for values in rows.tolist()]).encode()
            f.write(text)


def read_trajectory_csv(path: str, columns=None) -> dict[str, np.ndarray]:
    """Read a trajectory CSV back as a column-name -> array mapping.

    Given `columns`, names from the header, only those and ``t`` are parsed,
    in header order; a name the header lacks is a ConfigError.  Either way
    every row must have one field per header name, and a file without rows
    is an error.  A file that the compiled parser declines, and every file
    where the library is not loaded, is read by numpy.loadtxt, whose
    accepted files and errors these are.
    """
    if columns is not None:
        columns = (*columns, "t")
    data = _compiled.read_csv(path, columns)
    if data is not None:
        return data
    with open(path) as f:
        header = f.readline().strip().split(",")
        index = {name: i for i, name in enumerate(header)}  # last one wins
        usecols = None
        if columns is not None:
            for name in columns:
                if name not in index:
                    raise ConfigError(f"column {name!r} not in "
                                      f"{sorted(index)} of {path}")
            keep = {index[name] for name in columns}
            # the last column makes loadtxt reject a row with fewer fields;
            # the comma count then rejects one with more, and the fields of
            # the other columns are counted, not parsed
            usecols = sorted(keep | {len(header) - 1})
            start = f.tell()
            commas = sum(chunk.count(",") for chunk
                         in iter(functools.partial(f.read, 1 << 16), ""))
            f.seek(start)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no rows: below
                data = np.loadtxt(f, delimiter=",", ndmin=2, usecols=usecols)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None
    if data.shape[0] == 0:
        raise ValueError(f"{path}: no rows under the header")
    if usecols is None:
        if data.shape[1] != len(header):
            raise ValueError(f"{path}: {data.shape[1]} columns, "
                             f"header names {len(header)}")
        return {name: data[:, i] for name, i in index.items()}
    if commas != data.shape[0] * (len(header) - 1):
        raise ValueError(f"{path}: {commas} commas in {data.shape[0]} rows, "
                         f"not {len(header) - 1} per row as in the header")
    return {header[i]: data[:, k] for k, i in enumerate(usecols) if i in keep}


# --- shared plotting helpers ----------------------------------------------------


def _attachment_plot(traj: Trajectory, p) -> str:
    plot = svgplot.LinePlot(title="wheel-pair attachment paths", xlabel="x",
                            ylabel="y", equal_aspect=True)
    n = traj.n_links
    paths = attachment_positions(PoseState(traj.x, traj.y, traj.psi),
                                 traj.phi, p)
    labels = ["sleigh"] + [f"trailer {i + 1}" for i in range(n)]
    for j in range(n + 1):
        plot.add_series(paths[:, j, 0], paths[:, j, 1], label=labels[j])
    return plot.render()


def _series_plot(traj: Trajectory, law=None) -> str:
    plot = svgplot.LinePlot(title="velocities", xlabel="t")
    plot.add_series(traj.times, traj.v1, label="v1")
    plot.add_series(traj.times, traj.omega, label="omega")
    if law is not None:
        t = traj.times[traj.times > 0]
        plot.add_series(t, law.v1_envelope(t), dashed=True, color="#777777",
                        label="v1 envelope")
        plot.add_series(t, law.omega_envelope(t), dashed=True, color="#bbbbbb")
        plot.add_series(t, -law.omega_envelope(t), dashed=True, color="#bbbbbb",
                        label="omega envelope")
    return plot.render()


def _angles_plot(traj: Trajectory, law=None) -> str:
    plot = svgplot.LinePlot(title="trailer angles", xlabel="t")
    for i in range(traj.n_links):
        plot.add_series(traj.times, traj.phi[:, i], label=f"phi_{i + 1}")
    if law is not None:
        t = traj.times[traj.times > 0]
        for i in range(traj.n_links):
            env = law.phi_envelope(i, t)
            plot.add_series(t, env, dashed=True, color="#999999")
            plot.add_series(t, -env, dashed=True, color="#999999")
    return plot.render()


# --- scenario runners -----------------------------------------------------------

_FORMAT_OF_SUFFIX = {".csv": "csv", ".svg": "svg", ".txt": "report"}


def run_scenario(cfg: ScenarioConfig, output_dir: str | None = None,
                 seed: int | None = None, draws: int = 0) -> ScenarioResult:
    """Execute one scenario and write the requested artifacts.

    A runner returns the summary and the artifacts: file names in writing
    order, each mapped to a function that makes the file's content (the
    text of a report or figure, the Trajectory of a CSV), or to why the
    scenario cannot make it (warned after the files).  Only the requested
    formats are made, all of them before the output directory is made and
    the first file written.  Output directory precedence: explicit
    argument, then the MULTILINK_OUTPUT_DIR environment variable, then the
    config value.
    """
    if cfg.scenario == "manifold":
        summary, artifacts = _run_manifold(cfg)
    elif cfg.scenario == "fixed_points":
        summary, artifacts = _run_fixed_points(cfg, seed, draws)
    else:
        summary, artifacts = _run_trajectory(cfg)
    out_dir = output_dir or os.environ.get(OUTPUT_DIR_ENV) \
        or cfg.outputs.directory
    formats = cfg.outputs.formats
    made, skipped = [], []
    for name, make in artifacts.items():
        if _FORMAT_OF_SUFFIX[os.path.splitext(name)[1]] not in formats:
            continue
        if isinstance(make, str):
            skipped.append(make)
        else:
            made.append((os.path.join(out_dir, name), make()))
    os.makedirs(out_dir, exist_ok=True)
    for path, content in made:
        if isinstance(content, Trajectory):
            write_trajectory_csv(path, content)
        else:
            with open(path, "w") as f:
                f.write(content)
    for reason in skipped:
        print(f"warning: {reason}")
    return ScenarioResult(cfg.scenario, out_dir,
                          tuple(path for path, _ in made), summary)


def _run_trajectory(cfg: ScenarioConfig):
    """The inertial and speedup scenarios: one simulated trajectory, its CSV,
    three figures and a report.  A speedup run adds its config's speedup
    law: the fits of its report and the envelopes of its figures."""
    p, d, law = cfg.vehicle, cfg.derived, cfg.law
    traj = simulate(p, d, cfg.rotor, cfg.initial, cfg.pose, cfg.integrator)
    if law is None:
        e = traj.energy
        drift = float(np.max(np.abs(e - e[0])) / abs(e[0])) if e[0] != 0 \
            else 0.0
        summary = (f"inertial run to t={cfg.integrator.t_end:g}: "
                   f"{traj.n_samples} samples, relative energy drift "
                   f"{drift:.3e}, max constraint residual "
                   f"{float(traj.residual_max.max()):.3e}")
        report = summary + "\n"
    else:
        window = (DEFAULT_FIT_WINDOW[0],
                  min(DEFAULT_FIT_WINDOW[1], cfg.integrator.t_end))
        report, summary = speedup_report(traj, law, cfg.rotor.period, window)
    name = cfg.scenario
    return summary, {
        f"{name}_trajectory.csv": lambda: traj,
        f"{name}_velocities.svg": lambda: _series_plot(traj, law),
        f"{name}_angles.svg": lambda: _angles_plot(traj, law),
        f"{name}_paths.svg": lambda: _attachment_plot(traj, p),
        f"{name}_report.txt": lambda: report,
    }


def speedup_report(traj: Trajectory, law: analysis.SpeedupLaw, period: float,
                   window) -> tuple[str, str]:
    """Fit the speedup power laws on a trajectory and compare with the
    law's asymptotics, stating how densely the samples cover a rotor period
    and where the anchored law puts the crossover into the asymptotic
    regime."""
    lines = ["speedup asymptotics report",
             "==========================",
             f"cube growth rate of v1: {law.cube_rate:.6g} "
             f"(mean squared momentum rate {law.mean_sq_rate:.6g})",
             f"fit window: [{window[0]:g}, {window[1]:g}]",
             _sampling_line(traj.times, period, window),
             _crossover_line(traj, law, window), ""]

    def one(name, fit, exp_expect, coeff_expect):
        lines.append(f"{name}: exponent {fit.exponent:+.4f} "
                     f"(predicted {exp_expect:+.4f}), prefactor "
                     f"{fit.prefactor:.5g} (predicted {coeff_expect:.5g}), "
                     f"r^2 {fit.r_squared:.5f}, {fit.n_points} points")

    fits = {}
    try:
        fits["v1"] = analysis.fit_power_law(traj.times, traj.v1, window)
        one("v1 (raw)", fits["v1"], law.V1_EXPONENT, law.v1_coeff)
        fits["omega"] = analysis.fit_power_law(traj.times, traj.omega, window,
                                               mode="envelope", period=period)
        one("omega (envelope)", fits["omega"], law.OMEGA_EXPONENT,
            law.omega_coeff)
        for i in range(traj.n_links):
            fits[f"phi_{i + 1}"] = analysis.fit_power_law(
                traj.times, traj.phi[:, i], window, mode="envelope",
                period=period)
            one(f"phi_{i + 1} (envelope)", fits[f"phi_{i + 1}"],
                law.ANGLE_EXPONENT, law.phi_coeffs[i])
    except ValueError as e:
        lines.append(f"fit skipped: {e}")
    summary = ("speedup fits: " + ", ".join(
        f"{k} -> t^{f.exponent:+.3f}" for k, f in fits.items())) if fits else \
        "speedup run finished; fits not available"
    lines += ["", summary, ""]
    return "\n".join(lines), summary


def _sampling_line(times, period: float, window) -> str:
    """Samples per rotor period in the fit window, and the most by which the
    largest of n equally spaced samples of a sinusoid period can fall below
    its peak: 1 - cos(pi/n), the peak lying at most half a spacing away."""
    inside = np.count_nonzero((times >= window[0]) & (times <= window[1]))
    if window[1] <= window[0] or inside == 0:
        return "sampling: no samples in the fit window"
    n = inside * period / (window[1] - window[0])
    undershoot = 1.0 - math.cos(math.pi / n) if n >= 2.0 else 1.0
    return (f"sampling: {n:.4g} samples per rotor period in the "
            f"fit window, so a per-period maximum can read up to "
            f"{100.0 * undershoot:.3g}% below the peak (1 - cos(pi/n))")


def _crossover_line(traj: Trajectory, law, window) -> str:
    """Crossover time b v1 = J Omega of the law anchored on the last sample
    at or before the window start."""
    k = int(np.searchsorted(traj.times, window[0], side="right")) - 1
    try:
        crossover = law.anchored(traj.times[k], traj.v1[k]).crossover_time
    except ValueError as e:
        return f"crossover time not available: {e}"
    if window[1] < crossover:
        where = ('the window ends before it, so the "predicted" values are '
                 "the t -> inf limit, not what this window should show")
    else:
        where = "the window ends after it"
    return (f"crossover time (b v1 = J Omega) by the finite-inertia law "
            f"anchored at t={traj.times[k]:g}: {crossover:.4g}; "
            + where)


def _run_manifold(cfg: ScenarioConfig):
    p, d = cfg.vehicle, cfg.derived
    sol = integrate(make_manifold_rhs(p, cfg.sign), cfg.initial.phi,
                    cfg.integrator)
    traj = manifold_trajectory(sol.times, sol.states, cfg, d)
    summary = (f"manifold flow ({'forward' if cfg.sign > 0 else 'backward'}) "
               f"to tau={cfg.integrator.t_end:g}: final angles "
               f"{np.array2string(sol.states[-1], precision=6)}")
    report = summary + "\n"  # without the note on a skipped portrait
    if p.n_links == 2:
        portrait = functools.partial(_portrait_svg, cfg, p)
    else:
        portrait = "phase portrait skipped (N != 2)"
        summary += " (phase portrait skipped: needs exactly 2 trailer links)"
    return summary, {
        "manifold_trajectory.csv": lambda: traj,
        "manifold_portrait.svg": portrait,
        "manifold_report.txt": lambda: report,
    }


def manifold_trajectory(times, phi_states, cfg: ScenarioConfig,
                        d) -> Trajectory:
    """Package a manifold flow as a full trajectory record.

    On the manifold the sleigh heading is frozen (omega = 0) and the speed
    follows the energy level set by the configured initial state; the sleigh
    contact point advances by +-1 per unit of rescaled time along the fixed
    heading.
    """
    p, sign = cfg.vehicle, cfg.sign
    h = energy(cfg.initial, p, d)
    s = np.sin(theta_from_phi(phi_states))
    m_eff = effective_inertia(s * s, d)
    if not np.all(m_eff > 0.0):
        raise DegenerateShapeError(
            f"effective longitudinal inertia {np.min(m_eff)} <= 0 on the "
            f"manifold flow")
    v1 = float(sign) * np.sqrt(2.0 * h / m_eff)
    omega = np.zeros_like(v1)
    psi = np.full_like(v1, cfg.pose.psi)
    x = cfg.pose.x + float(sign) * times * math.cos(cfg.pose.psi)
    y = cfg.pose.y + float(sign) * times * math.sin(cfg.pose.psi)
    resid = residual_max_series(v1, omega, phi_states, psi, p)
    k = np.zeros_like(v1)
    return Trajectory(times, v1, omega, phi_states.copy(), x, y, psi,
                      np.full_like(v1, h), resid, k)


def _portrait_svg(cfg: ScenarioConfig, p) -> str:
    """Phase portrait of the manifold flow over the angle torus (N = 2)."""
    rhs = make_manifold_rhs(p, cfg.sign)
    plot = svgplot.LinePlot(title="manifold phase portrait", xlabel="phi_1",
                            ylabel="phi_2", equal_aspect=True)
    starts = [np.array([a, b])
              for a in np.linspace(-2.7, 2.7, 5)
              for b in np.linspace(-2.7, 2.7, 5)]
    src = np.array([math.pi, math.pi])
    starts += [src + 0.01 * np.array([math.cos(a), math.sin(a)])
               for a in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)]
    opts = IntegratorOptions(t_end=30.0, rtol=1e-9, atol=1e-11,
                             sample_stride=2)
    for s in starts:
        sol = integrate(rhs, s, opts)
        wrapped = analysis.wrap_angles(sol.states)
        for xs, ys in svgplot.split_wrapped(wrapped[:, 0], wrapped[:, 1]):
            plot.add_series(xs, ys, color="#2956b2", width=0.8)
    for a in (0.0, math.pi, -math.pi):
        for b in (0.0, math.pi, -math.pi):
            plot.add_marker(a, b, color="#c0392b")
    return plot.render()


def _run_fixed_points(cfg: ScenarioConfig, seed, draws: int):
    from .model import random_vehicle

    p, d = cfg.vehicle, cfg.derived
    points = analysis.enumerate_fixed_points(p.n_links)
    cls = analysis.classify_fixed_point(points, p, d)
    kinds = list(analysis.FixedPointKind)  # in the order of their codes
    lines = [f"straight-line equilibria for N={p.n_links} "
             f"({len(points)} points)", "-" * 72]
    padded = ["%-14s" % k.value for k in kinds]
    # rows "%-40s %-14s [%+.6f, ...]" of (describe(), kind, *eigenvalues).
    # In each half (forward, then backward) the theta signs run in product
    # order, and column i and phi_i's 0/pi follow theta_i's sign alone: so a
    # half is built by doubling, with the texts off its first and last rows
    half = len(points) // 2
    for lo, hi in ((0, half - 1), (half, 2 * half - 1)):
        ends = points.phi[[lo, hi]].tolist()
        eig = cls.eigenvalues[[lo, hi]].tolist()
        where = ["forward" if points.v_sign[lo] > 0 else "backward"]
        values = ["%+.6f" % eig[0][0]]
        for i in range(p.n_links):
            lead = ", " if i else ", phi=("
            tail = ")" if i == p.n_links - 1 else ""
            angles = [lead + ("pi" if e[i] else "0") + tail for e in ends]
            where = [w + a for w in where for a in angles]
            column = [", %+.6f" % e[i + 1] for e in eig]
            values = [v + c for v in values for c in column]
        lines += map("%-40s %s [%s]".__mod__, zip(
            where, [padded[c] for c in cls.code[lo:hi + 1].tolist()], values))
    lines.append("-" * 72)
    counts = np.bincount(cls.code, minlength=len(kinds)).tolist()
    lines.append("counts: " + ", ".join(f"{k.value}={n}"
                                        for k, n in zip(kinds, counts)))

    if draws > 0:
        if seed is None:  # drawn here and named in the report, to re-run
            seed = np.random.SeedSequence().entropy
        rng = np.random.default_rng(seed)
        ok = 0
        for _ in range(draws):
            rp = random_vehicle(rng, p.n_links)
            code = analysis.classify_fixed_point(points, rp,
                                                 derive_params(rp)).code
            # one stable node (code 0) and one unstable node (code 1)
            if np.bincount(code, minlength=2)[:2].tolist() == [1, 1]:
                ok += 1
        lines.append(f"random-parameter suite (seed={seed}): {ok}/{draws} "
                     f"draws with exactly one stable and one unstable node")

    report = "\n".join(lines) + "\n"
    return report, {"fixed_points_report.txt": lambda: report}
