"""Scenario execution: drive the integrators from a validated config and
write CSV trajectories, plain-text reports, and SVG figures.

CSV schema (fixed): t, v1, omega, phi_1..phi_N, x, y, psi, energy,
residual_max, k.  Values are serialized with 17 significant digits, so a
re-read reproduces the samples bit-exactly.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import analysis, svgplot
from .config import ScenarioConfig
from .dynamics import (
    Trajectory,
    attachment_positions,
    energy,
    make_manifold_rhs,
    residual_max_series,
    simulate,
)
from .integrator import IntegratorOptions, integrate
from .model import DegenerateShapeError, derive_params, theta_from_phi, zero_rotor

DEFAULT_FIT_WINDOW = (1e3, 1e5)
OUTPUT_DIR_ENV = "MULTILINK_OUTPUT_DIR"


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
    n = traj.n_links
    zeros = np.zeros(traj.n_samples)
    energy = traj.energy if traj.energy is not None else zeros
    resid = traj.residual_max if traj.residual_max is not None else zeros
    k = traj.rotor_momentum if traj.rotor_momentum is not None else zeros
    with open(path, "w", newline="\n") as f:
        f.write(csv_header(n) + "\n")
        for i in range(traj.n_samples):
            row = [traj.times[i], traj.v1[i], traj.omega[i]]
            row += list(traj.phi[i])
            row += [traj.x[i], traj.y[i], traj.psi[i],
                    energy[i], resid[i], k[i]]
            f.write(",".join(f"{v:.17g}" for v in row) + "\n")


def read_trajectory_csv(path: str) -> dict[str, np.ndarray]:
    """Read a trajectory CSV back as a column-name -> array mapping."""
    with open(path) as f:
        header = f.readline().strip().split(",")
        data = np.loadtxt(f, delimiter=",", ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: {data.shape[1]} columns, "
                         f"header names {len(header)}")
    return {name: data[:, i] for i, name in enumerate(header)}


# --- shared plotting helpers ----------------------------------------------------


def _attachment_plot(traj: Trajectory, p, max_points: int = 4000) -> str:
    plot = svgplot.LinePlot(title="wheel-pair attachment paths", xlabel="x",
                            ylabel="y", equal_aspect=True)
    n = traj.n_links
    idx = np.arange(traj.n_samples)
    if idx.size > max_points:
        idx = np.unique(np.concatenate(
            (idx[:: idx.size // max_points + 1], idx[-1:])))
    paths = np.empty((idx.size, n + 1, 2))
    for k, i in enumerate(idx):
        paths[k] = attachment_positions(traj.pose_at(i), traj.phi[i], p)
    labels = ["sleigh"] + [f"trailer {i + 1}" for i in range(n)]
    for j in range(n + 1):
        plot.add_series(paths[:, j, 0], paths[:, j, 1], label=labels[j])
    return plot.render()


def _series_plot(traj: Trajectory, pred=None) -> str:
    plot = svgplot.LinePlot(title="velocities", xlabel="t")
    plot.add_series(traj.times, traj.v1, label="v1")
    plot.add_series(traj.times, traj.omega, label="omega")
    if pred is not None:
        t = traj.times[traj.times > 0]
        plot.add_series(t, pred.v1_envelope(t), dashed=True, color="#777777",
                        label="v1 envelope")
        plot.add_series(t, pred.omega_envelope(t), dashed=True, color="#bbbbbb")
        plot.add_series(t, -pred.omega_envelope(t), dashed=True, color="#bbbbbb",
                        label="omega envelope")
    return plot.render()


def _angles_plot(traj: Trajectory, pred=None) -> str:
    plot = svgplot.LinePlot(title="trailer angles", xlabel="t")
    for i in range(traj.n_links):
        plot.add_series(traj.times, traj.phi[:, i], label=f"phi_{i + 1}")
    if pred is not None:
        t = traj.times[traj.times > 0]
        for i in range(traj.n_links):
            env = pred.phi_envelope(i, t)
            plot.add_series(t, env, dashed=True, color="#999999")
            plot.add_series(t, -env, dashed=True, color="#999999")
    return plot.render()


# --- scenario runners -----------------------------------------------------------


def run_scenario(cfg: ScenarioConfig, output_dir: str | None = None,
                 seed: int | None = None, draws: int = 0) -> ScenarioResult:
    """Execute one scenario and write the requested artifacts.

    Output directory precedence: explicit argument, then the
    MULTILINK_OUTPUT_DIR environment variable, then the config value.
    """
    out_dir = output_dir or os.environ.get(OUTPUT_DIR_ENV) \
        or cfg.outputs.directory
    os.makedirs(out_dir, exist_ok=True)
    if cfg.scenario == "inertial":
        return _run_inertial(cfg, out_dir)
    if cfg.scenario == "speedup":
        return _run_speedup(cfg, out_dir)
    if cfg.scenario == "manifold":
        return _run_manifold(cfg, out_dir)
    return _run_fixed_points(cfg, out_dir, seed=seed, draws=draws)


def _emit(cfg: ScenarioConfig, out_dir, pieces: dict[str, str],
          traj: Trajectory | None):
    files = []
    if traj is not None and "csv" in cfg.outputs.formats:
        path = os.path.join(out_dir, f"{cfg.scenario}_trajectory.csv")
        write_trajectory_csv(path, traj)
        files.append(path)
    if "svg" in cfg.outputs.formats:
        for name, svg in pieces.items():
            if name.endswith(".svg"):
                path = os.path.join(out_dir, name)
                with open(path, "w") as f:
                    f.write(svg)
                files.append(path)
    if "report" in cfg.outputs.formats:
        for name, text in pieces.items():
            if name.endswith(".txt"):
                path = os.path.join(out_dir, name)
                with open(path, "w") as f:
                    f.write(text)
                files.append(path)
    return files


def _run_inertial(cfg: ScenarioConfig, out_dir) -> ScenarioResult:
    p = cfg.vehicle
    d = derive_params(p)
    rotor = cfg.rotor or zero_rotor()
    traj = simulate(p, d, rotor, cfg.initial, cfg.pose, cfg.integrator)
    e = traj.energy
    drift = float(np.max(np.abs(e - e[0])) / abs(e[0])) if e[0] != 0 else 0.0
    summary = (f"inertial run to t={cfg.integrator.t_end:g}: "
               f"{traj.n_samples} samples, relative energy drift {drift:.3e}, "
               f"max constraint residual {float(traj.residual_max.max()):.3e}")
    pieces = {
        "inertial_velocities.svg": _series_plot(traj),
        "inertial_angles.svg": _angles_plot(traj),
        "inertial_paths.svg": _attachment_plot(traj, p),
        "inertial_report.txt": summary + "\n",
    }
    files = _emit(cfg, out_dir, pieces, traj)
    return ScenarioResult("inertial", out_dir, tuple(files), summary)


def _run_speedup(cfg: ScenarioConfig, out_dir) -> ScenarioResult:
    p = cfg.vehicle
    d = derive_params(p)
    rotor = cfg.rotor
    pred = analysis.asymptotic_prediction(p, d, rotor)
    traj = simulate(p, d, rotor, cfg.initial, cfg.pose, cfg.integrator)
    window = (DEFAULT_FIT_WINDOW[0],
              min(DEFAULT_FIT_WINDOW[1], cfg.integrator.t_end))
    report, summary = speedup_report(traj, pred, p, d, rotor, window,
                                     cfg.integrator.method)
    pieces = {
        "speedup_velocities.svg": _series_plot(traj, pred),
        "speedup_angles.svg": _angles_plot(traj, pred),
        "speedup_paths.svg": _attachment_plot(traj, p),
        "speedup_report.txt": report,
    }
    files = _emit(cfg, out_dir, pieces, traj)
    return ScenarioResult("speedup", out_dir, tuple(files), summary)


def speedup_report(traj: Trajectory, pred, p, d, rotor, window,
                   method: str) -> tuple[str, str]:
    """Fit the speedup power laws on a trajectory and compare with the
    predicted asymptotics, stating how densely the samples of the given
    integration method cover a rotor period and where the finite-inertia
    law puts the crossover into the asymptotic regime."""
    period = rotor.period
    lines = ["speedup asymptotics report",
             "==========================",
             f"cube growth rate of v1: {pred.cube_rate:.6g} "
             f"(mean squared momentum rate {pred.mean_sq_rate:.6g})",
             f"fit window: [{window[0]:g}, {window[1]:g}]",
             _sampling_line(traj.times, method, period, window),
             _crossover_line(traj, p, d, rotor, window), ""]

    def one(name, fit, exp_expect, coeff_expect):
        lines.append(f"{name}: exponent {fit.exponent:+.4f} "
                     f"(predicted {exp_expect:+.4f}), prefactor "
                     f"{fit.prefactor:.5g} (predicted {coeff_expect:.5g}), "
                     f"r^2 {fit.r_squared:.5f}, {fit.n_points} points")

    fits = {}
    try:
        fits["v1"] = analysis.fit_power_law(traj.times, traj.v1, window)
        one("v1 (raw)", fits["v1"], pred.V1_EXPONENT, pred.v1_coeff)
        fits["omega"] = analysis.fit_power_law(traj.times, traj.omega, window,
                                               mode="envelope", period=period)
        one("omega (envelope)", fits["omega"], pred.OMEGA_EXPONENT,
            pred.omega_coeff)
        for i in range(traj.n_links):
            fits[f"phi_{i + 1}"] = analysis.fit_power_law(
                traj.times, traj.phi[:, i], window, mode="envelope",
                period=period)
            one(f"phi_{i + 1} (envelope)", fits[f"phi_{i + 1}"],
                pred.ANGLE_EXPONENT, pred.phi_coeffs[i])
    except ValueError as e:
        lines.append(f"fit skipped: {e}")
    summary = ("speedup fits: " + ", ".join(
        f"{k} -> t^{f.exponent:+.3f}" for k, f in fits.items())) if fits else \
        "speedup run finished; fits not available"
    lines += ["", summary, ""]
    return "\n".join(lines), summary


def _sampling_line(times, method: str, period: float, window) -> str:
    """Samples per rotor period in the fit window, and the most by which the
    largest of n equally spaced samples of a sinusoid period can fall below
    its peak: 1 - cos(pi/n), the peak lying at most half a spacing away."""
    inside = np.count_nonzero((times >= window[0]) & (times <= window[1]))
    if window[1] <= window[0] or inside == 0:
        return f"sampling: {method}, no samples in the fit window"
    n = inside * period / (window[1] - window[0])
    undershoot = 1.0 - math.cos(math.pi / n) if n >= 2.0 else 1.0
    return (f"sampling: {method}, {n:.4g} samples per rotor period in the "
            f"fit window, so a per-period maximum can read up to "
            f"{100.0 * undershoot:.3g}% below the peak (1 - cos(pi/n))")


def _crossover_line(traj: Trajectory, p, d, rotor, window) -> str:
    """Crossover time b v1 = J Omega of the finite-inertia law anchored on
    the last sample at or before the window start."""
    k = int(np.searchsorted(traj.times, window[0], side="right")) - 1
    try:
        law = analysis.finite_inertia_prediction(
            p, d, rotor, float(traj.times[k]), float(traj.v1[k]))
    except ValueError as e:
        return f"crossover time not available: {e}"
    if window[1] < law.crossover_time:
        where = ('the window ends before it, so the "predicted" values are '
                 "the t -> inf limit, not what this window should show")
    else:
        where = "the window ends after it"
    return (f"crossover time (b v1 = J Omega) by the finite-inertia law "
            f"anchored at t={traj.times[k]:g}: {law.crossover_time:.4g}; "
            + where)


def _run_manifold(cfg: ScenarioConfig, out_dir) -> ScenarioResult:
    p = cfg.vehicle
    d = derive_params(p)
    n = p.n_links
    sign = cfg.sign
    rhs = make_manifold_rhs(p, sign)
    sol = integrate(rhs, cfg.initial.phi, cfg.integrator)
    traj = manifold_trajectory(sol.times, sol.states, cfg, p, d, sign)

    pieces = {}
    summary = (f"manifold flow ({'forward' if sign > 0 else 'backward'}) to "
               f"tau={cfg.integrator.t_end:g}: final angles "
               f"{np.array2string(sol.states[-1], precision=6)}")
    pieces["manifold_report.txt"] = summary + "\n"
    if n == 2:
        pieces["manifold_portrait.svg"] = _portrait_svg(cfg, p)
    else:
        summary += " (phase portrait skipped: needs exactly 2 trailer links)"
    files = _emit(cfg, out_dir, pieces, traj)
    if n != 2 and "svg" in cfg.outputs.formats:
        print("warning: phase portrait skipped (N != 2)")
    return ScenarioResult("manifold", out_dir, tuple(files), summary)


def manifold_trajectory(times, phi_states, cfg: ScenarioConfig, p, d,
                        sign: int) -> Trajectory:
    """Package a manifold flow as a full trajectory record.

    On the manifold the sleigh heading is frozen (omega = 0) and the speed
    follows the energy level set by the configured initial state; the sleigh
    contact point advances by +-1 per unit of rescaled time along the fixed
    heading.
    """
    h = energy(cfg.initial, p, d)
    s = np.sin(theta_from_phi(phi_states))
    m_eff = d.mass + (s * s) @ d.coupling
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


def _run_fixed_points(cfg: ScenarioConfig, out_dir, seed=None,
                      draws: int = 0) -> ScenarioResult:
    from .model import random_vehicle

    p = cfg.vehicle
    d = derive_params(p)
    points = analysis.enumerate_fixed_points(p.n_links)
    rows = []
    counts = {k: 0 for k in analysis.FixedPointKind}
    for fp in points:
        cls = analysis.classify_fixed_point(fp, p, d)
        counts[cls.kind] += 1
        eig = ", ".join(f"{e:+.6f}" for e in cls.eigenvalues)
        rows.append(f"{fp.describe():<40} {cls.kind.value:<14} [{eig}]")
    lines = [f"straight-line equilibria for N={p.n_links} "
             f"({len(points)} points)", "-" * 72]
    lines += rows
    lines.append("-" * 72)
    lines.append("counts: " + ", ".join(f"{k.value}={v}"
                                        for k, v in counts.items()))

    if draws > 0:
        rng = np.random.default_rng(seed)
        ok = 0
        for _ in range(draws):
            rp = random_vehicle(rng, p.n_links)
            rd = derive_params(rp)
            kinds = [analysis.classify_fixed_point(fp2, rp, rd).kind
                     for fp2 in analysis.enumerate_fixed_points(rp.n_links)]
            stable = kinds.count(analysis.FixedPointKind.STABLE_NODE)
            unstable = kinds.count(analysis.FixedPointKind.UNSTABLE_NODE)
            if stable == 1 and unstable == 1:
                ok += 1
        lines.append(f"random-parameter suite (seed={seed}): {ok}/{draws} "
                     f"draws with exactly one stable and one unstable node")

    report = "\n".join(lines) + "\n"
    files = []
    if "report" in cfg.outputs.formats:
        path = os.path.join(out_dir, "fixed_points_report.txt")
        with open(path, "w") as f:
            f.write(report)
        files.append(path)
    return ScenarioResult("fixed_points", out_dir, tuple(files), report)
