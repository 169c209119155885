"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``__init__`` (the set-up the
``setup_s`` metric times), then exposes a fixed list of items.  One round runs
every item once; rounds repeat the same items, so a round is a fixed amount
of work and every repeat must reproduce the first round bit for bit.

The program is reached only through its public module attributes, looked up
at call time (``dynamics.simulate``, ``cli.main``, ...), so the tracer can
patch them where the callers look them up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import xml.etree.ElementTree as ET

import numpy as np

from multilink import analysis, cli, config, dynamics, integrator, model

# Vehicle of the numerical experiments and of acceptance criterion 4.
REFERENCE_VEHICLE = {"m": [1.0, 1.2, 1.2], "I": [1.5, 2.0, 2.0], "a0": 0.7,
                     "a": [0.1, 0.2], "c": [1.05, 1.10]}
PINNED_ROTOR = {"kind": "sine", "amplitude": 0.05, "period": 1.0}
CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "configs")


def _vehicle_doc(p) -> dict:
    return {"m": p.masses.tolist(), "I": p.inertias.tolist(), "a0": float(p.a0),
            "a": p.a.tolist(), "c": p.c.tolist()}


def _shipped_config(name: str) -> dict:
    with open(os.path.join(CONFIGS, f"{name}.json")) as f:
        return json.load(f)


def _parse(doc: dict):
    return config.parse_config(json.dumps(doc))


class Item:
    """One closed-loop request: a name, the simulated time it covers, and the
    call that performs it."""

    def __init__(self, name: str, sim_time: float, run):
        self.name = name
        self.sim_time = sim_time
        self.run = run


class Workload:
    """Inputs built from a seed, a fixed list of items, and the checks.

    ``check(i, result)`` returns a problem or None for the warm-up output of
    item i; ``fingerprint(i, result)`` must be equal for equal outputs;
    ``check_after(results)`` runs after the timed body on the warm-up
    results and returns {item index: problem}.
    """

    name = ""
    items: list

    def check_after(self, results: dict) -> dict:
        return {}


class SpeedupPinned(Workload):
    """Criterion-4 hot loop: reduced-chart integration of the pinned speedup
    scenario, each trajectory followed by its raw and envelope power-law
    fits.  No file is written."""

    name = "speedup-pinned"
    n_items = 8
    t_end = 50.0

    def __init__(self, seed: int, work_dir: str):
        rng = np.random.default_rng([seed, 1])
        self.cases = []
        self.items = []
        for k in range(self.n_items):
            doc = {"scenario": "speedup", "vehicle": REFERENCE_VEHICLE,
                   "rotor": PINNED_ROTOR,
                   "initial": {"v1": 10.0,
                               "omega": 1.0 + float(rng.uniform(-0.05, 0.05)),
                               "phi": (0.5 + rng.uniform(-0.05, 0.05, 2)).tolist()},
                   "integrator": {"t_end": self.t_end, "rtol": 1e-8,
                                  "atol": 1e-8, "sample_stride": 2}}
            cfg = _parse(doc)
            d = model.derive_params(cfg.vehicle)
            rhs = dynamics.make_reduced_rhs(cfg.vehicle, d, cfg.rotor)
            case = (rhs, cfg.initial.as_array(), cfg.integrator, cfg.rotor.period)
            self.cases.append((cfg.vehicle, d, cfg.rotor, case[1]))
            self.items.append(Item(f"pinned#{k}", self.t_end,
                                   lambda tracer, c=case: self._run(c, tracer)))

    @staticmethod
    def _run(case, tracer):
        rhs, y0, opts, period = case
        if tracer is not None:
            rhs = tracer.timed_rhs("reduced", rhs)
        sol = integrator.integrate(rhs, y0, opts)
        window = (opts.t_end / 10.0, opts.t_end)
        fits = [analysis.fit_power_law(sol.times, sol.states[:, 0], window)]
        fits += [analysis.fit_power_law(sol.times, sol.states[:, j], window,
                                        mode="envelope", period=period)
                 for j in range(1, sol.states.shape[1])]
        return sol, fits

    def fingerprint(self, i, result):
        sol, fits = result
        return (sol.states[-1].tobytes(), sol.n_accepted, sol.n_rejected,
                sol.n_evals, sol.times.size,
                tuple((f.exponent, f.prefactor) for f in fits))

    def check(self, i, result):
        sol, fits = result
        bad = [f for f in fits if not (math.isfinite(f.exponent)
                                       and math.isfinite(f.prefactor))]
        return "non-finite power-law fit" if bad else None

    def check_after(self, results: dict):
        """Compare final states with a DOP853 reference at rtol 1e-12.

        The reference integrates the reduced equations assembled from
        ``model.angle_coeffs`` and ``dynamics.angle_rates``, a code path
        independent of the scalar kernel, so it checks the kernel as well as
        the stepper.  Runs after the timed body so that neither scipy's
        import nor the reference integrations count in any metric.  scipy
        serves only as the oracle here; the program does not depend on it.
        """
        from scipy.integrate import solve_ivp

        problems = {}
        for i, (sol, _) in results.items():
            p, d, rotor, y0 = self.cases[i]
            b, inertia = d.static_moment, d.inertia

            def rhs(t, y):
                v1, om, phi = y[0], y[1], y[2:]
                m_eff, quad_v, quad_cross = model.angle_coeffs(
                    model.theta_from_phi(phi), d, p.c)
                return np.concatenate((
                    [(b * om * om + quad_v * v1 * v1 + quad_cross * om * v1) / m_eff,
                     (-b * om * v1 - rotor.rate(t)) / inertia],
                    dynamics.angle_rates(v1, om, phi, p)))

            ref = solve_ivp(rhs, (0.0, self.t_end), y0, method="DOP853",
                            rtol=1e-12, atol=1e-12)
            if not ref.success:
                problems[i] = f"reference integration failed: {ref.message}"
                continue
            y_ref = ref.y[:, -1]
            err = float(np.max(np.abs(sol.states[-1] - y_ref)
                               / np.maximum(1.0, np.abs(y_ref))))
            # rtol = atol = 1e-8 over 50 periods leaves ~5e-9; scaling one
            # term of the kernel by 1.001 moves the final state by ~6e-6.
            if not err <= 1e-7:
                problems[i] = f"final state off the DOP853 reference by {err:.3e}"
        return problems


class ConservationSweep(Workload):
    """Rotor-free full-chart simulate() runs with pose and diagnostics, over
    random vehicles with N in {1, 2, 4, 8}."""

    name = "conservation-sweep"
    links = (1, 2, 4, 8)
    per_n = 64
    t_end = 20.0
    # Initial velocities are scaled so that the energy bound on the fastest
    # angle rate equals this value.  The equations are homogeneous of degree
    # two in the velocities, so the scaling only rescales time; without it
    # the log-uniform vehicle draws make single runs range from 20 ms to
    # several seconds at a fixed horizon.
    rate_bound = 1.5

    def __init__(self, seed: int, work_dir: str):
        rng = np.random.default_rng([seed, 2])
        self.items = []
        for n in self.links:
            for k in range(self.per_n):
                p = model.random_vehicle(rng, n)
                d = model.derive_params(p)
                v1 = float(rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0]))
                omega = float(rng.uniform(-1.5, 1.5))
                phi = rng.uniform(-math.pi, math.pi, n)
                h = dynamics.energy(dynamics.ReducedState(v1, omega, phi), p, d)
                m_low = d.mass + float(np.sum(np.minimum(d.coupling, 0.0)))
                bound = (math.sqrt(2.0 * h / m_low) / float(np.min(p.c))
                         + math.sqrt(2.0 * h / d.inertia))
                scale = self.rate_bound / bound
                doc = {"scenario": "inertial", "vehicle": _vehicle_doc(p),
                       "initial": {"v1": v1 * scale, "omega": omega * scale,
                                   "phi": phi.tolist(),
                                   "x": float(rng.uniform(-1.0, 1.0)),
                                   "y": float(rng.uniform(-1.0, 1.0)),
                                   "psi": float(rng.uniform(-math.pi, math.pi))},
                       "integrator": {"t_end": self.t_end, "rtol": 1e-10,
                                      "atol": 1e-12, "sample_stride": 1}}
                cfg = _parse(doc)
                case = (cfg.vehicle, model.derive_params(cfg.vehicle),
                        model.zero_rotor(), cfg.initial, cfg.pose, cfg.integrator)
                self.items.append(Item(f"N{n}#{k}", self.t_end,
                                       lambda tracer, c=case: dynamics.simulate(*c)))

    def fingerprint(self, i, traj):
        last = [traj.times[-1], traj.v1[-1], traj.omega[-1], traj.x[-1],
                traj.y[-1], traj.psi[-1], traj.energy[-1], traj.residual_max[-1]]
        return (np.array(last).tobytes(), traj.phi[-1].tobytes(), traj.n_samples)

    def check(self, i, traj):
        e = traj.energy
        drift = float(np.max(np.abs(e - e[0])) / abs(e[0]))
        resid = float(np.max(traj.residual_max))
        if not drift < 1e-7:
            return f"relative energy drift {drift:.3e} (criterion 1: < 1e-7)"
        if not resid < 1e-10:
            return f"max constraint residual {resid:.3e} (criterion 2: < 1e-10)"
        return None


_FIT_LINE = re.compile(r"^(\S+) ~ (\S+) \* t\^(\S+) \(r\^2 (\S+), (\d+) points")
_COUNTS_LINE = re.compile(r"counts: stable_node=(\d+), unstable_node=(\d+), "
                          r"saddle=(\d+)")
_DRAWS_LINE = re.compile(r"random-parameter suite \(seed=\d+\): (\d+)/(\d+) draws")


class ScenarioPipeline(Workload):
    """In-process ``cli.main`` over generated configs: three simulate
    commands writing CSV/SVG/report artifacts, a fixed-point census for
    N = 1..10 with random-parameter draws, and fits that read the written
    CSVs back."""

    name = "scenario-pipeline"
    draws = 2

    def __init__(self, seed: int, work_dir: str):
        rng = np.random.default_rng([seed, 3])
        self.work_dir = work_dir
        os.makedirs(work_dir, exist_ok=True)
        # The shipped simulate configs, with the initial state drawn from the
        # seed near the shipped one.  The speedup run ends at t=1200, 200
        # rotor periods into the fixed [1e3, 1e5] fit window; ending 10
        # periods into it makes the scenario's power-law fit overflow.
        docs = {name: _shipped_config(name)
                for name in ("inertial", "manifold", "speedup")}
        initial = docs["inertial"]["initial"]
        initial["v1"] += float(rng.uniform(-0.1, 0.1))
        initial["omega"] += float(rng.uniform(-0.1, 0.1))
        initial["phi"] = (np.array(initial["phi"])
                          + rng.uniform(-0.1, 0.1, 2)).tolist()
        initial = docs["manifold"]["initial"]
        initial["phi"] = (math.pi + rng.uniform(-1e-3, 1e-3, 2)).tolist()
        initial = docs["speedup"]["initial"]
        initial["omega"] += float(rng.uniform(-0.05, 0.05))
        initial["phi"] = (np.array(initial["phi"])
                          + rng.uniform(-0.05, 0.05, 2)).tolist()
        docs["speedup"]["integrator"]["t_end"] = 1200.0
        period = docs["speedup"]["rotor"]["period"]
        # N = 1..10, and two more vehicles at N = 10 where the census costs
        # most, so that the 90th latency percentile falls on a census.
        for k, n in enumerate([*range(1, 11), 10, 10]):
            docs[f"census{n}" + ("" if k < 10 else f"-{k - 8}")] = {
                "scenario": "fixed_points",
                "vehicle": _vehicle_doc(model.random_vehicle(rng, n)),
                "integrator": {"t_end": 1.0}, "outputs": {"formats": ["report"]}}
        draw_seed = int(rng.integers(0, 2 ** 31))

        self.items = []
        self.expect = {}
        for name, doc in docs.items():
            doc.setdefault("outputs", {})["directory"] = os.path.join(work_dir, name)
            path = os.path.join(work_dir, f"{name}.json")
            with open(path, "w") as f:
                json.dump(doc, f)
            cfg = _parse(doc)
            if cfg.scenario == "fixed_points":
                argv = ["fixed-points", path, "--draws", str(self.draws),
                        "--seed", str(draw_seed)]
                self.expect[name] = ("census", cfg.vehicle.n_links)
                sim_time = 0.0
            else:
                argv = ["simulate", path]
                self.expect[name] = ("simulate", None)
                sim_time = cfg.integrator.t_end
            self.items.append(Item(name, sim_time,
                                   lambda tracer, a=argv: self._cli(a)))

        def csv(name):
            return os.path.join(work_dir, name, f"{name}_trajectory.csv")

        fits = [("speedup", "v1", "1e3:1200", "raw"),
                ("speedup", "omega", "1e3:1200", "envelope"),
                ("speedup", "phi_1", "1e3:1200", "envelope"),
                ("speedup", "phi_2", "1e3:1200", "envelope"),
                ("inertial", "energy", "1:120", "raw"),
                ("manifold", "energy", "1:90", "raw")]
        for src, column, window, mode in fits:
            argv = ["fit", csv(src), "--column", column, "--window", window,
                    "--mode", mode, "--period", str(period)]
            name = f"fit:{src}:{column}"
            self.expect[name] = ("fit", column)
            self.items.append(Item(name, 0.0, lambda tracer, a=argv: self._cli(a)))

    @staticmethod
    def _cli(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    @staticmethod
    def _written(stdout):
        return [line[len("wrote "):] for line in stdout.splitlines()
                if line.startswith("wrote ")]

    def fingerprint(self, i, result):
        code, stdout = result
        # The work directory's name holds the process id.
        h = hashlib.sha256(f"{code}\n{stdout.replace(self.work_dir, '')}".encode())
        for path in self._written(stdout):
            with open(path, "rb") as f:
                h.update(f.read())
        return h.hexdigest()

    def check(self, i, result):
        code, stdout = result
        kind, arg = self.expect[self.items[i].name]
        if code != 0:
            return f"exit code {code}"
        if kind == "fit":
            m = _FIT_LINE.match(stdout.strip())
            if m is None or m.group(1) != arg:
                return f"unexpected fit output {stdout.strip()!r}"
            exponent = float(m.group(3))
            if not (math.isfinite(float(m.group(2))) and math.isfinite(exponent)):
                return "non-finite fit"
            if arg == "energy" and not abs(exponent) < 1e-6:
                return f"energy not conserved: fitted exponent {exponent:.3e}"
            return None
        if kind == "census":
            counts = _COUNTS_LINE.search(stdout)
            draws = _DRAWS_LINE.search(stdout)
            if counts is None or draws is None:
                return "census report incomplete"
            stable, unstable, saddle = map(int, counts.groups())
            if (stable, unstable, saddle) != (1, 1, 2 ** (arg + 1) - 2):
                return f"census counts {counts.group(0)!r} for N={arg}"
            if draws.group(1) != draws.group(2) or int(draws.group(2)) != self.draws:
                return f"random draws: {draws.group(0)!r}"
            return None
        return self._check_artifacts(self._written(stdout))

    @staticmethod
    def _check_artifacts(paths):
        if not any(p.endswith(".csv") for p in paths):
            return "no trajectory CSV written"
        for path in paths:
            if path.endswith(".svg"):
                try:
                    root = ET.parse(path).getroot()
                except ET.ParseError as e:
                    return f"{os.path.basename(path)} is not well-formed XML: {e}"
                if not root.tag.endswith("svg"):
                    return f"{os.path.basename(path)} root element is {root.tag}"
            elif path.endswith(".csv"):
                with open(path) as f:
                    header = f.readline().strip().split(",")
                    data = np.loadtxt(f, delimiter=",", ndmin=2)
                resid = float(np.max(data[:, header.index("residual_max")]))
                if not resid < 1e-10:
                    return (f"{os.path.basename(path)}: residual_max {resid:.3e} "
                            f"(< 1e-10 required)")
        return None


WORKLOADS = {w.name: w for w in (SpeedupPinned, ConservationSweep,
                                 ScenarioPipeline)}
