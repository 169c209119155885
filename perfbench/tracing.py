"""Spans and counters recorded around the program's public entry points.

The benchmark patches each entry point where its caller looks it up (for
example both ``scenarios.simulate`` and ``dynamics.simulate``) for the
duration of a traced round, and restores the originals afterwards.  Calls
that are too frequent for a span each (right-hand-side evaluations,
fixed-point classifications, ``derive_params``) are counted instead; the
counter's duration, bookkeeping included, is charged to the enclosing span
as child time, so a span's self time excludes them.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import os
from collections import defaultdict
from time import perf_counter

from multilink import analysis, cli, config, dynamics, integrator, model, scenarios, svgplot

CHARTS = ("reduced", "full", "manifold")


class Tracer:
    """Spans and counters of one run; ``install`` patches the entry points,
    ``uninstall`` restores them."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent, item, child_s]
        self._stack = []
        self.item = None
        self.stats = defaultdict(float)
        self._saved = []

    # --- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = [name, perf_counter(), None, parent, self.item, 0.0]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _close(self, span):
        span[2] = perf_counter()
        self._stack.pop()
        dur = span[2] - span[1]
        if self._stack:
            self.spans[self._stack[-1]][5] += dur
        self.stats[span[0] + ".calls"] += 1
        self.stats[span[0] + ".busy"] += dur
        self.stats[span[0] + ".self"] += dur - span[5]

    def spanned(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            span = self._open(name(*args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def counted(self, name, fn):
        stats = self.stats
        stack = self._stack
        spans = self.spans
        calls, busy = name + ".calls", name + ".busy"

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            t1 = perf_counter()
            stats[calls] += 1
            stats[busy] += t1 - t0
            if stack:
                # The enclosing span is charged the counter's own bookkeeping
                # as well, so that its self time holds no tracing cost.
                spans[stack[-1]][5] += perf_counter() - t0
            return result
        return wrapper

    def timed_rhs(self, chart, rhs):
        return self.counted("rhs." + chart, rhs)

    # --- patching ----------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        st = self.stats

        def after_integrate(args, kwargs, sol):
            opts = args[2] if len(args) > 2 else kwargs["opts"]
            t0 = args[3] if len(args) > 3 else kwargs.get("t0", 0.0)
            st["integrator.accepted"] += sol.n_accepted
            st["integrator.rejected"] += sol.n_rejected
            st["integrator.evals"] += sol.n_evals
            st["integrator.samples"] += sol.times.size
            st["integrator.sim_time"] += opts.t_end - t0

        def after_diag(args, kwargs, traj):
            if traj.energy is not None:
                st["dynamics.diag_samples"] += traj.n_samples

        def after_csv_write(args, kwargs, _):
            st["scenarios.csv_write_samples"] += args[1].n_samples
            st["scenarios.csv_bytes"] += os.path.getsize(args[0])

        def after_csv_read(args, kwargs, data):
            st["scenarios.csv_read_samples"] += len(data["t"])

        def after_render(args, kwargs, svg):
            st["svgplot.bytes"] += len(svg.encode())

        def after_fit(args, kwargs, fit):
            st["analysis.fit_points"] += len(args[0])

        def after_census(args, kwargs, points):
            st["analysis.census_points"] += len(points)

        def full_rhs(fn):
            return lambda *a, **k: self.timed_rhs("full", fn(*a, **k))

        def manifold_rhs(fn):
            return lambda *a, **k: self.timed_rhs("manifold", fn(*a, **k))

        for owner in (integrator, dynamics, scenarios, analysis):
            self._patch(owner, "integrate", self.spanned(
                "integrator.integrate", owner.integrate, after_integrate))
        for owner in (dynamics, scenarios):
            self._patch(owner, "simulate", self.spanned(
                "dynamics.simulate", owner.simulate))
        self._patch(dynamics, "make_full_rhs", full_rhs(dynamics.make_full_rhs))
        self._patch(scenarios, "make_manifold_rhs",
                    manifold_rhs(scenarios.make_manifold_rhs))
        self._patch(dynamics, "trajectory_from_solution", self.spanned(
            "dynamics.diag", dynamics.trajectory_from_solution, after_diag))
        self._patch(scenarios, "write_trajectory_csv", self.spanned(
            "scenarios.csv_write", scenarios.write_trajectory_csv, after_csv_write))
        self._patch(scenarios, "read_trajectory_csv", self.spanned(
            "scenarios.csv_read", scenarios.read_trajectory_csv, after_csv_read))
        self._patch(scenarios, "run_scenario", self.spanned(
            lambda cfg, *a: "scenarios.run." + cfg.scenario, scenarios.run_scenario))
        self._patch(svgplot.LinePlot, "render", self.spanned(
            "svgplot.render", svgplot.LinePlot.render, after_render))
        self._patch(analysis, "fit_power_law", self.spanned(
            "analysis.fit", analysis.fit_power_law, after_fit))
        self._patch(analysis, "enumerate_fixed_points", self.spanned(
            "analysis.census_enumerate", analysis.enumerate_fixed_points,
            after_census))
        self._patch(analysis, "classify_fixed_point", self.counted(
            "analysis.census_classify", analysis.classify_fixed_point))
        for owner in (model, scenarios):
            self._patch(owner, "derive_params", self.counted(
                "model.derive", owner.derive_params))
        for owner in (config, cli):
            self._patch(owner, "parse_config", self.spanned(
                "config.parse", owner.parse_config))
        self._patch(cli, "main", self.spanned("cli.main", cli.main))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take_stats(self):
        """Return the statistics gathered since the last call and reset them."""
        stats = dict(self.stats)
        self.stats.clear()
        return stats


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(st, setup_st, scale: float) -> dict:
    """Per-layer metrics of one traced round from its statistics and those
    of the traced set-up; times are multiplied by the round's speed factor
    ``scale``."""
    def g(key):
        return st.get(key, 0.0)

    def both(key):
        return st.get(key, 0.0) + setup_st.get(key, 0.0)

    acc = g("integrator.accepted")
    rej = g("integrator.rejected")
    sim = g("integrator.sim_time")
    rhs_busy = {c: g(f"rhs.{c}.busy") * scale for c in CHARTS}
    m = {
        "integrator.accepted_steps": acc,
        "integrator.rejected_steps": rej,
        "integrator.rhs_evals": g("integrator.evals"),
        "integrator.accept_ratio": _ratio(acc, acc + rej),
        "integrator.steps_per_period": _ratio(acc, sim),
        "integrator.evals_per_period": _ratio(g("integrator.evals"), sim),
        "integrator.busy_s": g("integrator.integrate.busy") * scale,
        "integrator.self_s": g("integrator.integrate.self") * scale,
        "integrator.self_us_per_step":
            1e6 * _ratio(g("integrator.integrate.self") * scale, acc),
        "integrator.samples": g("integrator.samples"),
        "dynamics.rhs_busy_s": sum(rhs_busy.values()),
    }
    for c in CHARTS:
        calls = g(f"rhs.{c}.calls")
        m[f"dynamics.rhs_calls.{c}"] = calls
        m[f"dynamics.rhs_busy_s.{c}"] = rhs_busy[c]
        m[f"dynamics.rhs_us_per_call.{c}"] = 1e6 * _ratio(rhs_busy[c], calls)
    diag = g("dynamics.diag.busy") * scale
    m["dynamics.diag_busy_s"] = diag
    m["dynamics.diag_us_per_sample"] = 1e6 * _ratio(diag, g("dynamics.diag_samples"))
    for kind in config.SCENARIOS:
        m[f"scenarios.run_s.{kind}"] = g(f"scenarios.run.{kind}.busy") * scale
    m["scenarios.csv_write_us_per_sample"] = 1e6 * _ratio(
        g("scenarios.csv_write.busy") * scale, g("scenarios.csv_write_samples"))
    m["scenarios.csv_read_us_per_sample"] = 1e6 * _ratio(
        g("scenarios.csv_read.busy") * scale, g("scenarios.csv_read_samples"))
    m["scenarios.csv_bytes"] = g("scenarios.csv_bytes")
    m["svgplot.render_calls"] = g("svgplot.render.calls")
    m["svgplot.render_s"] = g("svgplot.render.busy") * scale
    m["svgplot.bytes"] = g("svgplot.bytes")
    m["analysis.fit_calls"] = g("analysis.fit.calls")
    m["analysis.fit_us_per_point"] = 1e6 * _ratio(
        g("analysis.fit.busy") * scale, g("analysis.fit_points"))
    census = (g("analysis.census_enumerate.busy")
              + g("analysis.census_classify.busy")) * scale
    m["analysis.census_points"] = g("analysis.census_points")
    m["analysis.census_us_per_point"] = 1e6 * _ratio(census, g("analysis.census_points"))
    m["model.derive_us"] = 1e6 * _ratio(both("model.derive.busy") * scale,
                                        both("model.derive.calls"))
    m["config.parse_calls"] = both("config.parse.calls")
    m["config.parse_us"] = 1e6 * _ratio(both("config.parse.busy") * scale,
                                        both("config.parse.calls"))
    m["cli.calls"] = g("cli.main.calls")
    m["cli.self_s"] = g("cli.main.self") * scale
    return m


# Counts that must repeat exactly for the same code and seed.
COUNT_METRICS = ("integrator.accepted_steps", "integrator.rejected_steps",
                 "integrator.rhs_evals", "integrator.samples",
                 "dynamics.rhs_calls.reduced", "dynamics.rhs_calls.full",
                 "dynamics.rhs_calls.manifold", "analysis.census_points",
                 "scenarios.csv_bytes", "svgplot.bytes")
