"""The program names that the benchmark's tracer looks up.

perfbench/tracing.py patches ``dynamics.make_full_rhs`` and
``scenarios.make_manifold_rhs`` where their callers look them up, and the
workloads call ``dynamics.make_reduced_rhs``.  A refactor that renames one
of them, or stops looking it up through the module global, crashes the
traced run or silently zeroes its per-layer RHS counters; this test runs a
short traced simulation and manifold scenario to catch that.

A traced right-hand side is a plain function without ``vehicle``, so the
integrator runs it on the Python loop instead of the compiled one: the
traced per-layer RHS numbers describe that path.  It must give the untraced
run's results and count every evaluation.

The tracer also wraps ``analysis.enumerate_fixed_points`` (it counts the
points it returns), ``analysis.classify_fixed_point``,
``scenarios.write_trajectory_csv`` and ``svgplot.LinePlot.render``; a traced
CLI census and simulate run check that those layers still report.

perfbench/workloads.py calls further program names (``RotorProfile.rate``
in its DOP853 oracle, ``model.zero_rotor``, ``dynamics.energy``,
``model.angle_coeffs``); the first item of two workloads, run through their
checks, fails here on a rename of one of them.  The scenario-pipeline items
that write files and read them back pass their checks with equal
fingerprints twice, as the benchmark requires of every round, and traced
speedup-pinned, conservation-sweep and scenario-pipeline simulate items
give the untraced items' fingerprints.  Both
perfbench files are loaded from their paths without writing bytecode next
to them.
"""

import importlib.util
import json
import os
import sys

import numpy as np
import pytest

from multilink import cli, dynamics, scenarios
from multilink.config import parse_config
from multilink.dynamics import PoseState, ReducedState
from multilink.integrator import IntegratorOptions, integrate
from multilink.model import sine_rotor, zero_rotor

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_traced_rhs_counters(reference_vehicle, reference_derived, tmp_path):
    # one trailer: no phase portrait, so only the flow itself counts
    cfg = parse_config("""{"scenario": "manifold", "sign": "plus",
        "vehicle": {"m": [1, 1], "I": [1, 1], "a0": 0.5, "a": [0.1], "c": [1.0]},
        "initial": {"phi": [2.5]}, "integrator": {"t_end": 5.0},
        "outputs": {"formats": ["csv", "report"]}}""")
    tracer = load_perfbench("tracing").Tracer()
    tracer.install()
    try:
        dynamics.simulate(reference_vehicle, reference_derived, zero_rotor(),
                          ReducedState(1.0, 0.5, [0.3, -0.4]), PoseState(),
                          IntegratorOptions(t_end=2.0))
        scenarios.run_scenario(cfg, output_dir=str(tmp_path))
    finally:
        tracer.uninstall()
    stats = tracer.take_stats()
    assert stats.get("rhs.full.calls", 0) > 0
    assert stats.get("rhs.manifold.calls", 0) > 0
    assert callable(dynamics.make_reduced_rhs)


def test_traced_reduced_rhs_matches_inlined_run(reference_vehicle,
                                                reference_derived):
    # the speedup-pinned workload's run, shortened, traced as it traces it
    rhs = dynamics.make_reduced_rhs(reference_vehicle, reference_derived,
                                    sine_rotor(0.05, 1.0))
    tracer = load_perfbench("tracing").Tracer()
    traced = tracer.timed_rhs("reduced", rhs)
    y0 = [10.0, 1.0, 0.5, 0.5]
    opts = IntegratorOptions(t_end=20.0, rtol=1e-8, atol=1e-8, hmax=1 / 13)
    inlined = integrate(rhs, y0, opts)
    sol = integrate(traced, y0, opts)
    assert np.array_equal(sol.times, inlined.times)
    assert np.array_equal(sol.states, inlined.states)
    assert (sol.n_accepted, sol.n_rejected, sol.n_evals) == (
        inlined.n_accepted, inlined.n_rejected, inlined.n_evals)
    assert tracer.take_stats()["rhs.reduced.calls"] == sol.n_evals


def test_traced_rounds_match_untraced(tmp_path):
    # a traced round runs the Python loop, the tracer wrapping every vector
    # field, and each fingerprint must equal the untraced round's, which
    # runs the compiled loop: every speedup-pinned item at seed 410, the
    # first conservation-sweep item of each N, and the scenario-pipeline
    # simulate items (their stdout and files), which sample the speedup run
    # on its phase grid
    workloads = load_perfbench("workloads")
    pinned = workloads.SpeedupPinned(410, str(tmp_path))
    sweep = workloads.ConservationSweep(410, str(tmp_path))
    pipeline = workloads.ScenarioPipeline(410, str(tmp_path / "pipeline"))
    cases = [(pinned, i) for i in range(len(pinned.items))]
    cases += [(sweep, i) for i, item in enumerate(sweep.items)
              if item.name.endswith("#0")]
    cases += [(pipeline, i) for i, item in enumerate(pipeline.items)
              if item.name in ("inertial", "manifold", "speedup")]
    assert len(cases) == 8 + len(sweep.links) + 3
    untraced = [wl.fingerprint(i, wl.items[i].run(None)) for wl, i in cases]
    tracer = load_perfbench("tracing").Tracer()
    tracer.install()
    try:
        traced = [wl.fingerprint(i, wl.items[i].run(tracer))
                  for wl, i in cases]
    finally:
        tracer.uninstall()
    assert traced == untraced
    stats = tracer.take_stats()
    assert stats["rhs.reduced.calls"] > 0 and stats["rhs.full.calls"] > 0
    assert stats["rhs.manifold.calls"] > 0


def test_traced_census_and_artifact_writers(tmp_path, capsys):
    vehicle = {"m": [1.0, 1.2, 1.2, 0.8], "I": [1.5, 2.0, 2.0, 1.0],
               "a0": 0.7, "a": [0.1, 0.2, 0.3], "c": [1.05, 1.10, 0.9]}
    census = tmp_path / "census.json"
    census.write_text(json.dumps({
        "scenario": "fixed_points", "vehicle": vehicle,
        "integrator": {"t_end": 1.0}, "outputs": {"formats": ["report"]}}))
    run = tmp_path / "inertial.json"
    run.write_text(json.dumps({
        "scenario": "inertial", "vehicle": vehicle,
        "initial": {"v1": 1.0, "omega": 0.5, "phi": [0.3, -0.4, 0.2]},
        "integrator": {"t_end": 5.0}}))
    tracing = load_perfbench("tracing")
    tracer = tracing.Tracer()
    draws = 2
    tracer.install()
    try:
        assert cli.main(["fixed-points", str(census), "--draws", str(draws),
                         "--seed", "1", "--output-dir", str(tmp_path)]) == 0
        census_stats = tracer.take_stats()
        assert cli.main(["simulate", str(run), "--output-dir",
                         str(tmp_path)]) == 0
        run_stats = tracer.take_stats()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    m = tracing.layer_metrics(census_stats, {}, 1.0)
    # the draws classify the configured vehicle's block, not a new one
    assert m["analysis.census_points"] == 2 ** (3 + 1)
    assert census_stats["analysis.census_classify.calls"] == 1 + draws
    assert m["analysis.census_us_per_point"] > 0.0
    m = tracing.layer_metrics(run_stats, {}, 1.0)
    assert run_stats["scenarios.csv_write.calls"] == 1
    assert m["scenarios.csv_write_us_per_sample"] > 0.0
    assert m["scenarios.csv_bytes"] == os.path.getsize(
        tmp_path / "inertial_trajectory.csv")
    assert m["svgplot.render_calls"] == 3 and m["svgplot.render_s"] > 0.0


def test_speedup_pinned_first_item_passes_its_checks(tmp_path):
    # item 0 at the benchmark's seed, its check and its DOP853 oracle
    pytest.importorskip("scipy")
    workload = load_perfbench("workloads").SpeedupPinned(410, str(tmp_path))
    result = workload.items[0].run(None)
    assert workload.check(0, result) is None
    assert workload.check_after({0: result}) == {}


def test_conservation_sweep_first_item_passes_its_check(tmp_path):
    workload = load_perfbench("workloads").ConservationSweep(410, str(tmp_path))
    assert workload.check(0, workload.items[0].run(None)) is None


def test_scenario_pipeline_items_pass_their_checks(tmp_path):
    # the simulate, census and fit commands the workload runs, each checked
    # and fingerprinted (stdout and every written file) twice: a change to
    # the wrote lines or the files fails here, not only in the benchmark
    workload = load_perfbench("workloads").ScenarioPipeline(410, str(tmp_path))
    names = ["inertial", "manifold", "census1", "fit:inertial:energy",
             "fit:manifold:energy"]
    index = {item.name: i for i, item in enumerate(workload.items)}
    prints = []
    for _ in range(2):
        run = {}
        for name in names:
            i = index[name]
            result = workload.items[i].run(None)
            assert workload.check(i, result) is None, name
            run[name] = workload.fingerprint(i, result)
        prints.append(run)
    assert prints[0] == prints[1]
