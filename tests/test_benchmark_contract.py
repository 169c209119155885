"""The program names that the benchmark's tracer looks up.

perfbench/tracing.py patches ``dynamics.make_full_rhs`` and
``scenarios.make_manifold_rhs`` where their callers look them up, and the
workloads call ``dynamics.make_reduced_rhs``.  A refactor that renames one
of them, or stops looking it up through the module global, crashes the
traced run or silently zeroes its per-layer RHS counters; this test runs a
short traced simulation and manifold scenario to catch that.
"""

import importlib.util
import os

from multilink import dynamics, scenarios
from multilink.config import parse_config
from multilink.dynamics import PoseState, ReducedState
from multilink.integrator import IntegratorOptions
from multilink.model import zero_rotor

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_rhs_counters(reference_vehicle, reference_derived, tmp_path):
    # one trailer: no phase portrait, so only the flow itself counts
    cfg = parse_config("""{"scenario": "manifold", "sign": "plus",
        "vehicle": {"m": [1, 1], "I": [1, 1], "a0": 0.5, "a": [0.1], "c": [1.0]},
        "initial": {"phi": [2.5]}, "integrator": {"t_end": 5.0},
        "outputs": {"formats": ["csv", "report"]}}""")
    tracer = load_tracing().Tracer()
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
