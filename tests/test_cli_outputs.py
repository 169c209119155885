"""What the scenario commands print and write, per requested format.

A table of standard output and file names: the summary line, one ``wrote``
line per artifact in the order written (CSV, the SVGs, the report), and a
directory that holds those files and no others.  The values were recorded
on the shipped configs (the speedup run shortened to t = 1200) before the
scenario runners were merged behind one writer, which must reproduce them.
"""

import json
import os
import warnings

import pytest

from multilink import cli, svgplot

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

SUMMARY = {
    "inertial": "inertial run to t=120: 90 samples, relative energy drift "
                "1.390e-11, max constraint residual 4.140e-16",
    "manifold": "manifold flow (forward) to tau=90: final angles "
                "[6.283185e+00 7.480628e-14]",
    "speedup": "speedup fits: v1 -> t^+0.005, omega -> t^-0.099, "
               "phi_1 -> t^-0.698, phi_2 -> t^-0.169",
}

# formats (None: the default, all three), files in the order written
TABLE = [
    ("inertial", None, ["inertial_trajectory.csv", "inertial_velocities.svg",
                        "inertial_angles.svg", "inertial_paths.svg",
                        "inertial_report.txt"]),
    ("inertial", ["csv"], ["inertial_trajectory.csv"]),
    ("inertial", ["report"], ["inertial_report.txt"]),
    ("inertial", ["svg", "report"], ["inertial_velocities.svg",
                                     "inertial_angles.svg",
                                     "inertial_paths.svg",
                                     "inertial_report.txt"]),
    ("manifold", None, ["manifold_trajectory.csv", "manifold_portrait.svg",
                        "manifold_report.txt"]),
    ("manifold", ["csv"], ["manifold_trajectory.csv"]),
    ("manifold", ["report"], ["manifold_report.txt"]),
    ("manifold", ["svg", "report"], ["manifold_portrait.svg",
                                     "manifold_report.txt"]),
    ("speedup", None, ["speedup_trajectory.csv", "speedup_velocities.svg",
                       "speedup_angles.svg", "speedup_paths.svg",
                       "speedup_report.txt"]),
    ("speedup", ["csv"], ["speedup_trajectory.csv"]),
    ("speedup", ["report"], ["speedup_report.txt"]),
    ("speedup", ["svg", "report"], ["speedup_velocities.svg",
                                    "speedup_angles.svg", "speedup_paths.svg",
                                    "speedup_report.txt"]),
    ("fixed_points", None, ["fixed_points_report.txt"]),
]

# the shipped manifold run with three trailers: no portrait
N3_VEHICLE = {"m": [1.0, 1.0, 1.0, 1.0], "I": [1.0, 1.0, 1.0, 1.0],
              "a0": 0.5, "a": [0.1, 0.1, 0.1], "c": [1.0, 1.5, 1.2]}
N3_REPORT = ("manifold flow (forward) to tau=90: final angles "
             "[-2.174536e-16 -5.827781e-15 -6.283185e+00]\n")
N3_WARNING = "warning: phase portrait skipped (N != 2)\n"

FIXED_POINTS_STDOUT = """\
straight-line equilibria for N=2 (8 points)
------------------------------------------------------------------------
forward, phi=(0, 0)                      stable_node    [-0.351759, -0.952381, -0.909091]
forward, phi=(0, pi)                     saddle         [-0.351759, -0.952381, +0.909091]
forward, phi=(pi, 0)                     saddle         [-0.351759, +0.952381, -0.909091]
forward, phi=(pi, pi)                    saddle         [-0.351759, +0.952381, +0.909091]
backward, phi=(0, 0)                     unstable_node  [+0.351759, +0.952381, +0.909091]
backward, phi=(0, pi)                    saddle         [+0.351759, +0.952381, -0.909091]
backward, phi=(pi, 0)                    saddle         [+0.351759, -0.952381, +0.909091]
backward, phi=(pi, pi)                   saddle         [+0.351759, -0.952381, -0.909091]
------------------------------------------------------------------------
counts: stable_node=1, unstable_node=1, saddle=6
random-parameter suite (seed=7): 2/2 draws with exactly one stable and one unstable node
"""
# simulate draws no random vehicles, and the census summary is its report,
# which simulate prints as fixed-points does, with no empty line after it
SUMMARY["fixed_points"] = FIXED_POINTS_STDOUT.rsplit("\n", 2)[0]


# shipped configs with edited fields at the edges of the float range: each
# runs (exit 0), or its config fails with an error naming the field (exit 2)
EDGES = [
    # a y so large that y - 1 == y: the paths plot's y range had no span
    ("inertial", {"initial": {"y": 8.84e37}}, 0, None),
    # paths at the largest doubles: the equal-aspect centre and limits of
    # the paths plot overflowed to NaN coordinates
    ("inertial", {"initial": {"x": -1.7976931348623157e308,
                              "y": 1.7976931348623157e308}}, 0, None),
    # the finite-inertia law's crossover speed overflows when cubed: the
    # report says so
    ("speedup", {"vehicle": {"a0": 1.2e-223}, "integrator": {"t_end": 2.0}},
     0, None),
    # the finite-inertia law's (J Omega)^2 overflows: the report says so
    ("speedup", {"vehicle": {"I": [1e300, 2.0, 2.0]},
                 "integrator": {"t_end": 2.0}}, 0, None),
    # the speedup constant 3 <kdot^2> / (b m) past the float range: a static
    # moment so small that it overflows, b m rounding to 0, b m rounding to
    # inf, and a rotor amplitude whose mean square rate is finite but not
    # once divided by a light sleigh's b m
    ("speedup", {"vehicle": {"a0": 1e-310}}, 2, "'vehicle' and 'rotor'"),
    ("speedup", {"vehicle": {"m": [0.4, 0.01, 0.01], "a0": 1e-323}}, 2,
     "'vehicle' and 'rotor'"),
    ("speedup", {"vehicle": {"m": [1e300, 1.2, 1.2]}}, 2,
     "'vehicle' and 'rotor'"),
    ("speedup", {"vehicle": {"m": [0.2, 0.2, 0.2]},
                 "rotor": {"amplitude": 1e153}}, 2, "'vehicle' and 'rotor'"),
    # a balanced sleigh has a zero eigenvalue: no node/saddle classification
    ("fixed_points", {"vehicle": {"a0": 0.0}}, 2, "'vehicle.a0'"),
    # the manifold's energy level overflows
    ("manifold", {"initial": {"omega": 3.6e168}}, 2, "'initial'"),
]


def shipped(scenario, formats):
    with open(os.path.join(CONFIGS, f"{scenario}.json")) as f:
        doc = json.load(f)
    doc["outputs"] = {} if formats is None else {"formats": formats}
    if scenario == "speedup":
        doc["integrator"]["t_end"] = 1200.0
    return doc


def run_cli(tmp_path, capsys, command, doc, *extra):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    rc = cli.main([command, str(path), "--output-dir", str(out), *extra])
    captured = capsys.readouterr()
    return rc, captured.out.replace(str(out), "{out}"), sorted(os.listdir(out))


def wrote(names):
    return "".join(f"wrote {{out}}/{name}\n" for name in names)


@pytest.mark.parametrize("scenario, formats, names", TABLE,
                         ids=[f"{s}-{'+'.join(f or ['all'])}"
                              for s, f, _ in TABLE])
def test_simulate_stdout_and_files(tmp_path, capsys, scenario, formats, names):
    rc, stdout, files = run_cli(tmp_path, capsys, "simulate",
                                shipped(scenario, formats))
    assert rc == 0
    assert stdout == SUMMARY[scenario] + "\n" + wrote(names)
    assert files == sorted(names)


@pytest.mark.parametrize("formats, warned, names", [
    (None, True, ["manifold_trajectory.csv", "manifold_report.txt"]),
    (["csv", "report"], False, ["manifold_trajectory.csv",
                                "manifold_report.txt"]),
], ids=["all", "csv+report"])
def test_manifold_without_portrait(tmp_path, capsys, formats, warned, names):
    doc = shipped("manifold", formats)
    doc["vehicle"] = N3_VEHICLE
    doc["initial"]["phi"] = [3.0, 3.1, 0.2]
    rc, stdout, files = run_cli(tmp_path, capsys, "simulate", doc)
    assert rc == 0
    # the warning stands before the summary, which alone names the skip;
    # the report is the summary without that note
    summary = (N3_REPORT[:-1]
               + " (phase portrait skipped: needs exactly 2 trailer links)\n")
    assert stdout == (N3_WARNING if warned else "") + summary + wrote(names)
    assert files == sorted(names)
    assert (tmp_path / "out" / "manifold_report.txt").read_text() == N3_REPORT


def test_fixed_points_stdout_and_files(tmp_path, capsys):
    with open(os.path.join(CONFIGS, "fixed_points.json")) as f:
        doc = json.load(f)
    rc, stdout, files = run_cli(tmp_path, capsys, "fixed-points", doc,
                                "--draws", "2", "--seed", "7")
    assert rc == 0
    assert stdout == FIXED_POINTS_STDOUT + wrote(["fixed_points_report.txt"])
    assert files == ["fixed_points_report.txt"]


@pytest.mark.parametrize("scenario", ["inertial", "manifold", "speedup"])
def test_no_svg_format_renders_nothing(tmp_path, capsys, monkeypatch,
                                       scenario):
    calls = []
    render = svgplot.LinePlot.render
    monkeypatch.setattr(svgplot.LinePlot, "render",
                        lambda plot: calls.append(plot) or render(plot))
    doc = shipped(scenario, ["csv", "report"])
    doc["integrator"]["t_end"] = 5.0
    assert run_cli(tmp_path, capsys, "simulate", doc)[0] == 0
    assert calls == []
    # and every figure is drawn once where SVGs are asked for
    doc["outputs"]["formats"] = ["svg"]
    assert run_cli(tmp_path, capsys, "simulate", doc)[0] == 0
    assert len(calls) == (1 if scenario == "manifold" else 3)


@pytest.mark.parametrize("scenario, edits, code, named", EDGES,
                         ids=[f"{s}-{'+'.join(k for b in e.values() for k in b)}"
                              for s, e, _, _ in EDGES])
def test_edge_documents_run_or_fail_typed(tmp_path, capsys, scenario, edits,
                                          code, named):
    doc = shipped(scenario, None)
    for block, fields in edits.items():
        doc[block] = {**doc.get(block, {}), **fields}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["simulate", str(path), "--output-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == code
    if code:
        assert err.startswith(f"error: {named} ") and not out.exists()
    else:
        assert err == ""
        names = next(n for s, f, n in TABLE if s == scenario and f is None)
        assert sorted(os.listdir(out)) == sorted(names)
        for name in names:
            if name.endswith(".svg"):
                assert "nan" not in (out / name).read_text()
