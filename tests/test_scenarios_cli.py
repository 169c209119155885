import json
import math
import os
import re

import numpy as np
import pytest

from multilink import cli
from multilink.config import parse_config
from multilink.dynamics import angle_coeffs_at_phi, energy
from multilink.model import DegenerateShapeError, DerivedParams, derive_params
from multilink.scenarios import (
    csv_header,
    manifold_trajectory,
    read_trajectory_csv,
    run_scenario,
    write_trajectory_csv,
)

VEHICLE = {"m": [1, 1.2, 1.2], "I": [1.5, 2, 2], "a0": 0.7,
           "a": [0.1, 0.2], "c": [1.05, 1.10]}


def make_config(tmp_path, **doc):
    doc.setdefault("vehicle", VEHICLE)
    path = tmp_path / f"{doc['scenario']}.json"
    path.write_text(json.dumps(doc))
    return path


def test_inertial_outputs(tmp_path):
    cfg = parse_config(make_config(
        tmp_path, scenario="inertial",
        initial={"v1": 1.0, "omega": 0.5, "phi": [0.3, -0.4]},
        integrator={"t_end": 20.0},
        outputs={"directory": str(tmp_path / "out")},
    ).read_text())
    res = run_scenario(cfg)
    names = {os.path.basename(f) for f in res.files}
    assert names == {"inertial_trajectory.csv", "inertial_velocities.svg",
                     "inertial_angles.svg", "inertial_paths.svg",
                     "inertial_report.txt"}
    data = read_trajectory_csv(os.path.join(res.output_dir,
                                            "inertial_trajectory.csv"))
    assert list(data) == ["t", "v1", "omega", "phi_1", "phi_2", "x", "y",
                          "psi", "energy", "residual_max", "k"]
    # rotor-free run: energy column constant, residuals at noise level
    e = data["energy"]
    assert np.max(np.abs(e - e[0])) / e[0] < 1e-7
    assert np.max(data["residual_max"]) < 1e-10
    assert np.all(data["k"] == 0.0)


def test_csv_round_trip_bit_exact(tmp_path):
    from multilink.dynamics import PoseState, ReducedState, simulate
    from multilink.integrator import IntegratorOptions
    from multilink.model import VehicleParams, derive_params, sine_rotor

    p = VehicleParams(masses=[1, 1.2, 1.2], inertias=[1.5, 2, 2], a0=0.7,
                      a=[0.1, 0.2], c=[1.05, 1.10])
    d = derive_params(p)
    traj = simulate(p, d, sine_rotor(0.05, 1.0),
                    ReducedState(1.7, -0.3, [0.9, 0.2]), PoseState(0, 0, 0.5),
                    IntegratorOptions(t_end=7.0, rtol=1e-9, atol=1e-11))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(str(path), traj)
    data = read_trajectory_csv(str(path))
    assert np.array_equal(data["t"], traj.times)
    assert np.array_equal(data["v1"], traj.v1)
    assert np.array_equal(data["phi_2"], traj.phi[:, 1])
    assert np.array_equal(data["energy"], traj.energy)
    assert np.array_equal(data["k"], traj.rotor_momentum)


def test_deterministic_output_bytes(tmp_path):
    doc = dict(scenario="inertial",
               initial={"v1": 1.0, "omega": 0.5, "phi": [0.3, -0.4]},
               integrator={"t_end": 10.0},
               outputs={"formats": ["csv"]})
    cfg = parse_config(make_config(tmp_path, **doc).read_text())
    run_scenario(cfg, output_dir=str(tmp_path / "a"))
    run_scenario(cfg, output_dir=str(tmp_path / "b"))
    a = (tmp_path / "a" / "inertial_trajectory.csv").read_bytes()
    b = (tmp_path / "b" / "inertial_trajectory.csv").read_bytes()
    assert a == b


def test_csv_header_schema():
    assert csv_header(3) == ("t,v1,omega,phi_1,phi_2,phi_3,"
                             "x,y,psi,energy,residual_max,k")


def test_fixed_points_report(tmp_path):
    cfg = parse_config(make_config(
        tmp_path, scenario="fixed_points", integrator={"t_end": 1.0},
        outputs={"formats": ["report"]}).read_text())
    res = run_scenario(cfg, output_dir=str(tmp_path / "o"))
    report = (tmp_path / "o" / "fixed_points_report.txt").read_text()
    assert "stable_node=1" in report and "unstable_node=1" in report \
        and "saddle=6" in report
    # one row per equilibrium
    assert report.count("forward") == 4 and report.count("backward") == 4


def test_manifold_portrait(tmp_path):
    cfg = parse_config(make_config(
        tmp_path, scenario="manifold", sign="plus",
        vehicle={"m": [1, 1, 1], "I": [1, 1, 1], "a0": 0.5,
                 "a": [0.1, 0.1], "c": [1.0, 1.5]},
        initial={"v1": 1.0, "omega": 0.0, "phi": [3.0, 3.0]},
        integrator={"t_end": 40.0, "rtol": 1e-9, "atol": 1e-11},
    ).read_text())
    res = run_scenario(cfg, output_dir=str(tmp_path / "o"))
    svg = (tmp_path / "o" / "manifold_portrait.svg").read_text()
    # markers at the wrapped equilibrium grid {0, +-pi}^2
    assert svg.count("<circle") == 9
    assert svg.count("<polyline") > 20
    data = read_trajectory_csv(os.path.join(res.output_dir,
                                            "manifold_trajectory.csv"))
    # the flow converged to the aligned node; sleigh runs straight
    assert abs(data["phi_1"][-1]) < 1e-6 and abs(data["phi_2"][-1]) < 1e-6
    assert np.all(data["omega"] == 0.0)
    e = data["energy"]
    assert np.all(e == e[0])
    assert np.max(data["residual_max"]) < 1e-12


def test_manifold_portrait_skipped_for_other_n(tmp_path, capsys):
    cfg = parse_config(make_config(
        tmp_path, scenario="manifold", sign="plus",
        vehicle={"m": [1, 1], "I": [1, 1], "a0": 0.5, "a": [0.1], "c": [1.0]},
        initial={"phi": [2.5]}, integrator={"t_end": 20.0},
    ).read_text())
    res = run_scenario(cfg, output_dir=str(tmp_path / "o"))
    assert not any(f.endswith("portrait.svg") for f in res.files)
    assert "phase portrait skipped" in capsys.readouterr().out


def test_speedup_report_and_fit(tmp_path):
    # strong rotor so the fit window [1e3, t_end] is in regime
    cfg = parse_config(make_config(
        tmp_path, scenario="speedup",
        rotor={"kind": "sine", "amplitude": 2.0, "period": 1.0},
        initial={"v1": 10.0, "omega": 1.0, "phi": [0.5, 0.5]},
        integrator={"t_end": 2000.0, "rtol": 1e-8, "atol": 1e-10,
                    "sample_stride": 2},
    ).read_text())
    res = run_scenario(cfg, output_dir=str(tmp_path / "o"))
    report = (tmp_path / "o" / "speedup_report.txt").read_text()
    assert "v1 (raw): exponent" in report
    assert "omega (envelope)" in report
    assert "phi_2 (envelope)" in report
    # the strong rotor passes b v1 = J Omega long before the window ends
    assert "crossover time (b v1 = J Omega) by the finite-inertia law " \
        "anchored at t=" in report
    assert "the window ends after it" in report
    names = {os.path.basename(f) for f in res.files}
    assert "speedup_velocities.svg" in names and "speedup_paths.svg" in names
    # the scenario's default method, and how densely its samples cover a
    # rotor period in the window [1e3, 2000]
    line = re.search(r"^sampling: adaptive-rk45, (\S+) samples per rotor "
                     r"period in the fit window, so a per-period maximum can "
                     r"read up to (\S+)% below the peak \(1 - cos\(pi/n\)\)$",
                     report, re.M)
    assert line, report
    t = read_trajectory_csv(str(tmp_path / "o" / "speedup_trajectory.csv"))["t"]
    n = np.count_nonzero((t >= 1e3) & (t <= 2000.0)) / 1000.0
    assert float(line[1]) == pytest.approx(n, rel=1e-3)
    assert float(line[2]) == pytest.approx(
        100.0 * (1.0 - math.cos(math.pi / n)), rel=1e-2)


def test_manifold_m_eff_block_matches_loop():
    shipped = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                           "manifold.json")
    with open(shipped) as f:
        cfg = parse_config(f.read())
    p = cfg.vehicle
    d = derive_params(p)
    phis = np.random.default_rng(7).uniform(-4.0, 4.0, (200, p.n_links))
    times = np.linspace(0.0, 1.0, 200)
    traj = manifold_trajectory(times, phis, cfg, p, d, 1)
    m_eff = np.array([angle_coeffs_at_phi(ph, p, d)[0] for ph in phis])
    h = energy(cfg.initial, p, d)
    assert traj.v1 == pytest.approx(np.sqrt(2.0 * h / m_eff), rel=1e-15)
    # a hand-built coupling that makes m_eff vanish at theta_1 = pi/2 but not
    # at the initial state (theta_1 near pi)
    bad = DerivedParams(mass=1.0, inertia=1.0, static_moment=0.5,
                        coupling=[-2.0, 0.0])
    phis[17] = [math.pi / 2, 0.0]
    with pytest.raises(DegenerateShapeError):
        angle_coeffs_at_phi(phis[17], p, bad)
    with pytest.raises(DegenerateShapeError):
        manifold_trajectory(times, phis, cfg, p, bad, 1)


def test_speedup_short_run_skips_fit(tmp_path):
    cfg = parse_config(make_config(
        tmp_path, scenario="speedup",
        rotor={"kind": "sine", "amplitude": 0.05, "period": 1.0},
        integrator={"t_end": 50.0}, outputs={"formats": ["report"]},
    ).read_text())
    run_scenario(cfg, output_dir=str(tmp_path / "o"))
    report = (tmp_path / "o" / "speedup_report.txt").read_text()
    assert "fit skipped" in report


def test_output_dir_env_override(tmp_path, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv("MULTILINK_OUTPUT_DIR", str(target))
    cfg = parse_config(make_config(
        tmp_path, scenario="fixed_points", integrator={"t_end": 1.0},
        outputs={"formats": ["report"]}).read_text())
    res = run_scenario(cfg)
    assert res.output_dir == str(target)
    assert target.exists()


# --- command line ----------------------------------------------------------


def test_cli_simulate_and_fit(tmp_path, capsys):
    path = make_config(
        tmp_path, scenario="inertial",
        initial={"v1": 1.0, "omega": 0.5, "phi": [0.3, -0.4]},
        integrator={"t_end": 20.0}, outputs={"formats": ["csv"]})
    rc = cli.main(["simulate", str(path), "--output-dir",
                   str(tmp_path / "o")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "inertial run" in out and "wrote" in out

    csv_path = tmp_path / "o" / "inertial_trajectory.csv"
    rc = cli.main(["fit", str(csv_path), "--column", "v1",
                   "--window", "1:20"])
    assert rc == 0
    assert "v1 ~" in capsys.readouterr().out


def test_cli_fixed_points(tmp_path, capsys):
    path = make_config(tmp_path, scenario="fixed_points",
                       integrator={"t_end": 1.0},
                       outputs={"formats": ["report"]})
    rc = cli.main(["fixed-points", str(path), "--output-dir",
                   str(tmp_path / "o"), "--draws", "3", "--seed", "7"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "3/3 draws" in out


def test_cli_bad_config_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"scenario": "speedup"}')
    rc = cli.main(["simulate", str(path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_missing_file(tmp_path, capsys):
    rc = cli.main(["simulate", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


def test_cli_fit_bad_column(tmp_path, capsys):
    path = make_config(tmp_path, scenario="inertial",
                       integrator={"t_end": 5.0},
                       outputs={"formats": ["csv"]})
    assert cli.main(["simulate", str(path), "--output-dir",
                     str(tmp_path / "o")]) == 0
    capsys.readouterr()
    rc = cli.main(["fit", str(tmp_path / "o" / "inertial_trajectory.csv"),
                   "--column", "warp", "--window", "1:5"])
    assert rc == 2
    assert "warp" in capsys.readouterr().err


def test_cli_integration_failure_exit_code(tmp_path, capsys):
    # unreachable tolerance horizon: finite-time blowup inside t_end
    path = make_config(
        tmp_path, scenario="inertial",
        initial={"v1": 1e150, "omega": 1e150, "phi": [0.5, 0.5]},
        integrator={"t_end": 1e3}, outputs={"formats": ["csv"]})
    rc = cli.main(["simulate", str(path), "--output-dir", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_fit_overflow_is_handled(tmp_path, capsys):
    # the shipped speedup config ending ten periods into the fit window: the
    # phi_1 envelope fit's prefactor overflows a float
    shipped = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                           "speedup.json")
    with open(shipped) as f:
        doc = json.load(f)
    doc["integrator"]["t_end"] = 1010.0
    doc["outputs"] = {"directory": str(tmp_path / "o"),
                      "formats": ["csv", "report"]}
    path = tmp_path / "speedup.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["simulate", str(path)]) == 0
    report = (tmp_path / "o" / "speedup_report.txt").read_text()
    assert "fit skipped: power-law prefactor" in report
    # the pinned rotor's crossover (t ~ 1.8e5) lies far past this window
    assert 'the window ends before it, so the "predicted" values are the ' \
        "t -> inf limit, not what this window should show" in report
    capsys.readouterr()
    rc = cli.main(["fit", str(tmp_path / "o" / "speedup_trajectory.csv"),
                   "--column", "phi_1", "--window", "1e3:1010",
                   "--mode", "envelope", "--period", "1"])
    assert rc == 1
    assert "[1000.0, 1010.0]" in capsys.readouterr().err
