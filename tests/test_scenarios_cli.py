import contextlib
import dataclasses
import io
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from multilink import analysis, cli
from multilink.analysis import (
    DegenerateSpectrumError,
    FixedPointKind,
    PeriodError,
    classify_fixed_point,
    enumerate_fixed_points,
    fit_power_law,
)
from multilink.config import ConfigError, parse_config
from multilink.dynamics import (
    Trajectory,
    angle_coeffs_at_phi,
    energy,
    make_reduced_rhs,
)
from multilink.integrator import IntegratorOptions, integrate
from multilink.model import (
    DegenerateShapeError,
    DerivedParams,
    VehicleParams,
    derive_params,
    random_vehicle,
)
from multilink.scenarios import (
    DEFAULT_FIT_WINDOW,
    _sampling_line,
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(0, 12), rows=st.integers(1, 6), data=st.data())
def test_csv_round_trip_bit_exact_random(tmp_path_factory, both_readers, n,
                                         rows, data):
    # any finite values, signed zeros and subnormals included, at N = 0..12;
    # the compiled parser and numpy.loadtxt read the same bits
    table = data.draw(arrays(np.float64, (rows, n + 9), elements=st.floats(
        allow_nan=False, allow_infinity=False)))
    t, v1, omega, *rest = table.T
    traj = Trajectory(t, v1, omega, table[:, 3:n + 3], *rest[n:])
    path = tmp_path_factory.mktemp("csv") / "traj.csv"
    write_trajectory_csv(str(path), traj)
    fast, slow = both_readers(lambda: read_trajectory_csv(str(path)))
    assert fast == slow
    assert [name for name, *_ in fast] == csv_header(n).split(",")
    assert np.stack([np.frombuffer(b) for *_, b in fast],
                    axis=1).tobytes() == table.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(0, 12), rows=st.integers(1, 6), data=st.data())
def test_csv_column_read_bit_exact_random(tmp_path_factory, both_readers, n,
                                          rows, data):
    # any subset of the columns reads the bits of the full read, in header
    # order and with t always, on both readers
    table = data.draw(arrays(np.float64, (rows, n + 9), elements=st.floats()))
    t, v1, omega, *rest = table.T
    path = tmp_path_factory.mktemp("csv") / "traj.csv"
    write_trajectory_csv(str(path), Trajectory(t, v1, omega, table[:, 3:n + 3],
                                               *rest[n:]))
    names = csv_header(n).split(",")
    wanted = data.draw(st.lists(st.sampled_from(names), unique=True))
    full, full_slow = both_readers(lambda: read_trajectory_csv(str(path)))
    read, read_slow = both_readers(
        lambda: read_trajectory_csv(str(path), wanted))
    assert full == full_slow and read == read_slow
    assert [name for name, *_ in read] == [name for name in names
                                           if name == "t" or name in wanted]
    whole = {name: column for name, *column in full}
    for name, *column in read:
        assert column == whole[name]


def csv_text(rows):
    """A trajectory CSV of the sleigh alone (9 columns) with the given rows
    of fields."""
    return "\n".join([csv_header(0),
                      *(",".join(map(str, r)) for r in rows)]) + "\n"


@pytest.mark.parametrize("rows, full, part", [
    ([], "no rows under the header", "no rows under the header"),
    # a field short, a field over, and one of each: no change in the total
    ([range(9), range(8)], "from 9 to 8 at row 2", "index 8 at row 2"),
    ([range(9), range(10)], "from 9 to 10 at row 2", "17 commas in 2 rows"),
    ([range(8), range(10)], "from 8 to 10 at row 2", "index 8 at row 1"),
    ([range(9), [1] * 8 + ["x"]], "could not convert", "could not convert"),
])
def test_csv_reader_rejects_ragged_rows(tmp_path, capsys, both_readers, rows,
                                        full, part):
    # the same error with the compiled parser loaded and without
    path = tmp_path / "bad.csv"
    path.write_text(csv_text(rows))
    for columns, message in ((None, full), (["v1"], part), (["k"], part)):
        fast, slow = both_readers(
            lambda: read_trajectory_csv(str(path), columns))
        assert fast == slow
        assert fast[0] is ValueError and re.search(message, fast[1])
        assert fast[1].startswith(f"{path}: ")

    # the fit command parses t and its column: an error exits 1
    def fit():
        return cli.main(["fit", str(path), "--column", "v1"]), \
            capsys.readouterr()

    fast, slow = both_readers(fit)
    assert fast == slow
    assert fast[0] == 1 and fast[1].err.startswith(f"error: {path}: ")


def test_csv_reader_rejects_unknown_column(tmp_path, capsys, both_readers):
    path = tmp_path / "a.csv"
    path.write_text(csv_text([range(9)]))
    fast, slow = both_readers(
        lambda: read_trajectory_csv(str(path), ["v1", "warp"]))
    names = sorted(csv_header(0).split(","))
    assert fast == slow == (ConfigError,
                            f"column 'warp' not in {names} of {path}")

    def fit(column):
        return cli.main(["fit", str(path), "--column", column]), \
            capsys.readouterr().err

    fast, slow = both_readers(lambda: fit("warp"))
    assert fast == slow == (2, f"error: column 'warp' not in {names} of "
                               f"{path}\n")
    # a header without t
    path.write_text("time,v1\n1,2\n")
    fast, slow = both_readers(lambda: fit("v1"))
    assert fast == slow
    assert fast[0] == 2 and "column 't' not in ['time', 'v1']" in fast[1]


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


def census_report_oracle(p, seed, draws):
    """The fixed-point report written row by row with one format per row,
    every point classified alone and every draw enumerating its own
    equilibria."""
    d = derive_params(p)
    points = enumerate_fixed_points(p.n_links)
    row = "%-40s %-14s [" + ", ".join(["%+.6f"] * (p.n_links + 1)) + "]"
    lines = [f"straight-line equilibria for N={p.n_links} "
             f"({len(points)} points)", "-" * 72]
    kinds = []
    for fp in points:
        cls = classify_fixed_point(fp, p, d)
        kinds.append(cls.kind)
        lines.append(row % (fp.describe(), cls.kind.value,
                            *cls.eigenvalues.tolist()))
    lines.append("-" * 72)
    lines.append("counts: " + ", ".join(f"{k.value}={kinds.count(k)}"
                                        for k in FixedPointKind))
    if draws > 0:
        rng = np.random.default_rng(seed)
        ok = 0
        for _ in range(draws):
            rp = random_vehicle(rng, p.n_links)
            rd = derive_params(rp)
            kinds = [classify_fixed_point(fp, rp, rd).kind
                     for fp in enumerate_fixed_points(rp.n_links)]
            ok += (kinds.count(FixedPointKind.STABLE_NODE) == 1
                   and kinds.count(FixedPointKind.UNSTABLE_NODE) == 1)
        lines.append(f"random-parameter suite (seed={seed}): {ok}/{draws} "
                     f"draws with exactly one stable and one unstable node")
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(0, 10), vehicle_seed=st.integers(0, 2 ** 32 - 1),
       tiny_moment=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       draws=st.integers(0, 3))
# N = 9: the all-zero forward where-text is 40 characters, the %-40s width;
# N = 11 and 12 lie past the drawn range, and a config accepts any N >= 1
@example(n=9, vehicle_seed=9, tiny_moment=False, seed=9, draws=1)
@example(n=11, vehicle_seed=11, tiny_moment=True, seed=11, draws=1)
@example(n=12, vehicle_seed=12, tiny_moment=False, seed=12, draws=2)
def test_census_report_matches_row_oracle(tmp_path_factory, n, vehicle_seed,
                                          tiny_moment, seed, draws):
    p = random_vehicle(np.random.default_rng(vehicle_seed), n)
    if tiny_moment:
        # b / J underflows: the first eigenvalue column holds -0.0 and 0.0
        p = VehicleParams(masses=[1.0, *p.masses[1:]],
                          inertias=[4.0, *p.inertias[1:]], a0=5e-324,
                          a=p.a, c=p.c)
        assert derive_params(p).static_moment / derive_params(p).inertia == 0.0
    doc = {"scenario": "fixed_points",
           "vehicle": {"m": p.masses.tolist(), "I": p.inertias.tolist(),
                       "a0": p.a0, "a": p.a.tolist(), "c": p.c.tolist()},
           "integrator": {"t_end": 1.0}, "outputs": {"formats": ["report"]}}
    out = tmp_path_factory.mktemp("census")
    res = run_scenario(parse_config(json.dumps(doc)), output_dir=str(out),
                       seed=seed, draws=draws)
    expect = census_report_oracle(p, seed, draws)
    # line by line: a diff of the whole report would take pytest minutes
    got = res.summary.split("\n")
    assert len(got) == len(expect.split("\n"))
    for k, (line, want) in enumerate(zip(got, expect.split("\n"))):
        assert line == want, f"line {k}"
    assert (out / "fixed_points_report.txt").read_bytes() == expect.encode()


BALANCED = {"m": [1, 1], "I": [1, 1], "a0": 0.0, "a": [0.1], "c": [1.0]}


def test_fixed_points_balanced_sleigh_rejected(tmp_path, monkeypatch):
    # the config names the field, as the speedup scenario's does
    with pytest.raises(ConfigError, match="'vehicle.a0' 0 balances"):
        parse_config(make_config(
            tmp_path, scenario="fixed_points", vehicle=BALANCED,
            integrator={"t_end": 1.0}).read_text())
    cfg = parse_config(make_config(
        tmp_path, scenario="fixed_points", vehicle=dict(BALANCED, a0=0.5),
        integrator={"t_end": 1.0}).read_text())
    # the run of a config built without the parser
    balanced = dataclasses.replace(cfg.vehicle, a0=0.0)
    with pytest.raises(DegenerateSpectrumError):
        run_scenario(dataclasses.replace(cfg, vehicle=balanced,
                                         derived=derive_params(balanced)),
                     output_dir=str(tmp_path / "o"))
    # the random-parameter draws classify their own vehicles
    monkeypatch.setattr("multilink.model.random_vehicle",
                        lambda rng, n: balanced)
    with pytest.raises(DegenerateSpectrumError):
        run_scenario(cfg, output_dir=str(tmp_path / "o"), seed=1, draws=1)


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
    # how densely the samples cover a rotor period in the window [1e3, 2000]
    line = re.search(r"^sampling: (\S+) samples per rotor "
                     r"period in the fit window, so a per-period maximum can "
                     r"read up to (\S+)% below the peak \(1 - cos\(pi/n\)\)$",
                     report, re.M)
    assert line, report
    t = read_trajectory_csv(str(tmp_path / "o" / "speedup_trajectory.csv"))["t"]
    n = np.count_nonzero((t >= 1e3) & (t <= 2000.0)) / 1000.0
    assert float(line[1]) == pytest.approx(n, rel=1e-3)
    assert float(line[2]) == pytest.approx(
        100.0 * (1.0 - math.cos(math.pi / n)), rel=1e-2)


def vehicle_doc(p):
    return {"m": p.masses.tolist(), "I": p.inertias.tolist(),
            "a0": float(p.a0), "a": p.a.tolist(), "c": p.c.tolist()}


@pytest.mark.parametrize("vehicle, initial", [
    (VEHICLE, {"v1": 10.0, "omega": 1.0, "phi": [0.5, 0.5]}),
    *[(vehicle_doc(random_vehicle(np.random.default_rng(seed), 2)),
       {"v1": 5.0}) for seed in range(3)],
], ids=["pinned", "seed0", "seed1", "seed2"])
def test_phase_grid_maxima_within_the_sampling_bound(vehicle, initial):
    # the speedup scenario's samples, on its grid of rotor phase (sample
    # stride 1 and the shipped 2), against a reference stepped at period /
    # 520 with rtol = atol = 1e-10: each per-period maximum of |omega| and
    # |phi_i| over periods 100 to 298 reads at most the bound that the
    # report's sampling line prints below the reference's
    doc = {"scenario": "speedup", "vehicle": vehicle, "initial": initial,
           "rotor": {"kind": "sine", "amplitude": 0.05, "period": 1.0}}
    window = (100.0, 299.0)

    def parse(stride):
        return parse_config(json.dumps({**doc, "integrator": {
            "t_end": 300.0, "rtol": 1e-8, "atol": 1e-8,
            "sample_stride": stride}}))

    def maxima(sol):
        inside = (sol.times >= window[0]) & (sol.times < window[1])
        return [analysis.envelope_points(sol.times[inside],
                                         sol.states[inside, col], 1.0)[1]
                for col in range(1, sol.states.shape[1])]

    cfg = parse(1)
    rhs = make_reduced_rhs(cfg.vehicle, cfg.derived, cfg.rotor)
    y0 = cfg.initial.as_array()
    # every step of the reference is a sample: no grid
    ref = integrate(rhs, y0, IntegratorOptions(t_end=300.0, rtol=1e-10,
                                               atol=1e-10, hmax=1 / 520))
    assert ref.times.size > 520 * 300
    ref = maxima(ref)
    for stride in (1, 2):
        sol = integrate(rhs, y0, parse(stride).integrator)
        line = _sampling_line(sol.times, 1.0, window)
        bound = float(re.search(r"up to (\S+)% below", line)[1]) / 100.0
        for got, want in zip(maxima(sol), ref):
            assert got.size == want.size == 199
            assert np.max(1.0 - got / want) <= bound, (stride, line)


def test_speedup_run_predicts_once(tmp_path, monkeypatch):
    # the config builds the speedup law; the run's report, crossover line
    # and figures reuse it
    calls = []
    build = analysis.SpeedupLaw.of
    monkeypatch.setattr(analysis.SpeedupLaw, "of",
                        lambda *a: calls.append(a) or build(*a))
    cfg = parse_config(make_config(
        tmp_path, scenario="speedup",
        rotor={"kind": "sine", "amplitude": 0.05, "period": 1.0},
        initial={"v1": 10.0, "omega": 1.0, "phi": [0.5, 0.5]},
        integrator={"t_end": 5.0},
    ).read_text())
    assert len(calls) == 1 and cfg.law is not None
    run_scenario(cfg, output_dir=str(tmp_path / "o"))
    report = (tmp_path / "o" / "speedup_report.txt").read_text()
    assert "crossover time (b v1 = J Omega) by the finite-inertia law" in report
    assert len(calls) == 1


def test_manifold_m_eff_block_matches_loop():
    shipped = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                           "manifold.json")
    with open(shipped) as f:
        cfg = parse_config(f.read())
    p = cfg.vehicle
    d = derive_params(p)
    phis = np.random.default_rng(7).uniform(-4.0, 4.0, (200, p.n_links))
    times = np.linspace(0.0, 1.0, 200)
    traj = manifold_trajectory(times, phis, cfg, d)
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
        manifold_trajectory(times, phis, cfg, bad)


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
    # without --window, fit takes the speedup report's window
    args = cli.build_parser().parse_args(["fit", str(csv_path)])
    assert tuple(map(float, args.window.split(":"))) == DEFAULT_FIT_WINDOW


def test_cli_calls_in_one_process_repeat(tmp_path, capsys):
    # main's parser is built once per process: every call, a rejected one
    # among them, leaves the next call its first run's output
    path = make_config(
        tmp_path, scenario="inertial",
        initial={"v1": 1.0, "omega": 0.5, "phi": [0.3, -0.4]},
        integrator={"t_end": 20.0})
    out_dir = tmp_path / "o"
    simulate = ["simulate", str(path), "--output-dir", str(out_dir)]
    fit = ["fit", str(out_dir / "inertial_trajectory.csv"), "--column",
           "energy", "--window", "1:20"]
    bad_fit = fit[:-1] + ["1-20"]

    def run(argv):
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # rejected by argparse itself
            rc = e.code
        out, err = capsys.readouterr()
        files = {name: (out_dir / name).read_bytes()
                 for name in sorted(os.listdir(out_dir))}
        return rc, out, err, files

    first = {}
    calls = [("simulate", simulate), ("fit", fit), ("bad_fit", bad_fit),
             ("no_config", ["simulate"])]
    for name, argv in calls + calls:
        result = run(argv)
        assert result == first.setdefault(name, result)
    assert first["simulate"][0] == first["fit"][0] == 0
    assert len(first["simulate"][3]) == 5 and "energy ~" in first["fit"][1]
    assert first["bad_fit"][:3] == (
        2, "", "error: --window must be 'lo:hi', got '1-20'\n")
    assert first["no_config"][0] == 2 and "config" in first["no_config"][2]


def test_cli_fixed_points(tmp_path, capsys):
    path = make_config(tmp_path, scenario="fixed_points",
                       integrator={"t_end": 1.0},
                       outputs={"formats": ["report"]})
    rc = cli.main(["fixed-points", str(path), "--output-dir",
                   str(tmp_path / "o"), "--draws", "3", "--seed", "7"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "3/3 draws" in out


@pytest.mark.parametrize("argv, name, value", [
    # used to exit 0 after running no draws
    (["--draws", "-3"], "--draws", -3),
    # used to exit 1 with numpy's error on the seed
    (["--seed", "-1", "--draws", "1"], "--seed", -1),
], ids=["draws", "seed"])
def test_cli_negative_draws_exit_code(tmp_path, capsys, argv, name, value):
    path = make_config(tmp_path, scenario="fixed_points",
                       integrator={"t_end": 1.0},
                       outputs={"directory": str(tmp_path / "o")})
    assert cli.main(["fixed-points", str(path), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {name} must be a non-negative integer, "
                            f"got {value}\n")
    assert not (tmp_path / "o").exists()


def test_cli_unseeded_draws_print_their_seed(tmp_path, capsys):
    path = make_config(tmp_path, scenario="fixed_points",
                       integrator={"t_end": 1.0},
                       outputs={"formats": ["report"]})
    report = tmp_path / "o" / "fixed_points_report.txt"
    argv = ["fixed-points", str(path), "--output-dir", str(tmp_path / "o"),
            "--draws", "3"]
    assert cli.main(argv) == 0
    first = report.read_bytes()
    seed = re.search(r"random-parameter suite \(seed=(\d+)\)",
                     capsys.readouterr().out).group(1)
    assert cli.main([*argv, "--seed", seed]) == 0
    assert report.read_bytes() == first


def test_cli_fixed_points_rejects_other_scenario(capsys):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                        "inertial.json")
    assert cli.main(["fixed-points", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: config declares scenario 'inertial'; "
                            "expected 'fixed_points'\n")


def test_cli_bad_config_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"scenario": "speedup"}')
    rc = cli.main(["simulate", str(path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {"scenario": "manifold", "sign": "plus",
     "vehicle": {"m": [1.0], "I": [1.5], "a0": 0.7, "a": [], "c": []}},
    {"scenario": "speedup",
     "rotor": {"kind": "sine", "amplitude": 0.05, "period": 1e-308}},
    {"scenario": "speedup", "rotor": {"kind": "sine", "amplitude": 1e308}},
    # a finite peak rate whose square, taken by mean_sq_rate, overflows
    {"scenario": "speedup", "rotor": {"kind": "sine", "amplitude": 1e200}},
    # no speedup: a constant rotor momentum (the squared rate of 1e-200
    # underflows), or a balanced sleigh
    {"scenario": "speedup", "rotor": {"kind": "sine", "amplitude": 0.0}},
    {"scenario": "speedup", "rotor": {"kind": "sine", "amplitude": 1e-200}},
    {"scenario": "speedup", "rotor": {"kind": "sine", "amplitude": 0.05},
     "vehicle": dict(VEHICLE, a0=0.0)},
    # a step cap below the step floor 1e-14 * t_end
    {"scenario": "inertial", "integrator": {"t_end": 100.0, "hmax": 1e-13}},
    # no directory to make
    {"scenario": "inertial", "outputs": {"directory": ""}},
])
def test_cli_unusable_config_exit_code(tmp_path, capsys, doc):
    # each used to fail inside the run, with exit code 1
    path = make_config(tmp_path, **{"integrator": {"t_end": 1.0},
                                    "outputs": {"directory": str(tmp_path / "o")},
                                    **doc})
    assert cli.main(["simulate", str(path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_removed_method_exit_code(tmp_path, capsys):
    # there is one pair and no method option; a config naming one is
    # rejected
    path = make_config(tmp_path, scenario="inertial",
                       integrator={"t_end": 1.0, "method": "fixed-rk4"},
                       outputs={"directory": str(tmp_path / "o")})
    assert cli.main(["simulate", str(path)]) == 2
    assert "unknown key(s) ['method']" in capsys.readouterr().err


@pytest.mark.parametrize("vehicle", [VEHICLE, {"m": [1.0], "I": [1.5],
                                               "a0": 0.7, "a": [], "c": []}],
                         ids=["N=2", "N=0"])
def test_cli_non_finite_state_exit_code(tmp_path, capsys, vehicle):
    # a rotor this strong drives the stages to Inf and NaN within the first
    # steps; that used to end in "effective longitudinal inertia nan <= 0"
    # (N = 2) or "math domain error" (N = 0)
    path = make_config(tmp_path, scenario="speedup", vehicle=vehicle,
                       rotor={"kind": "sine", "amplitude": 1e150},
                       integrator={"t_end": 1.0},
                       outputs={"directory": str(tmp_path / "o")})
    assert cli.main(["simulate", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: right-hand side or state not finite near t=0.0\n")
    # the directory is made only after the run succeeds
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("argv, rc, err", [
    (["--window", "100:101", "--mode", "envelope"], 2,
     "error: --period: envelope mode needs the rotor period\n"),
    (["--window", "5:2"], 1,
     "error: fit window [5.0, 2.0] must have 0 < t_lo < t_hi\n"),
    (["--window", "nan:101"], 1,
     "error: fit window [nan, 101.0] must have 0 < t_lo < t_hi\n"),
], ids=["no-period", "reversed", "nan"])
def test_cli_fit_argument_errors_before_the_window_count(tmp_path, capsys,
                                                         argv, rc, err):
    # a window with no sample in it: the arguments are named first
    path = tmp_path / "series.csv"
    path.write_text("t,v1\n"
                    + "".join(f"{k}.0,{k + 1}.0\n" for k in range(40)))
    assert cli.main(["fit", str(path), *argv]) == rc
    assert capsys.readouterr() == ("", err)


def test_cli_integration_failure_exit_code(tmp_path, capsys):
    # unreachable tolerance horizon: finite-time blowup inside t_end
    path = make_config(
        tmp_path, scenario="inertial",
        initial={"v1": 1e150, "omega": 1e150, "phi": [0.5, 0.5]},
        integrator={"t_end": 1e3}, outputs={"formats": ["csv"]})
    rc = cli.main(["simulate", str(path), "--output-dir", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@st.composite
def fit_inputs(draw):
    """A series (any, or a sampled power law that may oscillate and hold
    one odd value), a window (its span, between two of its times, or any),
    a mode and a period (any, or up to about 30 sample spacings)."""
    edge = st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf, 5e-324])
    if draw(st.integers(0, 2)) == 2:
        n = draw(st.integers(0, 60))
        t = np.sort(draw(arrays(np.float64, n, elements=st.floats(
            -10.0, 1e6, allow_nan=False))))
        v = draw(arrays(np.float64, n, elements=st.floats()))
        dt = 1.0
    else:
        n = draw(st.integers(30, 60))
        dt = draw(st.floats(1e-3, 10.0))
        t = draw(st.floats(1e-3, 1e4)) + dt * np.arange(n)
        v = draw(st.floats(1e-3, 1e3)) * t ** draw(st.floats(-2.0, 2.0))
        if draw(st.booleans()):
            v *= np.cos(t)
        if draw(st.booleans()):
            v[draw(st.integers(0, n - 1))] = draw(edge)
    pick = draw(st.sampled_from(["span", "span", "samples", "any"]))
    if n and pick == "span":
        window = (float(t[0]), float(t[-1]))
    elif n and pick == "samples":
        window = tuple(sorted(draw(st.sampled_from(t.tolist()))
                              for _ in range(2)))
    else:
        window = (draw(st.floats() | edge), draw(st.floats() | edge))
    mode = draw(st.sampled_from(["raw", "envelope"]))
    period = draw(st.none() | edge | st.floats()
                  | st.floats(0.1, 30.0).map(lambda k: k * dt))
    return t, v, window, mode, period


@settings(max_examples=200, deadline=None, derandomize=True)
@given(args=fit_inputs())
def test_fit_is_finite_or_names_the_argument(tmp_path_factory, args):
    t, v, window, mode, period = args
    try:
        fit = fit_power_law(t, v, window, mode=mode, period=period)
    except PeriodError as e:
        expect = 2, "", f"error: --period: {e}\n"
        assert "period" in str(e)
    except ValueError as e:
        expect = 1, "", f"error: {e}\n"
        assert re.search(r"\b(window|values)\b", str(e)), e
    else:
        assert fit.n_points >= 2
        assert math.isfinite(fit.exponent) and math.isfinite(fit.prefactor)
        expect = 0, (f"v1 ~ {fit.prefactor:.6g} * t^{fit.exponent:+.5f} (r^2 "
                     f"{fit.r_squared:.6f}, {fit.n_points} points, mode {mode})"
                     f"\n"), ""
    # the command line, on the series written out and read back bit-exactly
    path = tmp_path_factory.mktemp("fit") / "series.csv"
    path.write_text("t,v1\n" + "".join(f"{a:.17g},{b:.17g}\n"
                                       for a, b in zip(t, v)))
    argv = ["fit", str(path), "--column", "v1", f"--window={window[0]!r}:"
            f"{window[1]!r}", "--mode", mode]
    argv += [] if period is None else [f"--period={period!r}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if not t.size:
        expect = 1, "", f"error: {path}: no rows under the header\n"
    assert (rc, out.getvalue(), err.getvalue()) == expect


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
