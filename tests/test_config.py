import json
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multilink import cli
from multilink.config import ConfigError, parse_config
from multilink.model import sine_rotor, zero_rotor

BASE = {
    "scenario": "inertial",
    "vehicle": {"m": [1, 1.2, 1.2], "I": [1.5, 2, 2], "a0": 0.7,
                "a": [0.1, 0.2], "c": [1.05, 1.10]},
    "initial": {"v1": 10, "omega": 1, "phi": [0.5, 0.5]},
    "integrator": {"t_end": 100.0},
}


def cfg_text(**overrides):
    doc = {**{k: (dict(v) if isinstance(v, dict) else v)
              for k, v in BASE.items()}, **overrides}
    return json.dumps(doc)


def test_minimal_inertial_config():
    cfg = parse_config(cfg_text())
    assert cfg.scenario == "inertial"
    assert cfg.vehicle.n_links == 2
    assert cfg.initial.v1 == 10.0
    assert cfg.initial.phi == pytest.approx([0.5, 0.5], abs=0)
    assert cfg.rotor == zero_rotor()
    # defaults
    assert cfg.integrator.rtol == 1e-10
    assert cfg.integrator.atol == 1e-12
    assert cfg.outputs.directory == "out"
    assert set(cfg.outputs.formats) == {"csv", "svg", "report"}
    assert cfg.pose.x == 0.0 and cfg.pose.psi == 0.0


@pytest.mark.parametrize("scenario, extra, hmax", [
    ("inertial", {}, math.inf),
    ("manifold", {"sign": "plus"}, math.inf),
    # the speedup scenario samples on a grid of rotor phase instead of
    # capping the steps (test_speedup_samples_on_the_phase_grid)
    ("speedup", {"rotor": {"kind": "sine", "amplitude": 0.05}}, math.inf),
    ("speedup", {"rotor": {"kind": "sine", "amplitude": 0.05, "period": 0.01}},
     math.inf),
])
def test_default_hmax_per_scenario(scenario, extra, hmax):
    cfg = parse_config(cfg_text(scenario=scenario, **extra))
    assert cfg.integrator.hmax == hmax
    assert cfg.integrator.h0 == min(1e-3, hmax)
    # an explicit value wins
    cfg = parse_config(cfg_text(scenario=scenario, **extra, integrator={
        "t_end": 1.0, "hmax": 0.5}))
    assert cfg.integrator.hmax == 0.5
    # the pair is not an option: naming one is an unknown key
    with pytest.raises(ConfigError, match=r"unknown key\(s\) \['method'\]"):
        parse_config(cfg_text(scenario=scenario, **extra, integrator={
            "t_end": 1.0, "method": "adaptive-dop853"}))


SPEEDUP = {"scenario": "speedup",
           "rotor": {"kind": "sine", "amplitude": 0.05, "period": 0.01}}


@pytest.mark.parametrize("stride", [1, 2, 7])
def test_speedup_samples_on_the_phase_grid(stride):
    # sample_stride k: one sample every k thirteenths of a rotor period, a
    # step landing on each; the steps between are the pair's own
    cfg = parse_config(cfg_text(**SPEEDUP, integrator={
        "t_end": 100.0, "sample_stride": stride}))
    opts = cfg.integrator
    assert opts.sample_interval == stride * 0.01 / 13
    assert opts.sample_stride == 1 and opts.hmax == math.inf
    # an explicit hmax still caps the steps, the grid staying the same
    cfg = parse_config(cfg_text(**SPEEDUP, integrator={
        "t_end": 100.0, "sample_stride": stride, "hmax": 1e-4}))
    assert cfg.integrator.hmax == 1e-4
    assert cfg.integrator.sample_interval == stride * 0.01 / 13
    # the other scenarios keep their stride
    cfg = parse_config(cfg_text(integrator={"t_end": 100.0,
                                            "sample_stride": stride}))
    assert cfg.integrator.sample_stride == stride
    assert cfg.integrator.sample_interval == 0.0


@pytest.mark.parametrize("stride", [10 ** 3, 10 ** 400])
def test_speedup_phase_grid_beyond_t_end(stride):
    # a grid no wider than t_end: the run samples t = 0 and t_end only, and
    # a stride beyond the float range does not overflow
    cfg = parse_config(cfg_text(**SPEEDUP, integrator={
        "t_end": 0.5, "sample_stride": stride}))
    assert cfg.integrator.sample_interval == 0.5
    assert cfg.integrator.sample_stride == 1


@pytest.mark.parametrize("period", [1e-20, 1e-13])
def test_speedup_phase_grid_below_the_step_floor(period):
    # the derived interval blames the rotor period, not an hmax the
    # document never wrote
    with pytest.raises(ConfigError, match=r"^'rotor.period' .* below the "
                                          r"step floor"):
        parse_config(cfg_text(scenario="speedup", rotor={
            "kind": "sine", "amplitude": 0.05, "period": period},
            integrator={"t_end": 1.0}))


def test_speedup_requires_rotor():
    with pytest.raises(ConfigError, match="rotor"):
        parse_config(cfg_text(scenario="speedup"))


def test_speedup_with_rotor():
    cfg = parse_config(cfg_text(scenario="speedup",
                                rotor={"kind": "sine", "amplitude": 0.05,
                                       "period": 1.0}))
    assert cfg.rotor == sine_rotor(0.05, 1.0)
    assert cfg.rotor.momentum(0.25) == pytest.approx(0.05, abs=1e-15)
    assert cfg.rotor.period == 1.0


def test_array_length_mismatch_names_lengths():
    bad = dict(BASE["vehicle"], c=[1.05])
    with pytest.raises(ConfigError, match="a=2, c=1"):
        parse_config(cfg_text(vehicle=bad))
    bad = dict(BASE["vehicle"], I=[1.5, 2])
    with pytest.raises(ConfigError, match="length 2, expected 3"):
        parse_config(cfg_text(vehicle=bad))


def test_explicit_n_checked():
    good = dict(BASE["vehicle"], N=2)
    assert parse_config(cfg_text(vehicle=good)).vehicle.n_links == 2
    bad = dict(BASE["vehicle"], N=3)
    with pytest.raises(ConfigError, match="contradicts array lengths"):
        parse_config(cfg_text(vehicle=bad))


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(cfg_text(extra=1))
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(cfg_text(vehicle=dict(BASE["vehicle"], mass=[1])))
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(cfg_text(integrator={"t_end": 1.0, "dt": 0.1}))


def test_syntax_error_reports_position():
    with pytest.raises(ConfigError, match=r"line \d+, column \d+"):
        parse_config('{"scenario": "inertial",}')


def test_manifold_requires_sign():
    with pytest.raises(ConfigError, match="sign"):
        parse_config(cfg_text(scenario="manifold"))
    cfg = parse_config(cfg_text(scenario="manifold", sign="minus"))
    assert cfg.sign == -1
    with pytest.raises(ConfigError, match="plus.*minus"):
        parse_config(cfg_text(scenario="manifold", sign="up"))
    with pytest.raises(ConfigError, match="only valid"):
        parse_config(cfg_text(sign="plus"))


def test_unknown_scenario():
    with pytest.raises(ConfigError, match="scenario"):
        parse_config(cfg_text(scenario="warp"))


def test_missing_required_blocks():
    doc = json.loads(cfg_text())
    del doc["integrator"]
    with pytest.raises(ConfigError, match="integrator"):
        parse_config(json.dumps(doc))
    doc = json.loads(cfg_text())
    del doc["vehicle"]
    with pytest.raises(ConfigError, match="vehicle"):
        parse_config(json.dumps(doc))


def test_invalid_vehicle_values():
    bad = dict(BASE["vehicle"], m=[0, 1.2, 1.2])
    with pytest.raises(ConfigError, match="mass"):
        parse_config(cfg_text(vehicle=bad))


def test_invalid_integrator_values():
    with pytest.raises(ConfigError, match="t_end"):
        parse_config(cfg_text(integrator={"t_end": -5.0}))
    # no method option: naming one is an unknown key
    with pytest.raises(ConfigError, match="unknown key.*'method'"):
        parse_config(cfg_text(integrator={"t_end": 1.0, "method": "fixed-rk4",
                                          "h0": 0.01}))
    with pytest.raises(ConfigError, match="sample_stride"):
        parse_config(cfg_text(integrator={"t_end": 1.0, "sample_stride": 0}))
    # below the step floor 1e-14 * t_end: no step could be taken
    with pytest.raises(ConfigError, match="hmax 1e-13 is below the step floor"):
        parse_config(cfg_text(integrator={"t_end": 100.0, "hmax": 1e-13}))


def test_initial_phi_length_checked():
    with pytest.raises(ConfigError, match="phi"):
        parse_config(cfg_text(initial={"v1": 1, "phi": [0.5]}))


def test_rotor_validation():
    with pytest.raises(ConfigError, match="kind"):
        parse_config(cfg_text(rotor={"kind": "square", "amplitude": 1.0}))
    with pytest.raises(ConfigError, match="period"):
        parse_config(cfg_text(rotor={"kind": "sine", "amplitude": 1.0,
                                     "period": -1.0}))
    cfg = parse_config(cfg_text(rotor={"kind": "sine", "amplitude": 0.3}))
    assert cfg.rotor.period == 1.0


def test_outputs_validation():
    with pytest.raises(ConfigError, match="formats"):
        parse_config(cfg_text(outputs={"formats": ["csv", "pdf"]}))
    # used to fail when the run made its directory
    for directory in ("", 3):
        with pytest.raises(ConfigError, match=r"'outputs\.directory' must be "
                                              r"a non-empty string"):
            parse_config(cfg_text(outputs={"directory": directory}))
    cfg = parse_config(cfg_text(outputs={"directory": "results",
                                         "formats": ["csv"]}))
    assert cfg.outputs.directory == "results"
    assert cfg.outputs.formats == ("csv",)


def test_defaults_for_omitted_initial():
    doc = json.loads(cfg_text())
    del doc["initial"]
    cfg = parse_config(json.dumps(doc))
    assert cfg.initial.v1 == 1.0 and cfg.initial.omega == 0.0
    assert cfg.initial.phi == pytest.approx([0.0, 0.0], abs=0)


def test_hmax_accepted():
    cfg = parse_config(cfg_text(integrator={"t_end": 1.0, "hmax": 0.5,
                                            "h0": 0.1}))
    assert cfg.integrator.hmax == 0.5
    assert not math.isinf(cfg.integrator.hmax)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_numbers_rejected(bad):
    # Python's json reads NaN and +-Infinity; each must name its field
    with pytest.raises(ConfigError, match="'t_end'.*finite"):
        parse_config(cfg_text(integrator={"t_end": bad}))
    with pytest.raises(ConfigError, match="'rtol'.*finite"):
        parse_config(cfg_text(integrator={"t_end": 1.0, "rtol": bad}))
    with pytest.raises(ConfigError, match="'a0'.*finite"):
        parse_config(cfg_text(vehicle=dict(BASE["vehicle"], a0=bad)))
    with pytest.raises(ConfigError, match="entry 1 of field 'm'.*finite"):
        parse_config(cfg_text(vehicle=dict(BASE["vehicle"],
                                           m=[1.0, bad, 1.2])))


def test_number_beyond_float_range_rejected():
    text = cfg_text().replace('"t_end": 100.0', '"t_end": 1' + "0" * 400)
    with pytest.raises(ConfigError, match="'t_end'.*float range"):
        parse_config(text)


@pytest.mark.parametrize("rotor", [
    {"kind": "sine", "amplitude": 0.05, "period": 1e-308},
    {"kind": "sine", "amplitude": 1e308},
    {"kind": "sine", "amplitude": 1e200},
])
def test_rotor_peak_rate_overflow_rejected(rotor):
    # these used to end in "math domain error" or a non-finite right-hand side
    with pytest.raises(ConfigError, match="'rotor'.*peak rate"):
        parse_config(cfg_text(scenario="speedup", rotor=rotor))


@pytest.mark.parametrize("extra, field", [
    ({"rotor": {"kind": "sine", "amplitude": 0.0}}, "'rotor.amplitude'"),
    # the squared rate underflows to 0
    ({"rotor": {"kind": "sine", "amplitude": 1e-200}}, "'rotor.amplitude'"),
    ({"rotor": {"kind": "sine", "amplitude": 0.05},
      "vehicle": dict(BASE["vehicle"], a0=0.0)}, "'vehicle.a0'"),
    # both at fault: the rotor is named first
    ({"rotor": {"kind": "sine", "amplitude": 0.0},
      "vehicle": dict(BASE["vehicle"], a0=0.0)}, "'rotor.amplitude'"),
], ids=["amplitude-0", "amplitude-1e-200", "a0-0", "amplitude-0+a0-0"])
def test_speedup_without_speedup_rejected(extra, field):
    # each used to pass here and end the run in NoSpeedupError
    with pytest.raises(ConfigError, match=f"{field}.*no speedup"):
        parse_config(cfg_text(scenario="speedup", **extra))


@pytest.mark.parametrize("scenario, extra", [
    ("inertial", {}),
    ("manifold", {"sign": "plus"}),
    ("fixed_points", {}),
    ("speedup", {"rotor": {"kind": "sine", "amplitude": 0.05}}),
], ids=["inertial", "manifold", "fixed_points", "speedup"])
@pytest.mark.parametrize("vehicle, message", [
    ({"m": [1e308, 1e308, 1.2]}, "mass must be finite, got inf"),
    # c_1 squared underflows to zero
    ({"a": [1e-201, 0.2], "c": [1e-200, 1.1]},
     "coupling[0] must be finite, got inf"),
], ids=["mass-overflows", "coupling-divides-by-0"])
def test_non_finite_derived_constants_exit_2(tmp_path, capsys, scenario,
                                             extra, vehicle, message):
    # every parameter is valid, a derived constant is not; the run used to
    # print numpy's warning and fail at run time with exit 1
    path = tmp_path / "run.json"
    path.write_text(cfg_text(scenario=scenario,
                             vehicle=dict(BASE["vehicle"], **vehicle), **extra))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["simulate", str(path), "--output-dir",
                         str(tmp_path / "o")]) == 2
    assert capsys.readouterr() == (
        "", f"error: invalid 'vehicle' block: {message}\n")
    assert not (tmp_path / "o").exists()


N0_VEHICLE = {"m": [1.0], "I": [1.5], "a0": 0.7, "a": [], "c": []}


def test_manifold_needs_a_trailer():
    with pytest.raises(ConfigError, match="manifold.*N = 0"):
        parse_config(cfg_text(scenario="manifold", sign="plus",
                              vehicle=N0_VEHICLE, initial={}))
    # the sleigh alone runs inertial and speedup scenarios
    for extra in ({"scenario": "inertial"},
                  {"scenario": "speedup",
                   "rotor": {"kind": "sine", "amplitude": 0.05}}):
        cfg = parse_config(cfg_text(vehicle=N0_VEHICLE, initial={}, **extra))
        assert cfg.vehicle.n_links == 0


# --- any document: a config or a ConfigError --------------------------------------

# a valid document with every block, which the strategy below mutates
FULL = {
    "scenario": "speedup",
    "vehicle": dict(BASE["vehicle"], N=2),
    "rotor": {"kind": "sine", "amplitude": 0.05, "period": 1.0},
    "initial": {"v1": 1.0, "omega": 0.0, "phi": [0.1, -0.2], "x": 0.0,
                "y": 0.0, "psi": 0.0},
    "integrator": {"t_end": 1.0, "rtol": 1e-8, "atol": 1e-8, "h0": 1e-3,
                   "hmax": 0.5, "sample_stride": 2},
    "outputs": {"directory": "out", "formats": ["csv", "report"]},
}
# a whole block, or a field of one, as often
FIELDS = st.sampled_from([(key,) for key in (*FULL, "sign")]) | st.sampled_from([
    (key, name) for key, block in FULL.items() if isinstance(block, dict)
    for name in block])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(["inertial", "manifold", "fixed_points", "sine", "plus",
                       "minus", "csv", "svg"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)
# a number as often as anything else, so that range checks are reached
values = st.floats() | st.integers(-2, 2) | json_values


@st.composite
def documents(draw):
    """Any text or JSON value two times in five; else FULL with up to two
    fields (or blocks) deleted or replaced by any value."""
    kind = draw(st.integers(0, 4))
    if kind < 2:
        return draw(st.text(max_size=30) if kind else json_values.map(json.dumps))
    doc = json.loads(json.dumps(FULL))
    for *outer, key in draw(st.lists(FIELDS, max_size=2, unique=True)):
        parent = doc.get(outer[0]) if outer else doc
        if not isinstance(parent, dict):
            continue
        if draw(st.booleans()):
            parent.pop(key, None)
        else:
            parent[key] = draw(values)
    return json.dumps(doc)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(documents())
def test_any_document_parses_or_raises_config_error(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    if cfg.integrator is None:  # which only a census may leave out
        assert cfg.scenario == "fixed_points"
        return
    assert 0 < cfg.integrator.h0 <= cfg.integrator.hmax


def test_fixed_points_integrator_block_optional(tmp_path, capsys):
    # the census never reads the block: a document may leave it out
    doc = {k: v for k, v in BASE.items() if k != "integrator"}
    cfg = parse_config(json.dumps({**doc, "scenario": "fixed_points"}))
    assert cfg.integrator is None
    reports = []
    for extra in ({}, {"integrator": {"t_end": 1.0}}):
        path = tmp_path / "census.json"
        path.write_text(json.dumps({**doc, "scenario": "fixed_points",
                                    **extra}))
        out = tmp_path / f"o{len(reports)}"
        assert cli.main(["fixed-points", str(path), "--output-dir", str(out),
                         "--draws", "1", "--seed", "3"]) == 0
        reports.append((out / "fixed_points_report.txt").read_bytes())
    assert reports[0] == reports[1]
    capsys.readouterr()
    # a block that is there is still validated
    with pytest.raises(ConfigError, match="'t_end' in 'integrator'"):
        parse_config(cfg_text(scenario="fixed_points", integrator={}))
    # and every other scenario still needs one
    for scenario, extra in (("inertial", {}), ("manifold", {"sign": "plus"}),
                            ("speedup", {"rotor": {"kind": "sine",
                                                   "amplitude": 0.05}})):
        with pytest.raises(ConfigError,
                           match="missing required field 'integrator'"):
            parse_config(json.dumps({**doc, "scenario": scenario, **extra}))


def test_fixed_points_link_bound():
    # the report lists 2^(N+1) rows: N = 16 is the most a document may have
    def census(n):
        return cfg_text(scenario="fixed_points", initial={}, vehicle={
            "m": [1.0] * (n + 1), "I": [1.5] * (n + 1), "a0": 0.7,
            "a": [0.1] * n, "c": [1.05] * n})

    assert parse_config(census(16)).vehicle.n_links == 16
    with pytest.raises(ConfigError, match=r"^'vehicle' has N = 17 .* at most "
                                          r"16$"):
        parse_config(census(17))
    # the other scenarios take any N
    assert parse_config(cfg_text(initial={}, vehicle=json.loads(census(17))[
        "vehicle"])).vehicle.n_links == 17
