import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    ("speedup", {"rotor": {"kind": "sine", "amplitude": 0.05}}, 1.0 / 13),
    # a step cap under the default first step lowers that too
    ("speedup", {"rotor": {"kind": "sine", "amplitude": 0.05, "period": 0.01}},
     0.01 / 13),
])
def test_default_hmax_per_scenario(scenario, extra, hmax):
    # the speedup scenario's envelope fits need 13 steps per rotor period
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
], ids=["amplitude-0", "amplitude-1e-200", "a0-0"])
def test_speedup_without_speedup_rejected(extra, field):
    # each used to pass here and end the run in NoSpeedupError
    with pytest.raises(ConfigError, match=f"{field}.*no speedup"):
        parse_config(cfg_text(scenario="speedup", **extra))


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
    | st.sampled_from(["inertial", "manifold", "sine", "plus", "minus", "csv",
                       "svg"]),
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
    assert 0 < cfg.integrator.h0 <= cfg.integrator.hmax
