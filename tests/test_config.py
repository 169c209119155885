import json
import math

import pytest

from multilink.config import ConfigError, parse_config

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
    assert cfg.rotor is None
    # defaults
    assert cfg.integrator.rtol == 1e-10
    assert cfg.integrator.atol == 1e-12
    assert cfg.integrator.method == "adaptive-dop853"
    assert cfg.outputs.directory == "out"
    assert set(cfg.outputs.formats) == {"csv", "svg", "report"}
    assert cfg.pose.x == 0.0 and cfg.pose.psi == 0.0


@pytest.mark.parametrize("scenario, extra, method", [
    ("inertial", {}, "adaptive-dop853"),
    ("manifold", {"sign": "plus"}, "adaptive-dop853"),
    ("speedup", {"rotor": {"kind": "sine", "amplitude": 0.05}},
     "adaptive-rk45"),
])
def test_default_method_per_scenario(scenario, extra, method):
    # the speedup scenario's envelope fits need the 5(4) pair's denser steps
    cfg = parse_config(cfg_text(scenario=scenario, **extra))
    assert cfg.integrator.method == method
    # an explicit method wins
    for explicit in ("adaptive-dop853", "adaptive-rk45", "fixed-rk4"):
        cfg = parse_config(cfg_text(scenario=scenario, **extra, integrator={
            "t_end": 1.0, "method": explicit}))
        assert cfg.integrator.method == explicit


def test_speedup_requires_rotor():
    with pytest.raises(ConfigError, match="rotor"):
        parse_config(cfg_text(scenario="speedup"))


def test_speedup_with_rotor():
    cfg = parse_config(cfg_text(scenario="speedup",
                                rotor={"kind": "sine", "amplitude": 0.05,
                                       "period": 1.0}))
    assert cfg.rotor is not None
    assert cfg.rotor.momentum(0.25) == pytest.approx(0.05, abs=1e-15)
    assert cfg.rotor_spec["amplitude"] == 0.05


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
    with pytest.raises(ConfigError, match="method"):
        parse_config(cfg_text(integrator={"t_end": 1.0, "method": "euler"}))
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
