"""Pinned SHA-256 digests of written artifacts.

The fixed-point report, the trajectory CSV and the SVG figures are meant to
be byte-identical for identical inputs; these digests pin the exact bytes, so
a faster writer must reproduce them.  The speedup run is long enough for the
CSV to span several write chunks and for the plots to thin their series.
The speedup and manifold runs are checked with the compiled library loaded
and on the Python paths.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from multilink import _compiled, cli
from multilink.model import random_vehicle

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

FIXED_POINTS_REPORT_SHA256 = {
    0: "79e3c3db58fb5658335ea68faa7ece2787ca46e6bd68bc7762c31d461e0abb6a",
    1: "a3a0dd5f290b8d187a32f4808e6a61c664262bdf0baf5b0a3a2625e08463431d",
    2: "d56ac44f40c38af2a72e2f04fe8c487191fb818e58a56fbec32250fb79115983",
    3: "ef47c32c1ef004c9330ef844e4e1cf4f86bf218805403f64bd4d7f6719cb2f05",
    4: "4d74633caaf545024ececfa502e654c9b264bb41b88f5304edde2e1570877368",
    5: "1cde678200b0d32ac9cf2e73179a57b8176083fd3ab858162767d6d5a1fd0fc2",
    6: "e75c2b33a041e3b37e362bfc261c18c6e3aac31f1a2665d7b240ddf49d84e4f3",
    7: "5829ed2921c82918142d1cd9c3e7474788f55b88e16e214dd84208b039f9912d",
    8: "0e1c3f8639eb19d0fc027b0ae327db563891abb4fb1bbd4cf785081ce25770a3",
    9: "39bc4c0c615ae883d97ce63b5d281a0174f07790f1842377f0e29749f1edf93a",
    10: "a67d821fa2e65919b84b11bce4b2b0b803dc0996218bde3eba6a3340357d5f76",
}

SPEEDUP_ARTIFACT_SHA256 = {
    "speedup_trajectory.csv":
        "787f9068919a1ac8728436a3b279acdb91d6e5b7c37a18bceaead62d563f27ec",
    "speedup_velocities.svg":
        "7299255edc189947265f381c5f3517bdace98f0dbf91b47622008c94f5108f8f",
    "speedup_angles.svg":
        "0124f688be3024a5d55447556e844debf3e04199d704c19180d608cc51b34a31",
    "speedup_paths.svg":
        "db15f1a49018df437b269f619047424233ccecb1a8511f2f5da5d169f5009437",
    "speedup_report.txt":
        "b7bbd7a96637437e5bb904d2409f963686fc44bcb0589be58d9a6bd6d0e33a30",
}

MANIFOLD_PORTRAIT_SHA256 = \
    "aa8b8364c5536c079f197b964e9572598245263e3e83da6b4dcdb7fcf705ab75"


def sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def run_cli(argv, capsys):
    assert cli.main([str(a) for a in argv]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("n", sorted(FIXED_POINTS_REPORT_SHA256))
def test_fixed_points_report_bytes(tmp_path, capsys, n):
    p = random_vehicle(np.random.default_rng([409, n]), n)
    doc = {"scenario": "fixed_points",
           "vehicle": {"m": p.masses.tolist(), "I": p.inertias.tolist(),
                       "a0": p.a0, "a": p.a.tolist(), "c": p.c.tolist()},
           "integrator": {"t_end": 1.0}, "outputs": {"formats": ["report"]}}
    path = tmp_path / "census.json"
    path.write_text(json.dumps(doc))
    run_cli(["fixed-points", path, "--draws", 2, "--seed", 410 + n,
             "--output-dir", tmp_path / "o"], capsys)
    digest = sha256(tmp_path / "o" / "fixed_points_report.txt")
    assert digest == FIXED_POINTS_REPORT_SHA256[n]


def on_both_paths(run):
    """run(out_dir) with the compiled library loaded, where a compiler is,
    and with _compiled._lib False, where the loop, the residuals and the
    CSV rows are Python's."""
    for name, lib in (("loaded", _compiled.load() or False),
                      ("python", False)):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(_compiled, "_lib", lib)
            run(name)


def test_speedup_artifact_bytes(tmp_path, capsys):
    with open(os.path.join(CONFIGS, "speedup.json")) as f:
        doc = json.load(f)
    # 5,201 samples at 13 per rotor period: six CSV chunks, and
    # every plot thins its series
    doc["integrator"].update(t_end=400.0, sample_stride=1)
    path = tmp_path / "speedup.json"
    path.write_text(json.dumps(doc))

    def run(name):
        run_cli(["simulate", path, "--output-dir", tmp_path / name], capsys)
        digests = {artifact: sha256(tmp_path / name / artifact)
                   for artifact in SPEEDUP_ARTIFACT_SHA256}
        assert digests == SPEEDUP_ARTIFACT_SHA256

    on_both_paths(run)


def test_manifold_portrait_bytes(tmp_path, capsys):
    with open(os.path.join(CONFIGS, "manifold.json")) as f:
        doc = json.load(f)
    doc["outputs"]["formats"] = ["svg"]
    path = tmp_path / "manifold.json"
    path.write_text(json.dumps(doc))

    def run(name):
        run_cli(["simulate", path, "--output-dir", tmp_path / name], capsys)
        assert sha256(tmp_path / name / "manifold_portrait.svg") \
            == MANIFOLD_PORTRAIT_SHA256

    on_both_paths(run)
