"""Artifacts are rewritten in place: opened without truncation and cut at
the end of the new bytes.  A file then holds the new bytes alone, whatever
it held before, or after a failed write the prefix written, as a file
opened with "w" would."""

import json
import os
import stat

import numpy as np
import pytest

from multilink import _compiled, scenarios
from multilink.config import parse_config
from multilink.dynamics import Trajectory
from multilink.model import random_vehicle

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def shipped(name, **integrator):
    with open(os.path.join(CONFIGS, f"{name}.json")) as f:
        doc = json.load(f)
    doc["integrator"].update(integrator)
    return doc


def census(n):
    p = random_vehicle(np.random.default_rng([33, n]), n)
    return {"scenario": "fixed_points",
            "vehicle": {"m": p.masses.tolist(), "I": p.inertias.tolist(),
                        "a0": p.a0, "a": p.a.tolist(), "c": p.c.tolist()},
            "integrator": {"t_end": 1.0}, "outputs": {"formats": ["report"]}}


# each scenario's run, and a run that writes longer artifacts of the same
# names
RUNS = {
    "inertial": (shipped("inertial", t_end=10.0),
                 shipped("inertial", t_end=30.0)),
    "speedup": (shipped("speedup", t_end=100.0, sample_stride=1),
                shipped("speedup", t_end=200.0, sample_stride=1)),
    "manifold": (shipped("manifold", t_end=10.0),
                 shipped("manifold", t_end=30.0)),
    "fixed_points": (census(10), census(12)),
}


def run(doc, out_dir):
    result = scenarios.run_scenario(parse_config(json.dumps(doc)),
                                    output_dir=str(out_dir), seed=7, draws=1)
    return {os.path.basename(path) for path in result.files}


def contents(out_dir):
    return {name: (out_dir / name).read_bytes()
            for name in os.listdir(out_dir)}


@pytest.mark.parametrize("scenario", RUNS)
def test_rerun_over_longer_artifacts(tmp_path, scenario):
    # every file equals, byte for byte, the same run into a fresh directory
    doc, longer = RUNS[scenario]
    names = run(doc, tmp_path / "fresh")
    assert run(longer, tmp_path / "reused") == names
    before = contents(tmp_path / "reused")
    assert run(doc, tmp_path / "reused") == names
    after = contents(tmp_path / "reused")
    assert after == contents(tmp_path / "fresh")
    shorter = [name for name in names if len(after[name]) < len(before[name])]
    assert any(name.endswith((".csv", "report.txt")) for name in shorter)


def trajectory(rows, n_links=2):
    rng = np.random.default_rng(rows)
    columns = rng.standard_normal((8, rows))
    return Trajectory(np.arange(rows) * 0.1, *columns[:2],
                      rng.standard_normal((rows, n_links)), *columns[2:])


def csv_bytes(path, traj):
    scenarios.write_trajectory_csv(str(path), traj)
    return path.read_bytes()


def test_failed_write_leaves_the_written_prefix(tmp_path):
    # the second chunk fails: the file holds the header and the first
    # chunk, also where it held more before
    traj = trajectory(2 * scenarios._CSV_CHUNK_ROWS + 5)
    full = csv_bytes(tmp_path / "full.csv", traj)
    prefix = b"".join(full.splitlines(keepends=True)
                      [:1 + scenarios._CSV_CHUNK_ROWS])
    path = tmp_path / "traj.csv"
    path.write_bytes(full + full)
    format_rows = _compiled.format_rows
    chunks = []

    def fail_second(rows):
        chunks.append(rows)
        if len(chunks) == 2:
            raise RuntimeError("second chunk")
        return format_rows(rows)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(_compiled, "format_rows", fail_second)
        with pytest.raises(RuntimeError, match="second chunk"):
            scenarios.write_trajectory_csv(str(path), traj)
    assert path.read_bytes() == prefix


def test_symlinked_artifact_is_written_through_its_link(tmp_path):
    traj = trajectory(50)
    want = csv_bytes(tmp_path / "fresh.csv", traj)
    target = tmp_path / "target.csv"
    target.write_bytes(b"old\n" * 1000)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    scenarios.write_trajectory_csv(str(link), traj)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == want


def test_write_only_artifact_is_rewritten(tmp_path):
    traj = trajectory(50)
    want = csv_bytes(tmp_path / "fresh.csv", traj)
    path = tmp_path / "traj.csv"
    path.write_bytes(b"old\n" * 1000)
    path.chmod(0o200)
    try:
        scenarios.write_trajectory_csv(str(path), traj)
        assert stat.S_IMODE(path.stat().st_mode) == 0o200
    finally:
        path.chmod(0o600)
    assert path.read_bytes() == want


def test_new_artifact_has_the_permissions_of_open(tmp_path):
    scenarios.write_artifact(str(tmp_path / "new.txt"), [b"new\n"])
    with open(tmp_path / "open.txt", "w") as f:
        f.write("new\n")
    assert (tmp_path / "new.txt").stat().st_mode \
        == (tmp_path / "open.txt").stat().st_mode


def test_other_files_are_written_without_truncation():
    # a character device takes the bytes and is not cut
    scenarios.write_artifact(os.devnull, [b"new\n"])
