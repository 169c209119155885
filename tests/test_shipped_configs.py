import contextlib
import io
import pathlib
import re

import pytest

from multilink.config import parse_config
from multilink.scenarios import run_scenario

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


@pytest.mark.parametrize("name", ["inertial", "manifold", "fixed_points",
                                  "speedup"])
def test_shipped_configs_parse(name):
    cfg = parse_config((CONFIG_DIR / f"{name}.json").read_text())
    assert cfg.scenario == name
    assert cfg.integrator.t_end > 0


def test_shipped_manifold_config_runs(tmp_path):
    # the one shipped config fast enough to execute in a unit test
    cfg = parse_config((CONFIG_DIR / "manifold.json").read_text())
    res = run_scenario(cfg, output_dir=str(tmp_path))
    assert any(f.endswith("manifold_portrait.svg") for f in res.files)


def test_readme_library_example_runs():
    # the README's "Library use" block, run as written: a public name it
    # uses cannot be renamed or removed without this failing
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## Library use\n\n```python\n(.*?)^```", readme,
                      re.S | re.M)
    assert block, "README.md has no Library use block"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block[1], "README.md", "exec"), {})
    assert "{'stable_node': 1, 'unstable_node': 1, 'saddle': 6}" \
        in out.getvalue()
