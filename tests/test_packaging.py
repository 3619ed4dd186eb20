"""The packaging metadata and the README's library example agree with the code."""

import math
import re
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import dpmean
from dpmean.cli import main

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def project():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    return tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def test_the_console_script_is_cli_main(project):
    script = EntryPoint(name="dpmean", value=project["scripts"]["dpmean"], group="console_scripts")
    assert script.load() is main


def test_the_version_is_the_package_version(project, capsys):
    assert project["version"] == dpmean.__version__
    assert main(["--version"]) == 0
    assert capsys.readouterr() == (f"dpmean {dpmean.__version__}\n", "")


def test_the_readme_library_example_runs_as_written(capsys):
    section = (ROOT / "README.md").read_text().split("\n## Library example\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    estimate, bound = map(float, capsys.readouterr().out.split())
    assert 0.0 <= estimate <= 1.0 and math.isfinite(bound) and bound > 0.0
