"""Smoke runs of the study scripts: each builds PipelineConfig/GuidanceConfig
itself, so a renamed field or option shows here."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv", [
    ("convergence_study", ["--steps", "2", "4", "--size", "8"]),
    # every guidance mode, so each row of the branch table runs through the script
    ("guidance_sweep", ["--frames", "2", "--size", "8", "--steps", "2"]),
])
def test_study_script_runs(name, argv, capsys):
    assert _load(name).main(argv) == 0
    assert capsys.readouterr().out.startswith("#")
