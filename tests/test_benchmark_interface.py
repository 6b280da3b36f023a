"""The benchmark's tracer patches tilevsr functions by name (perfbench/tracer.py,
WRAPS), and its workloads build configs and CLI argv from tilevsr's names
(perfbench/workloads.py). A refactor that renames or removes one of them
would crash a benchmark run, so every tracer target must resolve to a
callable here, and every workload must set up. The benchmark files are read,
never edited.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from tilevsr import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # @dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


def load_wraps():
    return load("tracer").WRAPS


@pytest.mark.parametrize("module,path", [(w[0], w[1]) for w in load_wraps()])
def test_tracer_target_resolves_to_a_callable(module, path):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("name", ["sap_tap_dssag", "sap_wide", "pipeline"])
def test_benchmark_workload_sets_up(name, tmp_path):
    workload = load("workloads").make(name)
    workload.setup(0, str(tmp_path))
    for argv in getattr(workload, "verbs", []):
        cli.build_parser().parse_args(argv)
