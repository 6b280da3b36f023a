"""The benchmark's tracer patches tilevsr functions by name (perfbench/tracer.py,
WRAPS). A refactor that renames or removes one of them would crash a traced
benchmark run, so every target must resolve to a callable here. The tracer
file is read, never edited.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_wraps():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.WRAPS


@pytest.mark.parametrize("module,path", [(w[0], w[1]) for w in load_wraps()])
def test_tracer_target_resolves_to_a_callable(module, path):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
