"""Every name that the package and the study scripts import is used, or
listed in the module's `__all__`, or marked `# noqa: F401` as a deliberate
re-export. Checked with `ast`, so it needs no linter."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*ROOT.glob("src/tilevsr/*.py"), *ROOT.glob("scripts/*.py")])


def unused_imports(source: str) -> list[str]:
    """The imported names that `source` neither uses nor lists in `__all__`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line number
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                # `import a.b` binds a; `... as c` binds c
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import_and_honours_noqa():
    assert unused_imports("import os\nfrom .tiles import in_range, int_in_range\nin_range(1)\n") \
        == ["os (line 1)", "int_in_range (line 2)"]
    assert unused_imports("import os.path\nos.sep\n") == []
    assert unused_imports("from . import a as b\n__all__ = ['b']\n") == []
    assert unused_imports("from .attention import (  # noqa: F401\n    extend_kv,\n)\n") == []
    assert SOURCES  # the globs still find the package and the scripts
