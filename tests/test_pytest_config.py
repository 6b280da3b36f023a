"""The repo's pytest settings: a failing test is reported, and the run goes on."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = textwrap.dedent("""
    from hypothesis import given, strategies as st


    @given(st.integers())
    def test_fails(n):
        assert n < 0


    def test_passes():
        pass
""")


def test_failing_hypothesis_test_is_reported_and_the_run_goes_on(tmp_path):
    """Reporting a falsifying example imports libcst, which warns that
    mypy_extensions.TypedDict is deprecated; with DeprecationWarning as an
    error that warning would end the session before the next test."""
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in proc.stdout, output
