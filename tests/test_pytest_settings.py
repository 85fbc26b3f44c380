"""The pytest settings in pyproject.toml, run on a file of their own."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_EXAMPLE_THEN_A_PASS = '''
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    pass
'''


def test_failing_hypothesis_example_does_not_end_the_session(tmp_path):
    """Reporting a failing ``@given`` example imports libcst, which warns of
    a deprecated ``mypy_extensions`` name. ``filterwarnings`` ignores that
    one warning, so it neither ends the session nor hides the next test."""
    (tmp_path / "test_given.py").write_text(FAILING_EXAMPLE_THEN_A_PASS)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_given.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout.splitlines()[-1]
