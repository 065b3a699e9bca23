"""The suite's pytest configuration: warnings are errors, yet a failing
hypothesis test still reports its falsifying example."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_TEST = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5
"""


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    (tmp_path / "test_fail.py").write_text(FAILING_TEST)
    args = ["-c", str(PYPROJECT), "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_fail.py"]
    run = subprocess.run(
        [sys.executable, "-m", "pytest", *args], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
