"""The project's pytest settings report a failing property as a test failure."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(x):
    assert x < 5
"""


def test_failing_property_is_reported_not_an_internal_error(tmp_path):
    # Printing the falsifying example imports modules that warn on import;
    # under ``filterwarnings = error`` that must not crash pytest itself.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "test_property.py"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
