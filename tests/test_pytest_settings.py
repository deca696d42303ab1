"""The repository's pytest settings: a failing hypothesis property counts as
one failure and the session goes on to the next test."""

import shutil
import subprocess
import sys

from conftest import ROOT

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0
"""


def test_a_failing_property_does_not_stop_the_session(tmp_path):
    shutil.copy(ROOT / "pyproject.toml", tmp_path / "pyproject.toml")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_a_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    (tests / "test_b_plain.py").write_text("def test_passes():\n    pass\n", encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout, result.stdout[-2000:]
