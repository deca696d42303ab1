"""Every script under demos/ runs to completion."""

import subprocess
import sys

import pytest

from conftest import ROOT, src_env

DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo):
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=src_env()
    )
    assert result.returncode == 0, result.stderr
