"""The benchmark harness's own smoke test, run as part of this suite: a
library change that breaks the harness (a name it imports, an attribute it
reads) fails here rather than only when the benchmark runs."""

import subprocess
import sys

from conftest import ROOT


def test_benchmark_harness_smoke_test_passes():
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/smoke.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout[-3000:] + result.stderr[-2000:]
    assert " passed" in result.stdout and " failed" not in result.stdout, result.stdout[-3000:]
