"""Smoke test of the benchmark harness: every workload, untraced and traced,
on tiny inputs, plus the refusals and the tracer's handling of a function
that no longer exists.  Takes well under a minute.

    python3 -m pytest -q perfbench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_is_correct_and_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    assert "environment:" in proc.stdout
    for part in workloads.WORKLOADS[workload]:
        assert f"inputs of {part}:" in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_changed_trace_targets_are_reported_not_fatal(monkeypatch):
    from sslstm import labels

    targets = tracer.TARGETS + [
        ("sslstm.neural", "renamed_away", "neural.gone", None),
        ("sslstm.no_such_module", "f", "gone.f", None),
        # Details that no longer fit the function's result.
        ("sslstm.labels", "label_index", "labels.index", lambda a, k, result: len(result)),
    ]
    monkeypatch.setattr(tracer, "TARGETS", targets)
    t = tracer.Tracer()
    t.install()
    try:
        assert labels.label_index("sad") == 1
    finally:
        t.uninstall()
    assert "sslstm.neural.renamed_away" in t.absent
    assert "sslstm.no_such_module.f" in t.absent
    assert "labels.index details" in t.absent
    assert [s[0] for s in t.spans] == ["labels.index"]


def test_self_time_subtracts_direct_children():
    spans = [
        ["cli.train", 0.0, 10.0, -1, 0, None],
        ["training.train", 1.0, 9.0, 0, 0, {"epochs": 2}],
        ["neural.forward", 2.0, 3.0, 1, 0, {"tokens": 5}],
        ["embeddings.load", 9.0, 9.5, 0, 0, {"rows": 3, "bytes": 2e6}],
    ]
    values, absent = tracer.layer_metrics(spans, {"lookups": {"semantic": [10, 1]}})
    assert values["cli.self_s"] == pytest.approx(10.0 - 8.0 - 0.5)
    assert values["training.epochs"] == 2
    assert values["neural.forward_tokens"] == 5
    assert values["embeddings.oov_ratio.semantic"] == pytest.approx(0.1)
    assert "neural.backward_s" in absent and "neural.forward_s" not in absent


def test_benchmark_json_lists_the_harness_metrics():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == tracer.PER_LAYER


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
