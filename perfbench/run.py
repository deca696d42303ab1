"""The sslstm benchmark: one workload per invocation, result as JSON.

    python3 perfbench/run.py --workload neural --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout (``src/sslstm`` must exist).  A
workload is a sequence of parts (see ``workloads.py``).  Steps:

1. the generator writes the inputs of every part from ``--seed``, in its
   own process;
2. measurement, in rounds: a set-up run (the commands of every part on a
   one-item input) then a pass (the commands of every part on the full
   inputs), each in a fresh process.  Rounds repeat at least
   ``MIN_REPEATS`` times and then while another fits in ``--seconds``, so
   set-up and passes sample the same stretches of a noisy machine.
   ``setup_s`` is the median of the set-up processes' wall time,
   ``pipeline_s`` the median over passes of the timed commands' wall time
   and ``peak_rss_mb`` the median of the passes' peak RSS; each part's own
   rate is printed too;
3. the correctness checks of every part, untimed.

With ``--trace 1`` step 2 is one untraced and one traced pass instead, and
the per-layer metrics come from the traced run's spans; ``trace.overhead_s``
is the traced minus the untraced wall time of the measured commands.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
describe the environment, the inputs and the failures, if any.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from tracer import PER_LAYER, layer_metrics, read_spans  # noqa: E402
from workloads import ITEM_METRIC, WORKLOADS, Plan, plan  # noqa: E402

MIN_REPEATS = 2
MAX_REPEATS = 50
CHILD_TIMEOUT_S = 120


class ChildFailed(RuntimeError):
    """A helper process crashed or hung instead of reporting."""


def run_process(argv, what: str) -> None:
    try:
        proc = subprocess.run(argv, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{what}: still running after {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{what}: exited {proc.returncode}")


def run_child(commands, work: Path, tag: str, trace_file: Path | None = None) -> dict:
    """Run commands in a fresh interpreter; returns the child's report."""
    spec = work / f"{tag}.spec.json"
    result = work / f"{tag}.result.json"
    spec.write_text(json.dumps({
        "commands": commands,
        "trace_file": str(trace_file) if trace_file else None,
    }), encoding="utf-8")
    run_process([sys.executable, str(HERE / "child.py"), str(spec), str(result)], tag)
    return json.loads(result.read_text(encoding="utf-8"))


def blas_threads() -> int | str:
    """Thread count the loaded OpenBLAS reports, or the environment's setting."""
    names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
             "openblas_get_num_threads")
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for path in sorted(p for p in libs if p.startswith("/")):
            lib = ctypes.CDLL(path)
            for name in names:
                fn = getattr(lib, name, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    return int(fn())
    except OSError:
        pass
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def environment(seed: int) -> dict:
    blas = {}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    commit = "unknown"  # a checkout without .git, as the benchmark is often run from
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "commit": commit,
        "seed": seed,
    }


class Pipeline:
    """The parts of one workload run as one command sequence."""

    def __init__(self, workload: str, inputs: Path, outputs: Path):
        self.parts: list[tuple[str, Plan, dict, slice]] = []
        self.setup: list[list[str]] = []
        self.measure: list[list[str]] = []
        for part in WORKLOADS[workload]:
            (outputs / part).mkdir(parents=True, exist_ok=True)
            manifest = json.loads((inputs / part / "manifest.json").read_text(encoding="utf-8"))
            p = plan(part, inputs / part, outputs / part, manifest)
            first = len(self.measure)
            self.parts.append((part, p, manifest, slice(first, first + len(p.measure))))
            self.setup += p.setup
            self.measure += p.measure

    def part_walls(self, report: dict) -> dict[str, float]:
        """Wall time of each part's timed commands in one pass."""
        return {part: sum(report["commands"][s.start + k]["wall_s"] for k in p.timed)
                for part, p, _, s in self.parts}


def measure(pipe: Pipeline, work: Path, seconds: float) -> tuple[list[dict], list[dict]]:
    """Rounds of one set-up run and one pass, each in a fresh process: at
    least ``MIN_REPEATS`` rounds, then while another fits in ``seconds``."""
    setups, passes = [], []
    start = time.perf_counter()
    while len(passes) < MAX_REPEATS:
        elapsed = time.perf_counter() - start
        done = len(passes)
        if done >= MIN_REPEATS and elapsed * (done + 1) / done > seconds:
            break
        setups.append(run_child(pipe.setup, work, f"setup{done}"))
        passes.append(run_child(pipe.measure, work, f"measure{done}"))
    return setups, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sslstm benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sslstm" / "cli.py").is_file():
        print(f"error: no sslstm sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    inputs, outputs = work / "inputs", work / "outputs"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, work, inputs, outputs)
    except ChildFailed as exc:
        print("FAILED:", exc)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def per_command(spans) -> dict:
    """Seconds per span name within each command, so a part's own share
    shows (for example forward and backward inside ``train``)."""
    by_command: dict[int, dict[str, float]] = {}
    names: dict[int, str] = {}
    for name, start, end, parent, command, _ in spans:
        if parent < 0:
            names[command] = name
        totals = by_command.setdefault(command, {})
        totals[name] = totals.get(name, 0.0) + end - start
    return {f"{k}:{names.get(k, '?')}": {n: round(v, 4) for n, v in sorted(t.items())}
            for k, t in sorted(by_command.items())}


def traced_run(pipe: Pipeline, work: Path) -> tuple[list[dict], dict]:
    """One untraced and one traced run of the measured pass."""
    untraced = run_child(pipe.measure, work, "untraced")
    spans_file = work / "spans.jsonl"
    traced = run_child(pipe.measure, work, "traced", trace_file=spans_file)
    spans, summary = read_spans(str(spans_file))
    values, absent = layer_metrics(spans, summary)
    values["trace.overhead_s"] = (sum(c["wall_s"] for c in traced["commands"])
                                  - sum(c["wall_s"] for c in untraced["commands"]))
    print("absent (reported as 0):", json.dumps(absent + summary.get("absent", [])))
    print("traced seconds per command:", json.dumps(per_command(spans)))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    return [untraced, traced], metrics


def measured_run(pipe: Pipeline, work: Path, seconds: float) -> tuple[list[dict], dict]:
    setups, reports = measure(pipe, work, seconds)
    setup_s = [r["total_s"] for r in setups]
    walls = [pipe.part_walls(r) for r in reports]
    passes = [sum(w.values()) for w in walls]
    rss = [r["peak_rss_mb"] for r in reports]
    for part, p, _, _ in pipe.parts:
        rates = [p.items / w[part] for w in walls]
        print(f"{ITEM_METRIC[part]}: {statistics.median(rates):.4f} items/s, median of "
              f"{len(rates)} passes of {p.items} items:", json.dumps([round(r, 4) for r in rates]))
    print("pipeline_s passes:", json.dumps([round(s, 4) for s in passes]))
    print("setup_s runs:", json.dumps([round(s, 4) for s in setup_s]))
    metrics = {
        "pipeline_s": {"value": statistics.median(passes), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    }
    return setups + reports, metrics


def run(args, work: Path, inputs: Path, outputs: Path) -> int:
    print("environment:", json.dumps(environment(args.seed)))
    run_process([sys.executable, str(HERE / "gen.py"), "--workload", args.workload,
                 "--seed", str(args.seed), "--out", str(inputs), "--scale", args.scale],
                "input generator")
    pipe = Pipeline(args.workload, inputs, outputs)
    for part, _, manifest, _ in pipe.parts:
        print(f"inputs of {part}:", json.dumps(manifest["properties"]))
    if args.trace:
        reports, metrics = traced_run(pipe, work)
    else:
        reports, metrics = measured_run(pipe, work, args.seconds)

    # The last pass's outputs are checked; every earlier command counts too.
    from checks import CHECKS, Outcome  # imports the program, known to exist by now

    outcome = Outcome()
    last = reports[-1]["commands"]
    for part, _, manifest, commands in pipe.parts:
        part_outcome = CHECKS[part](inputs / part, outputs / part, manifest, last[commands])
        outcome.attempted += part_outcome.attempted
        outcome.failed += part_outcome.failed
        outcome.messages += [f"{part}: {m}" for m in part_outcome.messages]
    for report in reports[:-1]:
        for cmd in report["commands"]:
            outcome.expect(cmd["code"] == 0, f"{' '.join(cmd['argv'][:3])} exited {cmd['code']}")
    for message in outcome.messages[:20]:
        print("FAILED:", message)
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
