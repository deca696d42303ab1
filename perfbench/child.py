"""Run sslstm CLI commands in one fresh process and report their timings.

    python3 perfbench/child.py SPEC.json RESULT.json

SPEC holds ``commands`` (a list of argv lists for ``sslstm.cli.main``) and
optionally ``trace_file``, where the spans of a traced run are written.
RESULT gets, per command, its exit code, wall time and captured output,
plus the time since process start and the process's peak RSS.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    from sslstm import cli

    tracer = None
    if spec.get("trace_file"):
        sys.path.insert(0, str(HERE))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    commands = []
    for argv in spec["commands"]:
        out, err = io.StringIO(), io.StringIO()
        span = tracer.begin_command(argv[0]) if tracer else None
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        wall = time.perf_counter() - t0
        if tracer:
            tracer.close(span)
        commands.append({
            "argv": argv, "code": code, "wall_s": wall,
            "stdout": out.getvalue()[-4000:], "stderr": err.getvalue()[-2000:],
        })
    total = time.perf_counter() - START
    if tracer:
        tracer.uninstall()
        tracer.write(spec["trace_file"])
    result = {
        "commands": commands,
        "total_s": total,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
