"""One timed invocation, in a fresh interpreter.

Usage: python3 child.py JOB_JSON

JOB_JSON holds ``src`` (directory that contains the ``blindspot`` package),
``calls`` (list of CLI argument lists, run in order) and ``trace`` (bool).
The child imports ``blindspot.cli`` from ``src``, prints ``ready``, runs each
``cli.main`` call timed after import, and prints one JSON line: summed wall
and CPU time of the calls, peak RSS, exit codes, captured stderr and, when
traced, the spans.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stderr


def _cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def main() -> int:
    job = json.loads(sys.argv[1])
    src = os.path.abspath(job["src"])
    sys.path.insert(0, src)
    import blindspot.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"blindspot imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    print("ready", flush=True)

    tracer = None
    main_fn = cli.main
    if job["trace"]:
        import blindspot.report as report
        import blindspot.simulator as simulator
        import spans

        tracer = spans.Tracer()
        spans.install(tracer, {"cli": cli, "report": report, "simulator": simulator})

        def main_fn(argv):
            return tracer.call_main(cli.main, argv)

    codes, wall, cpu = [], 0.0, 0.0
    captured = io.StringIO()
    with redirect_stderr(captured):
        for argv in job["calls"]:
            c0, t0 = _cpu(), time.perf_counter()
            codes.append(main_fn(argv))
            wall += time.perf_counter() - t0
            cpu += _cpu() - c0
    result = {
        "run_s": wall,
        "cpu_s": cpu,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "codes": codes,
        "stderr": captured.getvalue(),
    }
    if tracer is not None:
        result["spans"] = spans.to_records(tracer.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
