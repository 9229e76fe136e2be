"""blindspot benchmark: one workload, closed loop, one client.

Usage (from the repository root):

    python3 bench/run.py --workload samples-report --seed 1 --seconds 33 --trace 0

The runner generates the workload's inputs from ``--seed``, then for
``--seconds`` runs one child interpreter at a time (``child.py``); each child
imports ``blindspot.cli`` from ``src/`` and runs the workload's
``cli.main([...])`` calls.  Every output is checked.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` alternates untraced and traced children
and reports the per-layer metrics.  Human-readable lines come first; the last
line of stdout is one JSON object.  A result file with provenance is written
under ``--out-dir``.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import checks
import inputs
import spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH_DIR, "child.py")

LOAD_MODEL = "closed loop, one client, one child process at a time"
# a run must end within this many seconds of its start
RUN_LIMIT_S = 170.0
MIN_INVOCATIONS = 3

END_TO_END = {
    "run_s": "s",
    "items_per_s": "items/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "ratio",
}

PER_LAYER = {
    "ingest.read_samples_file.s": "s",
    "ingest.read_samples_file.rows": "count",
    "counts.build_count_table.s": "s",
    "counts.build_count_table.states": "count",
    "counts.build_count_table.states_per_row": "ratio",
    "ingest.read_counts_file.s": "s",
    "ingest.read_counts_file.rows": "count",
    "report.build_report.s": "s",
    "report.build_report.self_s": "s",
    "estimators.blindness_decomposition.s": "s",
    "estimators.blindness_decomposition.entries": "count",
    "report.support_histogram.s": "s",
    "report.support_histogram.states": "count",
    "estimators.blind_spot_curve.s": "s",
    "estimators.blind_spot_curve.calls": "count",
    "report.bundle_to_json.s": "s",
    "report.bundle_to_json.bytes": "B",
    "simulator.run_sweep.s": "s",
    "simulator.run_sweep.self_s": "s",
    "simulator.run_sweep.trials": "count",
    "simulator.run_sweep.draws": "count",
    "estimators.mass_estimate.s": "s",
    "estimators.mass_estimate.calls": "count",
    "ingest.ingest_pamap2.s": "s",
    "ingest.ingest_pamap2.rows_read": "count",
    "ingest.ingest_pamap2.rows_kept": "count",
    "abstraction.make_windows.s": "s",
    "abstraction.make_windows.windows": "count",
    "abstraction.make_windows.emit_ratio": "ratio",
    "abstraction.fit_edges.s": "s",
    "abstraction.abstract_window.s": "s",
    "abstraction.abstract_window.calls": "count",
    "ingest.write_samples.s": "s",
    "ingest.write_samples.rows": "count",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "trace.coverage_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(span_list) -> dict:
    """Per-layer values of one traced invocation, with the derived ratios."""
    m = spans.summarize(span_list)
    if m.get("counts.build_count_table.rows"):
        m["counts.build_count_table.states_per_row"] = (
            m["counts.build_count_table.states"] / m["counts.build_count_table.rows"]
        )
    if m.get("abstraction.make_windows.starts"):
        m["abstraction.make_windows.emit_ratio"] = (
            m["abstraction.make_windows.windows"] / m["abstraction.make_windows.starts"]
        )
    return m


class Invocation:
    """Outcome of one child process."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.setup_s = None
        self.data = None  # the child's result line
        self.error = None

    @property
    def ok(self) -> bool:
        return self.error is None


def invoke(workload, traced: bool, timeout: float, calls=None) -> Invocation:
    """Run the workload's calls (or ``calls``) in one fresh child interpreter."""
    inv = Invocation(traced)
    for path in workload.outputs:
        if os.path.exists(path):
            os.remove(path)
    calls = workload.calls if calls is None else calls
    job = json.dumps({"src": SRC, "calls": calls, "trace": traced})
    start = time.perf_counter()
    # unbuffered, so the readline below leaves the rest for communicate()
    proc = subprocess.Popen(
        [sys.executable, CHILD, job],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, cwd=ROOT,
    )
    try:
        if proc.stdout.readline() == b"ready\n":
            inv.setup_s = time.perf_counter() - start
        out, err = proc.communicate(timeout=max(1.0, timeout - (time.perf_counter() - start)))
        out, err = out.decode(), err.decode()
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        inv.error = f"child timed out after {timeout:.0f} s"
        return inv
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0 or inv.setup_s is None:
        inv.error = f"child exited {proc.returncode}: {err.strip()[-2000:]}"
        return inv
    inv.data = json.loads(out.strip().splitlines()[-1])
    if any(code != 0 for code in inv.data["codes"]):
        inv.error = f"cli exit codes {inv.data['codes']}: {inv.data['stderr'].strip()[-2000:]}"
    return inv


def check_outputs(workload, stderr: str) -> str:
    """Verify one invocation's outputs; returns their digest."""
    texts = []
    for path in workload.outputs:
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    if workload.name in ("samples-report", "counts-report"):
        checks.check_table_report(texts[0], workload.expect)
    elif workload.name == "sweep":
        checks.check_sweep(texts, workload.expect)
    else:
        checks.check_imu_ingest(texts[0], stderr, workload.expect)
    return digest(workload, stderr)


def digest(workload, stderr: str) -> str:
    h = hashlib.sha256(stderr.encode())
    for path in workload.outputs:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Verifier:
    """Fully checks the first successful output, then requires every later
    output of the run to be byte-identical to it."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = None

    def __call__(self, inv: Invocation) -> None:
        if not inv.ok:
            return
        stderr = inv.data["stderr"]
        try:
            if self.reference is None:
                self.reference = check_outputs(self.workload, stderr)
            elif digest(self.workload, stderr) != self.reference:
                raise checks.CheckError("output differs from the first invocation's output")
        except (checks.CheckError, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            inv.error = f"output check failed: {type(exc).__name__}: {exc}"


def run_loop(workload, seconds: float, trace: bool, started: float) -> list:
    verify = Verifier(workload)
    invoke(workload, False, RUN_LIMIT_S, calls=[])  # untimed import: compiles bytecode
    results, durations = [], []
    deadline = time.perf_counter() + seconds
    minimum = 2 * MIN_INVOCATIONS if trace else MIN_INVOCATIONS
    while True:
        traced = trace and len(results) % 2 == 1
        begin = time.perf_counter()
        inv = invoke(workload, traced, RUN_LIMIT_S - (begin - started))
        verify(inv)
        results.append(inv)
        now = time.perf_counter()
        durations.append(now - begin)
        if now - started > RUN_LIMIT_S - 5:
            return results
        # start no invocation that would likely end after the deadline, so a
        # run takes --seconds and no more once it has its minimum
        if len(results) >= minimum and now + statistics.median(durations) > deadline:
            return results


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(workload, results) -> dict:
    good = [r for r in results if r.ok and not r.traced]
    run_s = _median([r.data["run_s"] for r in good])
    return {
        "run_s": run_s,
        "items_per_s": workload.items / run_s if run_s else 0.0,
        "cpu_s": _median([r.data["cpu_s"] for r in good]),
        "peak_rss_mb": _median([r.data["maxrss_kb"] for r in good]) / 1024.0,
        "setup_s": _median([r.setup_s for r in results if r.setup_s is not None]),
        "ok_frac": sum(r.ok for r in results) / len(results),
    }


def per_layer(results) -> tuple[dict, list]:
    traced = [r for r in results if r.ok and r.traced]
    per_inv = [layer_metrics(spans.from_records(r.data["spans"])) for r in traced]
    out = {name: _median([m.get(name, 0) for m in per_inv]) for name in PER_LAYER}
    untraced = _median([r.data["run_s"] for r in results if r.ok and not r.traced])
    traced_s = _median([r.data["run_s"] for r in traced])
    out["trace.overhead_frac"] = traced_s / untraced - 1.0 if untraced and traced_s else 0.0
    return out, (traced[0].data["spans"] if traced else [])


def provenance(args, workload) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": bool(args.trace),
        "load_model": LOAD_MODEL,
        "items_per_invocation": workload.items,
        "cli_calls": workload.calls,
        "inputs": workload.sizes,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="input size factor; below 1 only for smoke tests")
    p.add_argument("--out-dir", default=os.path.join(ROOT, ".bench_out"),
                   help="where result files go (default .bench_out/)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "blindspot", "cli.py")):
        print(f"bench: no blindspot package under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    os.makedirs(args.out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=args.out_dir)
    try:
        workload = inputs.generate(args.workload, workdir, args.seed, args.scale)
        results = run_loop(workload, args.seconds, bool(args.trace), started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not r.ok for r in results)
    if args.trace:
        metrics, span_records = per_layer(results)
        units = PER_LAYER
    else:
        metrics, span_records = end_to_end(workload, results), []
        units = END_TO_END
    record = {
        "provenance": provenance(args, workload),
        "attempted": len(results),
        "failed": failed,
        "fail_frac": failed / len(results),
        "errors": [r.error for r in results if r.error][:5],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "invocations": [
            {"traced": r.traced, "setup_s": r.setup_s, "ok": r.ok,
             **({k: r.data[k] for k in ("run_s", "cpu_s", "maxrss_kb")} if r.data else {})}
            for r in results
        ],
    }
    stem = os.path.join(args.out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if span_records:
        with open(stem + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump(span_records, fh)

    print(f"workload {args.workload}  seed {args.seed}  inputs {workload.sizes}")
    print(f"invocations {len(results)}  failed {failed}  fail_frac {record['fail_frac']:.4f}")
    for error in record["errors"]:
        print(f"error: {error}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    if args.trace and metrics["trace.coverage_frac"] < 0.9:
        print("warning: spans cover less than 90% of cli.main.s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
