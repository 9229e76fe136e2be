"""Self-tests of the benchmark.  Run from the repository root with

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import inputs
import run
import spans

TINY = 0.02


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("name", inputs.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, name):
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    inputs.generate(name, str(dirs[0]), 5, TINY)
    inputs.generate(name, str(dirs[1]), 5, TINY)
    inputs.generate(name, str(dirs[2]), 6, TINY)
    assert _files(dirs[0]) == _files(dirs[1])
    assert _files(dirs[0]) != _files(dirs[2])


def test_imu_input_carries_the_injected_rows(tmp_path):
    w = inputs.generate("imu-ingest", str(tmp_path), 3, 0.1)
    assert w.sizes["activity0_rows"] > 0
    assert w.sizes["nan_rows_run_start"] > 0
    assert w.sizes["nan_rows_mid_run"] > 0
    assert w.expect["rows_kept"] == (
        w.sizes["rows"] - w.sizes["activity0_rows"] - w.sizes["nan_rows_run_start"]
    )


def _run_in_process(workload):
    sys.path.insert(0, run.SRC)
    try:
        import blindspot.cli as cli
    finally:
        sys.path.remove(run.SRC)
    for argv in workload.calls:
        assert cli.main(argv) == 0


def _invocation():
    inv = run.Invocation(traced=False)
    inv.data = {"stderr": "", "run_s": 1.0, "cpu_s": 1.0, "maxrss_kb": 1024, "codes": [0]}
    return inv


def test_corrupted_report_raises_fail_frac(tmp_path):
    w = inputs.generate("samples-report", str(tmp_path), 9, TINY)
    _run_in_process(w)
    verify = run.Verifier(w)
    good = _invocation()
    verify(good)
    assert good.ok, good.error

    path = w.outputs[0]
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["histogram"][0]["count"] += 1
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    with pytest.raises(checks.CheckError):
        checks.check_table_report(json.dumps(doc), w.expect)
    bad = _invocation()
    verify(bad)
    assert not bad.ok

    results = [good, bad]
    assert run.end_to_end(w, results)["ok_frac"] == 0.5


def test_wrong_drop_tally_fails_imu_check(tmp_path):
    w = inputs.generate("imu-ingest", str(tmp_path), 4, TINY)
    header = ",".join("factor:" + f for f in w.expect["bins"])
    row = f"{w.expect['activities'][0]},0,0,0"
    stderr = "\n".join([
        f"rows read: {w.expect['rows_read']}",
        f"rows kept: {w.expect['rows_kept']}",
        "emitted: 1",
    ] + [f"rows dropped ({k}): {v}" for k, v in w.expect["dropped"].items()])
    checks.check_imu_ingest(f"{header}\n{row}\n", stderr, w.expect)
    with pytest.raises(checks.CheckError):
        checks.check_imu_ingest(f"{header}\n{row}\n", stderr.replace("rows kept: ", "rows kept: 1"),
                                w.expect)


def test_self_time_on_hand_built_tree():
    tree = [
        spans.Span("cli.main", 0.0, 10.0, -1, 1),
        spans.Span("a", 1.0, 4.0, 0, 1),
        spans.Span("b", 5.0, 9.0, 0, 1),
        spans.Span("c", 6.0, 7.5, 2, 1),
        spans.Span("d", 3.5, 5.5, 0, 1),  # overlaps a and b: covered once
    ]
    assert spans.self_times(tree) == pytest.approx([2.0, 3.0, 2.5, 1.5, 2.0])
    m = spans.summarize(tree)
    assert m["cli.main.self_s"] == pytest.approx(2.0)
    assert m["trace.coverage_frac"] == pytest.approx(0.8)


def test_tracer_records_parents_and_counts():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: [x] * x, lambda a, k, r: {"items": len(r)})

    def outer(argv):
        return sum(len(inner(x)) for x in argv)

    assert tracer.call_main(outer, [1, 2]) == 3
    names = [(s.name, s.parent, s.run) for s in tracer.spans]
    assert names == [("cli.main", -1, 1), ("inner", 0, 1), ("inner", 0, 1)]
    assert spans.summarize(tracer.spans)["inner.items"] == 3


def _bench(args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", inputs.WORKLOADS)
def test_tiny_smoke_run(tmp_path, name, trace):
    proc = _bench(["--workload", name, "--seed", "2", "--seconds", "0.1", "--trace", str(trace),
                   "--scale", str(TINY), "--out-dir", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert os.path.exists(tmp_path / f"{name}-seed2-trace{trace}.json")


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench(["--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
                  cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
