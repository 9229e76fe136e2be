"""Output checks.  Each raises ``CheckError`` on the first mismatch.

The expected values come from the benchmark's own generated data, never
from the package under test.
"""

from __future__ import annotations

import csv
import io
import json


class CheckError(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def check_table_report(text: str, expect: dict) -> None:
    """A ``report`` bundle against exact values derived from the counts."""
    doc = json.loads(text)
    meta = doc["metadata"]
    _require(meta["n"] == expect["n"], f"n {meta['n']} != {expect['n']}")
    _require(meta["k_eff"] == expect["k_eff"], f"k_eff {meta['k_eff']} != {expect['k_eff']}")
    modes = [c["mode"] for c in doc["curves"]]
    _require(modes == list(expect["curves"]), f"curve modes {modes}")
    for curve in doc["curves"]:
        want = expect["curves"][curve["mode"]]
        got = [p["mass"] for p in curve["points"]]
        taus = [p["tau"] for p in curve["points"]]
        _require(taus == list(range(1, len(want) + 1)), f"{curve['mode']}: taus {taus[:5]}...")
        bad = [t for t, (g, w) in enumerate(zip(got, want), 1) if g != w]
        _require(not bad, f"{curve['mode']}: mass differs at tau {bad[:5]}")
        _require(curve["n"] == expect["n"] and curve["k_eff"] == expect["k_eff"],
                 f"{curve['mode']}: n/k_eff header mismatch")
    decomps = doc["decompositions"]
    _require(len(decomps) == 1, f"{len(decomps)} decompositions, expected 1")
    d = decomps[0]
    _require(d["total"] == expect["decomposition_total"],
             f"decomposition total {d['total']!r} != {expect['decomposition_total']!r}")
    _require(len(d["entries"]) == expect["decomposition_entries"],
             f"{len(d['entries'])} decomposition entries, expected {expect['decomposition_entries']}")
    hist = doc["histogram"]
    _require(len(hist) == expect["k_eff"], f"histogram has {len(hist)} states")
    head = [[h["state"], h["count"]] for h in hist[: len(expect["histogram_head"])]]
    _require(head == expect["histogram_head"], "histogram head order or counts differ")


def check_sweep(texts: list, expect: dict) -> None:
    """One CSV row per cell, with the spec's cell and means in [0, 1]."""
    for text, cell in zip(texts, expect["cells"], strict=True):
        rows = list(csv.DictReader(io.StringIO(text)))
        _require(len(rows) == 1, f"{len(rows)} sweep rows, expected 1")
        row = rows[0]
        for key in ("K", "n", "tau", "trials"):
            _require(int(row[key]) == cell[key], f"sweep {key} {row[key]} != {cell[key]}")
        means = {k: float(v) for k, v in row.items() if k.endswith("_mean")}
        _require(len(means) == 4, f"sweep mean columns {sorted(means)}")
        for key, value in means.items():
            _require(0.0 <= value <= 1.0, f"sweep {key} = {value} outside [0, 1]")


def _summary(stderr: str) -> dict:
    out = {}
    for line in stderr.splitlines():
        key, sep, value = line.rpartition(": ")
        if sep and value.strip().isdigit():
            out[key] = int(value)
    return out


def check_imu_ingest(text: str, stderr: str, expect: dict) -> None:
    """Samples file against the preset and the summary against the injected
    drops.  Window contiguity is deliberately not checked."""
    lines = text.splitlines()
    factors = list(expect["bins"])
    _require(lines[0] == ",".join("factor:" + f for f in factors), f"header {lines[0]!r}")
    summary = _summary(stderr)
    _require(summary.get("emitted") == len(lines) - 1,
             f"emitted {summary.get('emitted')} != {len(lines) - 1} output rows")
    _require(summary.get("rows read") == expect["rows_read"], f"rows read {summary.get('rows read')}")
    _require(summary.get("rows kept") == expect["rows_kept"], f"rows kept {summary.get('rows kept')}")
    dropped = {k[len("rows dropped ("):-1]: v for k, v in summary.items()
               if k.startswith("rows dropped (")}
    _require(dropped == expect["dropped"], f"drop tallies {dropped} != {expect['dropped']}")
    activities = {str(a) for a in expect["activities"]}
    for lineno, line in enumerate(lines[1:], 2):
        values = line.split(",")
        _require(len(values) == len(factors), f"line {lineno}: {line!r}")
        _require(values[0] in activities, f"line {lineno}: activity {values[0]!r}")
        for factor, value in zip(factors[1:], values[1:]):
            _require(value.isdigit() and int(value) < expect["bins"][factor],
                     f"line {lineno}: {factor} bin {value!r}")
