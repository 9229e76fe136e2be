"""Seeded input generators for the four benchmark workloads.

Every generator is a pure function of (seed, scale): the same arguments write
the same bytes.  Each returns a ``Workload``: the CLI argument lists one
invocation runs, the item count that ``items_per_s`` divides by, the input
size record kept in result files, and the facts the output check needs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

# sizes at scale 1.0; see README.md for how they were chosen
SAMPLES_ROWS = 100_000
SAMPLES_LEVELS = (24, 20, 10)  # 4800 possible states over three factors
SAMPLES_ZIPF_S = 1.1
COUNTS_STATES = 40_000
COUNTS_LEVELS = (60, 40, 30)  # 72000 possible states; COUNTS_STATES are used
COUNTS_ZIPF_A = 1.6
COUNTS_CAP = 1_000_000
TAU_MAX = 50
DECOMPOSE_TAU = 5
MODES = ("plugin", "plugin+unseen", "generalized-gt")
SWEEP_LARGE = {"K": 100_000, "n": 100_000, "trials": 20}
SWEEP_MANY = {"K": 1_000, "n": 5_000, "trials": 600}
SWEEP_TAU = 5
SWEEP_ZIPF_S = 1.1
IMU_SAMPLES = 100_000
IMU_WINDOW_S = 2.0
IMU_STRIDE_S = 0.1
IMU_PRESET = "deployment-refined"
IMU_BINS = {"activity": None, "tilt": 12, "energy": 8, "rate": 8}  # the preset's factors
IMU_ACTIVITIES = (1, 2, 3, 4, 5, 6, 7, 12, 13, 16, 17, 24)
IMU_SUBJECT = 101

FACTOR_NAMES = ("site", "device", "regime")
FACTOR_PREFIXES = ("s", "d", "r")


@dataclass
class Workload:
    name: str
    calls: list  # one CLI argv per cli.main call of an invocation
    outputs: list  # files the invocation writes, checked and hashed
    items: int  # rows, states, trials or raw samples, per invocation
    sizes: dict  # input bytes, rows, distinct states, ...
    expect: dict = field(default_factory=dict)


def _scaled(value: int, scale: float, minimum: int) -> int:
    return max(minimum, int(round(value * scale)))


def _state_strings(levels, rng) -> np.ndarray:
    """All factor-value combinations as ``v1,v2,v3`` CSV cells, shuffled so
    the Zipf rank of a state is unrelated to its sort order."""
    grids = np.meshgrid(*[np.arange(n) for n in levels], indexing="ij")
    flat = [g.ravel() for g in grids]
    cells = [
        ",".join(f"{p}{v:02d}" for p, v in zip(FACTOR_PREFIXES, combo))
        for combo in zip(*(f.tolist() for f in flat))
    ]
    return np.array(cells, dtype=object)[rng.permutation(len(cells))]


def _write(path: str, text: str) -> int:
    data = text.encode("ascii")
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


def _table_expect(states: list[str], counts: list[int]) -> dict:
    """Exact report values for a table given as parallel state/count lists.

    Curve points are an integer numerator divided by n, the same arithmetic
    the package uses, so the comparison can be exact.
    """
    n = sum(counts)
    f: dict[int, int] = {}
    for c in counts:
        f[c] = f.get(c, 0) + 1
    nums = [0] * (TAU_MAX + 1)
    acc = 0
    for i in range(1, TAU_MAX + 1):
        acc += i * f.get(i, 0)
        nums[i] = acc
    f1 = f.get(1, 0)
    curves = {
        "plugin": [nums[t - 1] / n for t in range(1, TAU_MAX + 1)],
        "plugin+unseen": [min(1.0, (nums[t - 1] + f1) / n) for t in range(1, TAU_MAX + 1)],
        "generalized-gt": [nums[t] / n for t in range(1, TAU_MAX + 1)],
    }
    blind = [c for c in counts if c < DECOMPOSE_TAU]
    serialized = [
        "|".join(f"{name}={v}" for name, v in zip(FACTOR_NAMES, s.split(",")))
        for s in states
    ]
    order = sorted(range(len(states)), key=lambda i: (-counts[i], states[i].split(",")))
    head = [[serialized[i], counts[i]] for i in order[:50]]
    return {
        "n": n,
        "k_eff": len(states),
        "curves": curves,
        "decomposition_total": sum(blind) / n,
        "decomposition_entries": len(blind),
        "histogram_head": head,
    }


def _report_calls(flag: str, path: str, out: str) -> list:
    argv = ["report", flag, path, "--tau-max", str(TAU_MAX)]
    for m in MODES:
        argv += ["--mode", m]
    argv += ["--decompose-tau", str(DECOMPOSE_TAU), "--out", out]
    return [argv]


def samples_report(workdir: str, seed: int, scale: float = 1.0) -> Workload:
    """Many rows over few states: the per-row parse and count path."""
    rng = np.random.default_rng([seed, 1])
    rows = _scaled(SAMPLES_ROWS, scale, 200)
    states = _state_strings(SAMPLES_LEVELS, rng)
    w = 1.0 / np.arange(1, len(states) + 1, dtype=float) ** SAMPLES_ZIPF_S
    cum = np.cumsum(w / w.sum())
    cum[-1] = 1.0
    idx = np.searchsorted(cum, rng.random(rows), side="right")
    header = ",".join("factor:" + n for n in FACTOR_NAMES)
    path = os.path.join(workdir, "samples.csv")
    nbytes = _write(path, header + "\n" + "\n".join(states[idx].tolist()) + "\n")
    counts = np.bincount(idx, minlength=len(states))
    seen = np.flatnonzero(counts)
    expect = _table_expect(states[seen].tolist(), counts[seen].tolist())
    out = os.path.join(workdir, "samples-report.json")
    return Workload(
        name="samples-report",
        calls=_report_calls("--samples", path, out),
        outputs=[out],
        items=rows,
        sizes={
            "input_bytes": nbytes,
            "rows": rows,
            "distinct_states": int(seen.size),
            "counts.build_count_table.states_per_row": seen.size / rows,
        },
        expect=expect,
    )


def counts_report(workdir: str, seed: int, scale: float = 1.0) -> Workload:
    """One row per state with a heavy low-count tail: sorts and rendering."""
    rng = np.random.default_rng([seed, 2])
    k = _scaled(COUNTS_STATES, scale, 50)
    space = _state_strings(COUNTS_LEVELS, rng)
    states = space[rng.choice(len(space), size=k, replace=False)].tolist()
    counts = np.minimum(rng.zipf(COUNTS_ZIPF_A, size=k), COUNTS_CAP).tolist()
    header = ",".join("factor:" + n for n in FACTOR_NAMES) + ",count"
    body = "\n".join(f"{s},{c}" for s, c in zip(states, counts))
    path = os.path.join(workdir, "counts.csv")
    nbytes = _write(path, header + "\n" + body + "\n")
    out = os.path.join(workdir, "counts-report.json")
    return Workload(
        name="counts-report",
        calls=_report_calls("--counts", path, out),
        outputs=[out],
        items=k,
        sizes={"input_bytes": nbytes, "rows": k, "distinct_states": k, "n": sum(counts)},
        expect=_table_expect(states, counts),
    )


def sweep(workdir: str, seed: int, scale: float = 1.0) -> Workload:
    """Two simulate calls: a large-support cell and a many-trials cell.

    A sweep spec sets one trial count for all of its cells, so the two cell
    kinds are two specs and one invocation runs both.
    """
    calls, outputs, cells, nbytes = [], [], [], 0
    for i, (tag, cell) in enumerate((("large", SWEEP_LARGE), ("many", SWEEP_MANY))):
        k = _scaled(cell["K"], scale, 10)
        n = _scaled(cell["n"], scale, 50)
        trials = _scaled(cell["trials"], scale, 2)
        spec = os.path.join(workdir, f"sweep-{tag}.txt")
        nbytes += _write(
            spec,
            f"family = zipf\nzipf_s = {SWEEP_ZIPF_S}\nK = {k}\nn = {n}\n"
            f"tau = {SWEEP_TAU}\ntrials = {trials}\nseed = {seed * 2 + i}\n",
        )
        out = os.path.join(workdir, f"sweep-{tag}.csv")
        calls.append(["simulate", "--spec", spec, "--out", out])
        outputs.append(out)
        cells.append({"K": k, "n": n, "tau": SWEEP_TAU, "trials": trials})
    total_trials = sum(c["trials"] for c in cells)
    return Workload(
        name="sweep",
        calls=calls,
        outputs=outputs,
        items=total_trials,
        sizes={
            "input_bytes": nbytes,
            "cells": cells,
            "trials": total_trials,
            "draws": sum(c["trials"] * c["n"] for c in cells),
        },
        expect={"cells": cells},
    )


def _imu_schedule(rng, samples: int):
    """Activity id per raw row: activity runs, every second one followed by
    an activity-0 block.

    Returns labels plus the row indices that get NaN chest readings at the
    start of a run (left NaN by forward fill, so dropped) and in the middle of
    a run (forward-filled, so kept).  Lengths vary in narrow ranges so that
    every seed gives nearly the same amount of work.
    """
    labels = np.empty(samples, dtype=np.int64)
    start_nan, mid_nan = [], []
    pos, prev, runs = 0, 0, 0
    while pos < samples:
        if prev != 0 and runs % 2 == 0:
            length, act = int(rng.integers(400, 600)), 0
        else:
            choices = [a for a in IMU_ACTIVITIES if a != prev]
            act = int(choices[rng.integers(len(choices))])
            length = int(rng.integers(2500, 3500))
            runs += 1
        end = min(samples, pos + length)
        labels[pos:end] = act
        if act != 0 and end - pos >= 1000:
            start_nan.extend(range(pos, pos + int(rng.integers(10, 20))))
            mid = pos + int(rng.integers(400, end - pos - 400))
            mid_nan.extend(range(mid, mid + int(rng.integers(10, 30))))
        pos, prev = end, act
    return labels, np.array(start_nan, dtype=np.int64), np.array(mid_nan, dtype=np.int64)


def imu_ingest(workdir: str, seed: int, scale: float = 1.0) -> Workload:
    """A raw 54-column recording at 100 Hz, windowed and abstracted."""
    rng = np.random.default_rng([seed, 4])
    samples = _scaled(IMU_SAMPLES, scale, 3000)
    labels, start_nan, mid_nan = _imu_schedule(rng, samples)

    # per-activity posture and intensity, so tilt/energy/rate bins vary
    tilt = {a: rng.uniform(0.0, np.pi / 2) for a in IMU_ACTIVITIES + (0,)}
    power = {a: rng.uniform(0.05, 2.0) for a in IMU_ACTIVITIES + (0,)}
    theta = np.array([tilt[a] for a in labels.tolist()]) + rng.normal(0.0, 0.15, samples)
    phi = rng.uniform(0.0, 2 * np.pi, samples)
    g = 9.81 * (1.0 + rng.normal(0.0, 0.05, samples))
    acc = np.stack(
        [g * np.sin(theta) * np.cos(phi), g * np.sin(theta) * np.sin(phi), g * np.cos(theta)],
        axis=1,
    )
    scale_g = np.array([power[a] for a in labels.tolist()]) * rng.lognormal(0.0, 0.5, samples)
    gyro = rng.normal(0.0, 1.0, (samples, 3)) * scale_g[:, None]
    chest = np.concatenate([acc, acc + rng.normal(0.0, 0.02, (samples, 3)), gyro], axis=1)
    chest[start_nan] = np.nan
    chest[mid_nan] = np.nan

    ts = 5.0 + np.arange(samples) * 0.01
    heart = np.where(np.arange(samples) % 10 == 0, 100.0 + 20.0 * rng.random(samples), np.nan)
    # the other IMUs' 17 columns each are read but not used: draw them from a
    # small pool of realistic rows to keep generation cheap
    pool = rng.normal(0.0, 3.0, (64, 2, 16))

    def imu_text(block):
        return " ".join(f"{v:.5f}" for v in block)

    hand_pool = [f"{32.5 + rng.random():.4f} " + imu_text(p) for p in pool[:, 0]]
    ankle_pool = [f"{33.0 + rng.random():.4f} " + imu_text(p) for p in pool[:, 1]]
    chest_tail = " ".join(f"{v:.5f}" for v in rng.normal(0.0, 30.0, 3)) + " 1 0 0 0"
    pick = rng.integers(0, 64, (samples, 2)).tolist()
    fmt = " ".join(["%.5f"] * 9)
    lines = []
    for t, a, hr, row, (ph, pa) in zip(
        ts.tolist(), labels.tolist(), heart.tolist(), chest.tolist(), pick
    ):
        sensors = (fmt % tuple(row)).replace("nan", "NaN")
        hr_text = "NaN" if hr != hr else f"{hr:.0f}"
        lines.append(
            f"{t:.2f} {a} {hr_text} {hand_pool[ph]} 34.1250 {sensors} {chest_tail} {ankle_pool[pa]}"
        )
    path = os.path.join(workdir, f"subject{IMU_SUBJECT}.dat")
    nbytes = _write(path, "\n".join(lines) + "\n")

    transient = int((labels == 0).sum())
    out = os.path.join(workdir, "imu-samples.csv")
    argv = [
        "ingest", "--pamap2", path, "--subjects", str(IMU_SUBJECT),
        "--preset", IMU_PRESET,
        "--window-s", str(IMU_WINDOW_S), "--stride-s", str(IMU_STRIDE_S),
        "--out", out,
    ]
    return Workload(
        name="imu-ingest",
        calls=[argv],
        outputs=[out],
        items=samples,
        sizes={
            "input_bytes": nbytes,
            "rows": samples,
            "activity0_rows": transient,
            "nan_rows_run_start": int(start_nan.size),
            "nan_rows_mid_run": int(mid_nan.size),
        },
        expect={
            "rows_read": samples,
            # the summary lists only reasons that dropped something
            "dropped": {
                reason: count
                for reason, count in (("NaN-after-impute", int(start_nan.size)),
                                      ("transient-activity", transient))
                if count
            },
            "rows_kept": samples - transient - int(start_nan.size),
            "activities": sorted({int(a) for a in labels.tolist() if a != 0}),
            "bins": IMU_BINS,
        },
    )


GENERATORS = {
    "samples-report": samples_report,
    "counts-report": counts_report,
    "sweep": sweep,
    "imu-ingest": imu_ingest,
}
WORKLOADS = tuple(GENERATORS)


def generate(name: str, workdir: str, seed: int, scale: float = 1.0) -> Workload:
    return GENERATORS[name](workdir, seed, scale)
