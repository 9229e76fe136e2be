"""Timing spans recorded from outside the package.

``install`` replaces the names that ``blindspot.cli``, ``blindspot.report``
and ``blindspot.simulator`` look up with wrappers.  Each wrapper records a
span (name, start, end, parent span, run id) plus the work counts of that
call.  Spans stay in memory; the caller writes them out when it is done.
``render_json`` is recursive and deliberately not wrapped: ``bundle_to_json``
is spanned instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

# count functions map (args, kwargs, result) to {count name: number}


def _rows_of_samples(args, kwargs, result):
    return {"rows": len(result[0])}


def _table_counts(args, kwargs, result):
    return {"states": result.k_observed, "rows": result.n}


def _counts_rows(args, kwargs, result):
    # one row per state: the generated counts files repeat no state
    return {"rows": result.k_observed}


def _entries(args, kwargs, result):
    return {"entries": len(result.entries)}


def _hist_states(args, kwargs, result):
    return {"states": len(result)}


def _calls(args, kwargs, result):
    return {"calls": 1}


def _json_bytes(args, kwargs, result):
    return {"bytes": len(result)}  # the rendered report is ASCII


def _sweep_work(args, kwargs, result):
    cells, trials = args[0], args[1]
    return {"trials": trials * len(cells), "draws": trials * sum(c.n for c in cells)}


def _pamap2_rows(args, kwargs, result):
    summary = result[1]
    return {"rows_read": summary.rows_read, "rows_kept": summary.rows_kept}


def _windows(args, kwargs, result):
    stream, window_s, stride_s = args[0], float(args[1]), float(args[2])
    length = round(window_s * stream.sample_rate_hz)
    hop = round(stride_s * stream.sample_rate_hz)
    return {"windows": len(result), "starts": len(range(0, len(stream) - length + 1, hop))}


def _written_rows(args, kwargs, result):
    return {"rows": len(args[1])}


# module short name -> [(span name, attribute to replace, count function)]
TARGETS = {
    "cli": [
        ("ingest.read_samples_file", "read_samples_file", _rows_of_samples),
        ("counts.build_count_table", "build_count_table", _table_counts),
        ("ingest.read_counts_file", "read_counts_file", _counts_rows),
        ("report.build_report", "build_report", None),
        ("report.bundle_to_json", "bundle_to_json", _json_bytes),
        ("simulator.run_sweep", "run_sweep", _sweep_work),
        ("ingest.ingest_pamap2", "ingest_pamap2", _pamap2_rows),
        ("abstraction.make_windows", "make_windows", _windows),
        ("abstraction.fit_edges", "fit_edges", None),
        ("abstraction.abstract_window", "abstract_window", _calls),
        ("ingest.write_samples", "_write_samples", _written_rows),
        ("estimators.blind_spot_curve", "blind_spot_curve", _calls),
    ],
    "report": [
        ("estimators.blind_spot_curve", "blind_spot_curve", _calls),
        ("estimators.blindness_decomposition", "blindness_decomposition", _entries),
        ("estimators.mass_estimate", "mass_estimate", _calls),
        ("report.support_histogram", "support_histogram", _hist_states),
    ],
    "simulator": [
        ("estimators.mass_estimate", "mass_estimate", _calls),
    ],
}

ROOT = "cli.main"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    run: int
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans for one process; ``run`` tags the spans of each
    ``cli.main`` call so several calls can share one list."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.run = 0

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.run)
            if count is not None:
                spans[idx].counts = count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def call_main(self, main, argv):
        """Run one ``cli.main`` call as the root span of a new run id."""
        self.run += 1
        return self.wrap(ROOT, main)(argv)


def install(tracer: Tracer, modules: dict) -> None:
    """Replace each target name in ``modules`` (short name -> module)."""
    for short, targets in TARGETS.items():
        module = modules[short]
        for name, attr, count in targets:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), count))


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.seconds - _covered(children.get(i, ())) for i, s in enumerate(spans)]


def summarize(spans) -> dict:
    """Per-layer totals over one invocation's spans.

    ``<name>.s`` is total time inside the calls, ``<name>.self_s`` that time
    minus child spans, ``<name>.<count>`` the summed work counts, and
    ``trace.coverage_frac`` the share of ``cli.main`` time that child spans
    cover.
    """
    out: dict[str, float] = {}
    selfs = self_times(spans)
    for s, own in zip(spans, selfs):
        out[s.name + ".s"] = out.get(s.name + ".s", 0.0) + s.seconds
        out[s.name + ".self_s"] = out.get(s.name + ".self_s", 0.0) + own
        for key, value in s.counts.items():
            out[f"{s.name}.{key}"] = out.get(f"{s.name}.{key}", 0) + value
    main_s = out.get(ROOT + ".s", 0.0)
    if main_s > 0:
        out["trace.coverage_frac"] = 1.0 - out[ROOT + ".self_s"] / main_s
    return out


def to_records(spans) -> list[dict]:
    return [
        {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
         "run": s.run, "counts": s.counts}
        for s in spans
    ]


def from_records(records) -> list[Span]:
    return [
        Span(r["name"], r["start"], r["end"], r["parent"], r["run"], r.get("counts", {}))
        for r in records
    ]
