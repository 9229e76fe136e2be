"""Report assembly and deterministic rendering.

JSON output is produced by a renderer with a fixed, documented field order
and ``.17g`` float formatting, so two runs over identical inputs produce
byte-identical documents.  CSV output uses LF line endings and six-decimal
floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from json.encoder import encode_basestring
from typing import Mapping, Sequence

from .abstraction import AbstractionConfig
from .counts import CountTable, StateKey, freq_of_freqs
from .errors import InputError, InvariantViolation
from .estimators import (
    EXTENSION_MODE_NOTES,
    MODE_PLUGIN,
    BlindnessDecomposition,
    BlindSpotCurve,
    CeilingCurve,
    blind_spot_curve,
    blindness_decomposition,
    ceiling_curve,
    mass_estimate,
)
from .simulator import SweepResult

__all__ = [
    "TOOL_VERSION",
    "ReportBundle",
    "support_histogram",
    "build_report",
    "render_json",
    "bundle_to_json",
    "decomposition_obj",
    "sweep_to_json",
    "format_float",
    "write_csv_rows",
]

TOOL_VERSION = "0.1.0"

_FLOAT_FMT = "%.6f"


def format_float(value: float) -> str:
    """Fixed six-decimal rendering used by every CSV the package writes."""
    return _FLOAT_FMT % (value,)


def write_csv_rows(fh, header: Sequence[str], rows) -> None:
    import csv

    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow(list(row))


def support_histogram(table: CountTable) -> list[tuple[StateKey, int]]:
    """(state, count) pairs, most frequent first; ties by state order."""
    return sorted(table.counts.items(), key=lambda kv: (-kv[1], kv[0].values))


@dataclass(frozen=True)
class ReportBundle:
    curves: tuple[BlindSpotCurve, ...]
    decompositions: tuple[BlindnessDecomposition, ...]
    ceiling: CeilingCurve
    histogram: tuple[tuple[StateKey, int], ...]
    metadata: Mapping


def build_report(
    table: CountTable,
    tau_max: int,
    modes: Sequence[str] = (MODE_PLUGIN,),
    decomposition_taus: Sequence[int] = (),
    top_k: int | None = None,
    blind_accuracy: float = 0.0,
    dataset_id: str = "",
    abstraction: AbstractionConfig | None = None,
) -> ReportBundle:
    modes = tuple(modes)
    if not modes:
        raise InputError("modes must name at least one estimator mode")
    curves = tuple(blind_spot_curve(table, tau_max, mode=m) for m in modes)

    fof = freq_of_freqs(table)
    decomps = []
    for tau in decomposition_taus:
        d = blindness_decomposition(table, tau, top_k=top_k)
        plugin_mass = mass_estimate(fof, tau, MODE_PLUGIN)
        if not math.isclose(d.total, plugin_mass, rel_tol=0.0, abs_tol=1e-12):
            raise InvariantViolation(
                f"decomposition total {d.total!r} disagrees with low-count mass {plugin_mass!r} at tau={tau}"
            )
        decomps.append(d)

    ceiling = ceiling_curve(curves[0], blind_accuracy)

    metadata: dict = {}
    metadata["dataset_id"] = dataset_id
    metadata["tool_version"] = TOOL_VERSION
    metadata["n"] = table.n
    metadata["k_eff"] = table.k_observed
    metadata["abstraction"] = abstraction.to_mapping() if abstraction is not None else None
    metadata["modes"] = list(modes)
    notes = {m: EXTENSION_MODE_NOTES[m] for m in modes if m in EXTENSION_MODE_NOTES}
    if notes:
        metadata["estimator_notes"] = notes
    metadata["assumed_blind_accuracy"] = blind_accuracy
    metadata["ceiling_source_mode"] = modes[0]

    return ReportBundle(
        curves=curves,
        decompositions=tuple(decomps),
        ceiling=ceiling,
        histogram=tuple(support_histogram(table)),
        metadata=metadata,
    )


# ---------------------------------------------------------------------------
# deterministic JSON


def _render_float(x: float) -> str:
    if not math.isfinite(x):
        raise InvariantViolation(f"non-finite value {x!r} cannot be rendered")
    text = format(x, ".17g")
    # normalize -0.0 so equal numbers render identically
    return "0" if text == "-0" else text


def render_json(value) -> str:
    """Compact JSON with insertion-ordered objects and ``.17g`` floats.
    Strings are escaped as ``json.dumps(..., ensure_ascii=False)`` does."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return encode_basestring(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _render_float(value)
    if isinstance(value, Mapping):
        items = (f"{encode_basestring(str(k))}:{render_json(v)}" for k, v in value.items())
        return "{" + ",".join(items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(render_json(v) for v in value) + "]"
    raise InvariantViolation(f"cannot render {type(value).__name__} as JSON")


def _curve_obj(curve: BlindSpotCurve) -> dict:
    return {
        "mode": curve.estimator_mode,
        "n": curve.n,
        "k_eff": curve.k_observed,
        "points": [{"tau": t, "mass": m} for t, m in curve.points],
    }


def decomposition_obj(d: BlindnessDecomposition) -> dict:
    """JSON layout of one decomposition, for ``render_json``."""
    return {
        "tau": d.tau,
        "total": d.total,
        "entries": [
            {
                "state": e.state.serialize(),
                "count": e.count,
                "prob": e.prob,
                "weight": e.weight,
                "contribution": e.contribution,
            }
            for e in d.entries
        ],
    }


def bundle_to_json(bundle: ReportBundle) -> str:
    doc = {
        "metadata": bundle.metadata,
        "curves": [_curve_obj(c) for c in bundle.curves],
        "decompositions": [decomposition_obj(d) for d in bundle.decompositions],
        "ceiling": {
            "assumed_blind_accuracy": bundle.ceiling.assumed_blind_accuracy,
            "points": [
                {"tau": t, "blind_mass": b, "ceiling": c} for t, b, c in bundle.ceiling.points
            ],
        },
        "histogram": [
            {"state": key.serialize(), "count": count} for key, count in bundle.histogram
        ],
    }
    return render_json(doc) + "\n"


def sweep_to_json(result: SweepResult) -> str:
    """The ``simulate --json`` document."""
    doc = {
        "tool_version": TOOL_VERSION,
        "generator": result.generator,
        "master_seed": result.master_seed,
        "trials": result.trials,
        "cells": [
            {
                "family": cs.cell.family,
                "params": dict(cs.cell.params),
                "K": cs.cell.size,
                "n": cs.cell.n,
                "tau": cs.cell.tau,
                "true_mean": cs.true_mean,
                "true_std": cs.true_std,
                "estimates": [
                    {
                        "mode": m.mode,
                        "mean": m.mean,
                        "std": m.std,
                        "mean_abs_error": m.mean_abs_error,
                    }
                    for m in cs.estimates
                ],
            }
            for cs in result.cells
        ],
    }
    return render_json(doc) + "\n"
