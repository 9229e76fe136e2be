"""Report assembly and deterministic rendering.

Each result (blind-spot curve, decomposition, ceiling, histogram, sweep) is
described once, as a ``Table`` of field names and rows built here.  The CSV
writer and the JSON renderer both take that table: ``write_csv`` writes the
fields as the header and one line per row, ``render_json`` one object per
row keyed by the fields in order.  JSON has ``.17g`` floats and a fixed
field order, so two runs over identical inputs produce byte-identical
documents; CSV has LF line endings and six-decimal floats.  A ``StateKey``
cell is written by both as its ``name=value|name=value`` text; JSON renders
a table a block of rows at a time, each block a column at a time.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from json.encoder import encode_basestring
from operator import attrgetter, itemgetter
from typing import Mapping, Sequence

from .counts import CountTable, StateKey, _key_template, freq_of_freqs
from .errors import InputError, InvariantViolation
from .estimators import (
    ESTIMATOR_MODES,
    EXTENSION_MODE_NOTES,
    MODE_PLUGIN,
    BlindnessDecomposition,
    BlindSpotCurve,
    CeilingCurve,
    DecompositionEntry,
    # blind_spot_curve and mass_estimate are no longer called here; the
    # benchmark's --trace 1 looks them up on this module to time them
    blind_spot_curve,
    blindness_decomposition,
    ceiling_curve,
    curve_from_freqs,
    mass_estimate,
)
from .simulator import GENERATOR_NAME, SweepResult

__all__ = [
    "TOOL_VERSION",
    "Table",
    "ReportBundle",
    "support_histogram",
    "build_report",
    "render_json",
    "bundle_to_json",
    "decomposition_obj",
    "sweep_to_json",
    "format_float",
    "write_csv",
    "curve_table",
    "decomposition_table",
    "ceiling_table",
    "histogram_table",
    "sweep_table",
]

TOOL_VERSION = "0.1.0"
_BLOCK_ROWS = 4096  # table rows rendered per JSON chunk


def format_float(value: float) -> str:
    """Fixed six-decimal rendering used by every CSV the package writes."""
    return "%.6f" % (value,)


@dataclass(frozen=True)
class Table:
    """One result: field names and rows of values, one value per field.
    Cells are ``None``, bools, ints, floats, strings, ``StateKey``s (written
    as their serialized text), or anything else ``render_json`` takes."""

    fields: tuple[str, ...]
    rows: Sequence[Sequence]


def write_csv(fh, table: Table) -> None:
    """``table.fields`` as the header, then one line per row; floats go
    through ``format_float``, every other value as ``csv`` writes it."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(table.fields)
    writer.writerows(
        [format_float(v) if isinstance(v, float) else v for _, v in zip(table.fields, row, strict=True)]
        for row in table.rows
    )


def support_histogram(table: CountTable) -> list[tuple[StateKey, int]]:
    """(state, count) pairs, most frequent first; ties by state order."""
    items = table.sorted_items()
    items.sort(key=itemgetter(1), reverse=True)  # stable: ties keep state order
    return items


def histogram_table(histogram: Sequence[tuple[StateKey, int]]) -> Table:
    return Table(("state", "count"), histogram)


def curve_table(curves: Sequence[BlindSpotCurve]) -> Table:
    """Every curve in long form: one ``tau,mode,mass`` row per point."""
    return Table(
        ("tau", "mode", "mass"),
        [(tau, c.estimator_mode, mass) for c in curves for tau, mass in c.points],
    )


def ceiling_table(ceiling: CeilingCurve) -> Table:
    return Table(("tau", "blind_mass", "ceiling"), ceiling.points)


def decomposition_table(d: BlindnessDecomposition) -> Table:
    """The entries as rows: each ``DecompositionEntry`` is one, its fields the
    header."""
    return Table(DecompositionEntry._fields, d.entries)


def sweep_table(result: SweepResult) -> Table:
    """One row per cell with every mode's mean, std and mean absolute error."""
    fields = ["family", "params", "K", "n", "tau", "trials", "true_mean", "true_std"]
    for mode in ESTIMATOR_MODES:
        fields.extend([f"{mode}_mean", f"{mode}_std", f"{mode}_mae"])
    rows = []
    for cs in result.cells:
        cell = cs.cell
        params = ";".join(f"{k}={format(v, 'g')}" for k, v in cell.params)
        row = [cell.family, params, cell.size, cell.n, cell.tau, result.trials, cs.true_mean, cs.true_std]
        by_mode = {m.mode: m for m in cs.estimates}
        for mode in ESTIMATOR_MODES:
            m = by_mode[mode]
            row.extend([m.mean, m.std, m.mean_abs_error])
        rows.append(row)
    return Table(tuple(fields), rows)


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
) -> ReportBundle:
    modes = tuple(modes)
    if not modes:
        raise InputError("modes must name at least one estimator mode")
    fof = freq_of_freqs(table)
    curves = tuple(curve_from_freqs(fof, tau_max, m) for m in modes)
    decomps = tuple(blindness_decomposition(table, tau, top_k=top_k) for tau in decomposition_taus)
    ceiling = ceiling_curve(curves[0], blind_accuracy)

    metadata: dict = {}
    metadata["dataset_id"] = dataset_id
    metadata["tool_version"] = TOOL_VERSION
    metadata["n"] = table.n
    metadata["k_eff"] = table.k_observed
    metadata["abstraction"] = None  # kept so every report has the same keys
    metadata["modes"] = list(modes)
    notes = {m: EXTENSION_MODE_NOTES[m] for m in modes if m in EXTENSION_MODE_NOTES}
    if notes:
        metadata["estimator_notes"] = notes
    metadata["assumed_blind_accuracy"] = blind_accuracy
    metadata["ceiling_source_mode"] = modes[0]

    return ReportBundle(
        curves=curves,
        decompositions=decomps,
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
    A ``Table`` renders as an array of objects keyed by its fields, a
    ``StateKey`` as the string of its serialized text.  Strings are escaped
    as ``json.dumps(..., ensure_ascii=False)`` does."""
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
    if isinstance(value, StateKey):
        return encode_basestring(value.serialize())
    if isinstance(value, (Table, Mapping, list, tuple)):
        return "".join(_json_chunks(value))
    raise InvariantViolation(f"cannot render {type(value).__name__} as JSON")


def _json_chunks(value):
    """``render_json(value)`` in pieces, so that a document is joined once."""
    if isinstance(value, Table):
        yield from _table_chunks(value)
    elif isinstance(value, Mapping):
        for i, (k, v) in enumerate(value.items()):
            yield ("," if i else "{") + encode_basestring(str(k)) + ":"
            yield from _json_chunks(v)
        yield "}" if value else "{}"
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            yield "," if i else "["
            yield from _json_chunks(v)
        yield "]" if value else "[]"
    else:
        yield render_json(value)


class _FloatTexts(dict):
    """``texts[x]`` is ``_render_float(x)``, rendered once per value: equal
    floats render alike, ``-0.0`` as ``0``."""

    def __missing__(self, x: float) -> str:
        text = self[x] = _render_float(x)
        return text


def _table_chunks(table: Table):
    """One object per row: every row's width is checked first, then each block
    of rows renders a column at a time and joins through one ``%`` template."""
    width = len(table.fields)
    for bad in filter(width.__ne__, map(len, table.rows)):
        raise ValueError(f"a row of {bad} values for {width} fields {table.fields}")
    template = "{" + ",".join(
        encode_basestring(k).replace("%", "%%") + ":%s" for k in table.fields
    ) + "}"
    for start in range(0, len(table.rows), _BLOCK_ROWS):
        block = table.rows[start:start + _BLOCK_ROWS]
        columns = map(_render_column, zip(*block))
        objects = map(template.__mod__, zip(*columns)) if width else ["{}"] * len(block)
        yield ("," if start else "[") + ",".join(objects)
    yield "]" if len(table.rows) else "[]"


def _render_column(col: tuple):
    """A column's JSON texts: one ``map`` of a renderer when every cell is of
    exactly one of ``str``, ``int`` or ``float`` type or is a ``StateKey`` of
    one schema (through its key template), else ``render_json`` per cell."""
    types = set(map(type, col))
    kind = types.pop() if len(types) == 1 else None
    if kind is StateKey:
        schemas = set(map(attrgetter("names"), col))
        if len(schemas) == 1:
            texts = map(_key_template(schemas.pop()).__mod__, map(attrgetter("values"), col))
            return map(encode_basestring, texts)
    render = {str: encode_basestring, int: str, float: _FloatTexts().__getitem__}.get(kind, render_json)
    return map(render, col)


def decomposition_obj(d: BlindnessDecomposition) -> dict:
    """JSON layout of one decomposition, for ``render_json``."""
    return {"tau": d.tau, "total": d.total, "entries": decomposition_table(d)}


def bundle_to_json(bundle: ReportBundle) -> str:
    curves = [
        (c.estimator_mode, c.n, c.k_observed, Table(("tau", "mass"), c.points))
        for c in bundle.curves
    ]
    doc = {
        "metadata": bundle.metadata,
        "curves": Table(("mode", "n", "k_eff", "points"), curves),
        "decompositions": [decomposition_obj(d) for d in bundle.decompositions],
        "ceiling": {
            "assumed_blind_accuracy": bundle.ceiling.assumed_blind_accuracy,
            "points": ceiling_table(bundle.ceiling),
        },
        "histogram": histogram_table(bundle.histogram),
    }
    return "".join([*_json_chunks(doc), "\n"])


def sweep_to_json(result: SweepResult) -> str:
    """The ``simulate --json`` document."""
    estimate_fields = ("mode", "mean", "std", "mean_abs_error")
    cells = [
        (cs.cell.family, dict(cs.cell.params), cs.cell.size, cs.cell.n, cs.cell.tau,
         cs.true_mean, cs.true_std,
         Table(estimate_fields, [(m.mode, m.mean, m.std, m.mean_abs_error) for m in cs.estimates]))
        for cs in result.cells
    ]
    doc = {
        "tool_version": TOOL_VERSION,
        "generator": GENERATOR_NAME,
        "master_seed": result.master_seed,
        "trials": result.trials,
        "cells": Table(
            ("family", "params", "K", "n", "tau", "true_mean", "true_std", "estimates"), cells
        ),
    }
    return "".join([*_json_chunks(doc), "\n"])
