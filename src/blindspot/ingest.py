"""Dataset adapters and the package's text file formats.

Formats owned here:

* canonical samples CSV: header of ``factor:<name>`` columns, one row per
  observation, UTF-8 with LF newlines
* counts CSV: factor columns (bare names or ``factor:`` prefixed) plus a
  trailing ``count`` column
* risk-weights text: ``<state><TAB><weight>`` lines where the state is either
  the canonical ``name=value|name=value`` form or bare ``value|value`` matched
  to the schema positionally; a ``*`` line sets the default weight
* per-class accuracy (``class,successes,trials``), generic labeled and
  admission diagnoses CSVs, whose columns are found by name
* key=value config text (abstraction configs; sweep specs are read by
  ``simulator.read_sweep_spec``); ``#`` lines are comments
* raw 54-column IMU recordings (whitespace separated, ``NaN`` literals)

A CSV file's first record is its header, and every record must have the
header's width.  A blank line is a 0-field record in a samples or counts
file and is skipped in the other CSVs, which refuse a header that names a
column they read twice.  Paths ending in ``.gz`` are decompressed
transparently on read.  Every reader's ``InputError`` names the file; one
about a record (a ``csv`` refusal too) names the physical line on which it
ends (``<path>: line <n>: <message>``), and one about a config value its key.
"""

from __future__ import annotations

import csv
import gzip
import re
import warnings
import zlib
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .abstraction import (
    FACTOR_ICD,
    AbstractionConfig,
    AdmissionRecord,
    LabeledStream,
    _icd_prefix,
)
from .counts import CountTable, KeyIndex, StateKey
from .errors import InputError, InvariantViolation, MissingPrimaryDiagnosis, _check_int
from .estimators import RiskWeights, _check_weight

__all__ = [
    "IngestionSummary",
    "DROP_MISSING_LABEL",
    "DROP_TRANSIENT",
    "DROP_NAN",
    "DROP_NO_PRIMARY",
    "NOTE_DUPLICATE_PRIMARY",
    "read_samples_file",
    "count_samples_file",
    "write_samples_file",
    "read_counts_file",
    "read_risk_weights",
    "read_class_accuracies",
    "read_kv_file",
    "read_abstraction_config",
    "write_abstraction_config",
    "ingest_samples_csv",
    "ingest_diagnoses",
    "ingest_pamap2",
    "PLACEMENTS",
]

DROP_MISSING_LABEL = "missing-label"
DROP_TRANSIENT = "transient-activity"
DROP_NAN = "NaN-after-impute"
DROP_NO_PRIMARY = "no-seq1-diagnosis"
NOTE_DUPLICATE_PRIMARY = "duplicate-seq1-diagnosis"

_FACTOR_PREFIX = "factor:"
_BLOCK_ROWS = 4096  # samples-file lines or counts-file records read at a time


@dataclass
class IngestionSummary:
    """Row bookkeeping for one ingestion run.

    ``rows_read == rows_kept + sum(dropped)`` always holds in the unit the
    adapter counts in (``unit``); informational tallies that do not take part
    in that identity live in ``notes``.
    """

    rows_read: int = 0
    rows_kept: int = 0
    dropped: dict = field(default_factory=dict)
    emitted: int = 0
    unit: str = "rows"
    sources: tuple = ()
    notes: dict = field(default_factory=dict)
    skipped: list = field(default_factory=list)  # a warning per record skipped

    def drop(self, reason: str, count: int = 1):
        if count:
            self.dropped[reason] = self.dropped.get(reason, 0) + count

    def note(self, key: str, count: int = 1):
        if count:
            self.notes[key] = self.notes.get(key, 0) + count

    def validate(self):
        if self.rows_read != self.rows_kept + sum(self.dropped.values()):
            raise InvariantViolation(
                f"summary does not balance: read {self.rows_read}, kept {self.rows_kept}, "
                f"dropped {sum(self.dropped.values())}"
            )

    def lines(self) -> list[str]:
        out = [f"sources: {', '.join(self.sources) if self.sources else '-'}"]
        out.append(f"{self.unit} read: {self.rows_read}")
        for reason in sorted(self.dropped):
            out.append(f"{self.unit} dropped ({reason}): {self.dropped[reason]}")
        out.append(f"{self.unit} kept: {self.rows_kept}")
        out.append(f"emitted: {self.emitted}")
        for key in sorted(self.notes):
            out.append(f"note {key}: {self.notes[key]}")
        return out


@contextmanager
def _naming_path(path):
    """Re-raise an ``InputError``, or what a damaged or undecodable file
    throws, as an ``InputError`` that names the file."""
    try:
        yield
    except (InputError, UnicodeDecodeError, csv.Error, EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise InputError(f"{path}: {exc}") from None


@contextmanager
def _open_text(path):
    # utf-8-sig: a leading byte-order mark (Excel's "CSV UTF-8") is not text
    opener = gzip.open if str(path).endswith(".gz") else open
    with _naming_path(path), opener(path, "rt", encoding="utf-8-sig", newline="") as fh:
        yield fh


def _header(reader, what: str = "file") -> list[str]:
    """The first record of a CSV ``reader``: its file's header."""
    try:
        return next(reader)
    except StopIteration:
        raise InputError(f"empty {what} (missing header)") from None


def _record(row, width: int):
    """``row``, refused when it does not have ``width`` fields.  A blank line
    is a 0-field record; ``filter(None, reader)`` skips it."""
    if len(row) != width:
        raise InputError(f"expected {width} fields, found {len(row)}")
    return row


def _positions(header, folded, names, what="column(s)") -> list[int]:
    """Where each of ``names`` stands in ``folded``, the header's names as
    its format compares them.  A missing name is refused, and so is one the
    header holds twice: which copy to read would be a guess."""
    missing = [name for name in names if name not in folded]
    if missing:
        raise InputError(f"missing {what} {missing}; header has {header}")
    for name in names:
        if folded.count(name) > 1:
            raise InputError(f"column {name!r} appears more than once; header has {header}")
    return [folded.index(name) for name in names]


@contextmanager
def _at_line(line):
    """Re-raise an ``InputError`` or ``csv.Error`` from a record loop with its
    line in front.  ``line()`` gives the physical line on which the record
    being read ends; it is called only when the loop fails."""
    try:
        yield
    except (InputError, csv.Error) as exc:
        raise InputError(f"line {line()}: {exc}") from None


# ---------------------------------------------------------------------------
# canonical samples file


def write_samples_file(path, samples: Iterable[StateKey], schema: Sequence[str]) -> None:
    schema = tuple(schema)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_samples(fh, samples, schema)


def _write_samples(fh, samples: Iterable[StateKey], schema: Sequence[str]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow([_FACTOR_PREFIX + name for name in schema])
    for key in samples:
        if key.names != tuple(schema):
            raise InputError(
                f"sample {key.serialize()!r} does not match schema {list(schema)}"
            )
        writer.writerow(list(key.values))


def _samples_schema(header) -> tuple[str, ...]:
    for col in header:
        if not col.startswith(_FACTOR_PREFIX):
            raise InputError(f"samples header column {col!r} must start with {_FACTOR_PREFIX!r}")
    return tuple(col[len(_FACTOR_PREFIX):] for col in header)


def read_samples_file(path) -> tuple[list[StateKey], tuple[str, ...]]:
    """Read a canonical samples CSV into one ``StateKey`` per row, in file
    order, and the schema named by its header.

    Equal rows share one key object: a key is built and validated the first
    time its row appears, so memory grows with the distinct states plus one
    pointer per row.

    This is the per-row API.  To count a file, ``count_samples_file`` is
    cheaper: it parses each distinct line once and keeps no per-row list.
    """
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        schema = _samples_schema(_header(reader, "samples file"))
        keys = KeyIndex(schema)
        with _at_line(lambda: reader.line_num):
            samples = [keys[tuple(row)] for row in map(_record, reader, repeat(len(schema)))]
    return samples, schema


def count_samples_file(path) -> CountTable:
    """The ``CountTable`` of a canonical samples CSV: equal to
    ``build_count_table(*read_samples_file(path))``, with the same errors,
    but for ``samples file has no data rows`` and a ``csv`` refusal in a
    record that spans lines, which is named by the record's first line.

    The file is read once, a block of lines at a time.  Lines are counted as
    raw text and each new one is parsed and checked once, in file order, so
    beyond the read, time and memory grow with the distinct lines, not the
    rows; lines that parse to equal values count as one state.  A block's
    new lines go through one ``csv.reader``; a record that runs past its
    line (a quoted field still open at its end) is read on through the
    file, and refused, since no factor value may hold a line break.
    """
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        schema = _samples_schema(_header(reader, "samples file"))
        keys = KeyIndex(schema)
        lines: Counter = Counter()  # each distinct data line, in file order
        made: list[StateKey] = []  # the key of each of ``lines``
        before = reader.line_num  # the lines before the block
        while block := list(islice(fh, _BLOCK_ROWS)):
            seen = len(lines)
            lines.update(block)
            new = list(islice(reversed(lines), len(lines) - seen))[::-1]  # in file order
            rows = csv.reader(chain(new, ["\n"]))  # a record still open at new's end reads the "\n" too
            read, span = 0, 1  # the lines of new before the record being checked; the lines it spans
            with _at_line(lambda: before + block.index(new[read]) + span):
                for row in islice(rows, len(new)):
                    if rows.line_num > read + 1:  # it ran past its line: read it on in the file
                        quoted = csv.reader(chain(block[block.index(new[read]):], fh))
                        row, span = next(quoted), quoted.line_num
                    made.append(keys[tuple(_record(row, len(schema)))])
                    read += 1
            before += len(block)
        if not made:
            raise InputError("samples file has no data rows")
    counts: dict[StateKey, int] = {}
    for key, c in zip(made, lines.values()):
        counts[key] = counts.get(key, 0) + c
    return CountTable(counts=counts, schema=schema)


# ---------------------------------------------------------------------------
# counts file


def _counts_schema(header) -> tuple[str, ...]:
    if len(header) < 2 or header[-1].strip().lower() != "count":
        raise InputError("counts header must be factor columns followed by a 'count' column")
    return tuple(col.strip().removeprefix(_FACTOR_PREFIX) for col in header[:-1])


def read_counts_file(path) -> CountTable:
    """CSV of per-state counts: factor columns then a final ``count`` column.
    Duplicate state rows are summed (multiset semantics).  The file is read
    once, a block of records at a time, each column of a block in one pass;
    a block's new states are checked before the next block is read, and a
    refused block is walked in file order to name its first bad record."""
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        schema = _counts_schema(_header(reader, "counts file"))
        keys = KeyIndex(schema)
        sums: dict[tuple, int] = {}  # stripped values -> summed count, in file order
        before = reader.line_num  # the lines before the block
        with _at_line(lambda: reader.line_num):  # a csv.Error while a block is read
            while rows := list(islice(reader, _BLOCK_ROWS)):
                seen = len(sums)
                try:
                    *columns, raw = zip(*rows)
                    counts = list(map(int, raw))  # int() ignores surrounding whitespace
                    if set(map(len, rows)) != {len(schema) + 1} or min(counts) < 1:
                        raise ValueError("a ragged or blank record, or a count below 1")
                    for values, c in zip(zip(*[map(str.strip, col) for col in columns]), counts):
                        sums[values] = sums.get(values, 0) + c
                    keys._new_keys(list(islice(reversed(sums), len(sums) - seen))[::-1])  # new, in file order
                except ValueError:  # an InputError too: the block is refused
                    break
                before = reader.line_num
        if rows:  # the refused block
            _raise_first_bad_count(rows, keys, before)
        if not sums:
            raise InputError("counts file has no data rows")
    # keys holds the key of each of sums, in the same order
    return CountTable(counts=dict(zip(keys.values(), sums.values())), schema=schema)


def _raise_first_bad_count(rows, keys: KeyIndex, line: int):
    """Raise the error of the first bad record of ``rows``, a counts-file
    block that starts after line ``line``."""
    with _at_line(lambda: line):
        for row in rows:
            text = ",".join(row)  # a quoted field may hold line breaks
            line += 1 + text.count("\n") + text.count("\r") - text.count("\r\n")
            keys[tuple([v.strip() for v in _record(row, len(keys.schema) + 1)[:-1]])]
            raw = row[-1].strip()
            try:
                c = int(raw)
            except ValueError:
                raise InputError(f"count {raw!r} is not an integer") from None
            if c < 1:
                raise InputError(f"count must be >= 1, got {c}")
    raise InvariantViolation("a refused block of counts has no bad record")


# ---------------------------------------------------------------------------
# risk weights


def read_risk_weights(path, schema: Sequence[str]) -> RiskWeights:
    """Tab-separated ``state<TAB>weight`` lines; ``*`` sets the default weight
    (1.0 when no ``*`` line is present)."""
    schema = tuple(schema)
    keys = KeyIndex(schema)
    weights: dict[StateKey, float] = {}
    default = None
    with _open_text(path) as fh, _at_line(lambda: lineno):
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            key_text, sep, weight_text = line.partition("\t")
            if not sep:
                raise InputError(f"expected <state><TAB><weight>, got {line!r}")
            try:
                w = float(weight_text.strip())
            except ValueError:
                raise InputError(f"weight {weight_text.strip()!r} is not a number") from None
            _check_weight(w, lambda: "weight")
            key_text = key_text.strip()
            if key_text == "*":
                if default is not None:
                    raise InputError("duplicate '*' default line")
                default = w
                continue
            if "=" in key_text:
                key = StateKey.parse(key_text)
                if key.names != schema:
                    raise InputError(
                        f"state factors {list(key.names)} do not match schema {list(schema)}"
                    )
            else:
                key = keys[tuple(key_text.split("|"))]
            if key in weights:
                raise InputError(f"duplicate weight for {key.serialize()!r}")
            weights[key] = w
    return RiskWeights(weights=weights, default_weight=1.0 if default is None else default)


# ---------------------------------------------------------------------------
# per-class accuracy counts


def read_class_accuracies(path) -> list[tuple[int, str, int, int]]:
    """``class,successes,trials`` CSV (column names case-insensitive) as
    (line number, class, successes, trials) rows, the line being the one on
    which the row ends; ranges are the caller's."""
    rows = []
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        header = _header(reader)
        folded = [name.lower().strip() for name in header]
        label_at, s_at, t_at = _positions(header, folded, ("class", "successes", "trials"))
        with _at_line(lambda: reader.line_num):
            for row in map(_record, filter(None, reader), repeat(len(header))):
                label = row[label_at].strip()
                try:
                    s = int(row[s_at].strip())
                    t = int(row[t_at].strip())
                except ValueError:
                    raise InputError("successes and trials must be integers") from None
                rows.append((reader.line_num, label, s, t))
    return rows


# ---------------------------------------------------------------------------
# key=value config files


def read_kv_file(path, keys: Sequence[str]) -> dict[str, str]:
    """The ``key = value`` lines of a file whose format allows ``keys``.
    Blank lines and ``#`` lines are skipped; a malformed line, an unknown key
    or a duplicate key is an error at its line."""
    out: dict[str, str] = {}
    with _open_text(path) as fh, _at_line(lambda: lineno):
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            key, sep, value = stripped.partition("=")
            key = key.strip()
            if not sep or not key:
                raise InputError(f"expected 'key = value', got {stripped!r}")
            if key not in keys:
                raise InputError(f"unknown key {key!r}; expected {list(keys)}")
            if key in out:
                raise InputError(f"duplicate key {key!r}")
            out[key] = value.strip()
    return out


def _kv_int(kv: dict[str, str], key: str) -> int:
    try:
        return int(kv[key])
    except ValueError:
        raise InputError(f"{key} must be an integer, got {kv[key]!r}") from None


def _kv_list(kv: dict[str, str], key: str, parse, noun: str) -> list:
    """The comma-separated values of ``key``, each through ``parse``."""
    try:
        return [parse(part.strip()) for part in kv[key].split(",") if part.strip()]
    except ValueError:
        raise InputError(f"{key} must be a comma-separated list of {noun}") from None


_CONFIG_KEYS = tuple(f.name for f in fields(AbstractionConfig))


def read_abstraction_config(path) -> AbstractionConfig:
    """The ``AbstractionConfig`` a config file describes; keys it leaves out
    take their defaults.  Every error names the file."""
    kv = read_kv_file(path, _CONFIG_KEYS)
    kwargs: dict = {}
    try:
        if "factors" in kv:
            kwargs["factors"] = tuple(_kv_list(kv, "factors", str, "names"))
        for name in ("tilt_bins", "energy_bins", "rate_bins"):
            if name in kv:
                kwargs[name] = _kv_int(kv, name)
        for name in ("energy_edges", "rate_edges"):
            if name in kv and kv[name]:
                kwargs[name] = tuple(_kv_list(kv, name, float, "numbers"))
        if "refinement_tag" in kv:
            kwargs["refinement_tag"] = kv["refinement_tag"]
        return AbstractionConfig(**kwargs)
    except ValueError as exc:  # InputError is a ValueError
        raise InputError(f"{path}: {exc}") from None


def write_abstraction_config(path, config: AbstractionConfig) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_config(fh, config)


def _config_text(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(map(_config_text, value))
    return format(value, ".17g") if isinstance(value, float) else str(value)


def _write_config(fh, config: AbstractionConfig) -> None:
    # a saved config lists the edges last, after refinement_tag
    for name in sorted(_CONFIG_KEYS, key=lambda name: name.endswith("_edges")):
        value = getattr(config, name)
        if value is not None:
            fh.write(f"{name} = {_config_text(value)}\n")


# ---------------------------------------------------------------------------
# generic labeled CSV


def ingest_samples_csv(path, key_columns: Sequence[str]) -> tuple[list[StateKey], IngestionSummary]:
    """One state per row from named columns of an arbitrary CSV.  Rows with an
    empty key cell are dropped and tallied.

    As in ``read_samples_file``, equal rows share one key object, built and
    validated where its values first appear.
    """
    key_columns = tuple(key_columns)
    if not key_columns:
        raise InputError("key_columns must name at least one column")
    summary = IngestionSummary(unit="rows", sources=(str(path),))
    samples: list[StateKey] = []
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        header = _header(reader)
        columns = _positions(header, header, key_columns, "key column(s)")
        keys = KeyIndex(key_columns)
        with _at_line(lambda: reader.line_num):
            for row in map(_record, filter(None, reader), repeat(len(header))):
                summary.rows_read += 1
                values = tuple([row[i].strip() for i in columns])
                if "" in values:
                    summary.drop(DROP_MISSING_LABEL)
                    continue
                samples.append(keys[values])
                summary.rows_kept += 1
    summary.emitted = len(samples)
    summary.validate()
    return samples, summary


# ---------------------------------------------------------------------------
# admission diagnoses


def ingest_diagnoses(path) -> tuple[list[StateKey], IngestionSummary]:
    """One state per admission from a (admission id, seq_num, icd_code) CSV.

    The first sequence-1 row in file order wins; extra sequence-1 rows are
    tallied as duplicates.  Admissions without a usable sequence-1 code are
    skipped, each with a message in the summary's ``skipped``.  Admissions
    with equal ICD prefixes share one key object.  The summary counts
    admissions; the raw diagnosis-row count is carried under notes.
    """
    summary = IngestionSummary(unit="admissions", sources=(str(path),))
    admissions: dict[str, list[tuple[int, str]]] = {}
    primary_line: dict[str, int] = {}  # where each admission's first sequence-1 row ends
    row_count = 0
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        header = _header(reader)
        folded = [name.lower() for name in header]
        names = []  # of each column, the first of its names the header holds
        for candidates in (("hadm_id", "admission_id"), ("seq_num",), ("icd_code",)):
            names.append(next((name for name in candidates if name in folded), None))
            if names[-1] is None:
                raise InputError(f"missing required column (one of {list(candidates)}); header has {header}")
        adm_at, seq_at, code_at = _positions(header, folded, names)
        with _at_line(lambda: reader.line_num):
            for row_count, row in enumerate(map(_record, filter(None, reader), repeat(len(header))), 1):
                adm = row[adm_at].strip()
                if not adm:
                    raise InputError("empty admission id")
                raw_seq = row[seq_at].strip()
                try:
                    seq = int(raw_seq)
                except ValueError:
                    raise InputError(f"sequence number {raw_seq!r} is not an integer") from None
                code = row[code_at].strip()
                admissions.setdefault(adm, []).append((seq, code))
                if seq == 1:
                    primary_line.setdefault(adm, reader.line_num)
    summary.note("diagnosis-rows", row_count)
    samples: list[StateKey] = []
    keys = KeyIndex((FACTOR_ICD,))
    for adm, diags in admissions.items():
        summary.rows_read += 1
        extra_primaries = sum(1 for seq, _ in diags if seq == 1) - 1
        if extra_primaries > 0:
            summary.note(NOTE_DUPLICATE_PRIMARY, extra_primaries)
        record = AdmissionRecord(admission_id=adm, diagnoses=tuple(diags))
        try:
            prefix = _icd_prefix(record)
        except MissingPrimaryDiagnosis as exc:
            summary.skipped.append(f"skipping admission: {exc}")
            summary.drop(DROP_NO_PRIMARY)
            continue
        with _naming_path(path), _at_line(lambda: primary_line[adm]):
            samples.append(keys[(prefix,)])
        summary.rows_kept += 1
    summary.emitted = len(samples)
    summary.validate()
    return samples, summary


# ---------------------------------------------------------------------------
# raw IMU recordings

PLACEMENTS = ("hand", "chest", "ankle")

_RAW_COLUMNS = 54
_IMU_BASE = {"hand": 3, "chest": 20, "ankle": 37}
# per-IMU layout after the base column: temperature, acc (16g) xyz,
# acc (6g) xyz, gyro xyz, magnetometer xyz, orientation quaternion
_USED_OFFSETS = [1, 2, 3, 7, 8, 9]  # acc (16g) xyz, gyro xyz
_SAMPLE_RATE_HZ = 100.0


def _scan_raw_file(path) -> None:
    # slow diagnostic pass, run only after the fast parser failed
    with _open_text(path) as fh, _at_line(lambda: lineno):
        for lineno, line in enumerate(fh, 1):
            tokens = line.split("#", 1)[0].split()  # np.loadtxt's comment rule
            if not tokens:
                continue
            if len(tokens) != _RAW_COLUMNS:
                raise InputError(f"expected {_RAW_COLUMNS} columns, found {len(tokens)}")
            for tok in tokens:
                try:
                    float(tok)
                except ValueError:
                    raise InputError(f"non-numeric value {tok!r}") from None


def _parse_raw_file(path, base: int, summary: IngestionSummary) -> np.ndarray:
    """One recording's kept rows as a (rows, 8) float block, maybe empty:
    timestamp, activity id, then the 16g acc xyz and gyro xyz of the IMU at
    column ``base``.  Each dropped row is tallied in ``summary``."""
    try:
        with _naming_path(path), warnings.catch_warnings():
            warnings.simplefilter("ignore")  # empty files warn; they parse to no rows
            # numpy opens the path itself (faster than reading a Python
            # handle); utf-8-sig skips a leading byte-order mark
            data = np.loadtxt(path, dtype=float, ndmin=2, encoding="utf-8-sig")
        if data.size and data.shape[1] != _RAW_COLUMNS:
            raise ValueError(f"expected {_RAW_COLUMNS} columns, found {data.shape[1]}")
    except InputError:
        raise  # undecodable or damaged: the file is named, no scan can add to it
    except ValueError as exc:
        _scan_raw_file(path)
        raise InputError(f"{path}: unreadable numeric data: {exc}") from None
    # an empty file parses to shape (0, 1)
    block = data.reshape(-1, _RAW_COLUMNS)[:, [0, 1, *(base + k for k in _USED_OFFSETS)]]
    del data  # a copy was taken; free the other 46 columns before the fill
    summary.rows_read += len(block)

    labeled = ~np.isnan(block[:, 1])
    summary.drop(DROP_MISSING_LABEL, int(len(block) - labeled.sum()))
    block = block[labeled]
    too_big = ~(np.abs(block[:, 1]) < 2.0**63)  # would not survive the int64 cast
    if too_big.any():
        raise InputError(f"{path}: activity id {block[too_big, 1][0]:g} is outside (-2**63, 2**63)")
    block[:, 1] = block[:, 1].astype(np.int64)  # the truncated ids define the runs

    # a NaN takes the last earlier value of its column in its run of equal ids
    # (none if it leads the run); runs split by transient rows stay apart
    rows = np.arange(len(block))
    begins = np.ones(len(block), dtype=bool)
    begins[1:] = block[1:, 1] != block[:-1, 1]
    run_start = np.maximum.accumulate(np.where(begins, rows, 0))
    sensors = block[:, 2:]
    missing = np.isnan(sensors)
    donor = np.where(missing, -1, rows[:, None])  # last non-NaN row so far, per column
    np.maximum.accumulate(donor, axis=0, out=donor)
    r, c = np.nonzero(missing & (donor >= run_start[:, None]))
    sensors[r, c] = sensors[donor[r, c], c]

    active = block[:, 1] != 0
    clean = ~np.isnan(sensors).any(axis=1)
    summary.drop(DROP_TRANSIENT, int(len(block) - active.sum()))
    summary.drop(DROP_NAN, int((active & ~clean).sum()))
    return block[active & clean]


def ingest_pamap2(
    paths: Sequence, subjects: Sequence[int], placement: str = "chest"
) -> tuple[LabeledStream, IngestionSummary]:
    """Parse raw 54-column IMU recordings into a 100 Hz labeled stream.

    ``subjects`` selects recordings by the subject number embedded in each
    file name, concatenated in the order given.  The 16g accelerometer and the
    gyroscope of the chosen placement are consumed, in one (rows, 8) block
    per recording.  Activity ids are truncated to integers; rows without one
    are dropped, and so is id 0, which marks transient breaks.  NaN samples
    are forward-filled within contiguous same-activity runs and rows still
    NaN afterwards are dropped.

    The stream keeps each row's timestamp and marks where each recording
    begins, so no window crosses from one recording into the next, or over
    rows that were dropped (a timestamp step that is not positive or exceeds
    1.5 sample periods).
    """
    if placement not in _IMU_BASE:
        raise InputError(f"unknown placement {placement!r}; choose from {list(PLACEMENTS)}")
    subjects = [_check_int(s, "subject id") for s in subjects]
    if not subjects:
        raise InputError("subjects must name at least one subject id")
    by_subject: dict[int, Path] = {}
    for p in paths:
        p = Path(p)
        m = re.search(r"(\d+)", p.stem)
        if not m:
            continue
        sid = int(m.group(1))
        if sid in by_subject and by_subject[sid] != p:
            raise InputError(f"two files match subject {sid}: {by_subject[sid]} and {p}")
        by_subject[sid] = p
    missing = [s for s in subjects if s not in by_subject]
    if missing:
        raise InputError(f"unknown subject id(s) {missing}: no matching file among the given paths")

    base = _IMU_BASE[placement]
    summary = IngestionSummary(unit="rows", sources=tuple(str(by_subject[s]) for s in subjects))
    blocks = [_parse_raw_file(by_subject[s], base, summary) for s in subjects]
    # each recording after the first begins a segment that no window crosses
    segment_starts = np.cumsum([len(b) for b in blocks if len(b)][:-1], dtype=int).tolist()
    data = np.concatenate(blocks)
    stream = LabeledStream(
        acc=data[:, 2:5], gyro=data[:, 5:], labels=data[:, 1].astype(np.int64),
        sample_rate_hz=_SAMPLE_RATE_HZ, timestamps=data[:, 0], segment_starts=segment_starts,
    )
    summary.rows_kept = len(stream)
    summary.emitted = len(stream)
    summary.validate()
    return stream, summary
