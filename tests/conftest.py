"""Shared builders for states and count tables, and the row-reader oracles
of the two table file formats."""

from __future__ import annotations

import csv
import random
from itertools import repeat
from pathlib import Path

from hypothesis import strategies as st

import blindspot.ingest as ingest
from blindspot import CountTable, InputError, KeyIndex, StateKey, build_count_table, read_samples_file

DATA_DIR = Path(__file__).parent / "data"


def key(**factors) -> StateKey:
    """StateKey from keyword arguments, factor order as written."""
    return StateKey(tuple(factors), tuple(factors.values()))


def table_of(counts, factor: str = "activity") -> CountTable:
    """Single-factor count table from a {value: count} mapping."""
    mapped = {key(**{factor: value}): c for value, c in counts.items()}
    return CountTable(counts=mapped, schema=(factor,))


def random_single_table(rng: random.Random, max_states: int = 40, max_count: int = 20) -> CountTable:
    k = rng.randint(1, max_states)
    values = rng.sample(range(max_states * 10), k)
    counts = {f"v{v}": rng.randint(1, max_count) for v in values}
    return table_of(counts, factor="s")


def random_multi_table(rng: random.Random, max_count: int = 12) -> CountTable:
    """Random 3-factor table with small per-factor alphabets (collisions are
    the point: coarsening must merge them)."""
    sizes = (rng.randint(2, 4), rng.randint(2, 4), rng.randint(2, 4))
    counts: dict[StateKey, int] = {}
    for _ in range(rng.randint(2, 25)):
        state = key(
            a=f"a{rng.randrange(sizes[0])}",
            b=f"b{rng.randrange(sizes[1])}",
            c=f"c{rng.randrange(sizes[2])}",
        )
        counts[state] = counts.get(state, 0) + rng.randint(1, max_count)
    return CountTable(counts=counts, schema=("a", "b", "c"))


def reference_count(path) -> CountTable:
    """What ``count_samples_file`` gives, counted from ``read_samples_file``'s rows."""
    samples, schema = read_samples_file(path)
    if not samples:
        raise InputError(f"{path}: samples file has no data rows")
    return build_count_table(samples, schema)


def reference_counts(path) -> CountTable:
    """What ``read_counts_file`` gives, read and checked one record at a time."""
    with ingest._open_text(path) as fh:
        reader = csv.reader(fh)
        schema = ingest._counts_schema(ingest._header(reader, "counts file"))
        keys = KeyIndex(schema)
        counts: dict[StateKey, int] = {}
        with ingest._at_line(lambda: reader.line_num):
            for row in map(ingest._record, reader, repeat(len(schema) + 1)):
                key = keys[tuple([v.strip() for v in row[:-1]])]
                raw = row[-1].strip()
                try:
                    c = int(raw)
                except ValueError:
                    raise InputError(f"count {raw!r} is not an integer") from None
                if c < 1:
                    raise InputError(f"count must be >= 1, got {c}")
                counts[key] = counts.get(key, 0) + c
        if not counts:
            raise InputError("counts file has no data rows")
    return CountTable(counts=counts, schema=schema)


@st.composite
def tied_tables(draw) -> CountTable:
    """Random 1- to 3-factor table whose counts (1..4) tie often and whose
    values share prefixes ("a" < "ab" < "b"), so the state order decides
    most ties."""
    names = ("f", "g", "h")[: draw(st.integers(min_value=1, max_value=3))]
    value = st.sampled_from(["a", "ab", "b", "b0", "10", "9"])
    states = draw(st.lists(st.tuples(*[value] * len(names)), min_size=1, max_size=40, unique=True))
    counts = draw(st.lists(st.integers(min_value=1, max_value=4),
                           min_size=len(states), max_size=len(states)))
    return CountTable(counts={StateKey(names, s): c for s, c in zip(states, counts)}, schema=names)


# replayed activity-count table used across estimator and CLI tests
ACTIVITY_COUNTS = {
    "Walking": 307,
    "Stairs up": 134,
    "Stairs down": 144,
    "Front fall": 122,
    "Backward fall": 122,
    "Sitting": 121,
    "Standing": 121,
    "Lying": 121,
    "Running": 121,
    "Cycling": 121,
    "Bending": 120,
    "Jumping": 120,
}
