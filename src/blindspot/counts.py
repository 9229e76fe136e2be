"""Count structures over an operational state space.

A state is one categorical value per factor of a fixed schema: a
``StateKey`` holds the schema's names tuple, shared by every key read under
it, and a tuple of values; ``KeyIndex`` is the one place that makes keys
from rows, so equal states share one key.  Tables keep exact integer counts
and store only observed states, so the frequency-of-frequencies identities
hold without floating-point slack.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import repeat
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import InputError, _check_int

__all__ = [
    "StateKey",
    "KeyIndex",
    "CountTable",
    "FreqOfFreqs",
    "build_count_table",
    "freq_of_freqs",
    "coarsen",
]

# reserved by the name=value|name=value serialization
_FORBIDDEN_CHARS = ("=", "|", "\t", "\n", "\r")


def _clean_token(text, what: str) -> str:
    if not isinstance(text, str):
        raise InputError(f"{what} must be a string, got {type(text).__name__}")
    if not text or text != text.strip():
        raise InputError(
            f"{what} must be non-empty without leading/trailing whitespace: {text!r}"
        )
    for ch in _FORBIDDEN_CHARS:
        if ch in text:
            raise InputError(f"{what} may not contain {ch!r}: {text!r}")
    return text


def _coerce_value(value) -> str:
    """Factor values are stored as strings; integers are accepted and coerced
    so keys serialize, order, and round-trip deterministically."""
    if isinstance(value, str):
        return _clean_token(value, "factor value")
    if isinstance(value, bool):
        raise InputError("factor value may not be a bool")
    try:
        return str(operator.index(value))
    except TypeError:
        raise InputError(
            f"factor value must be a string or integer, got {type(value).__name__}"
        ) from None


@lru_cache(maxsize=256)
def _key_template(names: tuple[str, ...]) -> str:
    """``_key_template(key.names) % key.values`` is the key's text: the
    schema's ``name=%s|name=%s`` template, any ``%`` in a name doubled."""
    return "|".join([name.replace("%", "%%") + "=%s" for name in names])


@dataclass(frozen=True, slots=True)
class StateKey:
    """One operational state: a value for each factor of a schema.

    ``names`` is the schema, ``values`` the matching factor values, in the
    same order; keys order lexicographically on ``values``.  The names tuple
    is stored as given, so keys built from one schema tuple share it.
    Factor names and values may not contain ``=``, ``|``, tabs, or newlines,
    which keeps the ``name=value|name=value`` serialization reversible.
    """

    names: tuple[str, ...]
    values: tuple[str, ...]

    def __post_init__(self):
        names = _check_schema(self.names)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "values", _check_values(names, self.values))

    def value_of(self, name: str) -> str:
        try:
            return self.values[self.names.index(name)]
        except ValueError:
            raise InputError(f"state key has no factor named {name!r}") from None

    def project(self, names: Sequence[str]) -> "StateKey":
        return StateKey(names, [self.value_of(n) for n in names])

    def serialize(self) -> str:
        return _key_template(self.names) % self.values

    @classmethod
    def parse(cls, text: str) -> "StateKey":
        names, values = [], []
        for part in text.split("|"):
            name, sep, value = part.partition("=")
            if not sep:
                raise InputError(f"bad state key field {part!r} in {text!r} (expected name=value)")
            names.append(name)
            values.append(value)
        return cls(tuple(names), values)

    def __str__(self) -> str:
        return self.serialize()


def _check_schema(schema) -> tuple[str, ...]:
    """The one home of the factor-name rules; returns ``schema`` as a tuple,
    the same object when it already is one."""
    if isinstance(schema, str):
        raise InputError("schema must be a sequence of factor names, not a single string")
    schema = tuple(schema)
    for name in schema:
        _clean_token(name, "factor name")
    if not schema:
        raise InputError("schema must name at least one factor")
    if len(set(schema)) != len(schema):
        raise InputError(f"schema has duplicate factor names: {list(schema)}")
    return schema


def _check_values(names: tuple[str, ...], values) -> tuple[str, ...]:
    """The one home of the factor-value rules; returns a tuple of strings."""
    if isinstance(values, str):
        raise InputError("factor values must be a sequence of values, not a single string")
    values = tuple(map(_coerce_value, values))
    if len(values) != len(names):
        raise InputError(
            f"expected {len(names)} factor values for schema {names}, got {len(values)}"
        )
    return values


class KeyIndex(dict):
    """``index[values]`` is the ``StateKey`` under ``schema``: built on first
    sight with every check ``StateKey(schema, values)`` makes, the same object
    after.  The schema is checked once, when the first key is built, so a bad
    schema is reported at the row (and file line) that needed it.  Each value
    string is checked once too: a tuple of the schema's width made only of
    strings that passed before needs no check.

    Keys are stored under their checked, all-string values only.  Any other
    tuple is checked on every lookup, so an integer value finds the key of
    its string and a bool, which equals 0 or 1 as a dict key, is refused.
    Callers that look up many rows pass strings."""

    def __init__(self, schema: Sequence[str]):
        super().__init__()
        self.schema = schema
        self._checked: set[str] = set()

    def __missing__(self, values: tuple) -> StateKey:
        if not self:
            self.schema = _check_schema(self.schema)
        if (
            type(values) is tuple
            and len(values) == len(self.schema)
            and self._checked.issuperset(values)
        ):
            checked = values
        else:
            checked = _check_values(self.schema, values)
            self._checked.update(checked)
            key = self.get(checked)
            if key is not None:
                return key
        key = object.__new__(StateKey)
        object.__setattr__(key, "names", self.schema)
        object.__setattr__(key, "values", checked)
        self[checked] = key
        return key


@dataclass(frozen=True)
class CountTable:
    """Exact observation counts over states sharing one factor schema:
    ``CountTable(counts, schema)``.

    Only observed states are stored (every stored count is >= 1, and at
    least one state); the count of any other state is 0 by definition.
    ``n``, the total number of observations, is the sum of the stored counts,
    computed here rather than passed.
    """

    counts: Mapping["StateKey", int]
    schema: tuple[str, ...]
    n: int = field(init=False)

    def __post_init__(self):
        schema = _check_schema(self.schema)
        counts = dict(self.counts)  # a dict or Counter copies with its stored hashes
        try:
            values = list(map(operator.index, counts.values()))
            valid = min(values, default=0) >= 1 and all(map(isinstance, counts, repeat(StateKey)))
        except TypeError:
            valid = False
        if not valid or set(map(operator.attrgetter("names"), counts)) != {schema}:
            _raise_first_bad_item(counts, schema)  # an empty table too
        if set(map(type, counts.values())) != {int}:
            counts = dict(zip(counts, values))
        object.__setattr__(self, "counts", MappingProxyType(counts))
        object.__setattr__(self, "n", sum(values))
        object.__setattr__(self, "schema", schema)

    @property
    def k_observed(self) -> int:
        return len(self.counts)

    def count(self, key: "StateKey") -> int:
        return self.counts.get(key, 0)

    def sorted_items(self) -> list[tuple["StateKey", int]]:
        """(state, count) pairs by state values: a new list per call of the
        order each table sorts once."""
        return list(self._state_order)

    @cached_property
    def _state_order(self) -> tuple[tuple["StateKey", int], ...]:
        return tuple(sorted(self.counts.items(), key=lambda kv: kv[0].values))


def _raise_first_bad_item(counts: Mapping, schema: tuple[str, ...]):
    for key, raw in counts.items():
        if not isinstance(key, StateKey):
            raise InputError(f"count table keys must be StateKey, got {type(key).__name__}")
        if key.names != schema:
            raise InputError(f"state {key.serialize()!r} does not match schema {list(schema)}")
        try:
            c = operator.index(raw)
        except TypeError:
            raise InputError(f"count for {key.serialize()!r} must be an integer") from None
        if c < 1:
            raise InputError(f"stored counts must be >= 1, got {c} for {key.serialize()!r}")
    raise InputError("a count table needs at least one observation")


@dataclass(frozen=True)
class FreqOfFreqs:
    """How many states were seen exactly r times, for each observed r:
    ``FreqOfFreqs(f)``, ``f`` mapping each r to f_r (integers >= 1, at least
    one entry).  The totals ``n`` (observations) and ``k_observed`` (states)
    are computed from ``f`` rather than passed."""

    f: Mapping[int, int]
    n: int = field(init=False)
    k_observed: int = field(init=False)
    # observed r ascending; _below[i] sums r*f_r over the first i of them
    _rs: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _below: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        what = "frequency-of-frequencies entry"
        # every entry is an int before the sort, which mixed key types would fail
        entries = sorted((_check_int(r, what), _check_int(fr, what)) for r, fr in self.f.items())
        below = [0]
        for r, fr in entries:
            if r < 1 or fr < 1:
                raise InputError(f"frequency-of-frequencies entries must be >= 1, got f[{r}]={fr}")
            below.append(below[-1] + r * fr)
        if not entries:
            raise InputError("a frequency-of-frequencies table needs at least one entry")
        object.__setattr__(self, "f", MappingProxyType(dict(entries)))
        object.__setattr__(self, "n", below[-1])
        object.__setattr__(self, "k_observed", sum(self.f.values()))
        object.__setattr__(self, "_rs", tuple(self.f))
        object.__setattr__(self, "_below", tuple(below))

    @property
    def singletons(self) -> int:
        return self.f.get(1, 0)

    def below(self, t: int) -> int:
        """The exact integer sum_{r<t} r*f_r."""
        return self._below[bisect_left(self._rs, t)]


def build_count_table(samples: Iterable["StateKey"], schema: Sequence[str]) -> CountTable:
    """Count a sequence of state observations.

    Every sample must carry exactly the factors named by ``schema``, in order;
    the first offending sample is reported by index.  An empty sequence is
    rejected: with n=0 every downstream estimate is undefined.

    Equal rows may share one ``StateKey`` object, as ``read_samples_file``
    returns them.  Each row is hashed once, at C level; ``CountTable`` checks
    each distinct key once, and the rows are walked again only to name the
    first bad one.  Memory grows with the distinct states, plus one pointer
    per row when ``samples`` is not already a list or tuple.

    A samples file is counted more cheaply by ``ingest.count_samples_file``,
    which makes no per-row sequence and keeps memory proportional to the
    file's distinct lines; it calls this function only when it falls back to
    ``read_samples_file``.
    """
    schema = _check_schema(schema)
    if not isinstance(samples, (list, tuple)):
        samples = list(samples)
    if not samples:
        raise InputError("no samples given: a count table needs at least one observation")
    try:
        return CountTable(counts=Counter(samples), schema=schema)
    except (TypeError, InputError):  # an unhashable sample, or a key CountTable refused
        _raise_first_bad_sample(samples, schema)
        raise


def _raise_first_bad_sample(samples: Sequence, schema: tuple[str, ...]):
    for i, key in enumerate(samples):
        if not isinstance(key, StateKey):
            raise InputError(f"sample {i} is not a StateKey (got {type(key).__name__})")
        if key.names != schema:
            _raise_sample_mismatch(i, key, schema)


def _raise_sample_mismatch(i: int, key: StateKey, schema: tuple[str, ...]):
    names = key.names
    for pos in range(min(len(names), len(schema))):
        if names[pos] != schema[pos]:
            raise InputError(
                f"sample {i}: factor {names[pos]!r} at position {pos} does not match "
                f"schema factor {schema[pos]!r}"
            )
    raise InputError(f"sample {i}: expected factors {list(schema)}, got {list(names)}")


def freq_of_freqs(table: CountTable) -> FreqOfFreqs:
    """Tabulate f_r = number of states observed exactly r times."""
    return FreqOfFreqs(f=Counter(table.counts.values()))


def coarsen(table: CountTable, projection: Sequence[str]) -> CountTable:
    """Project the state space onto a subset of factors, summing counts of
    states that collide.

    The retained factors keep their schema order no matter how ``projection``
    is ordered.  Total observations are preserved; merging can only increase
    per-state support.
    """
    proj = _check_schema(projection)
    missing = [p for p in proj if p not in table.schema]
    if missing:
        raise InputError(f"projection names factors absent from schema {list(table.schema)}: {missing}")
    retained = tuple(name for name in table.schema if name in proj)
    keys = KeyIndex(retained)
    merged: Counter[StateKey] = Counter()
    for key, c in table.counts.items():
        merged[keys[tuple(map(key.value_of, retained))]] += c
    return CountTable(counts=merged, schema=retained)
