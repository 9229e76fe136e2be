"""Count structures over an operational state space.

A state is one categorical value per factor of a fixed schema: a
``StateKey`` holds the schema's names tuple, shared by every key read under
it, and a tuple of values; ``KeyIndex`` is the one place that makes keys
from rows, so equal states share one key.  Tables keep exact integer counts
and store only observed states, so the frequency-of-frequencies identities
hold without floating-point slack; probabilities appear only in derived
empirical distributions.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import InputError, _check_float, _check_int

__all__ = [
    "StateKey",
    "KeyIndex",
    "CountTable",
    "FreqOfFreqs",
    "EmpiricalDistribution",
    "PLUG_IN",
    "KNOWN_TRUTH",
    "build_count_table",
    "freq_of_freqs",
    "plug_in_distribution",
    "coarsen",
]

PLUG_IN = "plug-in"
KNOWN_TRUTH = "known-truth"

# probability vectors must sum to 1 within this slack
PROB_SUM_TOL = 1e-9

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


@dataclass(frozen=True)
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
        return "|".join(map("=".join, zip(self.names, self.values)))

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
        snapshot: dict[StateKey, int] = {}
        total = 0
        for key, raw in self.counts.items():
            if not isinstance(key, StateKey):
                raise InputError(f"count table keys must be StateKey, got {type(key).__name__}")
            if key.names != schema:
                raise InputError(
                    f"state {key.serialize()!r} does not match schema {list(schema)}"
                )
            try:
                c = operator.index(raw)
            except TypeError:
                raise InputError(f"count for {key.serialize()!r} must be an integer") from None
            if c < 1:
                raise InputError(f"stored counts must be >= 1, got {c} for {key.serialize()!r}")
            snapshot[key] = c
            total += c
        if not snapshot:
            raise InputError("a count table needs at least one observation")
        object.__setattr__(self, "counts", MappingProxyType(snapshot))
        object.__setattr__(self, "n", total)
        object.__setattr__(self, "schema", schema)

    @property
    def k_observed(self) -> int:
        return len(self.counts)

    def count(self, key: "StateKey") -> int:
        return self.counts.get(key, 0)

    def sorted_items(self) -> list[tuple["StateKey", int]]:
        return sorted(self.counts.items(), key=lambda kv: kv[0].values)


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
        snapshot: dict[int, int] = {}
        below = [0]
        try:
            for r, fr in sorted(self.f.items()):
                r = operator.index(r)
                fr = operator.index(fr)
                if r < 1 or fr < 1:
                    raise InputError(f"frequency-of-frequencies entries must be >= 1, got f[{r}]={fr}")
                snapshot[r] = fr
                below.append(below[-1] + r * fr)
        except TypeError:
            # name a non-integer entry only after the unchecked loop has failed
            for x in (*self.f, *self.f.values()):
                _check_int(x, "frequency-of-frequencies entry")
            raise
        if not snapshot:
            raise InputError("a frequency-of-frequencies table needs at least one entry")
        object.__setattr__(self, "f", MappingProxyType(snapshot))
        object.__setattr__(self, "n", below[-1])
        object.__setattr__(self, "k_observed", sum(snapshot.values()))
        object.__setattr__(self, "_rs", tuple(snapshot))
        object.__setattr__(self, "_below", tuple(below))

    @property
    def singletons(self) -> int:
        return self.f.get(1, 0)

    def below(self, t: int) -> int:
        """The exact integer sum_{r<t} r*f_r."""
        return self._below[bisect_left(self._rs, t)]


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Probability per state.

    ``source`` records how the distribution arose: "plug-in" (relative counts
    from a table) or "known-truth" (synthetic ground truth).  States outside
    ``probs`` have probability 0.
    """

    probs: Mapping["StateKey", float]
    source: str

    def __post_init__(self):
        if self.source not in (PLUG_IN, KNOWN_TRUTH):
            raise InputError(f"source must be {PLUG_IN!r} or {KNOWN_TRUTH!r}, got {self.source!r}")
        snapshot: dict[StateKey, float] = {}
        for key, p in self.probs.items():
            if not isinstance(key, StateKey):
                raise InputError("distribution keys must be StateKey")
            p = _check_float(p, "probability")
            if not (0.0 <= p <= 1.0):
                raise InputError(f"probability out of [0,1] for {key.serialize()!r}: {p}")
            snapshot[key] = p
        if abs(math.fsum(snapshot.values()) - 1.0) > PROB_SUM_TOL:
            raise InputError(
                f"probabilities sum to {math.fsum(snapshot.values())!r}, expected 1 within {PROB_SUM_TOL}"
            )
        object.__setattr__(self, "probs", MappingProxyType(snapshot))

    def prob(self, key: "StateKey") -> float:
        return self.probs.get(key, 0.0)


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


def plug_in_distribution(table: CountTable) -> EmpiricalDistribution:
    """Relative frequencies count/n over the observed states."""
    n = table.n
    return EmpiricalDistribution(
        probs={key: c / n for key, c in table.counts.items()}, source=PLUG_IN
    )


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
