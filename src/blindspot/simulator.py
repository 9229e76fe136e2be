"""Synthetic distributions with exact coverage oracles.

Sampling is inverse-CDF over a materialized probability vector, driven by
NumPy's PCG64 generator.  Per-trial generators derive from the entropy tuple
(master seed, cell index, trial index), so sweep results are reproducible and
trials could be farmed out in parallel without changing a single draw.
``sample`` keeps the draws in the order they were made.  A sweep trial needs
only their counts: it sorts its uniforms, searches the shorter of K and n in
the other, reads its estimates from the counts r <= tau, and sums its true
blind mass as the exact total of the probabilities minus the states seen at
least tau times, which reads at most min(K, n/tau) probabilities and rounds
to the same float as summing the blind states directly.
``read_sweep_spec`` reads the key=value grid of ``SweepCell``s a sweep runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .counts import CountTable, StateKey
from .errors import InputError, InvariantViolation, _check_float, _check_int
# mass_estimate is not called here; the benchmark's --trace 1 times it on this module
from .estimators import ESTIMATOR_MODES, _check_tau, _mass, mass_estimate
from .ingest import _kv_int, _kv_list, _naming_path, read_kv_file

__all__ = [
    "GENERATOR_NAME",
    "STATE_FACTOR",
    "SyntheticDistribution",
    "zipf_distribution",
    "geometric_distribution",
    "uniform_distribution",
    "custom_distribution",
    "family_distribution",
    "state_key",
    "state_index",
    "sample",
    "true_blind_mass",
    "SweepCell",
    "read_sweep_spec",
    "ModeStats",
    "CellStats",
    "SweepResult",
    "run_sweep",
]

GENERATOR_NAME = "PCG64"
STATE_FACTOR = "state"

_DIST_SUM_TOL = 1e-12


@dataclass(frozen=True)
class SyntheticDistribution:
    """A fully known distribution over states s0..s(K-1):
    ``SyntheticDistribution(family, params, probs)``.  ``size``, the K of
    the state space, is the length of ``probs``, computed here rather than
    passed."""

    family: str
    params: tuple[tuple[str, float], ...]
    probs: np.ndarray
    size: int = field(init=False)

    def __post_init__(self):
        probs = np.array(self.probs, dtype=float)
        probs += 0.0  # turns a -0.0 into 0.0, so a sum of probabilities never ends at -0.0
        if probs.ndim != 1 or probs.size < 1:
            raise InputError("probabilities must be a non-empty 1-D vector")
        if not np.all(np.isfinite(probs)) or np.any(probs < 0):
            raise InputError("probabilities must be finite and >= 0")
        try:
            parts = _exact_parts(probs)
        except OverflowError:  # the exact sum is past the float range
            parts = [math.inf]
        if abs(math.fsum(parts) - 1.0) > _DIST_SUM_TOL:
            raise InputError(f"probabilities must sum to 1 within {_DIST_SUM_TOL}")
        probs.setflags(write=False)
        cum = np.cumsum(probs)
        cum[-1] = 1.0
        cum.setflags(write=False)
        object.__setattr__(self, "size", probs.size)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "params", tuple((str(k), float(v)) for k, v in self.params))
        object.__setattr__(self, "_cum", cum)
        object.__setattr__(self, "_parts", parts)


def _floats(values) -> Iterator[float]:
    """An array's values, raveled, as Python floats made 4096 at a time."""
    a = np.asarray(values, dtype=float).ravel()
    return itertools.chain.from_iterable(a[i : i + 4096].tolist() for i in range(0, a.size, 4096))


def _normalized(weights: np.ndarray) -> np.ndarray:
    # divides in place; a weight array of any shape reaches SyntheticDistribution's shape rule
    try:
        total = math.fsum(_floats(weights))
    except OverflowError:  # the exact sum is past the float range
        total = math.inf
    if not (total > 0 and math.isfinite(total)):
        raise InputError("weights must have a positive finite sum")
    return np.divide(weights, total, out=weights)


def zipf_distribution(size, exponent) -> SyntheticDistribution:
    """Entry i gets weight 1/(i+1)**exponent (ranks start at 1)."""
    size = _check_int(size, "size", 1)
    exponent = _check_float(exponent, "zipf exponent")
    if not exponent >= 0:
        raise InputError(f"zipf exponent must be >= 0, got {exponent}")
    w = np.arange(1, size + 1, dtype=float)
    with np.errstate(over="ignore"):  # a weight below the float range is 1/inf = 0
        w **= exponent  # ** keeps numpy's fast paths for exponents such as 0.5 and 2
    np.divide(1.0, w, out=w)
    return SyntheticDistribution("zipf", (("s", exponent),), _normalized(w))


def geometric_distribution(size, ratio) -> SyntheticDistribution:
    size = _check_int(size, "size", 1)
    ratio = _check_float(ratio, "geometric ratio")
    if not 0.0 < ratio < 1.0:
        raise InputError(f"geometric ratio must lie in (0, 1), got {ratio}")
    w = ratio ** np.arange(size, dtype=float)
    return SyntheticDistribution("geometric", (("ratio", ratio),), _normalized(w))


def uniform_distribution(size) -> SyntheticDistribution:
    size = _check_int(size, "size", 1)
    w = np.ones(size, dtype=float)
    return SyntheticDistribution("uniform", (), _normalized(w))


def custom_distribution(probs) -> SyntheticDistribution:
    return SyntheticDistribution("custom", (), _normalized(np.array(probs, dtype=float)))


# family -> (constructor, (parameter name, sweep spec key) or None)
_FAMILIES = {
    "zipf": (zipf_distribution, ("s", "zipf_s")),
    "geometric": (geometric_distribution, ("ratio", "geom_ratio")),
    "uniform": (uniform_distribution, None),
}


def family_distribution(family: str, size, params: Mapping[str, float]) -> SyntheticDistribution:
    if family not in _FAMILIES:
        raise InputError(f"unknown family {family!r}; choose from {sorted(_FAMILIES)}")
    make, param = _FAMILIES[family]
    expected = [param[0]] if param else []
    if sorted(params) != expected:
        raise InputError(f"family {family!r} takes parameters {expected}, got {sorted(params)}")
    return make(size, *params.values())


def state_key(index) -> StateKey:
    index = _check_int(index, "state index", 0)
    return StateKey((STATE_FACTOR,), (f"s{index}",))


def state_index(dist: SyntheticDistribution, key: StateKey) -> int:
    """Parse a synthetic state key back to its index, rejecting anything
    outside the distribution's state set."""
    if key.names != (STATE_FACTOR,):
        raise InputError(f"key {key.serialize()!r} is not a synthetic state (factor {STATE_FACTOR!r})")
    value = key.values[0]
    if not (value.startswith("s") and value[1:].isdigit()):
        raise InputError(f"malformed synthetic state value {value!r}")
    i = int(value[1:])
    if not 0 <= i < dist.size:
        raise InputError(f"state index {i} outside 0..{dist.size - 1}")
    return i


def _states_of(dist: SyntheticDistribution, u: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(dist._cum, u, side="right")
    return np.minimum(idx, dist.size - 1, out=idx)


def _sample_indices(dist: SyntheticDistribution, n: int, seed) -> np.ndarray:
    n = _check_int(n, "sample size", 1)
    return _states_of(dist, np.random.default_rng(seed).random(n))


def _trial_counts(dist: SyntheticDistribution, n: int, seed) -> np.ndarray:
    """Per-state counts of ``_sample_indices(dist, n, seed)``, from the sorted
    uniforms: with K > n each is searched in the cumulative probabilities; with
    K <= n state i counts the uniforms below cum[i] less those below cum[i-1],
    the same states also for zero-probability runs and cum[K-2] > 1.0."""
    u = np.random.default_rng(seed).random(n)
    u.sort()
    if dist.size > n:
        return np.bincount(_states_of(dist, u), minlength=dist.size)
    counts = np.searchsorted(u, dist._cum, side="left")
    del u  # the difference below copies counts[:-1]; not while the draws live
    counts[1:] -= counts[:-1]
    return counts


def sample(dist: SyntheticDistribution, n, seed) -> list[StateKey]:
    """Draw n i.i.d. states; identical (dist, n, seed) gives identical draws."""
    idx = _sample_indices(dist, n, seed).tolist()
    lut = {i: state_key(i) for i in set(idx)}
    return [lut[i] for i in idx]


def _counts_vector(dist: SyntheticDistribution, table: CountTable) -> np.ndarray:
    counts = np.zeros(dist.size, dtype=np.int64)
    for key, c in table.counts.items():
        counts[state_index(dist, key)] = c
    return counts


def _exact_parts(values: np.ndarray) -> list[float]:
    """A few floats whose exact sum is the exact sum of the float array
    ``values``; OverflowError when a partial sum leaves the float range.

    Each residual is a multiple of 2**-1074, so fsum never rounds a non-zero
    one to 0.0, and each part leaves a residual about 2**-53 times smaller.
    """
    parts: list[float] = []
    while r := math.fsum(itertools.chain(_floats(values), (-p for p in parts))):
        parts.append(r)
    return parts


def _true_mass_from_parts(
    parts: list[float], dist: SyntheticDistribution, counts: np.ndarray, tau: int
) -> float:
    """The exact blind mass: the fsum of the probabilities of the states
    counted below tau, bit for bit.  ``parts`` is ``_exact_parts(dist.probs)``,
    as in ``dist._parts``; fsum rounds the exact total less the states
    counted at least tau times once, as it would round the blind sum."""
    return math.fsum(parts + (-dist.probs[counts >= tau]).tolist())


def true_blind_mass(dist: SyntheticDistribution, table: CountTable, tau) -> float:
    """Exact blind mass: sum of true probabilities of every state (seen or
    not) whose table count is below tau."""
    return _true_mass_from_parts(dist._parts, dist, _counts_vector(dist, table), _check_tau(tau))


def _numerators(counts: np.ndarray, tau: int) -> Callable[[int], int]:
    """``FreqOfFreqs.below`` of ``counts``, for t <= tau+1 only: the exact
    integer sum_{r<t} r * f_r over the observed counts r <= tau."""
    # the mask first: a bincount over K - k zero counts is slower when K >> n
    seen = counts[counts > 0]
    fs = np.bincount(seen[seen <= tau], minlength=1)
    sums = np.cumsum(fs * np.arange(fs.size)).tolist()  # sums[i]: r <= i
    return lambda t: sums[min(t, len(sums)) - 1]


@dataclass(frozen=True)
class SweepCell:
    """One grid point of a sweep, checked by building its family's
    one-state distribution: a bad cell fails where it is made."""

    family: str
    params: tuple[tuple[str, float], ...]
    size: int
    n: int
    tau: int

    def __post_init__(self):
        family_distribution(self.family, 1, dict(self.params))
        object.__setattr__(self, "params", tuple((str(k), float(v)) for k, v in self.params))
        for name in ("size", "n", "tau"):
            object.__setattr__(self, name, _check_int(getattr(self, name), name, 1))


_SPEC_KEYS = ("family", *(param[1] for _, param in _FAMILIES.values() if param),
              "K", "n", "tau", "trials", "seed")


def read_sweep_spec(path) -> tuple[list[SweepCell], int | None, int | None]:
    """Grid spec: cross product of family/params x K x n x tau.

    Returns (cells, trials, seed); trials and seed are None when the file does
    not set them.  Each cell is checked as it is built, so every error comes
    before any trial runs, and names the file.
    """
    kv = read_kv_file(path, _SPEC_KEYS)

    def listed(key: str, parse, noun: str) -> list:
        if key not in kv:
            raise InputError(f"sweep spec is missing required key {key!r}")
        vals = _kv_list(kv, key, parse, noun)
        if not vals:
            raise InputError(f"{key} must name at least one value")
        for v in vals:
            if vals.count(v) > 1:
                raise InputError(f"{key} lists {v} more than once")
        return vals

    def single(key: str, least: int):
        if key not in kv:
            return None
        return _check_int(_kv_int(kv, key), key, least)

    with _naming_path(path):
        families = listed("family", str, "names")
        combos: list[tuple[str, tuple[tuple[str, float], ...]]] = []
        for family in families:
            param = _FAMILIES.get(family, (None, None))[1]
            if param is None:  # SweepCell reports an unknown family
                combos.append((family, ()))
            elif param[1] not in kv:
                raise InputError(f"family {family} needs {param[1]}")
            else:
                combos.extend((family, ((param[0], v),)) for v in listed(param[1], float, "numbers"))
        sizes, ns, taus = (listed(key, int, "integers") for key in ("K", "n", "tau"))
        cells = [
            SweepCell(family=family, params=params, size=size, n=n, tau=tau)
            for family, params in combos
            for size in sizes
            for n in ns
            for tau in taus
        ]
        for family, (_, param) in _FAMILIES.items():
            if param and param[1] in kv and family not in families:
                raise InputError(f"{param[1]} needs family {family}")
        return cells, single("trials", 1), single("seed", 0)


@dataclass(frozen=True)
class ModeStats:
    mode: str
    mean: float
    std: float
    mean_abs_error: float


@dataclass(frozen=True)
class CellStats:
    cell: SweepCell
    true_mean: float
    true_std: float
    estimates: tuple[ModeStats, ...]

    def __post_init__(self):
        for m in (self.true_mean,) + tuple(e.mean for e in self.estimates):
            if not 0.0 <= m <= 1.0:
                raise InvariantViolation(f"sweep mean out of [0,1]: {m}")


@dataclass(frozen=True)
class SweepResult:
    cells: tuple[CellStats, ...]
    trials: int
    master_seed: int


def _mean(values) -> float:
    return math.fsum(values) / len(values)


def _std(values, center) -> float:
    if len(values) < 2:
        return 0.0
    return math.sqrt(math.fsum((v - center) ** 2 for v in values) / (len(values) - 1))


def run_sweep(cells: Sequence[SweepCell], trials, master_seed) -> SweepResult:
    """Monte-Carlo comparison of every estimator mode against the exact blind
    mass, cell by cell.

    Per trial: draw n samples, tabulate counts, record the true blind mass and
    each mode's estimate at the cell's tau.  The counts come from the trial's
    sorted uniforms, searched over the shorter of K and n, so they are those
    of the same n draws ``sample`` would make.  The estimates are ``_mass``
    over ``_numerators``, as ``mass_estimate`` gives them, with no
    frequency-of-frequencies built.  The true mass is one fsum of the cell's
    exact probability total, held in a few floats, less the probabilities of
    the states counted at least tau times: the same float as
    ``true_blind_mass`` gives, from at most min(K, n/tau) probabilities.
    Reported per cell: mean and sample standard deviation of the truth and
    of each mode, plus each mode's mean absolute error against the paired
    truth.
    """
    trials = _check_int(trials, "trials", 1)
    master_seed = _check_int(master_seed, "master seed", 0)
    cells = list(cells)
    if not cells:
        raise InputError("sweep needs at least one cell")
    out = []
    for ci, cell in enumerate(cells):
        try:
            dist = family_distribution(cell.family, cell.size, dict(cell.params))
        except InputError:
            raise
        except (MemoryError, ValueError):  # numpy cannot allocate or address K floats
            raise InputError(f"K={cell.size} is too large: the distribution does not fit in memory") from None
        true_vals = []
        est_vals = {mode: [] for mode in ESTIMATOR_MODES}
        for t in range(trials):
            seed = np.random.SeedSequence((master_seed, ci, t))
            try:
                counts = _trial_counts(dist, cell.n, seed)
            except (MemoryError, ValueError):  # numpy cannot allocate or address n draws
                raise InputError(f"n={cell.n} is too large: the draws do not fit in memory") from None
            true_vals.append(_true_mass_from_parts(dist._parts, dist, counts, cell.tau))
            below = _numerators(counts, cell.tau)
            for mode in ESTIMATOR_MODES:
                est_vals[mode].append(_mass(below, cell.n, cell.tau, mode))
        true_mean = _mean(true_vals)
        estimates = []
        for mode in ESTIMATOR_MODES:
            vals = est_vals[mode]
            mean = _mean(vals)
            error = _mean([abs(e - t) for e, t in zip(vals, true_vals)])
            estimates.append(ModeStats(mode, mean, _std(vals, mean), error))
        out.append(
            CellStats(
                cell=cell,
                true_mean=true_mean,
                true_std=_std(true_vals, true_mean),
                estimates=tuple(estimates),
            )
        )
    return SweepResult(cells=tuple(out), trials=trials, master_seed=master_seed)
