"""Sensor-window featurization and operational state assignment.

Tri-axial IMU windows map to small categorical factor tuples: the activity
label, an orientation (tilt) bin derived from the window-mean accelerometer
direction, and intensity bins from quantile-discretized gyroscope statistics.
A separate helper assigns admission records to diagnosis-prefix states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .counts import KeyIndex, StateKey, _coerce_value
from .errors import InputError, MissingPrimaryDiagnosis, _check_float, _check_int

__all__ = [
    "FACTOR_ACTIVITY",
    "FACTOR_TILT",
    "FACTOR_ENERGY",
    "FACTOR_RATE",
    "FACTOR_ORDER",
    "FACTOR_ICD",
    "SensorWindow",
    "LabeledStream",
    "AbstractionConfig",
    "AdmissionRecord",
    "PRESETS",
    "preset",
    "make_windows",
    "tilt_bin",
    "fit_energy_edges",
    "fit_edges",
    "abstract_window",
    "abstract_stream",
    "icd_prefix_state",
]

FACTOR_ACTIVITY = "activity"
FACTOR_TILT = "tilt"
FACTOR_ENERGY = "energy"
FACTOR_RATE = "rate"
FACTOR_ORDER = (FACTOR_ACTIVITY, FACTOR_TILT, FACTOR_ENERGY, FACTOR_RATE)
# the one factor of a diagnoses state: the primary ICD code's prefix
FACTOR_ICD = "icd4"

# absorbs float noise when an angle lands exactly on a bin boundary, so the
# bin index matches exact-arithmetic evaluation (e.g. 45 degrees at P=6 -> 3)
_EDGE_GUARD = 1e-9


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SensorWindow:
    """A fixed-length run of accelerometer and gyroscope samples sharing one
    label.  Arrays are (L, 3); no NaN values are allowed."""

    acc: np.ndarray
    gyro: np.ndarray
    label: object
    sample_rate_hz: float

    def __post_init__(self):
        acc = _as_readonly(self.acc)
        gyro = _as_readonly(self.gyro)
        if acc.ndim != 2 or acc.shape[1] != 3:
            raise InputError(f"acc must have shape (L, 3), got {acc.shape}")
        if gyro.shape != acc.shape:
            raise InputError(f"gyro shape {gyro.shape} does not match acc shape {acc.shape}")
        if acc.shape[0] < 1:
            raise InputError("a window needs at least one sample")
        if np.isnan(acc).any() or np.isnan(gyro).any():
            raise InputError("window contains NaN samples; impute or drop before windowing")
        rate = _check_float(self.sample_rate_hz, "sample rate")
        if not rate > 0:
            raise InputError(f"sample rate must be positive, got {self.sample_rate_hz}")
        object.__setattr__(self, "acc", acc)
        object.__setattr__(self, "gyro", gyro)
        object.__setattr__(self, "sample_rate_hz", rate)

    @property
    def length(self) -> int:
        return self.acc.shape[0]


@dataclass(frozen=True)
class LabeledStream:
    """Time-ordered labeled samples at a constant nominal rate.

    ``segment_starts`` lists the samples that begin a new recording (a new
    source file, say); windows never cross one, nor a ``timestamps`` step
    outside (0, 1.5/rate] seconds.
    """

    acc: np.ndarray
    gyro: np.ndarray
    labels: np.ndarray
    sample_rate_hz: float
    timestamps: Optional[np.ndarray] = None
    segment_starts: tuple[int, ...] = ()

    def __post_init__(self):
        acc = _as_readonly(self.acc).reshape(-1, 3) if np.size(self.acc) else np.empty((0, 3))
        gyro = _as_readonly(self.gyro).reshape(-1, 3) if np.size(self.gyro) else np.empty((0, 3))
        labels = np.asarray(self.labels)
        if acc.shape != gyro.shape:
            raise InputError(f"acc shape {acc.shape} does not match gyro shape {gyro.shape}")
        if labels.shape != (acc.shape[0],):
            raise InputError(f"labels shape {labels.shape} does not match {acc.shape[0]} samples")
        if acc.size and (np.isnan(acc).any() or np.isnan(gyro).any()):
            raise InputError("stream contains NaN sensor values; impute or drop rows first")
        rate = _check_float(self.sample_rate_hz, "sample rate")
        if not rate > 0:
            raise InputError(f"sample rate must be positive, got {self.sample_rate_hz}")
        if self.timestamps is not None:
            ts = np.asarray(self.timestamps, dtype=float)
            if ts.shape != (acc.shape[0],):
                raise InputError("timestamps length does not match samples")
            object.__setattr__(self, "timestamps", ts)
        starts = tuple(_check_int(i, "segment start") for i in self.segment_starts)
        if any(not 0 <= i < acc.shape[0] for i in starts):
            raise InputError(f"segment starts {list(starts)} must index the {acc.shape[0]} samples")
        object.__setattr__(self, "segment_starts", starts)
        object.__setattr__(self, "acc", acc)
        object.__setattr__(self, "gyro", gyro)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "sample_rate_hz", rate)

    def __len__(self) -> int:
        return self.acc.shape[0]


def _window_shape(stream: LabeledStream, window_s: float, stride_s: float) -> tuple[int, int]:
    """Window length and hop in samples: round(window_s * rate) and
    round(stride_s * rate)."""
    window_s = _check_float(window_s, "window_s")
    stride_s = _check_float(stride_s, "stride_s")
    rate = stream.sample_rate_hz
    # a finite window_s * rate also bounds stride_s * rate, since stride_s <= window_s
    if not 0 < window_s * rate < math.inf:
        raise InputError(f"window_s must be positive and finite at {rate} Hz, got {window_s}")
    if not 0 < stride_s <= window_s:
        raise InputError(f"stride_s must satisfy 0 < stride_s <= window_s, got {stride_s}")
    length = round(window_s * rate)
    hop = round(stride_s * rate)
    if length < 1 or hop < 1:
        raise InputError(
            f"window ({window_s}s) and stride ({stride_s}s) must cover at least one sample at {rate} Hz"
        )
    return length, hop


def _window_starts(stream: LabeledStream, length: int, hop: int) -> np.ndarray:
    """Starts 0, hop, 2*hop, ... whose window lies inside one run of
    contiguous, equally labeled samples."""
    n = len(stream)
    if n < length:
        return np.empty(0, dtype=np.intp)
    # a run begins at every label change, segment start and timestamp step
    # outside (0, 1.5/rate]; NaN steps fail the test and begin one too
    begins = np.zeros(n, dtype=bool)
    begins[1:] = np.asarray(stream.labels[1:] != stream.labels[:-1], dtype=bool)
    begins[list(stream.segment_starts)] = True
    if stream.timestamps is not None:
        step = np.diff(stream.timestamps)
        begins[1:] |= ~((step > 0) & (step <= 1.5 / stream.sample_rate_hz))
    run = np.cumsum(begins)
    grid = np.arange(0, n - length + 1, hop)
    return grid[run[grid] == run[grid + length - 1]]


def _plain(label):
    return label.item() if isinstance(label, np.generic) else label


def make_windows(stream: LabeledStream, window_s: float, stride_s: float) -> list[SensorWindow]:
    """Slice a stream into fixed-length windows.

    Window length and hop are round(window_s * rate) and round(stride_s * rate)
    samples; starts advance by the hop from sample 0.  A window is emitted only
    when its samples are contiguous and carry one label: it crosses no label
    change, no segment start and no timestamp step outside (0, 1.5/rate]
    seconds (a gap left by dropped rows, or time running backwards).
    Trailing partial windows are dropped.  A stream shorter than one window
    yields no windows.
    """
    length, hop = _window_shape(stream, window_s, stride_s)
    return [
        SensorWindow(
            acc=stream.acc[start : start + length],
            gyro=stream.gyro[start : start + length],
            label=_plain(stream.labels[start]),
            sample_rate_hz=stream.sample_rate_hz,
        )
        for start in _window_starts(stream, length, hop).tolist()
    ]


def tilt_bin(window: SensorWindow, bins: int) -> int:
    """Discretize the angle between the window-mean accelerometer direction
    and the vertical axis into ``bins`` equal bins over [0, pi/2].

    The angle is arccos(|z| component of the normalized mean vector), so the
    result is invariant to overall scale and to the sign of the vertical axis.
    A zero mean vector leaves the direction undefined and is rejected.
    """
    bins = _check_int(bins, "tilt bins", 1)
    return _tilt_of_mean(window.acc.mean(axis=0), bins, window.label)


def _tilt_of_mean(mu: np.ndarray, bins: int, label) -> int:
    norm = float(np.linalg.norm(mu))
    if norm == 0.0:
        raise InputError(
            f"window (label={label!r}) has a zero-norm mean acceleration; tilt is undefined"
        )
    z = abs(float(mu[2])) / norm
    phi = math.acos(min(1.0, z))
    x = bins * phi / (math.pi / 2.0)
    return min(bins - 1, int(math.floor(x + _EDGE_GUARD)))


class _Quantile(NamedTuple):
    """A factor that bins the window mean of a per-sample gyro statistic."""

    bins: str  # the AbstractionConfig field with the bin count
    edges: str  # the AbstractionConfig field with the fitted edges
    per_sample: Callable[[np.ndarray], np.ndarray]  # (L, 3) gyro -> (L,)


_QUANTILE_FACTORS = {
    FACTOR_ENERGY: _Quantile("energy_bins", "energy_edges", lambda g: np.sum(g * g, axis=1)),
    FACTOR_RATE: _Quantile("rate_bins", "rate_edges", lambda g: np.linalg.norm(g, axis=1)),
}


def fit_energy_edges(values: Iterable[float], bins: int) -> tuple[float, ...]:
    """Quantile bin edges at levels j/bins for j = 0..bins.

    Linear interpolation between order statistics, with the rank position
    computed as (m-1)*j/bins so exact-rational levels stay exact.  Edges are
    nondecreasing; duplicated edges simply produce empty bins.
    """
    bins = _check_int(bins, "bins", 1)
    xs = np.sort(np.asarray(list(values), dtype=float))
    if xs.size == 0:
        raise InputError("cannot fit quantile edges on an empty sample")
    if np.isnan(xs).any():
        raise InputError("cannot fit quantile edges: sample contains NaN")
    m = xs.size
    edges = []
    for j in range(bins + 1):
        pos = (m - 1) * j / bins
        lo = int(math.floor(pos))
        frac = pos - lo
        if lo >= m - 1:
            v = float(xs[m - 1])
        elif frac == 0.0:
            v = float(xs[lo])
        else:
            v = float(xs[lo] + frac * (xs[lo + 1] - xs[lo]))
        edges.append(v)
    for i in range(1, len(edges)):
        if edges[i] < edges[i - 1]:
            edges[i] = edges[i - 1]
    return tuple(edges)


@dataclass(frozen=True)
class AbstractionConfig:
    """Which factors build the state key and how each one is discretized.

    ``factors`` is normalized to the canonical order (activity, tilt, energy,
    rate).  Quantile edges must be fitted (see ``fit_edges``) before a config
    with energy or rate factors can abstract windows.
    """

    factors: tuple[str, ...] = (FACTOR_ACTIVITY,)
    tilt_bins: int = 6
    energy_bins: int = 3
    rate_bins: int = 8
    energy_edges: Optional[tuple[float, ...]] = None
    rate_edges: Optional[tuple[float, ...]] = None
    refinement_tag: str = "a"

    def __post_init__(self):
        factors = tuple(self.factors)
        unknown = [f for f in factors if f not in FACTOR_ORDER]
        if unknown:
            raise InputError(f"unknown factors {unknown}; choose from {list(FACTOR_ORDER)}")
        if not factors:
            raise InputError("at least one factor must be enabled")
        if len(set(factors)) != len(factors):
            raise InputError(f"duplicate factors: {list(factors)}")
        object.__setattr__(
            self, "factors", tuple(f for f in FACTOR_ORDER if f in factors)
        )
        for name in ("tilt_bins", "energy_bins", "rate_bins"):
            object.__setattr__(self, name, _check_int(getattr(self, name), name, 1))
        for q in _QUANTILE_FACTORS.values():
            name, bins, edges = q.edges, getattr(self, q.bins), getattr(self, q.edges)
            if edges is None:
                continue
            edges = tuple(float(e) for e in edges)
            if len(edges) != bins + 1:
                raise InputError(f"{name} must have {bins + 1} values, got {len(edges)}")
            for a, b in zip(edges, edges[1:]):
                if not a <= b:  # a NaN edge fails too
                    raise InputError(f"{name} must be nondecreasing")
            object.__setattr__(self, name, edges)


PRESETS = {
    "activity": AbstractionConfig(factors=(FACTOR_ACTIVITY,), refinement_tag="a"),
    "activity-tilt": AbstractionConfig(
        factors=(FACTOR_ACTIVITY, FACTOR_TILT), tilt_bins=6, refinement_tag="a,p"
    ),
    "activity-tilt-energy": AbstractionConfig(
        factors=(FACTOR_ACTIVITY, FACTOR_TILT, FACTOR_ENERGY),
        tilt_bins=6,
        energy_bins=3,
        refinement_tag="a,p,e",
    ),
    # finer tilt/intensity quantization plus a mean angular-rate factor, for
    # deployment-style coverage screens
    "deployment-refined": AbstractionConfig(
        factors=(FACTOR_ACTIVITY, FACTOR_TILT, FACTOR_ENERGY, FACTOR_RATE),
        tilt_bins=12,
        energy_bins=8,
        rate_bins=8,
        refinement_tag="deployment-refined",
    ),
}


def preset(name: str) -> AbstractionConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise InputError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None


def fit_edges(
    config: AbstractionConfig, windows: Sequence[SensorWindow], fit_fraction: float = 1.0
) -> AbstractionConfig:
    """Fit the quantile edges that the enabled factors need and ``config``
    lacks; edges it has, read back from a saved config say, are kept.

    Edges are fitted on the first ceil(fit_fraction * len(windows)) windows,
    so train-only fitting just needs the training prefix first.
    """
    return _fit_missing_edges(config, len(windows), fit_fraction,
                              lambda f, m: [_QUANTILE_FACTORS[f].per_sample(w.gyro).mean() for w in windows[:m]])


def _fit_missing_edges(config: AbstractionConfig, windows: int, fit_fraction: float,
                       leading: Callable[[str, int], Sequence[float]]) -> AbstractionConfig:
    """``config`` with the edges of each enabled quantile factor that lacks
    them fitted on ``leading(factor, m)``, the factor's values on the first
    m = ceil(fit_fraction * windows) windows."""
    fit_fraction = _check_float(fit_fraction, "fit_fraction")
    if not 0.0 < fit_fraction <= 1.0:
        raise InputError(f"fit_fraction must lie in (0, 1], got {fit_fraction}")
    fitted = {}
    for factor, q in _QUANTILE_FACTORS.items():
        if factor in config.factors and getattr(config, q.edges) is None:
            if not windows:
                raise InputError("cannot fit quantile edges without windows")
            m = max(1, math.ceil(fit_fraction * windows))
            fitted[q.edges] = fit_energy_edges(leading(factor, m), getattr(config, q.bins))
    return replace(config, **fitted) if fitted else config


def abstract_window(window: SensorWindow, config: AbstractionConfig) -> StateKey:
    """Map a window to its operational state under ``config``, by the rules
    ``abstract_stream`` applies to each window of a stream."""
    for factor, q in _QUANTILE_FACTORS.items():
        if factor in config.factors and getattr(config, q.edges) is None:
            raise InputError(f"{factor} factor enabled but {q.edges} not fitted")
    features = {f: np.array([q.per_sample(window.gyro).mean()])
                for f, q in _QUANTILE_FACTORS.items() if f in config.factors}
    features[FACTOR_TILT] = [window.acc.mean(axis=0)]
    return _states(config, [window.label], features)[0]


def _window_means(per_sample: np.ndarray, length: int, hop: int, starts: np.ndarray) -> np.ndarray:
    # reduce the strided view of every grid window, then keep the wanted
    # ones: indexing the view with ``starts`` would copy each window
    return sliding_window_view(per_sample, length, axis=0)[::hop].mean(axis=-1)[starts // hop]


def _window_features(stream: LabeledStream, length: int, hop: int, starts: np.ndarray,
                     factors: Sequence[str]) -> dict:
    """Per-window inputs of the binned factors among ``factors``: the mean
    acceleration (W, 3) for tilt, and the window mean of each quantile
    factor's per-sample gyro statistic."""
    out = {f: _window_means(q.per_sample(stream.gyro), length, hop, starts)
           for f, q in _QUANTILE_FACTORS.items() if f in factors}
    if FACTOR_TILT in factors:
        out[FACTOR_TILT] = _window_means(stream.acc, length, hop, starts)
    return out


def _bins(values: np.ndarray, edges: tuple[float, ...]) -> list[str]:
    """The bin of each value against validated edges, as the text a key
    stores; equal bins share one string.  Bin j covers (edges[j], edges[j+1]],
    clamped at both ends; all edges equal put every value in bin 0."""
    q = len(edges) - 1
    if edges[0] == edges[-1]:
        return ["0"] * len(values)
    within = values[:, None] <= np.asarray(edges[1:])
    bins = np.where(within.any(axis=1), within.argmax(axis=1), q - 1).tolist()
    names = list(map(str, range(q)))
    return list(map(names.__getitem__, bins))


def _texts(labels: list) -> list[str]:
    """Each label as the text a key stores, coerced and checked once per
    distinct label, so equal labels share one string.  The type is part of
    the memo key: ``True`` is refused, not read as ``1``."""
    typed = list(zip(map(type, labels), labels))
    text = {k: _coerce_value(k[1]) for k in dict.fromkeys(typed)}
    return list(map(text.__getitem__, typed))


def abstract_stream(
    stream: LabeledStream,
    config: AbstractionConfig,
    window_s: float,
    stride_s: float,
    fit_fraction: float = 1.0,
) -> tuple[AbstractionConfig, list[StateKey]]:
    """``make_windows``, ``fit_edges`` and ``abstract_window`` in one pass.

    Returns the fitted config and one state per window, equal to what the
    three functions give, saved edges kept.  Windows stay index ranges into
    the stream: each feature is computed once per window by a strided
    reduction, and windows in the same state share one key object.
    """
    length, hop = _window_shape(stream, window_s, stride_s)
    starts = _window_starts(stream, length, hop)
    if not starts.size:
        raise InputError("no label-pure windows could be formed from the stream")
    features = _window_features(stream, length, hop, starts, config.factors)
    config = _fit_missing_edges(config, starts.size, fit_fraction, lambda f, m: features[f][:m])
    labels = [_plain(label) for label in stream.labels[starts].tolist()]
    return config, _states(config, labels, features)


def _states(config: AbstractionConfig, labels: list, features: dict) -> list[StateKey]:
    """The state of each window under ``config`` from its label and its
    ``_window_features`` inputs; equal states share one key object."""
    # KeyIndex finds a row without a check only when it is made of strings
    # equal to ones it has checked, so every column is of strings
    columns = []
    for factor in config.factors:
        if factor == FACTOR_ACTIVITY:
            columns.append(_texts(labels))
        elif factor == FACTOR_TILT:
            bins = config.tilt_bins
            names = list(map(str, range(bins)))
            columns.append([names[_tilt_of_mean(mu, bins, label)] for mu, label in zip(features[factor], labels)])
        else:
            columns.append(_bins(features[factor], getattr(config, _QUANTILE_FACTORS[factor].edges)))
    keys = KeyIndex(config.factors)
    return [keys[values] for values in zip(*columns)]


@dataclass(frozen=True)
class AdmissionRecord:
    """An admission's diagnosis codes as (sequence number, code) in file order."""

    admission_id: str
    diagnoses: tuple[tuple[int, str], ...]


def icd_prefix_state(admission: AdmissionRecord, prefix_len: int = 4) -> StateKey:
    """State from the first sequence-1 diagnosis code, truncated to
    ``prefix_len`` characters (whole code when shorter).  Raises
    MissingPrimaryDiagnosis when no usable sequence-1 code exists."""
    return StateKey((FACTOR_ICD,), (_icd_prefix(admission, prefix_len),))


def _icd_prefix(admission: AdmissionRecord, prefix_len: int = 4) -> str:
    prefix_len = _check_int(prefix_len, "prefix_len", 1)
    for seq, code in admission.diagnoses:
        if seq == 1:
            code = code.strip()
            if not code:
                raise MissingPrimaryDiagnosis(
                    f"admission {admission.admission_id!r}: sequence-1 diagnosis code is empty"
                )
            return code[:prefix_len]
    raise MissingPrimaryDiagnosis(
        f"admission {admission.admission_id!r} has no sequence-1 diagnosis"
    )
