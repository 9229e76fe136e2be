"""The wearable abstraction written per window: the oracle that
``abstract_stream`` and the per-window API on top of it (``fit_edges``,
``abstract_window``) are tested against.

Here each gyro statistic is a per-window formula and each quantile bin a
scalar loop; the package computes the statistics per sample and bins whole
columns at once.  Tilt has one formula, the package's ``tilt_bin``, and
quantile edges one fit, ``fit_energy_edges``.
"""

import math
from dataclasses import replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from blindspot import (
    FACTOR_ACTIVITY,
    FACTOR_ENERGY,
    FACTOR_RATE,
    FACTOR_TILT,
    AbstractionConfig,
    InputError,
    SensorWindow,
    StateKey,
    fit_energy_edges,
    tilt_bin,
)


def gyro_energy(window: SensorWindow) -> float:
    """Mean squared angular-rate norm over the window: (1/L) * sum ||w_t||^2."""
    g = window.gyro
    return float(np.mean(np.sum(g * g, axis=1)))


def mean_angular_rate(window: SensorWindow) -> float:
    """Mean angular-rate norm over the window: (1/L) * sum ||w_t||."""
    return float(np.mean(np.linalg.norm(window.gyro, axis=1)))


def energy_bin(value: float, edges: Sequence[float]) -> int:
    """Bin index for ``value`` against fitted edges.

    Bin 0 covers everything up to edges[1]; bin j covers (edges[j],
    edges[j+1]]; values beyond the last edge clamp into the top bin and values
    below the first edge clamp into bin 0.  With all edges equal every value
    lands in bin 0.
    """
    edges = tuple(float(e) for e in edges)
    if len(edges) < 2:
        raise InputError("edges must contain at least two values")
    for a, b in zip(edges, edges[1:]):
        if not a <= b:  # a NaN edge fails too
            raise InputError("edges must be nondecreasing")
    value = float(value)
    q = len(edges) - 1
    if edges[0] == edges[-1]:
        # degenerate fit (constant sample): no ordering information, so every
        # value shares bin 0 rather than splitting on which side it falls
        return 0
    for j in range(q):
        if value <= edges[j + 1]:
            return j
    return q - 1


class _Quantile(NamedTuple):
    bins: str  # the AbstractionConfig field with the bin count
    edges: str  # the AbstractionConfig field with the fitted edges
    of_window: Callable[[SensorWindow], float]


_QUANTILE_FACTORS = {
    FACTOR_ENERGY: _Quantile("energy_bins", "energy_edges", gyro_energy),
    FACTOR_RATE: _Quantile("rate_bins", "rate_edges", mean_angular_rate),
}


def fit_edges(config: AbstractionConfig, windows: Sequence[SensorWindow],
              fit_fraction: float = 1.0) -> AbstractionConfig:
    """``config`` with each enabled quantile factor that lacks edges fitted
    on its per-window values over the first ceil(fit_fraction * len(windows))
    windows; for valid arguments only."""
    m = max(1, math.ceil(fit_fraction * len(windows)))
    fitted = {q.edges: fit_energy_edges([q.of_window(w) for w in windows[:m]], getattr(config, q.bins))
              for factor, q in _QUANTILE_FACTORS.items()
              if factor in config.factors and getattr(config, q.edges) is None}
    return replace(config, **fitted)


def abstract_window(window: SensorWindow, config: AbstractionConfig) -> StateKey:
    """Map a window to its operational state under ``config``."""
    values = []
    for factor in config.factors:
        if factor == FACTOR_ACTIVITY:
            values.append(window.label)
        elif factor == FACTOR_TILT:
            values.append(tilt_bin(window, config.tilt_bins))
        else:
            q = _QUANTILE_FACTORS[factor]
            edges = getattr(config, q.edges)
            if edges is None:
                raise InputError(f"{factor} factor enabled but {q.edges} not fitted")
            values.append(energy_bin(q.of_window(window), edges))
    return StateKey(config.factors, values)
