"""Coverage-risk estimators over count tables.

A state is *supported* at threshold tau when its observed count is at least
tau and *blind* otherwise; unseen states are blind at every threshold.  The
blind mass of a distribution P is

    B(tau) = sum_x P(x) * 1{count(x) < tau}

Three estimator modes evaluate B(tau) from a table alone:

``plugin``
    sum of count/n over observed states with 1 <= count < tau.  Assigns zero
    to unseen states; the default and reference mode.
``plugin+unseen``
    plugin plus the missing-mass estimate f1/n (f1 = number of singletons),
    clamped to 1.  Corrects the plug-in's blindness to never-seen states.
``generalized-gt``
    Good's (1953) estimate of the true mass on states seen fewer than tau
    times: sum over r in [0, tau) of (r+1) * f_{r+1} / n, where (r+1) *
    f_{r+1} / n estimates the total mass of the states seen exactly r times
    (r = 0 gives the missing mass f1/n).  The sum equals the plugin estimate
    at tau+1.  Reports flag it as an extension in their metadata.

All three read the exact integer numerator ``FreqOfFreqs.below(t)`` =
sum_{r<t} r * f_r at t = tau, or t = tau+1 for generalized-gt, and divide by
n once; f1 is ``below(2)``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import InitVar, dataclass, field
from operator import attrgetter
from statistics import NormalDist
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .counts import CountTable, FreqOfFreqs, StateKey, freq_of_freqs
from .errors import InputError, _check_float, _check_int

__all__ = [
    "MODE_PLUGIN",
    "MODE_PLUGIN_UNSEEN",
    "MODE_GENERALIZED_GT",
    "ESTIMATOR_MODES",
    "EXTENSION_MODE_NOTES",
    "BlindSpotCurve",
    "RiskWeights",
    "DecompositionEntry",
    "BlindnessDecomposition",
    "CeilingCurve",
    "MixtureDecomposition",
    "blind_spot_curve",
    "curve_from_freqs",
    "mass_estimate",
    "good_turing_unseen_mass",
    "blindness_decomposition",
    "accuracy_ceiling",
    "ceiling_curve",
    "chance_accuracy",
    "mixture_decomposition",
    "wilson_interval",
]

MODE_PLUGIN = "plugin"
MODE_PLUGIN_UNSEEN = "plugin+unseen"
MODE_GENERALIZED_GT = "generalized-gt"
ESTIMATOR_MODES = (MODE_PLUGIN, MODE_PLUGIN_UNSEEN, MODE_GENERALIZED_GT)

# modes that go beyond the plug-in definition; reports must surface the note
EXTENSION_MODE_NOTES = {
    MODE_GENERALIZED_GT: (
        "extension: Good (1953) estimate of the true mass on states seen "
        "fewer than tau times; equals the plugin estimate at tau+1"
    ),
}


def _check_tau(tau) -> int:
    tau = _check_int(tau, "tau")
    if tau < 1:
        raise InputError(
            f"tau must be >= 1 (a support threshold requires at least one observation), got {tau}"
        )
    return tau


def _check_mode(mode: str) -> str:
    if mode not in ESTIMATOR_MODES:
        raise InputError(f"unknown estimator mode {mode!r}; choose from {list(ESTIMATOR_MODES)}")
    return mode


def _check_unit(x, what: str) -> float:
    x = _check_float(x, what)
    if not (0.0 <= x <= 1.0):
        raise InputError(f"{what} must lie in [0, 1], got {x}")
    return x


@dataclass(frozen=True)
class BlindSpotCurve:
    """Estimated blind mass per threshold, tau = 1..tau_max."""

    points: tuple[tuple[int, float], ...]
    estimator_mode: str
    n: int
    k_observed: int

    def __post_init__(self):
        _check_mode(self.estimator_mode)
        prev_tau = 0
        prev_mass = -0.0
        for tau, mass in self.points:
            if tau <= prev_tau:
                raise InputError("curve thresholds must be strictly increasing")
            if not (0.0 <= mass <= 1.0):
                raise InputError(f"curve mass out of [0,1] at tau={tau}: {mass}")
            if mass < prev_mass:
                raise InputError(f"curve mass decreased at tau={tau}")
            prev_tau, prev_mass = tau, mass

    @property
    def taus(self) -> tuple[int, ...]:
        return tuple(t for t, _ in self.points)

    @property
    def masses(self) -> tuple[float, ...]:
        return tuple(m for _, m in self.points)

    def mass_at(self, tau: int) -> float:
        for t, m in self.points:
            if t == tau:
                return m
        raise InputError(f"curve has no point at tau={tau}")


def _mass(below: Callable[[int], int], n: int, tau: int, mode: str) -> float:
    """Blind mass at ``tau`` from n and ``below(t)`` = sum_{r<t} r * f_r at t <= tau+1."""
    if mode == MODE_GENERALIZED_GT:
        return below(tau + 1) / n
    if mode == MODE_PLUGIN_UNSEEN:
        return min(1.0, (below(tau) + below(2)) / n)
    return below(tau) / n


def mass_estimate(fof: FreqOfFreqs, tau, mode: str = MODE_PLUGIN) -> float:
    """Single-threshold blind-mass estimate from a frequency-of-frequencies."""
    return _mass(fof.below, fof.n, _check_tau(tau), _check_mode(mode))


def blind_spot_curve(table: CountTable, tau_max, mode: str = MODE_PLUGIN) -> BlindSpotCurve:
    """Evaluate one estimator mode at every threshold 1..tau_max."""
    return curve_from_freqs(freq_of_freqs(table), tau_max, mode)


def curve_from_freqs(fof: FreqOfFreqs, tau_max, mode: str = MODE_PLUGIN) -> BlindSpotCurve:
    tau_max = _check_tau(tau_max)
    _check_mode(mode)
    points = tuple((tau, _mass(fof.below, fof.n, tau, mode)) for tau in range(1, tau_max + 1))
    return BlindSpotCurve(
        points=points, estimator_mode=mode, n=fof.n, k_observed=fof.k_observed
    )


def good_turing_unseen_mass(fof: FreqOfFreqs) -> float:
    """Missing-mass estimate f1/n: the share of observations that were
    singletons.  Zero when no state was seen exactly once."""
    return fof.singletons / fof.n


@dataclass(frozen=True)
class RiskWeights:
    """Per-state cost weights in [0, inf); unlisted states get the default."""

    weights: Mapping[StateKey, float]
    default_weight: float = 1.0

    def __post_init__(self):
        snapshot: dict[StateKey, float] = {}
        for key, w in self.weights.items():
            if not isinstance(key, StateKey):
                raise InputError("risk weight keys must be StateKey")
            w = _check_float(w, "risk weight")
            if not (w >= 0.0 and math.isfinite(w)):
                raise InputError(f"risk weight for {key.serialize()!r} must be finite and >= 0, got {w}")
            snapshot[key] = w
        default = _check_float(self.default_weight, "default risk weight")
        if not (default >= 0.0 and math.isfinite(default)):
            raise InputError(f"default risk weight must be finite and >= 0, got {default}")
        object.__setattr__(self, "weights", snapshot)
        object.__setattr__(self, "default_weight", default)

    def weight(self, key: StateKey) -> float:
        return self.weights.get(key, self.default_weight)


class DecompositionEntry(NamedTuple):
    """One row of the decomposition table: its fields are the table's header."""

    state: StateKey
    count: int
    prob: float
    weight: float
    contribution: float


@dataclass(frozen=True)
class BlindnessDecomposition:
    """Per-state contributions to a blindness estimate at one threshold.

    ``blindness_decomposition``, the one producer, gives entries of count <
    tau sorted by contribution (descending), ties broken lexicographically by
    state values; only ``total`` is checked here.  ``total`` always reflects
    the full, untruncated sum even when the entry list was cut to a top-k
    prefix.
    """

    entries: tuple[DecompositionEntry, ...]
    tau: int
    total: float

    def __post_init__(self):
        if not (math.isfinite(self.total) and self.total >= 0.0):
            raise InputError(f"decomposition total must be finite and >= 0, got {self.total}")


def blindness_decomposition(
    table: CountTable,
    tau,
    top_k: Optional[int] = None,
    weights: Optional[RiskWeights] = None,
) -> BlindnessDecomposition:
    """Which observed states carry the blind mass at threshold tau.

    Each observed state with count < tau contributes count/n times its risk
    weight: ``weights.weight(state)``, or 1.0 when ``weights`` is None.
    Entries are sorted by contribution (descending, ties by state values) and
    cut to the ``top_k`` largest.  ``total`` covers every blind state whatever
    ``top_k`` is.  Unweighted, it is the plugin curve's value at tau exactly;
    weighted, it is the ``math.fsum`` of the contributions.
    """
    tau = _check_tau(tau)
    if top_k is not None:
        top_k = _check_int(top_k, "top_k", 1)
    n = table.n
    entries = []
    blind_observations = 0
    for key, c in table.sorted_items():
        if c < tau:
            p = c / n
            if weights is None:
                w, contribution = 1.0, p  # one float object, not two, per entry
            else:
                w = weights.weight(key)
                contribution = p * w
            entries.append(DecompositionEntry(key, c, p, w, contribution))
            blind_observations += c
    if weights is None:
        # same integer numerator and division as the plugin curve: totals match exactly
        total = blind_observations / n
    else:
        total = math.fsum(e.contribution for e in entries)
    # entries are built in state order, and the stable sort by contribution
    # keeps tied entries in it
    entries.sort(key=attrgetter("contribution"), reverse=True)
    return BlindnessDecomposition(entries=tuple(entries[:top_k]), tau=tau, total=total)


def accuracy_ceiling(blind_mass, assumed_blind_accuracy=0.0) -> float:
    """Best achievable accuracy when supported states are answered perfectly:
    (1 - b) * 1 + b * assumed_blind_accuracy."""
    b = _check_unit(blind_mass, "blind_mass")
    a = _check_unit(assumed_blind_accuracy, "assumed_blind_accuracy")
    return (1.0 - b) + b * a


@dataclass(frozen=True)
class CeilingCurve:
    """(tau, blind_mass, ceiling) triples under one blind-accuracy assumption:
    ``CeilingCurve(masses, assumed_blind_accuracy)`` takes (tau, blind_mass)
    pairs and computes each ceiling with ``accuracy_ceiling``."""

    masses: InitVar[Sequence[tuple[int, float]]]
    assumed_blind_accuracy: float
    points: tuple[tuple[int, float, float], ...] = field(init=False)

    def __post_init__(self, masses):
        a = _check_unit(self.assumed_blind_accuracy, "assumed_blind_accuracy")
        object.__setattr__(self, "assumed_blind_accuracy", a)
        object.__setattr__(self, "points", tuple((t, b, accuracy_ceiling(b, a)) for t, b in masses))


def ceiling_curve(curve: BlindSpotCurve, assumed_blind_accuracy=0.0) -> CeilingCurve:
    return CeilingCurve(curve.points, assumed_blind_accuracy)


def chance_accuracy(num_classes) -> float:
    """Blind-accuracy preset for uniform guessing over the label set."""
    # int true division: no OverflowError however many classes
    return 1 / _check_int(num_classes, "number of classes", 1)


@dataclass(frozen=True)
class MixtureDecomposition:
    """Accuracy split over supported vs blind states.

    The exact identity acc = (1-b)*acc_sup + b*acc_blind holds whenever both
    conditional accuracies are defined; an empty branch leaves its accuracy
    None and the identity degenerates to the other branch.
    """

    acc: float
    acc_sup: Optional[float]
    acc_blind: Optional[float]
    blind_mass_empirical: float


def mixture_decomposition(
    outcomes: Sequence[tuple[StateKey, bool]], table: CountTable, tau
) -> MixtureDecomposition:
    """Split labeled outcomes (state, correct?) by support at threshold tau."""
    tau = _check_tau(tau)
    outcomes = list(outcomes)
    if not outcomes:
        raise InputError("mixture decomposition needs at least one outcome")
    sup_n = sup_correct = blind_n = blind_correct = 0
    for i, item in enumerate(outcomes):
        try:
            key, correct = item
        except (TypeError, ValueError):
            raise InputError(f"outcome {i} must be a (StateKey, bool) pair") from None
        if not isinstance(key, StateKey):
            raise InputError(f"outcome {i}: state must be a StateKey")
        if key.names != table.schema:
            raise InputError(
                f"outcome {i}: state factors {list(key.names)} do not match table schema {list(table.schema)}"
            )
        correct = bool(correct)
        if table.count(key) < tau:
            blind_n += 1
            blind_correct += int(correct)
        else:
            sup_n += 1
            sup_correct += int(correct)
    total = sup_n + blind_n
    return MixtureDecomposition(
        acc=(sup_correct + blind_correct) / total,
        acc_sup=(sup_correct / sup_n) if sup_n else None,
        acc_blind=(blind_correct / blind_n) if blind_n else None,
        blind_mass_empirical=blind_n / total,
    )


def wilson_interval(successes, trials, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    The critical value z comes from the inverse normal CDF at
    (1 + confidence) / 2, so any confidence level in (0, 1) is exact to
    floating-point precision rather than relying on a tabulated constant.
    The interval always contains the point estimate and is clipped to [0, 1].
    """
    s = _check_int(successes, "successes")
    t = _check_int(trials, "trials", 1)
    if t > sys.float_info.max:  # z2 / t would raise OverflowError
        raise InputError(
            f"trials must be at most {sys.float_info.max!r} (the largest float), "
            f"got a {t.bit_length()}-bit integer"
        )
    if not (0 <= s <= t):
        raise InputError(f"successes must lie in [0, trials]; got {s} of {t}")
    confidence = _check_float(confidence, "confidence")
    if not (0.0 < confidence < 1.0):
        raise InputError(f"confidence must lie strictly between 0 and 1, got {confidence}")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    p = s / t
    z2 = z * z
    denom = 1.0 + z2 / t
    center = (p + z2 / (2.0 * t)) / denom
    half = z * math.sqrt(p * (1.0 - p) / t + z2 / (4.0 * t * t)) / denom
    lower = max(0.0, min(center - half, p))
    upper = min(1.0, max(center + half, p))
    return lower, upper
