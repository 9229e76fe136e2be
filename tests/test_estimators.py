"""Estimator behavior against hand-computed and brute-force oracles.

Expected numbers in this file were derived independently (by hand or with a
one-off script) before the implementation ran, then frozen.
"""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from blindspot import (
    InputError,
    RiskWeights,
    accuracy_ceiling,
    blind_spot_curve,
    blindness_decomposition,
    build_count_table,
    ceiling_curve,
    chance_accuracy,
    coarsen,
    curve_from_freqs,
    freq_of_freqs,
    good_turing_unseen_mass,
    mass_estimate,
    mixture_decomposition,
    wilson_interval,
)
from blindspot.estimators import (
    ESTIMATOR_MODES,
    EXTENSION_MODE_NOTES,
    MODE_GENERALIZED_GT,
    MODE_PLUGIN,
    MODE_PLUGIN_UNSEEN,
    BlindSpotCurve,
    DecompositionEntry,
)
from conftest import ACTIVITY_COUNTS, key, random_single_table, table_of, tied_tables

# counts {a:1, b:1, c:3}, n=5: worked end to end by hand
HAND_TABLE = {"a": 1, "b": 1, "c": 3}


def brute_force_estimates(counts: dict, tau: int) -> dict:
    """Independent re-derivation of all three modes from raw counts."""
    n = sum(counts.values())
    f: dict = {}
    for c in counts.values():
        f[c] = f.get(c, 0) + 1
    plugin = sum(c for c in counts.values() if c < tau) / n
    unseen = min(1.0, plugin + f.get(1, 0) / n)
    gen = sum((r + 1) * f.get(r + 1, 0) for r in range(tau)) / n
    return {MODE_PLUGIN: plugin, MODE_PLUGIN_UNSEEN: unseen, MODE_GENERALIZED_GT: gen}


class TestMassEstimate:
    @pytest.mark.parametrize(
        "tau,mode,expected",
        [
            (1, MODE_PLUGIN, 0.0),
            (2, MODE_PLUGIN, 0.4),
            (3, MODE_PLUGIN, 0.4),
            (4, MODE_PLUGIN, 1.0),
            (1, MODE_PLUGIN_UNSEEN, 0.4),
            (2, MODE_PLUGIN_UNSEEN, 0.8),
            (4, MODE_PLUGIN_UNSEEN, 1.0),
            (1, MODE_GENERALIZED_GT, 0.4),
            (2, MODE_GENERALIZED_GT, 0.4),
            (3, MODE_GENERALIZED_GT, 1.0),
        ],
    )
    def test_hand_case(self, tau, mode, expected):
        fof = freq_of_freqs(table_of(HAND_TABLE))
        assert mass_estimate(fof, tau, mode) == pytest.approx(expected, abs=1e-15)

    def test_unseen_mode_clamps_at_one(self):
        # plugin(3) = 1.0 and f1/n = 0.5 would sum to 1.5
        fof = freq_of_freqs(table_of({"a": 1, "b": 1, "c": 2}))
        assert mass_estimate(fof, 3, MODE_PLUGIN_UNSEEN) == 1.0

    def test_good_turing_unseen_mass(self):
        fof = freq_of_freqs(table_of(HAND_TABLE))
        assert good_turing_unseen_mass(fof) == 0.4

    def test_matches_brute_force_on_random_tables(self):
        rng = random.Random(301)
        for _ in range(50):
            table = random_single_table(rng)
            fof = freq_of_freqs(table)
            tau = rng.randint(1, 25)
            expected = brute_force_estimates(dict(
                (k.value_of("s"), c) for k, c in table.counts.items()
            ), tau)
            for mode in ESTIMATOR_MODES:
                assert mass_estimate(fof, tau, mode) == pytest.approx(expected[mode], abs=1e-12)

    def test_bad_tau_and_mode_rejected(self):
        fof = freq_of_freqs(table_of(HAND_TABLE))
        with pytest.raises(InputError):
            mass_estimate(fof, 0)
        with pytest.raises(InputError):
            mass_estimate(fof, 2.5)
        with pytest.raises(InputError):
            mass_estimate(fof, 2, "magic")


class TestCurves:
    def test_curve_points_and_monotonicity(self):
        table = table_of(HAND_TABLE)
        curve = blind_spot_curve(table, 4)
        assert curve.taus == (1, 2, 3, 4)
        assert curve.masses == pytest.approx((0.0, 0.4, 0.4, 1.0), abs=1e-15)
        assert curve.n == 5 and curve.k_observed == 3
        assert curve.mass_at(2) == pytest.approx(0.4)
        with pytest.raises(InputError):
            curve.mass_at(9)

    def test_curve_from_freqs_agrees(self):
        table = table_of(HAND_TABLE)
        assert curve_from_freqs(freq_of_freqs(table), 4).points == blind_spot_curve(table, 4).points

    @given(st.lists(st.integers(min_value=1, max_value=15), min_size=1, max_size=30))
    def test_modes_ordered_and_bounded(self, counts):
        table = table_of({f"v{i}": c for i, c in enumerate(counts)})
        tau_max = 18
        plugin = blind_spot_curve(table, tau_max, MODE_PLUGIN)
        unseen = blind_spot_curve(table, tau_max, MODE_PLUGIN_UNSEEN)
        gen = blind_spot_curve(table, tau_max, MODE_GENERALIZED_GT)
        for curve in (plugin, unseen, gen):
            masses = curve.masses
            assert all(0.0 <= m <= 1.0 for m in masses)
            assert all(b >= a for a, b in zip(masses, masses[1:]))
        assert all(u >= p for p, u in zip(plugin.masses, unseen.masses))

    @given(
        st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=40),
        st.integers(min_value=1, max_value=35),
    )
    def test_generalized_mode_shifts_the_plugin_numerator(self, counts, tau):
        # Good's estimate sum_{r<tau} (r+1) f_{r+1} / n is the plugin at tau+1,
        # exactly; single-threshold and curve evaluation agree in every mode
        fof = freq_of_freqs(table_of({f"v{i}": c for i, c in enumerate(counts)}))
        assert mass_estimate(fof, tau, MODE_GENERALIZED_GT) == mass_estimate(fof, tau + 1, MODE_PLUGIN)
        curves = {m: curve_from_freqs(fof, tau + 1, m) for m in ESTIMATOR_MODES}
        assert curves[MODE_GENERALIZED_GT].mass_at(tau) == curves[MODE_PLUGIN].mass_at(tau + 1)
        for mode, curve in curves.items():
            assert mass_estimate(fof, tau, mode) == curve.mass_at(tau)

    @given(
        st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=40),
        st.integers(min_value=1, max_value=35),
    )
    def test_plugin_unseen_exceeds_generalized_gt_by_the_double_count(self, counts, tau):
        # plugin+unseen adds f1/n to a numerator that already holds the
        # singletons; before its clamp it exceeds generalized-gt by
        # (f1 - tau*f_tau)/n
        fof = freq_of_freqs(table_of({f"v{i}": c for i, c in enumerate(counts)}))
        f1, f_tau, n = fof.singletons, fof.f.get(tau, 0), fof.n
        assert (fof.below(tau) + f1) - fof.below(tau + 1) == f1 - tau * f_tau
        unclamped = (fof.below(tau) + f1) / n
        assert abs(unclamped - mass_estimate(fof, tau, MODE_GENERALIZED_GT) - (f1 - tau * f_tau) / n) <= 1e-15
        assert mass_estimate(fof, tau, MODE_PLUGIN_UNSEEN) == min(1.0, unclamped)

    def test_curve_constructor_rejects_bad_shapes(self):
        with pytest.raises(InputError):
            BlindSpotCurve(points=((2, 0.1), (1, 0.2)), estimator_mode=MODE_PLUGIN, n=5, k_observed=2)
        with pytest.raises(InputError):
            BlindSpotCurve(points=((1, 0.4), (2, 0.2)), estimator_mode=MODE_PLUGIN, n=5, k_observed=2)
        with pytest.raises(InputError):
            BlindSpotCurve(points=((1, 1.4),), estimator_mode=MODE_PLUGIN, n=5, k_observed=2)

    def test_extension_mode_is_flagged(self):
        assert MODE_GENERALIZED_GT in EXTENSION_MODE_NOTES
        assert MODE_PLUGIN not in EXTENSION_MODE_NOTES
        assert MODE_PLUGIN_UNSEEN not in EXTENSION_MODE_NOTES


class TestCoarseningBound:
    def test_merging_states_cannot_raise_blind_mass(self):
        rng = random.Random(303)
        from conftest import random_multi_table

        for _ in range(60):
            table = random_multi_table(rng)
            proj = rng.choice([("a",), ("b",), ("a", "b"), ("b", "c"), ("a", "c")])
            tau = rng.randint(1, 50)
            fine = mass_estimate(freq_of_freqs(table), tau, MODE_PLUGIN)
            coarse = mass_estimate(freq_of_freqs(coarsen(table, proj)), tau, MODE_PLUGIN)
            assert coarse <= fine + 1e-12


def reference_decomposition(table, tau, weights):
    """Every blind entry and the total, from per-state terms p * w with
    p = c / n: entries sorted by (-contribution, values), the weighted total
    an fsum of the terms, the unweighted one the integer count of blind
    observations over n."""
    entries = []
    for state, c in table.counts.items():
        if c < tau:
            p = c / table.n
            w = 1.0 if weights is None else weights.weight(state)
            entries.append(DecompositionEntry(state=state, count=c, prob=p, weight=w, contribution=p * w))
    entries.sort(key=lambda e: (-e.contribution, e.state.values))
    if weights is None:
        total = sum(e.count for e in entries) / table.n
    else:
        total = math.fsum(e.contribution for e in entries)
    return tuple(entries), total


@st.composite
def decomposition_cases(draw):
    """(table, tau, top_k, weights): weights absent, or partial with a random
    or zero default and keys that may match no observed state; top_k None or
    1..k+1 for k blind states."""
    counts = draw(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=30))
    table = table_of({f"v{i}": c for i, c in enumerate(counts)}, factor="s")
    tau = draw(st.integers(min_value=1, max_value=35))
    weight = st.floats(min_value=0.0, max_value=10.0)
    default = draw(st.one_of(st.none(), st.just(0.0), weight))
    weights = None
    if default is not None:
        names = [f"v{i}" for i in range(len(counts))] + ["unseen0", "unseen1"]
        listed = draw(st.dictionaries(st.sampled_from(names), weight))
        weights = RiskWeights({key(s=v): w for v, w in listed.items()}, default_weight=default)
    k = sum(c < tau for c in counts)
    top_k = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=k + 1)))
    return table, tau, top_k, weights


class TestDecomposition:
    def test_weighted_replay(self):
        table = table_of(ACTIVITY_COUNTS)
        weights = RiskWeights(
            weights={
                key(activity="Walking"): 0.2,
                key(activity="Stairs up"): 0.6,
                key(activity="Stairs down"): 0.6,
                key(activity="Front fall"): 1.0,
                key(activity="Backward fall"): 1.0,
            },
            default_weight=0.0,
        )
        decomp = blindness_decomposition(table, 150, weights=weights)
        by_activity = {e.state.value_of("activity"): e for e in decomp.entries}
        assert "Walking" not in by_activity  # count 307 >= 150: supported
        assert round(by_activity["Stairs up"].contribution, 3) == 0.048
        assert round(by_activity["Stairs down"].contribution, 3) == 0.052
        assert round(by_activity["Front fall"].contribution, 3) == 0.073
        assert round(by_activity["Backward fall"].contribution, 3) == 0.073
        assert by_activity["Sitting"].contribution == 0.0
        assert decomp.total == pytest.approx(
            math.fsum(e.contribution for e in decomp.entries), abs=1e-15
        )

    def test_entries_sorted_by_contribution_then_state(self):
        table = table_of({"d": 2, "b": 3, "a": 3, "c": 1})
        decomp = blindness_decomposition(table, 10)
        order = [e.state.value_of("activity") for e in decomp.entries]
        assert order == ["a", "b", "d", "c"]

    def test_top_k_truncates_entries_but_not_total(self):
        table = table_of({"a": 5, "b": 4, "c": 3, "d": 2})
        full = blindness_decomposition(table, 10)
        capped = blindness_decomposition(table, 10, top_k=2)
        assert len(capped.entries) == 2
        assert capped.entries == full.entries[:2]
        assert capped.total == full.total == 1.0

    def test_total_equals_curve_value_exactly(self):
        rng = random.Random(304)
        for _ in range(40):
            table = random_single_table(rng)
            tau = rng.randint(1, 25)
            decomp = blindness_decomposition(table, tau)
            assert decomp.total == mass_estimate(freq_of_freqs(table), tau, MODE_PLUGIN)

    def test_unweighted_prob_is_count_over_n(self):
        table = table_of({"a": 1, "b": 4})
        decomp = blindness_decomposition(table, 3)
        (entry,) = decomp.entries
        assert entry.state == key(activity="a")
        assert entry.count == 1 and entry.prob == 0.2 and entry.weight == 1.0

    def test_risk_weights_validation_and_default(self):
        w = RiskWeights(weights={key(s="a"): 2.0})
        assert w.weight(key(s="a")) == 2.0
        assert w.weight(key(s="zz")) == 1.0
        with pytest.raises(InputError):
            RiskWeights(weights={key(s="a"): -0.5})
        with pytest.raises(InputError):
            RiskWeights(weights={key(s="a"): math.inf})
        with pytest.raises(InputError):
            RiskWeights(weights={key(s="a"): 1.0}, default_weight=-1.0)

    @pytest.mark.parametrize("top_k,name", [(2.5, "float"), ("3", "str")])
    def test_top_k_must_be_an_integer(self, top_k, name):
        table = table_of({"a": 1, "b": 2, "c": 3})
        with pytest.raises(InputError, match=f"^top_k must be an integer, got {name}$"):
            blindness_decomposition(table, 5, top_k=top_k)
        with pytest.raises(InputError, match="^top_k must be >= 1, got 0$"):
            blindness_decomposition(table, 5, top_k=0)

    @given(tied_tables(), st.integers(min_value=1, max_value=5))
    def test_unweighted_order_equals_the_one_key_sort(self, table, tau):
        entries, _ = reference_decomposition(table, tau, None)
        assert blindness_decomposition(table, tau).entries == entries

    @given(tied_tables(), st.integers(min_value=1, max_value=5), st.data())
    def test_weighted_order_equals_the_one_key_sort(self, table, tau, data):
        # zero and equal weights tie contributions across different counts
        weight = st.sampled_from([0.0, 0.5, 1.0, 2.0])
        listed = data.draw(st.lists(st.tuples(st.sampled_from(list(table.counts)), weight)))
        weights = RiskWeights(dict(listed), default_weight=data.draw(weight))
        entries, _ = reference_decomposition(table, tau, weights)
        assert blindness_decomposition(table, tau, weights=weights).entries == entries

    @given(tied_tables(), st.integers(min_value=1, max_value=5))
    def test_top_k_cuts_the_one_key_sort(self, table, tau):
        entries, _ = reference_decomposition(table, tau, None)
        for top_k in range(1, len(entries) + 3):
            assert blindness_decomposition(table, tau, top_k).entries == entries[:top_k]

    @given(decomposition_cases())
    def test_matches_the_weighted_plug_in_reference(self, case):
        table, tau, top_k, weights = case
        decomp = blindness_decomposition(table, tau, top_k, weights)
        entries, total = reference_decomposition(table, tau, weights)
        assert decomp.entries == entries[:top_k]
        assert decomp.total == total
        full = blindness_decomposition(table, tau, weights=weights)
        assert full.entries == entries
        assert full.total == decomp.total
        assert decomp.entries == full.entries[:top_k]


class TestCeiling:
    def test_replayed_ceiling_value(self):
        # blind mass 0.949 with chance accuracy over 12 classes
        assert round(accuracy_ceiling(0.949, chance_accuracy(12)), 4) == 0.1301

    def test_boundaries(self):
        assert accuracy_ceiling(0.0, 0.0) == 1.0
        assert accuracy_ceiling(1.0, 0.0) == 0.0
        assert accuracy_ceiling(1.0, 1.0) == 1.0
        assert accuracy_ceiling(0.5, 0.5) == 0.75

    def test_argument_validation(self):
        with pytest.raises(InputError):
            accuracy_ceiling(1.2, 0.0)
        with pytest.raises(InputError):
            accuracy_ceiling(0.5, -0.1)
        with pytest.raises(InputError):
            chance_accuracy(0)

    def test_ceiling_curve_tracks_blind_spot_curve(self):
        table = table_of(HAND_TABLE)
        curve = blind_spot_curve(table, 4)
        ceil = ceiling_curve(curve, 0.25)
        assert [t for t, _, _ in ceil.points] == [1, 2, 3, 4]
        for (tau, mass), (tau2, b, c) in zip(curve.points, ceil.points):
            assert tau == tau2 and b == mass
            assert c == accuracy_ceiling(mass, 0.25)


class TestMixture:
    def test_hand_case(self):
        table = table_of({"sup": 6, "rare": 4})
        outcomes = [(key(activity="sup"), i < 4) for i in range(6)]
        outcomes += [(key(activity="rare"), i < 1) for i in range(4)]
        mix = mixture_decomposition(outcomes, table, tau=5)
        assert mix.acc == 0.5
        assert mix.acc_sup == pytest.approx(2 / 3)
        assert mix.acc_blind == 0.25
        assert mix.blind_mass_empirical == 0.4
        recomposed = (1 - mix.blind_mass_empirical) * mix.acc_sup + mix.blind_mass_empirical * mix.acc_blind
        assert abs(mix.acc - recomposed) <= 1e-12

    def test_identity_holds_on_random_cases(self):
        rng = random.Random(305)
        for _ in range(200):
            table = random_single_table(rng, max_states=12, max_count=6)
            states = list(table.counts)
            outcomes = [
                (states[rng.randrange(len(states))], rng.random() < 0.7)
                for _ in range(rng.randint(1, 50))
            ]
            tau = rng.randint(1, 7)
            mix = mixture_decomposition(outcomes, table, tau)
            b = mix.blind_mass_empirical
            if mix.acc_sup is None:
                assert b == 1.0 and mix.acc == mix.acc_blind
            elif mix.acc_blind is None:
                assert b == 0.0 and mix.acc == mix.acc_sup
            else:
                assert abs(mix.acc - ((1 - b) * mix.acc_sup + b * mix.acc_blind)) <= 1e-12

    def test_input_validation(self):
        table = table_of({"a": 1})
        with pytest.raises(InputError):
            mixture_decomposition([], table, 1)
        with pytest.raises(InputError):
            mixture_decomposition([("nope", True)], table, 1)
        with pytest.raises(InputError):
            mixture_decomposition([(key(other="a"), True)], table, 1)


class TestWilson:
    def test_frozen_values(self):
        lower, upper = wilson_interval(5, 5, 0.95)
        assert round(lower, 3) == 0.566
        assert upper == 1.0
        lower, upper = wilson_interval(0, 10, 0.95)
        assert lower == 0.0
        assert 0.0 < upper < 0.35

    def test_interval_contains_point_estimate(self):
        rng = random.Random(306)
        for _ in range(300):
            t = rng.randint(1, 50)
            s = rng.randint(0, t)
            conf = rng.choice([0.5, 0.8, 0.9, 0.95, 0.99])
            lower, upper = wilson_interval(s, t, conf)
            assert 0.0 <= lower <= s / t <= upper <= 1.0

    def test_higher_confidence_widens(self):
        l90, u90 = wilson_interval(7, 20, 0.90)
        l99, u99 = wilson_interval(7, 20, 0.99)
        assert l99 <= l90 and u99 >= u90
        assert (u99 - l99) > (u90 - l90)

    def test_validation(self):
        with pytest.raises(InputError):
            wilson_interval(5, 0)
        with pytest.raises(InputError):
            wilson_interval(6, 5)
        with pytest.raises(InputError):
            wilson_interval(-1, 5)
        with pytest.raises(InputError):
            wilson_interval(1, 5, confidence=1.0)
        with pytest.raises(InputError):
            wilson_interval(1, 5, confidence=0.0)
        with pytest.raises(InputError):
            wilson_interval(1.5, 5)
        with pytest.raises(InputError, match="^trials must be at most "):
            wilson_interval(5, 10**400)
