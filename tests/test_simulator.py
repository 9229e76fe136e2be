"""Synthetic distributions, sampling, and the Monte-Carlo sweep harness.

Seeds in this file are frozen: each statistical assertion was checked against
the live behavior (and neighboring seeds) before the bound was committed.
"""

import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blindspot import (
    InputError,
    SweepCell,
    build_count_table,
    custom_distribution,
    family_distribution,
    freq_of_freqs,
    geometric_distribution,
    mass_estimate,
    run_sweep,
    sample,
    true_blind_mass,
    uniform_distribution,
    zipf_distribution,
)
from blindspot.counts import CountTable
from blindspot.estimators import ESTIMATOR_MODES, MODE_PLUGIN, MODE_PLUGIN_UNSEEN
from blindspot.report import sweep_to_json
from blindspot.simulator import (
    GENERATOR_NAME,
    STATE_FACTOR,
    CellStats,
    ModeStats,
    SweepResult,
    _DIST_SUM_TOL,
    SyntheticDistribution,
    _exact_parts,
    _floats,
    _numerators,
    _sample_indices,
    _states_of,
    _trial_counts,
    _true_mass_from_parts,
    state_index,
    state_key,
)
from conftest import key


def true_mass_from_counts(dist: SyntheticDistribution, counts: np.ndarray, tau: int) -> float:
    """The blind sum itself, fsum of the probabilities of the states counted
    below tau: the oracle of ``_true_mass_from_parts``."""
    return math.fsum(_floats(dist.probs[counts < tau]))

# normalized, its cumulative sum reaches 1.0000000000000002 one state before the end
CUM_OVERSHOOT = custom_distribution([1.0, 0.05, 0.7, 0.2, 0.0])

_WEIGHTS = st.sampled_from([0.0, 1.0, 0.05, 0.2, 0.7, 1 / 3, 1e-300]) | st.floats(0.0, 1e3)


@st.composite
def distributions(draw):
    """A custom distribution with zero-weight states anywhere, or a family one
    of 1 to 5,000 states whose tail may underflow to zero."""
    family = draw(st.sampled_from(["custom", "zipf", "geometric", "uniform"]))
    if family == "custom":
        return custom_distribution(draw(st.lists(_WEIGHTS, min_size=1, max_size=40).filter(any)))
    size = draw(st.integers(1, 5_000))
    if family == "zipf":
        return zipf_distribution(size, draw(st.sampled_from([0.0, 0.6, 1.0, 1.5, 200.0])))
    if family == "geometric":
        return geometric_distribution(size, draw(st.sampled_from([0.01, 0.5, 0.9])))
    return uniform_distribution(size)


class TestDistributions:
    def test_zipf_weights_proportional_to_inverse_rank(self):
        dist = zipf_distribution(5, 1.0)
        weights = [1 / (i + 1) for i in range(5)]
        z = math.fsum(weights)
        for i in range(5):
            assert dist.probs[i] == pytest.approx(weights[i] / z, rel=1e-14)
        assert math.fsum(dist.probs) == pytest.approx(1.0, abs=1e-12)

    def test_zipf_weight_below_the_float_range_is_zero(self):
        # 10**400 overflows to inf, and 1/inf is the weight's limit
        dist = zipf_distribution(10, 400.0)
        assert dist.probs[0] == 1.0
        assert dist.probs[9] == 0.0

    def test_zipf_exponent_zero_is_uniform(self):
        dist = zipf_distribution(4, 0.0)
        assert list(dist.probs) == pytest.approx([0.25] * 4)

    def test_geometric_ratios(self):
        dist = geometric_distribution(3, 0.5)
        assert list(dist.probs) == pytest.approx([4 / 7, 2 / 7, 1 / 7], rel=1e-14)

    def test_uniform(self):
        dist = uniform_distribution(8)
        assert list(dist.probs) == pytest.approx([0.125] * 8)

    def test_custom_normalizes(self):
        weights = np.array([2.0, 1.0, 1.0])
        dist = custom_distribution(weights)
        assert list(dist.probs) == pytest.approx([0.5, 0.25, 0.25])
        assert list(weights) == [2.0, 1.0, 1.0]  # normalized in a copy

    def test_custom_rejects_bad_weights(self):
        with pytest.raises(InputError):
            custom_distribution([1.0, -1.0])
        with pytest.raises(InputError, match="^probabilities must be finite and >= 0$"):
            custom_distribution([-1, 2])  # a positive sum: the weights are normalized first
        with pytest.raises(InputError):
            custom_distribution([0.0, 0.0])
        with pytest.raises(InputError):
            custom_distribution([])
        for weights in ([[1.0]], 1.0):
            with pytest.raises(InputError, match="^probabilities must be a non-empty 1-D vector$"):
                custom_distribution(weights)

    def test_size_is_the_length_of_probs(self):
        assert SyntheticDistribution("custom", (), [0.25, 0.75]).size == 2

    @pytest.mark.parametrize("probs", [[1.5, -0.5], [math.nan, 1.0], [math.inf, 0.0]])
    def test_probs_must_be_finite_and_nonnegative(self, probs):
        with pytest.raises(InputError, match="^probabilities must be finite and >= 0$"):
            SyntheticDistribution("custom", (), probs)

    def test_probs_must_sum_to_one(self):
        with pytest.raises(InputError, match="^probabilities must sum to 1 within 1e-12$"):
            SyntheticDistribution("custom", (), [0.5, 0.4])

    def test_a_sum_past_the_float_range_is_bad_input(self):
        with pytest.raises(InputError, match="^weights must have a positive finite sum$"):
            custom_distribution([1e308, 1e308])
        with pytest.raises(InputError, match="^probabilities must sum to 1 within 1e-12$"):
            SyntheticDistribution("custom", (), np.array([1e308, 1e308]))

    @pytest.mark.parametrize("edge", [1.0 - _DIST_SUM_TOL, 1.0 + _DIST_SUM_TOL])
    def test_sum_check_at_the_tolerance_is_the_exact_total_check(self, edge):
        # two halves of x on either side of a 4096-value chunk edge: the exact total is x
        outcomes = set()
        for step in range(-3, 4):
            x = edge
            for _ in range(abs(step)):
                x = math.nextafter(x, math.copysign(math.inf, step))
            probs = np.zeros(4097)
            probs[4095] = probs[4096] = x / 2
            accepted = abs(math.fsum(probs.tolist()) - 1.0) <= _DIST_SUM_TOL
            outcomes.add(accepted)
            if accepted:
                SyntheticDistribution("custom", (), probs)
            else:
                with pytest.raises(InputError, match="^probabilities must sum to 1 within 1e-12$"):
                    SyntheticDistribution("custom", (), probs)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("probs", [[], [[1.0]], 1.0])
    def test_probs_must_be_a_non_empty_vector(self, probs):
        with pytest.raises(InputError, match="non-empty 1-D vector"):
            SyntheticDistribution("custom", (), probs)

    def test_family_routing(self):
        assert list(family_distribution("zipf", 4, {"s": 1.0}).probs) == list(zipf_distribution(4, 1.0).probs)
        assert list(family_distribution("uniform", 4, {}).probs) == list(uniform_distribution(4).probs)
        with pytest.raises(InputError):
            family_distribution("cauchy", 4, {})
        with pytest.raises(InputError):
            family_distribution("zipf", 4, {})
        with pytest.raises(InputError):
            family_distribution("zipf", 4, {"s": 1.0, "extra": 2.0})
        with pytest.raises(InputError):
            family_distribution("uniform", 0, {})

    def test_state_key_naming_and_lookup(self):
        dist = uniform_distribution(5)
        assert state_key(3) == key(state="s3")
        assert state_index(dist, state_key(3)) == 3
        with pytest.raises(InputError):
            state_index(dist, state_key(9))
        with pytest.raises(InputError):
            state_index(dist, key(state="walk"))
        with pytest.raises(InputError):
            state_index(dist, key(other="s1"))


class TestSampling:
    def test_same_seed_reproduces(self):
        dist = zipf_distribution(50, 1.0)
        assert sample(dist, 500, 42) == sample(dist, 500, 42)

    def test_different_seed_differs(self):
        dist = zipf_distribution(50, 1.0)
        assert sample(dist, 500, 42) != sample(dist, 500, 43)

    def test_samples_live_in_the_support(self):
        dist = zipf_distribution(10, 1.5)
        for s in sample(dist, 200, 7):
            assert 0 <= state_index(dist, s) < dist.size

    def test_law_of_large_numbers_uniform(self):
        # frozen seed: observed frequency 0.499195
        dist = uniform_distribution(2)
        draws = sample(dist, 1_000_000, 21)
        f0 = sum(1 for s in draws if s == state_key(0)) / len(draws)
        assert 0.498 <= f0 <= 0.502

    @settings(max_examples=200, deadline=None)
    @given(dist=distributions(), n=st.integers(1, 3_000), seed=st.integers(0, 2**64 - 1))
    @example(dist=custom_distribution([1.0]), n=1, seed=0)
    @example(dist=custom_distribution([0.0, 0.0, 1.0, 0.0, 2.0, 0.0, 0.0]), n=500, seed=1)
    @example(dist=CUM_OVERSHOOT, n=2_000, seed=2)
    @example(dist=uniform_distribution(20_000), n=3, seed=3)  # K >> n
    @example(dist=zipf_distribution(3, 1.0), n=3_000, seed=4)  # n >> K
    @example(dist=uniform_distribution(50), n=50, seed=5)  # K = n: states searched in the draws
    @example(dist=uniform_distribution(51), n=50, seed=6)  # K = n+1: draws searched in the states
    @example(dist=custom_distribution([0.0, 0.0, 0.3, 1.0, 0.0, 0.0]), n=40, seed=7)  # zero ends, K <= n
    def test_trial_counts_are_the_counts_of_the_draws(self, dist, n, seed):
        expected = np.bincount(_sample_indices(dist, n, seed), minlength=dist.size)
        assert np.array_equal(_trial_counts(dist, n, seed), expected)

    @pytest.mark.parametrize(
        "dist, n",
        [
            (zipf_distribution(5, 1.0), 13),  # K < n
            (custom_distribution([0.0, 0.25, 0.25, 0.0, 0.5]), 5),  # K = n, zero-probability states
            (CUM_OVERSHOOT, 5),  # K = n, cum[K-2] > 1.0
            (zipf_distribution(9, 1.1), 7),  # K > n
        ],
    )
    def test_a_uniform_on_a_cumulative_probability_goes_to_the_next_state(self, dist, n, monkeypatch):
        # every uniform is 0.0 or exactly one of the cumulative probabilities
        # below 1.0, where _states_of puts it in the state above
        cum = dist._cum[:-1]
        ties = np.array([*cum[cum < 1.0][::-1], 0.0])
        u = np.resize(ties, n)

        class FixedUniforms:
            def __init__(self, seed):
                pass

            def random(self, size):
                assert size == n
                return u.copy()  # _trial_counts sorts its uniforms in place

        monkeypatch.setattr(np.random, "default_rng", FixedUniforms)
        expected = np.bincount(_states_of(dist, u), minlength=dist.size)
        assert np.array_equal(_trial_counts(dist, n, 0), expected)

    def test_cdf_overshoot_before_the_last_state(self):
        assert CUM_OVERSHOOT._cum[-2] > 1.0 == CUM_OVERSHOOT._cum[-1]
        counts = _trial_counts(CUM_OVERSHOOT, 5_000, 8)
        assert counts.sum() == 5_000 and counts[-1] == 0

    def test_zipf_rank_frequency_slope(self):
        # frozen seed: fitted slope -0.9968 (neighbors -1.0093, -1.0066)
        dist = zipf_distribution(100, 1.0)
        table = build_count_table(sample(dist, 10_000, 11), ("state",))
        top = sorted(table.counts.values(), reverse=True)[:20]
        ranks = np.arange(1, 21, dtype=float)
        slope = np.polyfit(np.log(ranks), np.log(np.asarray(top, dtype=float)), 1)[0]
        assert abs(slope - (-1.0)) <= 0.15


class TestTrueBlindMass:
    def test_hand_case(self):
        dist = uniform_distribution(4)
        table = CountTable(counts={state_key(0): 3, state_key(1): 1}, schema=("state",))
        assert true_blind_mass(dist, table, 1) == pytest.approx(0.5)  # s2, s3 unseen
        assert true_blind_mass(dist, table, 2) == pytest.approx(0.75)  # s1 joins
        assert true_blind_mass(dist, table, 4) == pytest.approx(1.0)

    def test_matches_brute_force(self):
        rng = random.Random(404)
        for trial in range(25):
            size = rng.randint(2, 80)
            dist = zipf_distribution(size, rng.choice([0.5, 1.0, 1.5]))
            draws = sample(dist, rng.randint(1, 400), seed=trial)
            table = build_count_table(draws, ("state",))
            tau = rng.randint(1, 6)
            # independent accumulation straight from the definition
            expected = 0.0
            for i in range(size):
                if table.count(state_key(i)) < tau:
                    expected += dist.probs[i]
            assert true_blind_mass(dist, table, tau) == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        dist=distributions(),
        n=st.integers(1, 3_000),
        seed=st.integers(0, 2**32),
        tau=st.integers(1, 12),
        shuffle=st.booleans(),
    )
    @example(dist=uniform_distribution(3), n=300, seed=0, tau=1, shuffle=False)  # nothing blind
    @example(dist=CUM_OVERSHOOT, n=50, seed=1, tau=3, shuffle=True)
    def test_complement_sum_is_the_blind_sum_bit_for_bit(self, dist, n, seed, tau, shuffle):
        counts = _trial_counts(dist, n, seed)
        if shuffle:  # blind sets the draws would rarely leave
            counts = np.random.default_rng(seed).permutation(counts)
        got = _true_mass_from_parts(_exact_parts(dist.probs.tolist()), dist, counts, tau)
        assert float.hex(got) == float.hex(true_mass_from_counts(dist, counts, tau))

    @pytest.mark.parametrize(
        "weights, counts",
        [([1.0, 2.0, 1.0], [3, 1, 1]), ([0.0, 1.0], [0, 5]), ([-0.0, 1.0, -0.0], [0, 2, 0])],
    )
    def test_nothing_blind_is_positive_zero(self, weights, counts):
        dist = custom_distribution(weights)
        counts = np.array(counts)
        got = _true_mass_from_parts(_exact_parts(dist.probs.tolist()), dist, counts, 1)
        assert float.hex(got) == float.hex(true_mass_from_counts(dist, counts, 1)) == "0x0.0p+0"

    @settings(max_examples=150, deadline=None)
    @given(
        size=st.sampled_from([0, 1, 4095, 4096, 4097, 8193]),
        palette=st.lists(
            # 8193 values of at most 1e300 cannot overflow a partial sum
            st.sampled_from([0.0, -0.0, 5e-324, 2.2e-308, 1e-300, 1 / 3, 1.0, 1e300]) | st.floats(-1e300, 1e300),
            min_size=1,
            max_size=8,
        ),
        seed=st.integers(0, 2**32),
    )
    def test_exact_parts_of_an_array_are_those_of_its_list(self, size, palette, seed):
        def reference(values: list) -> list:
            parts, terms = [], list(values)
            while r := math.fsum(terms):
                parts.append(r)
                terms.append(-r)
            return parts

        values = np.random.default_rng(seed).choice(np.array(palette), size)
        got = _exact_parts(values)
        assert [p.hex() for p in got] == [p.hex() for p in reference(values.tolist())]

    def test_foreign_state_rejected(self):
        dist = uniform_distribution(3)
        table = CountTable(counts={state_key(7): 2}, schema=("state",))
        with pytest.raises(InputError):
            true_blind_mass(dist, table, 1)


class TestMemory:
    @pytest.mark.parametrize(
        "make",
        [lambda k: zipf_distribution(k, 1.1), lambda k: geometric_distribution(k, 0.9999), uniform_distribution],
        ids=["zipf", "geometric", "uniform"],
    )
    def test_a_distribution_with_its_exact_parts_peaks_at_four_probability_arrays(self, make):
        # the weights, the probabilities and their cumulative sums, plus a few thousand Python floats
        tracemalloc.start()
        try:
            dist = make(200_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert math.fsum(dist._parts) == math.fsum(dist.probs.tolist())
        assert peak <= 4 * dist.probs.nbytes

    def test_a_trial_with_k_at_most_n_peaks_at_two_arrays_of_n(self):
        # the counts and the copy their difference makes, after the draws are freed
        n = 200_000
        dist = uniform_distribution(n)
        np.random.default_rng(0)  # numpy 2 imports numpy.random on first use
        tracemalloc.start()
        try:
            counts = _trial_counts(dist, n, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts.sum() == n
        assert peak <= 2.5 * 8 * n


def _reference_sweep(cells, trials, master_seed) -> SweepResult:
    """``run_sweep`` one draw at a time, through ``sample``,
    ``build_count_table``, ``freq_of_freqs`` and ``true_blind_mass``."""

    def std(values, center):
        if len(values) < 2:
            return 0.0
        return math.sqrt(math.fsum((v - center) ** 2 for v in values) / (len(values) - 1))

    out = []
    for ci, cell in enumerate(cells):
        dist = family_distribution(cell.family, cell.size, dict(cell.params))
        truth, estimates = [], {mode: [] for mode in ESTIMATOR_MODES}
        for t in range(trials):
            draws = sample(dist, cell.n, np.random.SeedSequence((master_seed, ci, t)))
            table = build_count_table(draws, (STATE_FACTOR,))
            truth.append(true_blind_mass(dist, table, cell.tau))
            fof = freq_of_freqs(table)
            for mode in ESTIMATOR_MODES:
                estimates[mode].append(mass_estimate(fof, cell.tau, mode))
        true_mean = math.fsum(truth) / trials
        stats = []
        for mode, values in estimates.items():
            mean = math.fsum(values) / trials
            error = math.fsum(abs(e - t) for e, t in zip(values, truth)) / trials
            stats.append(ModeStats(mode, mean, std(values, mean), error))
        out.append(CellStats(cell, true_mean, std(truth, true_mean), tuple(stats)))
    return SweepResult(tuple(out), trials, master_seed)


class TestSweep:
    def small_cells(self):
        return [
            SweepCell(family="zipf", params=(("s", 1.0),), size=30, n=150, tau=2),
            SweepCell(family="uniform", params=(), size=10, n=100, tau=1),
        ]

    def test_reproducible_end_to_end(self):
        a = run_sweep(self.small_cells(), trials=5, master_seed=9)
        b = run_sweep(self.small_cells(), trials=5, master_seed=9)
        assert a == b
        assert json.loads(sweep_to_json(a))["generator"] == GENERATOR_NAME == "PCG64"

    def test_master_seed_changes_results(self):
        a = run_sweep(self.small_cells(), trials=5, master_seed=9)
        b = run_sweep(self.small_cells(), trials=5, master_seed=10)
        assert a != b

    def test_well_covered_uniform_cell_is_all_zero(self):
        # K=3 states, 300 draws: every state seen, so truth and plugin vanish
        res = run_sweep(
            [SweepCell(family="uniform", params=(), size=3, n=300, tau=1)],
            trials=3,
            master_seed=5,
        )
        cs = res.cells[0]
        assert cs.true_mean == 0.0
        plugin = next(m for m in cs.estimates if m.mode == MODE_PLUGIN)
        assert plugin.mean == 0.0 and plugin.std == 0.0 and plugin.mean_abs_error == 0.0

    def test_stat_structure(self):
        res = run_sweep(self.small_cells(), trials=4, master_seed=12)
        assert res.trials == 4 and res.master_seed == 12
        for cs in res.cells:
            modes = [m.mode for m in cs.estimates]
            assert modes == ["plugin", "plugin+unseen", "generalized-gt"]
            for m in cs.estimates:
                assert 0.0 <= m.mean <= 1.0
                assert m.std >= 0.0 and m.mean_abs_error >= 0.0
            plugin, unseen, _ = cs.estimates
            assert plugin.mean <= unseen.mean + 1e-15

    def test_single_trial_has_zero_std(self):
        res = run_sweep(self.small_cells()[:1], trials=1, master_seed=3)
        assert res.cells[0].true_std == 0.0
        assert all(m.std == 0.0 for m in res.cells[0].estimates)

    def test_estimates_agree_with_library_estimators(self):
        # re-derive one trial's estimate by regenerating its sample stream
        cell = SweepCell(family="zipf", params=(("s", 1.0),), size=20, n=80, tau=3)
        res = run_sweep([cell], trials=1, master_seed=77)
        dist = zipf_distribution(20, 1.0)
        draws = sample(dist, 80, np.random.SeedSequence((77, 0, 0)))
        fof = freq_of_freqs(build_count_table(draws, ("state",)))
        expected = mass_estimate(fof, 3, MODE_PLUGIN)
        plugin = next(m for m in res.cells[0].estimates if m.mode == MODE_PLUGIN)
        assert plugin.mean == pytest.approx(expected, abs=1e-15)

    def test_unseen_mode_tracks_truth_at_tau_one(self):
        # frozen seed: |mean estimate - mean truth| = 0.00097 on this grid
        res = run_sweep(
            [SweepCell(family="zipf", params=(("s", 1.0),), size=200, n=1000, tau=1)],
            trials=50,
            master_seed=99,
        )
        cs = res.cells[0]
        unseen = next(m for m in cs.estimates if m.mode == MODE_PLUGIN_UNSEEN)
        assert abs(unseen.mean - cs.true_mean) <= 0.02

    def test_heavier_tails_leave_more_unseen_mass(self):
        # frozen grid: true unseen means 0, 0, 5.55e-4 for s = 0.5, 1.0, 1.5
        cells = [
            SweepCell(family="zipf", params=(("s", s),), size=300, n=30_000, tau=1)
            for s in (0.5, 1.0, 1.5)
        ]
        res = run_sweep(cells, trials=20, master_seed=777)
        means = [cs.true_mean for cs in res.cells]
        assert all(b >= a for a, b in zip(means, means[1:]))
        assert means[-1] > 0.0

    def test_equals_the_per_draw_reference(self):
        cells = [
            SweepCell(family="zipf", params=(("s", 1.0),), size=200, n=275, tau=5),
            SweepCell(family="uniform", params=(), size=3, n=300, tau=1),  # nothing blind
            SweepCell(family="geometric", params=(("ratio", 0.5),), size=50, n=1, tau=1),
            SweepCell(family="uniform", params=(), size=1, n=5, tau=2),
            SweepCell(family="zipf", params=(("s", 1.1),), size=20_000, n=40, tau=2),  # K >> n
            SweepCell(family="geometric", params=(("ratio", 0.9),), size=30, n=3_000, tau=10),
            SweepCell(family="zipf", params=(("s", 1.1),), size=60, n=60, tau=3),  # K = n
            SweepCell(family="uniform", params=(), size=61, n=60, tau=2),  # K = n+1
            SweepCell(family="geometric", params=(("ratio", 0.8),), size=10, n=40, tau=50),  # tau > every count
        ]
        assert run_sweep(cells, trials=4, master_seed=4) == _reference_sweep(cells, 4, 4)

    @settings(max_examples=100, deadline=None)
    @given(counts=st.lists(st.integers(0, 30), min_size=1, max_size=60).filter(any), tau=st.integers(1, 40))
    def test_numerators_are_the_table_numerators_up_to_tau_plus_one(self, counts, tau):
        table = CountTable({state_key(i): c for i, c in enumerate(counts) if c}, (STATE_FACTOR,))
        fof = freq_of_freqs(table)
        below = _numerators(np.array(counts), tau)
        got = [below(t) for t in range(1, tau + 2)]
        assert got == [fof.below(t) for t in range(1, tau + 2)]
        assert all(type(b) is int for b in got)

    @pytest.mark.parametrize("size, n", [(10**15, 10), (10**20, 10), (10, 10**15), (10, 10**20)])
    def test_a_cell_too_large_for_memory_is_bad_input(self, size, n):
        # numpy refuses these arrays before allocating anything
        cell = SweepCell(family="uniform", params=(), size=size, n=n, tau=1)
        named = f"K={size}" if size > n else f"n={n}"
        with pytest.raises(InputError, match=f"^{named} is too large"):
            run_sweep([cell], trials=1, master_seed=0)

    def test_validation(self):
        with pytest.raises(InputError):
            run_sweep([], trials=2, master_seed=0)
        with pytest.raises(InputError):
            run_sweep(self.small_cells(), trials=0, master_seed=0)
        with pytest.raises(InputError, match="master seed must be >= 0"):
            run_sweep(self.small_cells(), trials=2, master_seed=-1)
        with pytest.raises(InputError):
            SweepCell(family="zipf", params=(("s", 1.0),), size=0, n=10, tau=1)
        with pytest.raises(InputError):
            SweepCell(family="what", params=(), size=5, n=10, tau=1)
        # a cell's family parameters are checked when it is made, not when a sweep reaches it
        with pytest.raises(InputError, match="^zipf exponent must be >= 0, got -1.0$"):
            SweepCell("zipf", (("s", -1),), 10, 10, 1)
        with pytest.raises(InputError, match=r"^family 'zipf' takes parameters \['s'\], got \[\]$"):
            SweepCell("zipf", (), 10, 10, 1)
