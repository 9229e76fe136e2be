"""Synthetic distributions, sampling, and the Monte-Carlo sweep harness.

Seeds in this file are frozen: each statistical assertion was checked against
the live behavior (and neighboring seeds) before the bound was committed.
"""

import math
import random

import numpy as np
import pytest

from blindspot import (
    InputError,
    SweepCell,
    build_count_table,
    custom_distribution,
    family_distribution,
    freq_of_freqs,
    geometric_distribution,
    known_truth,
    mass_estimate,
    run_sweep,
    sample,
    true_blind_mass,
    uniform_distribution,
    zipf_distribution,
)
from blindspot.counts import CountTable
from blindspot.estimators import MODE_PLUGIN, MODE_PLUGIN_UNSEEN
from blindspot.simulator import GENERATOR_NAME, state_index, state_key
from conftest import key


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
        dist = custom_distribution([2.0, 1.0, 1.0])
        assert list(dist.probs) == pytest.approx([0.5, 0.25, 0.25])

    def test_custom_rejects_bad_weights(self):
        with pytest.raises(InputError):
            custom_distribution([1.0, -1.0])
        with pytest.raises(InputError):
            custom_distribution([0.0, 0.0])
        with pytest.raises(InputError):
            custom_distribution([])

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

    def test_known_truth_distribution(self):
        dist = geometric_distribution(3, 0.5)
        truth = known_truth(dist)
        assert truth.source == "known-truth"
        assert truth.prob(state_key(0)) == pytest.approx(4 / 7)


class TestSampling:
    def test_same_seed_reproduces(self):
        dist = zipf_distribution(50, 1.0)
        assert sample(dist, 500, 42) == sample(dist, 500, 42)

    def test_different_seed_differs(self):
        dist = zipf_distribution(50, 1.0)
        assert sample(dist, 500, 42) != sample(dist, 500, 43)

    def test_samples_live_in_the_support(self):
        dist = zipf_distribution(10, 1.5)
        truth = known_truth(dist)
        for s in sample(dist, 200, 7):
            assert s in truth.probs

    def test_law_of_large_numbers_uniform(self):
        # frozen seed: observed frequency 0.499195
        dist = uniform_distribution(2)
        draws = sample(dist, 1_000_000, 21)
        f0 = sum(1 for s in draws if s == state_key(0)) / len(draws)
        assert 0.498 <= f0 <= 0.502

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
        table = CountTable(
            counts={state_key(0): 3, state_key(1): 1}, n=4, schema=("state",)
        )
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

    def test_foreign_state_rejected(self):
        dist = uniform_distribution(3)
        table = CountTable(counts={state_key(7): 2}, n=2, schema=("state",))
        with pytest.raises(InputError):
            true_blind_mass(dist, table, 1)


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
        assert a.generator == GENERATOR_NAME == "PCG64"

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
            assert cs.trials == 4
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
