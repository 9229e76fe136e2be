"""Window slicing, featurization, and state assignment."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindspot import (
    FACTOR_ORDER,
    PRESETS,
    AbstractionConfig,
    AdmissionRecord,
    InputError,
    LabeledStream,
    MissingPrimaryDiagnosis,
    SensorWindow,
    abstract_stream,
    abstract_window,
    energy_bin,
    fit_edges,
    fit_energy_edges,
    gyro_energy,
    icd_prefix_state,
    make_windows,
    mean_angular_rate,
    preset,
    tilt_bin,
)
from blindspot.abstraction import _window_features, _window_starts
from conftest import key


def constant_stream(n, label=1, acc=(0.0, 0.0, 9.8), gyro=(0.0, 0.0, 0.0), rate=100.0):
    return LabeledStream(
        acc=np.tile(np.asarray(acc, dtype=float), (n, 1)),
        gyro=np.tile(np.asarray(gyro, dtype=float), (n, 1)),
        labels=np.full(n, label, dtype=np.int64),
        sample_rate_hz=rate,
    )


def window_of(acc_rows, gyro_rows=None, label=1, rate=100.0):
    acc = np.asarray(acc_rows, dtype=float)
    gyro = np.zeros_like(acc) if gyro_rows is None else np.asarray(gyro_rows, dtype=float)
    return SensorWindow(acc=acc, gyro=gyro, label=label, sample_rate_hz=rate)


class TestMakeWindows:
    def test_window_arithmetic(self):
        # 20 s at 100 Hz with 5 s windows / 2.5 s stride: starts 0..1500
        stream = constant_stream(2000)
        windows = make_windows(stream, 5.0, 2.5)
        assert len(windows) == 7
        assert all(w.length == 500 for w in windows)
        assert all(w.label == 1 for w in windows)

    def test_trailing_partial_dropped(self):
        windows = make_windows(constant_stream(1999), 5.0, 2.5)
        assert len(windows) == 6

    def test_stream_shorter_than_window_gives_nothing(self):
        assert make_windows(constant_stream(499), 5.0, 2.5) == []

    def test_label_purity(self):
        a = constant_stream(1000, label=1)
        b = constant_stream(1000, label=2)
        stream = LabeledStream(
            acc=np.vstack([a.acc, b.acc]),
            gyro=np.vstack([a.gyro, b.gyro]),
            labels=np.concatenate([a.labels, b.labels]),
            sample_rate_hz=100.0,
        )
        windows = make_windows(stream, 5.0, 2.5)
        # the start-750 window straddles the label change and is dropped
        assert [w.label for w in windows] == [1, 1, 1, 2, 2, 2]

    def test_label_is_plain_python_scalar(self):
        windows = make_windows(constant_stream(500, label=7), 5.0, 5.0)
        assert windows[0].label == 7
        assert not isinstance(windows[0].label, np.generic)

    def test_stride_bounds(self):
        stream = constant_stream(1000)
        with pytest.raises(InputError):
            make_windows(stream, 5.0, 6.0)
        with pytest.raises(InputError):
            make_windows(stream, 5.0, 0.0)
        with pytest.raises(InputError):
            make_windows(stream, 0.0, 0.0)

    @pytest.mark.parametrize(
        "window_s, stride_s",
        [(math.inf, 2.5), (math.nan, 2.5), (1e307, 2.5),
         (5.0, math.inf), (5.0, math.nan), (math.inf, math.inf)],
    )
    def test_non_finite_sample_counts_rejected(self, window_s, stride_s):
        # 1e307 s at 100 Hz is 1e309 samples, which overflows to inf
        stream = constant_stream(1000)
        with pytest.raises(InputError):
            make_windows(stream, window_s, stride_s)
        with pytest.raises(InputError):
            abstract_stream(stream, preset("activity"), window_s, stride_s, 1.0)

    def test_sub_sample_window_rejected(self):
        with pytest.raises(InputError):
            make_windows(constant_stream(100, rate=1.0), 0.2, 0.2)

    def test_timestamp_gap_ends_a_window_run(self):
        # samples 1000.. follow a 5 s gap: the start-750 window would span it
        base = constant_stream(2000)
        ts = np.arange(2000) * 0.01
        ts[1000:] += 5.0
        stream = LabeledStream(base.acc, base.gyro, base.labels, 100.0, timestamps=ts)
        starts = [0, 250, 500, 1000, 1250, 1500]
        assert len(make_windows(base, 5.0, 2.5)) == 7
        assert [w.acc.shape[0] for w in make_windows(stream, 5.0, 2.5)] == [500] * 6
        assert _window_starts(stream, 500, 250).tolist() == starts

    @pytest.mark.parametrize(
        "step,starts",
        # a NaN timestamp makes every later step NaN
        [(0.0, [0, 10]), (-0.01, [0, 10]), (0.016, [0, 10]), (float("nan"), [0])],
    )
    def test_timestamp_step_outside_one_and_a_half_samples_breaks(self, step, starts):
        base = constant_stream(20)
        ts = np.arange(20) * 0.01
        ts[10:] = ts[9] + step + np.arange(10) * 0.01  # the step from sample 9 to 10
        stream = LabeledStream(base.acc, base.gyro, base.labels, 100.0, timestamps=ts)
        assert _window_starts(stream, 10, 5).tolist() == starts

    def test_jittered_timestamps_stay_contiguous(self):
        base = constant_stream(20)
        ts = np.arange(20) * 0.01 + np.tile([0.0, 0.004], 10)  # steps 0.014 and 0.006
        stream = LabeledStream(base.acc, base.gyro, base.labels, 100.0, timestamps=ts)
        assert _window_starts(stream, 10, 5).tolist() == [0, 5, 10]

    def test_windows_never_cross_segment_starts(self):
        base = constant_stream(1600)
        stream = LabeledStream(base.acc, base.gyro, base.labels, 100.0, segment_starts=[1000])
        assert len(make_windows(base, 5.0, 2.5)) == 5
        assert _window_starts(stream, 500, 250).tolist() == [0, 250, 500, 1000]
        assert len(make_windows(stream, 5.0, 2.5)) == 4

    def test_segment_starts_validated(self):
        base = constant_stream(10)
        for bad in ([10], [-1]):
            with pytest.raises(InputError, match="segment starts"):
                LabeledStream(base.acc, base.gyro, base.labels, 100.0, segment_starts=bad)
        stream = LabeledStream(base.acc, base.gyro, base.labels, 100.0, segment_starts=np.array([0, 4]))
        assert stream.segment_starts == (0, 4)


class TestTiltBin:
    def test_aligned_with_vertical_is_bin_zero(self):
        w = window_of([[0.0, 0.0, 9.8]] * 10)
        for bins in (1, 2, 6, 12):
            assert tilt_bin(w, bins) == 0

    def test_orthogonal_is_top_bin(self):
        w = window_of([[9.8, 0.0, 0.0]] * 10)
        for bins in (1, 2, 6, 12):
            assert tilt_bin(w, bins) == bins - 1

    def test_forty_five_degrees_lands_on_middle_boundary(self):
        w = window_of([[1.0, 0.0, 1.0]] * 4)
        # phi = pi/4 sits exactly on the bins/2 edge for even bin counts
        assert tilt_bin(w, 6) == 3
        assert tilt_bin(w, 4) == 2
        assert tilt_bin(w, 12) == 6
        assert tilt_bin(w, 2) == 1

    def test_sign_of_vertical_ignored(self):
        up = window_of([[3.0, 0.0, 4.0]] * 5)
        down = window_of([[3.0, 0.0, -4.0]] * 5)
        for bins in (4, 6, 9):
            assert tilt_bin(up, bins) == tilt_bin(down, bins)

    @given(
        st.floats(min_value=-5, max_value=5),
        st.floats(min_value=-5, max_value=5),
        st.floats(min_value=-5, max_value=5),
        st.floats(min_value=0.001, max_value=1000.0),
    )
    def test_scale_invariance(self, x, y, z, scale):
        if math.sqrt(x * x + y * y + z * z) < 1e-6:
            return
        base = window_of([[x, y, z]] * 3)
        scaled = window_of([[x * scale, y * scale, z * scale]] * 3)
        assert tilt_bin(base, 6) == tilt_bin(scaled, 6)

    def test_zero_mean_vector_rejected_with_label(self):
        w = window_of([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], label="shake")
        with pytest.raises(InputError, match="shake"):
            tilt_bin(w, 6)

    def test_bins_validated(self):
        w = window_of([[0.0, 0.0, 1.0]])
        with pytest.raises(InputError):
            tilt_bin(w, 0)


class TestIntensityFeatures:
    def test_gyro_energy_hand_case(self):
        w = window_of([[0, 0, 1]] * 2, gyro_rows=[[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        assert gyro_energy(w) == pytest.approx(2.5)  # (1 + 4) / 2
        assert mean_angular_rate(w) == pytest.approx(1.5)  # (1 + 2) / 2

    def test_still_window_has_zero_energy(self):
        w = window_of([[0, 0, 1]] * 5)
        assert gyro_energy(w) == 0.0
        assert mean_angular_rate(w) == 0.0


class TestQuantileEdges:
    def test_exact_on_small_integer_sample(self):
        assert fit_energy_edges([0.0, 1.0, 2.0, 3.0], 3) == (0.0, 1.0, 2.0, 3.0)

    def test_midpoint_interpolation(self):
        assert fit_energy_edges([0.0, 10.0], 2) == (0.0, 5.0, 10.0)

    def test_order_statistics_at_exact_levels(self):
        assert fit_energy_edges([0.0, 1.0, 2.0, 3.0, 4.0], 2) == (0.0, 2.0, 4.0)

    def test_input_order_is_irrelevant(self):
        assert fit_energy_edges([3.0, 0.0, 2.0, 1.0], 3) == (0.0, 1.0, 2.0, 3.0)

    def test_constant_sample_collapses(self):
        assert fit_energy_edges([7.0, 7.0, 7.0], 4) == (7.0,) * 5

    def test_single_value(self):
        assert fit_energy_edges([2.5], 2) == (2.5, 2.5, 2.5)

    def test_validation(self):
        with pytest.raises(InputError):
            fit_energy_edges([], 2)
        with pytest.raises(InputError):
            fit_energy_edges([1.0], 0)
        with pytest.raises(InputError):
            fit_energy_edges([1.0, float("nan")], 2)

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=50),
           st.integers(min_value=1, max_value=8))
    def test_edges_nondecreasing_and_span_sample(self, values, bins):
        edges = fit_energy_edges(values, bins)
        assert len(edges) == bins + 1
        assert all(b >= a for a, b in zip(edges, edges[1:]))
        assert edges[0] == min(values) and edges[-1] == max(values)


class TestEnergyBin:
    def test_bin_assignment(self):
        edges = (0.0, 1.0, 2.0, 3.0)
        assert energy_bin(0.5, edges) == 0
        assert energy_bin(1.0, edges) == 0  # boundary closes the lower bin
        assert energy_bin(1.5, edges) == 1
        assert energy_bin(3.0, edges) == 2
        assert energy_bin(99.0, edges) == 2  # clamp above
        assert energy_bin(-5.0, edges) == 0  # clamp below

    def test_collapsed_edges_single_bin(self):
        assert energy_bin(123.0, (1.0, 1.0, 1.0)) == 0

    def test_validation(self):
        with pytest.raises(InputError):
            energy_bin(1.0, (2.0,))
        with pytest.raises(InputError):
            energy_bin(1.0, (2.0, 1.0))

    def test_a_nan_edge_is_refused_as_the_config_refuses_it(self):
        with pytest.raises(InputError, match="nondecreasing"):
            energy_bin(1.0, (0.0, math.nan, 2.0))
        with pytest.raises(InputError, match="nondecreasing"):
            AbstractionConfig(factors=("energy",), energy_bins=2, energy_edges=(0.0, math.nan, 2.0))

    @given(st.floats(allow_nan=False, allow_infinity=False, width=32),
           st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=9))
    def test_result_always_a_valid_bin(self, value, raw_edges):
        edges = tuple(sorted(raw_edges))
        b = energy_bin(value, edges)
        assert 0 <= b <= len(edges) - 2

    def test_every_fitted_sample_lands_in_range(self):
        values = [0.3, 1.2, 0.9, 4.4, 2.2, 2.2, 0.0, 8.8]
        edges = fit_energy_edges(values, 3)
        for v in values:
            assert 0 <= energy_bin(v, edges) <= 2


class TestAbstractionConfig:
    def test_factor_order_canonicalized(self):
        cfg = AbstractionConfig(factors=("tilt", "activity"))
        assert cfg.factors == ("activity", "tilt")

    def test_unknown_and_duplicate_factors_rejected(self):
        with pytest.raises(InputError):
            AbstractionConfig(factors=("speed",))
        with pytest.raises(InputError):
            AbstractionConfig(factors=("activity", "activity"))
        with pytest.raises(InputError):
            AbstractionConfig(factors=())

    def test_edges_must_match_bins(self):
        with pytest.raises(InputError):
            AbstractionConfig(factors=("activity", "energy"), energy_bins=3, energy_edges=(0.0, 1.0))
        with pytest.raises(InputError):
            AbstractionConfig(
                factors=("activity", "energy"), energy_bins=2, energy_edges=(0.0, 2.0, 1.0)
            )

    def test_presets(self):
        assert preset("activity").factors == ("activity",)
        assert preset("activity").refinement_tag == "a"
        assert preset("activity-tilt").refinement_tag == "a,p"
        assert preset("activity-tilt-energy").refinement_tag == "a,p,e"
        deep = preset("deployment-refined")
        assert deep.factors == ("activity", "tilt", "energy", "rate")
        assert (deep.tilt_bins, deep.energy_bins, deep.rate_bins) == (12, 8, 8)
        with pytest.raises(InputError):
            preset("nope")


class TestFitAndAbstract:
    def windows_with_energies(self, energies):
        out = []
        for e in energies:
            rate = math.sqrt(e)
            out.append(
                window_of([[0.0, 0.0, 1.0]] * 4, gyro_rows=[[rate, 0.0, 0.0]] * 4, label=3)
            )
        return out

    def test_fit_edges_noop_without_quantile_factors(self):
        cfg = preset("activity-tilt")
        assert fit_edges(cfg, []) is cfg

    def test_fit_edges_uses_leading_fraction(self):
        windows = self.windows_with_energies([0.0, 1.0, 2.0, 3.0])
        cfg = AbstractionConfig(factors=("activity", "energy"), energy_bins=3)
        full = fit_edges(cfg, windows)
        assert full.energy_edges == pytest.approx((0.0, 1.0, 2.0, 3.0))
        half = fit_edges(cfg, windows, fit_fraction=0.5)
        assert half.energy_edges == pytest.approx(fit_energy_edges([0.0, 1.0], 3))

    def test_fit_edges_validation(self):
        cfg = AbstractionConfig(factors=("activity", "energy"))
        with pytest.raises(InputError):
            fit_edges(cfg, [])
        with pytest.raises(InputError):
            fit_edges(cfg, self.windows_with_energies([1.0]), fit_fraction=0.0)
        with pytest.raises(InputError):
            fit_edges(cfg, self.windows_with_energies([1.0]), fit_fraction=1.2)

    def test_abstract_window_factor_order_and_values(self):
        w = window_of([[0.0, 0.0, 9.8]] * 4, gyro_rows=[[1.0, 0.0, 0.0]] * 4, label=5)
        cfg = AbstractionConfig(
            factors=("energy", "activity", "tilt"),
            tilt_bins=6,
            energy_bins=2,
            energy_edges=(0.0, 0.5, 2.0),
        )
        state = abstract_window(w, cfg)
        assert state.names == ("activity", "tilt", "energy")
        assert state == key(activity=5, tilt=0, energy=1)

    def test_abstract_window_requires_fitted_edges(self):
        w = window_of([[0.0, 0.0, 1.0]] * 4)
        with pytest.raises(InputError):
            abstract_window(w, AbstractionConfig(factors=("activity", "energy")))
        with pytest.raises(InputError):
            abstract_window(w, AbstractionConfig(factors=("activity", "rate")))

    def test_deployment_refined_pipeline(self):
        windows = self.windows_with_energies([0.1, 0.4, 0.9, 1.6, 2.5, 3.6, 4.9, 6.4, 8.1])
        cfg = fit_edges(preset("deployment-refined"), windows)
        states = [abstract_window(w, cfg) for w in windows]
        assert all(s.names == ("activity", "tilt", "energy", "rate") for s in states)
        # nine distinct energies over eight quantile bins: every bin occupied
        assert {s.value_of("energy") for s in states} == {str(b) for b in range(8)}


@st.composite
def labeled_streams(draw):
    """Streams at 10 Hz with random label runs, timestamp gaps, recording
    boundaries and sensor values."""
    runs = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 60)), min_size=1, max_size=8))
    labels = np.concatenate([np.full(length, label, dtype=np.int64) for label, length in runs])
    n = labels.size
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = np.full(n, 0.1)
    gaps = draw(st.lists(st.integers(0, n - 1), max_size=3))
    steps[gaps] = draw(st.sampled_from([0.5, 0.0, -0.3]))
    acc = rng.normal(0.0, 3.0, (n, 3)) + [0.0, 0.0, 9.8]
    gyro = rng.normal(0.0, 1.0, (n, 3)) * rng.lognormal(0.0, 1.0, (n, 1))
    segment_starts = draw(st.lists(st.integers(0, n - 1), max_size=2))
    return LabeledStream(acc, gyro, labels, 10.0, timestamps=np.cumsum(steps),
                         segment_starts=segment_starts)


class TestAbstractStream:
    """The one-pass path against make_windows -> fit_edges -> abstract_window."""

    @settings(max_examples=150, deadline=None)
    @given(
        stream=labeled_streams(),
        length=st.integers(1, 25),
        hop_fraction=st.floats(0.01, 1.0),
        name=st.sampled_from(sorted(PRESETS)),
        fit_fraction=st.sampled_from([0.05, 0.3, 0.5, 0.99, 1.0]),
    )
    def test_matches_the_per_window_functions(self, stream, length, hop_fraction, name, fit_fraction):
        hop = max(1, round(length * hop_fraction))
        window_s, stride_s = length / 10.0, hop / 10.0
        windows = make_windows(stream, window_s, stride_s)
        if not windows:
            with pytest.raises(InputError, match="^no label-pure windows could be formed from the stream$"):
                abstract_stream(stream, preset(name), window_s, stride_s, fit_fraction)
            return
        starts = _window_starts(stream, length, hop)
        assert [w.length for w in windows] == [length] * starts.size
        features = _window_features(stream, length, hop, starts, FACTOR_ORDER)
        close = dict(rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(features["tilt"], [w.acc.mean(axis=0) for w in windows], **close)
        np.testing.assert_allclose(features["energy"], [gyro_energy(w) for w in windows], **close)
        np.testing.assert_allclose(features["rate"], [mean_angular_rate(w) for w in windows], **close)

        expected_config = fit_edges(preset(name), windows, fit_fraction)
        expected = [abstract_window(w, expected_config) for w in windows]
        config, states = abstract_stream(stream, preset(name), window_s, stride_s, fit_fraction)
        assert states == expected
        for edges in ("energy_edges", "rate_edges"):
            if getattr(expected_config, edges) is None:
                assert getattr(config, edges) is None
            else:
                assert getattr(config, edges) == pytest.approx(getattr(expected_config, edges), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        stream=labeled_streams(),
        length=st.integers(1, 25),
        fit_fraction=st.sampled_from([0.05, 0.3, 1.0]),
        keep_rate=st.booleans(),
    )
    def test_saved_edges_are_kept(self, stream, length, fit_fraction, keep_rate):
        window_s = stride_s = length / 10.0
        windows = make_windows(stream, window_s, stride_s)
        if not windows:
            return
        saved = fit_edges(preset("deployment-refined"), windows)
        if not keep_rate:
            saved = replace(saved, rate_edges=None)
        expected_config = fit_edges(saved, windows, fit_fraction)
        assert expected_config.energy_edges == saved.energy_edges
        if keep_rate:
            assert expected_config == saved
        config, states = abstract_stream(stream, saved, window_s, stride_s, fit_fraction)
        assert config.energy_edges == saved.energy_edges
        assert config.rate_edges == pytest.approx(expected_config.rate_edges, rel=1e-12)
        assert states == [abstract_window(w, expected_config) for w in windows]

    def test_equal_states_share_one_key(self):
        a = constant_stream(1000, label=1)
        b = constant_stream(1000, label=2)
        stream = LabeledStream(
            acc=np.vstack([a.acc, b.acc]),
            gyro=np.vstack([a.gyro, b.gyro]),
            labels=np.concatenate([a.labels, b.labels]),
            sample_rate_hz=100.0,
        )
        config, states = abstract_stream(stream, preset("activity-tilt"), 5.0, 2.5)
        assert config == preset("activity-tilt")
        assert states == [key(activity=1, tilt=0)] * 3 + [key(activity=2, tilt=0)] * 3
        assert states[0] is states[1] is states[2]
        assert states[3] is states[4] is states[5]

    def test_zero_norm_tilt_message(self):
        stream = constant_stream(1000, label=4, acc=(0.0, 0.0, 0.0))
        with pytest.raises(InputError, match=r"^window \(label=4\) has a zero-norm mean acceleration; tilt is undefined$"):
            abstract_stream(stream, preset("activity-tilt"), 5.0, 2.5)

    def test_a_bool_label_is_refused_after_the_integer_it_equals(self):
        a = constant_stream(1000, label=1)
        stream = LabeledStream(
            acc=np.vstack([a.acc, a.acc]),
            gyro=np.vstack([a.gyro, a.gyro]),
            labels=np.array([1] * 1000 + [True] * 1000, dtype=object),
            sample_rate_hz=100.0,
        )
        with pytest.raises(InputError, match="^factor value may not be a bool$"):
            abstract_stream(stream, preset("activity"), 5.0, 2.5)

    def test_validation_matches_the_per_window_functions(self):
        stream = constant_stream(1000)
        with pytest.raises(InputError, match="stride_s"):
            abstract_stream(stream, preset("activity"), 5.0, 6.0)
        with pytest.raises(InputError, match="fit_fraction"):
            abstract_stream(stream, preset("activity"), 5.0, 2.5, fit_fraction=0.0)


class TestSensorTypes:
    def test_window_shape_validation(self):
        with pytest.raises(InputError):
            SensorWindow(acc=np.zeros((4, 2)), gyro=np.zeros((4, 2)), label=1, sample_rate_hz=100.0)
        with pytest.raises(InputError):
            SensorWindow(acc=np.zeros((4, 3)), gyro=np.zeros((3, 3)), label=1, sample_rate_hz=100.0)
        with pytest.raises(InputError):
            SensorWindow(acc=np.zeros((0, 3)), gyro=np.zeros((0, 3)), label=1, sample_rate_hz=100.0)

    def test_window_rejects_nan(self):
        acc = np.zeros((3, 3))
        acc[1, 2] = np.nan
        with pytest.raises(InputError):
            SensorWindow(acc=acc, gyro=np.zeros((3, 3)), label=1, sample_rate_hz=100.0)

    def test_window_arrays_read_only(self):
        w = window_of([[0.0, 0.0, 1.0]])
        with pytest.raises(ValueError):
            w.acc[0, 0] = 5.0

    def test_stream_validation(self):
        with pytest.raises(InputError):
            LabeledStream(
                acc=np.zeros((4, 3)), gyro=np.zeros((4, 3)),
                labels=np.zeros(3), sample_rate_hz=100.0,
            )
        with pytest.raises(InputError):
            LabeledStream(
                acc=np.full((2, 3), np.nan), gyro=np.zeros((2, 3)),
                labels=np.zeros(2), sample_rate_hz=100.0,
            )
        empty = LabeledStream(
            acc=np.empty((0, 3)), gyro=np.empty((0, 3)),
            labels=np.empty(0), sample_rate_hz=100.0,
        )
        assert len(empty) == 0


class TestDiagnosisStates:
    def test_four_character_prefix(self):
        rec = AdmissionRecord("1001", ((2, "E8889"), (1, "41071")))
        assert icd_prefix_state(rec) == key(icd4="4107")

    def test_short_code_kept_whole(self):
        rec = AdmissionRecord("1002", ((1, "41"),))
        assert icd_prefix_state(rec) == key(icd4="41")

    def test_first_sequence_one_wins(self):
        rec = AdmissionRecord("1003", ((1, "11111"), (1, "22222")))
        assert icd_prefix_state(rec) == key(icd4="1111")

    def test_missing_primary_raises(self):
        with pytest.raises(MissingPrimaryDiagnosis):
            icd_prefix_state(AdmissionRecord("1004", ((2, "41071"),)))
        with pytest.raises(MissingPrimaryDiagnosis):
            icd_prefix_state(AdmissionRecord("1005", ()))

    def test_blank_primary_code_raises(self):
        with pytest.raises(MissingPrimaryDiagnosis):
            icd_prefix_state(AdmissionRecord("1006", ((1, "   "),)))

    def test_prefix_len_configurable(self):
        rec = AdmissionRecord("1007", ((1, "41071"),))
        assert icd_prefix_state(rec, prefix_len=3) == key(icd4="410")
        with pytest.raises(InputError):
            icd_prefix_state(rec, prefix_len=0)
