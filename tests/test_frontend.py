import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wakenode import (
    BinarySignal,
    CircuitParams,
    Signal,
    amplifier_gain,
    amplify,
    common_mode,
    envelope_detect,
    threshold_out,
)

from wakenode import frontend
from wakenode.frontend import EnvelopeDetector
from wakenode.powersim import WakeRuns, simulate_from_wake
from wakenode.records import BUILTIN_PROFILES, NodeConfig

from conftest import tone

positive = st.floats(1e-3, 1e9, allow_nan=False, allow_infinity=False)

FS_HZ = 1000.0


def envelope_oracle(x: np.ndarray, fs: float, p: CircuitParams) -> np.ndarray:
    """Per-sample peak-hold recurrence, the reference for envelope_detect."""
    decay = math.exp(-1.0 / (fs * p.r5_ohm * p.c5_f))
    state = np.empty(len(x), dtype=np.float64)
    level = 0.0
    for i, v in enumerate(x - p.diode_drop_v):
        level *= decay
        if v > level:
            level = v
        state[i] = level
    divider = p.r6_ohm / (p.r5_ohm + p.r6_ohm)
    return np.maximum(state - p.diode_drop_v, 0.0) * divider


def assert_matches_oracle(x: np.ndarray, fs: float, p: CircuitParams) -> None:
    out = envelope_detect(Signal(x, fs), p).samples
    # the contract is a relative 1e-9 on the detector state; after the output
    # diode drop that is rtol 1e-9 plus 1e-9 * drop * divider absolute, and
    # states below the normal float range (~2e-308) are compared as zero
    divider = p.r6_ohm / (p.r5_ohm + p.r6_ohm)
    atol = 1e-9 * p.diode_drop_v * divider + 1e-300
    np.testing.assert_allclose(out, envelope_oracle(x, fs, p), rtol=1e-9, atol=atol)


def clicks_like(duration_s: float, fs: float, clicks: int, seed: int) -> np.ndarray:
    """Quiet noise plus short windowed 2 kHz clicks at random times."""
    rng = np.random.default_rng(seed)
    n = int(duration_s * fs)
    x = rng.normal(scale=0.002, size=n)
    burst = np.hanning(10)[1:-1] * np.sin(2 * np.pi * 2000.0 * np.arange(8) / fs + np.pi / 4)
    burst /= np.max(burst)  # the click's positive peak equals its amplitude
    for start in rng.integers(0, n - 8, size=clicks):
        x[start : start + 8] += rng.uniform(0.5, 0.85) * burst
    return np.clip(x, -1.0, 1.0)


class TestCircuitParams:
    def test_defaults_match_prototype_board(self):
        p = CircuitParams()
        assert p.vdd_v == 3.3
        assert p.rf_ohm == 1e5
        assert p.r1_ohm == 1e3
        assert p.r5_ohm == 1e7
        assert p.r6_ohm == 1e5
        assert p.c5_f == 9e-6
        assert p.diode_drop_v == 0.0

    def test_rejects_non_positive_components(self):
        with pytest.raises(ValueError, match="vdd_v"):
            CircuitParams(vdd_v=0.0)
        with pytest.raises(ValueError, match="r1_ohm"):
            CircuitParams(r1_ohm=-1.0)
        with pytest.raises(ValueError, match="rf_ohm"):
            CircuitParams(rf_ohm=-1.0)

    def test_zero_feedback_resistor_allowed(self):
        assert amplifier_gain(CircuitParams(rf_ohm=0.0)) == 1.0


class TestAmplifierFormulas:
    def test_default_gain_is_101(self):
        assert amplifier_gain(CircuitParams()) == 101.0

    def test_equal_resistors_double(self):
        assert amplifier_gain(CircuitParams(rf_ohm=4700.0, r1_ohm=4700.0)) == 2.0

    def test_default_common_mode(self):
        assert common_mode(CircuitParams()) == 1.65

    def test_common_mode_half_supply(self):
        assert common_mode(CircuitParams(vdd_v=1.0)) == 0.5

    @given(rf=positive, r1=positive, vdd=positive)
    @settings(max_examples=100, deadline=None)
    def test_formulas_hold_for_random_components(self, rf, r1, vdd):
        p = CircuitParams(rf_ohm=rf, r1_ohm=r1, vdd_v=vdd)
        assert amplifier_gain(p) == 1.0 + rf / r1
        assert common_mode(p) == vdd / 2.0


class TestAmplify:
    def test_zero_input_sits_at_common_mode(self):
        out = amplify(Signal(np.zeros(100), 8000.0), CircuitParams())
        np.testing.assert_array_equal(out.samples, np.full(100, 1.65))

    def test_small_sine_amplified_without_clipping(self):
        # closed form: 1 mV amplitude times gain 101 around 1.65 V
        out = amplify(tone(100, 0.1, 8000, amplitude=1e-3), CircuitParams())
        swing = out.samples - 1.65
        assert np.max(swing) == pytest.approx(0.101, rel=1e-3)
        assert np.min(swing) == pytest.approx(-0.101, rel=1e-3)
        assert np.max(out.samples) < 3.3
        assert np.min(out.samples) > 0.0

    def test_large_sine_clips_at_rails(self):
        # closed form exceeds the rails: 101 * 50 mV = 5.05 V swing
        out = amplify(tone(100, 0.1, 8000, amplitude=50e-3), CircuitParams())
        assert np.max(out.samples) == 3.3
        assert np.min(out.samples) == 0.0

    @given(seed=st.integers(0, 10_000), scale=st.floats(1e-6, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_output_always_within_rails(self, seed, scale):
        rng = np.random.default_rng(seed)
        s = Signal(rng.normal(scale=scale, size=256), 8000.0)
        out = amplify(s, CircuitParams())
        assert np.all(out.samples >= 0.0)
        assert np.all(out.samples <= 3.3)


class TestEnvelopeDetect:
    def test_constant_input_steady_state(self):
        p = CircuitParams(diode_drop_v=0.3)
        c = 2.0
        out = envelope_detect(Signal(np.full(2000, c), 1000.0), p)
        divider = p.r6_ohm / (p.r5_ohm + p.r6_ohm)
        assert out.samples[-1] == pytest.approx((c - 2 * p.diode_drop_v) * divider)

    def test_decay_reaches_e_fraction_at_tau(self):
        # tau = r5 * c5 = 10 MOhm * 9 uF = 90 s
        p = CircuitParams()
        fs = 1000.0
        hold = np.full(1000, 2.0)
        quiet = np.zeros(int(90 * fs))
        out = envelope_detect(Signal(np.concatenate([hold, quiet]), fs), p)
        held = out.samples[len(hold) - 1]
        after_tau = out.samples[len(hold) - 1 + int(90 * fs)]
        assert after_tau / held == pytest.approx(math.exp(-1.0), abs=5e-3)

    def test_zero_input_stays_zero(self):
        out = envelope_detect(Signal(np.zeros(500), 8000.0), CircuitParams())
        np.testing.assert_array_equal(out.samples, np.zeros(500))

    def test_non_increasing_during_decay(self):
        p = CircuitParams()
        sig = Signal(np.concatenate([np.full(100, 1.0), np.zeros(5000)]), 8000.0)
        out = envelope_detect(sig, p)
        decay = out.samples[100:]
        assert np.all(np.diff(decay) <= 0)

    def test_output_nonnegative(self):
        rng = np.random.default_rng(7)
        sig = Signal(np.abs(rng.normal(size=1000)), 8000.0)
        out = envelope_detect(sig, CircuitParams(diode_drop_v=0.6))
        assert np.all(out.samples >= 0.0)


class TestEnvelopeMatchesLoop:
    # fs * tau = 1e-4 underflows decay to 0.0, 0.002 to 0.3 take the
    # log-step scan (blocks would be under SCAN_MIN_BLOCK samples), 1/3 is
    # the shortest that takes the block scan, 1.0 gives 600-sample blocks,
    # 1440 is the 90 ms time constant at 16 kHz, and 1e20 rounds decay to 1.0
    @given(
        log_fs_tau=st.floats(-4.0, 20.0),
        drop=st.sampled_from([0.0, 0.05, 0.6]),
        n=st.integers(1, 2500),
        density=st.sampled_from([0.002, 0.05, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(log_fs_tau=-4.0, drop=0.0, n=50, density=0.05, seed=0)
    @example(log_fs_tau=math.log10(0.002), drop=0.05, n=2500, density=0.05, seed=6)
    @example(log_fs_tau=math.log10(0.05), drop=0.6, n=2500, density=0.002, seed=7)
    @example(log_fs_tau=math.log10(0.3), drop=0.0, n=2500, density=0.002, seed=8)
    @example(log_fs_tau=math.log10(1 / 3), drop=0.05, n=2500, density=0.002, seed=9)
    @example(log_fs_tau=0.0, drop=0.05, n=1801, density=0.002, seed=1)
    @example(log_fs_tau=math.log10(1440.0), drop=0.6, n=2500, density=0.05, seed=2)
    @example(log_fs_tau=20.0, drop=0.05, n=500, density=0.05, seed=3)
    @settings(max_examples=150, deadline=None)
    def test_matches_per_sample_recurrence(self, log_fs_tau, drop, n, density, seed):
        rng = np.random.default_rng(seed)
        # amplifier-range input, with zero stretches so the level decays
        x = rng.uniform(0.0, 3.3, size=n) * (rng.random(n) < density)
        c5_f = 10.0**log_fs_tau / (FS_HZ * CircuitParams().r5_ohm)
        assert_matches_oracle(x, FS_HZ, CircuitParams(c5_f=c5_f, diode_drop_v=drop))

    def test_long_signal_straddles_full_blocks(self):
        # tau 90 ms at 16 kHz gives full 65536-sample blocks; 140000 samples
        # cross two block boundaries
        fs = 16_000.0
        p = CircuitParams(c5_f=9e-9, diode_drop_v=0.05)
        x = amplify(Signal(clicks_like(8.75, fs, 300, seed=4) * 0.01, fs), p).samples
        assert len(x) == 140_000
        assert_matches_oracle(x, fs, p)

    def test_wake_runs_identical_on_clicks(self):
        fs = 16_000.0
        p = CircuitParams(c5_f=9e-9)  # tau = 90 ms, as in the clicks benchmark
        amplified = amplify(Signal(clicks_like(10.0, fs, 400, seed=5) * 0.01, fs), p)
        wake = threshold_out(envelope_detect(amplified, p), 0.022).samples
        oracle = envelope_oracle(amplified.samples, fs, p) <= 0.022
        runs = np.count_nonzero(np.diff(wake.astype(np.int8)) == -1)
        assert runs > 100
        np.testing.assert_array_equal(wake, oracle)


def envelope_in_chunks(chunks: list[np.ndarray], fs: float, p: CircuitParams) -> np.ndarray:
    """One EnvelopeDetector fed a copy of each chunk in turn, its outputs joined."""
    detector = EnvelopeDetector(p, fs)
    return np.concatenate([detector.feed(chunk.copy()) for chunk in chunks])


def random_chunks(x: np.ndarray, longest: int, seed: int) -> list[np.ndarray]:
    """``x`` cut into consecutive chunks of random lengths from 0 to ``longest``
    (the last one may be longer)."""
    lengths = np.random.default_rng(seed).integers(0, longest + 1, size=4 * len(x) // longest + 8)
    bounds = np.cumsum(lengths)
    return np.split(x, bounds[bounds < len(x)])


def sparse_drive(n: int, seed: int) -> np.ndarray:
    """Amplifier-range input, zero mostly, so the level decays across boundaries."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 3.3, size=n) * (rng.random(n) < 0.05)


class TestEnvelopeInChunks:
    # fs * tau = 1 gives 600-sample blocks; 0.002 to 0.3 take the log-step
    # scan, 1e-4 underflows decay to 0.0 and 1e20 rounds it to 1.0, which
    # takes whole 1000-sample blocks
    @pytest.mark.parametrize("fs_tau", [1.0, 0.002, 0.05, 0.3, 1e-4, 1e20])
    def test_stream_chunks_are_bit_identical(self, monkeypatch, fs_tau):
        monkeypatch.setattr(frontend, "SCAN_BLOCK", 1000)
        p = CircuitParams(c5_f=fs_tau / (FS_HZ * 1e7), diode_drop_v=0.05)
        seed = int(fs_tau * 1000) % 97
        x = sparse_drive(10_001, seed)
        whole = envelope_detect(Signal(x, FS_HZ), p).samples
        streamed = envelope_in_chunks(random_chunks(x, 2500, seed), FS_HZ, p)
        np.testing.assert_array_equal(streamed, whole)

    def test_full_scan_blocks_are_bit_identical(self):
        # tau 90 ms at 16 kHz: 65536-sample blocks, each taken up by chunks
        # that start and end anywhere in it
        fs = 16_000.0
        p = CircuitParams(c5_f=9e-9, diode_drop_v=0.05)
        x = amplify(Signal(clicks_like(20.0, fs, 600, seed=6) * 0.01, fs), p).samples
        whole = envelope_detect(Signal(x, fs), p).samples
        streamed = envelope_in_chunks(random_chunks(x, 100_000, seed=6), fs, p)
        np.testing.assert_array_equal(streamed, whole)

    # decay 0 (fs tau 1e-4), the log-step scan, the block scan and decay 1
    @given(
        log_fs_tau=st.floats(-4.0, 20.0),
        block=st.sampled_from([1000, 65_536]),
        splits=st.lists(st.integers(0, 7001), max_size=20),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(log_fs_tau=-4.0, block=1000, splits=[5, 5, 3000], seed=1)
    @example(log_fs_tau=-1.3, block=1000, splits=[1, 2, 1500, 1500], seed=2)
    @example(log_fs_tau=0.0, block=1000, splits=[599, 601, 1799, 4000], seed=3)
    @example(log_fs_tau=2.0, block=65_536, splits=[3, 2500, 6999], seed=4)
    @example(log_fs_tau=20.0, block=1000, splits=[999, 1000, 2001], seed=5)
    @settings(max_examples=40, deadline=None)
    def test_any_time_constant_streams_in_any_chunks(self, log_fs_tau, block, splits, seed):
        p = CircuitParams(c5_f=10.0**log_fs_tau / (FS_HZ * 1e7), diode_drop_v=0.05)
        x = sparse_drive(7001, seed)
        chunks = np.split(x, sorted(splits))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(frontend, "SCAN_BLOCK", block)
            streamed = envelope_in_chunks(chunks, FS_HZ, p)
            whole = envelope_detect(Signal(x, FS_HZ), p).samples
        np.testing.assert_array_equal(streamed, whole)
        # the comparator output of the same chunks, into WakeRuns
        high = whole <= np.median(whole)
        runs = WakeRuns(FS_HZ)
        for part in np.split(high, sorted(splits)):
            runs.feed(part)
        config = NodeConfig(BUILTIN_PROFILES["zigbee-standalone"])
        whole_trace = simulate_from_wake(BinarySignal(high, FS_HZ), config)
        assert runs.trace(config).wake_s.tolist() == whole_trace.wake_s.tolist()

    @pytest.mark.parametrize("chunk", [1, 7, 255, 256, 1000])
    @pytest.mark.parametrize("fs_tau", [0.002, 0.05, 0.3])
    def test_log_step_scan_takes_any_chunk_length(self, fs_tau, chunk):
        p = CircuitParams(c5_f=fs_tau / (FS_HZ * 1e7))
        x = sparse_drive(3000, seed=chunk)
        whole = envelope_detect(Signal(x, FS_HZ), p).samples
        chunks = np.split(x, range(chunk, len(x), chunk))
        np.testing.assert_array_equal(envelope_in_chunks(chunks, FS_HZ, p), whole)

    # the block scan, decay 1, the log-step scan and decay 0
    @pytest.mark.parametrize("fs_tau", [1.0, 1e20, 0.05, 1e-4])
    def test_feeds_touch_only_their_chunk(self, monkeypatch, fs_tau):
        monkeypatch.setattr(frontend, "SCAN_BLOCK", 1000)
        p = CircuitParams(c5_f=fs_tau / (FS_HZ * 1e7), diode_drop_v=0.05)
        detector, runs = EnvelopeDetector(p, FS_HZ), WakeRuns(FS_HZ)
        x = sparse_drive(3000, seed=7)
        for chunk in np.split(x, [700, 1400, 1401, 2900]):
            # each chunk fed as a view into the middle of a larger array
            around = np.full(len(chunk) + 20, -7.0)
            view = around[10:-10]
            view[:] = chunk
            envelope = detector.feed(view)
            assert np.shares_memory(envelope, view)
            np.testing.assert_array_equal(np.delete(around, np.s_[10:-10]), -7.0)
            flags = np.zeros(len(chunk) + 20, dtype=bool)
            flags[10:-10] = envelope > 0.01
            before = flags.copy()
            runs.feed(flags[10:-10])
            np.testing.assert_array_equal(flags, before)


class TestThresholdOut:
    def test_quiet_envelope_stays_high(self):
        env = Signal(np.full(50, 0.1), 1000.0)
        out = threshold_out(env, 0.5)
        assert np.all(out.samples)  # True == high == V_dd

    def test_loud_envelope_grounds_output(self):
        env = Signal(np.full(50, 0.9), 1000.0)
        out = threshold_out(env, 0.5)
        assert not np.any(out.samples)

    def test_single_spike_gives_single_low_sample(self):
        values = np.full(50, 0.1)
        values[20] = 0.9
        out = threshold_out(Signal(values, 1000.0), 0.5)
        assert np.count_nonzero(~out.samples) == 1
        assert not out.samples[20]

    def test_raising_threshold_only_turns_low_high(self):
        rng = np.random.default_rng(8)
        env = Signal(rng.uniform(0, 1, size=500), 1000.0)
        low_thr = threshold_out(env, 0.3).samples
        high_thr = threshold_out(env, 0.7).samples
        # anywhere low_thr is high, high_thr must also be high
        assert np.all(high_thr[low_thr])

    def test_non_positive_threshold_rejected(self):
        with pytest.raises(ValueError, match="v_threshold"):
            threshold_out(Signal(np.zeros(5), 1000.0), 0.0)


class TestBinarySignal:
    def test_length(self):
        b = BinarySignal(np.array([True, False, True]), 3.0)
        assert len(b) == 3

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="sample_rate_hz"):
            BinarySignal(np.array([True]), 0.0)
