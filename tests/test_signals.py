import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wakenode import Signal, clip, find_delay, resample
from wakenode import signals
from wakenode.cli import WAV_CHUNK_FRAMES
from wakenode.signals import (
    ANTIALIAS_TAPS,
    DIRECT_CORRELATE_COST_RATIO,
    ResampleCarry,
    _antialias_kernel,
    _fft_length,
)

from conftest import shift_right, tone


def resample_oracle(s: Signal, target_rate_hz: float) -> Signal:
    """``resample`` before polyphase: filter the whole signal with
    ``np.convolve``, then interpolate the new grid with ``np.interp``."""
    if target_rate_hz == s.sample_rate_hz:
        return s
    ratio = target_rate_hz / s.sample_rate_hz
    n_out = max(int(round(len(s) * ratio)), 1)
    positions = np.arange(n_out, dtype=np.float64) / ratio
    if target_rate_hz > s.sample_rate_hz:
        src = s.samples
        offset = 0.0
    else:
        kernel = _antialias_kernel(s.sample_rate_hz, target_rate_hz)
        src = np.convolve(s.samples, kernel, mode="full")
        offset = (ANTIALIAS_TAPS - 1) / 2.0
    grid = np.arange(src.size, dtype=np.float64)
    return Signal(np.interp(positions + offset, grid, src), target_rate_hz)


def dft_peak(sig: Signal) -> tuple[float, float]:
    """Independent oracle: dominant frequency and amplitude by DFT peak-pick."""
    spectrum = np.abs(np.fft.rfft(sig.samples))
    k = int(np.argmax(spectrum[1:])) + 1  # skip DC
    freq = k * sig.sample_rate_hz / len(sig)
    amplitude = 2.0 * spectrum[k] / len(sig)
    return freq, amplitude


class TestSignal:
    def test_rejects_non_positive_rate(self):
        with pytest.raises(ValueError, match="sample_rate_hz"):
            Signal([0.0], 0.0)
        with pytest.raises(ValueError, match="sample_rate_hz"):
            Signal([0.0], -8000.0)

    def test_rejects_non_finite_samples(self):
        with pytest.raises(ValueError, match="finite"):
            Signal([0.0, np.nan], 8000.0)
        with pytest.raises(ValueError, match="finite"):
            Signal([np.inf], 8000.0)

    def test_duration(self):
        assert Signal(np.zeros(8000), 8000.0).duration_s == 1.0

    def test_samples_are_readonly(self):
        s = Signal([1.0, 2.0], 10.0)
        with pytest.raises(ValueError):
            s.samples[0] = 5.0

    def test_construction_copies_input(self):
        raw = np.array([1.0, 2.0])
        s = Signal(raw, 10.0)
        raw[0] = 99.0
        assert s.samples[0] == 1.0


class TestResample:
    def test_same_rate_is_identity(self):
        s = tone(100, 0.5, 8000)
        assert resample(s, 8000) == s

    def test_96k_to_8k_scales_length_by_twelfth(self):
        s = tone(1000, 1.0, 96000)
        out = resample(s, 8000)
        assert len(out) == len(s) // 12
        assert out.sample_rate_hz == 8000

    def test_tone_survives_downsampling(self):
        # oracle: DFT peak-pick on both signals
        s = tone(1000, 1.0, 48000)
        out = resample(s, 8000)
        in_freq, _ = dft_peak(s)
        out_freq, out_amp = dft_peak(out)
        assert in_freq == pytest.approx(1000, abs=48000 / len(s))
        assert out_freq == pytest.approx(1000, abs=8000 / len(out))
        assert out_amp == pytest.approx(1.0, rel=0.05)

    def test_rate_idempotent(self):
        s = tone(440, 0.3, 44100)
        once = resample(s, 8000)
        twice = resample(once, 8000)
        assert twice == once

    def test_non_integer_ratio(self):
        s = tone(500, 0.5, 44100)
        out = resample(s, 8000)
        assert out.sample_rate_hz == 8000
        assert len(out) == round(len(s) * 8000 / 44100)
        freq, _ = dft_peak(out)
        assert freq == pytest.approx(500, abs=2 * 8000 / len(out))

    def test_upsampling_preserves_duration(self):
        s = tone(100, 0.25, 8000)
        out = resample(s, 48000)
        assert abs(out.duration_s - s.duration_s) <= 1.0 / 48000

    @pytest.mark.parametrize("freq", [200, 950, 1700, 3000])
    def test_tone_frequency_preserved_within_one_bin(self, freq):
        s = tone(freq, 1.0, 48000)
        out = resample(s, 8000)
        got, _ = dft_peak(out)
        assert abs(got - freq) <= 8000 / len(out)

    def test_empty_signal_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            resample(Signal(np.array([]), 8000.0), 4000)

    def test_non_positive_target_rejected(self):
        with pytest.raises(ValueError, match="target_rate_hz"):
            resample(tone(100, 0.1, 8000), 0)


POLYPHASE_RATES = [11_025, 16_000, 22_050, 32_000, 44_100, 48_000, 88_200, 96_000]
# 44 101 Hz reduces to 8000/44101, too large a kernel matrix, and 44 100.5 Hz
# is not an integer; both keep the convolve path, as upsampling does
CONVOLVE_RATES = [44_101, 44_100.5]
# odd lengths, and lengths shorter than the 64 taps
LENGTHS = [1, 2, 7, 63, 64, 65, 441, 1001, 9999, 96_001]


def full_scale_noise(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-1.0, 1.0, n)


def in_chunks(x: np.ndarray, rate: float, chunk: int, target: float = 8000.0) -> np.ndarray:
    carry = ResampleCarry(len(x))
    parts = [
        resample(Signal(x[i : i + chunk], rate), target, carry).samples
        for i in range(0, len(x), chunk)
    ]
    assert carry.fed == len(x)
    return np.concatenate(parts)


class TestPolyphaseResample:
    @pytest.mark.parametrize("rate", POLYPHASE_RATES)
    @pytest.mark.parametrize("n", LENGTHS)
    def test_within_tolerance_of_the_oracle(self, rate, n):
        assert signals._polyphase(float(rate), 8000.0) is not None
        s = Signal(full_scale_noise(n, seed=n), float(rate))
        got, want = resample(s, 8000.0), resample_oracle(s, 8000.0)
        assert len(got) == len(want) == max(round(n * 8000 / rate), 1)
        assert np.max(np.abs(got.samples - want.samples)) <= 1e-9

    @pytest.mark.parametrize(
        "rate, target", [(r, 8000.0) for r in CONVOLVE_RATES] + [(8000, 48_000.0)]
    )
    @pytest.mark.parametrize("n", LENGTHS)
    def test_other_ratios_equal_the_oracle(self, rate, target, n):
        s = Signal(full_scale_noise(n, seed=n), float(rate))
        assert np.array_equal(resample(s, target).samples, resample_oracle(s, target).samples)

    @pytest.mark.parametrize("rate", POLYPHASE_RATES + CONVOLVE_RATES)
    def test_chunks_join_to_one_call(self, rate, monkeypatch):
        # blocks of 1 to 10 rows, so 7919 samples span at least four of them
        monkeypatch.setattr(signals, "RESAMPLE_BLOCK_MACS", 1 << 13)
        x = full_scale_noise(7919, seed=1)
        whole = resample(Signal(x, float(rate)), 8000.0).samples
        down = round(rate) // math.gcd(round(rate), 8000)
        for chunk in (1, down - 1, down, 3 * down + 7, WAV_CHUNK_FRAMES):
            assert np.array_equal(in_chunks(x, float(rate), chunk), whole), chunk

    def test_cli_chunks_across_full_size_blocks(self):
        x = full_scale_noise(3 * WAV_CHUNK_FRAMES + 12_345, seed=2)
        whole = resample(Signal(x, 44_100.0), 8000.0).samples
        for chunk in (WAV_CHUNK_FRAMES, 3 * 441 + 7):
            assert np.array_equal(in_chunks(x, 44_100.0, chunk), whole), chunk

    def test_equal_rate_chunks_pass_through(self):
        x = full_scale_noise(1000, seed=3)
        assert np.array_equal(in_chunks(x, 8000.0, 300), x)

    def test_chunk_past_the_total_rejected(self):
        carry = ResampleCarry(100)
        resample(Signal(np.zeros(60), 44_100.0), 8000.0, carry)
        with pytest.raises(ValueError, match="runs past"):
            resample(Signal(np.zeros(60), 44_100.0), 8000.0, carry)


class TestFindDelay:
    def test_self_delay_is_zero(self):
        rng = np.random.default_rng(1)
        x = Signal(rng.normal(size=4000), 8000.0)
        assert find_delay(x, x, 1000) == 0

    def test_constructed_shift_recovered(self):
        rng = np.random.default_rng(2)
        x = Signal(rng.normal(size=5000), 8000.0)
        assert find_delay(x, shift_right(x, 137), 500) == 137

    def test_negative_shift_recovered(self):
        rng = np.random.default_rng(3)
        x = Signal(rng.normal(size=5000), 8000.0)
        assert find_delay(x, shift_right(x, -64), 500) == -64

    def test_shift_sweep(self):
        # oracle is the construction itself
        rng = np.random.default_rng(4)
        x = Signal(rng.normal(size=3000), 8000.0)
        for k in (-450, -7, 0, 3, 89, 450):
            assert find_delay(x, shift_right(x, k), 500) == k

    def test_tie_prefers_smaller_magnitude(self):
        # symmetric triple peak: lags -2, 0, +2 all tie; want 0
        base = np.zeros(64)
        base[20] = 1.0
        cand = np.zeros(64)
        cand[18] = 1.0
        cand[20] = 1.0
        cand[22] = 1.0
        ref = Signal(base, 100.0)
        assert find_delay(ref, Signal(cand, 100.0), 10) == 0

    def test_tie_prefers_negative(self):
        # two equal peaks at lags -3 and +3; want -3
        base = np.zeros(64)
        base[30] = 1.0
        cand = np.zeros(64)
        cand[27] = 1.0
        cand[33] = 1.0
        assert find_delay(Signal(base, 100.0), Signal(cand, 100.0), 10) == -3

    # (candidate, reference) lengths; the first three fall on the direct side
    # of find_delay's size rule, including the 64-sample tie tests above
    SIZES = [(64, 64), (300, 500), (500, 300), (2000, 2000), (3000, 1200), (1200, 3000)]

    @staticmethod
    def correlates_directly(n: int, m: int) -> bool:
        nfft = _fft_length(n + m - 1)
        return n * m <= DIRECT_CORRELATE_COST_RATIO * nfft * (nfft.bit_length() - 1)

    def test_fft_length_is_the_next_5_smooth_number(self):
        def smooth(k):
            for p in (2, 3, 5):
                while k % p == 0:
                    k //= p
            return k == 1

        want = [next(k for k in range(n, 2 * n + 1) if smooth(k)) for n in range(1, 3000)]
        assert [_fft_length(n) for n in range(1, 3000)] == want
        assert _fft_length(80_000 + 80_000 - 1) == 160_000

    def test_sizes_cover_both_paths(self):
        sides = [self.correlates_directly(n, m) for n, m in self.SIZES]
        assert sides == [True, True, True, False, False, False]

    @pytest.mark.parametrize("n, m", SIZES)
    def test_matches_scipy_correlate(self, n, m):
        from scipy.signal import correlate

        # white noise: the maximum over the window is unique, with no planted peak
        rng = np.random.default_rng(7 * n + m)
        cand, ref = rng.normal(size=n), rng.normal(size=m)
        window = min(n, m) - 1
        corr = correlate(cand, ref, mode="full", method="auto")
        lags = np.arange(corr.size) - (m - 1)
        inside = np.abs(lags) <= window
        expected = lags[inside][np.argmax(corr[inside])]
        assert find_delay(Signal(ref, 8000.0), Signal(cand, 8000.0), window) == expected

    def test_rate_mismatch_rejected(self):
        a = tone(100, 0.1, 8000)
        b = tone(100, 0.1, 16000)
        with pytest.raises(ValueError, match="rates differ"):
            find_delay(a, b, 10)

    def test_window_exceeding_length_rejected(self):
        a = tone(100, 0.01, 8000)
        with pytest.raises(ValueError, match="window"):
            find_delay(a, a, len(a))


class TestClip:
    def test_full_clip_is_identity(self):
        s = tone(100, 0.1, 8000)
        assert clip(s, 0, len(s)) == s

    def test_definition(self):
        s = Signal(np.arange(10, dtype=float), 10.0)
        out = clip(s, 5, 3)
        assert list(out.samples) == [5.0, 6.0, 7.0]

    def test_aligned_80s_clip_shape(self):
        s = Signal(np.zeros(8000 * 92), 8000.0)
        delay = 1234
        out = clip(s, delay, 8000 * 80)
        assert len(out) == 640_000
        assert out.sample_rate_hz == 8000

    def test_out_of_range_rejected(self):
        s = Signal(np.arange(10, dtype=float), 10.0)
        with pytest.raises(ValueError, match="out of range"):
            clip(s, 8, 3)

    @given(
        start_a=st.integers(0, 40),
        len_a=st.integers(1, 60),
        start_b=st.integers(0, 40),
        len_b=st.integers(1, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_composition(self, start_a, len_a, start_b, len_b):
        s = Signal(np.arange(100, dtype=float), 10.0)
        if start_a + len_a > len(s) or start_b + len_b > len_a:
            return
        assert clip(clip(s, start_a, len_a), start_b, len_b) == clip(
            s, start_a + start_b, len_b
        )
