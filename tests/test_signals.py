import math

import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wakenode import Signal, find_delay, resample
from wakenode import signals
from wakenode.cli import WAV_CHUNK_FRAMES
from wakenode.signals import (
    ANTIALIAS_TAPS,
    DIRECT_CORRELATE_COST_RATIO,
    Resampler,
    _antialias_kernel,
    _fft_length,
    require_finite,
)

from conftest import shift_samples, tone


def resample_oracle(s: Signal, target_rate_hz: float) -> Signal:
    """Downsampling as ``resample`` did it before polyphase: filter the whole
    signal with ``np.convolve``, then interpolate the new grid with ``np.interp``."""
    ratio = target_rate_hz / s.sample_rate_hz
    n_out = max(int(round(len(s) * ratio)), 1)
    positions = np.arange(n_out, dtype=np.float64) / ratio
    kernel = _antialias_kernel(s.sample_rate_hz, target_rate_hz)
    src = np.convolve(s.samples, kernel, mode="full")
    offset = (ANTIALIAS_TAPS - 1) / 2.0  # group delay of the symmetric FIR
    grid = np.arange(src.size, dtype=np.float64)
    return Signal(np.interp(positions + offset, grid, src), target_rate_hz)


def dense_plan_oracle(source_rate_hz: float, target_rate_hz: float) -> signals._Polyphase:
    """``_polyphase`` before its parts were built directly: each part is a
    slice of the dense ``(width, phases)`` kernel matrix. The matrix is
    built one group of phase columns at a time, as 44 101 -> 8000 Hz would
    need 353 M elements at once, and each slice is checked to hold every
    weight of its columns."""
    gcd = math.gcd(int(source_rate_hz), int(target_rate_hz))
    up, down = int(target_rate_hz) // gcd, int(source_rate_hz) // gcd
    copies = -(-(ANTIALIAS_TAPS + 1) // down)
    row, phases = copies * down, copies * up
    num = 2 * down * np.arange(phases) + (ANTIALIAS_TAPS - 1) * up
    j, rem = np.divmod(num, 2 * up)
    frac = rem / (2 * up)
    lead = ANTIALIAS_TAPS - 1 - int(j[0])
    width = lead + int(j[-1]) + 2
    taps = _antialias_kernel(source_rate_hz, target_rate_hz)
    weights = np.zeros((phases, ANTIALIAS_TAPS + 1))
    weights[:, :-1] = frac[:, None] * taps
    weights[:, 1:] += (1.0 - frac)[:, None] * taps
    window_reads = lead + j[:, None] + 1 - np.arange(ANTIALIAS_TAPS + 1)
    groups = -(-phases // max(2 * ANTIALIAS_TAPS * up // down, 1))
    parts = []
    for group in np.array_split(np.arange(phases), groups):
        first, last = int(group[0]), int(group[-1])
        kernel = np.zeros((width, last + 1 - first))
        kernel[window_reads[first : last + 1], group[:, None] - first] = weights[first : last + 1]
        reads = slice(lead + int(j[first]) - ANTIALIAS_TAPS + 1, lead + int(j[last]) + 2)
        assert not kernel[: reads.start].any() and not kernel[reads.stop :].any()
        parts.append((reads, slice(first, last + 1), kernel[reads].copy()))
    return signals._Polyphase(row, lead, width, phases, tuple(parts))


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

    def test_samples_are_readonly(self):
        s = Signal([1.0, 2.0], 10.0)
        with pytest.raises(ValueError):
            s.samples[0] = 5.0

    def test_construction_copies_input(self):
        raw = np.array([1.0, 2.0])
        s = Signal(raw, 10.0)
        raw[0] = 99.0
        assert s.samples[0] == 1.0


class TestRequireFinite:
    finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
        [1.7976931348623157e308, -1.7976931348623157e308, 5e-324, -5e-324, -0.0]
    )

    @given(st.lists(finite, max_size=50))
    @example([])
    def test_finite_arrays_pass_as_themselves(self, values):
        samples = np.array(values, dtype=np.float64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert require_finite(samples) is samples

    # before and after empty: the first, the last and the only sample
    @given(
        st.lists(finite, max_size=50),
        st.sampled_from([np.nan, np.inf, -np.inf]),
        st.lists(finite, max_size=50),
    )
    @example([], np.nan, [])
    @example([1.0], -np.inf, [])
    @example([], np.inf, [1.0])
    def test_a_non_finite_sample_anywhere_raises(self, before, bad, after):
        samples = np.array([*before, bad, *after], dtype=np.float64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                require_finite(samples)


class TestResample:
    def test_same_rate_is_identity(self):
        s = tone(100, 0.5, 8000)
        assert resample(s, 8000) is s

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


# the standard rates, then 48 kHz pulled down by 1.001 and two rates whose
# reduced ratios have 1000 and 8000 phases (44 101 Hz: rows of 44 101 samples)
POLYPHASE_RATES = [11_025, 16_000, 22_050, 32_000, 44_100, 48_000, 88_200, 96_000] + [
    47_952, 44_056, 44_101
]
# rows per block of each plan; at the first eight rates these are the rows
# the products' bound alone allows, so their resampled bits stay as they were
BLOCK_ROWS = {
    11_025: 37, 16_000: 123, 22_050: 75, 32_000: 239, 44_100: 154, 48_000: 381,
    88_200: 319, 96_000: 699, 47_952: 134, 44_056: 95, 44_101: 11,
}
# odd lengths, and lengths shorter than the 64 taps
LENGTHS = [1, 2, 7, 63, 64, 65, 441, 1001, 9999, 96_001]


def full_scale_noise(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-1.0, 1.0, n)


def in_chunks(x: np.ndarray, rate: float, chunk: int, target: float = 8000.0) -> np.ndarray:
    resampler = Resampler(rate, target, len(x))
    parts = [resampler.feed(x[i : i + chunk]) for i in range(0, len(x), chunk)]
    assert resampler.fed == len(x)
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

    @pytest.mark.parametrize("rate", POLYPHASE_RATES)
    def test_plan_is_the_dense_oracle_bit_for_bit(self, rate):
        plan = signals._polyphase(float(rate), 8000.0)
        want = dense_plan_oracle(float(rate), 8000.0)
        assert plan[:4] == want[:4]
        assert [(r, w, p.shape, p.tobytes()) for r, w, p in plan.parts] == [
            (r, w, p.shape, p.tobytes()) for r, w, p in want.parts
        ]
        block = plan.block
        assert block == BLOCK_ROWS[rate]
        largest = max(part.size for *_, part in plan.parts)
        assert block * max(plan.row, largest) <= signals.RESAMPLE_BLOCK_MACS

    @pytest.mark.parametrize("rate", POLYPHASE_RATES)
    def test_chunks_join_to_one_call(self, rate, monkeypatch):
        # blocks of 1 to 10 rows, so 7919 samples span at least four of them;
        # 44 056 and 44 101 Hz have one-row blocks, as their rows are longer
        # than 8192 samples, and 7919 samples make two and one rows
        monkeypatch.setattr(signals, "RESAMPLE_BLOCK_MACS", 1 << 13)
        x = full_scale_noise(7919, seed=1)
        whole = resample(Signal(x, float(rate)), 8000.0).samples
        down = rate // math.gcd(rate, 8000)
        for chunk in (1, down - 1, down, 3 * down + 7, WAV_CHUNK_FRAMES):
            assert np.array_equal(in_chunks(x, float(rate), chunk), whole), chunk

    def test_rows_longer_than_their_windows_join_to_one_call(self, monkeypatch):
        # from 768 kHz a row is 96 samples and its window 65, so the next
        # block's first window starts past what a block reads; two-row blocks
        monkeypatch.setattr(signals, "RESAMPLE_BLOCK_MACS", 1 << 8)
        plan = signals._polyphase(768_000.0, 8000.0)
        assert (plan.row, plan.width, plan.block) == (96, 65, 2)
        x = full_scale_noise(4000, seed=4)
        whole = resample(Signal(x, 768_000.0), 8000.0).samples
        for chunk in (1, 7, 100, 250):
            assert np.array_equal(in_chunks(x, 768_000.0, chunk), whole), chunk

    # a non-integer source or target rate, upsampling, and a target of 0 Hz
    @pytest.mark.parametrize(
        "rate, target", [(44_100.5, 8000.0), (8000.0, 48_000.0), (44_100.0, 8000.5), (44_100.0, 0.0)]
    )
    def test_rates_off_the_polyphase_path_rejected(self, rate, target):
        both = f"from {rate} Hz to target_rate_hz {target}"
        with pytest.raises(ValueError, match=both):
            Resampler(rate, target, 7919)
        with pytest.raises(ValueError, match=both):
            resample(Signal(full_scale_noise(7919, seed=1), rate), target)

    def test_cli_chunks_across_full_size_blocks(self):
        x = full_scale_noise(3 * WAV_CHUNK_FRAMES + 12_345, seed=2)
        whole = resample(Signal(x, 44_100.0), 8000.0).samples
        for chunk in (WAV_CHUNK_FRAMES, 3 * 441 + 7):
            assert np.array_equal(in_chunks(x, 44_100.0, chunk), whole), chunk

    def test_equal_rate_chunks_pass_through(self):
        x = full_scale_noise(1000, seed=3)
        assert np.array_equal(in_chunks(x, 8000.0, 300), x)

    def test_chunk_past_the_total_rejected(self):
        resampler = Resampler(44_100.0, 8000.0, 100)
        resampler.feed(np.zeros(60))
        with pytest.raises(ValueError, match="runs past"):
            resampler.feed(np.zeros(60))


class TestFindDelay:
    def test_self_delay_is_zero(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=4000)
        assert find_delay(x, x, 1000) == 0

    def test_constructed_shift_recovered(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=5000)
        assert find_delay(x, shift_samples(x, 137), 500) == 137

    def test_negative_shift_recovered(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=5000)
        assert find_delay(x, shift_samples(x, -64), 500) == -64

    def test_shift_sweep(self):
        # oracle is the construction itself
        rng = np.random.default_rng(4)
        x = rng.normal(size=3000)
        for k in (-450, -7, 0, 3, 89, 450):
            assert find_delay(x, shift_samples(x, k), 500) == k

    @pytest.mark.parametrize("n", [6, 80_000], ids=["direct", "fft"])
    def test_overflowing_correlation_is_rejected(self, n):
        # finite samples whose products overflow: no lag can be read off, and
        # the overflow warns nothing
        x = np.random.default_rng(n).uniform(-1.0, 1.0, n) * 1e308
        with pytest.raises(OverflowError, match="alignment cross-correlation overflowed"):
            find_delay(x, x, n // 2)

    def test_tie_prefers_smaller_magnitude(self):
        # symmetric triple peak: lags -2, 0, +2 all tie; want 0
        base = np.zeros(64)
        base[20] = 1.0
        cand = np.zeros(64)
        cand[18] = 1.0
        cand[20] = 1.0
        cand[22] = 1.0
        assert find_delay(base, cand, 10) == 0

    def test_tie_prefers_negative(self):
        # two equal peaks at lags -3 and +3; want -3
        base = np.zeros(64)
        base[30] = 1.0
        cand = np.zeros(64)
        cand[27] = 1.0
        cand[33] = 1.0
        assert find_delay(base, cand, 10) == -3

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
        assert find_delay(ref, cand, window) == expected

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, bad):
        a = tone(100, 0.01, 8000).samples
        b = a.copy()
        b[7] = bad
        for reference, candidate in ((a, b), (b, a)):
            with pytest.raises(ValueError, match=r"^samples must all be finite \(no NaN"):
                find_delay(reference, candidate, 10)

    def test_window_exceeding_length_rejected(self):
        a = tone(100, 0.01, 8000).samples
        with pytest.raises(ValueError, match="window"):
            find_delay(a, a, len(a))
