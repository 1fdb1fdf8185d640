import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wakenode import (
    AlignmentError,
    MicCandidate,
    MicConfiguration,
    Signal,
    WelchParams,
    Window,
    coherence_score,
    cross_spectral_density,
    magnitude_squared_coherence,
    peak_envelope,
    rank_microphones,
)
from wakenode.coherence import (
    WelchAccumulator,
    _welch_spectra,
    _window_values,
    analysis_welch,
    score_streams,
)
from wakenode.signals import ResampleCarry, find_delay, resample

from conftest import add_noise_at_snr, shift_right, tone, urban_like_signal


def msc_direct_dft_oracle(
    x: np.ndarray, y: np.ndarray, seg_len: int
) -> np.ndarray:
    """Two-segment, no-overlap, rectangular-window coherence via an explicit
    DFT matrix, independent of the FFT-based implementation path."""
    n = np.arange(seg_len)
    k = np.arange(seg_len // 2 + 1)
    dft = np.exp(-2j * np.pi * np.outer(k, n) / seg_len)
    gxy = np.zeros(k.size, dtype=complex)
    gxx = np.zeros(k.size)
    gyy = np.zeros(k.size)
    for s0 in (0, seg_len):
        fx = dft @ x[s0 : s0 + seg_len]
        fy = dft @ y[s0 : s0 + seg_len]
        gxy += np.conj(fx) * fy
        gxx += np.abs(fx) ** 2
        gyy += np.abs(fy) ** 2
    return np.abs(gxy) ** 2 / (gxx * gyy)


TWO_SEGMENT_RECT = WelchParams(
    segment_count=2, overlap_fraction=0.0, window=Window.RECTANGULAR
)


# paper's measured microphone table; physical values shipped as fixture data
PAPER_MICS = [
    MicCandidate("InvenSense", 0.0079, 0.7359, MicConfiguration.ANALOG, 0.9, 1.3),
    MicCandidate("PUI", 0.3545, 0.6966, MicConfiguration.ANALOG, 1.6, 3.6),
    MicCandidate("ST (Analog)", 0.3480, 0.7187, MicConfiguration.ANALOG, 1.52, 3.6),
    MicCandidate("ST (Digital)", 2.0813, 0.7577, MicConfiguration.DIGITAL, 1.6, 3.6),
]


class TestWelchParams:
    def test_defaults(self):
        p = WelchParams()
        assert p.segment_count == 8
        assert p.overlap_fraction == 0.5
        assert p.window is Window.HAMMING
        assert p.fft_length is None

    def test_segment_length_eight_half_overlap(self):
        # 8 segments at 50% overlap span 4.5 segment lengths
        assert WelchParams().segment_length(640_000) == 142_222

    def test_fft_length_rounds_up_to_power_of_two(self):
        assert WelchParams().resolve_fft_length(142_222) == 262_144
        assert WelchParams().resolve_fft_length(256) == 256

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            WelchParams(segment_count=0)
        with pytest.raises(ValueError):
            WelchParams(overlap_fraction=1.0)

    def test_too_short_signal_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            WelchParams().segment_length(5)


class TestCrossSpectralDensity:
    def test_auto_spectrum_is_real(self):
        rng = np.random.default_rng(0)
        x = Signal(rng.normal(size=4096), 8000.0)
        _, gxx = cross_spectral_density(x, x, WelchParams())
        scale = np.max(np.abs(gxx.real))
        assert np.max(np.abs(gxx.imag)) <= 1e-12 * scale
        assert np.all(gxx.real >= 0)

    def test_sine_peaks_at_nearest_bin(self):
        # oracle: direct DFT of one full-length segment puts the peak at 100 Hz
        x = tone(100, 2.0, 8000)
        full = np.abs(np.fft.rfft(x.samples))
        oracle_freq = np.fft.rfftfreq(len(x), 1 / 8000)[np.argmax(full[1:]) + 1]
        freqs, gxx = cross_spectral_density(x, x, WelchParams())
        resolution = freqs[1] - freqs[0]
        assert abs(freqs[np.argmax(gxx.real)] - oracle_freq) <= resolution

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x = Signal(rng.normal(size=4096), 8000.0)
        y = Signal(2.0 * x.samples, 8000.0)
        _, gxy = cross_spectral_density(x, y, WelchParams())
        _, gxx = cross_spectral_density(x, x, WelchParams())
        np.testing.assert_allclose(gxy, 2.0 * gxx, rtol=1e-9)

    def test_mismatched_inputs_rejected(self):
        a = tone(100, 1.0, 8000)
        with pytest.raises(ValueError, match="rates differ"):
            cross_spectral_density(a, tone(100, 1.0, 16000), WelchParams())
        with pytest.raises(ValueError, match="lengths differ"):
            cross_spectral_density(a, tone(100, 0.5, 8000), WelchParams())


class TestMagnitudeSquaredCoherence:
    def test_identical_signals_give_unity(self):
        rng = np.random.default_rng(2)
        x = Signal(rng.normal(size=8192), 8000.0)
        est = magnitude_squared_coherence(x, x, WelchParams())
        np.testing.assert_allclose(est.values, 1.0, atol=1e-9)

    def test_independent_noise_has_low_coherence(self):
        # Monte-Carlo oracle: Welch MSC bias for independent signals with
        # 8 averaged segments stays well under 0.35
        means = []
        for seed in range(120):
            rng = np.random.default_rng(seed)
            x = Signal(rng.normal(size=4096), 8000.0)
            y = Signal(rng.normal(size=4096), 8000.0)
            means.append(magnitude_squared_coherence(x, y, WelchParams()).values.mean())
        assert np.mean(means) < 0.35

    def test_matches_direct_dft_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.normal(size=512)
            y = rng.normal(size=512) + 0.5 * x
            est = magnitude_squared_coherence(
                Signal(x, 8000.0), Signal(y, 8000.0), TWO_SEGMENT_RECT
            )
            oracle = msc_direct_dft_oracle(x, y, 256)
            np.testing.assert_allclose(est.values, np.clip(oracle, 0, 1), atol=1e-9)

    def test_symmetric(self):
        rng = np.random.default_rng(4)
        x = Signal(rng.normal(size=4096), 8000.0)
        y = Signal(rng.normal(size=4096) + 0.3 * x.samples, 8000.0)
        a = magnitude_squared_coherence(x, y, WelchParams()).values
        b = magnitude_squared_coherence(y, x, WelchParams()).values
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_scale_invariant(self):
        rng = np.random.default_rng(5)
        x = Signal(rng.normal(size=4096), 8000.0)
        y = Signal(rng.normal(size=4096) + 0.3 * x.samples, 8000.0)
        base = magnitude_squared_coherence(x, y, WelchParams()).values
        scaled = magnitude_squared_coherence(
            Signal(7.3 * x.samples, 8000.0),
            Signal(0.002 * y.samples, 8000.0),
            WelchParams(),
        ).values
        np.testing.assert_allclose(base, scaled, atol=1e-9)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_values_always_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        x = Signal(rng.normal(size=1024), 8000.0)
        y = Signal(rng.normal(size=1024), 8000.0)
        values = magnitude_squared_coherence(x, y, WelchParams()).values
        assert np.all(values >= 0.0) and np.all(values <= 1.0)

    def test_single_segment_rejected(self):
        x = tone(100, 1.0, 8000)
        with pytest.raises(ValueError, match="two Welch segments"):
            magnitude_squared_coherence(x, x, WelchParams(segment_count=1))

    def test_all_zero_signal_rejected(self):
        z = Signal(np.zeros(4096), 8000.0)
        with pytest.raises(ValueError, match="all-zero"):
            magnitude_squared_coherence(z, z, WelchParams())


class TestPeakEnvelope:
    def test_constant_series_unchanged(self):
        series = np.full(500, 3.25)
        np.testing.assert_array_equal(peak_envelope(series, 100), series)

    def test_rectified_sine_envelope_near_one(self):
        # analytic envelope of a rectified sine is 1
        t = np.linspace(0, 1, 10_000)
        series = np.abs(np.sin(2 * np.pi * 50 * t))
        env = peak_envelope(series, 20)
        inner = env[len(env) // 20 : -len(env) // 20]
        np.testing.assert_allclose(inner, 1.0, atol=0.02)

    def test_passes_through_retained_peaks(self):
        rng = np.random.default_rng(6)
        series = rng.uniform(size=2000)
        env = peak_envelope(series, 100)
        assert env.shape == series.shape
        # every retained peak is matched exactly, so env >= series there
        from scipy.signal import find_peaks

        peaks, _ = find_peaks(series, distance=100)
        np.testing.assert_allclose(env[peaks], series[peaks], rtol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            peak_envelope(np.array([]), 100)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            peak_envelope(np.array([0.0, 1.0, np.nan, 0.5]), 1)

    @staticmethod
    def scipy_envelope(series: np.ndarray, distance: int) -> np.ndarray:
        """The envelope as scipy computes it: the reference for bit identity."""
        from scipy.interpolate import PchipInterpolator
        from scipy.signal import find_peaks

        peaks, _ = find_peaks(series, distance=distance)
        knots = np.unique(np.concatenate(([0], peaks, [series.size - 1])))
        return PchipInterpolator(knots, series[knots])(np.arange(series.size))

    # small integer levels make plateaus and equal peak heights common
    levels = st.lists(st.integers(0, 5), min_size=3, max_size=300).map(
        lambda v: np.array(v, dtype=np.float64) * 0.3
    )
    reals = st.lists(
        st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False), min_size=3, max_size=300
    ).map(np.array)

    @given(series=st.one_of(levels, reals), distance=st.integers(1, 30))
    @example(series=np.array([0.0, 1.0, 0.0]), distance=1)
    @example(series=np.array([0.2, 1.0, 1.0, 0.1]), distance=1)
    @example(series=np.array([0.0, 2.0, 2.0, 2.0, 0.0, 2.0, 0.0]), distance=3)
    @example(series=np.full(7, 0.6), distance=2)
    @example(series=np.array([0.0, 0.5, 0.5, 1.0]), distance=5)
    @example(series=np.array([1.0, 0.3, 0.9, 0.3, 0.9, 0.3, 1.0]), distance=2)
    # equal heights 3 apart: np.argsort and a stable sort keep different peaks
    @example(series=np.array([0, 2, 1, 0, 2, 1, 1, 0, 1, 0, 1, 0], dtype=float), distance=3)
    @settings(max_examples=400, deadline=None)
    def test_bit_identical_to_find_peaks_and_pchip(self, series, distance):
        assert np.array_equal(
            peak_envelope(series, distance), self.scipy_envelope(series, distance)
        )

    def test_bit_identical_on_a_coherence_spectrum(self, urban_90s_8k):
        rec = add_noise_at_snr(urban_90s_8k, 10.0, seed=3)
        values = magnitude_squared_coherence(urban_90s_8k, rec, WelchParams()).values
        assert np.array_equal(peak_envelope(values, 100), self.scipy_envelope(values, 100))


class TestCoherenceScore:
    def test_identical_signal_scores_one(self, urban_90s_8k):
        assert coherence_score(urban_90s_8k, urban_90s_8k) == pytest.approx(1.0, abs=1e-6)

    def test_invariant_to_recording_delay(self, urban_90s_8k):
        base = coherence_score(urban_90s_8k, urban_90s_8k)
        for delay_s in (0.25, 2.0):
            delayed = shift_right(urban_90s_8k, int(delay_s * 8000))
            score = coherence_score(urban_90s_8k, delayed)
            assert abs(score - base) <= 1e-3

    def test_score_decreases_with_noise(self, urban_90s_8k):
        # monotonicity sweep over an SNR grid, averaged over seeds
        snrs = (20.0, 10.0, 0.0)
        averages = []
        for snr in snrs:
            scores = [
                coherence_score(urban_90s_8k, add_noise_at_snr(urban_90s_8k, snr, seed))
                for seed in range(10)
            ]
            averages.append(np.mean(scores))
        assert averages[0] > averages[1] > averages[2]

    def test_short_input_rejected(self):
        short = tone(100, 5.0, 8000)
        with pytest.raises(ValueError, match="at least 90"):
            coherence_score(short, short)

    def test_unalignable_recording_rejected(self):
        src = urban_like_signal(91.0, 8000.0, seed=8)
        # recording leads the source: content starts before the source's
        leading = shift_right(src, -4000)
        with pytest.raises(AlignmentError):
            coherence_score(src, leading)


class TestRankMicrophones:
    def test_paper_constraints_pick_analog_st(self):
        ranking = rank_microphones(PAPER_MICS, require_analog=True, supply_v=3.3)
        eligible = [r for r in ranking if r.eligible]
        assert eligible[0].candidate.name == "ST (Analog)"
        assert eligible[0].rank == 1
        flagged = {r.candidate.name for r in ranking if not r.eligible}
        assert flagged == {"InvenSense", "ST (Digital)"}

    def test_unconstrained_picks_digital_st(self):
        ranking = rank_microphones(PAPER_MICS, require_analog=False, supply_v=None)
        assert all(r.eligible for r in ranking)
        assert ranking[0].candidate.name == "ST (Digital)"
        assert ranking[0].candidate.accuracy == 0.7577

    def test_single_candidate_ranks_first(self):
        only = [PAPER_MICS[0]]
        ranking = rank_microphones(only, require_analog=True, supply_v=3.3)
        assert len(ranking) == 1
        # ineligible (supply range excludes 3.3 V) but retained
        assert not ranking[0].eligible

    def test_ties_broken_by_power(self):
        a = MicCandidate("hungry", 2.0, 0.5, MicConfiguration.ANALOG, 1.0, 5.0)
        b = MicCandidate("frugal", 1.0, 0.5, MicConfiguration.ANALOG, 1.0, 5.0)
        ranking = rank_microphones([a, b], require_analog=False, supply_v=3.3)
        assert [r.candidate.name for r in ranking] == ["frugal", "hungry"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            rank_microphones([], require_analog=False, supply_v=None)


# ----------------------------------------------------------------------
# the Welch accumulator and the streamed scorer


def welch_loop_oracle(x: np.ndarray, y: np.ndarray, fs: float, p: WelchParams):
    """The whole-signal Welch loop the accumulator replaced, statement for
    statement: (G_xy, G_xx, G_yy)."""
    seg_len = p.segment_length(len(x))
    hop = seg_len - int(p.overlap_fraction * seg_len)
    nfft = p.resolve_fft_length(seg_len)
    window = _window_values(p.window, seg_len)
    scale = 1.0 / (fs * np.sum(window**2))
    gxy = np.zeros(nfft // 2 + 1, dtype=np.complex128)
    gxx = np.zeros(nfft // 2 + 1)
    gyy = np.zeros(nfft // 2 + 1)
    count = 0
    for s0 in range(0, len(x) - seg_len + 1, hop):
        fx = np.fft.rfft(window * x[s0 : s0 + seg_len], nfft)
        fy = np.fft.rfft(window * y[s0 : s0 + seg_len], nfft)
        gxy += np.conj(fx) * fy
        gxx += (fx * np.conj(fx)).real
        gyy += (fy * np.conj(fy)).real
        count += 1
    gxy *= scale / count
    gxx *= scale / count
    gyy *= scale / count
    return gxy, gxx, gyy


def cuts_of(n: int, sizes: list[int]) -> list[int]:
    """Piece boundaries from a list of piece sizes, cycled until ``n``."""
    cuts, at = [0], 0
    while at < n:
        for size in sizes:
            at = min(at + size, n)
            cuts.append(at)
            if at == n:
                break
    return cuts


def assert_spectra_equal(a, b):
    assert all(np.array_equal(u, v) for u, v in zip(a, b))


class TestWelchAccumulator:
    @given(
        n=st.integers(40, 600),
        segment_count=st.integers(1, 6),
        overlap=st.sampled_from([0.0, 0.25, 0.5, 0.75, 0.9]),
        window=st.sampled_from(list(Window)),
        pad=st.sampled_from([None, 0, 37]),
        sizes=st.lists(st.integers(1, 250), min_size=1, max_size=6),
        seed=st.integers(0, 2**16),
    )
    @example(n=300, segment_count=3, overlap=0.5, window=Window.HAMMING, pad=None,
             sizes=[1], seed=0)
    @settings(max_examples=40, deadline=None)
    def test_any_chunking_matches_whole_signals(
        self, n, segment_count, overlap, window, pad, sizes, seed
    ):
        p = WelchParams(segment_count, overlap, window)
        try:
            seg_len = p.segment_length(n)
        except ValueError:
            return
        if pad is not None:
            p = WelchParams(segment_count, overlap, window, fft_length=seg_len + pad)
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=n), rng.normal(size=n)
        whole = _welch_spectra(Signal(x, 8000.0), Signal(y, 8000.0), p)
        assert_spectra_equal(whole[1:], welch_loop_oracle(x, y, 8000.0, p))

        welch = WelchAccumulator(n, 8000.0, p)
        cuts = cuts_of(n, sizes)
        for start, stop in zip(cuts[:-1], cuts[1:]):
            welch.feed(x[start:stop], y[start:stop])
        assert_spectra_equal(welch.finish(), whole)

    def test_pieces_that_split_every_segment(self):
        # 2000 samples in 8 segments of 444 with a hop of 222: pieces of 1,
        # 221 and 223 samples end before, inside and after each boundary
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=2000), rng.normal(size=2000)
        p = WelchParams()
        welch = WelchAccumulator(2000, 8000.0, p)
        cuts = cuts_of(2000, [1, 221, 223])
        for start, stop in zip(cuts[:-1], cuts[1:]):
            welch.feed(x[start:stop], y[start:stop])
        whole = _welch_spectra(Signal(x, 8000.0), Signal(y, 8000.0), p)
        assert_spectra_equal(welch.finish(), whole)

    def test_rejects_what_does_not_fit_the_plan(self):
        welch = WelchAccumulator(100, 8000.0, WelchParams())
        with pytest.raises(ValueError, match="piece lengths differ"):
            welch.feed(np.zeros(3), np.zeros(4))
        welch.feed(np.ones(60), np.ones(60))
        with pytest.raises(ValueError, match="only 60 of the 100"):
            welch.finish()
        with pytest.raises(ValueError, match="runs past the 100 samples"):
            welch.feed(np.ones(41), np.ones(41))
        welch.feed(np.ones(40), np.ones(40))
        assert len(welch.finish()[0]) == 17  # segments of 22 samples, padded to 32

    @pytest.mark.parametrize(
        "params, message",
        [
            (WelchParams(segment_count=1), "two Welch segments"),
            (WelchParams(fft_length=1024), "shorter than the segment length 142222"),
            (WelchParams(segment_count=10**9), "too short for 1000000000 segments"),
        ],
    )
    def test_analysis_plan_rejects_params_before_any_sample(self, params, message):
        with pytest.raises(ValueError, match=message):
            analysis_welch(params)


def white(n: int, seed: int) -> np.ndarray:
    return np.clip(np.random.default_rng(seed).normal(scale=0.25, size=n), -1.0, 1.0)


def delayed(x: np.ndarray, delay: int, length: int, seed: int) -> np.ndarray:
    """``x`` delayed by ``delay`` samples in ``length`` samples, halved, with noise."""
    out = np.zeros(length)
    out[delay:] = 0.5 * x[: length - delay]
    return out + np.random.default_rng(seed).normal(scale=0.01, size=length)


def chunked(x: np.ndarray, rate: float, frames: int, target: float = 8000.0):
    """``x`` resampled to ``target`` chunk by chunk, as the CLI streams a file."""
    carry = ResampleCarry(len(x))
    for start in range(0, len(x), frames):
        yield resample(Signal(x[start : start + frames], rate), target, carry)


def whole_signal_score(src: np.ndarray, rec: np.ndarray) -> tuple[int, np.ndarray, float]:
    """The pipeline on whole 8 kHz arrays, as it ran before it streamed:
    align on 10 s clips, cut 80 s spans, then coherence, envelope and mean."""
    delay = find_delay(Signal(src[:80_000], 8000.0), Signal(rec[:80_000], 8000.0), 79_999)
    estimate = magnitude_squared_coherence(
        Signal(src[:640_000], 8000.0), Signal(rec[delay : delay + 640_000], 8000.0), WelchParams()
    )
    envelope = peak_envelope(estimate.values, 100)
    return delay, estimate.values, float(min(max(np.mean(envelope), 0.0), 1.0))


class TestScoreStreams:
    def test_recording_ending_in_the_last_partial_block(self):
        # 3 968 999 frames at 44.1 kHz resample to exactly 720 000 samples;
        # a delay past 74 560 puts the span's end in the resampler's last,
        # partial block of rows, which only the final chunk completes
        source = white(3_969_000, seed=1)
        recording = delayed(source, 430_000, 3_968_999, seed=2)
        details = score_streams(
            chunked(source, 44_100.0, 1 << 15), chunked(recording, 44_100.0, 1 << 15),
            analysis_welch(),
        )
        whole = [resample(Signal(x, 44_100.0), 8000.0).samples for x in (source, recording)]
        assert len(whole[1]) == 720_000
        delay, values, score = whole_signal_score(*whole)
        assert details.delay_samples == delay > 74_560
        assert np.array_equal(details.estimate.values, values)
        assert details.score == score

    def test_recording_that_runs_out_is_unalignable(self):
        source = white(720_000, seed=3)
        recording = delayed(source, 5000, 644_000, seed=4)
        with pytest.raises(AlignmentError) as caught:
            score_streams(chunked(source, 8000.0, 7000), chunked(recording, 8000.0, 7000),
                          analysis_welch())
        assert str(caught.value) == (
            "delay of 5000 samples leaves fewer than 640000 samples of recording to analyze"
        )

    def test_negative_delay_message(self):
        source = white(720_000, seed=5)
        with pytest.raises(AlignmentError) as caught:
            score_streams(chunked(source, 8000.0, 9000), chunked(source[300:], 8000.0, 9000),
                          analysis_welch())
        assert str(caught.value) == (
            "recording leads the source by 300 samples; no 80 s span starts at the delay point"
        )

    def test_silent_span_is_rejected(self):
        source = white(720_000, seed=6)
        recording = np.zeros(720_000)
        recording[700_000:] = 0.5  # sound only after the analysed span
        with pytest.raises(ValueError, match="all-zero"):
            score_streams(chunked(source, 8000.0, 50_000), chunked(recording, 8000.0, 50_000),
                          analysis_welch())
