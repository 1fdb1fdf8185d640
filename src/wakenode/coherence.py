"""Welch cross-spectral estimation, magnitude-squared coherence, and the
microphone accuracy score built on them.

The scoring pipeline: check that both waveforms last at least 90 seconds,
resample them to 8 kHz (polyphase between integer rates, see
:func:`wakenode.signals.resample`), align them by cross-correlating their
first 10 seconds, trim the recording to exactly 80 seconds from the
alignment point, estimate the magnitude-squared coherence, take the peak
envelope of the per-frequency values, and average it into a single number
in [0, 1]. Input already at 8 kHz passes through the resampler unchanged,
so a caller may resample a recording itself, chunk by chunk, and check its
length with :func:`check_duration` at the input's own rate.

All functions are pure; scoring many recordings concurrently is safe.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .signals import Signal, clip, find_delay, resample

__all__ = [
    "Window",
    "WelchParams",
    "CoherenceEstimate",
    "MicCandidate",
    "RankedMic",
    "ScoreBreakdown",
    "AlignmentError",
    "check_duration",
    "cross_spectral_density",
    "magnitude_squared_coherence",
    "peak_envelope",
    "coherence_score",
    "score_with_details",
    "rank_microphones",
]

SCORE_RATE_HZ = 8_000.0
ALIGN_SECONDS = 10
ANALYSIS_SECONDS = 80
ENVELOPE_PEAK_SEPARATION = 100

# Product of auto-spectra below this is treated as silence, not coherence.
POWER_FLOOR = 1e-30


def check_duration(name: str, duration_s: float) -> None:
    """Reject a waveform shorter than the protocol's 90 seconds."""
    min_seconds = ALIGN_SECONDS + ANALYSIS_SECONDS
    if duration_s < min_seconds:
        raise ValueError(
            f"{name} is {duration_s!r} s long; the protocol needs "
            f"at least {min_seconds} s ({ALIGN_SECONDS} s alignment + "
            f"{ANALYSIS_SECONDS} s analysis)"
        )


class AlignmentError(ValueError):
    """The recording cannot be aligned to the source within its extent."""


class Window(str, enum.Enum):
    HAMMING = "hamming"
    HANN = "hann"
    RECTANGULAR = "rectangular"


def _window_values(kind: Window, length: int) -> NDArray[np.float64]:
    if kind is Window.HAMMING:
        return np.hamming(length)
    if kind is Window.HANN:
        return np.hanning(length)
    return np.ones(length)


@dataclass(frozen=True)
class WelchParams:
    """Segmenting and windowing choices for the Welch estimator.

    Defaults (8 segments, 50% overlap, Hamming) mirror the conventional
    spectral-analysis default so results are comparable across tools.
    ``fft_length=None`` rounds the segment length up to the next power
    of two.
    """

    segment_count: int = 8
    overlap_fraction: float = 0.5
    window: Window = Window.HAMMING
    fft_length: int | None = None

    def __post_init__(self) -> None:
        if self.segment_count < 1:
            raise ValueError(f"segment_count must be >= 1, got {self.segment_count}")
        if not (0.0 <= self.overlap_fraction < 1.0):
            raise ValueError(
                f"overlap_fraction must be in [0, 1), got {self.overlap_fraction}"
            )
        if self.fft_length is not None and self.fft_length < 2:
            raise ValueError(f"fft_length must be >= 2, got {self.fft_length}")

    def segment_length(self, n_samples: int) -> int:
        """Segment length so ``segment_count`` overlapped segments cover the data."""
        span = self.segment_count - self.overlap_fraction * (self.segment_count - 1)
        length = int(n_samples / span)
        if length < 2:
            raise ValueError(
                f"signal of {n_samples} samples is too short for "
                f"{self.segment_count} segments"
            )
        return length

    def resolve_fft_length(self, segment_length: int) -> int:
        if self.fft_length is not None:
            if self.fft_length < segment_length:
                raise ValueError(
                    f"fft_length {self.fft_length} is shorter than the "
                    f"segment length {segment_length}"
                )
            return self.fft_length
        return 1 << (segment_length - 1).bit_length()


@dataclass(frozen=True)
class CoherenceEstimate:
    """Per-frequency magnitude-squared coherence in [0, 1]."""

    frequencies_hz: NDArray[np.float64]
    values: NDArray[np.float64]
    params: WelchParams
    sample_rate_hz: float

    def __post_init__(self) -> None:
        freqs = np.asarray(self.frequencies_hz, dtype=np.float64).copy()
        vals = np.asarray(self.values, dtype=np.float64).copy()
        if freqs.shape != vals.shape:
            raise ValueError("frequencies and values must have the same length")
        for arr in (freqs, vals):
            arr.setflags(write=False)
        object.__setattr__(self, "frequencies_hz", freqs)
        object.__setattr__(self, "values", vals)


class MicConfiguration(str, enum.Enum):
    ANALOG = "analog"
    DIGITAL = "digital"


@dataclass(frozen=True)
class MicCandidate:
    """One microphone under evaluation: measured power, accuracy, supply range."""

    name: str
    power_mw: float
    accuracy: float
    configuration: MicConfiguration
    supply_min_v: float
    supply_max_v: float

    def __post_init__(self) -> None:
        if self.power_mw <= 0:
            raise ValueError(f"power_mw must be positive, got {self.power_mw}")
        if not (0.0 <= self.accuracy <= 1.0):
            raise ValueError(f"accuracy must be in [0, 1], got {self.accuracy}")
        if self.supply_min_v <= 0 or self.supply_max_v <= 0:
            raise ValueError("supply voltages must be positive")
        if self.supply_min_v > self.supply_max_v:
            raise ValueError(
                f"supply_min_v {self.supply_min_v} exceeds supply_max_v {self.supply_max_v}"
            )


@dataclass(frozen=True)
class RankedMic:
    candidate: MicCandidate
    eligible: bool
    reasons: tuple[str, ...] = ()
    rank: int | None = None


def _welch_spectra(
    x: Signal, y: Signal, p: WelchParams
) -> tuple[NDArray[np.float64], NDArray[np.complex128], NDArray[np.float64], NDArray[np.float64]]:
    """Shared Welch machinery: (frequencies, G_xy, G_xx, G_yy).

    Windowed, overlapped segments; the final partial segment is discarded.
    Density scaling (1 / (fs * window energy)) is applied uniformly, so it
    cancels in coherence ratios.
    """
    if x.sample_rate_hz != y.sample_rate_hz:
        raise ValueError(
            f"sample rates differ: {x.sample_rate_hz} vs {y.sample_rate_hz}"
        )
    if len(x) != len(y):
        raise ValueError(f"signal lengths differ: {len(x)} vs {len(y)}")
    n = len(x)
    seg_len = p.segment_length(n)
    hop = seg_len - int(p.overlap_fraction * seg_len)
    nfft = p.resolve_fft_length(seg_len)
    window = _window_values(p.window, seg_len)
    scale = 1.0 / (x.sample_rate_hz * np.sum(window**2))

    starts = range(0, n - seg_len + 1, hop)
    gxy = np.zeros(nfft // 2 + 1, dtype=np.complex128)
    gxx = np.zeros(nfft // 2 + 1, dtype=np.float64)
    gyy = np.zeros(nfft // 2 + 1, dtype=np.float64)
    count = 0
    for s0 in starts:
        fx = np.fft.rfft(window * x.samples[s0 : s0 + seg_len], nfft)
        fy = np.fft.rfft(window * y.samples[s0 : s0 + seg_len], nfft)
        gxy += np.conj(fx) * fy
        gxx += (fx * np.conj(fx)).real
        gyy += (fy * np.conj(fy)).real
        count += 1
    gxy *= scale / count
    gxx *= scale / count
    gyy *= scale / count
    freqs = np.fft.rfftfreq(nfft, 1.0 / x.sample_rate_hz)
    return freqs, gxy, gxx, gyy


def cross_spectral_density(
    x: Signal, y: Signal, p: WelchParams
) -> tuple[NDArray[np.float64], NDArray[np.complex128]]:
    """Welch-averaged cross-spectral density of ``x`` and ``y``.

    Returns (frequencies_hz, complex values) over [0, Nyquist]. With
    ``x is y`` the result is the auto-spectrum: real and non-negative.
    Public as the only way to read the phase of G_xy, which coherence drops.
    """
    freqs, gxy, _, _ = _welch_spectra(x, y, p)
    return freqs, gxy


def magnitude_squared_coherence(x: Signal, y: Signal, p: WelchParams) -> CoherenceEstimate:
    """|G_xy|^2 / (G_xx G_yy) per frequency bin, clamped to [0, 1].

    Requires at least two averaged segments; a single segment makes the
    ratio identically one and carries no information. Bins where the
    auto-spectra underflow are reported as zero coherence.
    """
    if p.segment_count < 2:
        raise ValueError("coherence needs at least two Welch segments; one is degenerate")
    if not np.any(x.samples) or not np.any(y.samples):
        raise ValueError("coherence of an all-zero signal is undefined")
    freqs, gxy, gxx, gyy = _welch_spectra(x, y, p)
    denom = gxx * gyy
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.abs(gxy) ** 2 / denom
    values = np.where(denom < POWER_FLOOR, 0.0, values)
    values = np.clip(values, 0.0, 1.0)
    return CoherenceEstimate(freqs, values, p, x.sample_rate_hz)


def _local_maxima(values: NDArray[np.float64]) -> NDArray[np.intp]:
    """Indices of the strict local maxima; a flat peak counts once, at its middle.

    A run of equal values is a peak when both neighbouring runs are lower;
    runs touching either end of the series are not peaks.
    """
    starts = np.flatnonzero(values[1:] != values[:-1]) + 1
    ends = np.append(starts - 1, values.size - 1)
    starts = np.insert(starts, 0, 0)
    level = values[starts]
    inner = np.flatnonzero((level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])) + 1
    return (starts[inner] + ends[inner]) // 2


def _select_by_distance(
    peaks: NDArray[np.intp], heights: NDArray[np.float64], distance: int
) -> NDArray[np.intp]:
    """Keep the highest peaks, dropping any closer than ``distance`` to a kept one.

    Peaks are visited from the last to the first of ``np.argsort(heights)``,
    so equal heights resolve the same way on every run.
    """
    positions = peaks.tolist()
    keep = bytearray(b"\x01") * len(positions)
    for j in np.argsort(heights)[::-1].tolist():
        if keep[j]:
            lo = bisect.bisect_left(positions, positions[j] - distance + 1, 0, j)
            hi = bisect.bisect_left(positions, positions[j] + distance, j + 1)
            keep[lo:j] = bytes(j - lo)
            keep[j + 1 : hi] = bytes(hi - j - 1)
    return peaks[np.frombuffer(keep, dtype=np.bool_)]


def _pchip_slopes(h: NDArray[np.float64], m: NDArray[np.float64]) -> NDArray[np.float64]:
    """Knot derivatives of the Fritsch-Carlson monotone cubic.

    ``h`` holds the knot spacings and ``m`` the secant slopes. Interior knots
    take the weighted harmonic mean of the neighbouring slopes, or 0 where
    they differ in sign or one is 0; the end knots take a one-sided
    three-point estimate, limited to keep the shape (Moler, *Numerical
    Computing with MATLAB*, sec. 3.6).
    """
    if m.size == 1:
        return np.array([m[0], m[0]])
    d = np.zeros(m.size + 1)
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    d[1:-1][~flat] = 1.0 / whmean[~flat]

    def end_slope(h0, h1, m0, m1):
        e = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(e) != np.sign(m0):
            return 0.0
        if np.sign(m0) != np.sign(m1) and abs(e) > 3.0 * abs(m0):
            return 3.0 * m0
        return e

    d[0] = end_slope(h[0], h[1], m[0], m[1])
    d[-1] = end_slope(h[-1], h[-2], m[-1], m[-2])
    return d


def peak_envelope(series: ArrayLike, min_peak_separation: int) -> NDArray[np.float64]:
    """Upper envelope through local maxima at least ``min_peak_separation`` apart.

    A shape-preserving piecewise cubic (no overshoot) is drawn through the
    retained peaks, with the first and last samples as anchors. The result
    has the input's length and matches the input exactly at every retained
    peak.

    The peaks are those of ``scipy.signal.find_peaks(series,
    distance=min_peak_separation)`` and the curve is that of
    ``scipy.interpolate.PchipInterpolator`` (Fritsch & Carlson, SIAM J.
    Numer. Anal. 17(2), 1980), evaluated with the same operations in the
    same order, so the result equals theirs bit for bit.
    """
    values = np.asarray(series, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("series must be a non-empty one-dimensional sequence")
    if min_peak_separation < 1:
        raise ValueError("min_peak_separation must be >= 1")
    if not np.all(np.isfinite(values)):
        raise ValueError("series must be finite")
    if values.size < 3:
        return values.copy()

    peaks = _local_maxima(values)
    peaks = _select_by_distance(peaks, values[peaks], min_peak_separation)
    knots = np.concatenate(([0], peaks, [values.size - 1]))
    x = knots.astype(np.float64)
    y = values[knots]

    # Hermite coefficients per interval, highest power first
    h = np.diff(x)
    slope = np.diff(y) / h
    d = _pchip_slopes(h, slope)
    t = (d[:-1] + d[1:] - 2 * slope) / h
    c0 = t / h
    c1 = (slope - d[:-1]) / h - t
    c2 = d[:-1]
    c3 = y[:-1]

    # interval i holds the points x[i] <= p < x[i+1]; the last point closes
    # the last interval
    i = np.append(np.repeat(np.arange(knots.size - 1), np.diff(knots)), knots.size - 2)
    s = np.arange(values.size, dtype=np.float64) - x[i]
    # c3 + c2*s + c1*s^2 + c0*s^3, summed in this order with s^k built by
    # repeated products, as scipy's PPoly evaluates it
    out = 0.0 + c3[i]
    out += c2[i] * s
    z = s * s
    out += c1[i] * z
    z *= s
    out += c0[i] * z
    return out


@dataclass(frozen=True)
class ScoreBreakdown:
    """Intermediate products of the scoring pipeline, for reporting."""

    score: float
    delay_samples: int
    estimate: CoherenceEstimate
    envelope: NDArray[np.float64]


def score_with_details(
    source: Signal, recording: Signal, params: WelchParams | None = None
) -> ScoreBreakdown:
    """Run the full scoring pipeline and keep the per-frequency products.

    Both inputs must be at least 90 seconds long: the first 10 seconds
    (after resampling to 8 kHz) are used to find the recording's delay,
    then exactly 80 seconds of each waveform are compared.
    """
    for name, sig in (("source", source), ("recording", recording)):
        check_duration(name, sig.duration_s)

    src = resample(source, SCORE_RATE_HZ)
    rec = resample(recording, SCORE_RATE_HZ)

    align_len = int(SCORE_RATE_HZ * ALIGN_SECONDS)
    src_clip = clip(src, 0, align_len)
    rec_clip = clip(rec, 0, align_len)
    delay = find_delay(src_clip, rec_clip, align_len - 1)

    analysis_len = int(SCORE_RATE_HZ * ANALYSIS_SECONDS)
    if delay < 0:
        raise AlignmentError(
            f"recording leads the source by {-delay} samples; no 80 s span "
            "starts at the delay point"
        )
    if delay + analysis_len > len(rec):
        raise AlignmentError(
            f"delay of {delay} samples leaves fewer than {analysis_len} "
            "samples of recording to analyze"
        )
    rec_aligned = clip(rec, delay, analysis_len)
    src_aligned = clip(src, 0, analysis_len)

    estimate = magnitude_squared_coherence(
        src_aligned, rec_aligned, params if params is not None else WelchParams()
    )
    envelope = peak_envelope(estimate.values, ENVELOPE_PEAK_SEPARATION)
    score = float(min(max(np.mean(envelope), 0.0), 1.0))
    return ScoreBreakdown(score, delay, estimate, envelope)


def coherence_score(source: Signal, recording: Signal) -> float:
    """Scalar similarity of a recording to its source, in [0, 1].

    Public as the paper's score in one call, without the spectra the CLI needs."""
    return score_with_details(source, recording).score


def rank_microphones(
    candidates: Sequence[MicCandidate],
    require_analog: bool,
    supply_v: float | None,
) -> list[RankedMic]:
    """Order candidates by accuracy (descending), power breaking ties.

    Candidates that are digital when an analog interface is required, or
    whose supply range excludes ``supply_v`` (meaning an external regulator
    would be needed), are flagged ineligible but kept in the output after
    the eligible ones. ``supply_v=None`` skips the supply check.
    """
    if not candidates:
        raise ValueError("candidate list is empty")
    if supply_v is not None and supply_v <= 0:
        raise ValueError(f"supply_v must be positive, got {supply_v}")

    def sort_key(c: MicCandidate) -> tuple[float, float]:
        return (-c.accuracy, c.power_mw)

    flagged: list[tuple[MicCandidate, tuple[str, ...]]] = []
    for cand in candidates:
        reasons: list[str] = []
        if require_analog and cand.configuration is not MicConfiguration.ANALOG:
            reasons.append("digital output cannot drive the analog threshold chain")
        if supply_v is not None and not (cand.supply_min_v <= supply_v <= cand.supply_max_v):
            reasons.append(
                f"supply {supply_v} V outside {cand.supply_min_v}-"
                f"{cand.supply_max_v} V; would need a regulator"
            )
        flagged.append((cand, tuple(reasons)))

    eligible = sorted((c for c, r in flagged if not r), key=sort_key)
    ineligible = sorted(((c, r) for c, r in flagged if r), key=lambda cr: sort_key(cr[0]))

    ranking = [
        RankedMic(cand, eligible=True, rank=i + 1) for i, cand in enumerate(eligible)
    ]
    ranking.extend(RankedMic(cand, eligible=False, reasons=r) for cand, r in ineligible)
    return ranking
