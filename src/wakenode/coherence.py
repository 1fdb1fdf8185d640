"""Welch cross-spectral estimation, magnitude-squared coherence, and the
microphone accuracy score built on them.

The scoring pipeline: check that both waveforms last at least 90 seconds,
resample them to 8 kHz (polyphase between integer rates, see
:func:`wakenode.signals.resample`), align them by cross-correlating their
first 10 seconds, feed exactly 80 seconds of each waveform from the
alignment point into a Welch accumulator, take the magnitude-squared
coherence of its spectra, take the peak envelope of the per-frequency
values, and average it into a single number in [0, 1].

The pipeline reads each waveform at 8 kHz as a stream of chunks
(:func:`score_streams`), holding the first 10 seconds for the alignment
and then one Welch segment, so a caller can decode and resample a
recording chunk by chunk and check its length with :func:`check_duration`
at the input's own rate. Whole signals are one chunk:
:func:`score_with_details` and the spectral functions run the same code,
and every chunking gives the same bits.

All functions are pure; scoring many recordings concurrently is safe.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .signals import Signal, find_delay, resample

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

# (frequencies, G_xy, G_xx, G_yy) of a Welch estimate
_Spectra = tuple[
    NDArray[np.float64], NDArray[np.complex128], NDArray[np.float64], NDArray[np.float64]
]


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


class WelchAccumulator:
    """Welch-averaged spectra of two signals of ``length`` samples, fed as
    consecutive pairs of equal-length pieces.

    Windowed, overlapped segments; the final partial segment is discarded.
    Each piece is copied into one segment buffer per signal, and a segment
    is windowed, transformed and added to G_xy, G_xx and G_yy as soon as
    the buffers hold it, so the segments, their order and the sums are
    those of one pass over the whole signals, whatever the pieces. The
    window, the buffers and the work arrays are allocated once, when the
    segments are planned, and freed after the last segment; a ``length``
    too short for ``params`` raises ValueError at the planning.
    """

    def __init__(self, length: int, sample_rate_hz: float, params: WelchParams) -> None:
        seg_len = params.segment_length(length)
        self._nfft = params.resolve_fft_length(seg_len)
        self.length = length
        self.sample_rate_hz = sample_rate_hz
        self.params = params
        self.fed = 0
        self._seg_len = seg_len
        self._hop = seg_len - int(params.overlap_fraction * seg_len)
        self._count = len(range(0, length - seg_len + 1, self._hop))
        self._left = self._count  # segments not yet added
        self._held = 0  # samples in the buffers, from the current segment's start
        window = _window_values(params.window, seg_len)
        # density scaling, the same for every segment, so it cancels in
        # coherence ratios
        self._scale = 1.0 / (sample_rate_hz * np.sum(window**2))
        bins = self._nfft // 2 + 1
        # the window, a segment buffer per signal, the windowed segment and
        # a product of transforms
        self._work: tuple[NDArray, ...] | None = (
            window,
            np.empty((2, seg_len)),
            np.empty(seg_len),
            np.empty(bins, dtype=np.complex128),
        )
        self._sums: tuple[NDArray, ...] | None = (
            np.zeros(bins, dtype=np.complex128),
            np.zeros(bins, dtype=np.float64),
            np.zeros(bins, dtype=np.float64),
        )

    def feed(self, x: NDArray[np.float64], y: NDArray[np.float64]) -> None:
        """Add the next ``len(x)`` samples of each signal."""
        if len(x) != len(y):
            raise ValueError(f"piece lengths differ: {len(x)} vs {len(y)}")
        if self.fed + len(x) > self.length:
            raise ValueError(
                f"piece of {len(x)} samples runs past the {self.length} samples "
                f"planned ({self.fed} already fed)"
            )
        self.fed += len(x)
        pos = 0
        while self._left and pos < len(x):
            buffers = self._work[1]
            take = min(self._seg_len - self._held, len(x) - pos)
            stop = self._held + take
            buffers[0, self._held : stop] = x[pos : pos + take]
            buffers[1, self._held : stop] = y[pos : pos + take]
            self._held, pos = stop, pos + take
            if stop == self._seg_len:
                self._add_segment()
                self._held = self._seg_len - self._hop
                buffers[:, : self._held] = buffers[:, self._hop :]
        if not self._left:
            self._work = None

    def _add_segment(self) -> None:
        # fx * conj(fx), conj(fx) * fy and fy * conj(fy), each computed in
        # ``product``; fx is dropped before fy is transformed, so only one
        # transform is held at a time
        window, buffers, windowed, product = self._work
        gxy, gxx, gyy = self._sums
        np.multiply(window, buffers[0], out=windowed)
        fx = np.fft.rfft(windowed, self._nfft)
        np.multiply(fx, np.conjugate(fx, out=product), out=product)
        gxx += product.real
        np.conjugate(fx, out=product)
        del fx
        np.multiply(window, buffers[1], out=windowed)
        fy = np.fft.rfft(windowed, self._nfft)
        np.multiply(product, fy, out=product)
        gxy += product
        np.multiply(fy, np.conjugate(fy, out=product), out=product)
        gyy += product.real
        self._left -= 1

    def finish(self) -> _Spectra:
        """(frequencies, G_xy, G_xx, G_yy) once every planned sample is fed:
        the sums averaged over the segments, scaled to a density (1 / (fs *
        window energy)) and handed over, so the accumulator is done with."""
        if self.fed < self.length:
            raise ValueError(f"only {self.fed} of the {self.length} planned samples were fed")
        gxy, gxx, gyy = self._sums
        self._sums = None
        factor = self._scale / self._count
        gxy *= factor
        gxx *= factor
        gyy *= factor
        return np.fft.rfftfreq(self._nfft, 1.0 / self.sample_rate_hz), gxy, gxx, gyy


def _welch_spectra(x: Signal, y: Signal, p: WelchParams) -> _Spectra:
    """Shared Welch machinery: (frequencies, G_xy, G_xx, G_yy), the whole
    signals fed to a :class:`WelchAccumulator` as one piece."""
    if x.sample_rate_hz != y.sample_rate_hz:
        raise ValueError(
            f"sample rates differ: {x.sample_rate_hz} vs {y.sample_rate_hz}"
        )
    if len(x) != len(y):
        raise ValueError(f"signal lengths differ: {len(x)} vs {len(y)}")
    welch = WelchAccumulator(len(x), x.sample_rate_hz, p)
    welch.feed(x.samples, y.samples)
    return welch.finish()


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


def _require_two_segments(p: WelchParams) -> None:
    if p.segment_count < 2:
        raise ValueError("coherence needs at least two Welch segments; one is degenerate")


def _coherence(spectra: _Spectra, p: WelchParams, sample_rate_hz: float) -> CoherenceEstimate:
    """|G_xy|^2 / (G_xx G_yy) of Welch spectra, clamped to [0, 1]."""
    freqs, gxy, gxx, gyy = spectra
    denom = gxx * gyy
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.abs(gxy) ** 2 / denom
    values = np.where(denom < POWER_FLOOR, 0.0, values)
    values = np.clip(values, 0.0, 1.0)
    return CoherenceEstimate(freqs, values, p, sample_rate_hz)


def magnitude_squared_coherence(x: Signal, y: Signal, p: WelchParams) -> CoherenceEstimate:
    """|G_xy|^2 / (G_xx G_yy) per frequency bin, clamped to [0, 1].

    Requires at least two averaged segments; a single segment makes the
    ratio identically one and carries no information. Bins where the
    auto-spectra underflow are reported as zero coherence.
    """
    _require_two_segments(p)
    if not np.any(x.samples) or not np.any(y.samples):
        raise ValueError("coherence of an all-zero signal is undefined")
    return _coherence(_welch_spectra(x, y, p), p, x.sample_rate_hz)


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


def analysis_welch(params: WelchParams | None = None) -> WelchAccumulator:
    """The accumulator for the 80 s analysis span at the scoring rate.

    Raises ValueError, before any sample is read, for ``params`` that
    cannot score that span: one segment, more segments than the span has
    samples for, or an FFT length shorter than a segment.
    """
    params = params if params is not None else WelchParams()
    _require_two_segments(params)
    return WelchAccumulator(int(SCORE_RATE_HZ * ANALYSIS_SECONDS), SCORE_RATE_HZ, params)


def _split(
    pieces: Iterator[NDArray[np.float64]], n: int
) -> tuple[NDArray[np.float64], Iterator[NDArray[np.float64]]]:
    """The first ``n`` samples of a stream of arrays (all of them, if it is
    shorter), and the rest of the stream."""
    head = np.empty(n)
    held = 0
    for piece in pieces:
        take = min(n - held, len(piece))
        head[held : held + take] = piece[:take]
        held += take
        if held == n:
            return head, chain((piece[take:],), pieces)
    return head[:held], pieces


def _in_step(
    xs: Iterator[NDArray[np.float64]], ys: Iterator[NDArray[np.float64]], n: int
) -> Iterator[tuple[NDArray[np.float64], NDArray[np.float64]]]:
    """The first ``n`` samples of two streams of arrays, as pairs of
    equal-length pieces, until either stream ends."""
    x = y = np.empty(0)
    while n:
        try:
            while not len(x):
                x = next(xs)
            while not len(y):
                y = next(ys)
        except StopIteration:
            return
        k = min(len(x), len(y), n)
        yield x[:k], y[:k]
        x, y, n = x[k:], y[k:], n - k


def score_streams(
    source: Iterable[Signal], recording: Iterable[Signal], welch: WelchAccumulator
) -> ScoreBreakdown:
    """The scoring pipeline on two waveforms at 8 kHz, each given as its
    consecutive chunks, with ``welch`` from :func:`analysis_welch`.

    The first 10 seconds of each are held to find the recording's delay;
    then the source from its first sample and the recording from the delay
    are fed to ``welch`` as their chunks arrive, so no whole waveform is
    held. The source must hold the 80 s span, as any waveform that passes
    :func:`check_duration` does; a recording that ends before its span
    raises AlignmentError. Chunks past the spans are not read.
    """
    align_len = int(SCORE_RATE_HZ * ALIGN_SECONDS)
    src_head, src_rest = _split((c.samples for c in source), align_len)
    rec_head, rec_rest = _split((c.samples for c in recording), align_len)
    delay = find_delay(
        Signal(src_head, SCORE_RATE_HZ), Signal(rec_head, SCORE_RATE_HZ), align_len - 1
    )
    if delay < 0:
        raise AlignmentError(
            f"recording leads the source by {-delay} samples; no 80 s span "
            "starts at the delay point"
        )
    src_sound = rec_sound = False
    xs = chain((src_head,), src_rest)
    ys = chain((rec_head[delay:],), rec_rest)
    for x, y in _in_step(xs, ys, welch.length):
        src_sound = src_sound or bool(np.any(x))
        rec_sound = rec_sound or bool(np.any(y))
        welch.feed(x, y)
    if welch.fed < welch.length:
        raise AlignmentError(
            f"delay of {delay} samples leaves fewer than {welch.length} "
            "samples of recording to analyze"
        )
    if not (src_sound and rec_sound):
        raise ValueError("coherence of an all-zero signal is undefined")
    estimate = _coherence(welch.finish(), welch.params, welch.sample_rate_hz)
    envelope = peak_envelope(estimate.values, ENVELOPE_PEAK_SEPARATION)
    score = float(min(max(np.mean(envelope), 0.0), 1.0))
    return ScoreBreakdown(score, delay, estimate, envelope)


def score_with_details(
    source: Signal, recording: Signal, params: WelchParams | None = None
) -> ScoreBreakdown:
    """Run the full scoring pipeline and keep the per-frequency products.

    Both inputs must be at least 90 seconds long: the first 10 seconds
    (after resampling to 8 kHz) are used to find the recording's delay,
    then exactly 80 seconds of each waveform are compared. Each resampled
    waveform goes to :func:`score_streams` as one chunk.
    """
    for name, sig in (("source", source), ("recording", recording)):
        check_duration(name, sig.duration_s)
    welch = analysis_welch(params)
    src = resample(source, SCORE_RATE_HZ)
    rec = resample(recording, SCORE_RATE_HZ)
    return score_streams((src,), (rec,), welch)


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
