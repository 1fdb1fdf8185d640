"""Welch cross-spectral estimation, magnitude-squared coherence, and the
microphone accuracy score built on them.

The scoring pipeline: check that both waveforms last at least 90 seconds,
resample them to 8 kHz (polyphase between integer rates, see
:class:`wakenode.signals.Resampler`), align them by cross-correlating their
first 10 seconds, feed exactly 80 seconds of each waveform from the
alignment point into a Welch accumulator, take the magnitude-squared
coherence of its spectra, take the peak envelope of the per-frequency
values, and average it into a single number in [0, 1].

The pipeline reads each waveform at 8 kHz as a stream of chunks
(:func:`score_streams`), holding the first 10 seconds for the alignment
and then one Welch segment, so a caller can decode and resample a
recording chunk by chunk and check its length with :func:`check_duration`
at the input's own rate. Every chunking gives the same bits.
:func:`score_with_details` and :func:`magnitude_squared_coherence`, which
take whole :class:`~wakenode.signals.Signal` values as one chunk, are kept
while the benchmark's tracer wraps them; no command runs them.

All functions are pure; scoring many recordings concurrently is safe.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .records import AlignmentError, WelchParams, Window
from .signals import Signal, find_delay, resample

__all__ = [
    "CoherenceEstimate",
    "ScoreBreakdown",
    "check_duration",
    "magnitude_squared_coherence",
    "peak_envelope",
    "score_with_details",
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


def _window_values(kind: Window, length: int) -> NDArray[np.float64]:
    if kind is Window.HAMMING:
        return np.hamming(length)
    if kind is Window.HANN:
        return np.hanning(length)
    return np.ones(length)


@dataclass(frozen=True, eq=False)
class CoherenceEstimate:
    """Per-frequency magnitude-squared coherence in [0, 1]."""

    frequencies_hz: NDArray[np.float64]
    values: NDArray[np.float64]


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
        # transform is held at a time. Finite samples overflow only near the
        # float limit, and _coherence then rejects the sums.
        with np.errstate(over="ignore", invalid="ignore"):
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


def _require_two_segments(p: WelchParams) -> None:
    if p.segment_count < 2:
        raise ValueError("coherence needs at least two Welch segments; one is degenerate")


def _coherence(spectra: _Spectra) -> CoherenceEstimate:
    """|G_xy|^2 / (G_xx G_yy) of Welch spectra, clamped to [0, 1]; spectra
    whose product overflows raise OverflowError."""
    freqs, gxy, gxx, gyy = spectra
    with np.errstate(over="ignore", invalid="ignore"):
        denom = gxx * gyy
    # the max is NaN or inf if any bin is; with G_xx G_yy finite, |G_xy|^2,
    # which never exceeds it, is finite too
    if not np.isfinite(denom.max()):
        raise OverflowError("the Welch spectra overflowed: the samples are too large to score")
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.abs(gxy) ** 2 / denom
    values = np.where(denom < POWER_FLOOR, 0.0, values)
    values = np.clip(values, 0.0, 1.0)
    return CoherenceEstimate(freqs, values)


def magnitude_squared_coherence(x: Signal, y: Signal, p: WelchParams) -> CoherenceEstimate:
    """|G_xy|^2 / (G_xx G_yy) per frequency bin, clamped to [0, 1], of two
    signals of one rate and length fed to a :class:`WelchAccumulator` as
    one piece; kept while the benchmark's tracer wraps it.

    Requires at least two averaged segments; a single segment makes the
    ratio identically one and carries no information. Bins where the
    auto-spectra underflow are reported as zero coherence.
    """
    _require_two_segments(p)
    if not np.any(x.samples) or not np.any(y.samples):
        raise ValueError("coherence of an all-zero signal is undefined")
    if x.sample_rate_hz != y.sample_rate_hz:
        raise ValueError(f"sample rates differ: {x.sample_rate_hz} vs {y.sample_rate_hz}")
    if len(x) != len(y):
        raise ValueError(f"signal lengths differ: {len(x)} vs {len(y)}")
    welch = WelchAccumulator(len(x), x.sample_rate_hz, p)
    welch.feed(x.samples, y.samples)
    return _coherence(welch.finish())


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
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
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
    source: Iterable[NDArray[np.float64]],
    recording: Iterable[NDArray[np.float64]],
    welch: WelchAccumulator,
) -> ScoreBreakdown:
    """The scoring pipeline on two waveforms at 8 kHz, each given as the
    arrays of its consecutive chunks, with ``welch`` from
    :func:`analysis_welch`.

    The first 10 seconds of each are held to find the recording's delay;
    then the source from its first sample and the recording from the delay
    are fed to ``welch`` as their chunks arrive, so no whole waveform is
    held. A chunk is copied from before the next chunk of its stream is
    drawn, so a stream may yield one buffer that each chunk overwrites. The
    source must hold the 80 s span, as any waveform that passes
    :func:`check_duration` does; a recording that ends before its span
    raises AlignmentError. Chunks past the spans are not read.
    """
    align_len = int(SCORE_RATE_HZ * ALIGN_SECONDS)
    src_head, src_rest = _split(iter(source), align_len)
    rec_head, rec_rest = _split(iter(recording), align_len)
    delay = find_delay(src_head, rec_head, align_len - 1)
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
    estimate = _coherence(welch.finish())
    envelope = peak_envelope(estimate.values, ENVELOPE_PEAK_SEPARATION)
    score = float(min(max(np.mean(envelope), 0.0), 1.0))
    return ScoreBreakdown(score, delay, estimate, envelope)


def score_with_details(
    source: Signal, recording: Signal, params: WelchParams | None = None
) -> ScoreBreakdown:
    """Run the full scoring pipeline and keep the per-frequency products.

    Both inputs must be at least 90 seconds long, at an integer rate of at
    least 8 kHz; any other rate raises ValueError, as 8 kHz is reached
    only by integer downsampling or at that rate. The first 10 seconds
    (after resampling to 8 kHz) are used to find the recording's delay,
    then exactly 80 seconds of each waveform are compared. Each resampled
    waveform goes to :func:`score_streams` as one chunk. Kept while the
    benchmark's tracer wraps it.
    """
    for name, sig in (("source", source), ("recording", recording)):
        check_duration(name, len(sig) / sig.sample_rate_hz)
    welch = analysis_welch(params)
    src = resample(source, SCORE_RATE_HZ)
    rec = resample(recording, SCORE_RATE_HZ)
    return score_streams((src.samples,), (rec.samples,), welch)
