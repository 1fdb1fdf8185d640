"""Core waveform type plus resampling, delay alignment, and slicing.

Signals are immutable value objects: every operation returns a new
``Signal`` and never mutates its inputs, so they are safe to share
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike, NDArray

__all__ = ["Signal", "resample", "find_delay", "clip"]

# Anti-alias FIR used before decimation: windowed sinc, Hamming window.
ANTIALIAS_TAPS = 64
ANTIALIAS_CUTOFF_FRACTION = 0.45  # of the target rate

# find_delay correlates directly while len(candidate) * len(reference), the
# direct multiply-adds, is at most this many times nfft * log2(nfft), the
# FFT path's butterflies; measured crossover ~25x (numpy 2.4, x86-64: equal
# lengths near 512 samples, 50 000 x 500 samples).
DIRECT_CORRELATE_COST_RATIO = 25


def _as_readonly_f64(samples: ArrayLike) -> NDArray[np.float64]:
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"samples must be one-dimensional, got shape {arr.shape}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Signal:
    """A uniformly sampled real-valued waveform.

    Amplitudes are volts for front-end signals and normalized full scale
    [-1, 1] for decoded audio files. All samples must be finite.
    """

    samples: NDArray[np.float64]
    sample_rate_hz: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", _as_readonly_f64(self.samples))
        if not (self.sample_rate_hz > 0):
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must all be finite (no NaN or infinity)")

    def __len__(self) -> int:
        return int(self.samples.size)

    @property
    def duration_s(self) -> float:
        return len(self) / self.sample_rate_hz

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Signal):
            return NotImplemented
        return (
            self.sample_rate_hz == other.sample_rate_hz
            and self.samples.shape == other.samples.shape
            and bool(np.array_equal(self.samples, other.samples))
        )


def _antialias_kernel(source_rate_hz: float, target_rate_hz: float) -> NDArray[np.float64]:
    """Low-pass FIR for decimation, cutoff at 0.45x the new rate."""
    cutoff_hz = ANTIALIAS_CUTOFF_FRACTION * target_rate_hz
    fc = cutoff_hz / source_rate_hz  # normalized (cycles/sample)
    n = np.arange(ANTIALIAS_TAPS, dtype=np.float64)
    center = (ANTIALIAS_TAPS - 1) / 2.0
    taps = 2.0 * fc * np.sinc(2.0 * fc * (n - center))
    taps *= np.hamming(ANTIALIAS_TAPS)
    return taps / taps.sum()  # unity DC gain


def resample(s: Signal, target_rate_hz: float) -> Signal:
    """Convert ``s`` to ``target_rate_hz``.

    Downsampling low-pass filters first (anti-aliasing) and then samples
    the filtered waveform on the new grid via linear interpolation, which
    handles integer and non-integer rate ratios alike. Upsampling is plain
    linear interpolation. Equal rates return the signal unchanged, so the
    operation is idempotent per rate.
    """
    if not (target_rate_hz > 0):
        raise ValueError(f"target_rate_hz must be positive, got {target_rate_hz}")
    if len(s) == 0:
        raise ValueError("cannot resample an empty signal")
    if target_rate_hz == s.sample_rate_hz:
        return s

    ratio = target_rate_hz / s.sample_rate_hz
    n_out = max(int(round(len(s) * ratio)), 1)
    # Output sample k sits at time k / target; express it in source-sample units.
    positions = np.arange(n_out, dtype=np.float64) / ratio

    if target_rate_hz > s.sample_rate_hz:
        src = s.samples
        offset = 0.0
    else:
        kernel = _antialias_kernel(s.sample_rate_hz, target_rate_hz)
        src = np.convolve(s.samples, kernel, mode="full")
        offset = (ANTIALIAS_TAPS - 1) / 2.0  # group delay of the symmetric FIR

    grid = np.arange(src.size, dtype=np.float64)
    out = np.interp(positions + offset, grid, src)
    return Signal(out, target_rate_hz)


def find_delay(reference: Signal, candidate: Signal, search_window_samples: int) -> int:
    """Lag of ``candidate`` relative to ``reference`` by cross-correlation.

    Returns the integer lag d with |d| <= ``search_window_samples`` that
    maximizes the cross-correlation; positive d means the candidate lags
    the reference. Ties go to the smallest |d|, then negative over positive.

    Small inputs are correlated directly, so the tie rule is exact there.
    Above ``DIRECT_CORRELATE_COST_RATIO`` the correlation comes from a
    zero-padded FFT product, whose rounding decides between lags that tie
    or nearly tie.
    """
    if reference.sample_rate_hz != candidate.sample_rate_hz:
        raise ValueError(
            "sample rates differ: "
            f"{reference.sample_rate_hz} vs {candidate.sample_rate_hz}"
        )
    if len(reference) == 0 or len(candidate) == 0:
        raise ValueError("cannot correlate empty signals")
    if search_window_samples < 1:
        raise ValueError("search_window_samples must be >= 1")
    max_lag = min(len(reference), len(candidate)) - 1
    if search_window_samples > max_lag:
        raise ValueError(
            f"search window {search_window_samples} exceeds the maximum "
            f"usable lag {max_lag} for these signal lengths"
        )

    n, m, w = len(candidate), len(reference), search_window_samples
    nfft = 1 << (n + m - 2).bit_length()  # >= n + m - 1: no circular wrap
    if n * m <= DIRECT_CORRELATE_COST_RATIO * nfft * (nfft.bit_length() - 1):
        # full cross-correlation; index i corresponds to lag i - (m - 1)
        corr = np.correlate(candidate.samples, reference.samples, "full")[m - 1 - w : m + w]
    else:
        spectrum = np.fft.rfft(candidate.samples, nfft)
        spectrum *= np.conj(np.fft.rfft(reference.samples, nfft))
        circular = np.fft.irfft(spectrum, nfft)  # lag d at index d mod nfft
        corr = np.concatenate((circular[nfft - w :], circular[: w + 1]))
    lags = np.arange(-w, w + 1)

    best = np.max(corr)
    tied = lags[corr == best]
    return int(min(tied, key=lambda d: (abs(d), d >= 0)))


def clip(s: Signal, start_sample: int, length_samples: int) -> Signal:
    """Exact contiguous slice of ``length_samples`` starting at ``start_sample``."""
    if start_sample < 0:
        raise ValueError(f"start_sample must be non-negative, got {start_sample}")
    if length_samples < 1:
        raise ValueError(f"length_samples must be positive, got {length_samples}")
    if start_sample + length_samples > len(s):
        raise ValueError(
            f"slice [{start_sample}, {start_sample + length_samples}) is out of "
            f"range for a signal of {len(s)} samples"
        )
    return Signal(s.samples[start_sample : start_sample + length_samples], s.sample_rate_hz)
