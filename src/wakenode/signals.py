"""Resampling and delay alignment on plain arrays, and the whole-recording
waveform type.

:class:`Resampler` is a stage object: it holds one recording's state from
one ``feed`` to the next, and takes and returns plain arrays, as
:func:`find_delay` takes them. :class:`Signal`, an immutable waveform
with its rate, and :func:`resample`, a resampler fed one whole
``Signal``, are kept while the benchmark's tracer wraps the
whole-recording functions; no command runs them.

Resampling takes two regimes: equal rates pass through, and integer
downsampling is polyphase (Crochiere & Rabiner, *Multirate Digital
Signal Processing*, 1983, ch. 3). The anti-alias FIR and the linear
interpolation onto the new grid are folded into one kernel per output
phase, evaluated as blocks of rows times bands of a kernel matrix, so a
recording streams through one :class:`Resampler` in chunks. A WAV header
stores its rate as an integer and scoring runs at 8 kHz from at least
8 kHz, so these are the only regimes a command needs; any other pair of
rates is rejected.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.typing import ArrayLike, NDArray

__all__ = ["Signal", "Resampler", "resample", "find_delay", "require_finite"]

# Anti-alias FIR used before decimation: windowed sinc, Hamming window.
ANTIALIAS_TAPS = 64
ANTIALIAS_CUTOFF_FRACTION = 0.45  # of the target rate

# Multiply-adds per matrix product and input samples per block of rows, which
# set the rows in a block: 154 at 44.1 -> 8 kHz (bounded by the products), 11
# at 44 101 -> 8000 Hz (by the 44 101-sample rows). OpenBLAS's output bits
# depend on a product's row count, so changing this value changes them.
RESAMPLE_BLOCK_MACS = 1 << 19


def _as_readonly_f64(samples: ArrayLike) -> NDArray[np.float64]:
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"samples must be one-dimensional, got shape {arr.shape}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def require_finite(samples: NDArray[np.float64]) -> NDArray[np.float64]:
    """``samples``, once every one is found finite; otherwise ValueError."""
    if not np.isfinite(samples).all():
        raise ValueError("samples must all be finite (no NaN or infinity)")
    return samples


@dataclass(frozen=True, eq=False)
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
        require_finite(self.samples)

    def __len__(self) -> int:
        return int(self.samples.size)


def _antialias_kernel(source_rate_hz: float, target_rate_hz: float) -> NDArray[np.float64]:
    """Low-pass FIR for decimation, cutoff at 0.45x the new rate."""
    cutoff_hz = ANTIALIAS_CUTOFF_FRACTION * target_rate_hz
    fc = cutoff_hz / source_rate_hz  # normalized (cycles/sample)
    n = np.arange(ANTIALIAS_TAPS, dtype=np.float64)
    center = (ANTIALIAS_TAPS - 1) / 2.0
    taps = 2.0 * fc * np.sinc(2.0 * fc * (n - center))
    taps *= np.hamming(ANTIALIAS_TAPS)
    return taps / taps.sum()  # unity DC gain


class _Polyphase(NamedTuple):
    """A downsampling by ``up/down`` as matrix products: each row of ``row``
    input samples (a whole number of ``down``) gives ``phases`` outputs, from
    a window of ``width`` samples that starts ``lead`` samples before the row.
    Each part maps a slice of the window to a slice of the phases."""

    row: int
    lead: int
    width: int
    phases: int
    parts: tuple[tuple[slice, slice, NDArray[np.float64]], ...]

    @property
    def block(self) -> int:
        """Rows per product: at most :data:`RESAMPLE_BLOCK_MACS` multiply-adds
        with any part, and at most that many input samples."""
        largest = max(part.size for _, _, part in self.parts)
        return max(RESAMPLE_BLOCK_MACS // max(self.row, largest), 1)


# The CLI resamples two rates at most. A plan to 8 kHz has at most 8000 phases,
# whose parts take about 12 MiB at most (11.4 at 44 101 Hz): ~24 MiB cached.
@functools.lru_cache(maxsize=2)
def _polyphase(source_rate_hz: float, target_rate_hz: float) -> _Polyphase:
    """The polyphase plan from ``source_rate_hz`` down to ``target_rate_hz``,
    both integers."""
    gcd = math.gcd(int(source_rate_hz), int(target_rate_hz))
    up, down = int(target_rate_hz) // gcd, int(source_rate_hz) // gcd
    copies = -(-(ANTIALIAS_TAPS + 1) // down)
    row, phases = copies * down, copies * up
    # Output k = phases*q + r reads the filter output at source position
    # q*row + r*down/up + (TAPS-1)/2, between samples j and j+1 at fraction
    # f; 2*up times that position is an integer, so j and f are exact.
    num = 2 * down * np.arange(phases) + (ANTIALIAS_TAPS - 1) * up
    j, rem = np.divmod(num, 2 * up)
    frac = rem / (2 * up)
    lead = ANTIALIAS_TAPS - 1 - int(j[0])
    width = lead + int(j[-1]) + 2
    # (1-f) * filter[j] + f * filter[j+1] as one kernel on inputs j+1-s,
    # s = 0..TAPS, at window index lead + j + 1 - s
    taps = _antialias_kernel(source_rate_hz, target_rate_hz)
    weights = np.zeros((phases, ANTIALIAS_TAPS + 1))
    weights[:, :-1] = frac[:, None] * taps
    weights[:, 1:] += (1.0 - frac)[:, None] * taps
    window_reads = lead + j[:, None] + 1 - np.arange(ANTIALIAS_TAPS + 1)
    # Phases in groups reading about 2 * TAPS input samples each; a group's part
    # is the band of the (width x phases) kernel matrix they read, the rest zeros
    groups = -(-phases // max(2 * ANTIALIAS_TAPS * up // down, 1))
    parts = []
    for group in np.array_split(np.arange(phases), groups):
        first, last = int(group[0]), int(group[-1])
        reads = slice(lead + int(j[first]) - ANTIALIAS_TAPS + 1, lead + int(j[last]) + 2)
        part = np.zeros((reads.stop - reads.start, len(group)))
        part[window_reads[group] - reads.start, group[:, None] - first] = weights[group]
        part.setflags(write=False)
        parts.append((reads, slice(first, last + 1), part))
    return _Polyphase(row, lead, width, phases, tuple(parts))


class Resampler:
    """One recording of ``total`` samples at ``source_rate_hz``, fed in
    consecutive chunks and converted to ``target_rate_hz``.

    The rates are equal (chunks pass through unchanged) or both integers
    with ``0 < target_rate_hz < source_rate_hz``; any other pair raises
    ValueError here, before a chunk is read. Downsampling low-pass filters
    (anti-aliasing, cutoff at 0.45x the new rate) and samples the filtered
    waveform on the new grid by linear interpolation. With reduced ratio
    ``up/down`` (44.1 -> 8 kHz is 80/441), both steps are one 65-tap kernel
    per output phase, applied to rows of input as matrix products. For
    samples in [-1, 1] the result is within 1e-9 absolute of the tests'
    ``resample_oracle``, which convolves the whole recording with the FIR
    and then interpolates it linearly at the new sample times; the gap is
    mostly the rounding of those times, which the polyphase phases hold
    exactly. The output has ``round(total * ratio)`` samples, at least one.

    Each :meth:`feed` returns the output its chunk completes, possibly
    none. Joined, the outputs are bit for bit those of one feed of the
    whole recording: rows are multiplied in blocks of a fixed number of
    rows (set by :data:`RESAMPLE_BLOCK_MACS`) counted from the first, so no
    block depends on the chunking.

    What a block of rows reads is copied into one buffer the resampler
    owns, of ``(block - 1) * row + width`` samples at most, so it keeps no
    reference to a chunk once :meth:`feed` returns.
    """

    def __init__(self, source_rate_hz: float, target_rate_hz: float, total: int) -> None:
        downsampling = (
            0 < target_rate_hz < source_rate_hz
            and float(source_rate_hz).is_integer()
            and float(target_rate_hz).is_integer()
        )
        if not (downsampling or target_rate_hz == source_rate_hz):
            raise ValueError(
                f"cannot resample from {source_rate_hz} Hz to target_rate_hz "
                f"{target_rate_hz}: the rates must be equal, or integers with "
                "0 < target < source"
            )
        if total < 1:
            raise ValueError("cannot resample an empty signal")
        self.total = total
        self.fed = 0
        self._plan = plan = (
            _polyphase(float(source_rate_hz), float(target_rate_hz)) if downsampling else None
        )
        if plan:
            self._n_out = max(int(round(total * (target_rate_hz / source_rate_hz))), 1)
            # output rows done; the buffer holds the window of row ``_rows``
            # from its start, whose first ``_held`` samples have arrived (the
            # first window starts with ``lead`` zeros)
            self._rows = 0
            rows = min(plan.block, -(-self._n_out // plan.phases))
            self._buffer = np.zeros((rows - 1) * plan.row + plan.width)
            self._held = plan.lead

    def feed(self, chunk: NDArray[np.float64]) -> NDArray[np.float64]:
        """Take the next chunk of the recording; return the output it
        completes, checked by :func:`require_finite`."""
        if self.fed + len(chunk) > self.total:
            raise ValueError(
                f"chunk of {len(chunk)} samples runs past the {self.total} samples "
                f"of the recording ({self.fed} already passed)"
            )
        first = self.fed
        self.fed += len(chunk)
        plan = self._plan
        if plan is None:
            return require_finite(chunk)

        row, lead, width, phases, parts = plan
        block = plan.block
        left = -(-self._n_out // phases) - self._rows
        arrived = self.fed + lead - self._rows * row
        if self.fed == self.total:
            ready = left  # the tail of the last windows is zeros
        else:
            # whole blocks only; the last, partial one waits for the last chunk
            fit = (arrived - width) // row + 1 if arrived >= width else 0
            ready = min(fit, left) // block * block
        out = np.empty((ready, phases))
        buffer = self._buffer
        done = 0
        while True:
            # the chunk's samples from the buffer's end up to its capacity;
            # chunk index i is window position i + lead + first - _rows * row
            start = self._held - (lead + first - self._rows * row)
            take = max(min(len(chunk) - start, len(buffer) - self._held), 0)
            buffer[self._held : self._held + take] = chunk[start : start + take]
            self._held += take
            if done == ready:
                break
            rows = min(block, ready - done)
            span = (rows - 1) * row + width
            buffer[self._held : span] = 0.0  # past the recording's last sample
            windows = np.lib.stride_tricks.sliding_window_view(buffer[:span], width)[::row]
            block_windows = np.ascontiguousarray(windows)
            for reads, writes, part in parts:
                np.matmul(block_windows[:, reads], part, out=out[done : done + rows, writes])
            # the next window starts ``rows * row`` samples on, maybe past what has arrived
            kept = max(self._held - rows * row, 0)
            buffer[:kept] = buffer[rows * row : rows * row + kept]
            self._held = kept
            self._rows += rows
            done += rows
        return require_finite(out.reshape(-1)[: self._n_out - (self._rows - ready) * phases])


def resample(s: Signal, target_rate_hz: float) -> Signal:
    """A :class:`Resampler` fed ``s`` as one chunk (``s`` itself at its own
    rate), kept while the benchmark's tracer wraps it."""
    samples = Resampler(s.sample_rate_hz, target_rate_hz, len(s)).feed(s.samples)
    return s if samples is s.samples else Signal(samples, target_rate_hz)


def _fft_length(n: int) -> int:
    """Smallest 2**a * 3**b * 5**c >= n, a length numpy's mixed-radix FFT
    transforms about as fast as a power of two."""
    best = 1 << (n - 1).bit_length()
    fives = 1
    while fives < best:
        odd = fives
        while odd < best:
            # odd times the smallest power of two that reaches n
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        fives *= 5
    return best


def find_delay(
    reference: NDArray[np.float64], candidate: NDArray[np.float64], search_window_samples: int
) -> int:
    """Lag of ``candidate`` relative to ``reference``, two one-dimensional
    float arrays at one rate, by cross-correlation. A non-finite sample
    raises :func:`require_finite`'s ValueError.

    Returns the integer lag d with |d| <= ``search_window_samples`` that
    maximizes the cross-correlation; positive d means the candidate lags
    the reference. Ties go to the smallest |d|, then negative over positive.

    The correlation is an FFT product zero-padded to the next 5-smooth
    length (160 000 points for two 80 000-sample inputs), whose rounding
    decides between lags that tie or nearly tie.

    Finite samples near the float limit can overflow the correlation; no lag
    is chosen from it, and OverflowError is raised instead.
    """
    require_finite(reference)
    require_finite(candidate)
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
    nfft = _fft_length(n + m - 1)  # no circular wrap
    # finite samples overflow only near the float limit, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        spectrum = np.fft.rfft(candidate, nfft)
        spectrum *= np.conj(np.fft.rfft(reference, nfft))
        circular = np.fft.irfft(spectrum, nfft)  # lag d at index d mod nfft
    corr = np.concatenate((circular[nfft - w :], circular[: w + 1]))
    lags = np.arange(-w, w + 1)

    best = np.max(corr)
    if not np.isfinite(best):
        raise OverflowError(
            "the alignment cross-correlation overflowed: the samples are too large to align"
        )
    tied = lags[corr == best]
    return int(min(tied, key=lambda d: (abs(d), d >= 0)))
