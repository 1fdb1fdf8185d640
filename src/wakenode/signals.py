"""Core waveform type plus resampling, delay alignment, and slicing.

Signals are immutable value objects: every operation returns a new
``Signal`` and never mutates its inputs, so they are safe to share
across threads.

Downsampling between integer rates is polyphase (Crochiere & Rabiner,
*Multirate Digital Signal Processing*, 1983, ch. 3): the anti-alias FIR
and the linear interpolation onto the new grid are folded into one
kernel per output phase, evaluated as a block of rows times a kernel
matrix. Its results are within 1e-9 absolute of the whole-signal
convolve-then-interpolate path, which other ratios still take. A
recording can be resampled in chunks that share a :class:`ResampleCarry`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.typing import ArrayLike, NDArray

__all__ = ["Signal", "ResampleCarry", "resample", "find_delay", "clip"]

# Anti-alias FIR used before decimation: windowed sinc, Hamming window.
ANTIALIAS_TAPS = 64
ANTIALIAS_CUTOFF_FRACTION = 0.45  # of the target rate

# Largest polyphase kernel matrix, in elements (2 MiB); a ratio needing more
# (44 101 -> 8000 Hz has 8000 phases: 353 M) takes the convolve path.
POLYPHASE_MAX_KERNEL = 1 << 18
# Multiply-adds per matrix product, which sets the rows in a block: 154 rows
# at 44.1 -> 8 kHz. OpenBLAS's output bits depend on a product's row count,
# so this value fixes the resampled samples' bits; changing it changes them.
RESAMPLE_BLOCK_MACS = 1 << 19

# find_delay correlates directly while len(candidate) * len(reference), the
# direct multiply-adds, is at most this many times nfft * log2(nfft), the
# FFT path's butterflies. Measured with 5-smooth FFT lengths (numpy 2.4,
# x86-64): the crossover is ~25x for lengths under ~1000 samples (equal
# lengths near 512) and ~13-16x for 10 000-50 000 x 150-300 samples, where
# the direct path then runs at most ~1.4x the FFT path's time.
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


@functools.lru_cache(maxsize=16)
def _polyphase(source_rate_hz: float, target_rate_hz: float) -> _Polyphase | None:
    """The polyphase plan from ``source_rate_hz`` down to ``target_rate_hz``,
    or None when the rates are not both integers or the matrix is too large."""
    if not (source_rate_hz.is_integer() and target_rate_hz.is_integer()):
        return None
    gcd = math.gcd(int(source_rate_hz), int(target_rate_hz))
    up, down = int(target_rate_hz) // gcd, int(source_rate_hz) // gcd
    copies = -(-(ANTIALIAS_TAPS + 1) // down)
    row, phases = copies * down, copies * up
    if (row + ANTIALIAS_TAPS) * phases > POLYPHASE_MAX_KERNEL:  # a bound on its size
        return None
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
    reads = lead + j[:, None] + 1 - np.arange(ANTIALIAS_TAPS + 1)
    kernel = np.zeros((width, phases))
    kernel[reads, np.arange(phases)[:, None]] = weights
    # Phases in groups reading about 2 * TAPS input samples each, so a
    # product skips most of the matrix's zeros
    groups = -(-phases // max(2 * ANTIALIAS_TAPS * up // down, 1))
    parts = []
    for group in np.array_split(np.arange(phases), groups):
        first, last = int(group[0]), int(group[-1])
        reads = slice(lead + int(j[first]) - ANTIALIAS_TAPS + 1, lead + int(j[last]) + 2)
        part = kernel[reads, first : last + 1].copy()
        part.setflags(write=False)
        parts.append((reads, slice(first, last + 1), part))
    return _Polyphase(row, lead, width, phases, tuple(parts))


@dataclass
class ResampleCarry:
    """Input :func:`resample` carries from one chunk of a recording to the next.

    ``total`` is the length of the whole recording, so the call that brings
    its last sample knows to add the zero-padded tail. ``pending`` holds the
    samples no finished block of rows has consumed (all of them on the
    convolve path), from the window start of output row ``rows``.
    """

    total: int
    fed: int = 0
    rows: int = 0
    pending: list[NDArray[np.float64]] = field(default_factory=list)


def resample(s: Signal, target_rate_hz: float, carry: ResampleCarry | None = None) -> Signal:
    """Convert ``s`` to ``target_rate_hz``.

    Downsampling low-pass filters first (anti-aliasing) and then samples
    the filtered waveform on the new grid via linear interpolation. Between
    integer rates whose reduced ratio ``up/down`` (44.1 -> 8 kHz is 80/441)
    needs a kernel matrix of at most :data:`POLYPHASE_MAX_KERNEL` elements,
    both steps are one 65-tap kernel per output phase, applied to rows of
    input as matrix products. For samples in [-1, 1] the result is within
    1e-9 absolute of filtering the whole signal with ``np.convolve`` and
    interpolating with ``np.interp``, which is what other ratios
    (non-integer rates, or 44 101 -> 8000 Hz) still do; the gap is mostly the
    rounding of the interpolation positions, which the polyphase phases
    hold exactly. Upsampling is plain linear interpolation. Equal rates
    return the signal unchanged, so the operation is idempotent per rate.
    The output has ``round(len * ratio)`` samples, at least one.

    A recording can be passed in consecutive chunks that share one
    ``carry``, made with the recording's length. Each call returns the
    output samples it completes, possibly none, and the joined outputs are
    bit for bit those of one call on the whole recording: rows are
    multiplied in blocks of a fixed number of rows (set by
    :data:`RESAMPLE_BLOCK_MACS`) counted from the first, so no block
    depends on the chunking. The convolve path keeps every chunk
    and resamples on the last one. Without ``carry`` the call is a whole
    recording.
    """
    if not (target_rate_hz > 0):
        raise ValueError(f"target_rate_hz must be positive, got {target_rate_hz}")
    if len(s) == 0:
        raise ValueError("cannot resample an empty signal")
    if carry is None:
        carry = ResampleCarry(len(s))
    if carry.fed + len(s) > carry.total:
        raise ValueError(
            f"chunk of {len(s)} samples runs past the {carry.total} samples "
            f"of the recording ({carry.fed} already passed)"
        )
    carry.fed += len(s)
    if target_rate_hz == s.sample_rate_hz:
        return s

    n_out = max(int(round(carry.total * (target_rate_hz / s.sample_rate_hz))), 1)
    plan = None
    if target_rate_hz < s.sample_rate_hz:
        plan = _polyphase(float(s.sample_rate_hz), float(target_rate_hz))
    if plan is None:
        carry.pending.append(s.samples)
        if carry.fed < carry.total:
            return Signal(np.empty(0), target_rate_hz)
        x = np.concatenate(carry.pending)
        carry.pending.clear()
        return Signal(_interp_resample(x, s.sample_rate_hz, target_rate_hz, n_out), target_rate_hz)
    return Signal(_polyphase_rows(plan, s.samples, carry, n_out), target_rate_hz)


def _polyphase_rows(
    plan: _Polyphase, samples: NDArray[np.float64], carry: ResampleCarry, n_out: int
) -> NDArray[np.float64]:
    """The output rows whose input windows ``carry`` now holds in full."""
    row, lead, width, phases, parts = plan
    if carry.fed == len(samples):
        carry.pending.append(np.zeros(lead))  # before the first sample
    carry.pending.append(samples)
    block = max(RESAMPLE_BLOCK_MACS // max(part.size for _, _, part in parts), 1)
    left = -(-n_out // phases) - carry.rows
    held = carry.fed + lead - carry.rows * row
    if carry.fed == carry.total:
        ready = left  # the tail of the last windows is zeros
        carry.pending.append(np.zeros(max((left - 1) * row + width - held, 0)))
    else:
        # whole blocks only; the last, partial one waits for the last call
        fit = (held - width) // row + 1 if held >= width else 0
        ready = min(fit, left) // block * block
    if ready <= 0:
        return np.empty(0)

    held_samples = np.concatenate(carry.pending)
    windows = np.lib.stride_tricks.sliding_window_view(held_samples, width)[::row]
    out = np.empty((ready, phases))
    for start in range(0, ready, block):
        stop = min(start + block, ready)
        block_windows = np.ascontiguousarray(windows[start:stop])
        for reads, writes, part in parts:
            np.matmul(block_windows[:, reads], part, out=out[start:stop, writes])
    carry.pending = [held_samples[ready * row :].copy()]
    done = carry.rows * phases
    carry.rows += ready
    return out.reshape(-1)[: n_out - done]


def _interp_resample(
    x: NDArray[np.float64], source_rate_hz: float, target_rate_hz: float, n_out: int
) -> NDArray[np.float64]:
    """Filter the whole signal (when downsampling), then interpolate onto the new grid."""
    ratio = target_rate_hz / source_rate_hz
    # Output sample k sits at time k / target; express it in source-sample units.
    positions = np.arange(n_out, dtype=np.float64) / ratio

    if target_rate_hz > source_rate_hz:
        src = x
        offset = 0.0
    else:
        kernel = _antialias_kernel(source_rate_hz, target_rate_hz)
        src = np.convolve(x, kernel, mode="full")
        offset = (ANTIALIAS_TAPS - 1) / 2.0  # group delay of the symmetric FIR

    grid = np.arange(src.size, dtype=np.float64)
    return np.interp(positions + offset, grid, src)


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


def find_delay(reference: Signal, candidate: Signal, search_window_samples: int) -> int:
    """Lag of ``candidate`` relative to ``reference`` by cross-correlation.

    Returns the integer lag d with |d| <= ``search_window_samples`` that
    maximizes the cross-correlation; positive d means the candidate lags
    the reference. Ties go to the smallest |d|, then negative over positive.

    Small inputs are correlated directly, so the tie rule is exact there.
    Above ``DIRECT_CORRELATE_COST_RATIO`` the correlation comes from an FFT
    product zero-padded to the next 5-smooth length (160 000 points for two
    80 000-sample inputs), whose rounding decides between lags that tie or
    nearly tie.
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
    nfft = _fft_length(n + m - 1)  # no circular wrap
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
