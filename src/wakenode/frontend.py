"""Behavioral models of the analog chain: non-inverting amplifier,
peak-hold envelope detector, and the active-low wake comparator.

The models are input/output behavioral, not device-level: the comparator
transistors are reduced to a pointwise threshold, and diodes default to
ideal (zero drop) with a configurable constant drop.

The commands run the stages on plain arrays in their own buffers. The
functions over whole signals, and :class:`BinarySignal`, are kept while
the benchmark's tracer wraps them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .records import CircuitParams
from .signals import Signal

__all__ = [
    "BinarySignal",
    "amplifier_gain",
    "common_mode",
    "amplify",
    "amplify_into",
    "EnvelopeDetector",
    "envelope_detect",
    "threshold_out",
    "threshold_into",
]

# Block prefix-max scan of the envelope recurrence: samples per block, and
# the largest exponent k * m of the exp(k m) rescaling within one block
# (exp(600) ~ 4e260 leaves ~1e47 of headroom for the input amplitude).
# Below SCAN_MIN_BLOCK samples a block costs more in Python overhead than
# the log-step scan does in whole-array passes (crossover measured at
# ~200 samples on 480 s of 16 kHz audio).
SCAN_BLOCK = 65_536
SCAN_MAX_EXPONENT = 600.0
SCAN_MIN_BLOCK = 200


@dataclass(frozen=True)
class BinarySignal:
    """Two-level waveform; True is the high rail (V_dd), False is ground."""

    samples: NDArray[np.bool_]
    sample_rate_hz: float

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=bool).copy()
        if arr.ndim != 1:
            raise ValueError(f"samples must be one-dimensional, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        if not (self.sample_rate_hz > 0):
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")

    def __len__(self) -> int:
        return int(self.samples.size)


def amplifier_gain(p: CircuitParams) -> float:
    """Voltage gain of the non-inverting stage: 1 + rf/r1."""
    return 1.0 + p.rf_ohm / p.r1_ohm


def common_mode(p: CircuitParams) -> float:
    """DC operating point of the amplifier output: half the supply."""
    return p.vdd_v / 2.0


def amplify_into(
    x: NDArray[np.float64], p: CircuitParams, out: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Amplify the zero-mean microphone samples ``x`` around the common
    mode into ``out``, which may be ``x``; returns ``out``.

    Output clamps to the supply rails [0, vdd], which models clipping of
    large inputs.
    """
    # gain, offset and clip in one buffer
    np.multiply(x, amplifier_gain(p), out=out)
    out += common_mode(p)
    np.clip(out, 0.0, p.vdd_v, out=out)
    return out


def amplify(s: Signal, p: CircuitParams) -> Signal:
    """:func:`amplify_into` of one whole signal, kept while the benchmark's tracer wraps it."""
    if len(s) == 0:
        raise ValueError("cannot amplify an empty signal")
    return Signal(amplify_into(s.samples, p, np.empty(len(s))), s.sample_rate_hz)


def _scan_block(decay: float) -> int:
    """Block length of the block prefix-max scan, or 0 where it does not run."""
    if decay == 0.0:
        return 0
    if decay == 1.0:
        return SCAN_BLOCK  # k = 0: a ramp of ones, so a plain running max
    k = -math.log(decay)
    if k * SCAN_MIN_BLOCK > SCAN_MAX_EXPONENT:
        return 0
    return min(SCAN_BLOCK, int(SCAN_MAX_EXPONENT / k))


class EnvelopeDetector:
    """Peak detector with exponential decay, followed by the output
    divider, for one recording at ``sample_rate_hz`` fed in consecutive
    chunks.

    The internal state charges instantly to (input - diode drop) when that
    exceeds it and otherwise decays with time constant tau = r5 * c5, i.e.
    ``level[n] = max(x[n], level[n-1] * decay)`` from ``level[-1] = 0`` with
    ``decay = exp(-1 / (fs * tau))``. The output stage drops a second diode
    and divides by r6/(r5 + r6), which puts the quiescent level well under a
    1.2 V ADC reference. Output is clamped non-negative.

    The recurrence is evaluated as a block prefix-max scan rather than per
    sample: with ``k = -ln(decay)``, ``level[n] * exp(k n)`` is a running
    maximum of ``x[n] * exp(k n)``. Each block of at most
    :data:`SCAN_BLOCK` samples (and at most ``SCAN_MAX_EXPONENT / k``, so
    the scaled values stay far inside float64 range) is scaled, scanned
    with ``np.fmax.accumulate`` and scaled back, carrying the last level
    into the next block; where ``decay`` rounds to 1 the scaling is by ones,
    exactly, and the scan is a plain running maximum. When that
    block would be shorter than :data:`SCAN_MIN_BLOCK` samples, a log-step
    scan takes its place: whole-array passes at lags 1, 2, 4, ... until
    ``decay**lag`` underflows, after about ``745 / k`` lags. The output
    matches the per-sample recurrence to a relative 1e-9 of the detector
    state wherever that is a normal float (above ~2.2e-308).

    The block scan counts its blocks from the recording's first sample and
    keeps, from one chunk to the next, its place in the current block and
    that block's scaled running maximum, so a chunk takes up the block where
    the one before left it. The log-step scan keeps its last ``2**passes -
    1`` inputs, every lag a pass reads back, and scans them in front of the
    next chunk in a window of its own. Chunks of any length then give, joined,
    the bits of one feed of the whole recording. The block scan's ``exp(k
    m)`` ramp is built once, here, and the log-step scan's window and lagged
    products grow to the longest chunk fed, so a stream of chunks no longer
    than the first allocates nothing after it.
    """

    def __init__(self, circuit: CircuitParams, sample_rate_hz: float) -> None:
        self.circuit = circuit
        # per-sample decay of the detector state: exp(-1 / (fs * r5 * c5))
        self.decay = math.exp(-1.0 / (sample_rate_hz * circuit.r5_ohm * circuit.c5_f))
        self._block = _scan_block(self.decay)
        self._lags: list[int] = []
        if self._block:
            self._ramp = np.exp(-math.log(self.decay) * np.arange(self._block))
        else:
            # short time constant: after the pass at lag d every sample holds
            # the max over lags 0..2d-1, so the last 2d-1 inputs are carried;
            # decay == 0.0 (exp underflows) holds nothing from one sample to
            # the next, so the level is the drive
            lag = 1
            while self.decay**lag != 0.0:
                self._lags.append(lag)
                lag *= 2
        # the block scan's place in its block and scaled running max; a level
        # below zero gives the same clamped output as level[-1] = 0
        self._place = 0
        self._max = 0.0
        self._lead = 2 * self._lags[-1] - 1 if self._lags else 0
        # the carried inputs, the last _carried of them at its end
        self._tail = np.empty(self._lead)
        self._carried = 0
        self._window = self._lagged = np.empty(0)

    def feed(self, x: NDArray[np.float64]) -> NDArray[np.float64]:
        """Take the next chunk of the detector's input, overwrite ``x`` with
        its output and return it."""
        p, decay = self.circuit, self.decay
        x -= p.diode_drop_v

        block, start = self._block, 0
        while block and start < len(x):
            place = self._place
            part = x[start : start + block - place]
            scale = self._ramp[place : place + len(part)]
            part *= scale
            part[0] = max(part[0], self._max)
            # fmax differs from maximum only on NaN, which a scan of
            # finite samples never meets, and its scan runs ~20% faster
            np.fmax.accumulate(part, out=part)
            self._max = part[-1]
            part /= scale
            start += len(part)
            self._place = (place + len(part)) % block
            if self._place == 0:
                self._max = part[-1] * decay
        if self._lags:
            lead = self._lead
            if len(self._window) < lead + len(x):
                self._window, self._lagged = np.empty(lead + len(x)), np.empty(lead + len(x))
            window = self._window[: lead + len(x)]
            window[:lead] = self._tail
            window[lead:] = x
            scan = window[lead - self._carried :]
            self._carried = min(lead, len(scan))
            self._tail[lead - self._carried :] = scan[len(scan) - self._carried :]
            for lag in self._lags:
                if lag >= len(scan):
                    break
                lagged = np.multiply(scan[:-lag], decay**lag, out=self._lagged[: len(scan) - lag])
                np.maximum(scan[lag:], lagged, out=scan[lag:])
            x[:] = window[lead:]

        x -= p.diode_drop_v
        np.maximum(x, 0.0, out=x)
        x *= p.r6_ohm / (p.r5_ohm + p.r6_ohm)
        return x


def envelope_detect(s: Signal, p: CircuitParams) -> Signal:
    """An :class:`EnvelopeDetector` fed one whole signal, kept while the
    benchmark's tracer wraps it."""
    if len(s) == 0:
        raise ValueError("cannot detect the envelope of an empty signal")
    return Signal(EnvelopeDetector(p, s.sample_rate_hz).feed(s.samples.copy()), s.sample_rate_hz)


def threshold_into(
    envelope: NDArray[np.float64], v_threshold: float, out: NDArray[np.bool_]
) -> NDArray[np.bool_]:
    """Active-low wake output of the samples ``envelope`` into ``out``: True
    (high, V_dd, quiet) where the envelope is at or below the threshold,
    False (grounded: the microcontroller interrupt fires) where it exceeds
    it. No hysteresis is modeled. Returns ``out``."""
    return np.less_equal(envelope, v_threshold, out=out)


def threshold_out(envelope: Signal, v_threshold: float) -> BinarySignal:
    """:func:`threshold_into` of one whole signal, for a positive threshold;
    kept while the benchmark's tracer wraps it."""
    if not (v_threshold > 0):
        raise ValueError(f"v_threshold must be positive, got {v_threshold}")
    high = threshold_into(envelope.samples, v_threshold, np.empty(len(envelope), dtype=bool))
    return BinarySignal(high, envelope.sample_rate_hz)
