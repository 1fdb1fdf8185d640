"""Behavioral models of the analog chain: non-inverting amplifier,
peak-hold envelope detector, and the active-low wake comparator.

The models are input/output behavioral, not device-level: the comparator
transistors are reduced to a pointwise threshold, and diodes default to
ideal (zero drop) with a configurable constant drop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np
from numpy.typing import NDArray

from .signals import Signal

__all__ = [
    "CircuitParams",
    "BinarySignal",
    "amplifier_gain",
    "common_mode",
    "amplify",
    "EnvelopeCarry",
    "envelope_detect",
    "stream_chunk_samples",
    "threshold_out",
    "gain_db",
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
# Samples per chunk of a recording streamed through the chain, before
# rounding down to whole scan blocks: 1 MiB per float64 stage.
STREAM_CHUNK_SAMPLES = 2 * SCAN_BLOCK


@dataclass(frozen=True)
class CircuitParams:
    """Component values of the prototype's analog board that enter the
    behavioral equations.

    The gain path uses rf/r1, the envelope detector r5/c5/r6. The board's
    bias and coupling parts (r2..r4, c1..c4) shape nothing these models
    compute, so they are not parameters. rf_ohm may be zero (a wire),
    collapsing the gain stage to a unity follower.
    """

    vdd_v: float = 3.3
    rf_ohm: float = 1e5
    r1_ohm: float = 1e3
    r5_ohm: float = 1e7
    r6_ohm: float = 1e5
    c5_f: float = 9e-6
    diode_drop_v: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.name in ("diode_drop_v", "rf_ohm"):
                continue
            value = getattr(self, f.name)
            if not (value > 0):
                raise ValueError(f"{f.name} must be positive, got {value}")
        if self.rf_ohm < 0:
            raise ValueError(f"rf_ohm must be non-negative, got {self.rf_ohm}")
        if self.diode_drop_v < 0:
            raise ValueError(f"diode_drop_v must be non-negative, got {self.diode_drop_v}")


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

    @property
    def duration_s(self) -> float:
        return len(self) / self.sample_rate_hz


def amplifier_gain(p: CircuitParams) -> float:
    """Voltage gain of the non-inverting stage: 1 + rf/r1."""
    return 1.0 + p.rf_ohm / p.r1_ohm


def common_mode(p: CircuitParams) -> float:
    """DC operating point of the amplifier output: half the supply."""
    return p.vdd_v / 2.0


def amplify(s: Signal, p: CircuitParams) -> Signal:
    """Amplify a zero-mean microphone waveform around the common mode.

    Output clamps to the supply rails [0, vdd], which models clipping of
    large inputs.
    """
    if len(s) == 0:
        raise ValueError("cannot amplify an empty signal")
    # gain, offset and clip in one buffer
    out = amplifier_gain(p) * s.samples
    out += common_mode(p)
    np.clip(out, 0.0, p.vdd_v, out=out)
    return Signal(out, s.sample_rate_hz)


def _decay(p: CircuitParams, sample_rate_hz: float) -> float:
    """Per-sample decay factor of the detector state: exp(-1 / (fs * r5 * c5))."""
    return math.exp(-1.0 / (sample_rate_hz * p.r5_ohm * p.c5_f))


def _scan_block(decay: float) -> int:
    """Block length of the block prefix-max scan, or 0 where it does not run."""
    if decay in (0.0, 1.0):
        return 0
    k = -math.log(decay)
    if k * SCAN_MIN_BLOCK > SCAN_MAX_EXPONENT:
        return 0
    return min(SCAN_BLOCK, int(SCAN_MAX_EXPONENT / k))


def stream_chunk_samples(p: CircuitParams, sample_rate_hz: float) -> int:
    """Samples per chunk when a recording is streamed through :func:`envelope_detect`.

    :data:`STREAM_CHUNK_SAMPLES` rounded down to whole scan blocks, so the
    block boundaries, and with them the output's bits, are those of one
    call on the whole recording.
    """
    block = _scan_block(_decay(p, sample_rate_hz))
    return STREAM_CHUNK_SAMPLES // block * block if block else STREAM_CHUNK_SAMPLES


@dataclass
class EnvelopeCarry:
    """Detector state :func:`envelope_detect` carries from one chunk of a
    recording to the next.

    ``level`` is the last level of the block scan, or the running maximum
    when ``decay`` rounds to 1. ``tail`` holds the log-step scan's last
    ``2**passes - 1`` input samples, every lag a pass reads back across the
    chunk boundary.
    """

    level: float = 0.0
    tail: NDArray[np.float64] = field(default_factory=lambda: np.empty(0))


def envelope_detect(s: Signal, p: CircuitParams, carry: EnvelopeCarry | None = None) -> Signal:
    """Peak detector with exponential decay, followed by the output divider.

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
    with ``np.maximum.accumulate`` and scaled back, carrying the last level
    into the next block; ``decay`` rounding to 1 needs no scan. When that
    block would be shorter than :data:`SCAN_MIN_BLOCK` samples, a log-step
    scan takes its place: whole-array passes at lags 1, 2, 4, ... until
    ``decay**lag`` underflows, after about ``745 / k`` lags. The output
    matches the per-sample recurrence to a relative 1e-9 of the detector
    state wherever that is a normal float (above ~2.2e-308).

    A recording can be passed in consecutive chunks that share one
    ``carry``; with chunks of :func:`stream_chunk_samples` samples (the last
    may be shorter) the outputs joined are bit for bit the output of one
    call on the whole recording. Without ``carry`` the call is a whole
    recording.
    """
    if len(s) == 0:
        raise ValueError("cannot detect the envelope of an empty signal")
    if carry is None:
        carry = EnvelopeCarry()
    decay = _decay(p, s.sample_rate_hz)
    block = _scan_block(decay)
    # the scan runs in place in the output buffer, behind the carried tail
    # of the log-step scan (empty for the other scans)
    carried = len(carry.tail)
    state = np.empty(carried + len(s))
    state[:carried] = carry.tail
    np.subtract(s.samples, p.diode_drop_v, out=state[carried:])

    # level[-1] = 0 is folded into the first sample of the scans that carry
    # a level: a level below zero gives the same clamped output as zero
    if decay == 1.0:
        # fs * tau so large that decay rounds to 1: a plain running max
        state[0] = max(state[0], carry.level)
        np.maximum.accumulate(state, out=state)
        carry.level = state[-1]
    elif block:
        ramp = np.exp(-math.log(decay) * np.arange(block))
        level = carry.level
        for start in range(0, len(state), block):
            chunk = state[start : start + block]
            scale = ramp[: len(chunk)]
            chunk *= scale
            chunk[0] = max(chunk[0], level * decay)
            np.maximum.accumulate(chunk, out=chunk)
            chunk /= scale
            level = chunk[-1]
        carry.level = level
    else:
        # short time constant: after the pass at lag d every sample holds
        # the max over lags 0..2d-1, so the last 2d-1 inputs are carried;
        # decay == 0.0 (exp underflows) holds nothing from one sample to
        # the next, so the level is the drive
        lags, lag = [], 1
        while decay**lag != 0.0:
            lags.append(lag)
            lag *= 2
        keep = 2 * lags[-1] - 1 if lags else 0
        carry.tail = state[max(len(state) - keep, 0) :].copy()
        for lag in lags:
            np.maximum(state[lag:], state[:-lag] * decay**lag, out=state[lag:])
        state = state[carried:]

    state -= p.diode_drop_v
    np.maximum(state, 0.0, out=state)
    state *= p.r6_ohm / (p.r5_ohm + p.r6_ohm)
    return Signal(state, s.sample_rate_hz)


def threshold_out(envelope: Signal, v_threshold: float) -> BinarySignal:
    """Active-low wake output: grounded while the envelope exceeds the threshold.

    High (V_dd) means quiet; low means the microcontroller interrupt fires.
    No hysteresis is modeled.
    """
    if not (v_threshold > 0):
        raise ValueError(f"v_threshold must be positive, got {v_threshold}")
    high = envelope.samples <= v_threshold
    return BinarySignal(high, envelope.sample_rate_hz)


def gain_db(gain_vv: float) -> float:
    """Voltage gain expressed in decibels: 20 log10(gain).

    Public because the paper states gains in dB (the default 101 V/V is 40.1 dB)."""
    if not (gain_vv > 0):
        raise ValueError(f"gain must be positive, got {gain_vv}")
    return 20.0 * math.log10(gain_vv)
