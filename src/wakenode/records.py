"""The input records of every command, in plain Python, without numpy.

A run config's sections, a scenario's segments and a CSV table's rows are
built as these dataclasses (see :mod:`wakenode.config`), and the CLI maps
the error classes here to its diagnostic codes. None of them needs an
array, so parsing the inputs, ranking microphones (:func:`rank_microphones`)
and building the urban scenario load no numpy. This module is their one
home: read each as ``wakenode.X`` or ``wakenode.records.X``. The modules
that compute with a record import it from here, but do not export it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from typing import Sequence

__all__ = [
    "ADC_MAX",
    "AlignmentError",
    "BUILTIN_PROFILES",
    "CalibrationDomainError",
    "CalPoint",
    "CircuitParams",
    "FitError",
    "MicCandidate",
    "MicConfiguration",
    "NodeConfig",
    "PowerProfile",
    "RankedMic",
    "Scenario",
    "ScenarioSegment",
    "WavFormatError",
    "WelchParams",
    "Window",
    "build_urban_scenario",
    "rank_microphones",
]

ADC_MAX = 1023  # 10-bit converter

URBAN_SOUND_SECONDS = 20.0
URBAN_SILENCE_SECONDS = 100.0
URBAN_CATEGORIES = ("human", "nature", "music", "mechanical")


class WavFormatError(ValueError):
    """The file is not a WAV variant this tool accepts."""


class AlignmentError(ValueError):
    """The recording cannot be aligned to the source within its extent."""


class CalibrationDomainError(ValueError):
    """Input lies outside the curve's domain of validity."""


class FitError(RuntimeError):
    """Fitting failed to produce a usable curve."""


@dataclass(frozen=True)
class CalPoint:
    """One calibration measurement: ADC reading vs reference meter dB."""

    adc_value: float
    spl_db: float

    def __post_init__(self) -> None:
        if not (0 <= self.adc_value <= ADC_MAX):
            raise ValueError(
                f"adc_value must be within [0, {ADC_MAX}], got {self.adc_value}"
            )


class Window(str, enum.Enum):
    HAMMING = "hamming"
    HANN = "hann"
    RECTANGULAR = "rectangular"


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

    # eligible first; a stable sort keeps table order among equal keys
    flagged.sort(key=lambda cr: (bool(cr[1]), -cr[0].accuracy, cr[0].power_mw))
    return [
        RankedMic(cand, eligible=not r, reasons=r, rank=None if r else i + 1)
        for i, (cand, r) in enumerate(flagged)
    ]


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
        # a product that underflows to 0 or a ratio that overflows fails here
        tau = self.r5_ohm * self.c5_f
        if not (0 < tau < math.inf):
            raise ValueError(f"r5_ohm * c5_f must be positive and finite, got {tau}")
        gain = 1.0 + self.rf_ohm / self.r1_ohm
        if not math.isfinite(gain):
            raise ValueError(f"1 + rf_ohm / r1_ohm must be finite, got {gain}")


@dataclass(frozen=True)
class PowerProfile:
    """Total node draw per state for one hardware permutation."""

    name: str
    transmit_mw: float
    sleep_mw: float

    def __post_init__(self) -> None:
        if not (0 < self.transmit_mw < math.inf):
            raise ValueError(f"{self.name}: transmit_mw must be finite and positive")
        if not (0 <= self.sleep_mw < math.inf):
            raise ValueError(f"{self.name}: sleep_mw must be finite and non-negative")
        if self.sleep_mw >= self.transmit_mw:
            raise ValueError(
                f"{self.name}: sleep power {self.sleep_mw} mW must be below "
                f"transmit power {self.transmit_mw} mW"
            )


@dataclass(frozen=True)
class ScenarioSegment:
    duration_s: float
    sound_present: bool
    label: str = ""

    def __post_init__(self) -> None:
        if not (0 < self.duration_s < math.inf):
            raise ValueError(f"segment duration must be finite and positive, got {self.duration_s}")


@dataclass(frozen=True)
class Scenario:
    """Ordered acoustic timeline the node is exposed to."""

    segments: tuple[ScenarioSegment, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise ValueError("scenario has no segments")
        if not math.isfinite(self.duration_s):
            raise ValueError(f"total duration_s must be finite, got {self.duration_s}")
        # the power model divides by the duration in hours
        if self.duration_s / 3600.0 == 0:
            raise ValueError(
                f"total duration_s {self.duration_s} is too short: its hours underflow to zero"
            )

    @property
    def duration_s(self) -> float:
        return sum(seg.duration_s for seg in self.segments)


@dataclass(frozen=True)
class NodeConfig:
    """Node hardware profile plus wake-hold and battery parameters."""

    profile: PowerProfile
    hold_time_s: float = 0.0
    battery_mah: float = 2900.0
    battery_v: float = 3.3

    def __post_init__(self) -> None:
        if not (0 <= self.hold_time_s < math.inf):
            raise ValueError(f"hold_time_s must be finite and non-negative, got {self.hold_time_s}")
        if not (0 < self.battery_mah < math.inf and 0 < self.battery_v < math.inf):
            raise ValueError("battery capacity and voltage must be finite and positive")


def build_urban_scenario() -> Scenario:
    """Four sound categories, each 20 s of audio then 100 s of silence (480 s)."""
    segments: list[ScenarioSegment] = []
    for label in URBAN_CATEGORIES:
        segments.append(ScenarioSegment(URBAN_SOUND_SECONDS, True, label))
        segments.append(ScenarioSegment(URBAN_SILENCE_SECONDS, False, f"{label}-silence"))
    return Scenario(tuple(segments))


# Whole-prototype measurements, bit-exact as recorded.
BUILTIN_PROFILES: dict[str, PowerProfile] = {
    p.name: p
    for p in (
        PowerProfile("wifi", transmit_mw=357.59, sleep_mw=16.76),
        PowerProfile("ble", transmit_mw=140.86, sleep_mw=25.23),
        PowerProfile("zigbee", transmit_mw=160.43, sleep_mw=16.83),
        PowerProfile("zigbee-standalone", transmit_mw=34.30, sleep_mw=1.00),
    )
}
