"""Sleep/transmit state machine simulation with energy accounting,
duty-cycle and savings computation, and battery-lifetime projection.

The simulator is event-driven over segment boundaries (exact interval
arithmetic). The wake-signal bridge finds the comparator's low runs with
array edge detection, chunk by chunk, and then works per run, not per
sample. All inputs are immutable, so independent scenario/profile sweeps
can run concurrently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
import numpy as np

from .frontend import BinarySignal

__all__ = [
    "NodeState",
    "PowerProfile",
    "ScenarioSegment",
    "Scenario",
    "NodeConfig",
    "TraceInterval",
    "SimTrace",
    "simulate",
    "simulate_from_wake",
    "WakeRuns",
    "savings_percent",
    "battery_lifetime_days",
    "build_urban_scenario",
    "BUILTIN_PROFILES",
]

URBAN_SOUND_SECONDS = 20.0
URBAN_SILENCE_SECONDS = 100.0
URBAN_CATEGORIES = ("human", "nature", "music", "mechanical")


class NodeState(str, enum.Enum):
    SLEEP = "sleep"
    TRANSMIT = "transmit"


@dataclass(frozen=True)
class PowerProfile:
    """Total node draw per state for one hardware permutation."""

    name: str
    transmit_mw: float
    sleep_mw: float

    def __post_init__(self) -> None:
        if self.transmit_mw <= 0:
            raise ValueError(f"{self.name}: transmit_mw must be positive")
        if self.sleep_mw < 0:
            raise ValueError(f"{self.name}: sleep_mw must be non-negative")
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
        if not (self.duration_s > 0):
            raise ValueError(f"segment duration must be positive, got {self.duration_s}")


@dataclass(frozen=True)
class Scenario:
    """Ordered acoustic timeline the node is exposed to."""

    segments: tuple[ScenarioSegment, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise ValueError("scenario has no segments")

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
        if self.hold_time_s < 0:
            raise ValueError(f"hold_time_s must be non-negative, got {self.hold_time_s}")
        if self.battery_mah <= 0 or self.battery_v <= 0:
            raise ValueError("battery capacity and voltage must be positive")


@dataclass(frozen=True)
class TraceInterval:
    t_start_s: float
    t_end_s: float
    state: NodeState


@dataclass(frozen=True)
class SimTrace:
    """Simulated state timeline with its integrated energy figures."""

    timeline: tuple[TraceInterval, ...]
    energy_mwh: float
    duty_cycle: float
    avg_power_mw: float

    @property
    def duration_s(self) -> float:
        return self.timeline[-1].t_end_s - self.timeline[0].t_start_s


def _merge_intervals(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _trace_from_wake_intervals(
    wake: list[tuple[float, float]], total_s: float, config: NodeConfig
) -> SimTrace:
    """Build the full timeline and integrate energy over exact intervals."""
    profile = config.profile
    timeline: list[TraceInterval] = []
    cursor = 0.0
    for start, end in wake:
        if start > cursor:
            timeline.append(TraceInterval(cursor, start, NodeState.SLEEP))
        timeline.append(TraceInterval(start, end, NodeState.TRANSMIT))
        cursor = end
    if cursor < total_s or not timeline:
        timeline.append(TraceInterval(cursor, total_s, NodeState.SLEEP))

    transmit_s = sum(end - start for start, end in wake)
    sleep_s = total_s - transmit_s
    energy_mws = transmit_s * profile.transmit_mw + sleep_s * profile.sleep_mw
    energy_mwh = energy_mws / 3600.0
    duty = transmit_s / total_s
    avg_power_mw = energy_mwh / (total_s / 3600.0)
    return SimTrace(tuple(timeline), energy_mwh, duty, avg_power_mw)


def simulate(scenario: Scenario, config: NodeConfig) -> SimTrace:
    """Run the node over a scenario: transmit during sound, plus hold time.

    The node transmits throughout every sound segment and for
    ``config.hold_time_s`` after it ends (capped at scenario end, merged
    with any wake interval it runs into); it sleeps otherwise. Energy is
    integrated exactly per interval.
    """
    total_s = scenario.duration_s
    wake: list[tuple[float, float]] = []
    t = 0.0
    for seg in scenario.segments:
        if seg.sound_present:
            wake.append((t, min(t + seg.duration_s + config.hold_time_s, total_s)))
        t += seg.duration_s
    return _trace_from_wake_intervals(_merge_intervals(wake), total_s, config)


class WakeRuns:
    """Low runs of a comparator output that arrives in consecutive chunks.

    Edge detection carries two things across a chunk boundary: whether the
    previous chunk ended low, and the sample offset of the next chunk.
    """

    def __init__(self, sample_rate_hz: float) -> None:
        self.sample_rate_hz = sample_rate_hz
        self._samples = 0
        self._ended_low = False
        # indices where the level changes, alternating: run start, run end
        # (one past its last low sample), run start, ...
        self._edges: list[np.ndarray] = []

    def feed(self, wake: BinarySignal) -> None:
        """Take the next chunk of the comparator output."""
        if wake.sample_rate_hz != self.sample_rate_hz:
            raise ValueError(
                f"chunk sample rate {wake.sample_rate_hz} is not {self.sample_rate_hz}"
            )
        # with the previous chunk's last level in front, change index i is
        # the chunk's first sample at the new level
        low = np.empty(len(wake) + 1, dtype=bool)
        low[0] = self._ended_low
        np.invert(wake.samples, out=low[1:])
        self._edges.append(np.flatnonzero(np.diff(low.view(np.int8))) + self._samples)
        self._ended_low = bool(low[-1])
        self._samples += len(wake)

    def trace(self, config: NodeConfig) -> SimTrace:
        """Run the node over every chunk fed so far, as :func:`simulate_from_wake`."""
        if self._samples == 0:
            raise ValueError("wake signal is empty")
        dt = 1.0 / self.sample_rate_hz
        total_s = self._samples * dt
        # a run still low at the last sample ends one past it
        closing = [np.array([self._samples])] if self._ended_low else []
        edges = np.concatenate(self._edges + closing)
        starts = edges[0::2] * dt
        # the hold runs from the first high sample; a run still low at the
        # last sample ends at total_s (len * dt + hold is never below total_s)
        ends = np.minimum(edges[1::2] * dt + config.hold_time_s, total_s)
        intervals = list(zip(starts.tolist(), ends.tolist()))
        return _trace_from_wake_intervals(_merge_intervals(intervals), total_s, config)


def simulate_from_wake(wake: BinarySignal, config: NodeConfig) -> SimTrace:
    """Run the node from a comparator output signal.

    Low samples (active-low interrupt) mark transmit; each low run is
    extended by the hold time after its release edge. Energy accounting
    is identical to :func:`simulate`. This is :class:`WakeRuns` fed the
    whole signal as one chunk.
    """
    runs = WakeRuns(wake.sample_rate_hz)
    runs.feed(wake)
    return runs.trace(config)


def savings_percent(profile: PowerProfile) -> float:
    """Idle power saved by sleeping instead of transmitting, in percent."""
    return 100.0 * (1.0 - profile.sleep_mw / profile.transmit_mw)


def battery_lifetime_days(avg_power_mw: float, battery_mah: float, battery_v: float) -> float:
    """Days a battery of the given capacity sustains the average draw."""
    if avg_power_mw <= 0 or battery_mah <= 0 or battery_v <= 0:
        raise ValueError("power, capacity, and voltage must all be positive")
    energy_wh = battery_mah / 1000.0 * battery_v
    return energy_wh / (avg_power_mw / 1000.0) / 24.0


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
