"""Sleep/transmit state machine simulation with energy accounting,
duty-cycle and savings computation, and battery-lifetime projection.

:func:`simulate` takes wake intervals from a scenario's sound segments,
:class:`WakeRuns` from a comparator output's low runs, found chunk by
chunk with array edge detection. Both merge them with array operations and
integrate energy exactly; the trace holds the transmit intervals as one
array and the sleep/transmit timeline is derived from it. All inputs are
immutable, so independent scenario/profile sweeps can run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np
from numpy.typing import NDArray

from .frontend import BinarySignal

__all__ = [
    "PowerProfile",
    "ScenarioSegment",
    "Scenario",
    "NodeConfig",
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


@dataclass(frozen=True, eq=False)
class SimTrace:
    """Transmit intervals over ``[0, total_s]`` with their integrated energy figures.

    ``wake_s`` is a read-only ``(n, 2)`` array of sorted, disjoint
    ``[start, end)`` transmit intervals in seconds; the node sleeps between.
    """

    wake_s: NDArray[np.float64]
    total_s: float
    energy_mwh: float
    duty_cycle: float
    avg_power_mw: float

    def timeline(self) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.bool_]]:
        """The contiguous state timeline as ``(t_start, t_end, transmit)`` rows.

        The sleep gaps go around the transmit rows. A sleep gap of zero length
        is dropped, a transmit row never is; no wake interval gives the one
        sleep row ``[0, total_s)``.
        """
        bounds = np.concatenate(([0.0], self.wake_s.ravel(), [self.total_s]))
        transmit = np.zeros(len(bounds) - 1, dtype=bool)
        transmit[1::2] = True
        keep = transmit | (bounds[1:] > bounds[:-1])
        return bounds[:-1][keep], bounds[1:][keep], transmit[keep]


def _trace(
    starts: NDArray[np.float64], ends: NDArray[np.float64], total_s: float, config: NodeConfig
) -> SimTrace:
    """Merge wake intervals and integrate energy over them exactly.

    ``starts`` never decrease, so no sort is needed: the running max of
    ``ends`` is how far the intervals so far reach, and interval i opens a
    merged one where it starts past that reach (equal starts always merge).
    """
    reach = np.maximum.accumulate(ends)
    opens = np.ones(len(starts), dtype=bool)
    opens[1:] = starts[1:] > reach[:-1]
    # a merged interval ends where the next one opens, or at the last interval
    wake_s = np.column_stack((starts[opens], reach[np.roll(opens, -1)]))
    wake_s.flags.writeable = False

    profile = config.profile
    # builtin sum over Python floats, in order, as a loop over the intervals adds
    transmit_s = sum((wake_s[:, 1] - wake_s[:, 0]).tolist())
    sleep_s = total_s - transmit_s
    energy_mws = transmit_s * profile.transmit_mw + sleep_s * profile.sleep_mw
    energy_mwh = energy_mws / 3600.0
    duty = transmit_s / total_s
    avg_power_mw = energy_mwh / (total_s / 3600.0)
    return SimTrace(wake_s, total_s, energy_mwh, duty, avg_power_mw)


def simulate(scenario: Scenario, config: NodeConfig) -> SimTrace:
    """Run the node over a scenario: transmit during sound, plus hold time.

    The node transmits throughout every sound segment and for
    ``config.hold_time_s`` after it ends (capped at scenario end, merged
    with any wake interval it runs into); it sleeps otherwise. Energy is
    integrated exactly per interval.
    """
    total_s = scenario.duration_s
    durations = np.array([seg.duration_s for seg in scenario.segments])
    sound = np.array([seg.sound_present for seg in scenario.segments], dtype=bool)
    # cumsum adds one segment at a time, left to right, as a running total would
    seg_end = np.cumsum(durations)
    seg_start = np.concatenate(([0.0], seg_end[:-1]))
    ends = np.minimum(seg_end[sound] + config.hold_time_s, total_s)
    return _trace(seg_start[sound], ends, total_s, config)


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
        return _trace(starts, ends, total_s, config)


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
    """Days a battery of the given capacity sustains the average draw.

    A draw so small that the days overflow a float (a subnormal draw) gives
    ``inf``.
    """
    if avg_power_mw <= 0 or battery_mah <= 0 or battery_v <= 0:
        raise ValueError("power, capacity, and voltage must all be positive")
    energy_wh = battery_mah / 1000.0 * battery_v
    power_w = avg_power_mw / 1000.0  # underflows to 0 below ~2.5e-321 mW
    return energy_wh / power_w / 24.0 if power_w > 0 else math.inf


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
