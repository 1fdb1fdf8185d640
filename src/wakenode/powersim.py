"""Sleep/transmit state machine simulation with energy accounting,
duty-cycle and savings computation, and battery-lifetime projection.

:func:`simulate` takes wake intervals from a scenario's sound segments,
:class:`WakeRuns` from a comparator output's low runs, found chunk by
chunk with array edge detection. A scenario is a handful of segments:
:func:`simulate` merges their intervals in one plain-Python pass, so
``simulate --scenario`` loads no numpy. A wake signal gives thousands of
runs, merged with array operations. Both integrate energy exactly with one
formula; the trace holds the transmit intervals, and the sleep/transmit
timeline is derived from them. All inputs are immutable, so independent
scenario/profile sweeps can run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING

from .records import NodeConfig, PowerProfile, Scenario

if TYPE_CHECKING:
    import numpy as np
    from numpy.typing import NDArray

    from .frontend import BinarySignal

__all__ = [
    "SimTrace",
    "simulate",
    "simulate_from_wake",
    "WakeRuns",
    "savings_percent",
    "battery_lifetime_days",
]


@dataclass(frozen=True, eq=False)
class SimTrace:
    """Transmit intervals over ``[0, total_s]`` with their integrated energy figures.

    ``wake_s`` holds sorted, disjoint ``[start, end)`` transmit intervals in
    seconds; the node sleeps between. From :func:`simulate` it is a tuple of
    ``(start, end)`` float pairs, from a wake signal a read-only ``(n, 2)``
    array.
    """

    wake_s: tuple[tuple[float, float], ...] | NDArray[np.float64]
    total_s: float
    energy_mwh: float
    duty_cycle: float
    avg_power_mw: float

    def timeline(self) -> tuple[list, list, list] | tuple[NDArray, NDArray, NDArray]:
        """The contiguous state timeline as ``(t_start, t_end, transmit)`` columns:
        lists of Python floats and bools for a tuple ``wake_s``, arrays for an
        array one.

        The sleep gaps go around the transmit rows. A sleep gap of zero length
        is dropped, a transmit row never is; no wake interval gives the one
        sleep row ``[0, total_s)``.
        """
        if isinstance(self.wake_s, tuple):
            bounds = [0.0, *chain.from_iterable(self.wake_s), self.total_s]
            rows = [
                (start, end, i % 2 == 1)
                for i, (start, end) in enumerate(zip(bounds, bounds[1:]))
                if i % 2 or end > start
            ]
            return tuple(map(list, zip(*rows)))
        import numpy as np

        bounds = np.concatenate(([0.0], self.wake_s.ravel(), [self.total_s]))
        transmit = np.zeros(len(bounds) - 1, dtype=bool)
        transmit[1::2] = True
        keep = transmit | (bounds[1:] > bounds[:-1])
        return bounds[:-1][keep], bounds[1:][keep], transmit[keep]


def _integrated(
    wake_s: tuple[tuple[float, float], ...] | NDArray[np.float64],
    transmit: list[float],
    total_s: float,
    config: NodeConfig,
) -> SimTrace:
    """The trace of ``wake_s``, whose interval lengths are ``transmit``, with
    its energy integrated exactly: the builtin sum adds the Python floats in
    order, as a loop over the intervals does."""
    profile = config.profile
    transmit_s = sum(transmit)
    sleep_s = total_s - transmit_s
    energy_mws = transmit_s * profile.transmit_mw + sleep_s * profile.sleep_mw
    energy_mwh = energy_mws / 3600.0
    duty = transmit_s / total_s
    avg_power_mw = energy_mwh / (total_s / 3600.0)
    return SimTrace(wake_s, total_s, energy_mwh, duty, avg_power_mw)


def _trace(
    starts: NDArray[np.float64], ends: NDArray[np.float64], total_s: float, config: NodeConfig
) -> SimTrace:
    """Merge wake intervals and integrate energy over them exactly.

    ``starts`` never decrease, so no sort is needed: the running max of
    ``ends`` is how far the intervals so far reach, and interval i opens a
    merged one where it starts past that reach (equal starts always merge).
    """
    import numpy as np

    reach = np.maximum.accumulate(ends)
    opens = np.ones(len(starts), dtype=bool)
    opens[1:] = starts[1:] > reach[:-1]
    # a merged interval ends where the next one opens, or at the last interval
    wake_s = np.column_stack((starts[opens], reach[np.roll(opens, -1)]))
    wake_s.flags.writeable = False
    return _integrated(wake_s, (wake_s[:, 1] - wake_s[:, 0]).tolist(), total_s, config)


def simulate(scenario: Scenario, config: NodeConfig) -> SimTrace:
    """Run the node over a scenario: transmit during sound, plus hold time.

    The node transmits throughout every sound segment and for
    ``config.hold_time_s`` after it ends (capped at scenario end, merged
    with any wake interval it runs into); it sleeps otherwise. Energy is
    integrated exactly per interval.

    The segments are contiguous and in order, so one pass over them merges
    as it goes: a sound segment that starts within the open interval's
    reach (an equal start included) extends it, any other closes it and
    opens the next. Segment ends are running totals, added one segment at
    a time, left to right.
    """
    total_s = float(scenario.duration_s)
    wake: list[tuple[float, float]] = []
    t = 0.0
    for seg in scenario.segments:
        start, t = t, t + seg.duration_s
        if not seg.sound_present:
            continue
        # t never decreases, so neither does end: it is the reach so far
        end = min(t + config.hold_time_s, total_s)
        if wake and start <= wake[-1][1]:
            wake[-1] = (wake[-1][0], end)
        else:
            wake.append((start, end))
    return _integrated(tuple(wake), [end - start for start, end in wake], total_s, config)


class WakeRuns:
    """Low runs of a comparator output that arrives in consecutive chunks.

    Edge detection carries two things across a chunk boundary: the level at
    the end of the previous chunk, and the sample offset of the next chunk.

    :meth:`feed` finds a chunk's edges in the caller's buffer, behind one
    slot for that carried level, and compares neighbours into one mask kept
    from chunk to chunk, so a stream of chunks no longer than the first
    allocates only each chunk's edge indices after it.
    """

    def __init__(self, sample_rate_hz: float) -> None:
        import numpy as np

        self.sample_rate_hz = sample_rate_hz
        self._samples = 0
        self._ended_high = True  # quiet before the first sample
        # indices where the level changes, alternating: run start, run end
        # (one past its last low sample), run start, ...
        self._edges: list[np.ndarray] = []
        self._changes = np.empty(0, dtype=bool)

    def feed(self, high: NDArray[np.bool_]) -> None:
        """Take the next chunk of the comparator output, in place:
        ``high[1:]`` holds the chunk (True for high), and ``high[0]`` is
        overwritten."""
        import numpy as np

        samples = len(high) - 1
        # with the previous chunk's last level in front, change index i is
        # the chunk's first sample at the new level
        high[0] = self._ended_high
        if len(self._changes) < samples:
            self._changes = np.empty(samples, dtype=bool)
        changes = np.not_equal(high[1:], high[:-1], out=self._changes[:samples])
        edges = np.flatnonzero(changes)
        edges += self._samples
        self._edges.append(edges)
        self._ended_high = bool(high[-1])
        self._samples += samples

    def trace(self, config: NodeConfig) -> SimTrace:
        """Run the node over every chunk fed so far: low samples (active-low
        interrupt) mark transmit, each low run extended by the hold time
        after its release edge, with :func:`simulate`'s energy accounting."""
        import numpy as np

        if self._samples == 0:
            raise ValueError("wake signal is empty")
        dt = 1.0 / self.sample_rate_hz
        total_s = self._samples * dt
        # a run still low at the last sample ends one past it
        closing = [] if self._ended_high else [np.array([self._samples])]
        edges = np.concatenate(self._edges + closing)
        starts = edges[0::2] * dt
        # the hold runs from the first high sample; a run still low at the
        # last sample ends at total_s (len * dt + hold is never below total_s)
        ends = np.minimum(edges[1::2] * dt + config.hold_time_s, total_s)
        return _trace(starts, ends, total_s, config)


def simulate_from_wake(wake: BinarySignal, config: NodeConfig) -> SimTrace:
    """:class:`WakeRuns` fed one whole comparator output, kept while the
    benchmark's tracer wraps it."""
    import numpy as np

    high = np.empty(len(wake) + 1, dtype=bool)
    high[1:] = wake.samples
    runs = WakeRuns(wake.sample_rate_hz)
    runs.feed(high)
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
