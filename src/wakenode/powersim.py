"""Sleep/transmit state machine simulation with energy accounting,
duty-cycle and savings computation, and battery-lifetime projection.

:func:`simulate` takes wake intervals from a scenario's sound segments,
:class:`WakeRuns` from a comparator output's low runs, found chunk by
chunk with array edge detection. Both merge their intervals in one
plain-Python pass into a flat array of floats, and integrate energy
exactly with one formula, so ``simulate --scenario`` loads no numpy; the
trace holds the transmit intervals, and the sleep/transmit timeline is
derived from them. All inputs are immutable, so independent
scenario/profile sweeps can run concurrently.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import accumulate, pairwise, zip_longest
from typing import TYPE_CHECKING, Iterable

from .config import NodeConfig, PowerProfile, Scenario

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

    ``wake_s`` holds sorted ``[start, end)`` transmit intervals in seconds,
    each ending before the next starts, flat (``start, end, start, end,
    ...``) in a read-only memoryview of doubles; the node sleeps between.
    """

    wake_s: memoryview
    total_s: float
    energy_mwh: float
    duty_cycle: float
    avg_power_mw: float

    def timeline(self) -> tuple[array, array, bytearray]:
        """The contiguous state timeline as ``(t_start, t_end, transmit)``
        columns: two ``array("d")`` of the row bounds, and one byte per row,
        1 for transmit and 0 for sleep.

        The sleep gaps go around the transmit rows. A sleep gap of zero length
        is dropped, a transmit row never is; no wake interval gives the one
        sleep row ``[0, total_s)``.
        """
        bounds = array("d", [0.0])
        bounds.frombytes(self.wake_s.cast("B"))
        bounds.append(self.total_s)
        transmit = bytearray(b"\0\1") * (len(self.wake_s) // 2) + b"\0"
        # row i runs from bound i to bound i + 1; the merge leaves a gap
        # between any two intervals, so only the first and last sleep rows
        # can be empty
        lo = int(bounds[1] <= 0.0)
        hi = len(bounds) - 1 - int(bounds[-1] <= bounds[-2])
        return bounds[lo:hi], bounds[lo + 1 : hi + 1], transmit[lo:hi]


def _merged(runs: Iterable[tuple[float, float]], total_s: float, config: NodeConfig) -> SimTrace:
    """The trace of wake runs given as ``(start, release)`` pairs in order
    of start, each held ``config.hold_time_s`` past its release (capped at
    ``total_s``), with its energy integrated exactly.

    One pass merges as it goes: a run that starts within the open
    interval's reach (an equal start included) extends it, any other closes
    it and opens the next. The reach is kept in a local, and the first run
    closes a sentinel interval that reaches ``-inf``. The builtin sum adds
    the interval lengths in order, as a loop over the intervals does.
    """
    hold_s = config.hold_time_s
    wake = array("d")
    reach = -math.inf
    for start, release in runs:
        end = release + hold_s
        if end > total_s:
            end = total_s
        if start > reach:
            wake.append(reach)
            wake.append(start)
            reach = end
        elif end > reach:
            reach = end
    if wake:
        wake.append(reach)
        del wake[0]  # the sentinel's reach
    profile = config.profile
    transmit_s = sum(end - start for start, end in zip(wake[0::2], wake[1::2]))
    sleep_s = total_s - transmit_s
    energy_mwh = (transmit_s * profile.transmit_mw + sleep_s * profile.sleep_mw) / 3600.0
    avg_power_mw = energy_mwh / (total_s / 3600.0)
    wake_s = memoryview(wake).toreadonly()
    return SimTrace(wake_s, total_s, energy_mwh, transmit_s / total_s, avg_power_mw)


def simulate(scenario: Scenario, config: NodeConfig) -> SimTrace:
    """Run the node over a scenario: transmit during sound, plus hold time.

    The node transmits throughout every sound segment and for
    ``config.hold_time_s`` after it ends (capped at scenario end, merged
    with any wake interval it runs into); it sleeps otherwise. Energy is
    integrated exactly per interval.

    The segments are contiguous and in order, so :func:`_merged` takes
    each sound segment as it comes. Segment ends are running totals, added
    one segment at a time, left to right.
    """
    bounds = pairwise(accumulate((seg.duration_s for seg in scenario.segments), initial=0.0))
    sound = (run for seg, run in zip(scenario.segments, bounds) if seg.sound)
    return _merged(sound, float(scenario.duration_s), config)


class WakeRuns:
    """Low runs of a comparator output that arrives in consecutive chunks.

    Edge detection carries two things across a chunk boundary: the level at
    the end of the previous chunk, and the sample offset of the next chunk.
    Neighbours are compared into one mask kept from chunk to chunk, so a
    stream of chunks no longer than the first allocates only each chunk's
    edge indices after it.
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
        """Take the next chunk of the comparator output (True for high)."""
        import numpy as np

        samples = len(high)
        if samples == 0:
            return
        if len(self._changes) < samples:
            self._changes = np.empty(samples, dtype=bool)
        # change index i is the chunk's first sample at the new level
        changes = self._changes[:samples]
        changes[0] = high[0] != self._ended_high
        np.not_equal(high[1:], high[:-1], out=changes[1:])
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
        times = np.concatenate(self._edges) * dt
        # a run still low at the last sample is released at total_s
        runs = zip_longest(memoryview(times[0::2]), memoryview(times[1::2]), fillvalue=total_s)
        return _merged(runs, total_s, config)


def simulate_from_wake(wake: BinarySignal, config: NodeConfig) -> SimTrace:
    """:class:`WakeRuns` fed one whole comparator output, kept while the
    benchmark's tracer wraps it."""
    runs = WakeRuns(wake.sample_rate_hz)
    runs.feed(wake.samples)
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
