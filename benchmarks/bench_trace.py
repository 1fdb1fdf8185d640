"""In-process tracing of the wakenode layers, and the start-up breakdown.

Spans are recorded from the benchmark's own wrappers around the package's
public functions, not from inside the program. Each wrapper replaces the
function in every ``wakenode`` module that binds it, so ``cli`` (which
imports names directly) and ``coherence`` (which calls ``resample`` and
``find_delay`` through its own namespace) are both seen.

A span's self time is its duration minus the part of that interval its
child spans cover. Every span maps to one per-layer metric, so the
per-layer self times add up to the root ``cli.main`` spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

# (defining module, function, span name, per-layer self-time metric, count)
# A count function maps (args, result) to the work the call did.
LAYERS: list[tuple[str, str, str, str, Callable[[tuple, Any], int] | None]] = [
    ("cli", "main", "cli.main", "cli.main_self_s", None),
    ("cli", "cmd_coherence", "cli.cmd_coherence", "cli.cmd_self_s", None),
    ("cli", "cmd_simulate", "cli.cmd_simulate", "cli.cmd_self_s", None),
    ("cli", "cmd_calibrate", "cli.cmd_calibrate", "cli.cmd_self_s", None),
    ("cli", "cmd_rank_mics", "cli.cmd_rank_mics", "cli.cmd_self_s", None),
    ("config", "load_run_config", "config.load_run_config", "config.load_s", None),
    ("config", "load_mic_table", "config.load_mic_table", "config.load_s", None),
    ("config", "load_cal_points", "config.load_cal_points", "config.load_s", None),
    ("wavio", "read_wav", "wavio.read_wav", "wavio.read_wav_s", lambda a, r: len(r)),
    ("signals", "resample", "signals.resample", "signals.resample_s", lambda a, r: len(a[0])),
    ("signals", "find_delay", "signals.find_delay", "signals.find_delay_s", None),
    ("coherence", "score_with_details", "coherence.score_with_details",
     "coherence.score_self_s", None),
    ("coherence", "magnitude_squared_coherence", "coherence.magnitude_squared_coherence",
     "coherence.msc_s", lambda a, r: len(r.values)),
    ("coherence", "peak_envelope", "coherence.peak_envelope", "coherence.peak_envelope_s", None),
    ("frontend", "amplify", "frontend.amplify", "frontend.amplify_s", None),
    ("frontend", "envelope_detect", "frontend.envelope_detect", "frontend.envelope_detect_s",
     lambda a, r: len(a[0])),
    ("frontend", "threshold_out", "frontend.threshold_out", "frontend.threshold_out_s", None),
    ("powersim", "simulate_from_wake", "powersim.simulate_from_wake",
     "powersim.simulate_from_wake_s",
     lambda a, r: sum(1 for iv in r.timeline if iv.state.value == "transmit")),
    ("powersim", "simulate", "powersim.simulate", "powersim.simulate_s", None),
    ("calibrate", "fit_curve", "calibrate.fit_curve", "calibrate.fit_curve_s", None),
]

# Count metrics, keyed by the span whose count they sum.
COUNTS = {
    "wavio.read_wav": "wavio.samples_decoded",
    "signals.resample": "signals.resample_samples_in",
    "coherence.magnitude_squared_coherence": "coherence.bins",
    "frontend.envelope_detect": "frontend.samples",
    "powersim.simulate_from_wake": "powersim.wake_runs",
}

SELF_METRICS = sorted({layer[3] for layer in LAYERS})
METRIC_OF_SPAN = {layer[2]: layer[3] for layer in LAYERS}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    workload: str
    count: int | None = None


class Tracer:
    """Keeps spans in memory; the wrappers push and pop a parent stack."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.workload)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span.count = int(count(args, result))
            return result

        return traced


def write_spans(spans: list[Span], path: Path) -> None:
    """One JSON object per span, in start order within each pass."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(asdict(span)) + "\n")


@contextlib.contextmanager
def patched(tracer: Tracer) -> Iterator[Tracer]:
    """Install the tracer's wrappers in every wakenode module; restore them on exit."""
    originals = [
        (getattr(importlib.import_module(f"wakenode.{module_name}"), func), func, span_name, count)
        for module_name, func, span_name, _, count in LAYERS
    ]
    modules = [m for n, m in list(sys.modules.items())
               if n == "wakenode" or n.startswith("wakenode.")]
    undo: list[tuple[object, str, object]] = []
    try:
        for original, func, span_name, count in originals:
            wrapper = tracer.wrap(span_name, original, count)
            for module in modules:
                if getattr(module, func, None) is original:
                    undo.append((module, func, original))
                    setattr(module, func, wrapper)
        yield tracer
    finally:
        for module, func, original in reversed(undo):
            setattr(module, func, original)


def covered_length(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its children cover inside it."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        inside = [
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(i, [])
            if min(e, span.end) > max(s, span.start)
        ]
        out.append((span.end - span.start) - covered_length(inside))
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer self times, counts and the root total of one traced pass."""
    metrics = {name: 0.0 for name in SELF_METRICS}
    metrics.update({name: 0 for name in COUNTS.values()})
    for span, own in zip(spans, self_times(spans)):
        metrics[METRIC_OF_SPAN[span.name]] += own
        if span.name in COUNTS and span.count is not None:
            metrics[COUNTS[span.name]] += span.count
    metrics["cli.main_s"] = sum(s.end - s.start for s in spans if s.parent is None)
    return metrics


def unaccounted_s(metrics: dict[str, float]) -> float:
    """Root time minus the sum of per-layer self times (zero when spans nest)."""
    return metrics["cli.main_s"] - sum(metrics[name] for name in SELF_METRICS)


# ----------------------------------------------------------------------
# start-up breakdown from `python -X importtime`

SCIPY_SUBMODULES = ("signal", "optimize", "interpolate", "io", "linalg", "sparse", "special",
                    "fft", "stats")
STARTUP_METRICS = (
    ["startup.import_s", "startup.numpy_import_s", "startup.scipy_import_s"]
    + [f"startup.scipy_{sub}_import_s" for sub in SCIPY_SUBMODULES]
)


def parse_importtime(text: str) -> dict[str, float]:
    """Start-up times in seconds from ``-X importtime`` stderr.

    ``startup.import_s`` is the cumulative time of the top-level wakenode
    imports; ``numpy`` and each ``scipy.<sub>`` report the cumulative time
    where they were first imported (nested ones are counted in both), and
    ``startup.scipy_import_s`` sums the self time of every scipy module.
    A module that is not imported reports 0.
    """
    out = {name: 0.0 for name in STARTUP_METRICS}
    for line in text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        head, cumulative, raw_name = line.split("|")
        self_us, cumulative_us = int(head.split(":")[1]), int(cumulative)
        name = raw_name.strip()
        level = (len(raw_name) - len(raw_name.lstrip()) - 1) // 2
        if level == 0 and (name == "wakenode" or name.startswith("wakenode.")):
            out["startup.import_s"] += cumulative_us / 1e6
        if name == "numpy":
            out["startup.numpy_import_s"] = cumulative_us / 1e6
        if name == "scipy" or name.startswith("scipy."):
            out["startup.scipy_import_s"] += self_us / 1e6
        sub = name.removeprefix("scipy.")
        if name.startswith("scipy.") and sub in SCIPY_SUBMODULES:
            out[f"startup.scipy_{sub}_import_s"] = cumulative_us / 1e6
    return out

