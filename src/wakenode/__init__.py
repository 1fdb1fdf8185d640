"""Threshold-wake acoustic sensor node: behavioral simulation and analysis.

The package covers four concerns: the coherence scoring pipeline used to
compare microphones, behavioral models of the analog wake-up chain, a
sleep/transmit power simulator with battery projection, and the
ADC-to-decibel calibration model. The names over whole ``Signal`` values
are kept while the benchmark's tracer wraps them; no command runs them.

The package resolves its public names lazily (PEP 562): a name is
imported from the module that defines it on first use. ``import
wakenode``, and ``import wakenode.cli``, load no numpy: the records that
the commands parse and the microphone ranking live in
:mod:`wakenode.records`, which is plain Python. Each command imports its
numerics where it runs, so ``rank-mics`` never imports numpy, nor does
``simulate --scenario``, whose power model is plain Python, while
``coherence``, ``simulate --wav`` and ``calibrate`` import it once they
start.

Importing the package pins OpenBLAS to one thread, unless the caller set
``OPENBLAS_NUM_THREADS`` or numpy was already imported. When numpy loads,
OpenBLAS starts a helper thread per extra core, and every matrix product
here (:data:`wakenode.signals.RESAMPLE_BLOCK_MACS` bounds their size) is
too small to hand it any work; the idle helper still spins for about
0.13 s of CPU per process. The pin must come before numpy's first import.
That import happens inside a command, but every path to it passes
through this file first: both the ``wakenode`` console script and
``python -m wakenode.cli`` import the package before any of its modules,
and so does any caller that imports a numerics module or reads a name
from the package. So the pin stays here, ahead of everything else. Once
numpy is loaded the pin could no longer take effect, and setting the
variable would only reach the process's children.
"""

import importlib
import os
import sys
from typing import Any

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# the public names, each with the module that defines it
_SOURCE = {
    name: module
    for module, names in (
        ("records", "AlignmentError BUILTIN_PROFILES CalibrationDomainError CalPoint "
         "CircuitParams FitError MicCandidate MicConfiguration NodeConfig PowerProfile "
         "RankedMic Scenario ScenarioSegment WavFormatError WelchParams Window "
         "build_urban_scenario rank_microphones"),
        ("calibrate", "CalibrationCurve adc_to_db fit_curve r_squared"),
        ("coherence", "CoherenceEstimate magnitude_squared_coherence peak_envelope "
         "score_with_details"),
        ("frontend", "BinarySignal amplifier_gain amplify common_mode envelope_detect "
         "threshold_out"),
        ("powersim", "SimTrace battery_lifetime_days savings_percent simulate "
         "simulate_from_wake"),
        ("signals", "Signal find_delay resample"),
        ("wavio", "read_wav"),
    )
    for name in names.split()
}

__all__ = sorted(_SOURCE)


def __getattr__(name: str) -> Any:
    """A public name, imported from its module on first use and then kept
    here, or one of the modules that define them."""
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SOURCE.values():
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
