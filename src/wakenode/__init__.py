"""Threshold-wake acoustic sensor node: behavioral simulation and analysis.

The package covers four concerns: waveform primitives and the coherence
scoring pipeline used to compare microphones, behavioral models of the
analog wake-up chain, a sleep/transmit power simulator with battery
projection, and the ADC-to-decibel calibration model.

Importing the package pins OpenBLAS to one thread, unless the caller set
``OPENBLAS_NUM_THREADS`` or numpy was already imported. When numpy loads,
OpenBLAS starts a helper thread per extra core, and every matrix product
here (:data:`wakenode.signals.RESAMPLE_BLOCK_MACS` bounds their size) is
too small to hand it any work; the idle helper still spins for about
0.13 s of CPU per process. The pin must come before numpy's first import,
so it sits here, ahead of every module that imports numpy: both the
``wakenode`` console script and ``python -m wakenode.cli`` pass through it.
Once numpy is loaded the pin could no longer take effect, and setting the
variable would only reach the process's children.
"""

import os
import sys

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .calibrate import (
    CalibrationCurve,
    CalibrationDomainError,
    CalPoint,
    FitError,
    adc_to_db,
    db_to_adc,
    fit_curve,
    r_squared,
)
from .coherence import (
    AlignmentError,
    CoherenceEstimate,
    MicCandidate,
    MicConfiguration,
    RankedMic,
    WelchParams,
    Window,
    coherence_score,
    cross_spectral_density,
    magnitude_squared_coherence,
    peak_envelope,
    rank_microphones,
    score_with_details,
)
from .frontend import (
    BinarySignal,
    CircuitParams,
    amplifier_gain,
    amplify,
    common_mode,
    envelope_detect,
    gain_db,
    threshold_out,
)
from .powersim import (
    BUILTIN_PROFILES,
    NodeConfig,
    PowerProfile,
    Scenario,
    ScenarioSegment,
    SimTrace,
    battery_lifetime_days,
    build_urban_scenario,
    savings_percent,
    simulate,
    simulate_from_wake,
)
from .signals import Signal, clip, find_delay, resample
from .wavio import WavFormatError, read_wav

__version__ = "0.1.0"
