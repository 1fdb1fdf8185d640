"""WAV decoding into normalized mono signals.

Supports integer PCM at 8/16/24/32 bits and 32/64-bit float. Integer
samples are mapped to [-1, 1) by their full-scale value; stereo (or any
multi-channel) input is averaged to mono.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .signals import Signal

__all__ = ["WavFormatError", "read_wav"]


class WavFormatError(ValueError):
    """The file is not a WAV variant this tool accepts."""


def read_wav(path: str | Path) -> Signal:
    """Decode a WAV file to a mono, full-scale-normalized Signal."""
    from scipy.io import wavfile

    path = Path(path)
    try:
        rate, data = wavfile.read(path)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise WavFormatError(f"{path}: cannot decode WAV: {exc}") from exc
    if data.size == 0:
        raise WavFormatError(f"{path}: WAV file contains no samples")

    if data.dtype == np.uint8:
        samples = (data.astype(np.float64) - 128.0) / 128.0
    elif data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        # 24-bit PCM arrives left-justified in int32, so one scale fits both
        samples = data.astype(np.float64) / 2147483648.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise WavFormatError(
            f"{path}: unsupported sample format {data.dtype}; expected "
            "8/16/24/32-bit PCM or 32-bit float"
        )

    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    elif samples.ndim != 1:
        raise WavFormatError(f"{path}: unexpected sample layout {samples.shape}")
    return Signal(samples, float(rate))
