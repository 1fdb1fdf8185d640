import struct

import numpy as np
import pytest
from scipy.signal import lfilter

from wakenode import Signal


def urban_like_signal(duration_s: float, rate_hz: float, seed: int) -> Signal:
    """Broadband synthetic clip: colored noise, tones, slow amplitude swings."""
    rng = np.random.default_rng(seed)
    n = int(duration_s * rate_hz)
    colored = lfilter([1.0], [1.0, -0.9], rng.normal(size=n))
    t = np.arange(n) / rate_hz
    tones = 0.4 * np.sin(2 * np.pi * 220 * t) + 0.2 * np.sin(2 * np.pi * 523 * t + 1.0)
    swell = 0.6 + 0.4 * np.sin(2 * np.pi * 0.05 * t)
    x = swell * (0.3 * colored + tones)
    return Signal(x / np.max(np.abs(x)), rate_hz)


def tone(freq_hz: float, duration_s: float, rate_hz: float, amplitude: float = 1.0) -> Signal:
    t = np.arange(int(duration_s * rate_hz)) / rate_hz
    return Signal(amplitude * np.sin(2 * np.pi * freq_hz * t), rate_hz)


def shift_samples(x: np.ndarray, k: int) -> np.ndarray:
    """Delay by k samples, zero-padded, same length. Negative k advances."""
    out = np.zeros(len(x))
    if k >= 0:
        if k < len(x):
            out[k:] = x[: len(x) - k]
    else:
        out[: len(x) + k] = x[-k:]
    return out


def shift_right(sig: Signal, k: int) -> Signal:
    """``sig`` delayed by k samples, as :func:`shift_samples` delays an array."""
    return Signal(shift_samples(sig.samples, k), sig.sample_rate_hz)


def add_noise_at_snr(sig: Signal, snr_db: float, seed: int) -> Signal:
    rng = np.random.default_rng(seed)
    p_signal = float(np.mean(sig.samples**2))
    p_noise = p_signal / 10 ** (snr_db / 10)
    noisy = sig.samples + rng.normal(scale=np.sqrt(p_noise), size=len(sig))
    return Signal(noisy, sig.sample_rate_hz)


@pytest.fixture(scope="session")
def urban_90s_8k() -> Signal:
    return urban_like_signal(96.0, 8000.0, seed=7)


# WAV containers, built chunk by chunk

GUID_TAIL = {
    "<": b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71",
    ">": b"\x00\x00\x00\x10\x80\x00\x00\xaa\x00\x38\x9b\x71",
}


def chunk(cid: bytes, body: bytes, order: str = "<") -> bytes:
    return cid + struct.pack(order + "I", len(body)) + body + b"\0" * (len(body) % 2)


def fmt_chunk(tag, channels, rate, bits, width, order="<", subformat=None) -> bytes:
    block = channels * width
    body = struct.pack(order + "HHIIHH", tag, channels, rate, rate * block, block, bits)
    if subformat is not None:
        guid = struct.pack(order + "I", subformat) + GUID_TAIL[order]
        body += struct.pack(order + "HHI", 22, bits, 0) + guid
    return chunk(b"fmt ", body, order)


def riff(*chunks: bytes, order: str = "<") -> bytes:
    body = b"WAVE" + b"".join(chunks)
    return (b"RIFF" if order == "<" else b"RIFX") + struct.pack(order + "I", len(body)) + body


def rf64(fmt: bytes, samples: bytes) -> bytes:
    data = b"data" + struct.pack("<I", 0xFFFFFFFF) + samples
    ds64 = chunk(b"ds64", struct.pack("<QQQI", 0, len(samples), 0, 0))
    riff_size = 4 + len(ds64) + len(fmt) + len(data)
    ds64 = chunk(b"ds64", struct.pack("<QQQI", riff_size, len(samples), 0, 0))
    return b"RF64" + struct.pack("<I", 0xFFFFFFFF) + b"WAVE" + ds64 + fmt + data
