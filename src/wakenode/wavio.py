"""WAV decoding into normalized mono signals.

Accepted containers: ``RIFF`` (little-endian), ``RIFX`` (big-endian) and
``RF64`` (64-bit sizes in a ``ds64`` chunk). Chunks other than ``fmt ``
and ``data`` are skipped, odd sizes with their pad byte.

Accepted formats, given by the ``fmt `` chunk's format tag or by the
subformat GUID of ``WAVE_FORMAT_EXTENSIBLE``:

- integer PCM of 1-8 bits (unsigned bytes), or of 9-32 bits in a 2-, 3-
  or 4-byte container (signed, left-justified, so 12-bit samples in a
  16-bit container scale like 16-bit ones);
- IEEE float of 32 or 64 bits.

The container width is ``block_align // channels``. Integer samples are
mapped to [-1, 1) by their container's full-scale value; multi-channel
input is averaged to mono. A ``data`` chunk cut short by the end of the
file is read up to the last whole sample, with a warning.
"""

from __future__ import annotations

import struct
import warnings
from pathlib import Path

import numpy as np

from .signals import Signal

__all__ = ["WavFormatError", "read_wav"]

WAVE_FORMAT_PCM = 0x0001
WAVE_FORMAT_IEEE_FLOAT = 0x0003
WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# Trailing 12 bytes of the KSDATAFORMAT_SUBTYPE GUIDs (RFC 2361); the first
# four bytes hold the plain format tag.
_GUID_TAIL = {
    "<": b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71",
    ">": b"\x00\x00\x00\x10\x80\x00\x00\xaa\x00\x38\x9b\x71",
}


class WavFormatError(ValueError):
    """The file is not a WAV variant this tool accepts."""


def _read_fmt(buf: bytes, pos: int, size: int, order: str) -> tuple[int, int, int, int, int]:
    """(format tag, channels, rate, block align, bits) of a ``fmt `` chunk."""
    if size < 16:
        raise ValueError(f"fmt chunk of {size} bytes is shorter than 16")
    tag, channels, rate, byte_rate, block_align, bits = struct.unpack_from(
        order + "HHIIHH", buf, pos
    )
    if tag == WAVE_FORMAT_EXTENSIBLE and size >= 18:
        (ext_size,) = struct.unpack_from(order + "H", buf, pos + 16)
        if ext_size < 22 or size < 40:
            raise ValueError("WAVE_FORMAT_EXTENSIBLE fmt chunk is too short")
        guid = buf[pos + 24 : pos + 40]
        if guid.endswith(_GUID_TAIL[order]):
            (tag,) = struct.unpack_from(order + "I", guid)
    if tag not in (WAVE_FORMAT_PCM, WAVE_FORMAT_IEEE_FLOAT):
        raise ValueError(f"unknown format tag {tag:#06x}; expected PCM or IEEE float")
    if tag == WAVE_FORMAT_PCM and byte_rate != rate * block_align:
        raise ValueError(
            f"byte rate {byte_rate} is not the sample rate {rate} times "
            f"the block align {block_align}"
        )
    return tag, channels, rate, block_align, bits


def _decode(
    buf: bytes, start: int, size: int, order: str, fmt: tuple[int, int, int, int, int]
) -> np.ndarray:
    """Samples of a ``data`` chunk in their container dtype, frames by channels."""
    tag, channels, _, block_align, bits = fmt
    pcm = tag == WAVE_FORMAT_PCM
    width = block_align // channels
    available = max(0, min(size, len(buf) - start))
    if pcm and 1 <= bits <= 8:
        data = np.frombuffer(buf, np.uint8, min(size // width, available), start)
    elif pcm and width == 3 and bits <= 32:
        # 24-bit samples go to the high bytes of an int32, as left-justified PCM
        raw = np.frombuffer(buf, np.uint8, available, start).reshape(-1, 3)
        padded = np.zeros((raw.shape[0], 4), np.uint8)
        (padded[:, 1:] if order == "<" else padded[:, :3])[...] = raw
        data = padded.view(f"{order}i4")[:, 0]
    elif (pcm and width in (2, 4) and bits <= 32) or (
        not pcm and width in (4, 8) and bits in (32, 64)
    ):
        dtype = f"{order}{'i' if pcm else 'f'}{width}"
        data = np.frombuffer(buf, dtype, available // width, start)
    else:
        raise ValueError(
            f"unsupported sample format: tag {tag:#06x}, {bits} bits in a "
            f"{width}-byte container; expected 8/16/24/32-bit PCM or 32/64-bit float"
        )
    if available < size:
        warnings.warn(
            f"data chunk declares {size} bytes but the file holds {available}; "
            "reading the samples present",
            stacklevel=4,
        )
    return data.reshape(-1, channels) if channels > 1 else data


def _parse(buf: bytes) -> tuple[int, np.ndarray]:
    """Walk the RIFF chunks of a whole WAV file; (rate, container samples)."""
    magic = buf[:4]
    if magic not in (b"RIFF", b"RIFX", b"RF64"):
        raise ValueError(f"file signature {magic!r} is not RIFF, RIFX or RF64")
    order = ">" if magic == b"RIFX" else "<"
    if buf[8:12] != b"WAVE":
        raise ValueError(f"RIFF form type {buf[8:12]!r} is not WAVE")
    data_size64 = None
    if magic == b"RF64":
        if buf[12:16] != b"ds64":
            raise ValueError("RF64 file has no ds64 chunk")
        ds64_size, riff_size, data_size64 = struct.unpack_from("<IQQ", buf, 16)
        end = riff_size + 8
        pos = 20 + ds64_size
    else:
        (riff_size,) = struct.unpack_from(order + "I", buf, 4)
        end = riff_size + 8
        pos = 12

    fmt = None
    found = None
    while pos < end and pos + 8 <= len(buf):
        chunk_id = buf[pos : pos + 4]
        (size,) = struct.unpack_from(order + "I", buf, pos + 4)
        body = pos + 8
        if chunk_id == b"fmt ":
            fmt = _read_fmt(buf, body, size, order)
        elif chunk_id == b"data":
            if fmt is None:
                raise ValueError("data chunk comes before any fmt chunk")
            if data_size64 is not None:
                size = data_size64
            found = (fmt[2], _decode(buf, body, size, order, fmt))
        pos = body + size + (size & 1)
    if found is None:
        raise ValueError("no fmt chunk" if fmt is None else "no data chunk")
    return found


def read_wav(path: str | Path) -> Signal:
    """Decode a WAV file to a mono, full-scale-normalized Signal."""
    path = Path(path)
    try:
        rate, data = _parse(path.read_bytes())
    except FileNotFoundError:
        raise
    except (OSError, ValueError, struct.error, ZeroDivisionError) as exc:
        raise WavFormatError(f"{path}: cannot decode WAV: {exc}") from exc
    if data.size == 0:
        raise WavFormatError(f"{path}: WAV file contains no samples")

    samples = data.astype(np.float64)
    if data.dtype.kind == "u":
        samples -= 128.0
        samples /= 128.0
    elif data.dtype.kind == "i":
        # 24-bit PCM arrives left-justified in int32, so one scale fits both
        samples /= 2.0 ** (8 * data.dtype.itemsize - 1)

    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    return Signal(samples, float(rate))
