"""WAV decoding into normalized mono signals, whole or in chunks.

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
input is averaged to mono.

:class:`WavReader` walks the chunk headers with reads and seeks and then
reads the ``data`` chunk in whole frames, a chunk of frames at a time, so
a recording of any length is decoded in bounded memory. :func:`read_wav`
is the same reader taking every frame as one chunk. A ``data`` chunk cut
short by the end of the file, or declaring a size that is not a whole
number of frames, is read up to its last whole frame, with one warning
when the header is parsed.
"""

from __future__ import annotations

import os
import struct
import warnings
from pathlib import Path
from typing import BinaryIO, Iterator, NamedTuple

import numpy as np

from .signals import Signal

__all__ = ["WavFormatError", "WavReader", "read_wav"]

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


class _Layout(NamedTuple):
    """Where a file's frames are and how one is decoded."""

    order: str  # "<" or ">"
    channels: int
    rate: int
    block_align: int  # bytes per frame
    width: int  # bytes per sample container
    dtype: str  # container dtype; 24-bit samples are widened to int32
    start: int  # file offset of the first frame
    frames: int  # whole frames present


def _read_fmt(body: bytes, size: int, order: str) -> tuple[int, int, int, int, int]:
    """(format tag, channels, rate, block align, bits) of a ``fmt `` chunk."""
    if size < 16:
        raise ValueError(f"fmt chunk of {size} bytes is shorter than 16")
    tag, channels, rate, byte_rate, block_align, bits = struct.unpack_from(
        order + "HHIIHH", body
    )
    if tag == WAVE_FORMAT_EXTENSIBLE and size >= 18:
        (ext_size,) = struct.unpack_from(order + "H", body, 16)
        if ext_size < 22 or size < 40:
            raise ValueError("WAVE_FORMAT_EXTENSIBLE fmt chunk is too short")
        guid = body[24:40]
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


def _container_dtype(tag: int, channels: int, block_align: int, bits: int, order: str) -> str:
    """Dtype of one sample container; 24-bit samples decode to int32."""
    pcm = tag == WAVE_FORMAT_PCM
    width = block_align // channels
    if width * channels != block_align:
        raise ValueError(f"block align {block_align} is not {channels} whole samples")
    if pcm and 1 <= bits <= 8 and width == 1:
        return "u1"
    if pcm and width == 3 and bits <= 32:
        return f"{order}i4"
    if (pcm and width in (2, 4) and bits <= 32) or (
        not pcm and width in (4, 8) and bits in (32, 64)
    ):
        return f"{order}{'i' if pcm else 'f'}{width}"
    raise ValueError(
        f"unsupported sample format: tag {tag:#06x}, {bits} bits in a "
        f"{width}-byte container; expected 8/16/24/32-bit PCM or 32/64-bit float"
    )


def _read_header(fh: BinaryIO) -> _Layout:
    """Walk the RIFF chunks of an open WAV file to the frames of its ``data`` chunk."""
    file_size = os.fstat(fh.fileno()).st_size
    head = fh.read(12)
    magic = head[:4]
    if magic not in (b"RIFF", b"RIFX", b"RF64"):
        raise ValueError(f"file signature {magic!r} is not RIFF, RIFX or RF64")
    order = ">" if magic == b"RIFX" else "<"
    if head[8:12] != b"WAVE":
        raise ValueError(f"RIFF form type {head[8:12]!r} is not WAVE")
    data_size64 = None
    if magic == b"RF64":
        ds64 = fh.read(24)
        if ds64[:4] != b"ds64":
            raise ValueError("RF64 file has no ds64 chunk")
        ds64_size, riff_size, data_size64 = struct.unpack_from("<IQQ", ds64, 4)
        pos = 20 + ds64_size
    else:
        (riff_size,) = struct.unpack_from(order + "I", head, 4)
        pos = 12
    end = riff_size + 8

    fmt = None
    found = None
    while pos < end and pos + 8 <= file_size:
        fh.seek(pos)
        chunk_id, size = struct.unpack(order + "4sI", fh.read(8))
        body = pos + 8
        if chunk_id == b"fmt ":
            fmt = _read_fmt(fh.read(min(size, 40)), size, order)
        elif chunk_id == b"data":
            if fmt is None:
                raise ValueError("data chunk comes before any fmt chunk")
            if data_size64 is not None:
                size = data_size64
            found = (fmt, body, size)
        pos = body + size + (size & 1)
    if found is None:
        raise ValueError("no fmt chunk" if fmt is None else "no data chunk")

    (tag, channels, rate, block_align, bits), start, size = found
    dtype = _container_dtype(tag, channels, block_align, bits, order)
    available = max(0, min(size, file_size - start))
    frames = available // block_align
    if frames * block_align != size:
        warnings.warn(
            f"data chunk declares {size} bytes and the file holds {available} of "
            f"them; reading the {frames} whole {block_align}-byte frames",
            stacklevel=3,
        )
    return _Layout(order, channels, rate, block_align, block_align // channels, dtype,
                   start, frames)


def _decode(raw: bytes, layout: _Layout) -> np.ndarray:
    """Samples of whole frames in their container dtype, frames by channels."""
    if layout.width == 3:
        # 24-bit samples go to the high bytes of an int32, as left-justified PCM
        triples = np.frombuffer(raw, np.uint8).reshape(-1, 3)
        padded = np.zeros((triples.shape[0], 4), np.uint8)
        (padded[:, 1:] if layout.order == "<" else padded[:, :3])[...] = triples
        data = padded.view(layout.dtype)[:, 0]
    else:
        data = np.frombuffer(raw, layout.dtype)
    return data.reshape(-1, layout.channels) if layout.channels > 1 else data


def _to_mono(data: np.ndarray) -> np.ndarray:
    """Container samples scaled to full scale [-1, 1) and averaged to mono."""
    samples = data.astype(np.float64)
    if data.dtype.kind == "u":
        samples -= 128.0
        samples /= 128.0
    elif data.dtype.kind == "i":
        # 24-bit PCM arrives left-justified in int32, so one scale fits both
        samples /= 2.0 ** (8 * data.dtype.itemsize - 1)
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    return samples


class WavReader:
    """A WAV file opened and its header parsed; its frames are read in chunks.

    Use it as a context manager, so the file is closed.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh = open(self.path, "rb")
        try:
            try:
                self._layout = _read_header(self._fh)
            except (OSError, ValueError, struct.error, ZeroDivisionError) as exc:
                raise WavFormatError(f"{self.path}: cannot decode WAV: {exc}") from exc
            if self._layout.frames == 0:
                raise WavFormatError(f"{self.path}: WAV file contains no samples")
        except BaseException:
            self._fh.close()
            raise

    @property
    def sample_rate_hz(self) -> float:
        return float(self._layout.rate)

    @property
    def frames(self) -> int:
        """Whole frames in the ``data`` chunk, one mono sample each once decoded."""
        return self._layout.frames

    def chunks(self, frames: int) -> Iterator[Signal]:
        """Consecutive mono Signals of ``frames`` frames each; the last may be shorter."""
        if frames < 1:
            raise ValueError(f"frames per chunk must be positive, got {frames}")
        layout = self._layout
        self._fh.seek(layout.start)
        for first in range(0, layout.frames, frames):
            size = min(frames, layout.frames - first) * layout.block_align
            raw = self._fh.read(size)
            if len(raw) != size:
                raise WavFormatError(f"{self.path}: file ended inside the data chunk")
            yield Signal(_to_mono(_decode(raw, layout)), self.sample_rate_hz)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> WavReader:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def read_wav(path: str | Path) -> Signal:
    """Decode a WAV file to a mono, full-scale-normalized Signal."""
    with WavReader(path) as wav:
        return next(wav.chunks(wav.frames))
