import struct
import warnings

import numpy as np
import pytest
from scipy.io import wavfile

from wakenode import WavFormatError, read_wav, wavio
from wakenode.wavio import WavReader

from conftest import chunk, fmt_chunk, rf64, riff


def write_24bit_wav(path, rate: int, values: np.ndarray) -> None:
    """Hand-rolled 24-bit PCM writer (scipy cannot write 24-bit)."""
    raw = b"".join(int(v).to_bytes(3, "little", signed=True) for v in values)
    header = (
        b"RIFF"
        + struct.pack("<I", 36 + len(raw))
        + b"WAVEfmt "
        + struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 3, 3, 24)
        + b"data"
        + struct.pack("<I", len(raw))
    )
    path.write_bytes(header + raw)


def test_int16_normalization(tmp_path):
    path = tmp_path / "a.wav"
    wavfile.write(path, 8000, np.array([0, 16384, -32768], dtype=np.int16))
    sig = read_wav(path)
    assert sig.sample_rate_hz == 8000
    np.testing.assert_allclose(sig.samples, [0.0, 0.5, -1.0])


def test_uint8_normalization(tmp_path):
    path = tmp_path / "a.wav"
    wavfile.write(path, 8000, np.array([128, 255, 0], dtype=np.uint8))
    sig = read_wav(path)
    np.testing.assert_allclose(sig.samples, [0.0, 127 / 128, -1.0])


def test_int32_normalization(tmp_path):
    path = tmp_path / "a.wav"
    wavfile.write(path, 8000, np.array([0, 2**30, -(2**31)], dtype=np.int32))
    sig = read_wav(path)
    np.testing.assert_allclose(sig.samples, [0.0, 0.5, -1.0])


def test_24bit_normalization(tmp_path):
    path = tmp_path / "a.wav"
    full_scale = 2**23 - 1
    write_24bit_wav(path, 8000, np.array([0, full_scale // 2, -full_scale]))
    sig = read_wav(path)
    assert sig.samples[0] == 0.0
    assert sig.samples[1] == pytest.approx(0.5, abs=1e-6)
    assert sig.samples[2] == pytest.approx(-1.0, abs=1e-6)


def test_float32_passthrough(tmp_path):
    path = tmp_path / "a.wav"
    wavfile.write(path, 44100, np.array([0.25, -0.75], dtype=np.float32))
    sig = read_wav(path)
    np.testing.assert_allclose(sig.samples, [0.25, -0.75])
    assert sig.sample_rate_hz == 44100


def test_stereo_averaged_to_mono(tmp_path):
    path = tmp_path / "a.wav"
    left = np.array([1.0, 0.0, -1.0], dtype=np.float32)
    right = np.array([0.0, 0.0, -1.0], dtype=np.float32)
    wavfile.write(path, 8000, np.column_stack([left, right]))
    sig = read_wav(path)
    np.testing.assert_allclose(sig.samples, [0.5, 0.0, -1.0])


def test_garbage_rejected(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"this is not a wav file at all")
    with pytest.raises(WavFormatError, match="cannot decode"):
        read_wav(path)


def test_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_wav(tmp_path / "nope.wav")


# ----------------------------------------------------------------------
# parity with scipy.io.wavfile.read, the decoder read_wav used to call

def container_samples(path):
    """Rate and the samples in their container dtype, as the reader decodes them."""
    with open(path, "rb") as fh:
        layout = wavio._read_header(fh)
        fh.seek(layout.start)
        raw = fh.read(layout.frames * layout.block_align)
        padded = np.zeros((layout.frames * layout.channels, 4), np.uint8)
        return layout.rate, wavio._decode(raw, layout, padded)


def assert_matches_scipy(path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # truncation, checked apart
        rate, expected = wavfile.read(path)
        got_rate, got = container_samples(path)
        decoded = read_wav(path).samples
    assert got_rate == rate
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)
    # read_wav scales and averages exactly as it did on scipy's arrays
    assert np.array_equal(decoded, to_mono(expected))


def to_mono(container: np.ndarray) -> np.ndarray:
    """Container samples scaled to full scale and averaged, as read_wav does."""
    samples = container.astype(np.float64)
    if container.dtype.kind == "u":
        samples = (samples - 128.0) / 128.0
    elif container.dtype.kind == "i":
        samples = samples / 2.0 ** (8 * container.dtype.itemsize - 1)
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    return samples


RNG = np.random.default_rng(11)
PCM = {
    "uint8": RNG.integers(0, 256, size=(97, 2), dtype=np.uint8),
    "int16": RNG.integers(-(2**15), 2**15, size=(97, 2), dtype=np.int16),
    "int32": RNG.integers(-(2**31), 2**31, size=(97, 2), dtype=np.int32),
    "float32": RNG.uniform(-1, 1, size=(97, 2)).astype(np.float32),
    "float64": RNG.uniform(-1, 1, size=(97, 2)),
}


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("dtype", sorted(PCM))
def test_scipy_written_files_decode_identically(tmp_path, dtype, channels):
    path = tmp_path / "a.wav"
    data = PCM[dtype] if channels == 2 else PCM[dtype][:, 0].copy()
    wavfile.write(path, 22050, data)
    assert_matches_scipy(path)


def test_24bit_matches_scipy(tmp_path):
    path = tmp_path / "a.wav"
    write_24bit_wav(path, 8000, RNG.integers(-(2**23), 2**23, size=51))
    assert_matches_scipy(path)


@pytest.mark.parametrize("order", ["<", ">"])
@pytest.mark.parametrize(
    "subformat, bits, dtype",
    [(1, 16, "i2"), (1, 24, "i4"), (3, 32, "f4"), (3, 64, "f8")],
)
def test_extensible_and_rifx_match_scipy(tmp_path, order, subformat, bits, dtype):
    path = tmp_path / "a.wav"
    width = bits // 8
    if dtype == "i4":
        values = RNG.integers(-(2**23), 2**23, size=80)
        byteorder = "big" if order == ">" else "little"
        raw = b"".join(int(v).to_bytes(3, byteorder, signed=True) for v in values)
    else:
        values = RNG.uniform(-0.9, 0.9, size=(40, 2)) * (2**15 if dtype == "i2" else 1)
        raw = values.astype(order + dtype).tobytes()
    fmt = fmt_chunk(0xFFFE, 2, 16000, bits, width, order, subformat)
    path.write_bytes(riff(fmt, chunk(b"data", raw, order), order=order))
    assert_matches_scipy(path)


def test_12bit_in_16bit_container_matches_scipy(tmp_path):
    path = tmp_path / "a.wav"
    values = (RNG.integers(-(2**11), 2**11, size=63) * 16).astype("<i2")
    path.write_bytes(riff(fmt_chunk(1, 1, 8000, 12, 2), chunk(b"data", values.tobytes())))
    assert_matches_scipy(path)
    assert read_wav(path).samples.max() < 1.0


def test_odd_list_chunk_before_data_is_skipped(tmp_path):
    path = tmp_path / "a.wav"
    values = RNG.integers(-(2**15), 2**15, size=33).astype("<i2")
    path.write_bytes(
        riff(
            fmt_chunk(1, 1, 8000, 16, 2),
            chunk(b"LIST", b"INFOx"),
            chunk(b"data", values.tobytes()),
        )
    )
    assert_matches_scipy(path)


def write_cut_short(path, case) -> np.ndarray:
    """Write a WAV whose data ends inside a frame; return the whole frames it holds."""
    if case == "stereo-mid-frame":
        wavfile.write(path, 8000, PCM["int16"])
        path.write_bytes(path.read_bytes()[:-1])
        return PCM["int16"][:-1]
    if case == "24bit-mid-sample":
        values = RNG.integers(-(2**23), 2**23, size=51)
        write_24bit_wav(path, 8000, values)
        path.write_bytes(path.read_bytes()[:-2])
        return (values[:-1] * 256).astype(np.int32)  # left-justified in int32
    if case == "declared-part-frame":
        raw = PCM["int16"].tobytes() + b"\1\2"  # 97 four-byte frames and half of one
        path.write_bytes(riff(fmt_chunk(1, 2, 8000, 16, 2), chunk(b"data", raw)))
        return PCM["int16"]
    # mono int16 with the last `case` bytes cut
    wavfile.write(path, 8000, PCM["int16"][:, 0].copy())
    path.write_bytes(path.read_bytes()[:-case])
    return PCM["int16"][: 97 - (case + 1) // 2, 0]


@pytest.mark.parametrize(
    "case", [1, 2, 7, "stereo-mid-frame", "24bit-mid-sample", "declared-part-frame"]
)
def test_truncated_data_chunk_reads_short_with_a_warning(tmp_path, case):
    path = tmp_path / "a.wav"
    frames = write_cut_short(path, case)
    if isinstance(case, int):
        assert_matches_scipy(path)
    with pytest.warns(UserWarning, match="file holds") as record:
        decoded = read_wav(path).samples
    assert len(record) == 1
    assert np.array_equal(decoded, to_mono(frames))


def test_rf64_matches_scipy(tmp_path):
    path = tmp_path / "a.wav"
    values = RNG.integers(-(2**15), 2**15, size=(29, 2)).astype("<i2")
    path.write_bytes(rf64(fmt_chunk(1, 2, 44100, 16, 2), values.tobytes()))
    assert_matches_scipy(path)


@pytest.mark.parametrize(
    "content",
    [
        riff(chunk(b"data", b"\0\0\1\0")),
        riff(fmt_chunk(1, 1, 8000, 16, 2)),
        riff(fmt_chunk(6, 1, 8000, 8, 1), chunk(b"data", b"\1\2")),
        riff(fmt_chunk(0xFFFE, 1, 8000, 8, 1, subformat=6), chunk(b"data", b"\1\2")),
    ],
    ids=["no-fmt", "no-data", "a-law", "extensible-a-law"],
)
def test_undecodable_layouts_rejected(tmp_path, content):
    path = tmp_path / "bad.wav"
    path.write_bytes(content)
    with pytest.raises(WavFormatError, match="cannot decode"):
        read_wav(path)


# ----------------------------------------------------------------------
# the chunk reader: read_wav is one chunk of it


@pytest.mark.parametrize("layout", ["stereo-int16", "24bit", "stereo-uint8", "rifx-float64"])
@pytest.mark.parametrize("frames", [1, 7, 96, 97, 500])
def test_chunks_join_to_the_whole_file(tmp_path, layout, frames):
    path = tmp_path / "a.wav"
    if layout == "24bit":
        write_24bit_wav(path, 8000, RNG.integers(-(2**23), 2**23, size=97))
    elif layout == "rifx-float64":
        raw = PCM["float64"].astype(">f8").tobytes()
        fmt = fmt_chunk(3, 2, 8000, 64, 8, ">")
        path.write_bytes(riff(fmt, chunk(b"data", raw, ">"), order=">"))
    else:
        wavfile.write(path, 8000, PCM[layout.split("-")[1]])
    with WavReader(path) as wav:
        assert wav.frames == 97
        rate = wav.sample_rate_hz
        parts = [part.copy() for part in wav.chunks_into(np.empty(frames))]
    assert [len(part) for part in parts[:-1]] == [frames] * (len(parts) - 1)
    assert 1 <= len(parts[-1]) <= frames
    assert rate == 8000.0
    assert np.array_equal(np.concatenate(parts), read_wav(path).samples)


def test_truncation_warns_once_however_many_chunks(tmp_path):
    path = tmp_path / "a.wav"
    wavfile.write(path, 8000, PCM["int16"])
    path.write_bytes(path.read_bytes()[:-1])
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        with WavReader(path) as wav:
            parts = list(wav.chunks_into(np.empty(5)))
    assert len(parts) == 20
    assert [str(w.message) for w in record] == [
        "data chunk declares 388 bytes and the file holds 387 of them; "
        "reading the 96 whole 4-byte frames"
    ]


def test_empty_data_chunk_rejected_when_opened(tmp_path):
    path = tmp_path / "a.wav"
    path.write_bytes(riff(fmt_chunk(1, 1, 8000, 16, 2), chunk(b"data", b"")))
    with pytest.raises(WavFormatError, match="no samples"):
        WavReader(path)
