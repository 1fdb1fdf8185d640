"""Deterministic benchmark inputs and their reference answers.

Every fixture is a pure function of ``--seed``. Generated files are cached
under ``<cache>/v<VERSION>-seed<seed>/`` so they are built once and never
timed; bump ``VERSION`` whenever a recipe changes.

The wake oracle here is a plain Python loop over the analog chain's
recurrence ``level = max(x, level * decay)``. It deliberately shares no
code with ``wakenode.frontend`` or ``wakenode.powersim``, so it stays a
valid reference when those modules are rewritten.

Standalone use::

    python3 benchmarks/bench_fixtures.py --seed 1 --out .bench_cache/fixtures
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
from pathlib import Path

import numpy as np
from scipy.io import wavfile
from scipy.signal import lfilter

VERSION = 1

COHERENCE_RATE_HZ = 44_100
COHERENCE_SECONDS = 95
# 11025 samples at 44.1 kHz is exactly 2000 samples at the 8 kHz scoring rate.
COHERENCE_DELAY_SAMPLES = 11_025
COHERENCE_GAIN = 0.5
COHERENCE_SNR_DB = 20.0

SIM_RATE_HZ = 16_000
SIM_BLOCKS = 4
SIM_LOUD_SECONDS = 20
SIM_QUIET_SECONDS = 100
SIM_SECONDS = SIM_BLOCKS * (SIM_LOUD_SECONDS + SIM_QUIET_SECONDS)
QUIET_NOISE = 0.002  # full-scale standard deviation of the background
CLICK_COUNT = 20_000
CLICK_SAMPLES = 8
CLICK_AMPLITUDE = (0.5, 0.85)

# Fast envelope for the clicks workload: tau = r5 * c5 = 1e7 * 9e-9 = 90 ms.
CLICKS_C5_F = 9.0e-9
CLICKS_C5_F_YAML = "9.0e-9"  # YAML 1.1 reads "9e-09" (no dot) as a string

CAL_POINTS = 40
CAL_NOISE_DB = 0.5

# Defaults of the prototype board and of `wakenode simulate --wav`, as the
# oracle must reproduce them independently of the package.
VDD_V = 3.3
GAIN = 1.0 + 1e5 / 1e3  # 1 + rf / r1
R5_OHM = 1e7
R6_OHM = 1e5
DEFAULT_C5_F = 9e-6
THRESHOLD_V = 0.022
MIC_SCALE_V = 0.01
HOLD_TIME_S = 0.0

# Default calibration curve dB = a * (x - c)^b + d.
CURVE = {"a": -290.5, "b": -0.04258, "c": 350.0, "d": 314.7}

# Fixture groups, built separately so a workload builds only its own files.
GROUPS = ("coherence", "urban", "clicks", "calibration")
KEEP_SEEDS = 4  # cached seed directories kept; older ones are pruned


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def urban_like(duration_s: float, rate_hz: float, rng: np.random.Generator) -> np.ndarray:
    """Colored noise, two tones and a slow swell, peak-normalized to 1.

    Same recipe as ``urban_like_signal`` in ``tests/conftest.py``.
    """
    n = int(duration_s * rate_hz)
    colored = lfilter([1.0], [1.0, -0.9], rng.normal(size=n))
    t = np.arange(n) / rate_hz
    tones = 0.4 * np.sin(2 * np.pi * 220 * t) + 0.2 * np.sin(2 * np.pi * 523 * t + 1.0)
    swell = 0.6 + 0.4 * np.sin(2 * np.pi * 0.05 * t)
    x = swell * (0.3 * colored + tones)
    return x / np.max(np.abs(x))


def to_int16(x: np.ndarray) -> np.ndarray:
    return np.round(np.clip(x, -1.0, 32767 / 32768) * 32768).astype(np.int16)


def write_wav(path: Path, rate_hz: int, samples: np.ndarray) -> None:
    wavfile.write(path, rate_hz, to_int16(samples))


def coherence_pair(seed: int, seconds: float = COHERENCE_SECONDS) -> tuple[np.ndarray, np.ndarray]:
    """A source and a delayed, attenuated, noisy recording of it."""
    source = 0.9 * urban_like(seconds, COHERENCE_RATE_HZ, _rng(seed, 0))
    delayed = np.zeros_like(source)
    delayed[COHERENCE_DELAY_SAMPLES:] = source[:-COHERENCE_DELAY_SAMPLES]
    recording = COHERENCE_GAIN * delayed
    noise_rms = math.sqrt(np.mean(recording**2) / 10 ** (COHERENCE_SNR_DB / 10))
    recording = recording + _rng(seed, 1).normal(scale=noise_rms, size=recording.size)
    return source, recording


def urban_blocks(seed: int, loud_s: float = SIM_LOUD_SECONDS, quiet_s: float = SIM_QUIET_SECONDS,
                 blocks: int = SIM_BLOCKS) -> np.ndarray:
    """Loud urban-like audio blocks, each followed by a quiet stretch."""
    rng = _rng(seed, 2)
    parts = []
    for _ in range(blocks):
        parts.append(urban_like(loud_s, SIM_RATE_HZ, rng))
        parts.append(rng.normal(scale=QUIET_NOISE, size=int(quiet_s * SIM_RATE_HZ)))
    return np.concatenate(parts)


def clicks(seed: int, seconds: float = SIM_SECONDS, count: int = CLICK_COUNT) -> np.ndarray:
    """Low background noise with short windowed 2 kHz clicks at random times."""
    rng = _rng(seed, 3)
    n = int(seconds * SIM_RATE_HZ)
    x = rng.normal(scale=QUIET_NOISE, size=n)
    shape = np.hanning(CLICK_SAMPLES + 2)[1:-1] * np.sin(
        2 * np.pi * 2000 * np.arange(CLICK_SAMPLES) / SIM_RATE_HZ + np.pi / 4
    )
    shape /= np.max(shape)  # positive peak of the click equals its amplitude
    starts = np.sort(rng.integers(0, n - CLICK_SAMPLES, size=count))
    amplitudes = rng.uniform(*CLICK_AMPLITUDE, size=count)
    for offset in range(CLICK_SAMPLES):
        np.add.at(x, starts + offset, amplitudes * shape[offset])
    return x


def cal_points(seed: int) -> list[tuple[float, float]]:
    """ADC readings across the curve's domain with seeded meter noise."""
    rng = _rng(seed, 4)
    adc = np.linspace(360.0, 1020.0, CAL_POINTS)
    spl = CURVE["a"] * (adc - CURVE["c"]) ** CURVE["b"] + CURVE["d"]
    spl = spl + rng.normal(scale=CAL_NOISE_DB, size=CAL_POINTS)
    return [(float(a), round(float(s), 3)) for a, s in zip(adc, spl)]


# ----------------------------------------------------------------------
# oracle


def wake_oracle(wav_path: Path, c5_f: float) -> dict:
    """Duty cycle, wake-run count and trace rows of `simulate --wav`.

    Loop reference for the amplifier, peak-hold envelope, divider and
    active-low comparator, followed by a run split of the low samples.
    """
    rate, data = wavfile.read(wav_path)
    mic = data.astype(np.float64) / 32768.0 * MIC_SCALE_V
    drive = np.clip(VDD_V / 2.0 + GAIN * mic, 0.0, VDD_V)
    decay = math.exp(-1.0 / (rate * (R5_OHM * c5_f)))
    state = []
    level = 0.0
    for x in drive.tolist():
        level = max(x, level * decay)
        state.append(level)
    envelope = np.maximum(np.asarray(state), 0.0) * (R6_OHM / (R5_OHM + R6_OHM))
    low = envelope > THRESHOLD_V
    edges = np.flatnonzero(np.diff(np.concatenate(([False], low, [False])).astype(np.int8)))
    dt = 1.0 / rate
    total_s = len(low) * dt
    runs = [
        (int(start) * dt, min(int(end) * dt + HOLD_TIME_S, total_s) if end < len(low) else total_s)
        for start, end in zip(edges[::2], edges[1::2])
    ]
    return timeline_summary(runs, total_s)


def timeline_summary(wake: list[tuple[float, float]], total_s: float) -> dict:
    """Merge wake intervals and count the sleep/transmit rows of a trace."""
    merged: list[tuple[float, float]] = []
    for start, end in sorted(wake):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    rows = 0
    cursor = 0.0
    for start, end in merged:
        rows += 2 if start > cursor else 1
        cursor = end
    if cursor < total_s or rows == 0:
        rows += 1
    transmit_s = sum(end - start for start, end in merged)
    return {"duty_cycle": transmit_s / total_s, "wake_runs": len(merged), "trace_rows": rows}


# ----------------------------------------------------------------------
# cache


def _write_group(group: str, seed: int, out: Path) -> None:
    if group == "coherence":
        source, recording = coherence_pair(seed)
        write_wav(out / "source_44k.wav", COHERENCE_RATE_HZ, source)
        write_wav(out / "recording_44k.wav", COHERENCE_RATE_HZ, recording)
    elif group == "urban":
        write_wav(out / "urban_16k.wav", SIM_RATE_HZ, urban_blocks(seed))
        oracle = wake_oracle(out / "urban_16k.wav", DEFAULT_C5_F)
        (out / "urban_oracle.json").write_text(json.dumps(oracle))
    elif group == "clicks":
        write_wav(out / "clicks_16k.wav", SIM_RATE_HZ, clicks(seed))
        (out / "clicks_tau90ms.yaml").write_text(f"circuit:\n  c5_f: {CLICKS_C5_F_YAML}\n")
        oracle = wake_oracle(out / "clicks_16k.wav", CLICKS_C5_F)
        (out / "clicks_oracle.json").write_text(json.dumps(oracle))
    elif group == "calibration":
        rows = "".join(f"{a!r},{s!r}\n" for a, s in cal_points(seed))
        (out / "cal_points.csv").write_text("adc_value,spl_db\n" + rows)
    else:
        raise ValueError(f"unknown fixture group {group!r}")


def ensure(cache: Path, seed: int, groups: tuple[str, ...] = GROUPS) -> Path:
    """Directory holding the requested fixture groups for ``seed``, built if missing."""
    out = cache / f"v{VERSION}-seed{seed}"
    out.mkdir(parents=True, exist_ok=True)
    for group in groups:
        marker = out / f".{group}.done"
        if not marker.exists():
            _write_group(group, seed, out)
            marker.touch()
    _prune(cache, keep=out)
    return out


def _prune(cache: Path, keep: Path) -> None:
    dirs = sorted(
        (d for d in cache.glob("v*-seed*") if d.is_dir() and d != keep),
        key=lambda d: d.stat().st_mtime,
    )
    for old in dirs[: max(len(dirs) - (KEEP_SEEDS - 1), 0)]:
        shutil.rmtree(old, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=os.path.join(".bench_cache", "fixtures"))
    args = parser.parse_args()
    print(ensure(Path(args.out), args.seed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
