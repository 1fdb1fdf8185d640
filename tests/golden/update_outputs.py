"""Rewrite ``outputs.json`` beside this file: for each run in
:data:`ENTRIES`, its arguments, its exit status and the SHA-256 of its
stdout and of every file it writes into its out dir. Each path a run is
given, the out dir included, is replaced by its placeholder before hashing.

``rank-mics`` and ``simulate --scenario`` load no numpy, so their digests
hold whatever numpy is installed. A run given an input from
:data:`NUMPY_INPUTS` (``simulate --wav``) also records that input's SHA-256
and the numpy version: its digests hold on that numpy version only. After a
change meant to alter these outputs, run from the repository root::

    PYTHONPATH=src python tests/golden/update_outputs.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
import wave
from pathlib import Path

import numpy as np

from wakenode import cli
from wakenode.config import BUILTIN_PROFILES

OUTPUTS = Path(__file__).with_name("outputs.json")

# two sound segments that touch, then a third 3 s after the second ends: with
# node.hold_time_s 3.0 every wake run starts exactly where the one before it
# ends (all sums are exact in binary)
TOUCHING_SCENARIO = """segments:
  - {duration_s: 2.5, sound: true, label: a}
  - {duration_s: 1.5, sound: true, label: b}
  - {duration_s: 3.0, sound: false, label: ""}
  - {duration_s: 4.0, sound: true, label: c}
  - {duration_s: 9.0, sound: false, label: ""}
"""
# the built-in urban scenario, spelled out
URBAN_SCENARIO = "segments:\n" + "".join(
    f"  - {{duration_s: 20, sound: true, label: {label}}}\n"
    f"  - {{duration_s: 100, sound: false, label: {label}-silence}}\n"
    for label in ("human", "nature", "music", "mechanical")
)
INPUTS = {
    "scenario.yaml": TOUCHING_SCENARIO,
    "hold.yaml": "node: {hold_time_s: 3.0}\n",
    "urban.yaml": URBAN_SCENARIO,
    # a 90 ms envelope time constant: the clicks wake the node 291 times, where
    # at the default 90 s it wakes once and stays awake
    "tau90ms.yaml": "circuit: {c5_f: 9.0e-9}\n",
}


def clicks_wav() -> bytes:
    """10 s of faint noise at 16 kHz, int16, with 400 clicks of 8 samples at
    2 kHz from a seeded generator. An amplitude above about 0.6 of full scale
    crosses the default 22 mV threshold. The clip spans 2 envelope scan
    blocks of 65 536 samples and 5 decode chunks of 32 768 frames, and clicks
    fall shortly before each block's end."""
    rate = 16000
    rng = np.random.default_rng(1)
    samples = rng.normal(scale=0.002, size=10 * rate)
    starts = rng.integers(0, len(samples) - 8, size=400)
    click = np.sin(2 * np.pi * 2000 * np.arange(8) / rate + np.pi / 4)
    samples[starts[:, None] + np.arange(8)] += rng.uniform(0.65, 0.95, size=(400, 1)) * click
    data = io.BytesIO()
    with wave.open(data, "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(rate)
        wav.writeframes((np.clip(samples, -1, 1) * 32767).astype("<i2").tobytes())
    return data.getvalue()


NUMPY_INPUTS = {"clicks.wav": clicks_wav}

# each run's arguments after --out-dir; a {name} is the path of that input
ENTRIES: dict[str, list[str]] = {
    "rank-mics": ["rank-mics", "{microphones.csv}"],
    "rank-mics-analog-3v3": ["rank-mics", "{microphones.csv}", "--analog", "--supply", "3.3"],
    **{
        f"urban-{profile}": ["simulate", "--scenario", "urban", "--profile", profile]
        for profile in sorted(BUILTIN_PROFILES)
    },
    "urban-file": ["simulate", "--scenario", "{urban.yaml}"],
    "silence": ["simulate", "--scenario", "silence"],
    "touching": ["simulate", "--scenario", "{scenario.yaml}"],
    "touching-hold": ["--config", "{hold.yaml}", "simulate", "--scenario", "{scenario.yaml}"],
    "clicks": ["simulate", "--wav", "{clicks.wav}"],
    "clicks-tau90ms": ["--config", "{tau90ms.yaml}", "simulate", "--wav", "{clicks.wav}"],
}


def run_entry(name: str, tmp: Path) -> dict:
    """Run entry ``name`` in this process, with its inputs and out dir
    under ``tmp``, and return what ``outputs.json`` records of it."""
    given = {"{microphones.csv}": cli.data_path("microphones.csv"), "{out}": tmp / "out" / name}
    (tmp / "inputs").mkdir(parents=True, exist_ok=True)
    for input_name, text in INPUTS.items():
        given[f"{{{input_name}}}"] = tmp / "inputs" / input_name
        (tmp / "inputs" / input_name).write_text(text)
    written = {
        input_name: make()
        for input_name, make in NUMPY_INPUTS.items()
        if f"{{{input_name}}}" in ENTRIES[name]
    }
    for input_name, data in written.items():
        given[f"{{{input_name}}}"] = tmp / "inputs" / input_name
        (tmp / "inputs" / input_name).write_bytes(data)
    argv = ["--out-dir", "{out}", *ENTRIES[name]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = cli.main([str(given.get(arg, arg)) for arg in argv])

    def sha256(data: bytes) -> str:
        for placeholder, path in given.items():
            data = data.replace(str(path).encode(), placeholder.encode())
        return hashlib.sha256(data).hexdigest()

    files = sorted(given["{out}"].iterdir()) if given["{out}"].exists() else []
    record = {
        "argv": ENTRIES[name],
        "status": status,
        "stdout": sha256(stdout.getvalue().encode()),
        "files": {path.name: sha256(path.read_bytes()) for path in files},
    }
    if written:
        record["inputs"] = {n: hashlib.sha256(data).hexdigest() for n, data in written.items()}
        record["numpy"] = np.__version__
    return record


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {name: run_entry(name, Path(tmp)) for name in ENTRIES}
    OUTPUTS.write_text(json.dumps(outputs, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
