"""Start-up cost guard: each command imports only the libraries it computes with.

One fresh interpreter imports ``wakenode.cli`` and then runs ``rank-mics``,
``simulate --scenario``, ``coherence``, ``simulate --wav`` and
``calibrate`` in that order, recording the loaded scipy and yaml modules
after each step. An eager scipy import at module level would load
hundreds of modules (over a second) for every command, including those
that never call scipy; only ``calibrate`` computes with it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from wakenode import adc_to_db

from conftest import add_noise_at_snr, shift_right, urban_like_signal

SRC = Path(__file__).resolve().parents[1] / "src"

STEPS = r"""
import contextlib, json, sys

def heavy():
    return sorted(m for m in sys.modules if m == "yaml" or m.split(".")[0] == "scipy")

out_dir, points_csv, source_wav, recording_wav = sys.argv[1:]
loaded = {}
from wakenode.cli import data_path, main
loaded["import"] = heavy()
with contextlib.redirect_stdout(sys.stderr):
    for step, args in [
        ("rank-mics", ["rank-mics", str(data_path("microphones.csv")), "--analog", "--supply", "3.3"]),
        ("simulate", ["simulate", "--scenario", "urban"]),
        ("coherence", ["coherence", source_wav, recording_wav]),
        ("simulate-wav", ["simulate", "--wav", source_wav]),
        ("calibrate", ["calibrate", points_csv]),
    ]:
        if main(["--out-dir", out_dir, *args]) != 0:
            raise SystemExit(f"{step} failed")
        loaded[step] = heavy()
print(json.dumps(loaded))
"""


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("startup")
    points = tmp / "points.csv"
    adc = np.linspace(380.0, 1000.0, 12).tolist()
    points.write_text("adc_value,spl_db\n" + "".join(f"{x!r},{adc_to_db(x)!r}\n" for x in adc))
    source = urban_like_signal(90.0, 8000.0, seed=5)
    recording = add_noise_at_snr(shift_right(source, 400), 20.0, seed=6)
    wavs = [tmp / "source.wav", tmp / "recording.wav"]
    for path, sig in zip(wavs, (source, recording)):
        wavfile.write(path, 8000, sig.samples.astype(np.float32))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", STEPS, str(tmp / "out"), str(points), *map(str, wavs)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return {step: set(modules) for step, modules in json.loads(proc.stdout).items()}


def test_import_loads_no_scipy_and_no_yaml(loaded):
    assert loaded["import"] == set()


@pytest.mark.parametrize("step", ["rank-mics", "simulate"])
def test_commands_without_numerics_load_no_scipy(loaded, step):
    assert {m for m in loaded[step] if m.startswith("scipy")} == set()


@pytest.mark.parametrize("step", ["coherence", "simulate-wav"])
def test_wav_commands_load_no_scipy(loaded, step):
    assert {m for m in loaded[step] if m.startswith("scipy")} == set()


def test_calibrate_loads_only_the_optimizer(loaded):
    assert "scipy.optimize" in loaded["calibrate"]
    assert {"scipy.signal", "scipy.interpolate", "scipy.io"}.isdisjoint(loaded["calibrate"])
