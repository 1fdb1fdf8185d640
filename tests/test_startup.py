"""Start-up guard: no command needs scipy, and importing the CLI loads no YAML.

One fresh interpreter makes scipy unimportable (``sys.modules["scipy"] =
None``) before it imports ``wakenode.cli``, then runs ``rank-mics``,
``simulate --scenario``, ``coherence``, ``simulate --wav`` and
``calibrate`` in that order and records each exit status. A scipy import
anywhere on a command's path makes that command fail. An eager PyYAML
import at module level would load it for commands that read no config.
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
import contextlib, io, json, sys

sys.modules["scipy"] = None  # every scipy import now raises ImportError

out_dir, points_csv, source_wav, recording_wav = sys.argv[1:]
from wakenode.cli import data_path, main
runs = {"import": sorted(
    m for m, mod in sys.modules.items() if mod and m.split(".")[0] in ("scipy", "yaml")
)}
for step, args in [
    ("rank-mics", ["rank-mics", str(data_path("microphones.csv")), "--analog", "--supply", "3.3"]),
    ("simulate", ["simulate", "--scenario", "urban"]),
    ("coherence", ["coherence", source_wav, recording_wav]),
    ("simulate-wav", ["simulate", "--wav", source_wav]),
    ("calibrate", ["calibrate", points_csv]),
]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        runs[step] = [main(["--out-dir", out_dir, *args]), err.getvalue()]
print(json.dumps(runs))
"""


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
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
    return json.loads(proc.stdout)


def test_import_loads_no_scipy_and_no_yaml(runs):
    assert runs["import"] == []


@pytest.mark.parametrize("step", ["rank-mics", "simulate"])
def test_commands_without_numerics_load_no_scipy(runs, step):
    assert runs[step] == [0, ""]


@pytest.mark.parametrize("step", ["coherence", "simulate-wav"])
def test_wav_commands_load_no_scipy(runs, step):
    assert runs[step] == [0, ""]


def test_calibrate_loads_no_scipy(runs):
    assert runs["calibrate"] == [0, ""]
