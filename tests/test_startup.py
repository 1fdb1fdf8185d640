"""Start-up guards: no command needs scipy, importing the CLI loads no YAML,
and importing the package pins OpenBLAS to one thread.

One fresh interpreter makes scipy unimportable (``sys.modules["scipy"] =
None``) before it imports ``wakenode.cli``, then runs ``rank-mics``,
``simulate --scenario``, ``coherence``, ``simulate --wav`` and
``calibrate`` in that order and records each exit status. A scipy import
anywhere on a command's path makes that command fail. An eager PyYAML
import at module level would load it for commands that read no config.
Three more fresh interpreters import ``wakenode.cli`` with and without a
preset ``OPENBLAS_NUM_THREADS`` and after numpy.
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


PIN = r"""
import json, os, sys

if sys.argv[1:] == ["numpy-first"]:
    import numpy
import wakenode.cli
task = "/proc/self/task"
threads = len(os.listdir(task)) if os.path.isdir(task) else None
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), threads]))
"""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    return env


def _pin(*args: str, **env: str) -> list:
    proc = subprocess.run(
        [sys.executable, "-c", PIN, *args],
        capture_output=True,
        text=True,
        env={**_child_env(), **env},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_pins_openblas_to_one_thread_unless_preset_or_too_late():
    variable, threads = _pin()
    assert variable == "1"
    assert _pin(OPENBLAS_NUM_THREADS="2")[0] == "2"  # the user's value is kept
    assert _pin("numpy-first")[0] is None  # too late to pin: left unset
    if threads is None:
        pytest.skip("no /proc/self/task to count threads")
    assert threads == 1


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
    proc = subprocess.run(
        [sys.executable, "-c", STEPS, str(tmp / "out"), str(points), *map(str, wavs)],
        capture_output=True,
        text=True,
        env=_child_env(),
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
