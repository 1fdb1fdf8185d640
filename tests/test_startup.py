"""Start-up guards: no command needs scipy, importing the CLI loads no YAML,
no numpy, no orjson and no numerics module, ``rank-mics`` runs without
numpy, and importing the package pins OpenBLAS to one thread.

One fresh interpreter makes scipy unimportable (``sys.modules["scipy"] =
None``) before it imports ``wakenode.cli``, notes the package's modules
that import loaded (the package, ``cli`` and :mod:`wakenode.config`, which
holds every input's records, error classes and parsing), then runs
``rank-mics``, ``simulate --scenario``, ``coherence``, ``simulate --wav``
and ``calibrate`` in that order and records each exit status, each
report's warnings and whether numpy or orjson is loaded after each
command: the first two, whose CSVs are short, load neither. A scipy import
anywhere on a command's path makes that command fail. An eager PyYAML
import at module level would load it for commands that read no config, and
an eager numerics import would load numpy for every command. Each command
imports its numerics while :func:`wakenode.cli.main` records warnings into
the report, so a warning raised by an import would land in
``results.warnings``: on these clean inputs every report has none. A
second fresh interpreter makes numpy unimportable and runs ``rank-mics``
and ``simulate --scenario`` (both built-in scenarios, a profile and a
scenario file); each run's CSV and report must have the bytes this
process, which has numpy, writes. An AST check keeps numpy and
:mod:`wakenode.frontend` out of what :mod:`wakenode.powersim` imports as
it loads, which that route needs. Three more interpreters import
``wakenode.cli`` with and without a preset ``OPENBLAS_NUM_THREADS`` and
after numpy, and one more without :mod:`site` (``-S``), where the import
must load neither :mod:`importlib.resources` nor :mod:`tempfile`: the
bundled data are plain files beside the module. One more runs
``rank-mics``, ``simulate --scenario`` (built in, then from a file),
``calibrate`` and ``coherence``, and notes whether
OpenSSL's ``_hashlib`` is loaded after the import, after numpy's import,
after each command and when ``coherence`` finishes its Welch sums: only
hashing an input of at least ``BUILTIN_SHA256_BYTES`` loads it, after a
command's numerics, so of these only ``coherence``'s WAVs do; the smaller
tables and the scenario file are hashed by the interpreter's own SHA-256.
numpy < 2 loads it with itself, before ``calibrate``; ``rank-mics`` and
``simulate --scenario`` import no numpy and run first.

The package resolves its public names lazily, from one name-to-module
table; every name it exported when it imported its modules eagerly, and
still exports, must resolve from the module that defined it then or, for
a record, from :mod:`wakenode.config`. Each name has one home: a
module's ``__all__`` lists only names that its own source defines, and the
package's table points each name at a module that exports it.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path
from typing import Iterable

import numpy as np
import pytest
from scipy.io import wavfile

import wakenode
import wakenode.cli
from wakenode import adc_to_db

from conftest import add_noise_at_snr, child_env, shift_right, urban_like_signal

STEPS = r"""
import contextlib, io, json, sys

sys.modules["scipy"] = None  # every scipy import now raises ImportError

out_dir, points_csv, source_wav, recording_wav = sys.argv[1:]
from wakenode.cli import data_path, main
wakenode_modules = sorted(m for m in sys.modules if m.split(".")[0] == "wakenode")
NUMERICS = ("calibrate", "coherence", "frontend", "powersim", "signals", "wavio")
runs = {"wakenode": wakenode_modules, "import": sorted(
    m for m, mod in sys.modules.items() if mod and m.split(".")[0] in ("scipy", "yaml")
)}
runs["numerics"] = sorted(
    m for m in sys.modules
    if m.split(".")[0] == "numpy" or m.removeprefix("wakenode.") in NUMERICS
)
runs["orjson"] = sorted(m for m in sys.modules if m.split(".")[0] == "orjson")
runs["warnings"], runs["loaded"] = {}, {}
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
    with open(f"{out_dir}/{args[0].replace('-', '_')}_report.json") as fh:
        runs["warnings"][step] = json.load(fh)["results"]["warnings"]
    runs["loaded"][step] = [m for m in ("numpy", "orjson") if m in sys.modules]
print(json.dumps(runs))
"""

# whether OpenSSL's libcrypto (``_hashlib``) is loaded: after the import,
# after rank-mics and simulate --scenario, built-in and from a file, which
# hash no input or one below BUILTIN_SHA256_BYTES, after numpy's import,
# after calibrate, whose points are as small, while coherence finishes its
# Welch sums and after coherence, which hashes its WAVs with hashlib
OPENSSL = r"""
import contextlib, io, json, sys

out_dir, scenario_yaml, points_csv, source_wav, recording_wav = sys.argv[1:]
from wakenode.cli import data_path, main
loaded = {"import": "_hashlib" in sys.modules}

def run(step, args):
    with contextlib.redirect_stdout(io.StringIO()):
        loaded[f"{step}-status"] = main(["--out-dir", out_dir, *args])
    loaded[step] = "_hashlib" in sys.modules

run("rank-mics", ["rank-mics", str(data_path("microphones.csv"))])
run("simulate", ["simulate", "--scenario", "urban"])
run("simulate-file", ["simulate", "--scenario", scenario_yaml])
import numpy
loaded["numpy"] = "_hashlib" in sys.modules
from wakenode.coherence import WelchAccumulator
finish = WelchAccumulator.finish

def finish_noting_openssl(self):
    loaded["welch-finish"] = "_hashlib" in sys.modules
    return finish(self)

WelchAccumulator.finish = finish_noting_openssl
run("calibrate", ["calibrate", points_csv])
run("coherence", ["coherence", source_wav, recording_wav])
print(json.dumps(loaded))
"""

NO_NUMPY = r"""
import contextlib, io, json, sys

sys.modules["numpy"] = None  # every numpy import now raises ImportError

from wakenode.cli import main
runs = {}
for step, args in json.loads(sys.argv[2]).items():
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["--out-dir", f"{sys.argv[1]}/{step}", *args])
    runs[step] = [code, err.getvalue()]
print(json.dumps(runs))
"""

# a scenario file whose wakes merge under a hold and whose sums are inexact
SCENARIO_YAML = """segments:
  - {duration_s: 0.1, sound: true}
  - {duration_s: 0.2, sound: false}
  - {duration_s: 1.0e-18, sound: true}
  - {duration_s: 30.7, sound: true}
  - {duration_s: 2.9, sound: false}
  - {duration_s: 0.3, sound: true}
  - {duration_s: 100, sound: false}
"""

# the public names of the package, by the module that defined each when
# the package imported every module eagerly, less those deleted since
# because no command ran them; the records among them now live in
# wakenode.config alone
API = {
    "calibrate": "CalibrationCurve CalibrationDomainError CalPoint FitError adc_to_db "
    "fit_curve r_squared",
    "coherence": "AlignmentError CoherenceEstimate MicCandidate MicConfiguration RankedMic "
    "WelchParams Window magnitude_squared_coherence peak_envelope rank_microphones "
    "score_with_details",
    "frontend": "BinarySignal CircuitParams amplifier_gain amplify common_mode envelope_detect "
    "threshold_out",
    "powersim": "BUILTIN_PROFILES NodeConfig PowerProfile Scenario ScenarioSegment SimTrace "
    "battery_lifetime_days build_urban_scenario savings_percent simulate simulate_from_wake",
    "signals": "Signal find_delay resample",
    "wavio": "WavFormatError read_wav",
}
API_NAMES = [(module, name) for module, names in API.items() for name in names.split()]


PIN = r"""
import json, os, sys

if sys.argv[1:] == ["numpy-first"]:
    import numpy
import wakenode.cli
task = "/proc/self/task"
threads = len(os.listdir(task)) if os.path.isdir(task) else None
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), threads]))
"""


def _pin(*args: str, **env: str) -> list:
    proc = subprocess.run(
        [sys.executable, "-c", PIN, *args],
        capture_output=True,
        text=True,
        env={**child_env(), **env},
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
def inputs(tmp_path_factory) -> tuple[Path, Path, list[Path]]:
    """``(tmp, points, wavs)``: a directory, a calibration table in it and a
    90 s source and recording pair of WAVs at 16 kHz."""
    tmp = tmp_path_factory.mktemp("startup")
    points = tmp / "points.csv"
    adc = np.linspace(380.0, 1000.0, 12).tolist()
    points.write_text("adc_value,spl_db\n" + "".join(f"{x!r},{adc_to_db(x)!r}\n" for x in adc))
    # 16 kHz: below it, coherence warns that the analysis band has no headroom
    source = urban_like_signal(90.0, 16000.0, seed=5)
    recording = add_noise_at_snr(shift_right(source, 400), 20.0, seed=6)
    wavs = [tmp / "source.wav", tmp / "recording.wav"]
    for path, sig in zip(wavs, (source, recording)):
        wavfile.write(path, 16000, sig.samples.astype(np.float32))
    return tmp, points, wavs


def _child(script: str, *args: object) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def runs(inputs):
    tmp, points, wavs = inputs
    return _child(STEPS, tmp / "out", points, *wavs)


@pytest.fixture(scope="module")
def openssl(inputs):
    tmp, points, wavs = inputs
    scenario = tmp / "scenario.yaml"
    scenario.write_text(SCENARIO_YAML)
    return _child(OPENSSL, tmp / "openssl", scenario, points, *wavs)


def test_openssl_is_loaded_only_to_hash_inputs(openssl):
    # libcrypto is about 3.3 MiB of a command's peak RSS. The small inputs
    # of rank-mics, simulate --scenario and calibrate are hashed by the
    # interpreter's own SHA-256, and coherence's WAVs by hashlib after its
    # Welch pass, where its peak is. numpy < 2 imports numpy.random as it
    # loads, whose bit generators import secrets, so hmac and OpenSSL:
    # there calibrate's and coherence's numerics cannot run without it.
    # numpy >= 2 loads numpy.random on first use. rank-mics and simulate
    # --scenario, which never import numpy, map no libcrypto on either.
    by_numpy = openssl.pop("numpy")
    assert not by_numpy or np.lib.NumpyVersion(np.__version__) < "2.0.0"
    assert openssl == {
        "import": False,
        "rank-mics-status": 0,
        "rank-mics": False,
        "simulate-status": 0,
        "simulate": False,
        "simulate-file-status": 0,
        "simulate-file": False,
        "calibrate-status": 0,
        "calibrate": by_numpy,
        "welch-finish": by_numpy,
        "coherence-status": 0,
        "coherence": True,
    }


def test_cli_imports_only_the_package_and_its_input_module(runs):
    # every input's records and parsing live in one numpy-free module
    assert runs["wakenode"] == ["wakenode", "wakenode.cli", "wakenode.config"]


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


def test_import_loads_no_numpy_and_no_numerics_module(runs):
    assert runs["numerics"] == []


def test_import_loads_no_orjson(runs):
    # the CSV writer imports it for a long CSV's floats: 8 ms that start-up
    # (the benchmark's setup_s) does not pay
    assert runs["orjson"] == []


def test_import_loads_no_importlib_resources_and_no_tempfile():
    # without site (-S), which may import importlib.resources through a .pth
    # file: the bundled data are found next to the module, as plain files
    script = "import sys, wakenode.cli; print([m in sys.modules for m in sys.argv[1:]])"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, "importlib.resources", "tempfile"],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False]"


@pytest.mark.parametrize("step", ["rank-mics", "simulate"])
def test_short_csvs_load_no_numpy_and_no_orjson(runs, step):
    # neither writes a whole CSV block; and orjson with its numpy option
    # imports numpy to look at an object it does not know, like an array("d")
    assert runs["loaded"][step] == []


@pytest.mark.parametrize(
    "step", ["rank-mics", "simulate", "coherence", "simulate-wav", "calibrate"]
)
def test_imports_inside_a_command_warn_nothing_into_its_report(runs, step):
    assert runs["warnings"][step] == []


@pytest.fixture(scope="module")
def numpy_free(tmp_path_factory):
    """Each command that needs no numpy, run once in a fresh interpreter
    where numpy is unimportable: ``(runs, tmp, steps)``. ``runs`` maps each
    step to its ``[exit status, stderr]``, ``steps`` to its arguments, and
    a step's out dir is ``tmp / "child" / step``."""
    tmp = tmp_path_factory.mktemp("no-numpy")
    (tmp / "scenario.yaml").write_text(SCENARIO_YAML)
    config = tmp / "hold.yaml"
    config.write_text("node:\n  hold_time_s: 2.5\n")
    mics = str(wakenode.cli.data_path("microphones.csv"))
    steps = {
        "plain": ["rank-mics", mics],
        "analog": ["rank-mics", mics, "--analog", "--supply", "3.3"],
        "urban": ["simulate", "--scenario", "urban"],
        "urban-ble": ["simulate", "--scenario", "urban", "--profile", "ble"],
        "silence": ["simulate", "--scenario", "silence"],
        "yaml": ["--config", str(config), "simulate", "--scenario", str(tmp / "scenario.yaml")],
    }
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY, str(tmp / "child"), json.dumps(steps)],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout), tmp, steps


def same_outputs_as_here(numpy_free, step, names, capsys):
    """Run ``step`` in this process, which has numpy, and check that each
    file in ``names`` has the bytes of the numpy-free run, out dir aside."""
    _, tmp, steps = numpy_free
    here = tmp / "here" / step
    assert wakenode.cli.main(["--out-dir", str(here), *steps[step]]) == 0
    capsys.readouterr()
    for name in names:
        child = (tmp / "child" / step / name).read_text()
        assert child == (here / name).read_text().replace(str(here), str(tmp / "child" / step))


def test_rank_mics_runs_without_numpy(numpy_free, capsys):
    runs, tmp, _ = numpy_free
    assert runs["plain"] == runs["analog"] == [0, ""]
    golden = Path(__file__).parent / "golden" / "ranking_analog_3v3.csv"
    assert (tmp / "child" / "analog" / "ranking.csv").read_text() == golden.read_text()
    # the plain ranking is the one this process, which has numpy, writes
    same_outputs_as_here(numpy_free, "plain", ["ranking.csv", "rank_mics_report.json"], capsys)


@pytest.mark.parametrize("step", ["urban", "urban-ble", "silence", "yaml"])
def test_simulate_scenario_runs_without_numpy(numpy_free, capsys, step):
    assert numpy_free[0][step] == [0, ""]
    same_outputs_as_here(numpy_free, step, ["trace.csv", "simulate_report.json"], capsys)


@pytest.mark.parametrize("module, name", API_NAMES)
def test_every_public_name_resolves_from_the_package(module, name):
    home = wakenode._SOURCE[name]
    assert home in (module, "config")
    assert getattr(wakenode, name) is getattr(importlib.import_module(f"wakenode.{home}"), name)


def top_level_names(path: str) -> set[str]:
    """The names a module's source binds at top level by ``def``, ``class``
    or assignment, not by import."""
    names = set()
    for node in ast.parse(Path(path).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("module", sorted({*wakenode._SOURCE.values(), "config"}))
def test_a_module_exports_only_what_it_defines(module):
    mod = importlib.import_module(f"wakenode.{module}")
    assert set(mod.__all__) - top_level_names(mod.__file__) == set()


def load_time_imports(path: str) -> list[str]:
    """The modules a source imports as it loads: every import outside a
    function body and outside an ``if TYPE_CHECKING:`` block, relative ones
    with their leading dots."""
    found: list[str] = []

    def visit(nodes: Iterable[ast.AST]) -> None:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
                visit(node.orelse)
                continue
            if isinstance(node, ast.Import):
                found.extend(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = "." * node.level + (node.module or "")
                found.extend([base] if node.module else (base + a.name for a in node.names))
            visit(ast.iter_child_nodes(node))

    visit(ast.parse(Path(path).read_text()).body)
    return found


def test_powersim_loads_no_numpy_and_no_frontend():
    # simulate --scenario runs without numpy only while this holds
    imports = load_time_imports(wakenode.powersim.__file__)
    assert ".config" in imports
    assert [m for m in imports if m.split(".")[0] == "numpy" or m == ".frontend"] == []


def test_every_package_name_is_exported_by_its_home():
    missing = [
        (module, name)
        for name, module in wakenode._SOURCE.items()
        if name not in importlib.import_module(f"wakenode.{module}").__all__
    ]
    assert missing == []


def test_star_import_gives_the_public_names():
    namespace: dict = {}
    exec("from wakenode import *", namespace)
    assert set(namespace) - {"__builtins__"} == {name for _, name in API_NAMES}
    assert set(namespace) - {"__builtins__"} <= set(dir(wakenode))


def test_unknown_names_raise_attribute_error():
    for module in (wakenode, wakenode.cli):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
    # the modules that define the public names are reachable as attributes
    assert wakenode.powersim is importlib.import_module("wakenode.powersim")


def test_cli_still_reaches_the_names_its_commands_import():
    assert wakenode.cli.simulate is wakenode.powersim.simulate
