"""Rewrite ``outputs.json`` beside this file: for each run in
:data:`ENTRIES`, its arguments, its exit status and the SHA-256 of its
stdout and of every file it writes into its out dir. Each path a run is
given, the out dir included, is replaced by its placeholder before hashing.

None of these runs loads numpy, so the digests hold whatever numpy is
installed. After a change meant to alter these outputs, run from the
repository root::

    PYTHONPATH=src python tests/golden/update_outputs.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

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
INPUTS = {"scenario.yaml": TOUCHING_SCENARIO, "hold.yaml": "node: {hold_time_s: 3.0}\n"}

# each run's arguments after --out-dir; a {name} is the path of that input
ENTRIES: dict[str, list[str]] = {
    "rank-mics": ["rank-mics", "{microphones.csv}"],
    "rank-mics-analog-3v3": ["rank-mics", "{microphones.csv}", "--analog", "--supply", "3.3"],
    **{
        f"urban-{profile}": ["simulate", "--scenario", "urban", "--profile", profile]
        for profile in sorted(BUILTIN_PROFILES)
    },
    "silence": ["simulate", "--scenario", "silence"],
    "touching": ["simulate", "--scenario", "{scenario.yaml}"],
    "touching-hold": ["--config", "{hold.yaml}", "simulate", "--scenario", "{scenario.yaml}"],
}


def run_entry(name: str, tmp: Path) -> dict:
    """Run entry ``name`` in this process, with its inputs and out dir
    under ``tmp``, and return what ``outputs.json`` records of it."""
    given = {"{microphones.csv}": cli.data_path("microphones.csv"), "{out}": tmp / "out" / name}
    (tmp / "inputs").mkdir(parents=True, exist_ok=True)
    for input_name, text in INPUTS.items():
        given[f"{{{input_name}}}"] = tmp / "inputs" / input_name
        (tmp / "inputs" / input_name).write_text(text)
    argv = ["--out-dir", "{out}", *ENTRIES[name]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = cli.main([str(given.get(arg, arg)) for arg in argv])

    def sha256(data: bytes) -> str:
        for placeholder, path in given.items():
            data = data.replace(str(path).encode(), placeholder.encode())
        return hashlib.sha256(data).hexdigest()

    files = sorted(given["{out}"].iterdir()) if given["{out}"].exists() else []
    return {
        "argv": ENTRIES[name],
        "status": status,
        "stdout": sha256(stdout.getvalue().encode()),
        "files": {path.name: sha256(path.read_bytes()) for path in files},
    }


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {name: run_entry(name, Path(tmp)) for name in ENTRIES}
    OUTPUTS.write_text(json.dumps(outputs, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
