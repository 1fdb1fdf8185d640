"""Each command run of ``golden/update_outputs.py`` exits with the status,
and writes stdout and output files with the SHA-256 digests, that
``golden/outputs.json`` records, every path it was given masked. A run
recorded with a numpy version is skipped on any other."""

import json

import numpy as np
import pytest

from golden.update_outputs import ENTRIES, OUTPUTS, run_entry

GOLDEN = json.loads(OUTPUTS.read_text())


@pytest.mark.parametrize("name", sorted(ENTRIES.keys() | GOLDEN.keys()))
def test_outputs_match_the_manifest(name, tmp_path):
    recorded = GOLDEN.get(name, {}).get("numpy", np.__version__)
    if recorded != np.__version__:
        pytest.skip(f"{name} is recorded on numpy {recorded}, not on numpy {np.__version__}")
    got = run_entry(name, tmp_path)
    assert got == GOLDEN.get(name)
    if name == "urban-file":
        # the built-in scenario spelled out traces alike; its report names the file
        builtin = GOLDEN["urban-zigbee-standalone"]["files"]["trace.csv"]
        assert got["files"]["trace.csv"] == builtin
