"""Each numpy-free command run of ``golden/update_outputs.py`` exits with
the status, and writes stdout and output files with the SHA-256 digests,
that ``golden/outputs.json`` records, every path it was given masked."""

import json

import pytest

from golden.update_outputs import ENTRIES, OUTPUTS, run_entry

GOLDEN = json.loads(OUTPUTS.read_text())


@pytest.mark.parametrize("name", sorted(ENTRIES.keys() | GOLDEN.keys()))
def test_outputs_match_the_manifest(name, tmp_path):
    assert run_entry(name, tmp_path) == GOLDEN.get(name)
