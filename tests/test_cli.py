import ast
import contextlib
import csv
import dataclasses
import gc
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import re
import stat
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from array import array
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

import wakenode.cli
import wakenode.config
from wakenode import (
    BUILTIN_PROFILES,
    CalibrationCurve,
    Signal,
    adc_to_db,
    amplify,
    envelope_detect,
    read_wav,
    resample,
    score_with_details,
    simulate_from_wake,
    threshold_out,
)
from wakenode.cli import (
    BUILTIN_SHA256_BYTES,
    CONFIG_ENV_VAR,
    CSV_BLOCK_ROWS,
    WAV_CHUNK_FRAMES,
    OutputError,
    _csv_blocks,
    _error_code,
    _finish,
    _float_cells,
    _publish,
    _score_wavs,
    _sha256,
    _trace_csv,
    data_path,
    main,
)
from wakenode.coherence import analysis_welch
from wakenode.config import IoParams, RunConfig, _settable, load_run_config, parse_run_config
from wakenode.wavio import WavReader

from conftest import (
    add_noise_at_snr,
    child_env,
    chunk,
    fmt_chunk,
    rf64,
    riff,
    shift_right,
    urban_like_signal,
)

GOLDEN = Path(__file__).parent / "golden"


def write_config(tmp_path, text: str):
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    return str(path)


class TestSimulateZeroPower:
    def test_unbounded_lifetime_reported_as_null(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "node:\n  profile:\n    name: lab\n    transmit_mw: 10.0\n    sleep_mw: 0\n",
        )
        out = tmp_path / "out"
        code = main(["--config", config, "--out-dir", str(out), "simulate", "--scenario", "silence"])
        assert code == 0
        report = json.loads((out / "simulate_report.json").read_text())
        assert report["results"]["avg_power_mw"] == 0.0
        assert report["results"]["lifetime_days"] is None
        assert json.loads(capsys.readouterr().out) == report["results"]
        assert (out / "trace.csv").read_text().splitlines()[1:] == ["0.0,480.0,sleep,0.0"]

    @pytest.mark.parametrize("sleep_mw", ["1.0e-320", "2.0e-321"])
    def test_overflowing_lifetime_reported_as_null(self, tmp_path, capsys, sleep_mw):
        config = write_config(
            tmp_path,
            f"node:\n  profile: {{name: tiny, transmit_mw: 1.0, sleep_mw: {sleep_mw}}}\n",
        )
        out = tmp_path / "out"
        code = main(["--config", config, "--out-dir", str(out), "simulate", "--scenario", "silence"])
        assert code == 0, capsys.readouterr().err
        report = json.loads((out / "simulate_report.json").read_text())
        assert 0.0 < report["results"]["avg_power_mw"] < 1e-300
        assert report["results"]["lifetime_days"] is None
        assert json.loads(capsys.readouterr().out) == report["results"]


class TestErrorCodes:
    @pytest.mark.parametrize(
        "cls",
        [
            value
            for module in (wakenode.config, wakenode.cli)
            for value in vars(module).values()
            if isinstance(value, type)
            and issubclass(value, BaseException)
            and value.__module__ == module.__name__
        ],
        ids=lambda cls: cls.__name__,
    )
    def test_every_error_class_has_a_code(self, cls):
        assert _error_code(cls("message")) != "E_INTERNAL"

    @pytest.mark.parametrize(
        "argv, line",
        [
            (
                ["simulate", "--scenario", "urban", "--profile", "nope"],
                "[E_INPUT]: unknown profile 'nope'; "
                "built-ins are ['ble', 'wifi', 'zigbee', 'zigbee-standalone']",
            ),
            (
                ["--config", "{tmp}/profile.yaml", "simulate", "--scenario", "urban"],
                "[E_CONFIG]: node.profile: unknown profile 'nope'; "
                "built-ins are ['ble', 'wifi', 'zigbee', 'zigbee-standalone']",
            ),
            (
                ["simulate", "--scenario", "{tmp}/scenario.yaml"],
                "[E_CONFIG]: {tmp}/scenario.yaml: segments[0].duration_s: expected a number, got 'x'",
            ),
            (
                ["rank-mics", "{tmp}/mics.csv"],
                "[E_CONFIG]: {tmp}/mics.csv:2.power_mw: expected a number, got 'x'",
            ),
        ],
        ids=["flag", "config", "scenario-cell", "table-cell"],
    )
    def test_unknown_profile_exits_with_one_line(self, tmp_path, capsys, argv, line):
        # as an unknown profile does, so does a scenario file's or a
        # microphone table's cell that is not a number
        (tmp_path / "profile.yaml").write_text("node: {profile: nope}\n")
        (tmp_path / "scenario.yaml").write_text("segments:\n  - {duration_s: x, sound: true}\n")
        table = data_path("microphones.csv").read_text().splitlines(keepends=True)
        name, _power_mw, rest = table[1].split(",", 2)
        (tmp_path / "mics.csv").write_text("".join([table[0], f"{name},x,{rest}", *table[2:]]))
        out = tmp_path / "out"
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert main(["--out-dir", str(out), *argv]) == 1
        assert capsys.readouterr().err == f"wakenode: error {line.format(tmp=tmp_path)}\n"
        assert not out.exists()

    def test_nearly_flat_calibration_table_is_degenerate(self, tmp_path, capsys):
        # np.ptp of these dB values is 1e-300, but the squares of their
        # deviations, which R^2 divides by, underflow to a zero sum
        points = tmp_path / "points.csv"
        rows = "".join(f"{400 + 10 * i},{(1 + i % 2) * 1e-300!r}\n" for i in range(8))
        points.write_text("adc_value,spl_db\n" + rows)
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "calibrate", str(points)]) == 1
        assert capsys.readouterr().err == (
            "wakenode: error [E_FIT]: calibration points are degenerate (no variation)\n"
        )
        assert not out.exists()

    def test_scenario_whose_hours_underflow_exits_config(self, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_text("segments:\n  - {duration_s: 5.0e-324, sound: true}\n")
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "simulate", "--scenario", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"wakenode: error [E_CONFIG]: {path}: total duration_s 5e-324 is too short: "
            "its hours underflow to zero\n"
        )
        assert not out.exists()

    def test_subnormal_scenario_with_nonzero_hours_runs(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text("segments:\n  - {duration_s: 1.0e-310, sound: true}\n")
        assert main(["--out-dir", str(tmp_path / "out"), "simulate", "--scenario", str(path)]) == 0


class TestNonFiniteInputs:
    def test_infinite_battery_rejected_before_any_output(self, tmp_path, capsys):
        config = write_config(tmp_path, "node:\n  battery_mah: .inf\n")
        out = tmp_path / "out"
        code = main(["--config", config, "--out-dir", str(out), "simulate", "--scenario", "urban"])
        assert code == 1
        assert "[E_CONFIG]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--scenario", "urban", "--threshold-v", "inf"],
            ["simulate", "--scenario", "urban", "--mic-scale-v", "nan"],
            ["rank-mics", "unused.csv", "--supply", "inf"],
        ],
    )
    def test_non_finite_flag_rejected_before_any_output(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), *args]) == 1
        assert "[E_INPUT]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1", "0"])
    @pytest.mark.parametrize("source", ["--wav", "--scenario"])
    def test_non_positive_threshold_rejected_before_any_decoding(
        self, tmp_path, capsys, source, value
    ):
        # the WAV's first sample is NaN, which its decoding would report first
        wav = tmp_path / "a.wav"
        x = np.zeros(1000, dtype=np.float32)
        x[0] = np.nan
        wavfile.write(wav, RATE, x)
        out = tmp_path / "out"
        args = ["--out-dir", str(out), "simulate", source]
        args += [str(wav) if source == "--wav" else "urban", "--threshold-v", value]
        assert main(args) == 1
        assert capsys.readouterr().err == (
            "wakenode: error [E_INPUT]: --threshold-v: expected a positive number, "
            f"got {float(value)}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_report_writer_refuses_non_json_numbers(self, tmp_path, value):
        cfg = RunConfig(io=IoParams(str(tmp_path)))
        with pytest.raises(ValueError):
            _finish("simulate", cfg, {}, {"lifetime_days": value}, "trace.csv", ["t\n", "0\n"], [])
        assert not (tmp_path / "simulate_report.json").exists()
        assert list(tmp_path.iterdir()) == []


# the cells orjson spells otherwise than repr(): below 1e-4, from 1e16 up,
# NaN and the infinities
EXCEPTIONAL = [
    5e-324, math.nextafter(1e-4, 0), 1e-5, 1e-7, 1e16, 1.7976931348623157e308,
    -1.7976931348623157e308, math.nan, math.inf, -math.inf,
]
# those, the ordinary cells at the edges of their range and one whose text
# holds "0.0000" but is spelled as repr() spells it
PINNED = [0.0, -0.0, 1e-4, math.nextafter(1e16, 0), 2.0**53, 10.00001, *EXCEPTIONAL]


def float_inputs(values: list[float]) -> list:
    """``values`` as each input ``_float_cells`` takes: a list, a float64
    array and an array("d"); first as they are, then repeated to a whole
    block, which goes through orjson."""
    long = values * -(-CSV_BLOCK_ROWS // len(values))
    return [kind(v) for v in (values, long) for kind in (list, np.array, partial(array, "d"))]


class TestFloatCells:
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=50))
    @settings(max_examples=300, deadline=None)
    def test_cells_are_repr(self, values):
        for given_values in float_inputs(values):
            assert _float_cells(given_values) == [repr(float(v)) for v in given_values]

    @pytest.mark.parametrize("value", PINNED, ids=repr)
    def test_pinned_values_are_repr(self, value):
        for given_values in float_inputs([value, 0.5, value]):
            assert _float_cells(given_values) == [repr(float(v)) for v in given_values]

    @pytest.mark.parametrize(
        "index", [0, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, 3 * CSV_BLOCK_ROWS - 1]
    )
    def test_an_exceptional_cell_alone_at_a_block_edge(self, index, monkeypatch):
        # every other cell is ordinary, so with float64 columns the block
        # holding the exceptional cell is joined row by row, whole, and the
        # blocks beside it take the block route; list and array("d")
        # columns are joined row by row in every block
        ordinary = (np.arange(3 * CSV_BLOCK_ROWS) + 1.0) / 7.0
        second = ordinary * -3.0
        first = index - index % CSV_BLOCK_ROWS
        block = slice(first, first + CSV_BLOCK_ROWS)
        joined: list = []  # each float column block joined row by row
        def spy(values):
            joined.append(values)
            return _float_cells(values)

        monkeypatch.setattr(wakenode.cli, "_float_cells", spy)
        for value in EXCEPTIONAL:
            column = ordinary.copy()
            column[index] = value
            expected = "".join(f"{v!r},{w!r}\n" for v, w in zip(column.tolist(), second.tolist()))
            for kind in (list, np.array, partial(array, "d")):
                joined.clear()
                given_values = (kind(column.tolist()), kind(second.tolist()))
                assert "".join(_csv_blocks("", *given_values)) == expected
                if kind is np.array:
                    assert [bytes(b) for b in joined] == [bytes(column[block]), bytes(second[block])]
                else:
                    assert len(joined) == 3 * 2

    def test_an_ordinary_cell_holding_zeros_takes_the_block_route(self, monkeypatch):
        # 10.00001's text holds "0.0000", but orjson spells it as repr()
        # does: a float64 block holding it is found ordinary from its values
        # and cut from one orjson call; list and array("d") columns are
        # joined row by row in every block
        column = (np.arange(3 * CSV_BLOCK_ROWS) + 1.0) / 7.0
        column[CSV_BLOCK_ROWS + 5] = 10.00001
        second = column * -3.0
        expected = "".join(f"{v!r},{w!r}\n" for v, w in zip(column.tolist(), second.tolist()))
        joined: list = []
        def spy(values):
            joined.append(values)
            return _float_cells(values)

        monkeypatch.setattr(wakenode.cli, "_float_cells", spy)
        for kind in (list, np.array, partial(array, "d")):
            joined.clear()
            given_values = (kind(column.tolist()), kind(second.tolist()))
            assert "".join(_csv_blocks("", *given_values)) == expected
            assert len(joined) == (0 if kind is np.array else 3 * 2)


def mixed_columns(rows: int) -> tuple[np.ndarray, list[str], np.ndarray]:
    """Floats of every magnitude, state names and a plain float grid."""
    rng = np.random.default_rng(rows)
    noise = rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, rows)
    state = ["transmit" if i % 3 == 0 else "sleep" for i in range(rows)]
    return noise, state, np.arange(rows, dtype=np.float64) / 7


class TestCsvBlocks:
    SPECIAL = [5e-324, -2.2250738585072e-308, 1e-310, 0.0, -0.0, 1e-5, 1e16, 3.0, -4096.0, 2.0**53]

    @pytest.mark.parametrize(
        ("rows", "floats"),
        [
            pytest.param(rows, floats, id=str(rows) if floats is None else f"{rows}-{floats}floats")
            for floats in (None, 2, 3)
            for rows in (4 * CSV_BLOCK_ROWS - 1, 4 * CSV_BLOCK_ROWS, 4 * CSV_BLOCK_ROWS + 1)
        ],
    )
    def test_float_cells_are_repr_and_read_back_to_the_same_bits(self, rows, floats):
        # ``floats`` float64 columns alone, or two beside a state column
        rng = np.random.default_rng(rows)
        bits = rng.integers(0, 2**64, rows, dtype=np.uint64, endpoint=False)
        bits[(bits >> np.uint64(52)) & np.uint64(0x7FF) == 0x7FF] ^= np.uint64(1 << 62)  # finite
        if floats:
            # the two middle blocks hold magnitudes from 2**-13 to 2**50 only,
            # which orjson spells as repr() does: they take the block route,
            # and the blocks that hold any magnitude are joined row by row
            middle = slice(CSV_BLOCK_ROWS, 3 * CSV_BLOCK_ROWS)
            exponents = rng.integers(1023 - 13, 1023 + 50, 2 * CSV_BLOCK_ROWS, dtype=np.uint64)
            bits[middle] &= np.uint64(~(0x7FF << 52) % 2**64)
            bits[middle] |= exponents << np.uint64(52)
        noise = bits.view(np.float64)
        # the special values open the first block and close the last rows
        noise[: len(self.SPECIAL)] = noise[-len(self.SPECIAL) :] = self.SPECIAL
        integers = np.arange(rows, dtype=np.float64) - 2048.0
        state = ["transmit" if i % 3 == 0 else "sleep" for i in range(rows)]
        floating = [noise, integers, integers / 7][: floats or 2]
        columns = floating if floats else [noise, state, integers]
        header = "a,state,b" if floats is None else ",".join("abc"[:floats])
        blocks = list(_csv_blocks(header + "\n", *columns))
        assert len(blocks) == 1 + -(-rows // CSV_BLOCK_ROWS)
        lines = "".join(blocks).splitlines()
        assert lines[0] == header and len(lines) == rows + 1
        cells = list(zip(*(line.split(",") for line in lines[1:])))
        if floats is None:
            assert list(cells.pop(1)) == state
        for column_cells, column in zip(cells, floating, strict=True):
            assert list(column_cells) == [repr(v) for v in column.tolist()]
            read_back = np.array([float(cell) for cell in column_cells])
            assert np.array_equal(read_back.view(np.uint64), column.view(np.uint64))

    @pytest.mark.parametrize("rows", [1, 4 * CSV_BLOCK_ROWS + 1])
    def test_list_columns_give_the_bytes_of_array_columns(self, rows):
        # a float column as a list, a float64 array or an array("d"), or as
        # str cells: the repr() of each float
        noise, state, grid = mixed_columns(rows)
        header = "f,state,g\n"
        as_arrays = "".join(_csv_blocks(header, noise, state, grid))
        texts = {as_arrays}
        for kind in (list, partial(array, "d"), lambda c: [repr(v) for v in c]):
            texts.add("".join(_csv_blocks(header, kind(noise.tolist()), state, kind(grid.tolist()))))
        assert texts == {as_arrays}
        assert "np." not in as_arrays  # repr of an np.float64 would print np.float64(...)


SHA256_SIZES = [0, BUILTIN_SHA256_BYTES - 1, BUILTIN_SHA256_BYTES, BUILTIN_SHA256_BYTES + 1]

# hashes argv[1] with the interpreter's own SHA-256 modules unimportable
NO_BUILTIN_SHA256 = r"""
import json, sys

sys.modules["_sha2"] = sys.modules["_sha256"] = None
from wakenode.cli import _sha256
print(json.dumps([_sha256(sys.argv[1]), "_hashlib" in sys.modules]))
"""


class TestSha256:
    @pytest.mark.parametrize("size", SHA256_SIZES)
    def test_digest_is_hashlibs(self, tmp_path, size, monkeypatch):
        # the implementation the size does not pick is made unusable:
        # hashlib below the constant, the interpreter's own modules from it up
        data = np.random.default_rng(size).bytes(size)
        path = tmp_path / "input"
        path.write_bytes(data)
        expected = hashlib.sha256(data).hexdigest()
        if size < BUILTIN_SHA256_BYTES:
            monkeypatch.setitem(sys.modules, "hashlib", None)
        else:
            builtin = SimpleNamespace(sha256=partial(pytest.fail, "built-in SHA-256 used"))
            for name in ("_sha2", "_sha256"):
                monkeypatch.setitem(sys.modules, name, builtin)
        assert _sha256(path) == expected

    def test_without_the_builtin_modules_hashlib_hashes(self, tmp_path):
        path = tmp_path / "input"
        path.write_bytes(b"adc_value,spl_db\n400.0,50.0\n")
        proc = subprocess.run(
            [sys.executable, "-c", NO_BUILTIN_SHA256, str(path)],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [hashlib.sha256(path.read_bytes()).hexdigest(), True]


class TestAtomicOutput:
    def test_failed_report_leaves_no_csv(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "simulate_report.json").mkdir(parents=True)
        assert main(["--out-dir", str(out), "simulate", "--scenario", "urban"]) == 1
        assert "[E_OUTPUT]" in capsys.readouterr().err
        assert not (out / "trace.csv").exists()
        assert os.listdir(out) == ["simulate_report.json"]

    def test_out_dir_blocked_by_a_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("not a directory")
        assert main(["--out-dir", str(out), "simulate", "--scenario", "urban"]) == 1
        assert "[E_OUTPUT]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["coherence", "simulate"])
    def test_directory_as_wav_input_is_an_input_error(self, tmp_path, capsys, command):
        wav = str(tmp_path)
        out = tmp_path / "out"
        argv = [wav, wav] if command == "coherence" else ["--wav", wav]
        assert main(["--out-dir", str(out), command, *argv]) == 1
        err = capsys.readouterr().err
        assert re.findall(r"\[(E_[A-Z_]+)\]", err) == ["E_INPUT"], err
        assert "Is a directory" in err
        assert not out.exists()

    def test_outputs_get_plain_write_mode_and_no_temp_files(self, tmp_path):
        out = tmp_path / "out"
        args = ["--out-dir", str(out), "rank-mics", str(data_path("microphones.csv"))]
        assert main(args) == 0
        assert main(args) == 0  # a second run replaces the first run's files
        plain = tmp_path / "plain.txt"
        plain.write_text("")
        mode = stat.S_IMODE(plain.stat().st_mode)
        assert sorted(os.listdir(out)) == ["rank_mics_report.json", "ranking.csv"]
        for name in os.listdir(out):
            assert stat.S_IMODE((out / name).stat().st_mode) == mode


    def test_csv_that_fails_midway_leaves_no_file(self, tmp_path):
        def rows():
            yield "t\n"
            yield "0\n"
            raise RuntimeError("row formatting failed")

        cfg = RunConfig(io=IoParams(str(tmp_path)))
        with pytest.raises(RuntimeError, match="row formatting"):
            _finish("simulate", cfg, {}, {}, "trace.csv", rows(), [])
        assert list(tmp_path.iterdir()) == []


def run_failing_at(argv: list[str], out: Path, patch: Callable) -> tuple[int, str]:
    """Exit code and stderr of ``main`` on ``argv`` with ``--out-dir out``,
    under ``patch(monkeypatch)``, with no ``out`` before it; the run must
    leave none."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        patch(monkeypatch)
        code, _, stderr = run_in_process(["--out-dir", str(out), *argv])
    assert not out.exists()
    return code, stderr


def csv_failing_at(row: int, error: BaseException) -> Callable:
    """A patch under which ``rank-mics`` hands ``_publish`` its CSV one row
    per chunk, raising ``error`` in place of row ``row``."""

    def patch(monkeypatch):
        command = wakenode.cli.cmd_rank_mics

        def failing(args, cfg):
            *head, chunks = command(args, cfg)
            rows = "".join(chunks).splitlines(keepends=True)

            def chunks_then_error():
                yield from rows[:row]
                raise error

            return (*head, chunks_then_error())

        monkeypatch.setattr(wakenode.cli, "cmd_rank_mics", failing)

    return patch


def failing_on_second(
    target: Any, name: str, real: Callable, applies: Callable = lambda *a, **k: True
) -> Callable:
    """A patch that sets ``target.name`` to ``real``, except that its second
    call that ``applies`` raises OSError."""

    def patch(monkeypatch):
        calls = []

        def second_fails(*args, **kwargs):
            if applies(*args, **kwargs):
                calls.append(args)
                if len(calls) == 2:
                    raise OSError(28, "No space left on device", str(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(target, name, second_fails, raising=False)

    return patch


RANK_MICS = ["rank-mics", str(data_path("microphones.csv"))]
# lines of the ranking CSV: a header and one row per candidate, as in the table
RANK_MICS_LINES = len(data_path("microphones.csv").read_text().splitlines())
# (exception raised by a CSV chunk iterator, the code it exits with)
CHUNK_ERRORS = [
    (lambda: OutputError("cannot write output: disk full"), "E_OUTPUT"),
    (lambda: OSError(5, "Input/output error"), "E_OUTPUT"),
    (lambda: ValueError("cell out of range"), "E_INPUT"),
    (lambda: RuntimeError("formatter bug"), "E_INTERNAL"),
]


class TestPublishFailures:
    """Failures injected into _publish after it made the output directory:
    each exits with one code and leaves no file that the run wrote."""

    @given(
        row=st.integers(0, RANK_MICS_LINES),
        error=st.sampled_from(CHUNK_ERRORS),
    )
    @settings(max_examples=25, deadline=None)
    def test_csv_chunk_iterator_failing_at_any_row(self, row, error):
        make, want = error
        with tempfile.TemporaryDirectory() as tmp:
            code, stderr = run_failing_at(RANK_MICS, Path(tmp) / "out", csv_failing_at(row, make()))
        assert code == 1
        assert re.findall(r"\[(E_[A-Z_]+)\]", stderr) == [want], stderr

    @pytest.mark.parametrize(
        "argv", [RANK_MICS, ["simulate", "--scenario", "urban"]], ids=["rank-mics", "simulate"]
    )
    @pytest.mark.parametrize(
        "patch",
        [
            # _publish creates each temp file with open(path, "x")
            failing_on_second(wakenode.cli, "open", open, lambda _, mode="r", *a, **k: mode == "x"),
            failing_on_second(os, "replace", os.replace),
        ],
        ids=["open-second-file", "replace-after-first-rename"],
    )
    def test_second_file_failing(self, tmp_path, argv, patch):
        code, stderr = run_failing_at(argv, tmp_path / "out", patch)
        assert code == 1
        assert re.findall(r"\[(E_[A-Z_]+)\]", stderr) == ["E_OUTPUT"], stderr
        assert "No space left on device" in stderr

    def test_failed_run_removes_the_parents_it_made(self):
        with tempfile.TemporaryDirectory() as tmp:
            patch = failing_on_second(os, "replace", os.replace)
            code, stderr = run_failing_at(RANK_MICS, Path(tmp) / "a" / "b" / "c", patch)
            assert os.listdir(tmp) == []
        assert code == 1
        assert re.findall(r"\[(E_[A-Z_]+)\]", stderr) == ["E_OUTPUT"], stderr

    def test_second_rename_failing_over_an_earlier_run(self, tmp_path):
        # the earlier run's report must not be left without its trace, and
        # the trace put back keeps the permission bits it had
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "simulate", "--scenario", "urban"]) == 0
        (out / "trace.csv").chmod(0o600)
        before = {path.name: (path.read_bytes(), path.stat().st_mode) for path in out.iterdir()}
        with pytest.MonkeyPatch.context() as monkeypatch:
            failing_on_second(os, "replace", os.replace)(monkeypatch)
            argv = ["--out-dir", str(out), "simulate", "--scenario", "urban", "--profile", "wifi"]
            code, _, stderr = run_in_process(argv)
        assert code == 1
        assert re.findall(r"\[(E_[A-Z_]+)\]", stderr) == ["E_OUTPUT"], stderr
        after = {path.name: (path.read_bytes(), path.stat().st_mode) for path in out.iterdir()}
        assert after == before


class TestGoldens:
    def test_analog_ranking_at_3v3(self, tmp_path):
        out = tmp_path / "out"
        mics = str(data_path("microphones.csv"))
        assert main(["--out-dir", str(out), "rank-mics", mics, "--analog", "--supply", "3.3"]) == 0
        got = (out / "ranking.csv").read_text().splitlines()
        assert got == (GOLDEN / "ranking_analog_3v3.csv").read_text().splitlines()

    @pytest.mark.parametrize(
        "profile,expected",
        [
            line.split(",")
            for line in (GOLDEN / "savings_percent.csv").read_text().splitlines()[1:]
        ],
    )
    def test_urban_savings_percent(self, tmp_path, capsys, profile, expected):
        out = tmp_path / "out"
        args = ["--out-dir", str(out), "simulate", "--scenario", "urban", "--profile", profile]
        assert main(args) == 0
        results = json.loads(capsys.readouterr().out)
        assert results["profile"] == profile
        assert f"{round(results['savings_percent'], 1):.1f}" == expected

    def test_urban_trace_closed_form(self, tmp_path):
        # zigbee-standalone: 20 s of transmit at 34.3 mW, then 100 s asleep
        # at 1.0 mW, four times
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "simulate", "--scenario", "urban"]) == 0
        rows = ["t_start_s,t_end_s,state,power_mw\n"]
        for t in (0.0, 120.0, 240.0, 360.0):
            rows.append(f"{t},{t + 20.0},transmit,34.3\n{t + 20.0},{t + 120.0},sleep,1.0\n")
        assert (out / "trace.csv").read_text() == "".join(rows)

    def test_profile_flag_reaches_the_embedded_config(self, tmp_path):
        out = tmp_path / "out"
        args = ["--out-dir", str(out), "simulate", "--scenario", "urban", "--profile", "wifi"]
        assert main(args) == 0
        report = json.loads((out / "simulate_report.json").read_text())
        assert parse_run_config(report["config"]).node.profile == BUILTIN_PROFILES["wifi"]

    def test_profile_flag_replaces_only_the_loaded_configs_profile(self, tmp_path):
        config = write_config(tmp_path, "node: {profile: ble, hold_time_s: 1.5}\n")
        out = tmp_path / "out"
        args = ["--config", config, "--out-dir", str(out), "simulate", "--scenario", "urban"]
        assert main([*args, "--profile", "wifi"]) == 0
        report = json.loads((out / "simulate_report.json").read_text())
        node = parse_run_config(report["config"]).node
        assert (node.profile, node.hold_time_s) == (BUILTIN_PROFILES["wifi"], 1.5)
        assert report["results"]["profile"] == "wifi"


class TestCommands:
    def test_coherence_finds_delay_and_scores(self, tmp_path, capsys, urban_90s_8k):
        source = tmp_path / "source.wav"
        recording = tmp_path / "recording.wav"
        wavfile.write(source, 8000, urban_90s_8k.samples)
        noisy = add_noise_at_snr(shift_right(urban_90s_8k, 800), 20.0, seed=3)
        wavfile.write(recording, 8000, noisy.samples)
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "coherence", str(source), str(recording)]) == 0
        report = json.loads((out / "coherence_report.json").read_text())
        results = report["results"]
        assert json.loads(capsys.readouterr().out) == results
        assert results["delay_samples"] == 800
        assert 0.5 < results["score"] <= 1.0
        assert len(results["warnings"]) == 2  # both files are below 16 kHz
        rows = (out / results["coherence_csv"]).read_text().splitlines()
        assert rows[0] == "frequency_hz,coherence,envelope"
        assert len(rows) == results["bins"] + 1

    def test_coherence_rate_warnings_come_first(self, tmp_path, capsys, urban_90s_8k):
        source = tmp_path / "source.wav"
        recording = tmp_path / "recording.wav"
        wavfile.write(source, 8000, urban_90s_8k.samples)
        wavfile.write(recording, 8000, urban_90s_8k.samples.astype(np.float32))
        # the truncation warning is raised as the file opens, before the rate checks
        recording.write_bytes(recording.read_bytes()[:-1])
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "coherence", str(source), str(recording)]) == 0
        results = json.loads((out / "coherence_report.json").read_text())["results"]
        assert json.loads(capsys.readouterr().out) == results
        found = results["warnings"]
        assert len(found) == 3
        assert found[0].startswith("source sample rate 8000 Hz")
        assert found[1].startswith("recording sample rate 8000 Hz")
        assert "the file holds" in found[2]

    def test_ranking_csv_quotes_names(self, tmp_path):
        mics = tmp_path / "mics.csv"
        mics.write_text(
            "name,power_mw,accuracy,configuration,supply_min_v,supply_max_v\n"
            '"Knowles, SPU0410",0.12,0.7,analog,1.5,3.6\n'
            'Mic "B",0.2,0.6,digital,1.6,3.6\n'
        )
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "rank-mics", str(mics), "--analog"]) == 0
        text = (out / "ranking.csv").read_text()
        rows = list(csv.reader(io.StringIO(text)))
        assert [len(row) for row in rows] == [6, 6, 6]
        assert sorted(row[1] for row in rows[1:]) == ["Knowles, SPU0410", 'Mic "B"']
        rewritten = io.StringIO()
        csv.writer(rewritten, lineterminator="\n").writerows(rows)
        assert rewritten.getvalue() == text

    def test_calibrate_fits_model_points(self, tmp_path, capsys):
        adc = np.linspace(380.0, 1000.0, 12).tolist()
        points = tmp_path / "points.csv"
        points.write_text(
            "adc_value,spl_db\n" + "".join(f"{x!r},{adc_to_db(x)!r}\n" for x in adc)
        )
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "calibrate", str(points)]) == 0
        results = json.loads(capsys.readouterr().out)
        assert results["points"] == 12
        assert results["r_squared"] > 0.999
        report = json.loads((out / "calibrate_report.json").read_text())
        assert report["inputs"]["points_csv"] == {
            "path": str(points),
            "sha256": hashlib.sha256(points.read_bytes()).hexdigest(),
        }
        rows = (out / results["residuals_csv"]).read_text().splitlines()
        assert rows[0] == "adc_value,spl_db,predicted_db,residual_db"
        assert len(rows) == 13
        assert max(abs(float(row.split(",")[3])) for row in rows[1:]) < 0.05

    def test_residuals_cells_are_repr_of_the_scalar_model(self, tmp_path, capsys):
        adc = np.linspace(380.0, 1000.0, 12).tolist()
        spl = [adc_to_db(x) + 0.1 * (-1) ** i for i, x in enumerate(adc)]
        points = tmp_path / "points.csv"
        rows = "".join(f"{x!r},{y!r}\n" for x, y in zip(adc, spl))
        points.write_text("adc_value,spl_db\n" + rows)
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "calibrate", str(points)]) == 0
        results = json.loads(capsys.readouterr().out)
        curve = CalibrationCurve(**results["curve"])
        expected = []
        for x, y in zip(adc, spl):
            predicted = adc_to_db(x, curve)
            expected.append(",".join(repr(float(v)) for v in (x, y, predicted, y - predicted)))
        assert (out / "residuals.csv").read_text().splitlines()[1:] == expected

    def test_empty_out_dir_is_rejected_before_any_output(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["--out-dir", "", "simulate", "--scenario", "urban"]) == 1
        assert "[E_INPUT]" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def command_args(command: str, tmp_path: Path, urban: Signal) -> list[str]:
    """Arguments that run ``command`` on small inputs written under ``tmp_path``."""
    if command == "coherence":
        wavs = [tmp_path / "source.wav", tmp_path / "recording.wav"]
        wavfile.write(wavs[0], 8000, urban.samples)
        wavfile.write(wavs[1], 8000, shift_right(urban, 80).samples)
        return ["coherence", *map(str, wavs)]
    if command == "simulate":
        return ["simulate", "--scenario", "urban"]
    if command == "calibrate":
        points = tmp_path / "points.csv"
        adc = np.linspace(380.0, 1000.0, 12).tolist()
        points.write_text("adc_value,spl_db\n" + "".join(f"{x!r},{adc_to_db(x)!r}\n" for x in adc))
        return ["calibrate", str(points)]
    return ["rank-mics", str(data_path("microphones.csv"))]


@pytest.mark.parametrize(
    "command, csv_key",
    [
        ("coherence", "coherence_csv"),
        ("simulate", "trace_csv"),
        ("calibrate", "residuals_csv"),
        ("rank-mics", "ranking_csv"),
    ],
)
def test_main_runs_the_command_looked_up_at_call_time(
    tmp_path, capsys, monkeypatch, urban_90s_8k, command, csv_key
):
    attribute = f"cmd_{command.replace('-', '_')}"
    original = getattr(wakenode.cli, attribute)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(wakenode.cli, attribute, counting)
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), *command_args(command, tmp_path, urban_90s_8k)]) == 0
    assert len(calls) == 1
    report = json.loads((out / f"{command.replace('-', '_')}_report.json").read_text())
    assert report["command"] == command
    assert isinstance(report["results"]["warnings"], list)
    assert (out / report["results"][csv_key]).exists()
    assert json.loads(capsys.readouterr().out) == report["results"]


# ----------------------------------------------------------------------
# simulate --wav streams the recording through the chain in chunks

RATE = 16_000
# a loud stretch over the chunk boundary at 131 072 samples, which ends a
# 65 536-sample scan block and falls inside a 600-sample one
BURST = (130_700, 131_300)


def write_int16(path: Path, x: np.ndarray) -> None:
    wavfile.write(path, RATE, np.round(np.clip(x, -1.0, 1.0) * 32767).astype(np.int16))


def bursty(n: int, seed: int) -> np.ndarray:
    """Quiet noise with loud stretches across a chunk boundary and at the end."""
    x = np.random.default_rng(seed).normal(scale=0.002, size=n)
    x[min(BURST[0], n // 2) : BURST[1]] += 0.9
    x[-40:] += 0.9
    return x


def write_24bit(path: Path, x: np.ndarray) -> None:
    """24-bit PCM, mono or with one column per channel (scipy cannot write it)."""
    channels = x.shape[1] if x.ndim == 2 else 1
    values = np.round(np.clip(x, -1.0, 1.0) * (2**23 - 1)).astype("<i4")
    raw = values.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    block = 3 * channels
    fmt = struct.pack("<HHIIHH", 1, channels, RATE, RATE * block, block, 24)
    body = b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", len(raw))
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body) + len(raw)) + body + raw)


def stereo(x: np.ndarray) -> np.ndarray:
    """x on the left and a quieter, different signal on the right."""
    return np.column_stack([x, 0.5 * bursty(len(x), seed=5)])


# every sample format the reader decodes, and two channel layouts
FORMATS = {
    "uint8": lambda path, x: wavfile.write(
        path, RATE, np.round(np.clip(x, -1.0, 1.0) * 127 + 128).astype(np.uint8)
    ),
    "int16": write_int16,
    "int24": write_24bit,
    "int32": lambda path, x: wavfile.write(
        path, RATE, np.round(np.clip(x, -1.0, 1.0) * (2**31 - 1)).astype(np.int32)
    ),
    "float32": lambda path, x: wavfile.write(path, RATE, x.astype(np.float32)),
    "float64": lambda path, x: wavfile.write(path, RATE, x),
    "stereo-int16": lambda path, x: write_int16(path, stereo(x)),
    "stereo-int24": lambda path, x: write_24bit(path, stereo(x)),
    "stereo-float32": lambda path, x: wavfile.write(path, RATE, stereo(x).astype(np.float32)),
}


def assert_later_chunk_rejected(tmp_path: Path, capsys, value: float) -> None:
    """A non-finite sample in the second chunk fails the run and leaves no output."""
    wav = tmp_path / "a.wav"
    x = np.random.default_rng(2).normal(scale=0.002, size=300_000).astype(np.float32)
    x[200_000] = value  # in the second chunk
    wavfile.write(wav, RATE, x)
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "simulate", "--wav", str(wav)]) == 1
    assert capsys.readouterr().err == (
        "wakenode: error [E_INPUT]: samples must all be finite (no NaN or infinity)\n"
    )
    assert not out.exists()


def whole_array_outputs(wav: Path, config: str) -> tuple[str, float, np.ndarray]:
    """trace.csv text, duty cycle and wake samples from whole-array calls."""
    cfg = load_run_config(config)
    audio = read_wav(wav)
    chain = amplify(Signal(audio.samples * 0.01, audio.sample_rate_hz), cfg.circuit)
    wake = threshold_out(envelope_detect(chain, cfg.circuit), 0.022)
    trace = simulate_from_wake(wake, cfg.node)
    return "".join(_trace_csv(trace, cfg.node)), trace.duty_cycle, wake.samples


class TestCircuitConfig:
    # the product underflows to 0 and the ratio overflows, while every value
    # is positive and finite
    @pytest.mark.parametrize(
        "circuit, message",
        [
            ("{r5_ohm: 1.0e-320, c5_f: 1.0e-12}", "r5_ohm * c5_f must be positive and finite"),
            ("{rf_ohm: 1.7e+308, r1_ohm: 1.0e-300}", "1 + rf_ohm / r1_ohm must be finite"),
        ],
    )
    @pytest.mark.parametrize("source", ["--wav", "--scenario"])
    def test_derived_values_rejected_before_any_output(
        self, tmp_path, capsys, circuit, message, source
    ):
        wav = tmp_path / "a.wav"
        write_int16(wav, bursty(1000, seed=1))
        config = write_config(tmp_path, f"circuit: {circuit}\n")
        out = tmp_path / "out"
        args = ["--config", config, "--out-dir", str(out), "simulate", source]
        assert main([*args, str(wav) if source == "--wav" else "urban"]) == 1
        assert f"[E_CONFIG]: circuit: {message}, got" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_envelope_rejected_before_any_output(self, tmp_path, capsys):
        # fs * tau = 16 scans 9 600-sample blocks, whose exp(k m) ramp reaches
        # about 3.8e260: on amplifier outputs near 5e99 the envelope overflows,
        # which only EnvelopeDetector.feed's own check catches
        wav = tmp_path / "a.wav"
        write_int16(wav, np.random.default_rng(7).uniform(-1.0, 1.0, 2 * RATE))
        out = tmp_path / "out"
        args = ["--out-dir", str(out), "simulate", "--wav", str(wav)]
        config = write_config(tmp_path, "circuit: {vdd_v: 1.0e100, c5_f: 1.0e-10}\n")
        assert main(["--config", config, *args]) == 1
        assert capsys.readouterr().err == (
            "wakenode: error [E_INPUT]: samples must all be finite (no NaN or infinity)\n"
        )
        assert not out.exists()
        # the board's c5_f (fs * tau = 1.44e6) runs the same supply
        config = write_config(tmp_path, "circuit: {vdd_v: 1.0e100}\n")
        assert main(["--config", config, *args]) == 0

    def test_exponent_without_dot_reads_as_with_dot(self, tmp_path, capsys):
        wav = tmp_path / "a.wav"
        write_int16(wav, bursty(20_000, seed=2))
        outputs = []
        for c5_f in ("9e-6", "9.0e-6"):
            config = write_config(tmp_path, f"circuit:\n  c5_f: {c5_f}\n")
            out = tmp_path / c5_f
            args = ["--config", config, "--out-dir", str(out), "simulate", "--wav", str(wav)]
            assert main(args) == 0
            report = json.loads((out / "simulate_report.json").read_text())
            del report["config"]["io"]
            outputs.append((capsys.readouterr().out, (out / "trace.csv").read_text(), report))
        assert outputs[0] == outputs[1]
        assert outputs[0][2]["config"]["circuit"]["c5_f"] == 9e-6


class TestSimulateWavStreaming:
    # fs * tau: 1.44e6 (the default board) and 1440 take 65536-sample scan
    # blocks, 1 takes 600-sample blocks, 0.3 to 0.002 the log-step scan, and
    # 1.6e23 rounds decay to 1
    @pytest.mark.parametrize("fs_tau", [1.44e6, 1440.0, 1.0, 0.3, 0.05, 0.002, 1.6e23])
    @pytest.mark.parametrize("samples", [300_000, 1_000])
    def test_trace_matches_whole_array_chain(self, tmp_path, capsys, fs_tau, samples):
        wav = tmp_path / "a.wav"
        write_int16(wav, bursty(samples, seed=samples))
        config = write_config(tmp_path, f"circuit:\n  c5_f: {fs_tau / (RATE * 1e7):.17e}\n")
        out = tmp_path / "out"
        assert main(["--config", config, "--out-dir", str(out), "simulate", "--wav", str(wav)]) == 0
        trace_csv, duty, wake = whole_array_outputs(wav, config)
        assert (out / "trace.csv").read_text() == trace_csv
        assert json.loads(capsys.readouterr().out)["duty_cycle"] == duty
        assert not wake[-1]  # a run still low at the last sample
        boundary = BURST[1] - BURST[1] % WAV_CHUNK_FRAMES
        if samples > boundary:  # a low run across a chunk boundary
            assert BURST[0] < boundary
            assert not wake[boundary - 1] and not wake[boundary]

    @pytest.mark.parametrize("fs_tau", [1440.0, 0.05])
    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    def test_every_format_streams_as_the_whole_array_chain(self, tmp_path, capsys, fmt, fs_tau):
        # each file is longer than one chunk, so every decoder fills the
        # reader's buffers more than once
        wav = tmp_path / f"{fmt}.wav"
        FORMATS[fmt](wav, bursty(300_000, seed=4))
        config = write_config(tmp_path, f"circuit:\n  c5_f: {fs_tau / (RATE * 1e7):.17e}\n")
        out = tmp_path / "out"
        assert main(["--config", config, "--out-dir", str(out), "simulate", "--wav", str(wav)]) == 0
        trace_csv, duty, wake = whole_array_outputs(wav, config)
        assert (out / "trace.csv").read_text() == trace_csv
        assert json.loads(capsys.readouterr().out)["duty_cycle"] == duty
        assert 0 < np.count_nonzero(~wake) < len(wake)

    def test_truncated_data_warns_once(self, tmp_path, capsys):
        wav = tmp_path / "a.wav"
        write_int16(wav, bursty(300_000, seed=1))
        wav.write_bytes(wav.read_bytes()[:-1])
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert main(["--out-dir", str(out), "simulate", "--wav", str(wav)]) == 0
        assert record == []  # reported, not raised past main
        results = json.loads((out / "simulate_report.json").read_text())["results"]
        captured = capsys.readouterr()
        assert json.loads(captured.out) == results
        assert captured.err == ""
        assert len(results["warnings"]) == 1
        assert "file holds" in results["warnings"][0]

    def test_a_warning_raised_per_chunk_is_reported_once(self, tmp_path, capsys, monkeypatch):
        # samples scaled to near the float limit overflow in every chunk
        wav = tmp_path / "a.wav"
        write_int16(wav, np.random.default_rng(3).normal(scale=0.2, size=5 * RATE))
        outputs = []
        for frames in (WAV_CHUNK_FRAMES, 1 << 13):
            monkeypatch.setattr(wakenode.cli, "WAV_CHUNK_FRAMES", frames)
            out = tmp_path / str(frames)
            argv = ["--out-dir", str(out), "simulate", "--wav", str(wav), "--mic-scale-v", "1e308"]
            assert main(argv) == 0
            report = (out / "simulate_report.json").read_text().replace(str(out), "OUT")
            outputs.append((capsys.readouterr(), (out / "trace.csv").read_text(), report))
        warned = json.loads(outputs[0][2])["results"]["warnings"]
        assert warned == ["overflow encountered in multiply"]
        assert outputs[0] == outputs[1]

    def test_nan_in_a_later_chunk_leaves_no_output(self, tmp_path, capsys):
        assert_later_chunk_rejected(tmp_path, capsys, np.nan)

    def test_inf_in_a_later_chunk_leaves_no_output(self, tmp_path, capsys):
        assert_later_chunk_rejected(tmp_path, capsys, np.inf)

    def test_peak_memory_does_not_grow_with_length(self, tmp_path, capsys):
        # the same four clicks in 60 s and in 240 s of quiet noise: the
        # traces have the same rows, so only held samples could grow the peak
        peaks = []
        for seconds in (60, 240):
            wav = tmp_path / f"{seconds}s.wav"
            x = np.random.default_rng(3).normal(scale=0.002, size=seconds * RATE)
            for t in (5, 20, 35, 50):
                x[t * RATE : t * RATE + 8] += 0.8
            write_int16(wav, x)
            del x
            tracemalloc.start()
            try:
                assert main(["--out-dir", str(tmp_path / "out"), "simulate", "--wav", str(wav)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2 * 2**20, peaks
        # the chain's buffers for one 32 768-sample chunk (256 KiB of
        # float64, the bytes, the comparator's masks), the detector's 512 KiB
        # ramp and the rest of the run: 1.1-1.2 MiB, where 131 072-sample
        # chunks took 2.0-2.2 MiB and fresh arrays per chunk 3.9-4.1 MiB
        assert max(peaks) < 3 * 2**20, peaks

    def test_peak_memory_does_not_grow_with_trace_rows(self, tmp_path, capsys):
        # 240 s with 4 clicks and with 20 000, one every 12 ms: at tau = 90 ms
        # each click's envelope falls back under the threshold in about 9 ms,
        # so every click is a wake run of its own
        config = write_config(tmp_path, "circuit:\n  c5_f: 9.0e-9\n")
        peaks, rows = [], []
        for clicks in (4, 20_000):
            wav = tmp_path / f"{clicks}.wav"
            x = np.random.default_rng(3).normal(scale=0.002, size=240 * RATE)
            x.reshape(clicks, -1)[:, 8:16] += 0.8
            write_int16(wav, x)
            del x
            out = tmp_path / f"out{clicks}"
            args = ["--config", config, "--out-dir", str(out), "simulate", "--wav", str(wav)]
            tracemalloc.start()
            try:
                assert main(args) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            rows.append(len((out / "trace.csv").read_text().splitlines()) - 1)
        assert rows == [9, 40_001]
        assert abs(peaks[1] - peaks[0]) < 2**20, peaks



# the closed-form bursts: tau = r5 c5 = 0.25 s, 0.3 V diodes, 0.02 V per unit
# of full scale into the default board (gain 1 + rf/r1 = 101, divider
# r6 / (r5 + r6) = 1/101, rails 0 and 3.3 V); the second burst's run
# crosses the chunk boundary at 131 072 samples
FS_TAU = 4000.0
DROP_V = 0.3
MIC_V = 0.02
THRESHOLD_V = 0.022
BURSTS = ((1_000, 0.75), (130_900, 0.95))  # (first sample, plateau amplitude)


def tone_burst(x: np.ndarray, start: int, plateau: float) -> int:
    """Write an fs/4 tone (samples 0, +a, 0, -a per period) from ``start``,
    its amplitude a fading in from 0.40 by 0.01 a period and then held at
    ``plateau`` for 100 periods; return the index of its last crest."""
    amplitudes = np.concatenate([np.arange(40, round(plateau * 100)) / 100, np.full(100, plateau)])
    end = start + 4 * len(amplitudes)
    x[start + 1 : end : 4] = amplitudes
    x[start + 3 : end : 4] = -amplitudes
    return end - 3


class TestWakeChainClosedForm:
    """The wake chain against closed forms of its physics, not against a
    second implementation.

    The detector level is the amplifier output less one diode drop, and the
    comparator output is low while that level, less a second drop and
    divided by (r5 + r6) / r6, exceeds the threshold. So the node wakes at
    the first sample whose amplified value exceeds
    ``threshold * (r5 + r6) / r6 + 2 drop``. After a burst's last crest the
    level ``V_crest`` decays as ``exp(-n / (fs tau))``, so the node sleeps
    again ``ceil(fs tau ln(V_crest / V_wake))`` samples after it, where
    ``V_wake = threshold * (r5 + r6) / r6 + drop`` is the level that holds
    it awake.
    """

    def test_wake_and_sleep_samples(self, tmp_path, capsys):
        x = np.zeros(140_000)
        last_crests = [tone_burst(x, start, plateau) for start, plateau in BURSTS]
        wav = tmp_path / "bursts.wav"
        wavfile.write(wav, RATE, x)
        config = write_config(
            tmp_path,
            f"circuit:\n  c5_f: {FS_TAU / (RATE * 1e7):.17e}\n  diode_drop_v: {DROP_V}\n",
        )
        out = tmp_path / "out"
        args = ["--config", config, "--out-dir", str(out), "simulate", "--wav", str(wav)]
        args += ["--threshold-v", str(THRESHOLD_V), "--mic-scale-v", str(MIC_V)]
        assert main(args) == 0, capsys.readouterr().err
        rows = [line.split(",") for line in (out / "trace.csv").read_text().splitlines()[1:]]
        transmit = [r for r in rows if r[2] == "transmit"]
        runs = [(round(float(r[0]) * RATE), round(float(r[1]) * RATE)) for r in transmit]

        def amplified(a: float) -> float:
            return min(3.3 / 2 + 101 * MIC_V * a, 3.3)

        wake_v = THRESHOLD_V * 101 + 2 * DROP_V  # 2.822 V
        v_wake = wake_v - DROP_V
        # the 19th crest (0.58: 2.8216 V) stays under it, the 20th (0.59:
        # 2.8418 V) wakes the node, and its level stays above V_wake until
        # the next, higher crest
        assert amplified(0.58) < wake_v < amplified(0.59)
        assert (amplified(0.59) - DROP_V) * math.exp(-3 / FS_TAU) > v_wake
        # the first burst stays under the rail, the second clips at it
        assert amplified(0.75) < 3.3 < 3.3 / 2 + 101 * MIC_V * 0.95
        delays = [FS_TAU * math.log((amplified(p) - DROP_V) / v_wake) for _, p in BURSTS]
        # 510.06 and 694.24: no rounding error near a whole sample decides them
        assert all(0.05 < d % 1 < 0.95 for d in delays)
        assert [math.ceil(d) for d in delays] == [511, 695]
        expected = [
            (start + 4 * 19 + 1, crest + math.ceil(delay))
            for (start, _), crest, delay in zip(BURSTS, last_crests, delays)
        ]
        assert runs == expected

    def test_wav_route_matches_the_scenario_route(self, tmp_path, capsys):
        # a scenario, and a WAV of it at 16 kHz: an fs/4 tone of amplitude
        # 0.75 during each sound segment (crests at the segment's second
        # sample and 3 samples before its end), zeros elsewhere; fs tau = 420,
        # long enough for the level to hold between crests 4 samples apart
        segments = [(0.3, False), (0.2, True), (0.4, False), (0.15, True), (0.25, False)]
        fs_tau, amplitude = 420.0, 0.75
        bounds = np.cumsum([0] + [round(d * RATE) for d, _ in segments])
        x = np.zeros(bounds[-1])
        for (_, sound), start, end in zip(segments, bounds, bounds[1:]):
            if sound:
                x[start + 1 : end : 4] = amplitude
                x[start + 3 : end : 4] = -amplitude
        wav, scenario = tmp_path / "scenario.wav", tmp_path / "scenario.yaml"
        wavfile.write(wav, RATE, x)
        scenario.write_text("segments:\n" + "".join(
            f"  - {{duration_s: {d}, sound: {str(sound).lower()}}}\n" for d, sound in segments
        ))
        config = write_config(
            tmp_path,
            f"circuit:\n  c5_f: {fs_tau / (RATE * 1e7):.17e}\n  diode_drop_v: {DROP_V}\n"
            "node:\n  hold_time_s: 0.05\n",
        )
        routes = []
        for source in (["--scenario", str(scenario)], ["--wav", str(wav)]):
            out = tmp_path / source[0].strip("-")
            args = ["--config", config, "--out-dir", str(out), "simulate", *source]
            args += ["--threshold-v", str(THRESHOLD_V), "--mic-scale-v", str(MIC_V)]
            assert main(args) == 0, capsys.readouterr().err
            rows = [line.split(",") for line in (out / "trace.csv").read_text().splitlines()[1:]]
            transmit = [(float(r[0]), float(r[1])) for r in rows if r[2] == "transmit"]
            routes.append((np.array(transmit), json.loads(capsys.readouterr().out)["duty_cycle"]))
        (scenario_runs, scenario_duty), (wav_runs, wav_duty) = routes

        # the closed forms of the class docstring: the first crest wakes the
        # node, one sample into the segment; the last crest's level decays
        # to V_wake in ceil(fs tau ln(V_crest / V_wake)) samples
        crest_v = 3.3 / 2 + 101 * MIC_V * amplitude
        assert crest_v < 3.3 and crest_v > THRESHOLD_V * 101 + 2 * DROP_V
        v_wake = THRESHOLD_V * 101 + DROP_V
        assert (crest_v - DROP_V) * math.exp(-4 / fs_tau) > v_wake
        decay = fs_tau * math.log((crest_v - DROP_V) / v_wake)
        assert 0.05 < decay % 1 < 0.95  # 53.56: no rounding near a whole sample decides it
        to_wake, to_sleep = 1 / RATE, (math.ceil(decay) - 3) / RATE
        assert wav_runs.shape == scenario_runs.shape == (2, 2)
        np.testing.assert_allclose(wav_runs - scenario_runs, [[to_wake, to_sleep]] * 2, atol=1e-9)
        total_s = bounds[-1] / RATE
        assert wav_duty - scenario_duty == pytest.approx(2 * (to_sleep - to_wake) / total_s, abs=1e-12)


def header_wav(rate: int, tag: int = 1, bits: int = 16, frames: int = 4000) -> bytes:
    """A 44-byte-header mono WAV: 16-bit PCM (tag 1) or 32-bit float (tag 3)
    noise, with byte rate ``rate * block_align`` and every size consistent."""
    x = np.random.default_rng(frames).normal(scale=0.2, size=frames)
    data = (np.round(x * 32767).astype("<i2") if tag == 1 else x.astype("<f4")).tobytes()
    align = bits // 8
    return b"".join([
        b"RIFF", struct.pack("<I", 36 + len(data)), b"WAVEfmt ",
        struct.pack("<IHHIIHH", 16, tag, 1, rate, rate * align, align, bits),
        b"data", struct.pack("<I", len(data)), data,
    ])


# 0.5 s at 8 kHz, and the (offset, format) of each field of its header
VALID_WAV = header_wav(8000)
HEADER_FIELDS = {
    "riff_size": (4, "<I"), "fmt_size": (16, "<I"), "tag": (20, "<H"),
    "channels": (22, "<H"), "rate": (24, "<I"), "byte_rate": (28, "<I"),
    "block_align": (32, "<H"), "bits": (34, "<H"), "data_size": (40, "<I"),
}


# VALID_WAV's samples in the big-endian RIFX and in the RF64 container,
# whose 28-byte ds64 chunk (EBU Tech 3306) after the form type holds the
# sizes that the RIFF and data headers give as 0xFFFFFFFF
VALID_SAMPLES = VALID_WAV[44:]
RIFX_WAV = riff(
    fmt_chunk(1, 1, 8000, 16, 2, ">"),
    chunk(b"data", np.frombuffer(VALID_SAMPLES, "<i2").astype(">i2").tobytes(), ">"),
    order=">",
)
RF64_WAV = rf64(fmt_chunk(1, 1, 8000, 16, 2), VALID_SAMPLES)
DS64_BYTES = 36


# each container's VALID_WAV and the (offset, format) of its header fields
CONTAINERS = {
    "RIFF": (VALID_WAV, HEADER_FIELDS),
    "RIFX": (RIFX_WAV, {k: (o, ">" + f[1:]) for k, (o, f) in HEADER_FIELDS.items()}),
    "RF64": (RF64_WAV, {
        **{k: (o + DS64_BYTES * (o >= 12), f) for k, (o, f) in HEADER_FIELDS.items()},
        "ds64_size": (16, "<I"), "riff_size64": (20, "<Q"), "data_size64": (28, "<Q"),
    }),
}


@st.composite
def mutated_wavs(draw) -> bytes:
    """VALID_WAV in a RIFF, RIFX or RF64 container with one header field
    (for RF64, the ds64 sizes among them) set to any value, 0 and the
    field's maximum among them, or moved by up to 9 from its own; or its
    rate and byte rate changed together; or the file cut at any offset."""
    valid, fields = CONTAINERS[draw(st.sampled_from(sorted(CONTAINERS)))]
    wav = bytearray(valid)
    mutation = draw(st.sampled_from(["field", "near", "rate", "truncate"]))
    if mutation == "truncate":
        return bytes(wav[: draw(st.integers(0, len(wav) - 1))])
    if mutation == "rate":
        rate = draw(st.one_of(st.sampled_from([0, 1, 2**31 - 1]), st.integers(0, 2**31 - 1)))
        offset, fmt = fields["rate"]
        struct.pack_into(fmt[0] + "II", wav, offset, rate, 2 * rate)
        return bytes(wav)
    offset, fmt = fields[draw(st.sampled_from(sorted(fields)))]
    top = 2 ** (8 * struct.calcsize(fmt)) - 1
    if mutation == "near":
        value = struct.unpack_from(fmt, wav, offset)[0] + draw(st.integers(-9, 9))
    else:
        value = draw(st.one_of(st.sampled_from([0, top]), st.integers(0, top)))
    struct.pack_into(fmt, wav, offset, min(max(value, 0), top))
    return bytes(wav)


def run_in_process(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def reject_constant(name: str) -> None:
    raise ValueError(f"{name} is not strict JSON")


def assert_whole_run_or_one_coded_error(argv: list[str], out: Path) -> None:
    """Run ``main`` on ``argv`` with ``--out-dir out``: either exit 0 with
    strict-JSON stdout, the same results in its report and its CSV beside
    it, or exit 1 with one ``[E_*]`` code that is not ``E_INTERNAL`` and no
    output directory."""
    code, stdout, stderr = run_in_process(["--out-dir", str(out), *argv])
    if code == 0:
        results = json.loads(stdout, parse_constant=reject_constant)
        (report,) = out.glob("*_report.json")
        assert json.loads(report.read_text(), parse_constant=reject_constant)["results"] == results
        (csv_name,) = [name for key, name in results.items() if key.endswith("_csv")]
        assert (out / csv_name).is_file()
    else:
        assert code == 1, stderr
        codes = re.findall(r"\[(E_[A-Z_]+)\]", stderr)
        assert len(codes) == 1 and codes[0] != "E_INTERNAL", stderr
        assert not out.exists()


class TestWavHeaders:
    @pytest.mark.parametrize("tag, bits", [(1, 16), (3, 32)])
    def test_zero_hz_header_is_a_wav_error(self, tmp_path, capsys, tag, bits):
        wav = tmp_path / "a.wav"
        wav.write_bytes(header_wav(0, tag, bits))
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "simulate", "--wav", str(wav)]) == 1
        assert "[E_WAV]" in capsys.readouterr().err
        assert not out.exists()

    def test_valid_wav_simulates(self, tmp_path, capsys):
        wav = tmp_path / "a.wav"
        wav.write_bytes(VALID_WAV)
        assert main(["--out-dir", str(tmp_path / "out"), "simulate", "--wav", str(wav)]) == 0
        assert json.loads(capsys.readouterr().out)["warnings"] == []

    @pytest.mark.parametrize("container", ["RIFX", "RF64"])
    def test_every_container_simulates_as_riff(self, tmp_path, capsys, container):
        traces = []
        for name, wav_bytes in (("RIFF", VALID_WAV), (container, CONTAINERS[container][0])):
            wav = tmp_path / f"{name}.wav"
            wav.write_bytes(wav_bytes)
            assert main(["--out-dir", str(tmp_path / name), "simulate", "--wav", str(wav)]) == 0
            assert json.loads(capsys.readouterr().out)["warnings"] == []
            traces.append((tmp_path / name / "trace.csv").read_bytes())
        assert traces[0] == traces[1]

    @given(wav_bytes=mutated_wavs())
    @settings(max_examples=200, deadline=None)
    def test_any_header_gives_a_whole_run_or_one_coded_error(self, wav_bytes):
        with tempfile.TemporaryDirectory() as tmp:
            wav = Path(tmp) / "a.wav"
            wav.write_bytes(wav_bytes)
            assert_whole_run_or_one_coded_error(["simulate", "--wav", str(wav)], Path(tmp) / "out")


# ----------------------------------------------------------------------
# CSV tables: any damage to a valid table is one coded error or a whole run

# one character over the csv module's default field_size_limit()
OVERSIZED_CELL = "1" * (csv.field_size_limit() + 1)
MIC_TABLE = list(csv.reader(io.StringIO(data_path("microphones.csv").read_text())))
CAL_TABLE = [["adc_value", "spl_db"]] + [
    [repr(x), repr(adc_to_db(x))] for x in np.linspace(380.0, 1000.0, 10).tolist()
]
TABLE_COMMANDS = {"rank-mics": MIC_TABLE, "calibrate": CAL_TABLE}
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)


@st.composite
def mutated_tables(draw, table: list[list[str]]) -> str:
    """``table`` (header first) as CSV text, with or without a byte-order
    mark, CRLF line ends and every cell quoted, and with at most one damage:
    a row missing its last cell or given an extra one, a header cell
    replaced, or a data cell set to a non-finite, overflowing, empty,
    non-numeric or oversized value."""
    rows = [list(row) for row in table]
    damage = draw(st.sampled_from(["none", "missing", "extra", "header", "cell"]))
    if damage in ("missing", "extra"):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if damage == "missing":
            row.pop()
        else:
            row.append(draw(st.sampled_from(["", "1.0", "x"])))
    elif damage == "header":
        rows[0][draw(st.integers(0, len(rows[0]) - 1))] = draw(TEXT)
    elif damage == "cell":
        cells = ["inf", "nan", "1e400", "", OVERSIZED_CELL]
        rows[draw(st.integers(1, len(rows) - 1))][draw(st.integers(0, len(rows[0]) - 1))] = draw(
            st.one_of(st.sampled_from(cells), TEXT)
        )
    text = io.StringIO()
    crlf = draw(st.booleans())
    quoting = csv.QUOTE_ALL if draw(st.booleans()) else csv.QUOTE_MINIMAL
    csv.writer(text, lineterminator="\r\n" if crlf else "\n", quoting=quoting).writerows(rows)
    return ("\ufeff" if draw(st.booleans()) else "") + text.getvalue()


def assert_table_run_or_one_coded_error(command: str, table: str) -> None:
    """``command`` on ``table``, as :func:`assert_whole_run_or_one_coded_error` checks it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_text(table, encoding="utf-8", newline="")
        assert_whole_run_or_one_coded_error([command, str(path)], Path(tmp) / "out")


class TestCsvTables:
    @pytest.mark.parametrize("command", sorted(TABLE_COMMANDS))
    @pytest.mark.parametrize("row", [0, 1])
    def test_oversized_cell_is_a_config_error(self, tmp_path, capsys, command, row):
        rows = [list(r) for r in TABLE_COMMANDS[command]]
        rows[row][0] = OVERSIZED_CELL
        path, out = tmp_path / "table.csv", tmp_path / "out"
        path.write_text("".join(",".join(r) + "\n" for r in rows))
        assert main(["--out-dir", str(out), command, str(path)]) == 1
        expected = f"[E_CONFIG]: {path}:{row + 1}: field larger than field limit"
        assert expected in capsys.readouterr().err
        assert not out.exists()

    @given(table=mutated_tables(MIC_TABLE))
    @settings(max_examples=100, deadline=None)
    def test_any_mic_table_gives_a_whole_run_or_one_coded_error(self, table):
        assert_table_run_or_one_coded_error("rank-mics", table)

    # a fit that succeeds costs ~60 ms, and about one example in five is one
    @given(table=mutated_tables(CAL_TABLE))
    @settings(max_examples=40, deadline=None)
    def test_any_calibration_table_gives_a_whole_run_or_one_coded_error(self, table):
        assert_table_run_or_one_coded_error("calibrate", table)


# ----------------------------------------------------------------------
# config trees and numeric flags: every settable field and every numeric
# flag, at any extreme of its type, is one coded error or a whole run

# the ends of float64 (the smallest subnormal and the largest finite), zero,
# a negative number, an infinity and NaN
FLOAT_EXTREMES = [5e-324, 1.7976931348623157e308, 0.0, -1.0, math.inf, math.nan]
INT_EXTREMES = [-1, 0, 1, 2, 2**63]


def config_leaves(cls: type, path: tuple[str, ...] = ()) -> list[tuple[tuple[str, ...], Any]]:
    """(YAML path, type) of every settable field under ``cls``, found as
    the config loader finds them."""
    leaves = []
    for name, kind in _settable(cls).items():
        if dataclasses.is_dataclass(kind):
            leaves += config_leaves(kind, (*path, name))
        else:
            leaves.append(((*path, name), kind))
    return leaves


CONFIG_LEAVES = config_leaves(RunConfig)


def typed_extremes(kind: Any) -> list[Any]:
    """Values of a field of type ``kind`` at the extremes of its type: for
    text, empty and non-ASCII; for an enum, each member and no member."""
    if kind is float:
        return FLOAT_EXTREMES
    if kind is int:
        return INT_EXTREMES
    if kind == int | None:
        return [None, *INT_EXTREMES]
    if kind is str:
        return ["", "\u00e9\u4e2d"]
    return [*(member.value for member in kind), "none"]


@st.composite
def config_trees(draw) -> dict[str, Any]:
    """One section of the default run config, as a config file sets it
    (``snapshot``), with one settable field set to an extreme of its type.
    The space is finite, so hypothesis draws each field at each extreme
    before it stops."""
    (*keys, name), kind = draw(st.sampled_from(CONFIG_LEAVES))
    tree = {keys[0]: RunConfig().snapshot()[keys[0]]}
    section = tree
    for key in keys:
        section = section[key]
    section[name] = draw(st.sampled_from(typed_extremes(kind)))
    return tree


def yaml_text(tree: dict[str, Any], indent: str = "") -> str:
    """``tree`` as block YAML, much faster than ``yaml.safe_dump``: each
    scalar is its JSON, which YAML reads as the same scalar, or ``.nan``
    or ``.inf``."""
    lines = []
    for key, value in tree.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:\n{yaml_text(value, indent + '  ')}")
            continue
        if isinstance(value, float) and not math.isfinite(value):
            text = ".nan" if math.isnan(value) else ("-.inf" if value < 0 else ".inf")
        else:
            text = json.dumps(value)
        lines.append(f"{indent}{key}: {text}\n")
    return "".join(lines)


# a value of each numeric flag: an extreme, or any float
FLAG_VALUES = st.one_of(st.sampled_from(FLOAT_EXTREMES), st.floats())


@st.composite
def flagged_commands(draw) -> list[str]:
    """``simulate`` of a WAV (``{wav}``) or of the urban scenario, or
    ``rank-mics``, each with or without each of its numeric flags."""
    command = draw(st.sampled_from(["--wav", "--scenario", "rank-mics"]))
    if command == "rank-mics":
        argv, flags = ["rank-mics", str(data_path("microphones.csv"))], ["--supply"]
    else:
        source = "{wav}" if command == "--wav" else "urban"
        argv, flags = ["simulate", command, source], ["--threshold-v", "--mic-scale-v"]
    for flag in flags:
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(FLAG_VALUES)!r}")
    return argv


def assert_config_run_or_one_coded_error(tree: dict[str, Any], argv: list[str]) -> None:
    """``argv`` with ``tree`` as its config file and a 0.5 s WAV for
    ``{wav}``, as :func:`assert_whole_run_or_one_coded_error` checks it."""
    with tempfile.TemporaryDirectory() as tmp:
        wav, path = Path(tmp) / "a.wav", Path(tmp) / "config.yaml"
        wav.write_bytes(VALID_WAV)
        path.write_text(yaml_text(tree))
        argv = ["--config", str(path), *(arg.format(wav=wav) for arg in argv)]
        assert_whole_run_or_one_coded_error(argv, Path(tmp) / "out")


class TestConfigTrees:
    # simulate --wav builds every record and every stage of the chain
    @given(tree=config_trees())
    @settings(max_examples=200, deadline=None)
    def test_any_field_at_any_extreme_gives_a_whole_run_or_one_coded_error(self, tree):
        assert_config_run_or_one_coded_error(tree, ["simulate", "--wav", "{wav}"])

    @given(argv=flagged_commands())
    @settings(max_examples=40, deadline=None)
    def test_any_numeric_flags_give_a_whole_run_or_one_coded_error(self, argv):
        assert_config_run_or_one_coded_error({}, argv)


# ----------------------------------------------------------------------
# coherence streams each recording through the resampler in chunks

def write_pair(directory: Path, rate: int, source: np.ndarray, recording: np.ndarray) -> list[str]:
    paths = []
    for name, x in (("source", source), ("recording", recording)):
        path = directory / f"{name}_{rate}_{len(x)}.wav"
        wavfile.write(path, rate, np.round(np.clip(x, -1.0, 1.0) * 32767).astype(np.int16))
        paths.append(str(path))
    return paths


def write_pair_95s(directory: Path, rate: int) -> tuple[list[str], list[str]]:
    """A 95 s source at ``rate`` and its recording, delayed by 2000 samples
    at the 8 kHz scoring rate, with noise; and the same two files resampled
    to 8 kHz."""
    source = urban_like_signal(95.0, float(rate), seed=11)
    recording = add_noise_at_snr(shift_right(source, rate // 4), 20.0, seed=12)
    full = write_pair(directory, rate, source.samples, 0.5 * recording.samples)
    at_8k = [resample(read_wav(path), 8000.0).samples for path in full]
    return full, write_pair(directory, 8000, *at_8k)


@pytest.fixture(scope="module")
def pair_95s(tmp_path_factory) -> tuple[list[str], list[str]]:
    """The 95 s pair at 44.1 kHz and at 8 kHz."""
    return write_pair_95s(tmp_path_factory.mktemp("pair"), 44_100)


def coherence_peaks(out: Path, pairs) -> list[int]:
    """tracemalloc's peak while ``coherence`` scores each pair."""
    peaks = []
    for pair in pairs:
        tracemalloc.start()
        try:
            assert main(["--out-dir", str(out), "coherence", *pair]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def scoring_peaks(pairs) -> list[int]:
    """tracemalloc's peak while each pair is scored as ``coherence`` streams
    it (``_score_wavs``), without the CSV and report."""
    peaks = []
    for pair in pairs:
        tracemalloc.start()
        try:
            with WavReader(pair[0]) as source, WavReader(pair[1]) as recording:
                _score_wavs(source, recording, analysis_welch())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


class TestCoherenceStreaming:
    def test_peak_memory_is_that_of_8khz_input(self, tmp_path, capsys, pair_95s):
        peaks = coherence_peaks(tmp_path / "out", pair_95s)
        assert abs(peaks[0] - peaks[1]) < 4 * 2**20, peaks

    def test_score_is_that_of_whole_signals(self, tmp_path, capsys, pair_95s):
        source, recording = pair_95s[0]
        assert main(["--out-dir", str(tmp_path / "out"), "coherence", source, recording]) == 0
        results = json.loads(capsys.readouterr().out)
        details = score_with_details(read_wav(source), read_wav(recording))
        assert results["delay_samples"] == details.delay_samples == 2000
        assert results["score"] == details.score

    # 3 969 000 frames are exactly 90 s at 44.1 kHz; one frame fewer still
    # resamples to 720 000 samples, exactly 90 s at 8 kHz
    @pytest.mark.parametrize(
        "frames, code",
        [((3_968_999, 3_969_000), 1), ((3_969_000, 3_968_999), 1), ((3_969_000, 3_969_000), 0)],
    )
    def test_90_s_is_counted_at_the_input_rate(self, tmp_path, capsys, pair_95s, frames, code):
        whole = [read_wav(path).samples for path in pair_95s[0]]
        pair = write_pair(tmp_path, 44_100, *(x[:n] for x, n in zip(whole, frames)))
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "coherence", *pair]) == code
        if code:
            assert "[E_INPUT]" in capsys.readouterr().err
            assert not out.exists()

    def test_peak_memory_does_not_grow_with_length(self, tmp_path, capsys, pair_95s):
        # the 95 s 8 kHz pair and the same audio repeated to 380 s
        repeated = (np.tile(read_wav(path).samples, 4) for path in pair_95s[1])
        long_pair = write_pair(tmp_path, 8000, *repeated)
        peaks = coherence_peaks(tmp_path / "out", (pair_95s[1], long_pair))
        assert abs(peaks[1] - peaks[0]) < 2**20, peaks

    def test_8khz_pair_scores_from_the_reader_buffers(self, pair_95s):
        # at 8 kHz the resampler passes each chunk through, so the scorer is
        # given each reader's buffer, which the reader's next chunk overwrites
        with WavReader(pair_95s[1][0]) as source, WavReader(pair_95s[1][1]) as recording:
            details = _score_wavs(source, recording, analysis_welch())
        whole = score_with_details(*(read_wav(path) for path in pair_95s[1]))
        assert details.delay_samples == whole.delay_samples == 2000
        assert np.array_equal(details.estimate.values, whole.estimate.values)
        assert details.score == whole.score

    # 48 kHz pulled down by 1.001, and rates whose reduced ratios to 8 kHz
    # have 1000 and 8000 phases; the scoring alone, as the two tests above
    # measure the whole command
    @pytest.mark.parametrize("rate", [47_952, 44_056, 44_101])
    def test_odd_rate_peaks_near_8khz_input(self, tmp_path, capsys, rate):
        full, at_8k = write_pair_95s(tmp_path, rate)
        doubled = write_pair(tmp_path, rate, *(np.tile(read_wav(path).samples, 2) for path in full))
        peaks = scoring_peaks((at_8k, full, doubled))
        assert peaks[1] - peaks[0] < 12 * 2**20, peaks
        assert abs(peaks[2] - peaks[1]) < 2**20, peaks


def assert_cli_scores_whole_signals(out: Path, stdout: str, pair: list[str]) -> dict:
    """The CLI's report and CSV hold the bits of score_with_details on the
    whole decoded files, each CSV cell spelled as repr() spells it."""
    results = json.loads(stdout)
    details = score_with_details(*(read_wav(path) for path in pair))
    assert results["score"] == details.score
    assert results["delay_samples"] == details.delay_samples
    assert results["bins"] == len(details.estimate.values)
    rows = (out / "coherence.csv").read_text().splitlines()[1:]
    columns = np.array([[float(v) for v in row.split(",")] for row in rows]).T
    assert np.array_equal(columns[0], details.estimate.frequencies_hz)
    assert np.array_equal(columns[1], details.estimate.values)
    assert np.array_equal(columns[2], details.envelope)
    estimate = (details.estimate.frequencies_hz, details.estimate.values, details.envelope)
    assert rows == [",".join(map(repr, row)) for row in zip(*(c.tolist() for c in estimate))]
    return results


def click_then_noise(n: int, click: int, quiet: int, seed: int) -> np.ndarray:
    """A click at sample ``click`` and white noise from sample ``quiet`` on,
    so a 10 s alignment window sees only the click."""
    x = np.zeros(n)
    x[quiet:] = np.random.default_rng(seed).normal(scale=0.2, size=n - quiet)
    x[click] = 0.9
    return x


class TestCoherenceStreamsBitIdentical:
    @pytest.mark.parametrize("delay", [0, 79_999])
    def test_8khz_delays(self, tmp_path, capsys, delay):
        # the largest delay the 10 s search window allows: only the click,
        # at sample 0 of the source, falls inside both alignment windows
        source = click_then_noise(760_000, 0, 80_000, seed=1)
        recording = np.zeros(760_000)
        recording[delay:] = 0.5 * source[: 760_000 - delay]
        recording += np.random.default_rng(2).normal(scale=0.002, size=760_000)
        pair = write_pair(tmp_path, 8000, source, recording)
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "coherence", *pair]) == 0
        results = assert_cli_scores_whole_signals(out, capsys.readouterr().out, pair)
        assert results["delay_samples"] == delay

    def test_48khz_source_and_44khz_recording(self, tmp_path, capsys):
        # the same click and 440 Hz tone at both rates, the recording 0.1 s late
        paths = []
        for name, rate, lag in (("source", 48_000, 0.0), ("recording", 44_100, 0.1)):
            t = np.arange(95 * rate) / rate
            x = 0.4 * np.sin(2 * np.pi * 440.0 * (t - lag)) * (t >= 10.0)
            x += click_then_noise(len(t), int(lag * rate), 10 * rate, seed=rate)
            paths.append(str(tmp_path / f"{name}.wav"))
            wavfile.write(paths[-1], rate, np.round(np.clip(x, -1, 1) * 32767).astype(np.int16))
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "coherence", *paths]) == 0
        results = assert_cli_scores_whole_signals(out, capsys.readouterr().out, paths)
        assert results["delay_samples"] == 800

    def test_44khz_pair(self, tmp_path, capsys, pair_95s):
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "coherence", *pair_95s[0]]) == 0
        assert_cli_scores_whole_signals(out, capsys.readouterr().out, pair_95s[0])


class TestCoherenceReadsWholeFiles:
    @pytest.mark.parametrize("lead", [False, True], ids=["aligned", "leading"])
    def test_non_finite_sample_after_the_span_fails(self, tmp_path, capsys, pair_95s, lead):
        # the NaN sits in the last 5 s, which scoring never reads; a recording
        # that also leads the source fails on the NaN, not on the alignment
        source, recording = (read_wav(path).samples for path in pair_95s[1])
        if lead:
            recording = source[4000:]
        bad = np.array(recording, dtype=np.float32)
        bad[-8000] = np.nan
        path = tmp_path / "nan.wav"
        wavfile.write(path, 8000, bad)
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "coherence", pair_95s[1][0], str(path)]) == 1
        assert "[E_INPUT]: samples must all be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kept, cause",
        [
            (0, "the alignment cross-correlation overflowed"),
            # the first 10 s, all that the alignment reads, keep their scale
            (80_000, "the Welch spectra overflowed"),
        ],
        ids=["alignment", "welch"],
    )
    def test_huge_finite_samples_fail_naming_the_cause(
        self, tmp_path, capsys, pair_95s, kept, cause
    ):
        # float64 samples scaled to 1e308 are finite, so no finiteness check
        # rejects them, but their products overflow
        paths = []
        for path in pair_95s[1]:
            x = read_wav(path).samples.copy()
            x[kept:] *= 1e308
            paths.append(str(tmp_path / Path(path).name))
            wavfile.write(paths[-1], 8000, x)
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "coherence", *paths]) == 1
        err = capsys.readouterr().err
        assert f"[E_INPUT]: cannot score {paths[1]} against {paths[0]}: {cause}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "welch, message",
        [
            ("segment_count: 1", "two Welch segments"),
            ("fft_length: 1024", "shorter than the segment length 142222"),
            ("segment_count: 1000000000", "too short for 1000000000 segments"),
            # 2**44 + 1 complex bins, 256 TiB: numpy's allocation fails
            (f"fft_length: {2**45}", "Unable to allocate"),
        ],
    )
    def test_bad_welch_settings_fail_before_decoding(
        self, tmp_path, capsys, monkeypatch, pair_95s, welch, message
    ):
        def no_decoding(*args):
            raise AssertionError("a WAV was decoded")

        monkeypatch.setattr(WavReader, "chunks_into", no_decoding)
        config = write_config(tmp_path, f"welch:\n  {welch}\n")
        out = tmp_path / "out"
        assert main(["--config", config, "--out-dir", str(out), "coherence", *pair_95s[0]]) == 1
        err = capsys.readouterr().err
        assert "[E_CONFIG]: welch: " in err and message in err
        assert not out.exists()


def no_fork():
    raise AssertionError("os.fork was called")


class TestCsvSplit:
    """No command splits its CSV rows with a forked worker: every command runs
    in this process."""

    @pytest.mark.parametrize("command", ["simulate-wav", "calibrate", "rank-mics"])
    def test_small_csv_commands_never_fork(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(os, "fork", no_fork)
        if command == "simulate-wav":
            wav = tmp_path / "clicks.wav"
            x = np.random.default_rng(5).normal(scale=0.002, size=60 * RATE)
            x.reshape(2000, -1)[:, 8:16] += 0.8
            write_int16(wav, x)
            args = ["simulate", "--wav", str(wav)]
        else:
            args = command_args(command, tmp_path, Signal(np.zeros(8), 8000.0))
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), *args]) == 0, capsys.readouterr().err
        assert len(os.listdir(out)) == 2


def test_no_command_forks(tmp_path, capsys, monkeypatch, urban_90s_8k):
    """The large CSVs too, coherence.csv's 131 073 rows included, are written
    in this process."""
    monkeypatch.setattr(os, "fork", no_fork)
    for i, command in enumerate(("coherence", "simulate")):
        out = tmp_path / f"out{i}"
        args = command_args(command, tmp_path, urban_90s_8k)
        assert main(["--out-dir", str(out), *args]) == 0, capsys.readouterr().err
        assert len(os.listdir(out)) == 2


# ----------------------------------------------------------------------
# the package's API is what the commands run: every function and
# hand-written method named in a numerics module's __all__ is reached by
# one run of each command, unless the allowlist below says why not

GUARDED_MODULES = ("signals", "wavio", "frontend", "powersim", "coherence", "calibrate")
BENCH_TRACE = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_trace.py"

# The allowlist: each public name that no command reaches, with the entries
# of benchmarks/bench_trace.py's LAYERS it is kept for. That benchmark's
# patched() looks every (module, function) of LAYERS up with no default, so
# a function stays while LAYERS wraps it, and Signal and BinarySignal stay
# while LAYERS wraps a function that takes or returns them.
WRAPPED = [
    ("wavio", "read_wav"), ("signals", "resample"), ("coherence", "score_with_details"),
    ("coherence", "magnitude_squared_coherence"), ("frontend", "amplify"),
    ("frontend", "envelope_detect"), ("frontend", "threshold_out"),
    ("powersim", "simulate_from_wake"),
]
UNREACHED = {
    **{key: [key] for key in WRAPPED},
    ("signals", "Signal"): WRAPPED[:-1],
    ("frontend", "BinarySignal"): WRAPPED[-2:],
}


def layers_functions() -> set[tuple[str, str]]:
    """The (module, function) pairs that bench_trace.LAYERS wraps, read from
    its source with ast, without importing the benchmark."""
    for node in ast.parse(BENCH_TRACE.read_text()).body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if any(getattr(t, "id", None) == "LAYERS" for t in targets):
            return {(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts}
    raise AssertionError(f"no LAYERS in {BENCH_TRACE}")


def hand_written_code(module: Any, value: Any) -> dict[str, Any]:
    """The code objects of a public function, or of each method, property
    and static or class method a class's body in ``module`` defines, by
    name; methods that dataclass or NamedTuple generate are not counted."""
    if not isinstance(value, type):
        return {value.__name__: inspect.unwrap(value).__code__}
    code = {}
    for name, attr in vars(value).items():
        func = attr.fget if isinstance(attr, property) else getattr(attr, "__func__", attr)
        func_code = getattr(func, "__code__", None)
        if func_code is not None and func_code.co_filename == module.__file__:
            code[f"{value.__name__}.{name}"] = func_code
    return code


def reached_code(argvs: list[list[str]]) -> set[Any]:
    """The code objects of every Python call made while ``main`` runs each
    argument list, which must exit 0."""
    reached: set[Any] = set()

    def record(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    for argv in argvs:
        sys.setprofile(record)
        try:
            code, _, stderr = run_in_process(argv)
        finally:
            sys.setprofile(None)
        assert code == 0, (argv, stderr)
    return reached


class TestApiIsWhatTheCommandsRun:
    def test_commands_reach_every_public_function_and_method(self, tmp_path, pair_95s):
        wav = tmp_path / "a.wav"
        wav.write_bytes(VALID_WAV)
        config = write_config(tmp_path, "node:\n  hold_time_s: 1.5\n")
        points = tmp_path / "points.csv"
        points.write_text("adc_value,spl_db\n" + "".join(
            f"{x!r},{adc_to_db(x)!r}\n" for x in np.linspace(380.0, 1000.0, 8).tolist()
        ))
        out = ["--out-dir", str(tmp_path / "out")]
        reached = reached_code([
            [*out, "coherence", *pair_95s[1]],
            [*out, "simulate", "--wav", str(wav)],
            [*out, "--config", config, "simulate", "--scenario", "urban"],
            [*out, "calibrate", str(points)],
            [*out, "rank-mics", str(data_path("microphones.csv")), "--analog", "--supply", "3.3"],
        ])
        unreached = {}
        for module_name in GUARDED_MODULES:
            module = importlib.import_module(f"wakenode.{module_name}")
            for name in module.__all__:
                missed = [
                    qualname
                    for qualname, code in hand_written_code(module, getattr(module, name)).items()
                    if code not in reached
                ]
                if missed:
                    unreached[(module_name, name)] = missed
        assert {key: missed for key, missed in unreached.items() if key not in UNREACHED} == {}
        # an allowlisted name that a command reaches is taken off the list
        assert [key for key in UNREACHED if key not in unreached] == []

    def test_allowlisted_names_are_still_wrapped_by_the_benchmark(self):
        # a name whose LAYERS entries are gone is deleted, with its tests
        wrapped = layers_functions()
        assert [key for key, kept_for in UNREACHED.items() if not wrapped & set(kept_for)] == []


class TestProcessExit:
    """``run`` is the process entry: ``main``, then ``gc.freeze()``, then
    ``sys.exit`` with main's status. ``main`` freezes nothing, and a
    ``python -m wakenode.cli`` process writes what ``main`` writes here."""

    @pytest.fixture
    def unfreeze(self):
        yield
        gc.unfreeze()

    def test_main_freezes_nothing(self, tmp_path):
        before = gc.get_freeze_count()
        assert run_in_process(["--out-dir", str(tmp_path), *RANK_MICS])[0] == 0
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize(
        "out, status, stderr",
        [
            ("out", 0, ""),
            ("", 1, "wakenode: error [E_INPUT]: --out-dir: expected a directory, got an empty string\n"),
        ],
        ids=["success", "input-error"],
    )
    def test_run_exits_with_mains_status(self, tmp_path, monkeypatch, capsys, unfreeze, out, status, stderr):
        out_dir = str(tmp_path / out) if out else out
        monkeypatch.setattr(sys, "argv", ["wakenode", "--out-dir", out_dir, *RANK_MICS])
        with pytest.raises(SystemExit) as exited:
            wakenode.cli.run()
        assert exited.value.code == status
        assert capsys.readouterr().err == stderr
        assert gc.get_freeze_count() > 0

    @pytest.mark.parametrize("command", ["calibrate", "simulate"])
    def test_module_process_writes_what_main_writes(self, tmp_path, command):
        points = tmp_path / "points.csv"
        adc = np.linspace(380.0, 1000.0, 40).tolist()
        points.write_text("adc_value,spl_db\n" + "".join(
            f"{x!r},{adc_to_db(x) + 0.5 * math.sin(x)!r}\n" for x in adc
        ))
        argv = {"calibrate": ["calibrate", str(points)], "simulate": ["simulate", "--scenario", "urban"]}
        child_out, here_out = tmp_path / "child", tmp_path / "here"
        child = subprocess.run(
            [sys.executable, "-m", "wakenode.cli", "--out-dir", str(child_out), *argv[command]],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=60,
        )
        here = run_in_process(["--out-dir", str(here_out), *argv[command]])
        masked = [child.returncode, child.stdout.replace(str(child_out), "<out>"), child.stderr]
        assert masked == [here[0], here[1].replace(str(here_out), "<out>"), here[2]]
        names = sorted(path.name for path in child_out.iterdir())
        assert names == sorted(path.name for path in here_out.iterdir()) != []
        for name in names:
            got = (child_out / name).read_bytes().replace(bytes(child_out), b"<out>")
            assert got == (here_out / name).read_bytes().replace(bytes(here_out), b"<out>"), name
