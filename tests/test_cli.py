import csv
import io
import json
import math
import os
import stat
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

import wakenode.cli
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
from wakenode.cli import CSV_BLOCK_ROWS, _csv_blocks, _finish, _trace_csv, data_path, main
from wakenode.config import RunConfig, load_run_config, parse_run_config
from wakenode.frontend import stream_chunk_samples

from conftest import add_noise_at_snr, shift_right, urban_like_signal

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

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_report_writer_refuses_non_json_numbers(self, tmp_path, value):
        cfg = RunConfig(out_dir=str(tmp_path))
        with pytest.raises(ValueError):
            _finish("simulate", cfg, {}, {"lifetime_days": value}, "trace.csv", ["t\n", "0\n"], [])
        assert not (tmp_path / "simulate_report.json").exists()
        assert list(tmp_path.iterdir()) == []


class TestCsvBlocks:
    SPECIAL = [5e-324, -2.2250738585072e-308, 1e-310, 0.0, -0.0, 1e-5, 1e16, 3.0, -4096.0, 2.0**53]

    @pytest.mark.parametrize("rows", [CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1])
    def test_float_cells_are_repr_and_read_back_to_the_same_bits(self, rows):
        bits = np.random.default_rng(rows).integers(0, 2**64, rows, dtype=np.uint64, endpoint=False)
        bits[(bits >> np.uint64(52)) & np.uint64(0x7FF) == 0x7FF] ^= np.uint64(1 << 62)  # finite
        noise = bits.view(np.float64)
        # the special values open the first block and close the last rows
        noise[: len(self.SPECIAL)] = noise[-len(self.SPECIAL) :] = self.SPECIAL
        integers = np.arange(rows, dtype=np.float64) - 2048.0
        state = np.where(np.arange(rows) % 3 == 0, "transmit", "sleep")
        blocks = list(_csv_blocks("a,state,b\n", "%r,%s,%r\n", noise, state, integers))
        assert len(blocks) == 1 + -(-rows // CSV_BLOCK_ROWS)
        lines = "".join(blocks).splitlines()
        assert lines[0] == "a,state,b" and len(lines) == rows + 1
        a, got_state, b = zip(*(line.split(",") for line in lines[1:]))
        assert list(got_state) == state.tolist()
        for cells, column in ((a, noise), (b, integers)):
            assert list(cells) == [repr(v) for v in column.tolist()]
            read_back = np.array([float(cell) for cell in cells])
            assert np.array_equal(read_back.view(np.uint64), column.view(np.uint64))


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

        cfg = RunConfig(out_dir=str(tmp_path))
        with pytest.raises(RuntimeError, match="row formatting"):
            _finish("simulate", cfg, {}, {}, "trace.csv", rows(), [])
        assert list(tmp_path.iterdir()) == []


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

    def test_rank_mics_without_constraints_is_the_plain_ranking(self, tmp_path, capsys):
        mics = str(data_path("microphones.csv"))
        runs = []
        for name, flags in (("plain", []), ("free", ["--no-constraints"])):
            out = tmp_path / name
            assert main(["--out-dir", str(out), "rank-mics", mics, *flags]) == 0
            runs.append(((out / "ranking.csv").read_text(), json.loads(capsys.readouterr().out)))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("flags", [["--analog"], ["--supply", "3.3"]])
    def test_rank_mics_no_constraints_with_a_constraint_is_rejected(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        mics = str(data_path("microphones.csv"))
        assert main(["--out-dir", str(out), "rank-mics", mics, "--no-constraints", *flags]) == 1
        assert "[E_INPUT]" in capsys.readouterr().err
        assert not out.exists()

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
# a loud stretch over the first chunk boundary of every time constant
# below: 130 800 samples (600-sample scan blocks) or 131 072
BURST = (130_700, 131_300)


def write_int16(path: Path, x: np.ndarray) -> None:
    wavfile.write(path, RATE, np.round(np.clip(x, -1.0, 1.0) * 32767).astype(np.int16))


def bursty(n: int, seed: int) -> np.ndarray:
    """Quiet noise with loud stretches across the first chunk boundaries and at the end."""
    x = np.random.default_rng(seed).normal(scale=0.002, size=n)
    x[min(BURST[0], n // 2) : BURST[1]] += 0.9
    x[-40:] += 0.9
    return x


def whole_array_outputs(wav: Path, config: str) -> tuple[str, float, np.ndarray]:
    """trace.csv text, duty cycle and wake samples from whole-array calls."""
    cfg = load_run_config(config)
    audio = read_wav(wav)
    chain = amplify(Signal(audio.samples * 0.01, audio.sample_rate_hz), cfg.circuit)
    wake = threshold_out(envelope_detect(chain, cfg.circuit), 0.022)
    trace = simulate_from_wake(wake, cfg.node)
    return "".join(_trace_csv(trace, cfg.node)), trace.duty_cycle, wake.samples


class TestSimulateWavStreaming:
    # fs * tau: 1.44e6 (the default board) and 1440 take 65536-sample scan
    # blocks, 1 takes 600-sample blocks (130800-sample chunks), 0.3 to 0.002
    # the log-step scan, and 1.6e23 rounds decay to 1
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
        chunk = stream_chunk_samples(load_run_config(config).circuit, RATE)
        if samples > chunk:  # a low run across the first chunk boundary
            assert not wake[chunk - 1] and not wake[chunk]

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

    def test_nan_in_a_later_chunk_leaves_no_output(self, tmp_path, capsys):
        wav = tmp_path / "a.wav"
        x = np.random.default_rng(2).normal(scale=0.002, size=300_000).astype(np.float32)
        x[200_000] = np.nan  # in the second chunk
        wavfile.write(wav, RATE, x)
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "simulate", "--wav", str(wav)]) == 1
        assert "[E_INPUT]" in capsys.readouterr().err
        assert not out.exists()

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


# ----------------------------------------------------------------------
# coherence streams each recording through the resampler in chunks

SCORE_DELAY = 11_025  # 2000 samples at the 8 kHz scoring rate


def write_pair(directory: Path, rate: int, source: np.ndarray, recording: np.ndarray) -> list[str]:
    paths = []
    for name, x in (("source", source), ("recording", recording)):
        path = directory / f"{name}_{rate}_{len(x)}.wav"
        wavfile.write(path, rate, np.round(np.clip(x, -1.0, 1.0) * 32767).astype(np.int16))
        paths.append(str(path))
    return paths


@pytest.fixture(scope="module")
def pair_95s(tmp_path_factory) -> tuple[list[str], list[str]]:
    """A 95 s 44.1 kHz source and its delayed, noisy recording, and the same
    two files resampled to 8 kHz."""
    directory = tmp_path_factory.mktemp("pair")
    source = urban_like_signal(95.0, 44_100.0, seed=11)
    recording = add_noise_at_snr(shift_right(source, SCORE_DELAY), 20.0, seed=12)
    full = write_pair(directory, 44_100, source.samples, 0.5 * recording.samples)
    at_8k = [resample(read_wav(path), 8000.0).samples for path in full]
    return full, write_pair(directory, 8000, *at_8k)


class TestCoherenceStreaming:
    def test_peak_memory_is_that_of_8khz_input(self, tmp_path, capsys, pair_95s):
        peaks = []
        for pair in pair_95s:
            tracemalloc.start()
            try:
                assert main(["--out-dir", str(tmp_path / "out"), "coherence", *pair]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
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
        peaks = []
        for pair in (pair_95s[1], long_pair):
            tracemalloc.start()
            try:
                assert main(["--out-dir", str(tmp_path / "out"), "coherence", *pair]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 2**20, peaks


def assert_cli_scores_whole_signals(out: Path, stdout: str, pair: list[str]) -> dict:
    """The CLI's report and CSV hold the bits of score_with_details on the
    whole decoded files."""
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
        "welch, message",
        [
            ("segment_count: 1", "two Welch segments"),
            ("fft_length: 1024", "shorter than the segment length 142222"),
            ("segment_count: 1000000000", "too short for 1000000000 segments"),
        ],
    )
    def test_bad_welch_settings_fail_before_decoding(
        self, tmp_path, capsys, monkeypatch, pair_95s, welch, message
    ):
        def no_decoding(*args):
            raise AssertionError("a WAV was decoded")

        monkeypatch.setattr(wakenode.cli.WavReader, "chunks", no_decoding)
        config = write_config(tmp_path, f"welch:\n  {welch}\n")
        out = tmp_path / "out"
        assert main(["--config", config, "--out-dir", str(out), "coherence", *pair_95s[0]]) == 1
        err = capsys.readouterr().err
        assert "[E_CONFIG]: welch: " in err and message in err
        assert not out.exists()
