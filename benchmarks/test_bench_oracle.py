"""The benchmark's wake oracle and output checks against the CLI, on short fixtures."""

import json
import math
from pathlib import Path

import pytest

import bench_fixtures as fx
import bench_workloads as bw


def run_cli(out, *args):
    import wakenode.cli as cli

    assert cli.main(["--out-dir", str(out), *args]) == 0


@pytest.mark.parametrize(
    "samples, c5_f, c5_yaml",
    [
        (lambda: fx.urban_blocks(3, loud_s=1.0, quiet_s=30.0, blocks=2), fx.DEFAULT_C5_F, "9.0e-6"),
        (lambda: fx.clicks(3, seconds=3.0, count=120), fx.CLICKS_C5_F, fx.CLICKS_C5_F_YAML),
    ],
    ids=["urban", "clicks"],
)
def test_oracle_matches_cli(tmp_path, capsys, samples, c5_f, c5_yaml):
    wav = tmp_path / "input.wav"
    fx.write_wav(wav, fx.SIM_RATE_HZ, samples())
    config = tmp_path / "config.yaml"
    config.write_text(f"circuit:\n  c5_f: {c5_yaml}\n")
    out = tmp_path / "out"
    run_cli(out, "--config", str(config), "simulate", "--wav", str(wav))
    oracle = fx.wake_oracle(wav, c5_f)
    assert oracle["wake_runs"] >= 1
    oracle_path = tmp_path / "oracle.json"
    oracle_path.write_text(json.dumps(oracle))
    assert bw.check_simulate_wav(oracle_path)(out, capsys.readouterr().out) == []

    oracle_path.write_text(json.dumps(dict(oracle, wake_runs=oracle["wake_runs"] + 1)))
    assert bw.check_simulate_wav(oracle_path)(out, "") != []


def test_timeline_summary_counts_sleep_and_transmit_rows():
    s = fx.timeline_summary([(0.0, 1.0), (0.5, 2.0), (5.0, 6.0)], 10.0)
    assert s == {"duty_cycle": pytest.approx(0.3), "wake_runs": 2, "trace_rows": 4}
    assert fx.timeline_summary([], 10.0)["trace_rows"] == 1
    assert fx.timeline_summary([(2.0, 10.0)], 10.0)["trace_rows"] == 2


@pytest.mark.parametrize("text", ['{"x": NaN}', '{"x": Infinity}', '{"x": -Infinity}', "{"])
def test_strict_json_rejects_non_standard_documents(text):
    with pytest.raises(bw.CheckError):
        bw.strict_json(text)


def test_light_command_checks_accept_cli_outputs(tmp_path, capsys):
    root = Path(__file__).resolve().parents[1]
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    (fixtures / "cal_points.csv").write_text(
        "adc_value,spl_db\n" + "".join(f"{a!r},{s!r}\n" for a, s in fx.cal_points(5))
    )
    for inv in bw.WORKLOADS["light-commands"].invocations(root, fixtures, 5):
        out = tmp_path / inv.label
        run_cli(out, *inv.args)
        assert inv.check(out, capsys.readouterr().out) == [], inv.label


def test_fixtures_are_deterministic_and_delayed():
    a_src, a_rec = fx.coherence_pair(9, seconds=1.0)
    b_src, b_rec = fx.coherence_pair(9, seconds=1.0)
    assert (a_src == b_src).all() and (a_rec == b_rec).all()
    lag = fx.COHERENCE_DELAY_SAMPLES
    signal = fx.COHERENCE_GAIN * a_src[:-lag]
    noise = a_rec[lag:] - signal
    # power over the whole recording, whose first `lag` samples are silent
    snr_db = 10 * math.log10((signal**2).sum() / a_rec.size / noise.var())
    assert snr_db == pytest.approx(fx.COHERENCE_SNR_DB, abs=0.5)
