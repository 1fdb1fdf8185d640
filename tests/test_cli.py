import json
import math

import pytest

from wakenode.cli import _write_report, main


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
        with pytest.raises(ValueError):
            _write_report(tmp_path, "report.json", {"results": {"lifetime_days": value}})
        assert not (tmp_path / "report.json").exists()
