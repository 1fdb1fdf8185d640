import pytest
import yaml

from wakenode import BUILTIN_PROFILES, CircuitParams, Window
from wakenode.cli import data_path
from wakenode.config import (
    ConfigError,
    RunConfig,
    load_cal_points,
    load_mic_table,
    load_run_config,
    load_scenario,
    parse_run_config,
)

FULL_CONFIG = """
# node analysis configuration
circuit:
  vdd_v: 5.0
  diode_drop_v: 0.3
welch:
  segment_count: 4
  overlap_fraction: 0.25
  window: hann
  fft_length: 4096
node:
  profile: ble
  hold_time_s: 2.5
  battery_mah: 1200
  battery_v: 3.7
io:
  out_dir: results
"""


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.circuit.vdd_v == 3.3
        assert cfg.welch.segment_count == 8
        assert cfg.node.profile.name == "zigbee-standalone"
        assert cfg.out_dir == "wakenode-out"

    def test_full_document(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(FULL_CONFIG)
        cfg = load_run_config(path)
        assert cfg.circuit.vdd_v == 5.0
        assert cfg.circuit.diode_drop_v == 0.3
        assert cfg.circuit.r5_ohm == 1e7  # untouched default
        assert cfg.welch.segment_count == 4
        assert cfg.welch.window is Window.HANN
        assert cfg.welch.fft_length == 4096
        assert cfg.node.profile is BUILTIN_PROFILES["ble"]
        assert cfg.node.hold_time_s == 2.5
        assert cfg.node.battery_v == 3.7
        assert cfg.out_dir == "results"

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="radio: unknown key"):
            parse_run_config({"radio": {}})

    def test_unknown_nested_key_carries_path(self):
        with pytest.raises(ConfigError, match=r"node\.hold_tim: unknown key"):
            parse_run_config({"node": {"hold_tim": 1.0}})

    def test_unknown_circuit_key(self):
        with pytest.raises(ConfigError, match=r"circuit\.r9_ohm"):
            parse_run_config({"circuit": {"r9_ohm": 5.0}})

    def test_bad_window_name(self):
        with pytest.raises(ConfigError, match="welch.window"):
            parse_run_config({"welch": {"window": "blackman"}})

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match=r"node\.battery_mah"):
            parse_run_config({"node": {"battery_mah": "big"}})

    @pytest.mark.parametrize("text", [".inf", "-.inf", ".nan"])
    def test_non_finite_number_rejected(self, tmp_path, text):
        path = tmp_path / "cfg.yaml"
        path.write_text(f"node:\n  battery_mah: {text}\n")
        with pytest.raises(ConfigError, match=r"node\.battery_mah: expected a finite number"):
            load_run_config(path)

    @pytest.mark.parametrize("value", [2.7, 8.0, "8", True])
    def test_segment_count_must_be_an_integer(self, value):
        with pytest.raises(ConfigError, match=r"welch\.segment_count: expected an integer"):
            parse_run_config({"welch": {"segment_count": value}})

    @pytest.mark.parametrize("text", ["9e-6", "9E-6", "9.0e-6", "9e-06", "+9e-6", ".9e-5"])
    def test_exponent_without_dot_or_sign_is_a_float(self, tmp_path, text):
        # YAML 1.2 floats: PyYAML's YAML 1.1 resolver keeps these as strings
        path = tmp_path / "cfg.yaml"
        path.write_text(f"circuit:\n  c5_f: {text}\n")
        assert load_run_config(path).circuit == CircuitParams(c5_f=9e-6)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('circuit:\n  c5_f: "9e-6"\n', r"circuit\.c5_f: expected a number, got '9e-6'"),
            ("circuit:\n  c5_f: '9e-6'\n", r"circuit\.c5_f: expected a number, got '9e-6'"),
            ('welch:\n  segment_count: "8"\n', r"welch\.segment_count: expected an integer"),
            ("welch:\n  segment_count: 8e0\n", r"welch\.segment_count: expected an integer"),
        ],
    )
    def test_quoted_numbers_and_float_counts_rejected(self, tmp_path, text, message):
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            load_run_config(path)

    def test_plain_yaml_loader_is_unchanged(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("circuit:\n  c5_f: 9e-6\n")
        load_run_config(path)
        assert yaml.safe_load("c5_f: 9e-6") == {"c5_f": "9e-6"}

    @pytest.mark.parametrize(
        "circuit, message",
        [
            # the product underflows to 0, or overflows
            ({"r5_ohm": 1.0e-320, "c5_f": 1.0e-12}, r"r5_ohm \* c5_f must be positive and finite"),
            ({"r5_ohm": 1.0e200, "c5_f": 1.0e200}, r"r5_ohm \* c5_f must be positive and finite"),
            # the ratio overflows
            ({"rf_ohm": 1.7e308, "r1_ohm": 1.0e-300}, r"1 \+ rf_ohm / r1_ohm must be finite"),
        ],
    )
    def test_derived_circuit_values_must_be_finite(self, circuit, message):
        with pytest.raises(ConfigError, match=f"^circuit: {message}, got"):
            parse_run_config({"circuit": circuit})

    def test_invariant_violation_reported_with_section(self):
        with pytest.raises(ConfigError, match="circuit"):
            parse_run_config({"circuit": {"vdd_v": -1.0}})

    def test_custom_inline_profile(self):
        cfg = parse_run_config(
            {"node": {"profile": {"name": "lab", "transmit_mw": 50.0, "sleep_mw": 2.0}}}
        )
        assert cfg.node.profile.name == "lab"
        assert cfg.node.profile.transmit_mw == 50.0

    def test_unknown_profile_name(self):
        with pytest.raises(ConfigError, match="unknown profile"):
            parse_run_config({"node": {"profile": "lora"}})

    def test_snapshot_round_trips_through_parser(self):
        cfg = parse_run_config(
            {
                "circuit": {"vdd_v": 5.0, "rf_ohm": 0, "c5_f": 9e-9, "diode_drop_v": 0.3},
                "welch": {"segment_count": 4, "window": "hann", "fft_length": 4096},
                "node": {
                    "profile": {"name": "lab", "transmit_mw": 50.0, "sleep_mw": 2.0},
                    "hold_time_s": 1.5,
                    "battery_mah": 1200,
                    "battery_v": 3.7,
                },
                "io": {"out_dir": "results"},
            }
        )
        assert parse_run_config(cfg.snapshot()) == cfg

    def test_default_snapshot(self):
        assert RunConfig().snapshot() == {
            "circuit": {
                "vdd_v": 3.3,
                "rf_ohm": 1e5,
                "r1_ohm": 1e3,
                "r5_ohm": 1e7,
                "r6_ohm": 1e5,
                "c5_f": 9e-6,
                "diode_drop_v": 0.0,
            },
            "welch": {
                "segment_count": 8,
                "overlap_fraction": 0.5,
                "window": "hamming",
                "fft_length": None,
            },
            "node": {
                "profile": {"name": "zigbee-standalone", "transmit_mw": 34.3, "sleep_mw": 1.0},
                "hold_time_s": 0.0,
                "battery_mah": 2900.0,
                "battery_v": 3.3,
            },
            "io": {"out_dir": "wakenode-out"},
        }

    @pytest.mark.parametrize(
        "document,path",
        [
            ({"circuit": {"r2_ohm": 1e6}}, r"circuit\.r2_ohm"),
            ({"circuit": {"c1_f": 22e-6}}, r"circuit\.c1_f"),
            ({"calibration": {"a": -290.5}}, r"calibration"),
        ],
    )
    def test_removed_keys_are_unknown(self, document, path):
        with pytest.raises(ConfigError, match=path + ": unknown key"):
            parse_run_config(document)

    def test_inline_profile_needs_every_power_figure(self):
        with pytest.raises(ConfigError, match=r"node\.profile\.sleep_mw: required key"):
            parse_run_config({"node": {"profile": {"name": "lab", "transmit_mw": 50.0}}})

    def test_invalid_yaml_reports_location(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("node:\n  profile: [unclosed\n")
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_run_config(path)


class TestScenarioLoading:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(
            "segments:\n"
            "  - {duration_s: 20, sound: true, label: siren}\n"
            "  - {duration_s: 100, sound: false}\n"
        )
        scenario = load_scenario(path)
        assert scenario.duration_s == 120.0
        assert scenario.segments[0].label == "siren"
        assert scenario.segments[1].sound_present is False

    def test_empty_file_rejected_with_line(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        with pytest.raises(ConfigError, match=r"empty\.yaml:1"):
            load_scenario(path)

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text("segments:\n  - {duration_s: 20}\n")
        with pytest.raises(ConfigError, match=r"segments\[0\]"):
            load_scenario(path)

    def test_non_boolean_sound_rejected(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text("segments:\n  - {duration_s: 20, sound: maybe}\n")
        with pytest.raises(ConfigError, match="sound"):
            load_scenario(path)

    def test_durations_whose_sum_overflows_rejected(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text("segments:\n" + "  - {duration_s: 1.0e308, sound: false}\n" * 2)
        with pytest.raises(ConfigError, match=r"scenario\.yaml: total duration_s must be finite"):
            load_scenario(path)


class TestCsvLoaders:
    def test_bundled_mic_table_loads(self):
        mics = load_mic_table(data_path("microphones.csv"))
        assert len(mics) == 4
        by_name = {m.name: m for m in mics}
        assert by_name["ST MP23ABS1 (analog)"].accuracy == 0.7187
        assert by_name["InvenSense ICS-40310"].power_mw == 0.0079
        assert by_name["ST MP34DT05-A (digital)"].configuration.value == "digital"

    def test_mic_table_bad_header(self, tmp_path):
        path = tmp_path / "mics.csv"
        path.write_text("name,power\nfoo,1\n")
        with pytest.raises(ConfigError, match="expected header"):
            load_mic_table(path)

    def test_mic_table_bad_configuration(self, tmp_path):
        path = tmp_path / "mics.csv"
        path.write_text(
            "name,power_mw,accuracy,configuration,supply_min_v,supply_max_v\n"
            "foo,1.0,0.5,wireless,1.0,3.0\n"
        )
        with pytest.raises(ConfigError, match="mics.csv:2.*analog or digital"):
            load_mic_table(path)

    def test_mic_table_bad_number_carries_row(self, tmp_path):
        path = tmp_path / "mics.csv"
        path.write_text(
            "name,power_mw,accuracy,configuration,supply_min_v,supply_max_v\n"
            "ok,1.0,0.5,analog,1.0,3.0\n"
            "bad,cheap,0.5,analog,1.0,3.0\n"
        )
        with pytest.raises(ConfigError, match="mics.csv:3"):
            load_mic_table(path)

    def test_mic_table_non_finite_number_carries_row(self, tmp_path):
        path = tmp_path / "mics.csv"
        path.write_text(
            "name,power_mw,accuracy,configuration,supply_min_v,supply_max_v\n"
            "ok,1.0,0.5,analog,1.0,3.0\n"
            "boundless,inf,0.5,analog,1.0,3.0\n"
        )
        with pytest.raises(ConfigError, match="mics.csv:3: power_mw must be a finite number"):
            load_mic_table(path)

    def test_cal_points_load(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("adc_value,spl_db\n400,60.5\n500,80.0\n")
        points = load_cal_points(path)
        assert len(points) == 2
        assert points[1].adc_value == 500.0

    def test_cal_points_empty_rejected(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("adc_value,spl_db\n")
        with pytest.raises(ConfigError, match="no data rows"):
            load_cal_points(path)

    def test_cal_points_non_finite_number_carries_row(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("adc_value,spl_db\n400,60.5\n500,nan\n")
        with pytest.raises(ConfigError, match="points.csv:3: spl_db must be a finite number"):
            load_cal_points(path)

    def test_spaced_header_reads_every_column(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("adc_value, spl_db\n400, 60.5\n500,80.0\n")
        points = load_cal_points(path)
        assert [(p.adc_value, p.spl_db) for p in points] == [(400.0, 60.5), (500.0, 80.0)]

    @pytest.mark.parametrize("row", ["400,60,99", "400"])
    def test_row_with_wrong_field_count_rejected(self, tmp_path, row):
        path = tmp_path / "points.csv"
        path.write_text(f"adc_value,spl_db\n500,80.0\n{row}\n")
        with pytest.raises(ConfigError, match=r"points.csv:3: expected 2 fields, got"):
            load_cal_points(path)

    def test_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("adc_value,spl_db\n\n400,60.5\n\n500,80.0\n")
        assert len(load_cal_points(path)) == 2

    def test_bom_prefixed_mic_table_loads(self, tmp_path):
        # a spreadsheet export: byte-order mark, UTF-8 name, CRLF line ends
        text = data_path("microphones.csv").read_text(encoding="utf-8")
        text += "Mikrofon µ,1.0,0.5,analog,1.0,3.0\n"
        path = tmp_path / "mics.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode("utf-8"))
        mics = load_mic_table(path)
        assert mics[:-1] == load_mic_table(data_path("microphones.csv"))
        assert mics[-1].name == "Mikrofon µ"

    def test_bom_prefixed_cal_points_load(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_bytes(b"\xef\xbb\xbfadc_value,spl_db\n400,60.5\n500,80.0\n")
        points = load_cal_points(path)
        assert [(p.adc_value, p.spl_db) for p in points] == [(400.0, 60.5), (500.0, 80.0)]

    def test_non_utf8_table_rejected_with_path(self, tmp_path):
        path = tmp_path / "mics.csv"
        path.write_bytes(
            b"name,power_mw,accuracy,configuration,supply_min_v,supply_max_v\n"
            b"Mikrofon \xb5,1.0,0.5,analog,1.0,3.0\n"
        )
        with pytest.raises(ConfigError, match="mics.csv: .*utf-8"):
            load_mic_table(path)
