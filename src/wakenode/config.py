"""Structured input parsing: the run-config YAML file, scenario files,
and the CSV tables (microphone candidates, calibration points).

Unknown config keys are rejected with the dotted path of the offending
key so typos surface immediately.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import yaml

from .calibrate import CalPoint, CalibrationCurve
from .coherence import MicCandidate, MicConfiguration, WelchParams, Window
from .frontend import CircuitParams
from .powersim import (
    BUILTIN_PROFILES,
    NodeConfig,
    PowerProfile,
    Scenario,
    ScenarioSegment,
)

__all__ = [
    "ConfigError",
    "RunConfig",
    "load_run_config",
    "parse_run_config",
    "load_scenario",
    "load_mic_table",
    "load_cal_points",
    "DEFAULT_OUT_DIR",
]

DEFAULT_OUT_DIR = "wakenode-out"

MIC_CSV_COLUMNS = [
    "name",
    "power_mw",
    "accuracy",
    "configuration",
    "supply_min_v",
    "supply_max_v",
]
CAL_CSV_COLUMNS = ["adc_value", "spl_db"]


class ConfigError(ValueError):
    """A structured input failed validation; the message carries its location."""


@dataclass(frozen=True)
class RunConfig:
    """Effective configuration of one CLI invocation."""

    circuit: CircuitParams = field(default_factory=CircuitParams)
    welch: WelchParams = field(default_factory=WelchParams)
    node: NodeConfig = field(
        default_factory=lambda: NodeConfig(profile=BUILTIN_PROFILES["zigbee-standalone"])
    )
    calibration: CalibrationCurve = field(default_factory=CalibrationCurve)
    out_dir: str = DEFAULT_OUT_DIR

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict image of every effective value, for report embedding."""
        node: dict[str, Any] = {
            "profile": {
                "name": self.node.profile.name,
                "transmit_mw": self.node.profile.transmit_mw,
                "sleep_mw": self.node.profile.sleep_mw,
            },
            "hold_time_s": self.node.hold_time_s,
            "battery_mah": self.node.battery_mah,
            "battery_v": self.node.battery_v,
        }
        return {
            "circuit": {
                k: getattr(self.circuit, k)
                for k in (
                    "vdd_v rf_ohm r1_ohm r2_ohm r3_ohm r4_ohm r5_ohm r6_ohm "
                    "c1_f c2_f c3_f c4_f c5_f diode_drop_v"
                ).split()
            },
            "welch": {
                "segment_count": self.welch.segment_count,
                "overlap_fraction": self.welch.overlap_fraction,
                "window": self.welch.window.value,
                "fft_length": self.welch.fft_length,
            },
            "node": node,
            "calibration": {
                "a": self.calibration.a,
                "b": self.calibration.b,
                "c": self.calibration.c,
                "d": self.calibration.d,
            },
            "io": {"out_dir": self.out_dir},
        }


def _require_mapping(value: Any, path: str) -> Mapping[str, Any]:
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ConfigError(f"{path}: expected a mapping, got {type(value).__name__}")
    return value


def _reject_unknown(section: Mapping[str, Any], allowed: set[str], path: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")


def _number(section: Mapping[str, Any], key: str, path: str, default: float) -> float:
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{path}.{key}: expected a finite number, got {value!r}")
    return float(value)


def _integer(section: Mapping[str, Any], key: str, path: str, default: int) -> int:
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}.{key}: expected an integer, got {value!r}")
    return value


def _parse_circuit(raw: Any) -> CircuitParams:
    section = _require_mapping(raw, "circuit")
    defaults = CircuitParams()
    names = {
        "vdd_v", "rf_ohm", "r1_ohm", "r2_ohm", "r3_ohm", "r4_ohm", "r5_ohm",
        "r6_ohm", "c1_f", "c2_f", "c3_f", "c4_f", "c5_f", "diode_drop_v",
    }
    _reject_unknown(section, names, "circuit")
    kwargs = {k: _number(section, k, "circuit", getattr(defaults, k)) for k in names}
    try:
        return CircuitParams(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"circuit: {exc}") from exc


def _parse_welch(raw: Any) -> WelchParams:
    section = _require_mapping(raw, "welch")
    _reject_unknown(
        section, {"segment_count", "overlap_fraction", "window", "fft_length"}, "welch"
    )
    defaults = WelchParams()
    window_name = section.get("window", defaults.window.value)
    try:
        window = Window(str(window_name).lower())
    except ValueError:
        raise ConfigError(
            f"welch.window: unknown window {window_name!r}; expected one of "
            f"{[w.value for w in Window]}"
        ) from None
    fft_length = section.get("fft_length", defaults.fft_length)
    if fft_length is not None and (isinstance(fft_length, bool) or not isinstance(fft_length, int)):
        raise ConfigError(f"welch.fft_length: expected an integer or null, got {fft_length!r}")
    try:
        return WelchParams(
            segment_count=_integer(section, "segment_count", "welch", defaults.segment_count),
            overlap_fraction=_number(section, "overlap_fraction", "welch", defaults.overlap_fraction),
            window=window,
            fft_length=fft_length,
        )
    except ValueError as exc:
        raise ConfigError(f"welch: {exc}") from exc


def _parse_profile(raw: Any, path: str) -> PowerProfile:
    if isinstance(raw, str):
        try:
            return BUILTIN_PROFILES[raw]
        except KeyError:
            raise ConfigError(
                f"{path}: unknown profile {raw!r}; built-ins are "
                f"{sorted(BUILTIN_PROFILES)}"
            ) from None
    section = _require_mapping(raw, path)
    _reject_unknown(section, {"name", "transmit_mw", "sleep_mw"}, path)
    name = section.get("name")
    if not isinstance(name, str) or not name:
        raise ConfigError(f"{path}.name: a custom profile needs a non-empty name")
    try:
        return PowerProfile(
            name=name,
            transmit_mw=_number(section, "transmit_mw", path, 0.0),
            sleep_mw=_number(section, "sleep_mw", path, 0.0),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_node(raw: Any) -> NodeConfig:
    section = _require_mapping(raw, "node")
    _reject_unknown(section, {"profile", "hold_time_s", "battery_mah", "battery_v"}, "node")
    defaults = NodeConfig(profile=BUILTIN_PROFILES["zigbee-standalone"])
    profile = (
        _parse_profile(section["profile"], "node.profile")
        if "profile" in section
        else defaults.profile
    )
    try:
        return NodeConfig(
            profile=profile,
            hold_time_s=_number(section, "hold_time_s", "node", defaults.hold_time_s),
            battery_mah=_number(section, "battery_mah", "node", defaults.battery_mah),
            battery_v=_number(section, "battery_v", "node", defaults.battery_v),
        )
    except ValueError as exc:
        raise ConfigError(f"node: {exc}") from exc


def _parse_calibration(raw: Any) -> CalibrationCurve:
    section = _require_mapping(raw, "calibration")
    _reject_unknown(section, {"a", "b", "c", "d"}, "calibration")
    defaults = CalibrationCurve()
    return CalibrationCurve(
        a=_number(section, "a", "calibration", defaults.a),
        b=_number(section, "b", "calibration", defaults.b),
        c=_number(section, "c", "calibration", defaults.c),
        d=_number(section, "d", "calibration", defaults.d),
    )


def parse_run_config(raw: Any, source: str = "<config>") -> RunConfig:
    """Validate a parsed YAML document into a RunConfig."""
    document = _require_mapping(raw, source)
    _reject_unknown(document, {"circuit", "welch", "node", "calibration", "io"}, source)
    io_section = _require_mapping(document.get("io"), "io")
    _reject_unknown(io_section, {"out_dir"}, "io")
    out_dir = io_section.get("out_dir", DEFAULT_OUT_DIR)
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"io.out_dir: expected a non-empty string, got {out_dir!r}")
    return RunConfig(
        circuit=_parse_circuit(document.get("circuit")),
        welch=_parse_welch(document.get("welch")),
        node=_parse_node(document.get("node")),
        calibration=_parse_calibration(document.get("calibration")),
        out_dir=out_dir,
    )


def _load_yaml(path: Path) -> Any:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc


def load_run_config(path: str | Path) -> RunConfig:
    path = Path(path)
    return parse_run_config(_load_yaml(path), source=str(path))


def load_scenario(path: str | Path) -> Scenario:
    """Read a scenario YAML file: a ``segments`` list of duration/sound/label."""
    path = Path(path)
    raw = _load_yaml(path)
    if raw is None:
        raise ConfigError(f"{path}:1: scenario file is empty")
    document = _require_mapping(raw, str(path))
    _reject_unknown(document, {"segments"}, str(path))
    raw_segments = document.get("segments")
    if not isinstance(raw_segments, list) or not raw_segments:
        raise ConfigError(f"{path}: 'segments' must be a non-empty list")
    segments = []
    for idx, entry in enumerate(raw_segments):
        where = f"{path}: segments[{idx}]"
        section = _require_mapping(entry, where)
        _reject_unknown(section, {"duration_s", "sound", "label"}, where)
        if "duration_s" not in section or "sound" not in section:
            raise ConfigError(f"{where}: needs duration_s and sound")
        sound = section["sound"]
        if not isinstance(sound, bool):
            raise ConfigError(f"{where}.sound: expected true/false, got {sound!r}")
        label = section.get("label", "")
        if not isinstance(label, str):
            raise ConfigError(f"{where}.label: expected a string, got {label!r}")
        try:
            segments.append(
                ScenarioSegment(_number(section, "duration_s", where, 0.0), sound, label)
            )
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return Scenario(tuple(segments))


def _read_csv_rows(path: Path, columns: list[str]) -> list[tuple[int, dict[str, str]]]:
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise ConfigError(f"{path}:1: CSV file is empty")
            if [c.strip() for c in reader.fieldnames] != columns:
                raise ConfigError(
                    f"{path}:1: expected header {','.join(columns)}, "
                    f"got {','.join(reader.fieldnames)}"
                )
            rows = [(reader.line_num, row) for row in reader]
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    return rows


def _row_float(row: dict[str, str], key: str, where: str) -> float:
    raw = (row.get(key) or "").strip()
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{where}: {key} must be a number, got {raw!r}") from None


def load_mic_table(path: str | Path) -> list[MicCandidate]:
    """Read microphone candidates from CSV."""
    path = Path(path)
    candidates = []
    for line_num, row in _read_csv_rows(path, MIC_CSV_COLUMNS):
        where = f"{path}:{line_num}"
        config_raw = (row.get("configuration") or "").strip().lower()
        try:
            configuration = MicConfiguration(config_raw)
        except ValueError:
            raise ConfigError(
                f"{where}: configuration must be analog or digital, got {config_raw!r}"
            ) from None
        name = (row.get("name") or "").strip()
        if not name:
            raise ConfigError(f"{where}: name is empty")
        try:
            candidates.append(
                MicCandidate(
                    name=name,
                    power_mw=_row_float(row, "power_mw", where),
                    accuracy=_row_float(row, "accuracy", where),
                    configuration=configuration,
                    supply_min_v=_row_float(row, "supply_min_v", where),
                    supply_max_v=_row_float(row, "supply_max_v", where),
                )
            )
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return candidates


def load_cal_points(path: str | Path) -> list[CalPoint]:
    """Read calibration measurements from CSV."""
    path = Path(path)
    points = []
    for line_num, row in _read_csv_rows(path, CAL_CSV_COLUMNS):
        where = f"{path}:{line_num}"
        try:
            points.append(
                CalPoint(
                    adc_value=_row_float(row, "adc_value", where),
                    spl_db=_row_float(row, "spl_db", where),
                )
            )
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return points
