"""Structured input parsing: the run-config YAML file, scenario files,
and the CSV tables (microphone candidates, calibration points).

The dataclasses are the schema: a config section's keys and a table's
columns are the fields of the dataclass they build. Unknown config keys
are rejected with the dotted path of the offending key so typos surface
immediately.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Any, Iterable, Mapping, get_type_hints

from .calibrate import CalPoint
from .coherence import MicCandidate, WelchParams
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


class ConfigError(ValueError):
    """A structured input failed validation; the message carries its location."""


@dataclass(frozen=True)
class RunConfig:
    """Effective configuration of one CLI invocation.

    Each dataclass field is a YAML section of the same name whose keys are
    that dataclass's fields; ``out_dir`` is read from ``io.out_dir``.
    """

    circuit: CircuitParams = field(default_factory=CircuitParams)
    welch: WelchParams = field(default_factory=WelchParams)
    node: NodeConfig = field(
        default_factory=lambda: NodeConfig(profile=BUILTIN_PROFILES["zigbee-standalone"])
    )
    out_dir: str = DEFAULT_OUT_DIR

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict image of every settable value, for report embedding.

        It has the shape of a config file: ``parse_run_config`` reads it back.
        """
        image = _snapshot(self)
        image["io"] = {"out_dir": image.pop("out_dir")}
        return image


def _settable(cls: type) -> dict[str, Any]:
    """Name and type of each field of ``cls``; a config file can set every one."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _snapshot(obj: Any) -> dict[str, Any]:
    image: dict[str, Any] = {}
    for name in _settable(type(obj)):
        value = getattr(obj, name)
        if is_dataclass(value):
            value = _snapshot(value)
        elif isinstance(value, enum.Enum):
            value = value.value
        image[name] = value
    return image


def _require_mapping(value: Any, path: str) -> Mapping[str, Any]:
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ConfigError(f"{path}: expected a mapping, got {type(value).__name__}")
    return value


def _reject_unknown(section: Mapping[str, Any], allowed: Iterable[str], path: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return float(value)


def _enum(kind: type[enum.Enum], value: Any, path: str) -> Any:
    try:
        return kind(str(value).strip().lower())
    except ValueError:
        choices = " or ".join(member.value for member in kind)
        raise ConfigError(f"{path}: expected {choices}, got {value!r}") from None


def _parse_value(kind: Any, value: Any, path: str) -> Any:
    """Validate one YAML value as a field of type ``kind``."""
    if kind is float:
        return _number(value, path)
    if kind in (int, int | None):
        if value is None and kind is not int:
            return None
        if isinstance(value, bool) or not isinstance(value, int):
            expected = "an integer" if kind is int else "an integer or null"
            raise ConfigError(f"{path}: expected {expected}, got {value!r}")
        return value
    if kind is str:
        if not isinstance(value, str) or not value:
            raise ConfigError(f"{path}: expected a non-empty string, got {value!r}")
        return value
    if kind is PowerProfile and isinstance(value, str):
        try:
            return BUILTIN_PROFILES[value]
        except KeyError:
            raise ConfigError(
                f"{path}: unknown profile {value!r}; built-ins are "
                f"{sorted(BUILTIN_PROFILES)}"
            ) from None
    if is_dataclass(kind):
        return _parse_section(kind, value, path)
    return _enum(kind, value, path)


def _parse_section(cls: type, raw: Any, path: str, base: Any = None) -> Any:
    """Build a ``cls`` from a YAML mapping of its settable fields.

    A key the mapping omits keeps its value in ``base``; without a base
    (an inline profile), every field lacking a default must be given.
    """
    section = _require_mapping(raw, path)
    kinds = _settable(cls)
    _reject_unknown(section, kinds, path)
    values = {key: _parse_value(kinds[key], section[key], f"{path}.{key}") for key in section}
    if base is None:
        for f in fields(cls):
            if f.name not in values and f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{path}.{f.name}: required key is missing")
    try:
        return cls(**values) if base is None else replace(base, **values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_run_config(raw: Any, source: str = "<config>") -> RunConfig:
    """Validate a parsed YAML document into a RunConfig."""
    document = _require_mapping(raw, source)
    defaults = RunConfig()
    sections = {name: kind for name, kind in _settable(RunConfig).items() if is_dataclass(kind)}
    _reject_unknown(document, [*sections, "io"], source)
    values = {
        name: _parse_section(kind, document.get(name), name, getattr(defaults, name))
        for name, kind in sections.items()
    }
    io_section = _require_mapping(document.get("io"), "io")
    _reject_unknown(io_section, {"out_dir"}, "io")
    if "out_dir" in io_section:
        values["out_dir"] = _parse_value(str, io_section["out_dir"], "io.out_dir")
    return replace(defaults, **values)


def _load_yaml(path: Path) -> Any:
    import yaml

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
                ScenarioSegment(_number(section["duration_s"], f"{where}.duration_s"), sound, label)
            )
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return Scenario(tuple(segments))


def _load_table(path: str | Path, cls: type) -> list[Any]:
    """Read CSV rows into ``cls`` instances; the header must list its fields in order."""
    path = Path(path)
    kinds = _settable(cls)
    columns = list(kinds)
    try:
        # utf-8-sig: a spreadsheet export may start with a byte-order mark
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ConfigError(f"{path}:1: CSV file is empty")
            if [c.strip() for c in header] != columns:
                raise ConfigError(
                    f"{path}:1: expected header {','.join(columns)}, got {','.join(header)}"
                )
            rows = [(reader.line_num, row) for row in reader if row]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    records = []
    for line_num, row in rows:
        where = f"{path}:{line_num}"
        if len(row) != len(columns):
            raise ConfigError(f"{where}: expected {len(columns)} fields, got {len(row)}")
        values: dict[str, Any] = {}
        for (name, kind), cell in zip(kinds.items(), row):
            text = cell.strip()
            if kind is float:
                try:
                    values[name] = float(text)
                except ValueError:
                    raise ConfigError(f"{where}: {name} must be a number, got {text!r}") from None
                if not math.isfinite(values[name]):
                    raise ConfigError(f"{where}: {name} must be a finite number, got {text!r}")
            elif kind is str:
                if not text:
                    raise ConfigError(f"{where}: {name} is empty")
                values[name] = text
            else:
                values[name] = _enum(kind, text, f"{where}: {name}")
        try:
            records.append(cls(**values))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return records


def load_mic_table(path: str | Path) -> list[MicCandidate]:
    """Read microphone candidates from CSV."""
    return _load_table(path, MicCandidate)


def load_cal_points(path: str | Path) -> list[CalPoint]:
    """Read calibration measurements from CSV."""
    return _load_table(path, CalPoint)
