"""The inputs of every command and their parsing, in plain Python: the
run-config YAML file, scenario files and the CSV tables (microphone
candidates, calibration points).

The dataclasses here are the schema: a config section's keys, a scenario
segment's keys and a table's columns are the fields of the dataclass they
build, with no exception, and each value, a table's cell as a section's, is
checked once, by :func:`_parse_value` as the type of its field. Unknown
config keys are rejected with the dotted path of the offending key so typos
surface immediately. The CLI maps the error classes here to its diagnostic
codes. None of this needs numpy, so parsing the inputs, ranking microphones
(:func:`rank_microphones`) and building the urban scenario load none. This
module is each record's one home: read it as ``wakenode.X`` or
``wakenode.config.X``. The modules that compute with a record import it
from here, but do not export it.
"""

from __future__ import annotations

import csv
import enum
import functools
import math
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Iterable, NewType, Sequence, get_type_hints

__all__ = [
    "ADC_MAX",
    "AlignmentError",
    "BUILTIN_PROFILES",
    "CalibrationDomainError",
    "CalPoint",
    "CircuitParams",
    "ConfigError",
    "DEFAULT_OUT_DIR",
    "FitError",
    "IoParams",
    "MicCandidate",
    "MicConfiguration",
    "NodeConfig",
    "PowerProfile",
    "RankedMic",
    "RunConfig",
    "Scenario",
    "ScenarioSegment",
    "WavFormatError",
    "WelchParams",
    "Window",
    "build_urban_scenario",
    "load_cal_points",
    "load_mic_table",
    "load_run_config",
    "load_scenario",
    "parse_run_config",
    "rank_microphones",
]

ADC_MAX = 1023  # 10-bit converter

URBAN_SOUND_SECONDS = 20.0
URBAN_SILENCE_SECONDS = 100.0
URBAN_CATEGORIES = ("human", "nature", "music", "mechanical")

DEFAULT_OUT_DIR = "wakenode-out"

# text a config value may leave empty; a plain ``str`` must be non-empty
MaybeEmpty = NewType("MaybeEmpty", str)


class ConfigError(ValueError):
    """A structured input failed validation; the message carries its location."""


class WavFormatError(ValueError):
    """The file is not a WAV variant this tool accepts."""


class AlignmentError(ValueError):
    """The recording cannot be aligned to the source within its extent."""


class CalibrationDomainError(ValueError):
    """Input lies outside the curve's domain of validity."""


class FitError(RuntimeError):
    """Fitting failed to produce a usable curve."""


@dataclass(frozen=True)
class CalPoint:
    """One calibration measurement: ADC reading vs reference meter dB."""

    adc_value: float
    spl_db: float

    def __post_init__(self) -> None:
        if not (0 <= self.adc_value <= ADC_MAX):
            raise ValueError(
                f"adc_value must be within [0, {ADC_MAX}], got {self.adc_value}"
            )
        if not math.isfinite(self.spl_db):
            raise ValueError(f"spl_db must be finite, got {self.spl_db}")


class Window(str, enum.Enum):
    HAMMING = "hamming"
    HANN = "hann"
    RECTANGULAR = "rectangular"


@dataclass(frozen=True)
class WelchParams:
    """Segmenting and windowing choices for the Welch estimator.

    Defaults (8 segments, 50% overlap, Hamming) mirror the conventional
    spectral-analysis default so results are comparable across tools.
    ``fft_length=None`` rounds the segment length up to the next power
    of two.
    """

    segment_count: int = 8
    overlap_fraction: float = 0.5
    window: Window = Window.HAMMING
    fft_length: int | None = None

    def __post_init__(self) -> None:
        if self.segment_count < 1:
            raise ValueError(f"segment_count must be >= 1, got {self.segment_count}")
        if not (0.0 <= self.overlap_fraction < 1.0):
            raise ValueError(
                f"overlap_fraction must be in [0, 1), got {self.overlap_fraction}"
            )
        if self.fft_length is not None and self.fft_length < 2:
            raise ValueError(f"fft_length must be >= 2, got {self.fft_length}")

    def segment_length(self, n_samples: int) -> int:
        """Segment length so ``segment_count`` overlapped segments cover the data."""
        span = self.segment_count - self.overlap_fraction * (self.segment_count - 1)
        length = int(n_samples / span)
        if length < 2:
            raise ValueError(
                f"signal of {n_samples} samples is too short for "
                f"{self.segment_count} segments"
            )
        return length

    def resolve_fft_length(self, segment_length: int) -> int:
        if self.fft_length is not None:
            if self.fft_length < segment_length:
                raise ValueError(
                    f"fft_length {self.fft_length} is shorter than the "
                    f"segment length {segment_length}"
                )
            return self.fft_length
        return 1 << (segment_length - 1).bit_length()


class MicConfiguration(str, enum.Enum):
    ANALOG = "analog"
    DIGITAL = "digital"


@dataclass(frozen=True)
class MicCandidate:
    """One microphone under evaluation: measured power, accuracy, supply range."""

    name: str
    power_mw: float
    accuracy: float
    configuration: MicConfiguration
    supply_min_v: float
    supply_max_v: float

    def __post_init__(self) -> None:
        for name in ("power_mw", "supply_min_v", "supply_max_v"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.power_mw <= 0:
            raise ValueError(f"power_mw must be positive, got {self.power_mw}")
        if not (0.0 <= self.accuracy <= 1.0):
            raise ValueError(f"accuracy must be in [0, 1], got {self.accuracy}")
        if self.supply_min_v <= 0 or self.supply_max_v <= 0:
            raise ValueError("supply voltages must be positive")
        if self.supply_min_v > self.supply_max_v:
            raise ValueError(
                f"supply_min_v {self.supply_min_v} exceeds supply_max_v {self.supply_max_v}"
            )


@dataclass(frozen=True)
class RankedMic:
    candidate: MicCandidate
    eligible: bool
    reasons: tuple[str, ...] = ()
    rank: int | None = None


def rank_microphones(
    candidates: Sequence[MicCandidate],
    require_analog: bool,
    supply_v: float | None,
) -> list[RankedMic]:
    """Order candidates by accuracy (descending), power breaking ties.

    Candidates that are digital when an analog interface is required, or
    whose supply range excludes ``supply_v`` (meaning an external regulator
    would be needed), are flagged ineligible but kept in the output after
    the eligible ones. ``supply_v=None`` skips the supply check.
    """
    if not candidates:
        raise ValueError("candidate list is empty")
    if supply_v is not None and supply_v <= 0:
        raise ValueError(f"supply_v must be positive, got {supply_v}")

    flagged: list[tuple[MicCandidate, tuple[str, ...]]] = []
    for cand in candidates:
        reasons: list[str] = []
        if require_analog and cand.configuration is not MicConfiguration.ANALOG:
            reasons.append("digital output cannot drive the analog threshold chain")
        if supply_v is not None and not (cand.supply_min_v <= supply_v <= cand.supply_max_v):
            reasons.append(
                f"supply {supply_v} V outside {cand.supply_min_v}-"
                f"{cand.supply_max_v} V; would need a regulator"
            )
        flagged.append((cand, tuple(reasons)))

    # eligible first; a stable sort keeps table order among equal keys
    flagged.sort(key=lambda cr: (bool(cr[1]), -cr[0].accuracy, cr[0].power_mw))
    return [
        RankedMic(cand, eligible=not r, reasons=r, rank=None if r else i + 1)
        for i, (cand, r) in enumerate(flagged)
    ]


@dataclass(frozen=True)
class CircuitParams:
    """Component values of the prototype's analog board that enter the
    behavioral equations.

    The gain path uses rf/r1, the envelope detector r5/c5/r6. The board's
    bias and coupling parts (r2..r4, c1..c4) shape nothing these models
    compute, so they are not parameters. rf_ohm may be zero (a wire),
    collapsing the gain stage to a unity follower.
    """

    vdd_v: float = 3.3
    rf_ohm: float = 1e5
    r1_ohm: float = 1e3
    r5_ohm: float = 1e7
    r6_ohm: float = 1e5
    c5_f: float = 9e-6
    diode_drop_v: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
            if f.name not in ("diode_drop_v", "rf_ohm") and not (value > 0):
                raise ValueError(f"{f.name} must be positive, got {value}")
        if self.rf_ohm < 0:
            raise ValueError(f"rf_ohm must be non-negative, got {self.rf_ohm}")
        if self.diode_drop_v < 0:
            raise ValueError(f"diode_drop_v must be non-negative, got {self.diode_drop_v}")
        # a product that underflows to 0 or a ratio that overflows fails here
        tau = self.r5_ohm * self.c5_f
        if not (0 < tau < math.inf):
            raise ValueError(f"r5_ohm * c5_f must be positive and finite, got {tau}")
        gain = 1.0 + self.rf_ohm / self.r1_ohm
        if not math.isfinite(gain):
            raise ValueError(f"1 + rf_ohm / r1_ohm must be finite, got {gain}")


@dataclass(frozen=True)
class PowerProfile:
    """Total node draw per state for one hardware permutation."""

    name: str
    transmit_mw: float
    sleep_mw: float

    def __post_init__(self) -> None:
        if not (0 < self.transmit_mw < math.inf):
            raise ValueError(f"{self.name}: transmit_mw must be finite and positive")
        if not (0 <= self.sleep_mw < math.inf):
            raise ValueError(f"{self.name}: sleep_mw must be finite and non-negative")
        if self.sleep_mw >= self.transmit_mw:
            raise ValueError(
                f"{self.name}: sleep power {self.sleep_mw} mW must be below "
                f"transmit power {self.transmit_mw} mW"
            )


@dataclass(frozen=True)
class ScenarioSegment:
    duration_s: float
    sound: bool
    label: MaybeEmpty = MaybeEmpty("")

    def __post_init__(self) -> None:
        if not (0 < self.duration_s < math.inf):
            raise ValueError(f"segment duration must be finite and positive, got {self.duration_s}")


@dataclass(frozen=True)
class Scenario:
    """Ordered acoustic timeline the node is exposed to."""

    segments: tuple[ScenarioSegment, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise ValueError("scenario has no segments")
        if not math.isfinite(self.duration_s):
            raise ValueError(f"total duration_s must be finite, got {self.duration_s}")
        # the power model divides by the duration in hours
        if self.duration_s / 3600.0 == 0:
            raise ValueError(
                f"total duration_s {self.duration_s} is too short: its hours underflow to zero"
            )

    @property
    def duration_s(self) -> float:
        return sum(seg.duration_s for seg in self.segments)


def build_urban_scenario() -> Scenario:
    """Four sound categories, each 20 s of audio then 100 s of silence (480 s)."""
    segments: list[ScenarioSegment] = []
    for label in URBAN_CATEGORIES:
        segments.append(ScenarioSegment(URBAN_SOUND_SECONDS, True, label))
        segments.append(ScenarioSegment(URBAN_SILENCE_SECONDS, False, f"{label}-silence"))
    return Scenario(tuple(segments))


# Whole-prototype measurements, bit-exact as recorded.
BUILTIN_PROFILES: dict[str, PowerProfile] = {
    p.name: p
    for p in (
        PowerProfile("wifi", transmit_mw=357.59, sleep_mw=16.76),
        PowerProfile("ble", transmit_mw=140.86, sleep_mw=25.23),
        PowerProfile("zigbee", transmit_mw=160.43, sleep_mw=16.83),
        PowerProfile("zigbee-standalone", transmit_mw=34.30, sleep_mw=1.00),
    )
}


def builtin_profile(name: str) -> PowerProfile:
    """The built-in profile called ``name``; otherwise ValueError, listing the built-ins."""
    try:
        return BUILTIN_PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown profile {name!r}; built-ins are {sorted(BUILTIN_PROFILES)}"
        ) from None


@dataclass(frozen=True)
class NodeConfig:
    """Node hardware profile (by default the stand-alone Zigbee board) plus
    wake-hold and battery parameters."""

    profile: PowerProfile = BUILTIN_PROFILES["zigbee-standalone"]
    hold_time_s: float = 0.0
    battery_mah: float = 2900.0
    battery_v: float = 3.3

    def __post_init__(self) -> None:
        if not (0 <= self.hold_time_s < math.inf):
            raise ValueError(f"hold_time_s must be finite and non-negative, got {self.hold_time_s}")
        if not (0 < self.battery_mah < math.inf and 0 < self.battery_v < math.inf):
            raise ValueError("battery capacity and voltage must be finite and positive")


@dataclass(frozen=True)
class IoParams:
    """Where a command writes its CSV and JSON report."""

    out_dir: str = DEFAULT_OUT_DIR


@dataclass(frozen=True)
class RunConfig:
    """Effective configuration of one CLI invocation.

    Each field is a YAML section of the same name whose keys are the fields
    of that section's dataclass, with no exception.
    """

    circuit: CircuitParams = field(default_factory=CircuitParams)
    welch: WelchParams = field(default_factory=WelchParams)
    node: NodeConfig = field(default_factory=NodeConfig)
    io: IoParams = field(default_factory=IoParams)

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict image of every settable value, for report embedding.

        It has the shape of a config file: ``parse_run_config`` reads it back.
        """
        return _snapshot(self)


@functools.cache
def _settable(cls: type) -> dict[str, Any]:
    """Name and type of each field of ``cls``; a config file can set every one."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


@functools.cache
def _required(cls: type) -> tuple[str, ...]:
    """Name of each field of ``cls`` that has no default, in field order."""
    return tuple(
        f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
    )


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


def _parse_value(kind: Any, value: Any, path: str, key: str) -> Any:
    """Validate one value, of YAML or a CSV cell, as the field ``key``, of
    type ``kind``, of the section at ``path``: a plain ``str`` must be
    non-empty, a :data:`MaybeEmpty` may be empty. An error names the value
    ``path.key``, a string built only then."""
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}.{key}: expected a number, got {value!r}")
        if not math.isfinite(value):
            raise ConfigError(f"{path}.{key}: expected a finite number, got {value!r}")
        return float(value)
    if kind in (int, int | None):
        if value is None and kind is not int:
            return None
        if isinstance(value, bool) or not isinstance(value, int):
            expected = "an integer" if kind is int else "an integer or null"
            raise ConfigError(f"{path}.{key}: expected {expected}, got {value!r}")
        return value
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{path}.{key}: expected true/false, got {value!r}")
        return value
    if kind in (str, MaybeEmpty):
        if not isinstance(value, str) or (kind is str and not value):
            expected = "a non-empty string" if kind is str else "a string"
            raise ConfigError(f"{path}.{key}: expected {expected}, got {value!r}")
        return value
    if kind is PowerProfile and isinstance(value, str):
        try:
            return builtin_profile(value)
        except ValueError as exc:
            raise ConfigError(f"{path}.{key}: {exc}") from None
    if is_dataclass(kind):
        return _parse_section(kind, value, f"{path}.{key}")
    try:
        return kind(str(value).strip().lower())
    except ValueError:
        choices = " or ".join(member.value for member in kind)
        raise ConfigError(f"{path}.{key}: expected {choices}, got {value!r}") from None


def _parse_section(cls: type, raw: Any, path: str) -> Any:
    """Build a ``cls`` from a YAML mapping of its settable fields; a key the
    mapping omits takes the field's default, and a field with none must be
    given."""
    section = _require_mapping(raw, path)
    kinds = _settable(cls)
    _reject_unknown(section, kinds, path)
    values = {key: _parse_value(kinds[key], section[key], path, key) for key in section}
    for name in _required(cls):
        if name not in values:
            raise ConfigError(f"{path}.{name}: required key is missing")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_run_config(raw: Any, source: str = "<config>") -> RunConfig:
    """Validate a parsed YAML document into a RunConfig."""
    document = _require_mapping(raw, source)
    sections = _settable(RunConfig)
    _reject_unknown(document, sections, source)
    return RunConfig(
        **{name: _parse_section(kind, document.get(name), name) for name, kind in sections.items()}
    )


@functools.cache
def _yaml_loader() -> type:
    """``yaml.SafeLoader`` that reads a plain ``9e-6``, ``1e5`` or ``1.0e5``
    as a float, as YAML 1.2 does; PyYAML's YAML 1.1 floats need a dot and a
    signed exponent. Built on first use: importing this loads no yaml."""
    import re

    import yaml

    class Loader(yaml.SafeLoader):
        pass

    Loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
        list("-+0123456789."),
    )
    return Loader


def _load_yaml(path: Path) -> Any:
    import yaml

    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        return yaml.load(text, Loader=_yaml_loader())
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc


def load_run_config(path: str | Path) -> RunConfig:
    path = Path(path)
    return parse_run_config(_load_yaml(path), source=str(path))


def load_scenario(path: str | Path) -> Scenario:
    """Read a scenario YAML file: a non-empty ``segments`` list of mappings,
    each read as a config section of :class:`ScenarioSegment`."""
    path = Path(path)
    raw = _load_yaml(path)
    if raw is None:
        raise ConfigError(f"{path}:1: scenario file is empty")
    document = _require_mapping(raw, str(path))
    _reject_unknown(document, {"segments"}, str(path))
    raw_segments = document.get("segments")
    if not isinstance(raw_segments, list) or not raw_segments:
        raise ConfigError(f"{path}: 'segments' must be a non-empty list")
    segments = [
        _parse_section(ScenarioSegment, entry, f"{path}: segments[{i}]")
        for i, entry in enumerate(raw_segments)
    ]
    try:
        return Scenario(tuple(segments))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _cell(kind: Any, text: str) -> Any:
    """A CSV cell's text, or a float column's float if ``float()`` reads one,
    for :func:`_parse_value` to check as a value of type ``kind``."""
    if kind is float:
        try:
            return float(text)
        except ValueError:
            pass
    return text


def _load_table(path: str | Path, cls: type) -> list[Any]:
    """Read CSV rows into ``cls`` instances; the header must list its fields
    in order. Each row is the config section ``{column: cell}`` at
    ``path:line``: :func:`_parse_value` checks a cell as a YAML value."""
    path = Path(path)
    kinds = _settable(cls)
    try:
        # utf-8-sig: a spreadsheet export may start with a byte-order mark
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ConfigError(f"{path}:1: CSV file is empty")
            if [c.strip() for c in header] != list(kinds):
                raise ConfigError(
                    f"{path}:1: expected header {','.join(kinds)}, got {','.join(header)}"
                )
            rows = [(reader.line_num, row) for row in reader if row]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except csv.Error as exc:  # e.g. a cell over csv.field_size_limit()
        raise ConfigError(f"{path}:{reader.line_num}: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    records = []
    for line_num, row in rows:
        where = f"{path}:{line_num}"
        if len(row) != len(kinds):
            raise ConfigError(f"{where}: expected {len(kinds)} fields, got {len(row)}")
        cells = {name: _cell(kind, cell.strip()) for (name, kind), cell in zip(kinds.items(), row)}
        records.append(_parse_section(cls, cells, where))
    return records


def load_mic_table(path: str | Path) -> list[MicCandidate]:
    """Read microphone candidates from CSV."""
    return _load_table(path, MicCandidate)


def load_cal_points(path: str | Path) -> list[CalPoint]:
    """Read calibration measurements from CSV."""
    return _load_table(path, CalPoint)
