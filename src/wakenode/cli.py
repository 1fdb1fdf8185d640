"""Command-line entry point.

Subcommands: ``coherence`` (score a recording against its source),
``simulate`` (run the power model over a scenario or a WAV through the
analog chain), ``calibrate`` (fit the ADC-to-dB curve), and ``rank-mics``
(order microphone candidates).

Every subcommand is a ``cmd_*(args, cfg)`` function that only computes: it
returns the effective configuration, its inputs, its results, the CSV
file name and the CSV text chunks. :func:`main` is the one runner. It
looks the command up when it parses the arguments, records every Python
warning raised while the command runs, and hands the command's output to
:func:`_finish`, which writes a CSV and a JSON report embedding the
effective configuration, so results are reproducible from their own
output. The recorded warnings go into the report's ``results.warnings``,
after the warnings the command adds itself, instead of going to stderr.
The two files are published together or not at all: each is written to a
temp file in the output directory and renamed into place, and a run that
fails (exit status 1) leaves no file it wrote. Every CSV goes through
:func:`_csv_blocks`, its rows written to the temp file as they are
formatted, not joined first.

``simulate --wav`` streams the recording through the analog chain in
fixed-size chunks (:func:`wakenode.frontend.stream_chunk_samples`), each
stage carrying its state across chunk boundaries, so its memory does not
grow with the recording's length and its outputs are those of one pass
over the whole recording. ``coherence`` streams each recording the same
way, in chunks of :data:`WAV_CHUNK_FRAMES`, through the resampler to the
8 kHz scoring rate and on into the scorer, which holds the first 10 s of
each and then one Welch segment, so no whole recording is held at any
rate. The Welch settings are checked against the 80 s analysis span, and
each recording's rate and length against its WAV header, before any
decoding.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
import warnings
from dataclasses import replace
from importlib import resources
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .calibrate import CalibrationDomainError, FitError, adc_to_db, fit_curve
from .coherence import (
    SCORE_RATE_HZ,
    AlignmentError,
    analysis_welch,
    check_duration,
    rank_microphones,
    score_streams,
)
from .config import (
    ConfigError,
    RunConfig,
    load_cal_points,
    load_mic_table,
    load_run_config,
    load_scenario,
)
from .frontend import (
    CircuitParams,
    EnvelopeCarry,
    amplify,
    envelope_detect,
    stream_chunk_samples,
    threshold_out,
)
from .powersim import (
    BUILTIN_PROFILES,
    NodeConfig,
    Scenario,
    ScenarioSegment,
    SimTrace,
    WakeRuns,
    battery_lifetime_days,
    build_urban_scenario,
    savings_percent,
    simulate,
)
from .signals import ResampleCarry, Signal, resample
from .wavio import WavFormatError, WavReader

CONFIG_ENV_VAR = "WAKENODE_CONFIG"
# rows per string of a streamed coherence or trace CSV
CSV_BLOCK_ROWS = 4096
# frames per chunk of a recording streamed into coherence: 256 KiB as float64
WAV_CHUNK_FRAMES = 1 << 15

MIN_SOURCE_RATE_HZ = 8_000.0
PREFERRED_SOURCE_RATE_HZ = 16_000.0

# what a cmd_* returns: cfg, inputs, results, CSV name and CSV text chunks
CommandOutput = tuple[RunConfig, dict[str, Any], dict[str, Any], str, Iterable[str]]

_ERROR_CODES: list[tuple[type[BaseException], str]] = [
    (ConfigError, "E_CONFIG"),
    (WavFormatError, "E_WAV"),
    (AlignmentError, "E_ALIGN"),
    (CalibrationDomainError, "E_DOMAIN"),
    (FitError, "E_FIT"),
    (FileNotFoundError, "E_INPUT"),
    (ValueError, "E_INPUT"),
]


class CliError(Exception):
    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


def _error_code(exc: BaseException) -> str:
    for etype, code in _ERROR_CODES:
        if isinstance(exc, etype):
            return code
    return "E_INTERNAL"


def data_path(name: str) -> Path:
    """Path of a bundled data file (e.g. the microphone table)."""
    return Path(str(resources.files("wakenode") / "data" / name))


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _input_entry(path: str | Path) -> dict[str, str]:
    p = Path(path)
    return {"path": str(p), "sha256": _sha256(p)}


def _to_json(value: Any) -> str:
    """Strict JSON: a NaN or infinity raises ValueError instead of being written."""
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False)


def _publish(out_dir: Path, files: dict[str, Iterable[str]]) -> None:
    """Write every file into ``out_dir``, in order, or none of them.

    Each file's text chunks are written, as they are produced, to a hidden
    temp file that is then renamed into place. On any failure, including
    one raised while a chunk is produced, the temp files and the files
    already renamed are removed, and an OSError becomes ``E_OUTPUT``. Mode
    "x" creates the temp files with the permissions a plain write gives
    (0644 under umask 022).
    """
    written: list[Path] = []  # what this call has put on disk
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, chunks in files.items():
            tmp = out_dir / f".{name}.{os.urandom(4).hex()}.tmp"
            with open(tmp, "x") as fh:
                written.append(tmp)
                fh.writelines(chunks)
        for i, name in enumerate(files):
            os.replace(written[i], out_dir / name)
            written[i] = out_dir / name
        written.clear()
    except OSError as exc:
        raise CliError("E_OUTPUT", f"cannot write output: {exc}") from exc
    finally:
        for path in written:
            with contextlib.suppress(OSError):
                path.unlink()


def _finish(
    command: str,
    cfg: RunConfig,
    inputs: dict[str, Any],
    results: dict[str, Any],
    csv_name: str,
    csv_text: Iterable[str],
    warned: Sequence[warnings.WarningMessage],
) -> dict[str, Any]:
    """Build a command's report, then publish its CSV, streamed from the
    text chunks of ``csv_text`` (header line first), and the report.

    ``results["warnings"]`` lists the command's own warnings, if it has
    any, then the message of each Python warning in ``warned``. The report
    is serialised as strict JSON before any file is opened.
    """
    report = {
        "command": command,
        "version": __version__,
        "inputs": inputs,
        "config": cfg.snapshot(),
        "results": {
            **results,
            "warnings": [*results.get("warnings", ()), *(str(w.message) for w in warned)],
            f"{csv_name.removesuffix('.csv')}_csv": csv_name,
        },
    }
    text = _to_json(report) + "\n"
    _publish(
        Path(cfg.out_dir),
        {csv_name: csv_text, f"{command.replace('-', '_')}_report.json": (text,)},
    )
    return report


def _csv_blocks(header: str, row_format: str, *columns: np.ndarray) -> Iterator[str]:
    """``header``, then one ``row_format`` row per index of ``columns``, in
    strings of ``CSV_BLOCK_ROWS`` rows; ``%r`` of a Python float is its
    repr(), which reads back to the same bits."""
    yield header
    for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        block = [column[start : start + CSV_BLOCK_ROWS].tolist() for column in columns]
        yield (row_format * len(block[0])) % tuple(chain.from_iterable(zip(*block)))


# ----------------------------------------------------------------------
# subcommands: each takes the parsed arguments and the run config and
# returns (cfg, inputs, results, csv_name, csv_chunks), the arguments of
# _finish between the command name and the recorded warnings; main runs it


def _at_score_rate(chunks: Iterator[Signal], frames: int) -> Iterator[Signal]:
    """A recording's chunks, each resampled to the scoring rate as it is decoded."""
    carry = ResampleCarry(frames)
    for chunk in chunks:
        yield resample(chunk, SCORE_RATE_HZ, carry)


def cmd_coherence(args: argparse.Namespace, cfg: RunConfig) -> CommandOutput:
    try:
        welch = analysis_welch(cfg.welch)
    except ValueError as exc:
        raise ConfigError(f"welch: {exc}") from exc
    rate_warnings: list[str] = []
    with WavReader(args.source_wav) as source_file, WavReader(args.recording_wav) as recording_file:
        files = (("source", source_file), ("recording", recording_file))
        for label, wav in files:
            rate = wav.sample_rate_hz
            if rate < MIN_SOURCE_RATE_HZ:
                raise CliError(
                    "E_WAV",
                    f"{label} sample rate {rate:.0f} Hz is below the "
                    f"{MIN_SOURCE_RATE_HZ:.0f} Hz analysis rate",
                )
            if rate < PREFERRED_SOURCE_RATE_HZ:
                rate_warnings.append(
                    f"{label} sample rate {rate:.0f} Hz is below "
                    f"{PREFERRED_SOURCE_RATE_HZ:.0f} Hz; the top of the analysis "
                    "band has no headroom"
                )
        # at the input's own rate: 3 968 999 frames at 44.1 kHz fall short of
        # 90 s but resample to exactly 720 000 samples at 8 kHz
        for label, wav in files:
            check_duration(label, wav.frames / wav.sample_rate_hz)
        source, recording = (wav.chunks(WAV_CHUNK_FRAMES) for _, wav in files)
        try:
            details = score_streams(
                _at_score_rate(source, source_file.frames),
                _at_score_rate(recording, recording_file.frames),
                welch,
            )
        finally:
            # decode what scoring left of both files, the source first, so a
            # bad sample anywhere fails the run as when each file was read
            # whole before scoring
            for _ in chain(source, recording):
                pass

    inputs = {
        "source_wav": _input_entry(args.source_wav),
        "recording_wav": _input_entry(args.recording_wav),
    }
    results = {
        "score": details.score,
        "delay_samples": details.delay_samples,
        "bins": len(details.estimate.values),
        "warnings": rate_warnings,
    }
    estimate = details.estimate
    columns = (estimate.frequencies_hz, estimate.values, details.envelope)
    rows = _csv_blocks("frequency_hz,coherence,envelope\n", "%r,%r,%r\n", *columns)
    return cfg, inputs, results, "coherence.csv", rows


BUILTIN_SCENARIOS: dict[str, Callable[[], Scenario]] = {
    "urban": build_urban_scenario,
    "silence": lambda: Scenario((ScenarioSegment(480.0, False, "silence"),)),
}


def _trace_csv(trace: SimTrace, node: NodeConfig) -> Iterator[str]:
    t_start, t_end, transmit = trace.timeline()
    state = np.where(transmit, "transmit", "sleep")
    power = np.where(transmit, node.profile.transmit_mw, node.profile.sleep_mw)
    header = "t_start_s,t_end_s,state,power_mw\n"
    return _csv_blocks(header, "%r,%r,%s,%r\n", t_start, t_end, state, power)


def _simulate_wav(
    wav_path: str, circuit: CircuitParams, node: NodeConfig, threshold_v: float, mic_scale_v: float
) -> SimTrace:
    """Stream a recording through the analog chain, one chunk at a time.

    Each stage carries its state across chunk boundaries, so the trace is
    that of the whole recording while only one chunk of each stage's
    samples is held.
    """
    with WavReader(wav_path) as wav:
        rate = wav.sample_rate_hz
        envelope = EnvelopeCarry()
        runs = WakeRuns(rate)
        # one name for every stage: rebinding it frees each stage's input
        # as soon as the next stage's output exists
        for chain in wav.chunks(stream_chunk_samples(circuit, rate)):
            chain = Signal(chain.samples * mic_scale_v, rate)
            chain = amplify(chain, circuit)
            chain = envelope_detect(chain, circuit, envelope)
            runs.feed(threshold_out(chain, threshold_v))
    return runs.trace(node)


def cmd_simulate(args: argparse.Namespace, cfg: RunConfig) -> CommandOutput:
    node = cfg.node
    if args.profile is not None:
        if args.profile not in BUILTIN_PROFILES:
            raise CliError(
                "E_INPUT",
                f"unknown profile {args.profile!r}; built-ins are {sorted(BUILTIN_PROFILES)}",
            )
        node = replace(node, profile=BUILTIN_PROFILES[args.profile])

    inputs: dict[str, Any] = {}
    if args.wav is not None:
        trace = _simulate_wav(args.wav, cfg.circuit, node, args.threshold_v, args.mic_scale_v)
        inputs["wav"] = _input_entry(args.wav)
        source_desc = {
            "kind": "wav",
            "threshold_v": args.threshold_v,
            "mic_scale_v": args.mic_scale_v,
        }
    else:
        if args.scenario in BUILTIN_SCENARIOS:
            scenario = BUILTIN_SCENARIOS[args.scenario]()
        else:
            scenario = load_scenario(args.scenario)
            inputs["scenario"] = _input_entry(args.scenario)
        trace = simulate(scenario, node)
        source_desc = {"kind": "scenario", "name": args.scenario}

    # zero average power (a sleep draw of 0 that never wakes) never drains
    # the battery, and a subnormal one outlasts any float: the lifetime is
    # unbounded, reported as null
    lifetime = (
        battery_lifetime_days(trace.avg_power_mw, node.battery_mah, node.battery_v)
        if trace.avg_power_mw > 0
        else math.inf
    )
    results = {
        "source": source_desc,
        "profile": node.profile.name,
        "duty_cycle": trace.duty_cycle,
        "avg_power_mw": trace.avg_power_mw,
        "energy_mwh": trace.energy_mwh,
        "lifetime_days": lifetime if math.isfinite(lifetime) else None,
        "savings_percent": savings_percent(node.profile),
    }
    return replace(cfg, node=node), inputs, results, "trace.csv", _trace_csv(trace, node)


def cmd_calibrate(args: argparse.Namespace, cfg: RunConfig) -> CommandOutput:
    points = load_cal_points(args.points_csv)
    curve, r2 = fit_curve(points)

    adc = np.array([p.adc_value for p in points])
    spl = np.array([p.spl_db for p in points])
    predicted = np.array([adc_to_db(p.adc_value, curve) for p in points])
    header = "adc_value,spl_db,predicted_db,residual_db\n"
    rows = _csv_blocks(header, "%r,%r,%r,%r\n", adc, spl, predicted, spl - predicted)
    results = {
        "curve": {"a": curve.a, "b": curve.b, "c": curve.c, "d": curve.d},
        "r_squared": r2,
        "points": len(points),
    }
    inputs = {"points_csv": _input_entry(args.points_csv)}
    return cfg, inputs, results, "residuals.csv", rows


def _csv_cell(value: Any) -> str:
    """A ranking value as one CSV cell: a float as its repr(), None empty, a
    boolean yes/no, a list joined by "; ", and text quoted as the csv
    module's minimal quoting does."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return repr(value)
    text = "; ".join(value) if isinstance(value, list) else str(value)
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def cmd_rank_mics(args: argparse.Namespace, cfg: RunConfig) -> CommandOutput:
    if args.no_constraints and (args.analog or args.supply is not None):
        raise CliError("E_INPUT", "--no-constraints cannot be combined with --analog/--supply")
    candidates = load_mic_table(args.mic_csv)
    ranking = rank_microphones(candidates, require_analog=args.analog, supply_v=args.supply)

    entries = [
        {
            "rank": e.rank,
            "name": e.candidate.name,
            "accuracy": e.candidate.accuracy,
            "power_mw": e.candidate.power_mw,
            "eligible": e.eligible,
            "reasons": list(e.reasons),
        }
        for e in ranking
    ]
    results = {"require_analog": args.analog, "supply_v": args.supply, "ranking": entries}
    inputs = {"mic_csv": _input_entry(args.mic_csv)}
    # one column per entry key, so the CSV and the report share one field list
    fields = list(entries[0])
    columns = [np.array([_csv_cell(entry[f]) for entry in entries]) for f in fields]
    rows = _csv_blocks(",".join(fields) + "\n", ",".join(["%s"] * len(fields)) + "\n", *columns)
    return cfg, inputs, results, "ranking.csv", rows


# ----------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wakenode",
        description="Threshold-wake acoustic sensor node: analysis and simulation tools",
    )
    parser.add_argument("--config", help="run-config YAML (default: $WAKENODE_CONFIG)")
    parser.add_argument("--out-dir", help="report output directory (overrides config)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("coherence", help="score a recording against its source")
    p.set_defaults(run=cmd_coherence)
    p.add_argument("source_wav")
    p.add_argument("recording_wav")

    p = sub.add_parser("simulate", help="simulate node power over a scenario or WAV")
    p.set_defaults(run=cmd_simulate)
    group = p.add_mutually_exclusive_group(required=True)
    scenarios = ", ".join(BUILTIN_SCENARIOS)
    group.add_argument("--scenario", help=f"{scenarios}, or a scenario YAML path")
    group.add_argument("--wav", help="drive the analog chain from a WAV file")
    p.add_argument("--profile", help=f"built-in profile: {', '.join(sorted(BUILTIN_PROFILES))}")
    p.add_argument(
        "--threshold-v",
        type=float,
        default=0.022,
        help="wake comparator threshold in volts (WAV route, default 0.022)",
    )
    p.add_argument(
        "--mic-scale-v",
        type=float,
        default=0.01,
        help="microphone volts per full-scale WAV unit (default 0.01)",
    )

    p = sub.add_parser("calibrate", help="fit the ADC-to-dB calibration curve")
    p.set_defaults(run=cmd_calibrate)
    p.add_argument("points_csv")

    p = sub.add_parser("rank-mics", help="rank microphone candidates")
    p.set_defaults(run=cmd_rank_mics)
    p.add_argument("mic_csv")
    p.add_argument("--analog", action="store_true", help="require an analog microphone")
    p.add_argument("--supply", type=float, help="supply voltage candidates must accept")
    p.add_argument(
        "--no-constraints",
        action="store_true",
        help="rank purely by accuracy and power",
    )
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    cfg = load_run_config(path) if path else RunConfig()
    return replace(cfg, out_dir=args.out_dir) if args.out_dir else cfg


def main(argv: Sequence[str] | None = None) -> int:
    # the parser is built on every call, so each subparser's ``run`` default
    # is the module's cmd_* function as bound at call time
    args = _build_parser().parse_args(argv)
    try:
        for flag in ("threshold_v", "mic_scale_v", "supply"):
            value = getattr(args, flag, None)
            if value is not None and not math.isfinite(value):
                raise CliError(
                    "E_INPUT", f"--{flag.replace('_', '-')}: expected a finite number, got {value}"
                )
        if args.out_dir == "":
            raise CliError("E_INPUT", "--out-dir: expected a directory, got an empty string")
        # every Python warning raised while the command runs goes into its
        # report, not to stderr
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            cfg = _load_config(args)
            report = _finish(args.subcommand, *args.run(args, cfg), warned)
    except CliError as exc:
        print(f"wakenode: error [{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - boundary: map to coded diagnostics
        print(f"wakenode: error [{_error_code(exc)}]: {exc}", file=sys.stderr)
        return 1

    print(_to_json(report["results"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
