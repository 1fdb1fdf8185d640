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
formatted, not joined first. A CSV of at least :data:`CSV_SPLIT_ROWS` rows
(``coherence.csv``) is formatted on two cores when the process may fork
(:func:`_can_fork`): one forked worker formats the second half of the rows
into an unnamed in-memory spill file, not into this process's memory,
while this process writes the header and the first half, then copies the
spill file after them. Both halves are formatted by the same ``%`` format,
so the bytes are those of one process. A worker that fails is an
``E_OUTPUT`` error and leaves no file, and no worker outlives the run,
whether it succeeds or fails.

Each command imports the numerics it computes with where it runs, not
when this module loads: the records the commands parse, the microphone
ranking and the error classes mapped to ``E_*`` codes come from the
numpy-free :mod:`wakenode.records`. Importing this module therefore loads
no numpy. ``rank-mics`` and ``simulate --scenario``, whose power model is
plain Python, run without it; ``coherence``, ``simulate --wav`` and
``calibrate`` import it as they start. Such an import runs while
:func:`main` records warnings, so a warning it raised would go into the
report. ``simulate``, which ``cmd_simulate`` imports that way, can still be
read as an attribute of this module.

Both commands that read audio stream it through stage objects
(``Resampler``, ``EnvelopeDetector``, ``WelchAccumulator`` and
``WakeRuns``) on one contract: ``feed`` takes exactly the next chunk, a
plain array of any length, and keeps the stage's state for the one after,
and the outputs of all chunks, joined, are bit for bit those of one feed of
the whole recording. So memory does not grow with a recording's length.
Each command decodes a recording through :func:`_decoded`, in chunks of
:data:`WAV_CHUNK_FRAMES` into a buffer made once per recording, and checks
every chunk with ``require_finite``. ``simulate --wav`` runs every step of
its chain in place (see :func:`_wake_runs`). ``coherence`` resamples each
chunk to the 8 kHz scoring rate for the scorer (see :func:`_score_wavs`),
which holds the first 10 s of each recording and then one Welch segment,
so no whole recording is held at any rate. The Welch settings are checked
against the 80 s analysis span, and each recording's rate and length
against its WAV header, before any decoding.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import os
import shutil
import sys
import warnings
from dataclasses import asdict, replace
from importlib import resources
from itertools import chain, takewhile
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from . import __version__
from .config import (
    ConfigError,
    RunConfig,
    load_cal_points,
    load_mic_table,
    load_run_config,
    load_scenario,
)
from .records import (
    BUILTIN_PROFILES,
    AlignmentError,
    CalibrationDomainError,
    CircuitParams,
    FitError,
    NodeConfig,
    Scenario,
    ScenarioSegment,
    WavFormatError,
    build_urban_scenario,
    rank_microphones,
)

if TYPE_CHECKING:
    import numpy as np

    from .coherence import ScoreBreakdown, WelchAccumulator
    from .powersim import SimTrace, WakeRuns
    from .wavio import WavReader

CONFIG_ENV_VAR = "WAKENODE_CONFIG"
# rows per string of a streamed coherence or trace CSV
CSV_BLOCK_ROWS = 4096
# fewest rows of a CSV formatted by two processes: coherence.csv (131 073
# rows at the default Welch settings) splits; a trace.csv of ~27k rows
# gains no wall time from the fork and only pays its CPU and page faults
CSV_SPLIT_ROWS = 1 << 16
# characters per piece copied from a worker's spill file
CSV_SPILL_PIECE = 1 << 20
# frames per chunk of a streamed recording: 256 KiB as float64
WAV_CHUNK_FRAMES = 1 << 15

PREFERRED_SOURCE_RATE_HZ = 16_000.0

# what a cmd_* returns: cfg, inputs, results, CSV name and CSV text chunks
CommandOutput = tuple[RunConfig, dict[str, Any], dict[str, Any], str, Iterable[str]]

_ERROR_CODES: list[tuple[type[BaseException], str]] = [
    (ConfigError, "E_CONFIG"),
    (WavFormatError, "E_WAV"),
    (AlignmentError, "E_ALIGN"),
    (CalibrationDomainError, "E_DOMAIN"),
    (FitError, "E_FIT"),
    (OSError, "E_INPUT"),
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
    temp file that is then renamed into place, once the file it replaces is
    copied, with its permission bits, to a hidden backup. On any failure,
    including one raised while a chunk is produced, the files already
    renamed are put back or removed, and so are ``out_dir`` and each parent
    of it that this call made; an OSError becomes ``E_OUTPUT``. No temp
    file or backup is left. Every chunk iterator that has a ``close`` is
    then closed, so a CSV worker behind a generator that a failed write left
    suspended ends before this call returns, not at garbage collection.
    Mode "x" creates the temp files with the permissions a plain write gives
    (0644 under umask 022).
    """
    hidden: list[Path] = []  # temp files, then backups
    placed: list[tuple[Path, Path | None]] = []  # renamed into place, and the backup
    made: list[Path] = []  # directories this call makes, bottom up
    try:
        made = list(takewhile(lambda path: not path.exists(), (out_dir, *out_dir.parents)))
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, chunks in files.items():
            tmp = out_dir / f".{name}.{os.urandom(4).hex()}.tmp"
            with open(tmp, "x") as fh:
                hidden.append(tmp)
                fh.writelines(chunks)
        for tmp, name in zip(list(hidden), files):
            target, backup = out_dir / name, tmp.with_suffix(".bak")
            hidden.append(backup)
            try:
                shutil.copy(target, backup)
            except FileNotFoundError:
                backup = None
            os.replace(tmp, target)
            placed.append((target, backup))
        placed, made = [], []  # done: nothing to undo
    except OSError as exc:
        raise CliError("E_OUTPUT", f"cannot write output: {exc}") from exc
    finally:
        for target, backup in placed:
            with contextlib.suppress(OSError):
                if backup is None:
                    target.unlink()
                else:
                    os.replace(backup, target)
        # a temp file renamed into place, or a backup put back, is missing
        for path in hidden:
            with contextlib.suppress(OSError):
                path.unlink()
        for path in made:
            with contextlib.suppress(OSError):
                path.rmdir()
        for chunks in files.values():
            if hasattr(chunks, "close"):
                chunks.close()


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


def _can_fork() -> bool:
    """Whether this process may fork a CSV worker that runs beside it: it
    has ``os.fork`` and ``os.memfd_create``, more than one usable CPU and a
    single thread. Forking a threaded process is unsafe, and from Python
    3.12 it raises a DeprecationWarning that :func:`main` would record into
    the report."""
    if not (hasattr(os, "fork") and hasattr(os, "memfd_create")):
        return False
    try:
        return len(os.sched_getaffinity(0)) > 1 and len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _csv_rows(
    row_format: str, columns: Sequence[np.ndarray | Sequence], start: int, stop: int
) -> Iterator[str]:
    """One ``row_format`` row per index in ``[start, stop)`` of ``columns``,
    in strings of ``CSV_BLOCK_ROWS`` rows; ``%r`` of a Python float is its
    repr(), which reads back to the same bits. A column is a list, used as
    it is, or a numpy or stdlib array, whose slice is turned into Python
    values with ``tolist()``: under numpy 2, ``%r`` of an ``np.float64`` is
    ``np.float64(...)``."""
    for first in range(start, stop, CSV_BLOCK_ROWS):
        end = min(first + CSV_BLOCK_ROWS, stop)
        block = [c[first:end] if isinstance(c, list) else c[first:end].tolist() for c in columns]
        yield (row_format * len(block[0])) % tuple(chain.from_iterable(zip(*block)))


def _csv_blocks(header: str, row_format: str, *columns: np.ndarray | Sequence) -> Iterator[str]:
    """``header``, then one ``row_format`` row per index of ``columns``
    (arrays or lists of one length), in strings of ``CSV_BLOCK_ROWS`` rows
    (see :func:`_csv_rows`).

    With at least ``CSV_SPLIT_ROWS`` rows and :func:`_can_fork`, the rows
    are split at the middle. A forked worker formats the second half, block
    by block, into an unnamed in-memory file (``os.memfd_create``) and
    exits with status 0, or non-zero on any exception. Meanwhile this
    process yields the first half; it then reaps the worker and yields the
    spill file in pieces of ``CSV_SPILL_PIECE`` characters. The worker's
    rows are held in the spill file, not in either process's memory, and
    each process holds at most one block or piece of text at a time. A
    worker that fails raises ``E_OUTPUT``. Closing the generator early, as
    :func:`_publish` does when a write fails, kills and reaps the worker.
    """
    yield header
    rows = len(columns[0])
    if rows < CSV_SPLIT_ROWS or not _can_fork():
        yield from _csv_rows(row_format, columns, 0, rows)
        return
    mid = rows // 2
    spill = os.memfd_create("wakenode-csv")
    try:
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                with open(spill, "w", encoding="utf-8", newline="", closefd=False) as fh:
                    fh.writelines(_csv_rows(row_format, columns, mid, rows))
                status = 0
            finally:
                os._exit(status)
        try:
            yield from _csv_rows(row_format, columns, 0, mid)
            _, status = os.waitpid(pid, 0)
        except BaseException:
            import signal

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        if status != 0:
            raise CliError(
                "E_OUTPUT",
                f"CSV worker failed with exit status {os.waitstatus_to_exitcode(status)}",
            )
        # the worker shares this descriptor's file offset, left at the end
        with open(spill, encoding="utf-8", newline="", closefd=False) as fh:
            fh.seek(0)
            yield from iter(lambda: fh.read(CSV_SPILL_PIECE), "")
    finally:
        os.close(spill)


# ----------------------------------------------------------------------
# subcommands: each takes the parsed arguments and the run config and
# returns (cfg, inputs, results, csv_name, csv_chunks), the arguments of
# _finish between the command name and the recorded warnings; main runs it.
# Each imports the numerics it computes with where it runs, so a command
# loads numpy only if it needs it.


def _decoded(wav: WavReader, out: np.ndarray) -> Iterator[np.ndarray]:
    """The recording's chunks, each decoded into the front of ``out`` (see
    :meth:`~wakenode.wavio.WavReader.chunks_into`) and checked by
    :func:`~wakenode.signals.require_finite`."""
    from .signals import require_finite

    return map(require_finite, wav.chunks_into(out))


def _score_wavs(
    source: WavReader, recording: WavReader, welch: WelchAccumulator
) -> ScoreBreakdown:
    """Score ``recording`` against ``source`` with ``welch``, each decoded in
    chunks of :data:`WAV_CHUNK_FRAMES` into a buffer made once per recording
    and resampled to the scoring rate as it is decoded; each decoded and
    each resampled chunk is checked by
    :func:`~wakenode.signals.require_finite`, in that order. What scoring
    leaves of both files is then decoded, the source first, so a bad sample
    anywhere fails the run as when each file was read whole before
    scoring."""
    import numpy as np

    from .coherence import SCORE_RATE_HZ, score_streams
    from .signals import Resampler, require_finite

    files = (source, recording)
    decoded = [_decoded(wav, np.empty(WAV_CHUNK_FRAMES)) for wav in files]
    resamplers = [Resampler(wav.sample_rate_hz, SCORE_RATE_HZ, wav.frames) for wav in files]
    resampled = [map(require_finite, map(r.feed, chunks)) for r, chunks in zip(resamplers, decoded)]
    try:
        return score_streams(*resampled, welch)
    finally:
        for _ in chain(*decoded):
            pass


def cmd_coherence(args: argparse.Namespace, cfg: RunConfig) -> CommandOutput:
    from .coherence import SCORE_RATE_HZ, analysis_welch, check_duration
    from .wavio import WavReader

    try:
        welch = analysis_welch(cfg.welch)
    except ValueError as exc:
        raise ConfigError(f"welch: {exc}") from exc
    rate_warnings: list[str] = []
    with WavReader(args.source_wav) as source_file, WavReader(args.recording_wav) as recording_file:
        files = (("source", source_file), ("recording", recording_file))
        for label, wav in files:
            rate = wav.sample_rate_hz
            if rate < SCORE_RATE_HZ:
                raise CliError(
                    "E_WAV",
                    f"{label} sample rate {rate:.0f} Hz is below the "
                    f"{SCORE_RATE_HZ:.0f} Hz analysis rate",
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
        try:
            details = _score_wavs(source_file, recording_file, welch)
        except OverflowError as exc:
            raise CliError(
                "E_INPUT", f"cannot score {args.recording_wav} against {args.source_wav}: {exc}"
            ) from exc

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
    """``trace.csv``: one row per row of the trace's timeline."""
    t_start, t_end, transmit = trace.timeline()
    # a row's state and power cells depend on its state alone: each row
    # refers to one of two strings, indexed by its state as 0 or 1
    profile = node.profile
    cells = [f"sleep,{float(profile.sleep_mw)!r}", f"transmit,{float(profile.transmit_mw)!r}"]
    states = [cells[state] for state in transmit]
    header = "t_start_s,t_end_s,state,power_mw\n"
    return _csv_blocks(header, "%r,%r,%s\n", t_start, t_end, states)


def _wake_runs(
    wav_path: str, circuit: CircuitParams, threshold_v: float, mic_scale_v: float
) -> WakeRuns:
    """Stream a recording through the analog chain, one chunk at a time, into
    the comparator output's low runs: their trace is that of the whole
    recording, while the chain holds one chunk.

    Every stage runs in place in buffers made once per recording, so the
    loop allocates nothing as long as a chunk: one float buffer, into which
    each chunk is decoded and then scaled, amplified and detected; one bool
    buffer for the comparator output; the reader's byte buffer and the
    stages' own scratch. Each stage's samples are checked by
    :func:`~wakenode.signals.require_finite`, in the chain's order. Arrays
    made afresh for each chunk are handed back to the system between chunks
    and faulted in again: on 480 s of 16 kHz clicks a chain of fresh arrays
    took about 8 000 minor page faults a run, these kept buffers 6 400. The
    buffers are freed when this returns, before the trace, whose arrays grow
    with its rows, is built.
    """
    import numpy as np

    from .frontend import EnvelopeDetector, amplify_into, threshold_into
    from .powersim import WakeRuns
    from .signals import require_finite
    from .wavio import WavReader

    with WavReader(wav_path) as wav:
        detector = EnvelopeDetector(circuit, wav.sample_rate_hz)
        runs = WakeRuns(wav.sample_rate_hz)
        high = np.empty(WAV_CHUNK_FRAMES, dtype=bool)
        for samples in _decoded(wav, np.empty(WAV_CHUNK_FRAMES)):
            samples *= mic_scale_v
            require_finite(samples)
            require_finite(amplify_into(samples, circuit, samples))
            envelope = require_finite(detector.feed(samples))
            runs.feed(threshold_into(envelope, threshold_v, high[: len(samples)]))
    return runs


def cmd_simulate(args: argparse.Namespace, cfg: RunConfig) -> CommandOutput:
    from .powersim import battery_lifetime_days, savings_percent, simulate

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
        runs = _wake_runs(args.wav, cfg.circuit, args.threshold_v, args.mic_scale_v)
        trace = runs.trace(node)
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
    from .calibrate import adc_to_db, fit_curve

    points = load_cal_points(args.points_csv)
    curve, r2 = fit_curve(points)

    adc = [p.adc_value for p in points]
    spl = [p.spl_db for p in points]
    predicted = [adc_to_db(x, curve) for x in adc]
    residual = [s - p for s, p in zip(spl, predicted)]
    header = "adc_value,spl_db,predicted_db,residual_db\n"
    rows = _csv_blocks(header, "%r,%r,%r,%r\n", adc, spl, predicted, residual)
    results = {
        "curve": asdict(curve),
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
    columns = [[_csv_cell(entry[f]) for entry in entries] for f in fields]
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
        threshold_v = getattr(args, "threshold_v", None)
        if threshold_v is not None and threshold_v <= 0:
            raise CliError(
                "E_INPUT", f"--threshold-v: expected a positive number, got {threshold_v}"
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


# cmd_simulate imports this where it runs; a caller may still read it here
_LAZY = {"simulate": "powersim"}


def __getattr__(name: str) -> Any:
    if name in _LAZY:
        return getattr(importlib.import_module(f".{_LAZY[name]}", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    sys.exit(main())
