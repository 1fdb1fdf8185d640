"""Command-line entry point.

Subcommands: ``coherence`` (score a recording against its source),
``simulate`` (run the power model over a scenario or a WAV through the
analog chain), ``calibrate`` (fit the ADC-to-dB curve), and ``rank-mics``
(order microphone candidates).

Every subcommand is a ``cmd_*(args, cfg)`` function that only computes: it
returns its inputs, its results, the CSV file name and the CSV text chunks.
:func:`main` is the one runner. It looks the command up when it parses the
arguments, loads the configuration (:func:`_load_config` applies
``--out-dir`` and ``--profile``), records every Python warning raised while
the command runs, and hands the configuration and the command's output to
:func:`_finish`, which writes a CSV and a JSON report embedding the
configuration, so results are reproducible from their own output. The
recorded warnings go into the report's ``results.warnings``, after the
warnings the command adds itself, instead of going to stderr; each distinct
message is listed once, so no chunking repeats one.
The two files are published together or not at all: each is written to a
temp file in the output directory and renamed into place, and a run that
fails (exit status 1) leaves no file it wrote. Every CSV's rows are
written to the temp file as they are formatted, in strings of
:data:`CSV_BLOCK_ROWS` rows, not joined first (:func:`_csv_blocks`, and
:func:`_trace_csv` for ``trace.csv``).
Every float cell is the float's repr(), which reads back to the same bits.
One rule spells each block of a long CSV: orjson's digits, some 30 times
faster than repr(), for the whole block, or repr() for every cell of it
where orjson would spell one otherwise (:func:`_orjson_text`). A block of
float64 array columns, as ``coherence.csv``'s, is one orjson call cut into
rows in place; any other block is joined cell by cell (:func:`_float_cells`).

:func:`main` is the library entry: it returns the exit status and may run
any number of times in one process. :func:`run` is the process entry,
which ``python -m wakenode.cli`` and the ``wakenode`` console script call:
it runs :func:`main`, then the :mod:`gc` module's ``freeze()``, then exits
with main's status. The freeze moves every object the process holds into
the collector's permanent generation, so the collections of interpreter
shutdown skip the object graphs that numpy and the other imports built,
memory the operating system takes back at exit anyway. Shutdown still
runs in order (atexit handlers, the stdio flush, the clearing of module
dicts), and every output file is closed and every temp file removed
before :func:`main` returns. :func:`main` itself
never freezes: a long-lived caller would keep every later object out of
collection.

Each command imports the numerics it computes with where it runs, not when
this module loads: the records the commands parse, their parsers, the
microphone ranking and the error classes mapped to ``E_*`` codes come from
the numpy-free :mod:`wakenode.config`. Importing this module therefore
loads no numpy. ``rank-mics`` and ``simulate --scenario``, whose power
model is plain Python, run without it; ``coherence``, ``simulate --wav``
and ``calibrate`` import it as they start. Such an import runs while
:func:`main` records warnings, so a warning it raised would go into the
report. ``simulate``, which ``cmd_simulate`` imports that way, can still be
read as an attribute of this module.

Each input a report names is hashed (:func:`_sha256`) after the command's
numerics, by one of two SHA-256s chosen by the file's size. An input below
:data:`BUILTIN_SHA256_BYTES` (768 KiB), such as a microphone table, a
calibration table or a scenario file, takes the interpreter's own
(``_sha2`` from Python 3.12, ``_sha256`` on 3.10 and 3.11), the lean module
CPython's ``random`` imports before :mod:`hashlib`. So ``rank-mics``,
``calibrate`` and ``simulate --scenario`` map no OpenSSL libcrypto, about
3.3 MiB of peak memory (numpy < 2 still maps it for ``calibrate``: its
import loads ``numpy.random``, which imports :mod:`hashlib`). A larger
input, as the WAVs of ``coherence`` and ``simulate --wav``, takes
:mod:`hashlib`, whose OpenSSL (with the SHA-NI instructions) hashes 8.4 MB
in 6 ms against the built-in's 49 ms; ``coherence`` reaches its peak memory
in the Welch pass, before libcrypto is mapped. The size is where the two
cost a fresh interpreter the same, import and hash together, built-in
against :mod:`hashlib`: on a 2-vCPU x86-64 machine with Python 3.11, the
medians of 15 runs were 3.15 against 3.47 ms at 640 KiB, 3.72 against
3.64 ms at 768 KiB and 4.84 against 3.82 ms at 1 MiB. A Python built
without either module uses :mod:`hashlib` for every input.

Both commands that read audio stream it through stage objects
(``Resampler``, ``EnvelopeDetector``, ``WelchAccumulator`` and
``WakeRuns``) on one contract: ``feed`` takes exactly the next chunk, a
plain array of any length, and keeps the stage's state for the one after,
and the outputs of all chunks, joined, are bit for bit those of one feed of
the whole recording. So memory does not grow with a recording's length.
Each command decodes a recording in chunks of :data:`WAV_CHUNK_FRAMES`
into a buffer made once per recording. The reader (of a float WAV),
``Resampler`` and ``EnvelopeDetector`` check what they return with
``require_finite``, and ``simulate --wav`` checks its scaled samples; the
amplifier's clip maps any overflow to a rail. ``simulate --wav`` runs
every step of its chain in place (see :func:`_wake_runs`). ``coherence``
resamples each chunk to the 8 kHz scoring rate for the scorer (see
:func:`_score_wavs`), which holds the first 10 s of each recording and
then one Welch segment, so no whole recording is held at any rate. The
Welch settings are checked against the 80 s analysis span, and each
recording's rate and length against its WAV header, before any decoding.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import shutil
import sys
import warnings
from dataclasses import asdict, replace
from itertools import chain, takewhile
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, NoReturn, Sequence

from . import __version__
from .config import (
    BUILTIN_PROFILES,
    AlignmentError,
    CalibrationDomainError,
    CircuitParams,
    ConfigError,
    FitError,
    IoParams,
    NodeConfig,
    RunConfig,
    Scenario,
    ScenarioSegment,
    WavFormatError,
    build_urban_scenario,
    builtin_profile,
    load_cal_points,
    load_mic_table,
    load_run_config,
    load_scenario,
    rank_microphones,
)

if TYPE_CHECKING:
    import numpy as np

    from .coherence import ScoreBreakdown, WelchAccumulator
    from .powersim import SimTrace, WakeRuns
    from .wavio import WavReader

CONFIG_ENV_VAR = "WAKENODE_CONFIG"
# rows per string of a streamed CSV: a block's cell lists are held while
# it is joined, so a longer block raises the peak RSS
CSV_BLOCK_ROWS = 1024
# frames per chunk of a streamed recording: 256 KiB as float64
WAV_CHUNK_FRAMES = 1 << 15
# an input of fewer bytes is hashed by the interpreter's own SHA-256, a
# larger one by hashlib's OpenSSL: where the two cost a fresh interpreter
# the same (see the module docstring)
BUILTIN_SHA256_BYTES = 3 << 18

PREFERRED_SOURCE_RATE_HZ = 16_000.0

# what a cmd_* returns: inputs, results, CSV name and CSV text chunks
CommandOutput = tuple[dict[str, Any], dict[str, Any], str, Iterable[str]]


class OutputError(Exception):
    """The report files could not be written (see :func:`_publish`)."""


# the first class an exception is an instance of gives its code
_ERROR_CODES: list[tuple[type[BaseException], str]] = [
    (ConfigError, "E_CONFIG"),
    (WavFormatError, "E_WAV"),
    (AlignmentError, "E_ALIGN"),
    (CalibrationDomainError, "E_DOMAIN"),
    (FitError, "E_FIT"),
    (OutputError, "E_OUTPUT"),
    (OSError, "E_INPUT"),
    (ValueError, "E_INPUT"),
]


def _error_code(exc: BaseException) -> str:
    for etype, code in _ERROR_CODES:
        if isinstance(exc, etype):
            return code
    return "E_INTERNAL"


def data_path(name: str) -> Path:
    """Path of a bundled data file (e.g. the microphone table)."""
    return Path(__file__).with_name("data") / name


def _new_sha256(size: int) -> Any:
    """A SHA-256 object for an input of ``size`` bytes: below
    :data:`BUILTIN_SHA256_BYTES` the interpreter's own (``_sha2`` from
    Python 3.12, ``_sha256`` before), which maps no OpenSSL; from there up,
    or where neither module imports, :mod:`hashlib`'s."""
    if size < BUILTIN_SHA256_BYTES:
        for name in ("_sha2", "_sha256"):
            with contextlib.suppress(ImportError):
                return importlib.import_module(name).sha256()
    import hashlib

    return hashlib.sha256()


def _sha256(path: Path) -> str:
    with open(path, "rb") as fh:
        # sized from the open file, so the size is that of the bytes hashed
        digest = _new_sha256(os.fstat(fh.fileno()).st_size)
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
    of it that this call made; an OSError becomes :class:`OutputError`. No temp
    file or backup is left. Mode "x" creates the temp files with the
    permissions a plain write gives (0644 under umask 022).
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
        raise OutputError(f"cannot write output: {exc}") from exc
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
    any, then the message of each Python warning in ``warned``, each
    distinct message once, where it first appears: a warning raised once
    per streamed chunk is reported once, whatever the chunk size. The
    report is serialised as strict JSON before any file is opened.
    """
    report = {
        "command": command,
        "version": __version__,
        "inputs": inputs,
        "config": cfg.snapshot(),
        "results": {
            **results,
            "warnings": list(
                dict.fromkeys([*results.get("warnings", ()), *(str(w.message) for w in warned)])
            ),
            f"{csv_name.removesuffix('.csv')}_csv": csv_name,
        },
    }
    text = _to_json(report) + "\n"
    _publish(
        Path(cfg.io.out_dir),
        {csv_name: csv_text, f"{command.replace('-', '_')}_report.json": (text,)},
    )
    return report


def _orjson_text(values: np.ndarray | Sequence[float]) -> bytes | None:
    """orjson's JSON array of the shortest round-trip digits of ``values``
    (a float64 array, an ``array("d")`` or a list), or None if a cell of it
    differs from repr(): one with ``e``, ``n`` (NaN and the infinities are
    ``null``) or a nonzero magnitude below 1e-4 (``0.0000...``); orjson
    spells every other float as repr() does. A float64 array's small
    magnitudes are found from its values, as a search of the text takes
    some 50 µs a 3-column block; other ``values``, which load no numpy, have
    their text searched, which also rejects ordinary cells like 10.00001."""
    import orjson

    if hasattr(values, "typecode"):  # an array("d"): orjson would import numpy to look at it
        values = values.tolist()
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)
    if b"e" in text or b"n" in text:
        return None
    if getattr(values, "dtype", None) == "float64":
        small = ((abs(values) < 1e-4) & (values != 0)).any()
    else:
        small = b"0.0000" in text
    return None if small else text


def _float_cells(values: np.ndarray | Sequence[float]) -> list[str]:
    """repr() of each float in ``values`` (a float64 array, an ``array("d")``
    or a list): orjson's digits (:func:`_orjson_text`) for a block of at
    least ``CSV_BLOCK_ROWS`` that has them right, repr() for every cell of
    any other, so a short CSV never pays orjson's import (about 8 ms and
    1 MiB)."""
    text = _orjson_text(values) if len(values) >= CSV_BLOCK_ROWS else None
    if text is None:
        return [repr(float(v)) for v in values]
    return text.decode()[1:-1].split(",")


def _csv_rows(*cells: Iterable[str]) -> str:
    """One CSV row per index of the cell columns ``cells``, each ended by a newline."""
    return "\n".join(map(",".join, zip(*cells))) + "\n"


def _csv_blocks(
    header: str, *columns: np.ndarray | Sequence[float] | Sequence[str]
) -> Iterator[str]:
    """``header``, then one row per index of ``columns``, in strings of
    ``CSV_BLOCK_ROWS`` rows.

    A whole block of float64 array columns is one :func:`_orjson_text`
    call on its row-interleaved cells, cut into rows in place by turning
    every ``len(columns)``-th comma into a newline, so no cell or row is a
    str of its own. Any other block, and one that call rejects, is joined
    row by row: a str column as it is, and a float column by
    :func:`_float_cells`. So list columns load no numpy here, and a short
    CSV no orjson."""
    whole = all(getattr(c, "dtype", None) == "float64" for c in columns)
    yield header
    for first in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        blocks = [c[first : first + CSV_BLOCK_ROWS] for c in columns]
        if whole and len(blocks[0]) == CSV_BLOCK_ROWS:
            import numpy as np

            text = _orjson_text(np.column_stack(blocks).ravel())
            if text is not None:
                row_text = bytearray(text)
                view = np.frombuffer(row_text, np.uint8)
                view[np.flatnonzero(view == ord(","))[len(blocks) - 1 :: len(blocks)]] = ord("\n")
                view[-1] = ord("\n")  # the array's closing bracket ends the last row
                yield row_text[1:].decode()
                continue
        yield _csv_rows(*(b if isinstance(b[0], str) else _float_cells(b) for b in blocks))


# ----------------------------------------------------------------------
# subcommands: each takes the parsed arguments and the run config (with
# --out-dir and --profile applied) and returns (inputs, results, csv_name,
# csv_chunks), the arguments of _finish after the config; main runs it.
# Each imports the numerics it computes with where it runs, so a command
# loads numpy only if it needs it.


def _score_wavs(
    source: WavReader, recording: WavReader, welch: WelchAccumulator
) -> ScoreBreakdown:
    """Score ``recording`` against ``source`` with ``welch``, each decoded in
    chunks of :data:`WAV_CHUNK_FRAMES` into a buffer made once per recording
    and resampled to the scoring rate as it is decoded. What scoring
    leaves of both files is then decoded, the source first, so a bad sample
    anywhere fails the run as when each file was read whole before
    scoring."""
    import numpy as np

    from .coherence import SCORE_RATE_HZ, score_streams
    from .signals import Resampler

    files = (source, recording)
    decoded = [wav.chunks_into(np.empty(WAV_CHUNK_FRAMES)) for wav in files]
    resamplers = [Resampler(wav.sample_rate_hz, SCORE_RATE_HZ, wav.frames) for wav in files]
    resampled = [map(r.feed, chunks) for r, chunks in zip(resamplers, decoded)]
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
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"welch: {exc}") from exc
    rate_warnings: list[str] = []
    with WavReader(args.source_wav) as source_file, WavReader(args.recording_wav) as recording_file:
        files = (("source", source_file), ("recording", recording_file))
        for label, wav in files:
            rate = wav.sample_rate_hz
            if rate < SCORE_RATE_HZ:
                raise WavFormatError(
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
            raise ValueError(
                f"cannot score {args.recording_wav} against {args.source_wav}: {exc}"
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
    rows = _csv_blocks("frequency_hz,coherence,envelope\n", *columns)
    return inputs, results, "coherence.csv", rows


BUILTIN_SCENARIOS: dict[str, Callable[[], Scenario]] = {
    "urban": build_urban_scenario,
    "silence": lambda: Scenario((ScenarioSegment(480.0, False, "silence"),)),
}


def _trace_csv(trace: SimTrace, node: NodeConfig) -> Iterator[str]:
    """``trace.csv``: one row per row of the trace's timeline. Row i runs
    from bound i to bound i + 1, so each block formats its rows' bounds
    once, the next block's first start included."""
    bounds, transmit = trace.timeline()
    # a row's state and power cells depend on its state alone: each row
    # refers to one of two strings, indexed by its state as 0 or 1
    profile = node.profile
    states = [f"sleep,{float(profile.sleep_mw)!r}", f"transmit,{float(profile.transmit_mw)!r}"]
    yield "t_start_s,t_end_s,state,power_mw\n"
    for first in range(0, len(transmit), CSV_BLOCK_ROWS):
        end = first + CSV_BLOCK_ROWS
        cells = _float_cells(bounds[first : end + 1])
        yield _csv_rows(cells[:-1], cells[1:], map(states.__getitem__, transmit[first:end]))


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
    stages' own scratch. Only the scaled samples are checked here, by
    :func:`~wakenode.signals.require_finite`; the other stages check
    their own outputs. Arrays
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
        for samples in wav.chunks_into(np.empty(WAV_CHUNK_FRAMES)):
            samples *= mic_scale_v
            require_finite(samples)
            envelope = detector.feed(amplify_into(samples, circuit, samples))
            runs.feed(threshold_into(envelope, threshold_v, high[: len(samples)]))
    return runs


def cmd_simulate(args: argparse.Namespace, cfg: RunConfig) -> CommandOutput:
    from .powersim import battery_lifetime_days, savings_percent, simulate

    inputs: dict[str, Any] = {}
    if args.wav is not None:
        runs = _wake_runs(args.wav, cfg.circuit, args.threshold_v, args.mic_scale_v)
        trace = runs.trace(cfg.node)
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
        trace = simulate(scenario, cfg.node)
        source_desc = {"kind": "scenario", "name": args.scenario}

    # zero average power (a sleep draw of 0 that never wakes) never drains
    # the battery, and a subnormal one outlasts any float: the lifetime is
    # unbounded, reported as null
    lifetime = (
        battery_lifetime_days(trace.avg_power_mw, cfg.node.battery_mah, cfg.node.battery_v)
        if trace.avg_power_mw > 0
        else math.inf
    )
    results = {
        "source": source_desc,
        "profile": cfg.node.profile.name,
        "duty_cycle": trace.duty_cycle,
        "avg_power_mw": trace.avg_power_mw,
        "energy_mwh": trace.energy_mwh,
        "lifetime_days": lifetime if math.isfinite(lifetime) else None,
        "savings_percent": savings_percent(cfg.node.profile),
    }
    return inputs, results, "trace.csv", _trace_csv(trace, cfg.node)


def cmd_calibrate(args: argparse.Namespace, cfg: RunConfig) -> CommandOutput:
    from .calibrate import adc_to_db, fit_curve

    points = load_cal_points(args.points_csv)
    curve, r2 = fit_curve(points)

    adc = [p.adc_value for p in points]
    spl = [p.spl_db for p in points]
    predicted = [adc_to_db(x, curve) for x in adc]
    residual = [s - p for s, p in zip(spl, predicted)]
    header = "adc_value,spl_db,predicted_db,residual_db\n"
    rows = _csv_blocks(header, adc, spl, predicted, residual)
    results = {
        "curve": asdict(curve),
        "r_squared": r2,
        "points": len(points),
    }
    inputs = {"points_csv": _input_entry(args.points_csv)}
    return inputs, results, "residuals.csv", rows


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
    rows = _csv_blocks(",".join(fields) + "\n", *columns)
    return inputs, results, "ranking.csv", rows


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
    if getattr(args, "profile", None) is not None:
        cfg = replace(cfg, node=replace(cfg.node, profile=builtin_profile(args.profile)))
    return replace(cfg, io=IoParams(args.out_dir)) if args.out_dir else cfg


def main(argv: Sequence[str] | None = None) -> int:
    # the parser is built on every call, so each subparser's ``run`` default
    # is the module's cmd_* function as bound at call time
    args = _build_parser().parse_args(argv)
    try:
        for flag in ("threshold_v", "mic_scale_v", "supply"):
            value = getattr(args, flag, None)
            if value is not None and not math.isfinite(value):
                raise ValueError(
                    f"--{flag.replace('_', '-')}: expected a finite number, got {value}"
                )
        threshold_v = getattr(args, "threshold_v", None)
        if threshold_v is not None and threshold_v <= 0:
            raise ValueError(f"--threshold-v: expected a positive number, got {threshold_v}")
        if args.out_dir == "":
            raise ValueError("--out-dir: expected a directory, got an empty string")
        # every Python warning raised while the command runs goes into its
        # report, not to stderr
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            cfg = _load_config(args)
            report = _finish(args.subcommand, cfg, *args.run(args, cfg), warned)
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


def run() -> NoReturn:
    """Run :func:`main` on ``sys.argv`` and exit the process with its status,
    skipping the shutdown collections of what the process loaded."""
    status = main()
    import gc

    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
