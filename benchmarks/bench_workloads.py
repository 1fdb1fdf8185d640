"""The benchmark's workloads: which CLI invocations make one pass, and how
each invocation's outputs are checked.

A check returns a list of problems; an empty list means the invocation's
outputs are correct. Every report and every stdout document must parse as
strict JSON (``NaN`` and ``Infinity`` are rejected).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import bench_fixtures as fx

DEFAULT_SEED = 1
# Coherence score `wakenode coherence` gives on the default seed's fixtures.
PINNED_SCORE = {DEFAULT_SEED: 0.9984312013813786}
SCORE_TOLERANCE = 1e-9
EXPECTED_DELAY = 2000  # fx.COHERENCE_DELAY_SAMPLES at the 8 kHz scoring rate
EXPECTED_BINS = 131_073  # fft length 2**18 -> 2**17 + 1 one-sided bins
DUTY_REL_TOLERANCE = 1e-12  # oracle sums the same intervals, perhaps in another order

# The built-in urban scenario: four 20 s sounds, each followed by 100 s of silence.
URBAN_SCENARIO_WAKE = [(120.0 * k, 120.0 * k + 20.0) for k in range(4)]
URBAN_SCENARIO_S = 480.0

Check = Callable[[Path, str], list[str]]


@dataclass(frozen=True)
class Invocation:
    label: str
    args: list[str]  # arguments after `wakenode --out-dir <dir>`
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    groups: tuple[str, ...]  # fixture groups it needs
    invocations: Callable[[Path, Path, int], list[Invocation]]  # (checkout, fixtures, seed)


class CheckError(Exception):
    pass


def _reject_constant(name: str) -> float:
    raise CheckError(f"non-standard JSON constant {name}")


def strict_json(text: str) -> object:
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"invalid JSON: {exc}") from exc


def _report(out: Path, name: str, stdout: str) -> dict:
    """The report's results, which stdout must repeat exactly."""
    results = strict_json((out / name).read_text())["results"]
    if strict_json(stdout) != results:
        raise CheckError("stdout does not match the report's results")
    return results


def _csv_rows(path: Path) -> list[str]:
    return path.read_text().splitlines()[1:]


def _guard(check: Check) -> Check:
    """Turn a missing file, key or malformed document into a reported problem."""

    def guarded(out: Path, stdout: str) -> list[str]:
        try:
            return check(out, stdout)
        except (CheckError, OSError, KeyError, TypeError, ValueError, IndexError) as exc:
            return [f"{type(exc).__name__}: {exc}"]

    return guarded


# ----------------------------------------------------------------------
# checks


def check_coherence(seed: int) -> Check:
    def check(out: Path, stdout: str) -> list[str]:
        res = _report(out, "coherence_report.json", stdout)
        problems = []
        if res["delay_samples"] != EXPECTED_DELAY:
            problems.append(f"delay_samples {res['delay_samples']} != {EXPECTED_DELAY}")
        if res["bins"] != EXPECTED_BINS:
            problems.append(f"bins {res['bins']} != {EXPECTED_BINS}")
        rows = len(_csv_rows(out / res["coherence_csv"]))
        if rows != EXPECTED_BINS:
            problems.append(f"coherence.csv has {rows} rows, expected {EXPECTED_BINS}")
        score = res["score"]
        if not (isinstance(score, float) and 0.0 <= score <= 1.0):
            problems.append(f"score {score!r} outside [0, 1]")
        elif seed in PINNED_SCORE and abs(score - PINNED_SCORE[seed]) > SCORE_TOLERANCE:
            problems.append(f"score {score!r} != pinned {PINNED_SCORE[seed]!r}")
        return problems

    return _guard(check)


def _check_trace(res: dict, out: Path, expect: dict) -> list[str]:
    problems = []
    if not math.isclose(res["duty_cycle"], expect["duty_cycle"], rel_tol=DUTY_REL_TOLERANCE):
        problems.append(f"duty_cycle {res['duty_cycle']!r} != oracle {expect['duty_cycle']!r}")
    rows = _csv_rows(out / res["trace_csv"])
    runs = sum(1 for row in rows if row.split(",")[2] == "transmit")
    if runs != expect["wake_runs"]:
        problems.append(f"{runs} wake runs != oracle {expect['wake_runs']}")
    if len(rows) != expect["trace_rows"]:
        problems.append(f"{len(rows)} trace rows != oracle {expect['trace_rows']}")
    return problems


def check_simulate_wav(oracle_path: Path) -> Check:
    def check(out: Path, stdout: str) -> list[str]:
        res = _report(out, "simulate_report.json", stdout)
        return _check_trace(res, out, json.loads(oracle_path.read_text()))

    return _guard(check)


def check_simulate_urban(golden: Path) -> Check:
    savings = dict(line.split(",") for line in golden.read_text().splitlines()[1:])

    def check(out: Path, stdout: str) -> list[str]:
        res = _report(out, "simulate_report.json", stdout)
        expect = fx.timeline_summary(URBAN_SCENARIO_WAKE, URBAN_SCENARIO_S)
        problems = _check_trace(res, out, expect)
        got = f"{round(res['savings_percent'], 1):.1f}"
        if got != savings[res["profile"]]:
            problems.append(f"savings_percent {got} != golden {savings[res['profile']]}")
        return problems

    return _guard(check)


def check_rank_mics(golden: Path) -> Check:
    def check(out: Path, stdout: str) -> list[str]:
        res = _report(out, "rank_mics_report.json", stdout)
        got = (out / res["ranking_csv"]).read_text().splitlines()
        want = golden.read_text().splitlines()
        return [] if got == want else [f"ranking.csv {got!r} != golden {want!r}"]

    return _guard(check)


def check_calibrate(out: Path, stdout: str) -> list[str]:
    res = _report(out, "calibrate_report.json", stdout)
    problems = []
    if res["points"] != fx.CAL_POINTS:
        problems.append(f"points {res['points']} != {fx.CAL_POINTS}")
    if not (0.95 <= res["r_squared"] <= 1.0):
        problems.append(f"r_squared {res['r_squared']!r} outside [0.95, 1]")
    residuals = [float(row.split(",")[3]) for row in _csv_rows(out / res["residuals_csv"])]
    rms = math.sqrt(sum(r * r for r in residuals) / len(residuals))
    if len(residuals) != fx.CAL_POINTS or not rms <= 3 * fx.CAL_NOISE_DB:
        problems.append(f"{len(residuals)} residuals with rms {rms!r} dB")
    return problems


# ----------------------------------------------------------------------
# workloads


def _coherence(root: Path, fixtures: Path, seed: int) -> list[Invocation]:
    args = ["coherence", str(fixtures / "source_44k.wav"), str(fixtures / "recording_44k.wav")]
    return [Invocation("coherence", args, check_coherence(seed))]


def _simulate_urban_wav(root: Path, fixtures: Path, seed: int) -> list[Invocation]:
    args = ["simulate", "--wav", str(fixtures / "urban_16k.wav")]
    return [Invocation("simulate-wav", args, check_simulate_wav(fixtures / "urban_oracle.json"))]


def _simulate_clicks_wav(root: Path, fixtures: Path, seed: int) -> list[Invocation]:
    args = ["--config", str(fixtures / "clicks_tau90ms.yaml"),
            "simulate", "--wav", str(fixtures / "clicks_16k.wav")]
    return [Invocation("simulate-wav", args, check_simulate_wav(fixtures / "clicks_oracle.json"))]


def _light_commands(root: Path, fixtures: Path, seed: int) -> list[Invocation]:
    golden = root / "tests" / "golden"
    mics = root / "src" / "wakenode" / "data" / "microphones.csv"
    return [
        Invocation("rank-mics", ["rank-mics", str(mics), "--analog", "--supply", "3.3"],
                   check_rank_mics(golden / "ranking_analog_3v3.csv")),
        Invocation("simulate-scenario", ["simulate", "--scenario", "urban"],
                   check_simulate_urban(golden / "savings_percent.csv")),
        Invocation("calibrate", ["calibrate", str(fixtures / "cal_points.csv")],
                   _guard(check_calibrate)),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("coherence-44k",
                 "only workload through signals and coherence: 44.1 kHz resampling, Welch MSC "
                 "and a 131073-row CSV", ("coherence",), _coherence),
        Workload("simulate-urban-wav",
                 "480 s at 16 kHz through the per-sample analog chain with a handful of wake runs",
                 ("urban",), _simulate_urban_wav),
        Workload("simulate-clicks-wav",
                 "same chain with ~13k wake runs (tau 90 ms via --config): per-edge cost in "
                 "powersim and the trace writer", ("clicks",), _simulate_clicks_wav),
        Workload("light-commands",
                 "rank-mics, simulate --scenario and calibrate: almost all interpreter and "
                 "import start-up", ("calibration",), _light_commands),
    )
}
