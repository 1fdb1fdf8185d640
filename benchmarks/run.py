"""Benchmark of the wakenode CLI.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload coherence-44k --seed 1 --seconds 28 --trace 0

With ``--trace 0`` it drives the CLI as subprocesses, one at a time (a
closed loop with one client), and reports the end-to-end metrics. With
``--trace 1`` it calls ``wakenode.cli.main`` in-process, alternating
untraced and traced passes, and reports per-layer self times and counts
plus the start-up breakdown from ``python -X importtime``. Either way the
last line of stdout is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Progress and failures go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import bench_fixtures as fx
import bench_trace as bt
from bench_workloads import DEFAULT_SEED, WORKLOADS, Invocation

CHILD_TIMEOUT_S = 120.0
SETUP_SAMPLES = 3  # timed fresh imports per run
STARTUP_SAMPLES = 3
IMPORT_CLI = "import wakenode.cli"
REF_LOOP = 500_000
REF_FFTS = 3
REF_SIGNAL = np.random.default_rng(0).normal(size=1 << 20)
COUNT_MODULES = (
    "import json, sys\n"
    "import wakenode.cli\n"
    "print(json.dumps([len(sys.modules), "
    "sum(1 for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))]))"
)


@dataclass
class Child:
    """Outcome of one subprocess: wall time, per-child rusage and output."""

    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


class Launcher:
    """Runs children through ``bench_launch.py``, which takes each one's
    rusage from ``os.wait4`` on its pid alone (see that file for why)."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONPATH", "WAKENODE_CONFIG")}
        self.env["PYTHONPATH"] = str(root / "src")
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("bench_launch.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], log: Path) -> Child:
        log.mkdir(parents=True, exist_ok=True)
        request = {"argv": argv, "env": self.env, "cwd": str(self.root),
                   "stdout": str(log / "stdout"), "stderr": str(log / "stderr"),
                   "timeout_s": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit("run.py: the child launcher exited")
        result = json.loads(line)
        return Child(result["returncode"], result["wall_s"], result["cpu_s"],
                     result["maxrss_kb"] / 1024.0,
                     (log / "stdout").read_text(), (log / "stderr").read_text())

    def __enter__(self) -> Launcher:
        return self

    def __exit__(self, *exc: object) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def checkout_root() -> Path:
    root = Path.cwd()
    needed = [root / "src" / "wakenode" / "cli.py", root / "tests" / "golden"]
    missing = [str(p.relative_to(root)) for p in needed if not p.exists()]
    if missing:
        raise SystemExit(f"run.py: not a wakenode checkout (missing {', '.join(missing)}); "
                         "run it from the repository root")
    return root


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def report(correct: bool, attempted: int, failed: int,
           metrics: dict[str, tuple[float, str]]) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def reference() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed mix of interpreter-loop and numpy work.

    The host's speed drifts by up to 40% over minutes, for wall and CPU time
    alike. The end-to-end times are divided by the median of this reference,
    timed before the first pass and after every pass of the same run, which
    cancels that drift. The reference runs no wakenode code.
    """
    wall, cpu = time.perf_counter(), time.process_time()
    level = 0.0
    for x in range(REF_LOOP):
        level = max(x * 1e-6, level * 0.9999)
    for _ in range(REF_FFTS):
        np.fft.rfft(REF_SIGNAL)
        np.convolve(REF_SIGNAL[: 1 << 17], REF_SIGNAL[:64])
    return time.perf_counter() - wall, time.process_time() - cpu


def overruns(start: float, pass_start: float, seconds: float) -> bool:
    """Whether one more pass as long as the last would end after ``seconds``."""
    now = time.perf_counter()
    return (now - start) + (now - pass_start) > seconds


def note(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# end-to-end: CLI subprocesses


def setup_times(launcher: Launcher, work: Path) -> tuple[list[float], int]:
    """Wall times of fresh `import wakenode.cli` processes, and how many failed."""
    times, failed = [], 0
    for _ in range(SETUP_SAMPLES):
        child = launcher.run([sys.executable, "-c", IMPORT_CLI], work / "setup")
        if child.returncode != 0:
            failed += 1
            note(f"setup import failed: {child.stderr.strip()}")
        else:
            times.append(child.wall_s)
    return times, failed


def end_to_end(launcher: Launcher, invocations: list[Invocation], seconds: float,
               work: Path) -> None:
    setup, setup_failed = setup_times(launcher, work)
    if not setup:
        raise SystemExit("run.py: `import wakenode.cli` fails in this checkout")
    walls, cpus, rsss = [], [], []
    refs = [reference()]
    attempted = failed = 0
    start = time.perf_counter()
    while not walls or not overruns(start, pass_start, seconds):
        pass_start = time.perf_counter()
        children = []
        for inv in invocations:
            out = fresh_dir(work / inv.label)
            argv = [sys.executable, "-m", "wakenode.cli", "--out-dir", str(out), *inv.args]
            child = launcher.run(argv, work / "logs" / inv.label)
            problems = (inv.check(out, child.stdout) if child.returncode == 0
                        else [f"exit {child.returncode}: {child.stderr.strip()}"])
            attempted += 1
            if problems:
                failed += 1
                note(f"{inv.label}: " + "; ".join(problems))
            children.append(child)
        refs.append(reference())
        walls.append(sum(c.wall_s for c in children))
        cpus.append(sum(c.cpu_s for c in children))
        rsss.append(max(c.maxrss_mb for c in children))
    ref_wall, ref_cpu = median([r[0] for r in refs]), median([r[1] for r in refs])
    note(f"{len(walls)} passes of {len(invocations)} invocations; run_s "
         + " ".join(f"{w:.3f}" for w in walls) + "; reference "
         + " ".join(f"{r[0]:.3f}" for r in refs) + "; setup_s "
         + " ".join(f"{s:.3f}" for s in setup))
    report(failed == 0 and setup_failed == 0, attempted, failed, {
        "run_rel": (median(walls) / ref_wall, "x"),
        "cpu_rel": (median(cpus) / ref_cpu, "x"),
        "peak_rss_mb": (median(rsss), "MiB"),
        "setup_s": (median(setup), "s"),
        "success_share": ((attempted - failed) / attempted, "ratio"),
    })


# ----------------------------------------------------------------------
# traced: in-process main() with per-layer spans


def startup_breakdown(launcher: Launcher, work: Path) -> tuple[dict[str, float], bool]:
    samples, counts = [], set()
    for _ in range(STARTUP_SAMPLES):
        child = launcher.run([sys.executable, "-X", "importtime", "-c", COUNT_MODULES],
                             work / "startup")
        if child.returncode != 0:
            note(f"start-up probe failed: {child.stderr.strip()[-500:]}")
            return {}, False
        samples.append(bt.parse_importtime(child.stderr))
        counts.add(tuple(json.loads(child.stdout)))
    if len(counts) != 1:
        note(f"module counts differ between fresh imports: {sorted(counts)}")
        return {}, False
    metrics = {name: median([s[name] for s in samples]) for name in bt.STARTUP_METRICS}
    metrics["startup.modules_loaded"], metrics["startup.scipy_modules_loaded"] = counts.pop()
    return metrics, True


def import_checkout(root: Path):
    sys.path.insert(0, str(root / "src"))
    import wakenode.cli as cli

    if Path(cli.__file__).resolve().parent != (root / "src" / "wakenode").resolve():
        raise SystemExit(f"run.py: imported wakenode from {cli.__file__}, not from this checkout")
    return cli


def in_process_pass(cli, invocations: list[Invocation],
                    work: Path) -> tuple[float, list[list[str]]]:
    """Run every invocation through ``cli.main``; total time and each one's problems."""
    elapsed, problems = 0.0, []
    for inv in invocations:
        out = fresh_dir(work / inv.label)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            code = cli.main(["--out-dir", str(out), *inv.args])
            elapsed += time.perf_counter() - start
        problems.append(inv.check(out, stdout.getvalue()) if code == 0
                        else [f"exit {code}: {stderr.getvalue().strip()}"])
    return elapsed, problems


def output_sizes(invocations: list[Invocation], work: Path) -> tuple[int, int]:
    """CSV data rows and report bytes written by the last pass."""
    rows = size = 0
    for inv in invocations:
        for path in (work / inv.label).iterdir():
            if path.suffix == ".csv":
                rows += len(path.read_text().splitlines()) - 1
            elif path.name.endswith("_report.json"):
                size += path.stat().st_size
    return rows, size


def traced(launcher: Launcher, root: Path, workload: str, seed: int,
           invocations: list[Invocation], seconds: float, work: Path) -> None:
    startup, startup_ok = startup_breakdown(launcher, work)
    cli = import_checkout(root)
    in_process_pass(cli, invocations, work)  # warm-up: first-call costs are not layer time

    passes, overheads, all_spans = [], [], []
    attempted = failed = 0
    accounted = True
    start = time.perf_counter()
    while not passes or not overruns(start, pass_start, seconds):
        pass_start = time.perf_counter()
        tracer = bt.Tracer(workload)
        timings = {}
        # alternate which side runs first so drift does not bias the overhead
        for side in (("plain", "traced") if len(passes) % 2 == 0 else ("traced", "plain")):
            if side == "plain":
                timings[side], problems = in_process_pass(cli, invocations, work)
            else:
                with bt.patched(tracer):
                    timings[side], problems = in_process_pass(cli, invocations, work)
            attempted += len(problems)
            for inv, found in zip(invocations, problems):
                if found:
                    failed += 1
                    note(f"{side} {inv.label}: " + "; ".join(found))
        layers = bt.layer_metrics(tracer.spans)
        layers["cli.csv_rows"], layers["cli.report_bytes"] = output_sizes(invocations, work)
        overhead = timings["traced"] - timings["plain"]
        if abs(bt.unaccounted_s(layers)) > max(abs(overhead), 1e-6):
            accounted = False
            note(f"self times miss {bt.unaccounted_s(layers)!r} s of cli.main")
        passes.append(layers)
        overheads.append(overhead)
        all_spans.extend(tracer.spans)

    counts = [*bt.COUNTS.values(), "cli.csv_rows", "cli.report_bytes"]
    repeat = all(p[name] == passes[0][name] for p in passes for name in counts)
    if not repeat:
        note("counts differ between traced passes")
    bt.write_spans(all_spans, root / ".bench_cache" / "traces" / f"{workload}-seed{seed}.jsonl")

    metrics: dict[str, tuple[float, str]] = {}
    for name, value in startup.items():
        metrics[name] = (value, "count" if name.endswith("_loaded") else "s")
    for name in [*bt.SELF_METRICS, "cli.main_s"]:
        metrics[name] = (median([p[name] for p in passes]), "s")
    for name in counts:
        metrics[name] = (passes[0][name], "count" if name != "cli.report_bytes" else "bytes")
    metrics["trace.overhead_s"] = (median(overheads), "s")
    note(f"{len(passes)} traced/untraced pass pairs; spans in .bench_cache/traces/")
    report(failed == 0 and startup_ok and accounted and repeat, attempted, failed, metrics)


def main() -> int:
    parser = argparse.ArgumentParser(description="wakenode CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS),
                        help="; ".join(f"{w.name}: {w.why}" for w in WORKLOADS.values()))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = checkout_root()
    workload = WORKLOADS[args.workload]
    cache = root / ".bench_cache"
    fixtures = fx.ensure(cache / "fixtures", args.seed, workload.groups)
    invocations = workload.invocations(root, fixtures, args.seed)
    work = fresh_dir(cache / "work" / workload.name)
    with Launcher(root) as launcher:
        if args.trace:
            traced(launcher, root, workload.name, args.seed, invocations, args.seconds, work)
        else:
            end_to_end(launcher, invocations, args.seconds, work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
