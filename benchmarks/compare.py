"""Compare two sets of benchmark results for one workload.

Each argument is a directory of result files: the saved stdout of
``benchmarks/run.py`` runs (only the last line of each file is read), one
run per seed, all for the same workload and ``--trace`` setting::

    python3 benchmarks/compare.py results/base/coherence-44k results/head/coherence-44k

For every metric it prints each side's median and quartile spread (IQR as
a share of the median) and the head's change against the base. For
metrics with a bound in ``BENCHMARK.json`` it reports ``regressed`` when
the head's median is worse than the base's by more than the bound,
``unresolved`` when either side's spread exceeds the bound, and ``ok``
otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def load(directory: Path) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for path in sorted(directory.glob("*.json")):
        lines = path.read_text().strip().splitlines()
        if not lines:
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"warning: {path} reports incorrect output", file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    m = statistics.median(values)
    return (q3 - q1) / m if m else float("nan")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = (load(Path(a)) for a in argv)
    spec = json.loads(BENCHMARK.read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"{'metric':36s} {'base':>12s} {'head':>12s} {'change':>8s} "
          f"{'spread b/h':>13s}  verdict")
    for name in sorted(set(base) & set(head)):
        b, h = statistics.median(base[name]), statistics.median(head[name])
        change = (h - b) / b if b else float("nan")
        meta = declared.get(name, {})
        verdict = ""
        if "bound" in meta:
            worse = change if meta["better"] == "lower" else -change
            if max(spread(base[name]), spread(head[name])) > meta["bound"]:
                verdict = "unresolved"
            else:
                verdict = "regressed" if worse > meta["bound"] else "ok"
        print(f"{name:36s} {b:12.6g} {h:12.6g} {change:+8.1%} "
              f"{spread(base[name]):6.3f}/{spread(head[name]):6.3f}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
