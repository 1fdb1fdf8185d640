"""Per-child resource accounting through the launcher."""

import sys

import numpy as np

import run


def test_child_peak_rss_excludes_the_benchmark_process(tmp_path):
    ballast = np.ones(300 * 2**20 // 8)  # raise this process's high-water RSS to 300 MiB
    with run.Launcher(tmp_path) as launcher:
        child = launcher.run(
            [sys.executable, "-c", "x = bytearray(b'1') * (40 * 2**20); print('ok')"],
            tmp_path / "log",
        )
    assert ballast.sum() > 0
    assert child.returncode == 0 and child.stdout.strip() == "ok"
    assert 40 <= child.maxrss_mb < 150
    assert child.cpu_s > 0 and child.wall_s > 0
    assert launcher.proc.returncode == 0


def test_failing_child_reports_its_exit_code(tmp_path):
    with run.Launcher(tmp_path) as launcher:
        child = launcher.run([sys.executable, "-c", "import sys; sys.exit(3)"], tmp_path / "log")
    assert child.returncode == 3
