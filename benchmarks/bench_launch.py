"""Child launcher: runs the benchmark's subprocesses and reports their rusage.

A process's ``ru_maxrss`` includes the high-water RSS of the address space
it was forked from. Spawned straight from the benchmark, which holds numpy,
scipy and the fixtures, every small child would report the benchmark's own
peak. This launcher stays small (stdlib only) and forks every child itself.

Protocol: one JSON request per stdin line,
``{"argv", "env", "cwd", "stdout", "stderr", "timeout_s"}``, answered by
one JSON line ``{"returncode", "wall_s", "cpu_s", "maxrss_kb"}``. It exits
at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err,
                                env=request["env"], cwd=request["cwd"])
        watchdog = threading.Timer(request["timeout_s"], proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "returncode": proc.returncode,
        "wall_s": wall_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,  # Linux reports KiB
    }


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
