"""Run one command to its exit; print its wall time and resource use as JSON.

    python perfbench/launch.py TIMEOUT_S LOG ARGV...

The benchmark starts every job through this small process rather than
directly.  Linux reports a child's peak RSS as at least the peak of the
address space it was started from, and the benchmark's own process holds
inputs and references of up to ~130 MB; this launcher stays near 10 MB, so
the job's reported peak is its own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def main(argv: list[str]) -> int:
    timeout_s, log_path, command = float(argv[0]), argv[1], argv[2:]
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(timeout_s, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall_s, "cpu_s": usage.ru_utime + usage.ru_stime,
                      "rss_mb": usage.ru_maxrss / 1024.0, "returncode": proc.returncode}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
