"""Run one command and report its wall time, stderr lines and peak RSS as JSON.

Usage: ``python3 launch.py TIMEOUT_S CMD [ARG...]``. The command's stdout
is discarded; each stderr line is timestamped as it arrives, in seconds
from just before the spawn. The command is killed after TIMEOUT_S seconds.
The result goes to this process's stdout.

The benchmark starts commands through this small process because a child's
peak RSS (``ru_maxrss``) also counts the memory of the process that forked
it: spawned straight from the benchmark, which holds the inputs and a
reference selection, the child would report the benchmark's size.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def main(timeout_s: float, cmd: list[str]) -> int:
    lines = []
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    killer = threading.Timer(timeout_s, proc.kill)
    killer.start()
    try:
        for line in proc.stderr:
            lines.append((time.perf_counter() - t0, line.decode("utf-8", "replace")))
    finally:
        killer.cancel()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - t0
    json.dump({"code": proc.returncode, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
               "lines": lines}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(float(sys.argv[1]), sys.argv[2:]))
