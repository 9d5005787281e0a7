"""Run a command as a child and write the child's own wall time and rusage.

Usage: python3 -I -S launch.py RESULT_FILE PROGRAM [ARG...]

Writes a JSON object with ``returncode``, ``wall_s``, ``maxrss_kb`` and
``cpu_s`` to RESULT_FILE. On Linux a child's ``ru_maxrss`` starts at the
resident size of the process that spawned it, so a job spawned straight from
the benchmark, which holds numpy and covbell, would report at least the
benchmark's own size. Spawned from this small process, it reports its own.
"""

import json
import os
import sys
import time


def main() -> int:
    result, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with open(result, "w") as fh:
        json.dump({"returncode": os.waitstatus_to_exitcode(status), "wall_s": wall,
                   "maxrss_kb": usage.ru_maxrss,
                   "cpu_s": usage.ru_utime + usage.ru_stime}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
