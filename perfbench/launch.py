"""Run one command and report its resource use.

    python3 perfbench/launch.py STDOUT_FILE STDERR_FILE COMMAND...

Linux credits a spawned child with the peak RSS of the process that spawned
it (exec records the old address space's high-water mark), so a measured
command started straight from the benchmark, whose own RSS grows as it reads
traces, would report the benchmark's peak. The benchmark starts each command
through this small process instead. It prints one JSON line: the command's
exit code, its wall time from spawn to reap, and the CPU time and peak RSS
of its whole tree from ``os.wait4``.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    out_path, err_path, *command = sys.argv[1:]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(command, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "returncode": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
