"""Start benchmark children from a small process of their own.

Linux carries a process's memory high-water mark across exec into the
ru_maxrss of the program it runs, so a child started directly from the
benchmark would report the benchmark's own peak memory whenever that is the
larger.  bench/run.py starts this script once, while it is still small, and
has it start every child.

Protocol: one JSON request per line on stdin,
    {"argv": [...], "out": path, "err": path, "timeout": seconds}
and one JSON reply per line on stdout,
    {"wall": s, "cpu": s, "maxrss_kib": n, "code": exit code}.
The child's stdout and stderr go to the two files; it is killed after
`timeout` seconds.  The script exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main():
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err)
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                          "maxrss_kib": usage.ru_maxrss, "code": proc.returncode}),
              flush=True)


if __name__ == "__main__":
    main()
