"""Starts engine children one at a time on behalf of run.py.

A child's maximum RSS as reported by wait4 includes the memory of the
process it was forked from, because the kernel keeps the pre-exec high-water
mark.  This launcher stays small, so the reported RSS is the child's own.

Protocol: one JSON request per stdin line,
    {"argv": [...], "cwd": ..., "env": {...}, "stdout": path, "stderr": path, "timeout": s}
answered by one JSON line {"rc": int, "wall": s, "maxrss_kb": int}.
The launcher exits when stdin closes.
"""

import json
import os
import signal
import sys
import time


def main():
    child = [None]

    def expire(_signum, _frame):
        if child[0] is not None:
            os.kill(child[0], signal.SIGKILL)

    signal.signal(signal.SIGALRM, expire)
    for line in sys.stdin:
        req = json.loads(line)
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, req["stdout"], flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, req["stderr"], flags, 0o644),
        ]
        os.chdir(req["cwd"])
        t0 = time.perf_counter()
        child[0] = os.posix_spawn(req["argv"][0], req["argv"], req["env"], file_actions=actions)
        signal.alarm(int(req["timeout"]))
        _, status, usage = os.wait4(child[0], 0)
        wall = time.perf_counter() - t0
        child[0] = None
        signal.alarm(0)
        sys.stdout.write(json.dumps({"rc": os.waitstatus_to_exitcode(status), "wall": wall, "maxrss_kb": usage.ru_maxrss}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
