"""Start one process and report its exit code, wall time and max-RSS.

    python3 -S spawn.py STDOUT_PATH ARG...

Runs ARG... with its stdout sent to STDOUT_PATH, waits for it, and prints
``CODE STARTED WALL_S MAXRSS_KB`` (STARTED on the monotonic clock).

Linux carries the RSS of the process that forks into the child's max-RSS
across exec.  Starting every operation from this small interpreter (with
-S it loads no site packages) keeps that floor near 8 MB, below any tworow
process, where starting it from the benchmark would put it at the
benchmark's own RSS.  SIGTERM is passed on to the child.
"""

import os
import signal
import sys
import time


def main() -> None:
    out_path, argv = sys.argv[1], sys.argv[2:]
    fd = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    started = time.monotonic()
    pid = os.fork()
    if pid == 0:
        try:
            os.dup2(fd, 1)
            os.execvp(argv[0], argv)
        except OSError as exc:
            print(f"spawn.py: {argv[0]}: {exc}", file=sys.stderr)
        os._exit(127)
    os.close(fd)
    signal.signal(signal.SIGTERM, lambda signum, frame: os.kill(pid, signum))
    _, status, usage = os.wait4(pid, 0)
    wall = time.monotonic() - started
    print(os.waitstatus_to_exitcode(status), started, wall, usage.ru_maxrss)


if __name__ == "__main__":
    main()
