"""Start the measured commands from a small process.

On Linux a child's ``ru_maxrss`` includes the high-water mark of the
memory it was started from: after ``vfork``, that of the starting
process itself.  The benchmark grows (output buffers, SymPy, in-process
runs), so it starts every measured command through this process, which
stays small; each command's peak RSS is then its own.

Protocol: one JSON object per line on stdin,

    {"argv": [...], "cwd": "...", "env": {...}, "stdout": "path", "stderr": "path", "cpu": n}

and one per line on stdout,

    {"start": ..., "end": ..., "exit": ..., "maxrss_kb": ...}

The process forks; the child pins itself to CPU ``cpu``, points stdin
at /dev/null and stdout and stderr at the named files, then execs
``argv``.  ``start`` is ``time.perf_counter()`` just before the fork and
``end`` is the same clock when ``wait4`` returns.  The process exits at the
end of its input.  Run it with ``python3 -I -S`` to keep it small.
"""

import json
import os
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        start = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            try:
                os.sched_setaffinity(0, {request["cpu"]})
                os.chdir(request["cwd"])
                for fd, path, flags in ((0, os.devnull, os.O_RDONLY),
                                        (1, request["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC),
                                        (2, request["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC)):
                    target = os.open(path, flags, 0o644)
                    os.dup2(target, fd)
                    os.close(target)
                os.execve(request["argv"][0], request["argv"], request["env"])
            finally:
                os._exit(127)
        _, status, usage = os.wait4(pid, 0)
        end = time.perf_counter()
        reply = {"start": start, "end": end, "exit": os.waitstatus_to_exitcode(status), "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
