"""Run one ``nucleus`` command and report its own peak RSS and time.

    python -I -S tests/peak_rss.py [--under MB --because TEXT] ARG ...

runs ``python -m nucleus ARG ...`` with this interpreter, in this
environment (so ``PYTHONPATH`` reaches it) and with this process's stdin
and stdout, then prints one line to stderr:

    nucleus ARG ...: exit 0, 1.85 s, peak RSS 18.4 MB (18841 KB)

It exits with the command's status.  With ``--under MB`` it also exits 1
when the command peaked at MB or above, and says why with ``--because``.

The command is forked from this small launcher, which imports nothing
beyond ``os``, ``sys`` and ``time``, and ``os.wait4`` reads the child's
own ``ru_maxrss``.  A child forked from a larger process, such as a test
runner or a ``subprocess`` call, counts the memory it inherited at the
fork as its own; ``-I -S`` keeps this launcher's below the command's.
``ru_maxrss`` is in KB on Linux.
"""

import os
import sys
import time


def main(argv: list[str]) -> int:
    under, because = None, "it must stay under the bound"
    while argv[:1] in (["--under"], ["--because"]):
        if argv[0] == "--under":
            under = float(argv[1])
        else:
            because = argv[1]
        argv = argv[2:]
    if not argv:
        print("usage: python -I -S tests/peak_rss.py [--under MB --because TEXT] ARG ...", file=sys.stderr)
        return 2
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        os.execv(sys.executable, [sys.executable, "-m", "nucleus", *argv])
    _, status, usage = os.wait4(pid, 0)
    seconds, code = time.perf_counter() - start, os.waitstatus_to_exitcode(status)
    label, peak_mb = " ".join(["nucleus", *argv]), usage.ru_maxrss / 1024
    print(f"{label}: exit {code}, {seconds:.2f} s, peak RSS {peak_mb:.1f} MB ({usage.ru_maxrss} KB)",
          file=sys.stderr)
    if code == 0 and under is not None and peak_mb >= under:
        print(f"{label} peaked at {peak_mb:.1f} MB, not under {under:g} MB; {because}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
