"""Sample the speed of one CPU while the measured commands run on it.

The host this benchmark was built on runs a CPU at two speeds about
1.8x apart; which one it is in changes within a second, and the share
of time it spends slow drifts over minutes.  A command's wall time
follows that share.  This process is pinned to the CPU the commands
are pinned to.  Every INTERVAL seconds it wakes, runs a short fixed
loop and records when it ran and how long the loop took, so the
benchmark can tell how fast the CPU was during each command.  Sharing
the CPU costs the commands about SPIN_SECONDS / INTERVAL of its time.

Usage: ``python3 -I -S probe.py CPU OUT``.  It prints ``ready`` once it
is pinned, samples until its stdin reaches end of file, then writes
``start seconds`` per sample to OUT and exits.
"""

import os
import select
import sys
import time

ITERATIONS = 2000  # about 0.5 ms of loop at 4 M iterations per second
INTERVAL = 0.02


def main() -> None:
    cpu, out = int(sys.argv[1]), sys.argv[2]
    os.sched_setaffinity(0, {cpu})
    print("ready", flush=True)
    samples = []
    while True:
        start = time.perf_counter()
        total = 0
        for i in range(ITERATIONS):
            total += i * i
        samples.append((start, time.perf_counter() - start))
        if select.select([sys.stdin], [], [], INTERVAL)[0]:
            break
    with open(out, "w", encoding="ascii") as handle:
        handle.writelines(f"{start!r} {seconds!r}\n" for start, seconds in samples)


if __name__ == "__main__":
    main()
