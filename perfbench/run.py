#!/usr/bin/env python3
"""Benchmark of the nucleus command-line program.

Run it from the root of a nucleus source checkout:

    python3 perfbench/run.py --workload verify-exact --seed 1 --seconds 10 --trace 0

``--trace 0`` drives ``python -m nucleus`` (with ``PYTHONPATH=src``) from
outside, one child process at a time, pinned to one CPU, and reports
the end-to-end metrics of BENCHMARK.json.  Their times are scaled by
the speed of that CPU as probe.py samples it (README.md, Noise).  ``--trace 1`` runs one untraced pass of the
same commands, then calls the package in-process with spans around the
public functions of each layer, and reports the per-layer metrics.

Every command's exit code and the sha256 of its stdout are checked
against ``expected.json``; so is the cache file after each write.  The
``p`` column of the table output is also spot-checked against SymPy at
rows the seed picks.  The seed further picks the order of the commands
within each pass.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is 1 when any check failed and 2 on a usage error or a missing source
tree.  Everything the run writes goes under ``.bench_build/perfbench``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

sys.dont_write_bytecode = True  # the benchmark writes nothing outside .bench_build

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from probe import ITERATIONS as PROBE_ITERATIONS  # noqa: E402
from tracing import Tracer, instrument, summarize  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("verify-exact", "verify-enum", "congruence-scan", "cache-resume")
WORK_UNITS = {
    "verify-exact": "identity checks",
    "verify-enum": "partitions enumerated",
    "congruence-scan": "residues computed",
    "cache-resume": "cache rows written and read",
}
# Sizes of the workloads; "tiny" is for the smoke test.
SIZES = {
    "full": {"exact": 2000, "exact_enum": 20, "enum": 55, "scan": 10000, "cache": (10000, 20000)},
    "tiny": {"exact": 60, "exact_enum": 10, "enum": 12, "scan": 50, "cache": (100, 200)},
}
RAMANUJAN = {5: (5, 4), 7: (7, 5), 11: (11, 6)}
ENUM_IDENTITIES = ("gap_sum", "nuclear_count", "ground_state_count")
IDENTITIES = ("nu_chain", "gamma_chain", "gamma_weights", "n_nu_minus_gamma", "bounded_sum",
              "k_nuclear", "gap_sum", "nuclear_count", "ground_state_count",
              "bounded_sum_truncated", "k_nuclear_shifted")
CACHE_FILE = "nucleus.csv"
MIN_PASSES = 3
VERSION_RUNS_PER_PASS = 3
SPOT_CHECK_ROWS = 5
ENUM_RATE_REPEATS = 3
# Speed of probe.py's loop, in iterations per second, that the end-to-end
# times are scaled to.  It is about the median speed of that loop on the
# reference machine while a command shares its CPU (README.md, Noise), so
# the scaled times read as seconds there.
REFERENCE_RATE = 1e7


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

def commands(workload: str, size: dict) -> list[tuple[str, ...]]:
    """The CLI argument lists of one pass, in their canonical order."""
    if workload == "verify-exact":
        return [("verify", "--limit", str(size["exact"]), "--enum-limit", str(size["exact_enum"]),
                 "--format", "json")]
    if workload == "verify-enum":
        limit = str(size["enum"])
        return [("verify", "--limit", limit, "--enum-limit", limit,
                 "--identities", ",".join(ENUM_IDENTITIES), "--format", "json")]
    if workload == "congruence-scan":
        return [("congruence", "ramanujan", str(m), "--limit", str(size["scan"]), "--format", "json")
                for m in RAMANUJAN]
    first, second = size["cache"]
    cache = ("--cache", CACHE_FILE)
    return [("cache", "build", "--limit", str(first), *cache),
            ("cache", "build", "--limit", str(second), *cache),
            ("cache", "check", *cache),
            ("table", "--limit", str(second), "--format", "csv", *cache),
            ("ratios", "--limit", str(second), "--format", "csv", *cache)]


def shuffled(workload: str, argvs: list, rng: random.Random) -> list:
    """Seeded order of one pass; the two cache builds must stay first."""
    fixed = 2 if workload == "cache-resume" else 0
    rest = argvs[fixed:]
    rng.shuffle(rest)
    return argvs[:fixed] + rest


def partition_count(n: int) -> int:
    """p(n) by the coin dynamic program, independent of the package."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def work_units(workload: str, size: dict, outputs: dict) -> int:
    """Units of work in one pass (see WORK_UNITS)."""
    if workload == "verify-exact":
        (stdout,) = outputs.values()
        try:
            return sum(item["checked"] for item in json.loads(stdout)["identities"])
        except (ValueError, KeyError, TypeError):
            return 0
    if workload == "verify-enum":
        # The nuclear partitions of every n <= E number p(E); each of the three
        # identities enumerates them, except that gap_sum skips n = 0 and 1.
        return 3 * partition_count(size["enum"]) - 1
    if workload == "congruence-scan":
        return sum(a * size["scan"] + b + 1 for a, b in RAMANUJAN.values())
    first, second = size["cache"]
    # build writes first+1 rows; the resume reads them and writes second+1;
    # check, table and ratios each read second+1.
    return 2 * (first + 1) + 4 * (second + 1)


# --------------------------------------------------------------------------
# correctness gate
# --------------------------------------------------------------------------

def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Ledger:
    """Checks attempted and failed in this run, with what went wrong."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def check_command(argv, code: int, stdout: bytes, cwd: Path, expected: dict) -> list[str]:
    key = " ".join(argv)
    want = expected.get(key)
    if want is None:
        return [f"{key}: no expected result recorded"]
    problems = []
    if code != want["exit"]:
        problems.append(f"{key}: exit code {code}, expected {want['exit']}")
    if sha256(stdout) != want["stdout_sha256"]:
        problems.append(f"{key}: stdout sha256 {sha256(stdout)} differs from the expected one")
    if "cache_sha256" in want:
        cache = cwd / CACHE_FILE
        digest = sha256(cache.read_bytes()) if cache.is_file() else "missing"
        if digest != want["cache_sha256"]:
            problems.append(f"{key}: cache file sha256 {digest} differs from the expected one")
    return problems


def spot_check(table_csv: bytes, rows: list[int]) -> tuple[str, list[str]]:
    """Compare the p column at ``rows`` with SymPy's partition function."""
    try:
        from sympy.functions.combinatorial.numbers import partition
    except ImportError:
        return "skipped (sympy is not importable)", []
    values = {}
    for line in table_csv.decode("ascii", "replace").splitlines()[1:]:
        fields = line.split(",")
        if len(fields) == 4 and fields[0].isdigit() and int(fields[0]) in rows:
            values[int(fields[0])] = fields[3]
    problems = [f"table row n={n}: p = {values.get(n)}, sympy gives {partition(n)}"
                for n in rows if values.get(n) != str(partition(n))]
    return ("fail" if problems else "pass"), problems


# --------------------------------------------------------------------------
# child processes
# --------------------------------------------------------------------------

@dataclass
class Child:
    start: float
    end: float
    exit: int
    stdout: bytes
    maxrss_kb: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Launcher:
    """Runs ``python -m nucleus`` commands one at a time through spawn.py.

    The children get ``PYTHONPATH=src`` and no ``NUCLEUS_CACHE``, and are
    pinned to one CPU, the one SpeedProbe samples.  Their stdout and
    stderr go to files under WORK; only stdout is checked.
    """

    def __init__(self):
        self.cpu = min(os.sched_getaffinity(0))
        self.env = {key: value for key, value in os.environ.items() if key != "NUCLEUS_CACHE"}
        self.env["PYTHONPATH"] = str(SRC)
        self.stdout = WORK / "child.stdout"
        self.stderr = WORK / "child.stderr"
        self.proc = subprocess.Popen([sys.executable, "-I", "-S", str(HERE / "spawn.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, cwd: Path) -> Child:
        request = {"argv": [sys.executable, "-m", "nucleus", *argv], "cwd": str(cwd), "env": self.env,
                   "stdout": str(self.stdout), "stderr": str(self.stderr), "cpu": self.cpu}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("spawn.py ended unexpectedly")
        reply = json.loads(line)
        return Child(reply["start"], reply["end"], reply["exit"], self.stdout.read_bytes(), reply["maxrss_kb"])

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class SpeedProbe:
    """Runs probe.py on ``cpu`` for the length of a ``with`` block.

    After the block, ``seconds(child)`` is the child's wall time scaled
    to REFERENCE_RATE: its seconds times the mean speed of the probe's
    loop while the child ran, over REFERENCE_RATE.  The host's speed
    drifts by half over minutes (README.md, Noise); the scaled time
    does not follow it.
    """

    def __init__(self, cpu: int):
        self.cpu = cpu
        self.path = WORK / "probe.txt"
        self.samples: list[tuple[float, float]] = []

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, "-I", "-S", str(HERE / "probe.py"), str(self.cpu),
                                      str(self.path)], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline() != "ready\n":
            self.__exit__()
            raise RuntimeError("probe.py did not start")
        return self

    def __exit__(self, *exc_info) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()
        if self.proc.returncode == 0:
            lines = self.path.read_text(encoding="ascii").splitlines()
            self.samples = [(float(start), float(seconds)) for start, seconds in map(str.split, lines)]

    def rate(self, start: float, end: float) -> float:
        return statistics.fmean(PROBE_ITERATIONS / seconds for begun, seconds in self.samples
                                if start <= begun <= end)

    def seconds(self, child: Child) -> float:
        return child.seconds * self.rate(child.start, child.end) / REFERENCE_RATE


@contextlib.contextmanager
def scratch_dir():
    path = Path(tempfile.mkdtemp(dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path)


def cli_pass(launcher: Launcher, argvs, expected: dict, ledger: Ledger) -> list[Child]:
    """One pass over the commands in a fresh directory, checking each."""
    children = []
    with scratch_dir() as cwd:
        for argv in argvs:
            child = launcher.run(argv, cwd)
            ledger.record(check_command(argv, child.exit, child.stdout, cwd, expected))
            children.append(child)
    return children


def run_version(launcher: Launcher, ledger: Ledger) -> Child:
    """``nucleus --version``: interpreter start, import and parser."""
    child = launcher.run(("--version",), WORK)
    ok = child.exit == 0 and child.stdout.startswith(b"nucleus ")
    ledger.record([] if ok else [f"--version: exit {child.exit}, stdout {child.stdout[:60]!r}"])
    return child


def measure_end_to_end(launcher, workload, size, seconds, rng, expected, ledger, notes, outputs) -> dict:
    argvs = commands(workload, size)
    units = work_units(workload, size, outputs)
    passes, versions = [], []
    start = time.perf_counter()
    with SpeedProbe(launcher.cpu) as probe:
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            passes.append(cli_pass(launcher, shuffled(workload, list(argvs), rng), expected, ledger))
            versions.extend(run_version(launcher, ledger) for _ in range(VERSION_RUNS_PER_PASS))
    walls = [sum(probe.seconds(child) for child in children) for children in passes]
    notes["passes_s"] = walls
    notes["unscaled_passes_s"] = [sum(child.seconds for child in children) for children in passes]
    notes["probe_rate_per_pass"] = [probe.rate(children[0].start, children[-1].end) for children in passes]
    notes["work_per_pass"] = f"{units} {WORK_UNITS[workload]}"
    wall = statistics.median(walls)
    rss_kb = [child.maxrss_kb for children in passes for child in children]
    return {
        "wall_s": (wall, "s", len(walls)),
        "work_per_s": (units / wall, "1/s", len(walls)),
        "peak_rss_mb": (max(rss_kb) / 1024, "MB", len(rss_kb)),
        "setup_s": (statistics.median(probe.seconds(child) for child in versions), "s", len(versions)),
    }


# --------------------------------------------------------------------------
# traced in-process run
# --------------------------------------------------------------------------

def _rows(arguments, result):
    return {"rows": result.limit + 1}


def _text_bytes(arguments, result):
    return {"bytes": len(result.encode())}


# Public functions traced in the timed in-process pass, with the span
# attributes each one records.  Per-n helpers such as nu_k or
# RestrictedCounts.count run millions of times and are left untraced.
TARGETS = {
    "counting.build_table": _rows,
    "counting.extend_table": None,
    "partitions.iter_parts": None,
    "congruence.p_mod_m_table": lambda arguments, result: {"modulus": arguments["modulus"],
                                                           "residues": len(result)},
    "congruence.check_ramanujan": None,
    "cache.load_table": None,
    "cache.read_table": _rows,
    "cache.write_table": lambda arguments, result: {"bytes": os.path.getsize(arguments["path"])},
    "asymptotics.ratio_report": None,
    "cli.main": None,
    "cli.run_verification": lambda arguments, result: {"timings": dict(result[1])},
    "cli.render_table": _text_bytes,
    "cli.render_ratios": _text_bytes,
    "cli.render_summary": _text_bytes,
    "cli.render_report": _text_bytes,
}
ITERATORS = frozenset({"partitions.iter_parts"})


def stored_ints(value) -> int:
    """Integers held in nested lists, tuples and dicts."""
    if isinstance(value, dict):
        value = list(value.values())
    if not isinstance(value, (list, tuple)):
        return int(isinstance(value, int))
    return (sum(1 for item in value if type(item) is int)
            + sum(stored_ints(item) for item in value if isinstance(item, (list, tuple, dict))))


def inprocess_pass(cli, argvs, expected: dict, ledger: Ledger) -> float:
    """Call ``cli.main`` for each command; returns the seconds spent in it."""
    total = 0.0
    with scratch_dir() as cwd:
        previous = os.getcwd()
        os.chdir(cwd)
        try:
            for argv in argvs:
                stdout, stderr = io.StringIO(), io.StringIO()
                start = time.perf_counter()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main(list(argv))
                total += time.perf_counter() - start
                ledger.record(check_command(argv, code, stdout.getvalue().encode(), cwd, expected))
        finally:
            os.chdir(previous)
    return total


def enumeration_rate(n: int) -> float:
    """Nuclear partitions of n per second, median of a few untraced runs."""
    from nucleus.partitions import EnumerationConstraint, iter_parts
    nuclear = EnumerationConstraint(min_part=2)
    rates = []
    for _ in range(ENUM_RATE_REPEATS):
        start = time.perf_counter()
        count = sum(1 for _ in iter_parts(n, nuclear))
        rates.append(count / (time.perf_counter() - start))
    return statistics.median(rates)


def memory_pass(size: dict, ledger: Ledger) -> dict:
    """Peak tracemalloc memory of the bounded-part DP and of a cache resume.

    Kept apart from both timed passes: tracemalloc slows the big-integer
    code about twentyfold.
    """
    from nucleus import cache as cache_module
    from nucleus import counting
    tracer = Tracer(memory=True)
    first, second = size["cache"]
    counts = counting.RestrictedCounts()
    with scratch_dir() as cwd:
        path = cwd / CACHE_FILE
        cache_module.load_table(first, path)
        tracemalloc.start()
        try:
            with tracer.span("counting.RestrictedCounts.ensure"):
                counts.ensure(size["exact"] - 2)
            with tracer.span("cache.load_table"):
                cache_module.load_table(second, path)
        finally:
            tracemalloc.stop()
    peaks = {span.name: span.peak_bytes / 2**20 for span in tracer.spans}
    cells = stored_ints(vars(counts))
    # A table kept where stored_ints cannot see it would read as 0 cells.
    ledger.record([] if cells else ["counting.RestrictedCounts: no stored integers found after ensure"])
    return {
        "counting.RestrictedCounts.ensure.peak_mb": (peaks["counting.RestrictedCounts.ensure"], "MB", 1),
        "counting.RestrictedCounts.ensure.cells": (cells, "count", 1),
        "cache.load_table.peak_mb": (peaks["cache.load_table"], "MB", 1),
    }


def _per_second(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans, ledger: Ledger) -> dict:
    totals = summarize(spans)
    # A target that was renamed, removed or is no longer called records no
    # span; its metrics would read 0, a perfect score, so that is a failure.
    ledger.record([f"{name}: no span recorded (missing or never called)"
                   for name in TARGETS if name not in totals])
    metrics = {}
    for name in TARGETS:
        if name in totals:
            metrics[f"{name}.s"] = (totals[name]["s"], "s", 1)
            metrics[f"{name}.self_s"] = (totals[name]["self_s"], "s", 1)

    def named(name):
        return [span for span in spans if span.name == name]

    def seconds(name):
        return totals.get(name, {"s": 0.0})["s"]

    rows = sum(span.attrs.get("rows", 0) for span in named("counting.build_table"))
    metrics["counting.build_table.rows_per_s"] = (_per_second(rows, seconds("counting.build_table")), "1/s", 1)

    verifications = named("cli.run_verification")
    timings = [span.attrs.get("timings", {}) for span in verifications]
    setup = sum(span.seconds - sum(t.values()) for span, t in zip(verifications, timings))
    metrics["cli.run_verification.setup_s"] = (setup, "s", 1)
    timed = {identity for t in timings for identity in t}
    ledger.record([f"cli.run_verification: no timing returned for {identity}"
                   for identity in IDENTITIES if identity not in timed])
    for identity in IDENTITIES:
        if identity in timed:
            metrics[f"cli.run_verification.{identity}.s"] = (sum(t.get(identity, 0.0) for t in timings), "s", 1)

    yielded = sum(span.attrs.get("yielded", 0) for span in named("partitions.iter_parts"))
    metrics["partitions.iter_parts.yielded"] = (yielded, "count", 1)

    kernels = named("congruence.p_mod_m_table")
    for m in RAMANUJAN:
        metrics[f"congruence.p_mod_m_table.s.m{m}"] = (
            sum(span.seconds for span in kernels if span.attrs.get("modulus") == m), "s", 1)
    residues = sum(span.attrs.get("residues", 0) for span in kernels)
    metrics["congruence.p_mod_m_table.residues_per_s"] = (
        _per_second(residues, seconds("congruence.p_mod_m_table")), "1/s", 1)

    metrics["cache.write_table.bytes"] = (
        sum(span.attrs.get("bytes", 0) for span in named("cache.write_table")), "bytes", 1)
    read_rows = sum(span.attrs.get("rows", 0) for span in named("cache.read_table"))
    metrics["cache.read_table.rows_per_s"] = (_per_second(read_rows, seconds("cache.read_table")), "1/s", 1)
    resumed = {span.parent for span in named("counting.extend_table")}
    metrics["cache.load_table.resume_s"] = (
        sum(span.seconds for span in named("cache.load_table") if span.span_id in resumed), "s", 1)

    rendered = sum(span.attrs.get("bytes", 0) for span in spans if span.name.startswith("cli.render_"))
    metrics["cli.render.bytes"] = (rendered, "bytes", 1)
    return metrics


def measure_layers(workload, size, expected, ledger, notes, seed) -> dict:
    argvs = commands(workload, size)
    sys.path.insert(0, str(SRC))
    from nucleus import cli

    # Like the children, the in-process passes must never use a user's cache.
    user_cache = os.environ.pop("NUCLEUS_CACHE", None)
    try:
        untraced = inprocess_pass(cli, argvs, expected, ledger)
        tracer = Tracer()
        traced = {}
        with instrument(tracer, TARGETS, ITERATORS):
            for name in WORKLOADS:
                traced[name] = inprocess_pass(cli, commands(name, size), expected, ledger)
        metrics = layer_metrics(tracer.spans, ledger)
        metrics["partitions.iter_parts.partitions_per_s"] = (
            enumeration_rate(size["enum"]), "1/s", ENUM_RATE_REPEATS)
        metrics.update(memory_pass(size, ledger))
    finally:
        if user_cache is not None:
            os.environ["NUCLEUS_CACHE"] = user_cache
    metrics["trace.overhead_s"] = (traced[workload] - untraced, "s", 1)

    spans_path = WORK / f"spans-{workload}-seed{seed}.json"
    tracer.dump(spans_path)
    notes.update(spans_file=str(spans_path.relative_to(ROOT)), spans=len(tracer.spans),
                 traced_s=traced[workload], untraced_s=untraced)
    return metrics


# --------------------------------------------------------------------------
# run record
# --------------------------------------------------------------------------

def machine_record() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
        cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    commit = "unknown (not a git checkout)"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                               env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)), timeout=30)
        if found.returncode == 0:
            commit = found.stdout.strip()
    source = hashlib.sha256()
    for path in sorted((SRC / "nucleus").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu,
            "loadavg_start": os.getloadavg(), "commit": commit, "source_sha256": source.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measure for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full", help="tiny is for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "nucleus" / "cli.py").is_file():
        print(f"error: no nucleus source at {SRC}; run from the root of a nucleus checkout", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "size": args.size,
              "machine": machine_record()}
    print("machine: " + json.dumps(record["machine"]), flush=True)

    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))[args.size]
    size = SIZES[args.size]
    rng = random.Random(args.seed)
    ledger = Ledger()
    notes = {}
    # A first pass from outside checks the program, compiles the .pyc files and
    # warms the file cache; it is not timed.
    argvs = commands(args.workload, size)
    launcher = Launcher()
    try:
        first = cli_pass(launcher, argvs, expected, ledger)
        outputs = {argv: child.stdout for argv, child in zip(argvs, first)}
        if args.workload == "cache-resume":
            # The table output is pinned by digest; SymPy checks the pin itself.
            top = size["cache"][1]
            rows = sorted(rng.sample(range(1, top + 1), SPOT_CHECK_ROWS))
            table_argv = next(argv for argv in argvs if argv[0] == "table")
            status, problems = spot_check(outputs[table_argv], rows)
            if status in ("pass", "fail"):
                ledger.record(problems)
            notes["sympy_spot_check"] = {"rows": rows, "status": status}
            print(f"sympy spot-check of p at rows {rows}: {status}")
        if args.trace:
            metrics = measure_layers(args.workload, size, expected, ledger, notes, args.seed)
        else:
            metrics = measure_end_to_end(launcher, args.workload, size, args.seconds, rng, expected, ledger,
                                         notes, outputs)
    finally:
        launcher.close()

    for problem in ledger.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    # error_rate is 0 in a good run and an end-to-end metric must never be 0,
    # so BENCHMARK.json lists it with the per-layer metrics.  It is printed in
    # both modes; `failed` in the result line carries the same count.
    error_rate = (ledger.failed / ledger.attempted, "ratio", ledger.attempted)
    if args.trace:
        metrics["error_rate"] = error_rate
    shown = {**metrics, "error_rate": error_rate}
    for name, (value, unit, samples) in shown.items():
        print(f"{args.workload:16} {name:48} {value:>16.6g} {unit:6} n={samples}")
    record.update(notes=notes, attempted=ledger.attempted, failed=ledger.failed, problems=ledger.problems,
                  metrics={name: {"value": value, "unit": unit, "samples": samples}
                           for name, (value, unit, samples) in shown.items()})
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted, "failed": ledger.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit, _) in metrics.items()}}))
    return 1 if ledger.failed else 0


if __name__ == "__main__":
    sys.exit(main())
