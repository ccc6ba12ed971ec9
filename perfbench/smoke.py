#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes.

Run it from the root of a nucleus source checkout:

    python3 perfbench/smoke.py

It checks the schema of BENCHMARK.json, runs every workload once with
``--trace 0`` and once with ``--trace 1`` at the tiny sizes and prints
every metric by name and unit, checks that the metric names match
BENCHMARK.json and that the traced runs leave a cache named by
NUCLEUS_CACHE alone, checks that a traced function without spans fails
the run, corrupts one expected digest in a copy of the benchmark to see
the error rate catch it, and checks that the benchmark refuses to run
without the source tree.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
WORK = ROOT / ".bench_build" / "perfbench"

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
WORKLOADS = {"verify-exact", "verify-enum", "congruence-scan", "cache-resume"}
END_TO_END = {"wall_s", "work_per_s", "peak_rss_mb", "setup_s"}


def check_schema(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}, set(spec)
    assert 1 <= len(spec["paths"]) <= 16
    for path in spec["paths"]:
        assert PATH.fullmatch(path) and not path.startswith("/") and ".." not in path.split("/"), path
    assert 1 <= len(spec["command"]) <= 32 and all(len(arg) <= 200 for arg in spec["command"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}, workload
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"], workload
    assert {w["name"] for w in spec["workloads"]} == WORKLOADS
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}, metric
        assert 0 < metric["bound"] <= 0.25, metric
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}, metric
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("higher", "lower"), metric
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(set(names)) == len(names), "names must be used once"
    assert len(json.dumps(spec)) <= 64 * 1024


def run(args: list[str], cwd: Path = ROOT, script: Path = RUN, env: dict | None = None) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600, env=env)
    return proc.returncode, proc.stdout.splitlines()


def check_run(workload: str, trace: int, declared: dict, script: Path = RUN, env: dict | None = None) -> dict:
    args = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    code, lines = run(args, script=script, env=env)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, set(result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared, (
        set(result["metrics"]) ^ set(declared))
    if script == RUN:
        assert code == 0 and result["correct"] and result["failed"] == 0, (code, result["failed"])
    return {"code": code, **result}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_schema(spec)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    WORK.mkdir(parents=True, exist_ok=True)
    user_cache = WORK / "user-cache.csv"
    user_cache.unlink(missing_ok=True)
    user_env = dict(os.environ, NUCLEUS_CACHE=str(user_cache))
    for workload in spec["workloads"]:
        check_run(workload["name"], 0, end_to_end, env=user_env)
        result = check_run(workload["name"], 1, per_layer, env=user_env)
        assert result["metrics"]["error_rate"]["value"] == 0
        assert not user_cache.exists(), f"{workload['name']} wrote the cache named by NUCLEUS_CACHE"
    print("NUCLEUS_CACHE: left alone")

    sys.dont_write_bytecode = True
    sys.path.insert(0, str(HERE))
    import run as bench
    ledger = bench.Ledger()
    metrics = bench.layer_metrics([], ledger)
    assert ledger.failed >= 1 and len(ledger.problems) >= len(bench.TARGETS), ledger.problems
    assert not any(f"{name}.s" in metrics for name in bench.TARGETS), sorted(metrics)
    print("a traced function without spans: fails the run")

    copy = Path(tempfile.mkdtemp(dir=WORK))
    try:
        shutil.copytree(HERE, copy / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        corrupt = copy / HERE.name / "expected.json"
        expected = json.loads(corrupt.read_text(encoding="utf-8"))
        table = next(key for key in expected["tiny"] if key.startswith("table "))
        expected["tiny"][table]["stdout_sha256"] = "0" * 64
        corrupt.write_text(json.dumps(expected), encoding="utf-8")
        result = check_run("cache-resume", 1, per_layer, script=copy / HERE.name / RUN.name)
    finally:
        shutil.rmtree(copy)
    assert result["code"] == 1 and not result["correct"] and result["failed"] >= 1, result["code"]
    assert result["metrics"]["error_rate"]["value"] > 0
    print(f"corrupted digest caught: error_rate {result['metrics']['error_rate']['value']:.4f}")

    bare = Path(tempfile.mkdtemp(dir=WORK))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run(["--workload", "verify-exact", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        assert code != 0 and not any(line.startswith("{") for line in lines), (code, lines)
    finally:
        shutil.rmtree(bare)
    print("without the source tree: refused")
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
