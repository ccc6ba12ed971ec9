import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nucleus import cli, counting
from nucleus.asymptotics import AsymptoticRow, RatioRow, estimate_rows, hr_p, log_hr_p, ratio_report
from nucleus.cache import write_table
from nucleus.congruence import CongruenceFamily, CongruenceReport
from nucleus.counting import CountTable, MethodResult, build_table
from nucleus.partitions import EnumerationConstraint

from oracles import REFERENCE_ROWS

TABLE1_CSV = "n,gamma,nu,p\n" + "\n".join(
    f"{n},{g},{v},{p}" for n, (g, v, p) in sorted(REFERENCE_ROWS.items())
) + "\n"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"{name} is not json (RFC 8259)")


# --- table ---

def test_table_text_rows(capsys):
    code, out, _ = run(capsys, "table", "--limit", "20")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["n", "gamma", "nu", "p"]
    assert lines[12].split() == ["12", "7", "21", "77"]
    assert lines[17].split() == ["17", "11", "66", "297"]


def test_table_csv_reproduces_reference_rows(capsys):
    code, out, _ = run(capsys, "table", "--rows", "1-20,100", "--format", "csv")
    assert code == 0
    assert out == TABLE1_CSV


def test_table_json_round_trip(capsys):
    code, out, _ = run(capsys, "table", "--rows", "90-100", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "count_table"
    assert all(isinstance(row["p"], str) for row in payload["rows"])
    last = payload["rows"][-1]
    rows = (last["n"], int(last["gamma"]), int(last["nu"]), int(last["p"]))
    assert rows == (100, 2307678, 21339417, 190569292)


def test_table_limit_inferred_from_rows(capsys):
    code, out, _ = run(capsys, "table", "--rows", "100", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "100,2307678,21339417,190569292"


@pytest.mark.parametrize("spec", ["abc", "5-2", "1-", ",", "-3"])
def test_table_bad_row_spec_is_usage_error(capsys, spec):
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "--rows", spec])
    assert exc.value.code == 2
    assert "row spec" in capsys.readouterr().err


def test_table_rows_beyond_limit_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "--rows", "30", "--limit", "20"])
    assert exc.value.code == 2


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_table_row_zero_alone(capsys, fmt):
    code, out, err = run(capsys, "table", "--rows", "0", "--format", fmt)
    assert code == 0 and err == ""
    if fmt == "json":
        assert json.loads(out)["rows"] == [{"n": 0, "gamma": "0", "nu": "1", "p": "1"}]
    else:
        assert out.splitlines()[1:] == ["0,0,1,1" if fmt == "csv" else "0      0   1  1"]


def test_table_empty_default_rows_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "--limit", "0"])
    assert exc.value.code == 2
    assert "--limit must be >= 1, got 0" in capsys.readouterr().err


def test_table_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "table", "--limit", "50", "--format", "json")
    _, second, _ = run(capsys, "table", "--limit", "50", "--format", "json")
    assert first == second


# --- verify ---

def test_verify_passes_with_expected_fail_rows(capsys):
    code, out, err = run(capsys, "verify", "--limit", "60", "--enum-limit", "12")
    assert code == 0
    assert "result: pass" in out
    assert out.count("expected-fail") == 2
    assert "timing:" in err and "timing:" not in out


def test_verify_json_round_trip(capsys):
    code, out, _ = run(capsys, "verify", "--limit", "40", "--enum-limit", "8",
                       "--format", "json")
    assert code == 0
    summary = json.loads(out)
    assert summary["passed"]
    assert all(o["failures"] == 0 for o in summary["identities"])
    assert summary["exact_limit"] == 40 and summary["enum_limit"] == 8
    names = [o["identity"] for o in summary["identities"]]
    assert names == list(cli.IDENTITY_NAMES)
    by_name = {o["identity"]: o for o in summary["identities"]}
    assert by_name["bounded_sum_truncated"]["expected_fail"]
    assert by_name["nu_chain"]["checked"] == 41


def test_verify_identity_selection(capsys):
    code, out, _ = run(capsys, "verify", "--limit", "30", "--enum-limit", "10",
                       "--identities", "nu_chain,gap_sum", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "identity,checked,failures,first_failure,status"
    assert len(lines) == 3
    assert lines[1].startswith("nu_chain,31,0,,pass")
    assert lines[2].startswith("gap_sum,9,0,,pass")


def test_verify_output_is_deterministic(capsys):
    args = ("verify", "--limit", "25", "--enum-limit", "6", "--format", "csv")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_verify_unknown_identity_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--identities", "nu_chian"])
    assert exc.value.code == 2


@pytest.mark.parametrize("spec, repeated", [("nu_chain,nu_chain", "nu_chain"),
                                             ("gap_sum,nu_chain, gap_sum,nu_chain", "gap_sum, nu_chain")])
def test_verify_repeated_identity_is_usage_error(capsys, spec, repeated):
    # The timings are keyed by name, so a repeated row would lose its timing.
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--identities", spec])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"repeated identities: {repeated}" in captured.err
    assert captured.out == ""


def test_verify_enum_limit_cannot_exceed_limit(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--limit", "10", "--enum-limit", "20"])
    assert exc.value.code == 2


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_verify_default_enum_limit_clamps_to_limit(capsys, fmt):
    code, out, _ = run(capsys, "verify", "--limit", "30", "--format", fmt)
    assert code == 0
    assert (code, out) == run(capsys, "verify", "--limit", "30", "--enum-limit", "30", "--format", fmt)[:2]
    if fmt == "text":
        assert "enumerated n <= 30" in out.splitlines()[0]
    elif fmt == "json":
        assert json.loads(out)["enum_limit"] == 30


def test_verify_show_errata(capsys):
    code, out, _ = run(capsys, "verify", "--limit", "30", "--enum-limit", "8",
                       "--show-errata")
    assert code == 0
    assert "bounded-sum truncated: n=6 -> 3 vs nu(6)=4" in out
    assert "k-skip shifted: n=6,k=2 -> 6 vs p(6)=11" in out


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_verify_below_six_skips_the_fixed_row(capsys, fmt):
    code, out, _ = run(capsys, "verify", "--limit", "5", "--enum-limit", "5", "--format", fmt)
    assert code == 0
    if fmt == "csv":
        assert "k_nuclear_shifted,0,0,,expected-fail" in out.splitlines()


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("spec", [",", " , ", ""])
def test_verify_empty_identity_selection_is_usage_error(capsys, fmt, spec):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--identities", spec, "--format", fmt])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "selects no identities" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_verify_negative_enum_limit_is_usage_error(capsys, fmt):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--limit", "5", "--enum-limit", "-3", "--format", fmt])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--enum-limit must be >= 0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_verify_negative_limit_is_usage_error(capsys, fmt):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--limit", "-5", "--format", fmt])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--limit must be >= 0, got -5" in captured.err
    assert "--enum-limit" not in captured.err.splitlines()[-1]
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["verify", "--identities", ","], ["congruence", "ramanujan", "4"]])
def test_subcommand_usage_error_prints_its_own_usage(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"usage: nucleus {argv[0]} ")
    assert f"nucleus {argv[0]}: error: " in captured.err
    assert captured.out == ""


def _count_calls(monkeypatch, modules, name):
    """Replace ``name`` in each module by a wrapper that counts calls per n."""
    calls = Counter()
    original = getattr(modules[0], name)

    def counted(n, *args, **kwargs):
        calls[n] += 1
        return original(n, *args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted, raising=False)
    return calls


def test_verify_enumerates_each_n_once(monkeypatch):
    """The three enumeration rows share one prefix sweep, at the
    enumeration limit, and no sweep runs when none of them is selected."""
    calls = _count_calls(monkeypatch, [cli], "enumerated_sweep")
    table = build_table(14)
    enumerated = ("gap_sum", "nuclear_count", "ground_state_count")
    unenumerated = tuple(name for name in cli.IDENTITY_NAMES if name not in enumerated)
    for names, expected in [(enumerated, Counter({14: 1})),
                            (cli.IDENTITY_NAMES, Counter({14: 1})),
                            (("ground_state_count",), Counter({14: 1})),
                            (unenumerated, Counter())]:
        calls.clear()
        summary, timings = cli.run_verification(table, 14, 14, names)
        assert summary.passed and set(timings) == set(names)
        assert calls == expected, names


def test_verify_sums_bounded_parts_in_one_pass(monkeypatch):
    calls = _count_calls(monkeypatch, [cli], "bounded_sums")
    ensured = []
    monkeypatch.setattr(counting.RestrictedCounts, "ensure", lambda self, size: ensured.append(size))
    table = build_table(60)
    unbounded = tuple(name for name in cli.IDENTITY_NAMES if not name.startswith("bounded_sum"))
    for names, expected in [(cli.IDENTITY_NAMES, Counter({60: 1})),
                            (("bounded_sum",), Counter({60: 1})),
                            (("bounded_sum_truncated",), Counter({60: 1})),
                            (unbounded, Counter())]:
        calls.clear()
        summary, _ = cli.run_verification(table, 60, 8, names)
        assert summary.passed
        assert calls == expected, names
    assert ensured == []


def test_verify_bounded_rows_run_in_linear_memory():
    table = build_table(600)
    tracemalloc.start()
    try:
        summary, _ = cli.run_verification(table, 600, 8, ("bounded_sum",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.passed
    assert peak < 2 * 2**20


def test_verify_times_every_identity():
    _, timings = cli.run_verification(build_table(30), 30, 8)
    assert list(timings) == list(cli.IDENTITY_NAMES)
    assert all(seconds >= 0 for seconds in timings.values())


@pytest.mark.parametrize("bumped, counts", [
    (1000, {"bounded_sum": (1197, 2, 1000, "fail"),
            "bounded_sum_truncated": (1197, 2, 1000, "fail")}),
    (10, {"bounded_sum": (1197, 2, 10, "fail"),
          "gap_sum": (19, 1, 10, "fail"),
          "nuclear_count": (21, 2, 10, "fail"),
          "ground_state_count": (21, 3, 10, "fail"),
          "bounded_sum_truncated": (1197, 2, 10, "fail")}),
])
def test_verify_counts_failures_on_a_corrupted_table(bumped, counts):
    """p(bumped) + 1 on the true p(0..1200): every row's checked count,
    failure count, first failure and status, as recorded before the sweeps
    compared whole columns.  nu shifts at bumped and bumped + 1, gamma also
    at bumped + 2; the rows that only telescope the table still pass."""
    p = build_table(1200).p
    p[bumped] += 1
    summary, _ = cli.run_verification(counting._table_from_p(p), 1200, 20)
    passing = {"nu_chain": (1201, 0, None, "pass"),
               "gamma_chain": (1199, 0, None, "pass"),
               "gamma_weights": (1199, 0, None, "pass"),
               "n_nu_minus_gamma": (1199, 0, None, "pass"),
               "k_nuclear": (1201, 0, None, "pass"),
               "gap_sum": (19, 0, None, "pass"),
               "nuclear_count": (21, 0, None, "pass"),
               "ground_state_count": (21, 0, None, "pass"),
               "k_nuclear_shifted": (1, 0, None, "expected-fail")}
    expected = {**passing, **counts}
    assert {o.identity: (o.checked, o.failures, o.first_failure, o.status)
            for o in summary.outcomes} == expected
    assert [o.identity for o in summary.outcomes] == list(cli.IDENTITY_NAMES)
    assert not summary.passed


def test_verify_corrupt_cache_is_distinct_failure(capsys, tmp_path):
    path = tmp_path / "counts.csv"
    write_table(build_table(60), path)
    text = path.read_text().splitlines()
    fields = text[51].split(",")
    fields[3] = str(int(fields[3]) + 1)
    text[51] = ",".join(fields)
    path.write_text("\n".join(text) + "\n")
    code, out, err = run(capsys, "verify", "--limit", "50", "--enum-limit", "8",
                         "--cache", str(path))
    assert code == 3
    assert "cache error" in err and "n=50" in err
    assert out == ""


def test_verify_uses_cache_file(capsys, tmp_path):
    path = tmp_path / "counts.csv"
    code, _, _ = run(capsys, "verify", "--limit", "30", "--enum-limit", "8",
                     "--cache", str(path))
    assert code == 0
    assert path.exists()


def test_cache_env_var_is_honoured(capsys, tmp_path, monkeypatch):
    path = tmp_path / "env.csv"
    monkeypatch.setenv("NUCLEUS_CACHE", str(path))
    code, _, _ = run(capsys, "table", "--limit", "10")
    assert code == 0
    assert path.exists()


# --- congruence ---

def test_congruence_ramanujan(capsys):
    code, out, _ = run(capsys, "congruence", "ramanujan", "5", "--limit", "200")
    assert code == 0
    assert "violations: none" in out


def test_congruence_json_round_trip(capsys):
    code, out, _ = run(capsys, "congruence", "nu_window", "7", "--limit", "50",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["violations"] == []
    assert report["family"]["family_id"] == "nu_window"
    assert report["family"]["modulus"] == 7
    assert report["family"]["progression"] == [7, 5]
    assert report["range_checked"] == [1, 50]


def test_congruence_custom_violations_exit_1(capsys):
    code, out, _ = run(capsys, "congruence", "custom", "2", "0", "3",
                       "--limit", "20", "--format", "csv")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "family,modulus,a,b,start_n,end_n,violations,first_violation"
    assert lines[1].startswith("custom,3,2,0,0,20,")
    assert lines[1].endswith(",0")  # first violation at n=0


@pytest.mark.parametrize("argv", [
    ["congruence", "ramanujan", "4"],
    ["congruence", "ramanujan"],
    ["congruence", "custom", "2", "0"],
    ["congruence", "weird", "5"],
])
def test_congruence_bad_specs_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("family", ["nu_window", "nu_k_progression", "gamma_weighted"])
def test_congruence_exact_families_pass(capsys, family):
    code, out, _ = run(capsys, "congruence", family, "5", "--limit", "50")
    assert code == 0
    assert "violations: none" in out


@pytest.mark.parametrize("argv", [
    ["ramanujan", "5"],
    ["nu_window", "7"],
    ["nu_k_progression", "11"],
    ["gamma_weighted", "5"],
    ["custom", "5", "4", "5"],
])
def test_congruence_ignores_the_cache(capsys, tmp_path, monkeypatch, argv):
    """Every family reads p mod m only: an invalid $NUCLEUS_CACHE is neither
    read, validated nor rewritten."""
    path = tmp_path / "counts.csv"
    path.write_bytes(b"not,a,cache\n")
    monkeypatch.setenv("NUCLEUS_CACHE", str(path))
    code, out, _ = run(capsys, "congruence", *argv, "--limit", "50")
    assert code == 0
    assert "violations: none" in out
    assert path.read_bytes() == b"not,a,cache\n"


def test_congruence_has_no_cache_option(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["congruence", "nu_window", "5", "--cache", "x.csv"])
    assert exc.value.code == 2
    assert "--cache" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# --- decay ---

def test_decay_chain_output(capsys):
    code, out, _ = run(capsys, "decay", "5,2")
    assert code == 0
    assert out.splitlines() == ["(5,2)", "(4,2,1)", "(3,2,1,1)", "(2,2,1,1,1)"]


def test_decay_bracketed_literal(capsys):
    code, out, _ = run(capsys, "decay", "[5,2]")
    assert code == 0
    assert out.splitlines()[0] == "(5,2)"


def test_decay_ground_state_message(capsys):
    code, out, _ = run(capsys, "decay", "3,3")
    assert code == 0
    assert out.splitlines()[0] == "(3,3)"
    assert "ground state" in out


def test_decay_rejects_non_nuclear(capsys):
    code, out, err = run(capsys, "decay", "3,2,1")
    assert code == 2
    assert "1 part(s) equal 1" in err
    assert out == ""


def test_decay_rejects_garbage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["decay", "3,x"])
    assert exc.value.code == 2


def test_decay_dot_digraph(capsys):
    code, out, _ = run(capsys, "decay", "--dot", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "digraph decay_6 {"
    assert lines[-1] == "}"
    assert '  "(6)" -> "(5,1)";' in lines
    assert '  "(4,2)" -> "(2,2,1,1)";' in lines
    assert '  "(3,3)";' in lines and '  "(2,2,2)";' in lines
    # every nuclear partition of 6 appears exactly once as a source or isolated node
    assert sum(1 for line in lines if line.startswith('  "(6)"')) == 5


def test_decay_dot_needs_integer(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["decay", "--dot", "5,2"])
    assert exc.value.code == 2


# --- parity ---

def test_parity_listing(capsys):
    code, out, _ = run(capsys, "parity", "--limit", "24", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,gamma_sum,parity,agrees"
    assert "20,95,odd,true" in lines
    assert all(line.endswith("true") for line in lines[1:])


def test_parity_text(capsys):
    code, out, _ = run(capsys, "parity", "--limit", "8")
    assert code == 0
    assert out.splitlines()[1].split() == ["4", "1", "odd", "yes"]


def test_parity_json_round_trip(capsys):
    code, out, _ = run(capsys, "parity", "--limit", "24", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert all(isinstance(row["gamma_sum"], str) for row in payload["rows"])
    rows = [(row["n"], int(row["gamma_sum"]), 1 if row["parity"] == "odd" else 0, row["agrees"])
            for row in payload["rows"]]
    assert rows[0] == (4, 1, 1, True)
    assert (20, 95, 1, True) in rows


# --- ratios ---

def test_ratios_csv(capsys):
    code, out, _ = run(capsys, "ratios", "--limit", "12", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("n,nu_over_p,gamma_over_nu")
    assert len(lines) == 13
    assert lines[1].split(",")[1] == "0"


def test_ratios_estimator_table(capsys):
    code, out, _ = run(capsys, "ratios", "--estimator", "p", "--points", "25,100",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,exact,estimate,ratio"
    assert lines[1].startswith("25,1958,")
    assert lines[2].startswith("100,190569292,")


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("spec", [",", " , ", ""])
def test_ratios_empty_points_selection_is_usage_error(capsys, fmt, spec):
    with pytest.raises(SystemExit) as exc:
        cli.main(["ratios", "--estimator", "p", "--points", spec, "--format", fmt])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--points selects no n values" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("estimator, points", [("p", "0,50"), ("nu", "1,50"), ("gamma", "2,50"),
                                               ("p", "-3")])
def test_ratios_rejects_points_outside_the_estimate_before_the_cache(capsys, tmp_path, fmt,
                                                                    estimator, points):
    fresh = tmp_path / "fresh.csv"
    existing = tmp_path / "existing.csv"
    write_table(build_table(10), existing)
    before = existing.read_bytes()
    for path in (fresh, existing):
        with pytest.raises(SystemExit) as exc:
            cli.main(["ratios", "--estimator", estimator, f"--points={points}",
                      "--format", fmt, "--cache", str(path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--points" in captured.err and f"the {estimator} estimate" in captured.err
        assert captured.out == ""
    assert not fresh.exists()
    assert existing.read_bytes() == before


@pytest.mark.parametrize("argv", [["--points", "5"], ["--form", "simplified"],
                                  ["--form", "exact_difference"], ["--points", "25", "--form", "simplified"]])
def test_ratios_estimator_options_need_an_estimator(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(["ratios", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--points and --form need --estimator" in captured.err
    assert captured.out == ""


def test_ratios_deterministic(capsys):
    _, first, _ = run(capsys, "ratios", "--limit", "40", "--format", "json")
    _, second, _ = run(capsys, "ratios", "--limit", "40", "--format", "json")
    assert first == second
    payload = json.loads(first)
    assert payload["kind"] == "ratio_report"


# --- cache subcommand ---

def test_cache_build_and_check(capsys, tmp_path):
    path = tmp_path / "counts.csv"
    code, out, _ = run(capsys, "cache", "build", "--limit", "50", "--cache", str(path))
    assert code == 0
    assert f"rows 0..50" in out
    code, out, _ = run(capsys, "cache", "check", "--cache", str(path))
    assert code == 0
    assert "ok" in out


def test_cache_check_corrupt_exits_3(capsys, tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("n,gamma,nu,p\n0,0,1,1\n2,0,1,2\n")
    code, _, err = run(capsys, "cache", "check", "--cache", str(path))
    assert code == 3
    assert "cache error" in err


def test_cache_non_ascii_exits_3(capsys, tmp_path):
    path = tmp_path / "counts.csv"
    path.write_bytes("n,gamma,nu,p\n0,0,1,1\n1,0,0,\u00e9\n".encode("utf-8"))
    code, out, err = run(capsys, "cache", "check", "--cache", str(path))
    assert code == 3
    assert err.startswith("cache error: ") and err.count("\n") == 1
    assert out == ""


def test_cache_path_that_is_a_directory_exits_3(capsys, tmp_path):
    code, out, err = run(capsys, "table", "--limit", "10", "--cache", str(tmp_path))
    assert code == 3
    assert err.startswith("cache error: ") and err.count("\n") == 1
    assert out == ""


def test_cache_path_under_missing_directory_exits_3(capsys, tmp_path):
    path = tmp_path / "missing" / "counts.csv"
    code, out, err = run(capsys, "cache", "build", "--limit", "10", "--cache", str(path))
    assert code == 3
    assert err.startswith("cache error: ") and err.count("\n") == 1
    assert out == ""
    assert not path.parent.exists()


def test_cache_needs_path(capsys, monkeypatch):
    monkeypatch.delenv("NUCLEUS_CACHE", raising=False)
    with pytest.raises(SystemExit) as exc:
        cli.main(["cache", "build", "--limit", "10"])
    assert exc.value.code == 2


# --- random argv ---

_INT = st.integers(-3, 60).map(str)
# Bounds that drive enumeration stay small: the nuclear partitions of n
# number nu(n), which passes 10^5 at n = 60.
_ENUM_INT = st.integers(-3, 12).map(str)
_INT_LIST = st.lists(st.integers(-3, 60), max_size=3).map(lambda xs: ",".join(map(str, xs)))
_ROW_SPEC = st.one_of(_INT, _INT_LIST, st.tuples(_INT, _INT).map("-".join))
_FORMAT = st.sampled_from([*cli.FORMATS, "xml"])
_CACHE = st.sampled_from(["{file}", "{dir}"])
_COMMANDS = {
    "table": ([], {"--limit": _INT, "--rows": _ROW_SPEC, "--format": _FORMAT, "--cache": _CACHE}),
    "verify": ([st.just("--enum-limit"), _ENUM_INT],
               {"--limit": _INT, "--format": _FORMAT, "--cache": _CACHE, "--show-errata": None,
                "--identities": st.lists(st.sampled_from([*cli.IDENTITY_NAMES, "x", " "]),
                                         max_size=3).map(",".join)}),
    "congruence": ([st.sampled_from(["ramanujan", "nu_window", "nu_k_progression", "gamma_weighted",
                                     "custom", "weird"]),
                    st.lists(st.one_of(st.sampled_from(["5", "7", "11"]), _INT), max_size=4).map(" ".join)],
                   {"--limit": _INT, "--format": _FORMAT, "--cache": _CACHE}),
    "decay": ([st.one_of(_INT_LIST, _INT_LIST.map("[{}]".format))], {}),
    "decay --dot": ([_ENUM_INT], {}),
    "parity": ([], {"--limit": _INT, "--format": _FORMAT, "--cache": _CACHE}),
    "ratios": ([], {"--limit": _INT, "--estimator": st.sampled_from(["p", "nu", "gamma"]),
                    "--form": st.sampled_from(["exact_difference", "simplified"]),
                    "--points": _INT_LIST, "--format": _FORMAT, "--cache": _CACHE}),
    "cache": ([st.sampled_from(["build", "check"])], {"--limit": _INT, "--cache": _CACHE}),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    positional, options = _COMMANDS[command]
    argv = command.split() + [word for strategy in positional for word in draw(strategy).split()]
    for flag in draw(st.lists(st.sampled_from(sorted(options)), unique=True)) if options else ():
        argv.append(flag)
        if options[flag] is not None:
            argv.append(draw(options[flag]))
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=_argv())
def test_random_argv_exits_with_a_documented_code(tmp_path_factory, argv):
    directory = tmp_path_factory.mktemp("argv")
    argv = [word.format(file=directory / "counts.csv", dir=directory) for word in argv]
    out = io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        os.environ.pop("NUCLEUS_CACHE", None)
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), argv
    if code in (0, 1) and "--format" in argv and argv[argv.index("--format") + 1] == "json":
        json.loads(out.getvalue(), parse_constant=_reject_constant)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "nucleus" in capsys.readouterr().out


# --- renderer cells that no golden command reaches ---

def _edge_records():
    summary = cli.VerificationSummary(9, 4, [cli.IdentityOutcome("nu_chain", 10, 2, 3),
                                             cli.IdentityOutcome("bounded_sum_truncated", 6, 0, None, True)])
    report = CongruenceReport(CongruenceFamily("custom", 3, (2, 0), 0), (0, 13),
                              [(n, 1 + n % 2) for n in range(1, 13)])
    parity = [(4, 1, 1, True), (6, 4, 0, False)]
    estimates = [AsymptoticRow(2, 0, math.inf, math.nan), AsymptoticRow(5, 7, 7.25, 1.0357142857142858)]
    return {
        "summary": lambda fmt: cli.render_summary(summary, fmt, ["demo line"]),
        "report": lambda fmt: cli.render_report(report, fmt),
        "parity": lambda fmt: cli.render_parity(parity, fmt),
        "estimates": lambda fmt: cli.render_estimates(estimates, fmt),
    }


_EDGE_TEXT = {
    "summary": "identity sweeps: exact n <= 9, enumerated n <= 4\n"
               "  nu_chain               fail           checked 10, 2 failures, first at n=3\n"
               "  bounded_sum_truncated  expected-fail  checked 6\n"
               "errata demonstrations (expected failures, excluded from exit status):\n"
               "  demo line\n"
               "result: fail\n",
    "report": "family: custom mod 3, arguments 2*n+0, n = 0..13\nviolations: 12\n"
              + "".join(f"  n={n}: residue {1 + n % 2}\n" for n in range(1, 11))
              + "  ... 2 more\n",
    "parity": "n  gamma_sum  parity  agrees\n"
              "4          1     odd     yes\n"
              "6          4    even      NO\n",
    "estimates": "n  exact  estimate          ratio\n"
                 "2      0       inf            nan\n"
                 "5      7      7.25  1.03571428571\n",
}

_EDGE_CSV = {
    "summary": "identity,checked,failures,first_failure,status\n"
               "nu_chain,10,2,3,fail\n"
               "bounded_sum_truncated,6,0,,expected-fail\n",
    "report": "family,modulus,a,b,start_n,end_n,violations,first_violation\ncustom,3,2,0,0,13,12,1\n",
    "parity": "n,gamma_sum,parity,agrees\n4,1,odd,true\n6,4,even,false\n",
    "estimates": "n,exact,estimate,ratio\n2,0,inf,nan\n5,7,7.25,1.03571428571\n",
}

_EDGE_JSON = {
    "summary": {"kind": "verification_summary", "exact_limit": 9, "enum_limit": 4, "identities": [
        {"identity": "nu_chain", "checked": 10, "failures": 2, "first_failure": 3,
         "expected_fail": False, "status": "fail"},
        {"identity": "bounded_sum_truncated", "checked": 6, "failures": 0, "first_failure": None,
         "expected_fail": True, "status": "expected-fail"}],
        "passed": False, "errata_demo": ["demo line"]},
    "report": {"kind": "congruence_report",
               "family": {"family_id": "custom", "modulus": 3, "progression": [2, 0], "start_n": 0},
               "range_checked": [0, 13], "violations": [[n, 1 + n % 2] for n in range(1, 13)]},
    "parity": {"kind": "parity_report", "rows": [
        {"n": 4, "gamma_sum": "1", "parity": "odd", "agrees": True},
        {"n": 6, "gamma_sum": "4", "parity": "even", "agrees": False}]},
    "estimates": {"kind": "estimate_report", "rows": [
        {"n": 2, "exact": "0", "estimate": None, "ratio": None},
        {"n": 5, "exact": "7", "estimate": 7.25, "ratio": 1.0357142857142858}]},
}


@pytest.mark.parametrize("name", sorted(_EDGE_TEXT))
def test_renderer_edge_cells(name):
    """A failing sweep, a disagreeing parity row, NaN and inf estimates and
    a report with violations, rendered directly in every format."""
    render = _edge_records()[name]
    assert render("text") == _EDGE_TEXT[name]
    assert render("csv") == _EDGE_CSV[name]
    assert render("json") == json.dumps(_EDGE_JSON[name], indent=2) + "\n"


def test_ratios_json_writes_null_for_non_finite_floats(capsys):
    """gamma(3) = 0 makes the ratio NaN: null in json, nan in csv."""
    code, out, _ = run(capsys, "ratios", "--estimator", "gamma", "--points", "3,4", "--format", "json")
    assert code == 0
    rows = json.loads(out, parse_constant=_reject_constant)["rows"]
    assert [row["ratio"] is None for row in rows] == [True, False]
    code, out, _ = run(capsys, "ratios", "--estimator", "gamma", "--points", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].endswith(",nan")


def _int_near_hr_p(n):
    """hr_p(n) as an int, to about 13 significant digits, at any size."""
    shift = math.floor(log_hr_p(n) / math.log(2)) - 60
    return round(math.exp(log_hr_p(n) - shift * math.log(2))) << shift


def test_estimate_ratios_stay_finite_past_the_float_range():
    """p(n) and hr_p(n) leave the float range at n = 79,446.  A synthetic
    table whose p(79,445) and p(79,446) are the estimates, rounded to ints,
    straddles that seam without the exact recurrence; every ratio is 1."""
    seam = 79446
    table = counting._table_from_p(list(range(1, seam)) + [_int_near_hr_p(seam - 1), _int_near_hr_p(seam)])
    assert math.isfinite(float(table.p[seam - 1]))
    with pytest.raises(OverflowError):
        float(table.p[seam])
    rows = estimate_rows([seam - 1, seam], table, "p")
    assert [row.estimate for row in rows] == [hr_p(seam - 1), math.inf]
    assert [row.ratio for row in rows] == pytest.approx([1.0, 1.0], rel=1e-9)
    csv = cli.render_estimates(rows, "csv").splitlines()
    assert [line.split(",")[2] for line in csv[1:]] == ["1.79335770488e+308", "inf"]
    records = json.loads(cli.render_estimates(rows, "json"), parse_constant=_reject_constant)["rows"]
    assert [record["estimate"] is None for record in records] == [False, True]
    assert all(math.isfinite(record["ratio"]) for record in records)


def test_ratio_report_stays_finite_past_the_float_range():
    """In a synthetic table p passes 2**1024 between n = 5 and 6, and at
    n = 4 sqrt(4) * nu(4) overflows a float while p(4) does not; the
    sqrt-weighted column is then sqrt(n) times the exact quotient nu/p."""
    p = [1, 2, 3, 5, 3 << 1022, 1 << 1030, 1 << 1040, 1 << 1050]
    table = counting._table_from_p(p)
    rows = ratio_report(7, table)
    assert all(math.isfinite(value) for row in rows for value in row if value is not None)
    assert rows[1].sqrt_weighted_nu == math.sqrt(2) * table.nu[2] / p[2]
    assert rows[3].sqrt_weighted_nu == 2 * (table.nu[4] / p[4])
    assert rows[5].sqrt_weighted_nu == math.sqrt(6) * (table.nu[6] / p[6])
    assert [row.nu_over_p for row in rows] == [table.nu[n] / p[n] for n in range(1, 8)]


# --- the records behind the output ---

def test_record_fields_are_the_output_columns(capsys):
    """The renderers write a record's fields in ``_fields`` order."""
    _, out, _ = run(capsys, "verify", "--limit", "6", "--enum-limit", "6", "--format", "json")
    for row in json.loads(out)["identities"]:
        assert tuple(row) == (*cli.IdentityOutcome._fields, "status")
    _, out, _ = run(capsys, "congruence", "ramanujan", "5", "--limit", "3", "--format", "json")
    assert tuple(json.loads(out)["family"]) == CongruenceFamily._fields
    _, out, _ = run(capsys, "ratios", "--limit", "2", "--format", "csv")
    assert tuple(out.splitlines()[0].split(",")) == RatioRow._fields


def test_records_are_immutable():
    outcome = cli.IdentityOutcome("nu_chain", 1, 0, None)
    family = CongruenceFamily("custom", 3, (2, 0), 0)
    records = [
        CountTable([1], [1], [0]),
        MethodResult("nu_chain", 0, 1),
        EnumerationConstraint(2),
        AsymptoticRow(5, 7, 7.25, 1.0),
        RatioRow(1, 0.0, None, None, None, None),
        family,
        CongruenceReport(family, (0, 1), []),
        outcome,
        cli.VerificationSummary(1, 1, [outcome]),
    ]
    for record in records:
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_startup_imports_no_introspection_modules():
    """No command pays for dataclasses or the inspect/ast/dis/tokenize
    chain it imports."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-X", "importtime", "-m", "nucleus", "--version"],
                            capture_output=True, text=True, env=env, timeout=60, check=True)
    imported = {line.rpartition("|")[2].strip() for line in result.stderr.splitlines()}
    assert "nucleus.cli" in imported
    assert not imported & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
