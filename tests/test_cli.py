import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import chain
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nucleus import cli, counting
from nucleus.asymptotics import AsymptoticRow, RatioRow, estimate_rows, hr_p, log_hr_p, ratio_report
from nucleus.cache import write_table
from nucleus.congruence import RAMANUJAN_PROGRESSIONS, CongruenceFamily, CongruenceReport
from nucleus.counting import CountTable, MethodResult, build_table
from nucleus.partitions import EnumerationConstraint

from oracles import REFERENCE_ROWS, row_spec

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


_NUMBER = st.text("0123456789", min_size=1, max_size=3)
_EDGE = st.sampled_from(["", "", "", " ", "+", "-"])
_JOIN = st.sampled_from(["-", "-", "-", " - ", "-+", "--", " ", "+"])


@st.composite
def _row_specs(draw):
    """Up to four chunks joined by ','.  A chunk is up to three numbers of
    at most three digits, joined by a mark of '-', '+' and spaces, with a
    mark, perhaps empty, before and after them.  A join is never empty, so
    the digit cap holds and every range a spec names is small."""
    chunks = []
    for _ in range(draw(st.integers(1, 4))):
        numbers = [draw(_NUMBER) for _ in range(draw(st.sampled_from([1, 1, 2, 2, 2, 3, 0])))]
        joins = [draw(_JOIN) for _ in numbers[1:]]
        chunks.append(draw(_EDGE) + "".join(chain(numbers[:1], *zip(joins, numbers[1:]))) + draw(_EDGE))
    return ",".join(chunks)


def _rows_or_message(parse, spec):
    try:
        return parse(spec)
    except argparse.ArgumentTypeError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(spec=_row_specs())
@example(spec="1-20,100")
@example(spec=" 3 - 7 ,+5, 0")
def test_row_spec_accepts_what_the_reference_accepts(spec):
    assert _rows_or_message(cli._row_spec, spec) == _rows_or_message(row_spec, spec)


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


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_render_table_takes_any_iterable_of_rows(fmt):
    table = build_table(30)
    expected = cli.render_table(table, [0, 7, 30], fmt)
    assert cli.render_table(table, iter([0, 7, 30]), fmt) == expected
    assert cli.render_table(table, range(0, 31, 23), fmt) == cli.render_table(table, [0, 23], fmt)


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("rows", [[], [4], [0, 1, 2, 9, 10, 30], [30, 29, 3, 3, 4, 0], [7, 5, 6]])
def test_render_table_reads_rows_in_any_order(fmt, rows):
    """Rows in any order, repeated or not, render as the rows read one
    index at a time from plain lists; a row past the table, or below 0,
    is an error, not a row left out."""
    table = build_table(30)
    p, nu, gamma = table.p, list(table.nu), list(table.gamma)
    expected = cli._records("count_table", ("n", "gamma", "nu", "p"), [(n, gamma[n], nu[n], p[n]) for n in rows], fmt)
    assert cli.render_table(table, rows, fmt) == expected
    for bad in ([29, 30, 31], [-1, 0]):
        with pytest.raises(ValueError):
            cli.render_table(table, bad, fmt)


def test_table_json_writes_exact_counts_as_strings():
    """The renderers hand over exact counts as ints; json writes each as a
    decimal string, and the row index n as a number.  p(300) is above 2**53,
    where a json number would lose digits."""
    table = build_table(300)
    assert table.p[300] == 9253082936723602 > 2 ** 53
    rows = json.loads(cli.render_table(table, [299, 300], "json"))["rows"]
    assert rows == [{"n": n, "gamma": str(table.gamma[n]), "nu": str(table.nu[n]), "p": str(table.p[n])}
                    for n in (299, 300)]
    assert rows[1]["p"] == "9253082936723602"


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     1e16, -1e16, 1.7976931348623157e308]),
    st.floats(min_value=1e16, allow_infinity=False),
    st.floats(min_value=-1e-300, max_value=1e-300),
)


@settings(max_examples=300, deadline=None)
@given(x=_FLOATS)
def test_float_cells_are_twelve_significant_digits(x):
    """Csv and text write a float with the same cell spec, which is
    ``format(x, ".12g")`` for every float."""
    expected = format(x, ".12g")
    assert cli._grid(("x",), [(x,)], "csv") == f"x\n{expected}\n"
    assert cli._grid(("x",), [(x,)], "text").splitlines()[1].lstrip() == expected


PEAK_RSS = Path(__file__).resolve().with_name("peak_rss.py")


def _peak_kb(*argv, stdout):
    """Run ``nucleus *argv`` through ``peak_rss.py``, the launcher CI uses,
    writing its stdout to the file ``stdout``; returns the child's own peak
    RSS in KB.  A child forked straight from the test process would count
    this process's memory as its own."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("NUCLEUS_CACHE", None)
    with open(stdout, "wb") as out:
        result = subprocess.run([sys.executable, "-I", "-S", str(PEAK_RSS), *argv],
                                stdout=out, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    report = result.stderr.splitlines()[-1]
    assert report.startswith(f"nucleus {' '.join(argv)}: exit 0, "), report
    return int(report.rpartition("(")[2].removesuffix(" KB)"))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KB and per child on Linux")
def test_csv_render_holds_little_more_than_its_output(tmp_path):
    """``table`` and ``ratios`` csv on a 10,000-row cache peak at most 2 MB
    above ``cache check`` on the same cache, which loads the same table:
    they hold one slice of output, never the whole (2.1 and 0.6 MB of
    csv here).  So does ``cache build --limit 10000`` resuming a
    5,000-row cache, above ``cache check`` of the cache it writes."""
    cache, resumed, out = tmp_path / "counts.csv", tmp_path / "resumed.csv", tmp_path / "out.csv"
    write_table(build_table(10000), cache)
    write_table(build_table(5000), resumed)

    def peak_kb(*argv, path=cache):
        return _peak_kb(*argv, "--cache", str(path), stdout=out)

    margin_kb = 2 * 1024
    check_kb = peak_kb("cache", "check")
    for command in ("table", "ratios"):
        kb = peak_kb(command, "--limit", "10000", "--format", "csv")
        assert out.read_bytes().count(b"\n") == 10001
        assert kb - check_kb <= margin_kb, (command, kb, check_kb)
    resume_kb = peak_kb("cache", "build", "--limit", "10000", path=resumed)
    assert resumed.read_bytes() == cache.read_bytes()
    assert resume_kb - peak_kb("cache", "check", path=resumed) <= margin_kb, resume_kb


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KB and per child on Linux")
def test_decay_dot_holds_little_more_than_start_up(tmp_path):
    """``decay --dot 45`` writes 4.5 MB of digraph one nuclear partition at a
    time, so it peaks within 2 MB of ``nucleus --version``.  Built whole,
    as one list of lines and their join, it peaked at 33.7 MB."""
    out = tmp_path / "out.dot"
    start_kb = _peak_kb("--version", stdout=out)
    kb = _peak_kb("decay", "--dot", "45", stdout=out)
    with open(out, "rb") as dot:
        assert (dot.readline(), dot.read()[-2:]) == (b"digraph decay_45 {\n", b"}\n")
    assert kb - start_kb <= 2 * 1024, (kb, start_kb)


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


@pytest.mark.parametrize("argv, message", [
    (["--limit", "5", "--enum-limit", "0", "--identities", "k_nuclear_shifted"], "k_nuclear_shifted (n = 6..5)"),
    (["--limit", "3", "--enum-limit", "1", "--identities", "nu_chain,gap_sum,bounded_sum_truncated"],
     "gap_sum (n = 2..1), bounded_sum_truncated (n = 4..3)"),
])
def test_verify_named_identity_with_nothing_to_check_exits_2(capsys, argv, message):
    """An identity named in --identities whose range is empty at these
    limits is a usage error, on one stderr line, and nothing is checked;
    the default selection still reports such a row as checked 0."""
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert err == f"error: --identities: nothing to check at these limits: {message}\n"
    assert out == ""
    code, out, _ = run(capsys, "verify", *argv[:4])
    assert code == 0 and "checked 0" in out


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


@pytest.mark.parametrize("argv", [["verify", "--identities", ","], ["congruence", "custom", "5"]])
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


def test_k_nuclear_rows_compare_each_residue_chain_as_it_goes():
    """The k-skip sums of each residue chain are compared with p as they
    are produced, so no whole sum column is held: the traced peak at 3000
    is the agreement bytes and a few slices of pointers (112 KB), not the
    3001 big integers of a whole column of k-skip sums (261 KB when one was
    held) nor a list of 3001 bools (147 KB when the truths were one)."""
    table = build_table(3000)
    tracemalloc.start()
    try:
        agree = cli._k_nuclear_agreement(table, 3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert type(agree) is bytes and agree == bytes([1]) * 3001
    assert peak < 140 * 2**10


def test_verify_holds_one_route_column_at_a_time():
    """Every identity at 3000: each route's column goes as soon as the last
    identity that reads it is done, and the gamma sweeps read their running
    sums in step, so the traced peak, counted from before the table is
    built, stays a small multiple of the p list.  Holding every column
    until the sweeps end reads about 6.7 times."""
    tracemalloc.start()
    try:
        table = build_table(3000)
        size = tracemalloc.get_traced_memory()[0]
        summary, _ = cli.run_verification(table, 3000, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.passed
    assert peak < 4.5 * size


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
    summary, _ = cli.run_verification(CountTable(p), 1200, 20)
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
    ["congruence", "custom", "1", "0", "5", "7"],
    ["congruence", "ramanujan"],
    ["congruence", "custom", "2", "0"],
    ["congruence", "custom", "5"],
    ["congruence", "nu_window", "5", "4"],
    ["congruence", "weird", "5"],
])
def test_congruence_bad_specs_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["gamma_weighted", "7", "5", "5"], "gamma_weighted needs the modulus to divide the step, got (7, 5) mod 5"),
    (["custom", "2", "0", "1"], "modulus must be >= 2, got 1"),
    (["gamma_weighted", "7", "5", "0"], "modulus must be >= 2, got 0"),
    (["nu_window", "0", "4", "5"], "progression must have a >= 1 and b >= 0, got (0, 4)"),
    (["ramanujan", "4"], "modulus must be one of [5, 7, 11], got 4"),
])
def test_congruence_progression_errors_exit_2_on_one_line(capsys, argv, message):
    code, out, err = run(capsys, "congruence", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("family", ["nu_window", "nu_k_progression", "gamma_weighted"])
def test_congruence_derived_family_with_limit_0_exits_2(capsys, family):
    """A derived family starts at n = 1: --limit 0 would check no n."""
    code, out, err = run(capsys, "congruence", family, "5", "--limit", "0")
    assert (code, out, err) == (2, "", f"error: {family} starts at n = 1: the limit must be >= 1, got 0\n")


@pytest.mark.parametrize("argv, code, last", [
    (["ramanujan", "5"], 0, "violations: none"),
    (["custom", "2", "0", "3"], 1, "  n=0: residue 1"),
])
def test_congruence_families_from_n_0_check_n_0_at_limit_0(capsys, argv, code, last):
    result, out, err = run(capsys, "congruence", *argv, "--limit", "0")
    assert (result, err) == (code, "")
    assert out.splitlines()[0].endswith(", n = 0..0") and out.splitlines()[-1] == last


@pytest.mark.parametrize("family", ["ramanujan", "nu_window", "nu_k_progression", "gamma_weighted"])
@pytest.mark.parametrize("modulus", [5, 7, 11])
def test_congruence_modulus_is_its_ramanujan_progression(capsys, family, modulus):
    a, b = RAMANUJAN_PROGRESSIONS[modulus]
    for fmt in cli.FORMATS:
        short = run(capsys, "congruence", family, str(modulus), "--limit", "30", "--format", fmt)
        full = run(capsys, "congruence", family, str(a), str(b), str(modulus), "--limit", "30", "--format", fmt)
        assert short == full and short[0] == 0


def test_congruence_ramanujan_calls_check_ramanujan_by_name(capsys, monkeypatch):
    """perfbench traces ``check_ramanujan`` by swapping the module attributes
    that hold it, so ``ramanujan M`` must call it through ``cli``'s, at call time."""
    calls = []
    original = cli.check_ramanujan
    monkeypatch.setattr(cli, "check_ramanujan", lambda *args: calls.append(args) or original(*args))
    assert run(capsys, "congruence", "ramanujan", "5", "--limit", "20")[0] == 0
    assert calls == [(5, 20)]


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
    ["nu_window", "7", "5", "7"],
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
    code, out, err = run(capsys, "decay", "3,x")
    assert code == 2
    assert err == "error: partition literal must be comma-separated integers, got '3,x'\n"
    assert out == ""


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
    code, out, err = run(capsys, "decay", "--dot", "5,2")
    assert (code, out, err) == (2, "", "error: --dot expects the size n as an integer, got '5,2'\n")


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


def test_parity_csv_in_several_slices_matches_json(capsys):
    """1,049 even n: the csv goes out in three slices of rows, and the gamma
    sums run on across them."""
    code, out, _ = run(capsys, "parity", "--limit", "2100", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,gamma_sum,parity,agrees"
    json_code, json_out, _ = run(capsys, "parity", "--limit", "2100", "--format", "json")
    assert json_code == 0
    rows = json.loads(json_out)["rows"]
    assert len(rows) == 1049 > 2 * cli._CSV_SLICE_ROWS
    assert lines[1:] == [f"{row['n']},{row['gamma_sum']},{row['parity']},{str(row['agrees']).lower()}"
                         for row in rows]


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_parity_on_a_longer_cache_stops_at_the_limit(capsys, tmp_path, fmt):
    """A cache built to 50 is loaded as it is; ``parity --limit 10`` on it
    prints the same bytes and exit code as without a cache."""
    path = tmp_path / "counts.csv"
    write_table(build_table(50), path)
    plain = run(capsys, "parity", "--limit", "10", "--format", fmt)
    cached = run(capsys, "parity", "--limit", "10", "--format", fmt, "--cache", str(path))
    assert cached == plain
    assert plain[0] == 0


def test_parity_checks_the_rows_a_closed_pipe_left_unwritten(monkeypatch):
    """The reader goes after the first slice: the second meets the closed
    pipe, so ``_write`` reads no further, the third is never rendered, and
    its disagreement with the residues still exits 1."""
    residues = cli.p_mod_m_table(2100, 2)
    residues[2100] ^= 1
    monkeypatch.setattr(cli, "p_mod_m_table", lambda limit, modulus: residues)
    writes = []

    def write(texts):
        for text in texts:
            writes.append(text)
            if len(writes) == 2:
                return

    monkeypatch.setattr(cli, "_write", write)
    rendered = []
    render = cli.render_parity
    monkeypatch.setattr(cli, "render_parity", lambda rows, fmt: rendered.append(rows) or render(rows, fmt))
    assert cli.main(["parity", "--limit", "2100", "--format", "csv"]) == cli.EXIT_CHECK_FAILED
    assert len(writes) == len(rendered) == 2
    assert all(line.endswith(",true") for line in writes[0].splitlines()[1:])


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


@pytest.mark.parametrize("form", ["exact_difference", "simplified"])
def test_ratios_form_needs_an_estimator_that_has_forms(capsys, form):
    """The p estimate has no form, so --form with it is refused as --form
    without --estimator is; the nu and gamma estimates take it."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["ratios", "--estimator", "p", "--form", form])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == (
        "nucleus ratios: error: --form needs --estimator nu or gamma: the p estimate has no form")
    assert captured.out == ""
    for estimator in ("nu", "gamma"):
        code, out, _ = run(capsys, "ratios", "--estimator", estimator, "--form", form, "--points", "25",
                           "--format", "csv")
        assert code == 0
        assert out.startswith("n,exact,estimate,ratio\n25,")


def test_ratios_points_must_be_integers(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["ratios", "--estimator", "p", "--points", "5,x"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == (
        "nucleus ratios: error: argument --points: expected comma-separated integers, got '5,x'")
    assert captured.out == ""


def test_ratios_limit_0_is_usage_error(capsys):
    """ratio_report would have no row to start from: the rows are 1..limit."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["ratios", "--limit", "0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == "nucleus ratios: error: --limit must be >= 1"
    assert captured.out == ""


def test_ratios_deterministic(capsys):
    _, first, _ = run(capsys, "ratios", "--limit", "40", "--format", "json")
    _, second, _ = run(capsys, "ratios", "--limit", "40", "--format", "json")
    assert first == second
    payload = json.loads(first)
    assert payload["kind"] == "ratio_report"


def test_ratios_limit_is_refused_with_an_estimator_and_defaults_to_100(capsys):
    """--estimator reads only the --points n values, so a --limit beside it
    is refused, not ignored; without --estimator, no --limit means 100."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["ratios", "--estimator", "nu", "--limit", "7", "--points", "25"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == (
        "nucleus ratios: error: argument --limit/-N: not allowed with argument --estimator")
    assert captured.out == ""
    assert run(capsys, "ratios") == run(capsys, "ratios", "--limit", "100")


# --- cache subcommand ---

def test_cache_check_refuses_a_limit_and_build_defaults_to_500(capsys, tmp_path):
    """check reads the whole cache, so a --limit is refused, not ignored,
    and leaves the file alone; build without --limit builds rows 0..500."""
    path = tmp_path / "counts.csv"
    write_table(build_table(10), path)
    before = path.read_bytes()
    with pytest.raises(SystemExit) as exc:
        cli.main(["cache", "check", "--limit", "5", "--cache", str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == "nucleus cache: error: --limit sizes a build: check reads the whole cache"
    assert captured.out == ""
    assert path.read_bytes() == before
    fresh = tmp_path / "fresh.csv"
    assert run(capsys, "cache", "build", "--cache", str(fresh))[:2] == (0, f"cache {fresh}: rows 0..500\n")

def test_cache_build_and_check(capsys, tmp_path):
    path = tmp_path / "counts.csv"
    code, out, _ = run(capsys, "cache", "build", "--limit", "50", "--cache", str(path))
    assert code == 0
    assert f"rows 0..50" in out
    code, out, _ = run(capsys, "cache", "check", "--cache", str(path))
    assert code == 0
    assert "ok" in out


def test_cache_build_negative_limit_leaves_the_cache_alone(capsys, tmp_path):
    """load_table would serve any limit up to the cached one, so a negative
    --limit on an existing cache is refused here, not by the library."""
    path = tmp_path / "counts.csv"
    write_table(build_table(30), path)
    before = path.read_bytes()
    with pytest.raises(SystemExit) as exc:
        cli.main(["cache", "build", "--limit", "-1", "--cache", str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == "nucleus cache: error: --limit must be >= 0"
    assert captured.out == ""
    assert path.read_bytes() == before


@pytest.mark.parametrize("limit", [0, 1, 600])
def test_cache_file_is_the_table_csv(capsys, tmp_path, limit):
    """The cache file is ``table --rows 0-N --format csv``, byte for byte.
    At 600 rows the table is written in two 512-row csv slices and the
    cache in several 128-row slices."""
    path = tmp_path / "counts.csv"
    assert run(capsys, "cache", "build", "--limit", str(limit), "--cache", str(path))[0] == 0
    code, out, _ = run(capsys, "table", "--rows", f"0-{limit}", "--format", "csv")
    assert code == 0
    assert out.encode() == path.read_bytes()


def test_cache_check_corrupt_exits_3(capsys, tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("n,gamma,nu,p\n0,0,1,1\n2,0,1,2\n")
    code, _, err = run(capsys, "cache", "check", "--cache", str(path))
    assert code == 3
    assert "cache error" in err


def test_cache_check_refuses_a_wrong_p_exits_3(capsys, tmp_path):
    """p(1000) + 1, with nu and gamma written as its differences, passes
    every row check of the loader; ``cache check`` compares p mod a prime
    with the modular kernel and names the row."""
    p = list(build_table(2000).p)
    p[1000] += 1
    path = tmp_path / "counts.csv"
    write_table(CountTable(p), path)
    code, out, err = run(capsys, "cache", "check", "--cache", str(path))
    m = 67_108_859
    assert (code, out) == (3, "")
    assert err == f"cache error: row n=1000: p mod {m} must be {(p[1000] - 1) % m}, got {p[1000] % m}\n"


def test_cache_check_refuses_gamma_below_n_3_exits_3(capsys, tmp_path):
    # Row 2 takes gamma as nu(2) - nu(1) = 1, where the table holds 0.
    path = tmp_path / "counts.csv"
    path.write_text("n,gamma,nu,p\n0,0,1,1\n1,0,0,1\n2,1,1,2\n")
    code, out, err = run(capsys, "cache", "check", "--cache", str(path))
    assert (code, out, err) == (3, "", "cache error: row n=2: gamma must be 0, got 1\n")


@pytest.mark.parametrize("rows, message", [
    (f"0,{'7' * 300},1,1\n1,0,0,1\n2,0,1,2\n", "row n=0: gamma must be 0, got 77777777...(300 digits)"),
    (f"0,0,1,1\n1,0,0,1\n2,{'7' * 300},1,2\n", "row n=2: gamma must be 0, got 77777777...(300 digits)"),
], ids=["row_0", "row_2"])
def test_cache_row_error_on_a_long_gamma_exits_3(capsys, tmp_path, rows, message):
    """A 300-digit gamma where a row below 3 must hold 0 is quoted by its
    first 8 characters and its digit count, as every row error quotes
    its numbers."""
    path = tmp_path / "counts.csv"
    path.write_text(f"n,gamma,nu,p\n{rows}")
    code, out, err = run(capsys, "cache", "check", "--cache", str(path))
    assert (code, out, err) == (3, "", f"cache error: {message}\n")
    assert len(err.rstrip("\n")) <= 120


def test_cache_non_ascii_exits_3(capsys, tmp_path):
    path = tmp_path / "counts.csv"
    path.write_bytes("n,gamma,nu,p\n0,0,1,1\n1,0,0,\u00e9\n".encode("utf-8"))
    code, out, err = run(capsys, "cache", "check", "--cache", str(path))
    assert code == 3
    assert err.startswith("cache error: ") and err.count("\n") == 1
    assert out == ""


@pytest.mark.parametrize("rows, message", [
    ("0,0,1,1\n1,0,0,1\n2,0,1,2\n3,0,01,3\n", "line 5: nu must have no leading zero, got '01'"),
    ("0,0,1,1\n1,0,0,1\n2,0,1,2", "line 4: the last row must end in LF"),
], ids=["leading_zero", "no_final_lf"])
def test_cache_not_in_its_written_form_exits_3(capsys, tmp_path, rows, message):
    path = tmp_path / "counts.csv"
    path.write_text(f"n,gamma,nu,p\n{rows}")
    code, out, err = run(capsys, "cache", "check", "--cache", str(path))
    assert (code, out, err) == (3, "", f"cache error: {message}\n")


@pytest.mark.parametrize("column, name", [(2, "nu"), (1, "gamma")], ids=["nu", "gamma"])
def test_cache_difference_error_on_a_long_number_exits_3(capsys, tmp_path, column, name):
    """One digit appended to row 2,500's nu or gamma in a 3,000-row cache:
    both numbers in the error have some 50 digits, so each is quoted by its
    first 8 and its digit count, which shows the extra digit."""
    table = build_table(3000)
    path = tmp_path / "counts.csv"
    write_table(table, path)
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[2501].split(",")
    fields[column] += "7"
    lines[2501] = ",".join(fields)
    path.write_text("".join(lines))
    code, out, err = run(capsys, "cache", "check", "--cache", str(path))
    value = str(getattr(table, name)[2500])
    assert len(value) > 20
    quoted = f"{value[:8]}...({len(value)} digits), got {value[:8]}...({len(value) + 1} digits)"
    assert (code, out, err) == (3, "", f"cache error: row n=2500: {name} must be {quoted}\n")
    assert all(len(line) <= 120 for line in err.splitlines())


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


@pytest.mark.parametrize("argv", [
    "congruence custom 1000000 0 13 --limit 1000000",
    "congruence ramanujan 5 --limit 10000000000",
    "table --rows 0-100000000000",  # expanded while the arguments are parsed
])
def test_memory_exhaustion_exits_2(argv):
    """A request too large for the memory exits 2 with one stderr line, not
    1 with a traceback.  The child caps its own address space at 1 GB, so
    the test never exhausts the memory of the machine it runs on."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("NUCLEUS_CACHE", None)
    child = ("import resource, runpy\n"
             "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
             "runpy.run_module('nucleus', run_name='__main__', alter_sys=True)\n")
    result = subprocess.run([sys.executable, "-c", child, *argv.split()],
                            capture_output=True, text=True, env=env, timeout=120)
    assert (result.returncode, result.stdout, result.stderr) == (
        2, "", "error: out of memory: the request is too large for this machine\n")


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "PYTHONUNBUFFERED=1"])
def test_a_reader_that_closes_the_pipe_early_leaves_exit_0(unbuffered):
    """``table ... | head -c 10``: the reader takes 10 bytes of about 187 KB
    of csv, or of 220 KB of ``decay --dot 30`` digraph, and closes the pipe.
    The command still exits 0, with nothing on stderr, whether the
    interpreter buffers stdout or not."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("NUCLEUS_CACHE", None)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    for argv, head in [("table --limit 2000 --format csv", b"n,gamma,nu"), ("decay --dot 30", b"digraph de")]:
        with subprocess.Popen([sys.executable, "-m", "nucleus", *argv.split()],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as child:
            read = child.stdout.read(10)
            child.stdout.close()
            stderr = child.stderr.read()
            code = child.wait(timeout=120)
        assert read == head
        assert (code, stderr) == (0, b""), argv


@pytest.mark.parametrize("command, renderer", [("table", "render_table"), ("ratios", "render_ratios")])
def test_no_csv_slice_is_rendered_after_the_reader_has_gone(command, renderer):
    """The reader closes the pipe before the command writes: the first
    slice of 5,000 csv rows meets the closed pipe, the nine after it are
    never rendered, and the command still exits 0 with nothing on stderr
    but the count the child reports."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("NUCLEUS_CACHE", None)
    child = ("import sys\n"
             "from nucleus import cli\n"
             f"render, calls = cli.{renderer}, []\n"
             f"cli.{renderer} = lambda *args: calls.append(args) or render(*args)\n"
             "code = cli.main(sys.argv[1:])\n"
             "print(code, len(calls), file=sys.stderr)\n")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run([sys.executable, "-c", child, command, "--limit", "5000", "--format", "csv"],
                                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (0, b"0 1\n")


def test_no_decay_line_is_built_after_the_reader_has_gone():
    """``decay --dot 40`` with the pipe closed before it writes: the first
    buffer of lines meets the closed pipe, so the digraph stops there and
    decays far fewer than the 6,153 nuclear partitions of 40, and the
    command still exits 0 with nothing on stderr but the count the child
    reports."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONUNBUFFERED", None)
    child = ("import sys\n"
             "from nucleus import cli\n"
             "decay, calls = cli.decay_chain, []\n"
             "cli.decay_chain = lambda mu: calls.append(mu) or decay(mu)\n"
             "code = cli.main(['decay', '--dot', '40'])\n"
             "print(code, len(calls), file=sys.stderr)\n")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run([sys.executable, "-c", child], stdout=write_end, stderr=subprocess.PIPE,
                                env=env, timeout=120)
    finally:
        os.close(write_end)
    code, calls = map(int, result.stderr.split())
    assert (result.returncode, code) == (0, 0)
    assert 0 < calls < 6153 // 10, calls


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
    table = CountTable(list(range(1, seam)) + [_int_near_hr_p(seam - 1), _int_near_hr_p(seam)])
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


# The repr of each estimate and ratio that estimate_rows returns on a
# synthetic table whose p(n) from n = 79,000 is hr_p(n) rounded to an int.
# The points straddle every float seam: hr_p and the table's p leave the
# float range at 79,446; hr_nu at 80,641 and the table's nu at 80,642; the
# table's gamma at 81,850 and hr_gamma at 83,337 (exact_difference) or
# 83,336 (simplified).  Where the estimate is inf or the count is past a
# float, the ratio comes from logs, so these pin that path bit for bit.
_ESTIMATE_PINS = {
    "p": [
        (79445, "1.793357704875027e+308", "1.000000000000033"),
        (79446, "inf", "1.0"),
    ],
    ("nu", "exact_difference"): [
        (80640, "1.7935649066391907e+308", "1.0027470388776423"),
        (80641, "inf", "1.0027470218907701"),
        (80642, "inf", "1.0027470047944336"),
    ],
    ("nu", "simplified"): [
        (80640, "1.7976182577720614e+308", "1.005013188171137"),
        (80641, "inf", "1.005013157084181"),
        (80642, "inf", "1.0050131258879706"),
    ],
    ("gamma", "exact_difference"): [
        (81849, "2.4638934520484767e+305", "0.001371977782169078"),
        (81850, "2.4749073060999606e+305", "0.0013719798877983016"),
        (83335, "1.7874727290785811e+308", "0.0013596101414488084"),
        (83336, "1.7953906848015946e+308", "0.0013596115510058095"),
        (83337, "inf", "0.001359583141291497"),
    ],
    ("gamma", "simplified"): [
        (81849, "2.4749639261896292e+305", "0.0013781421901905007"),
        (81850, "2.486027186334932e+305", "0.0013781442609041162"),
        (83335, "1.79543189596566e+308", "0.0013656641437511175"),
        (83336, "inf", "0.0013656655251465455"),
        (83337, "inf", "0.0013656369543964127"),
    ],
}


@pytest.fixture(scope="module")
def near_hr_p_table():
    start, top = 79000, 83337
    return CountTable(list(range(1, start + 1)) + [_int_near_hr_p(n) for n in range(start, top + 1)])


@pytest.mark.parametrize("quantity, form", [("p", "exact_difference"), ("p", "simplified"),
                                            ("nu", "exact_difference"), ("nu", "simplified"),
                                            ("gamma", "exact_difference"), ("gamma", "simplified")])
def test_estimate_rows_are_pinned_across_the_float_seams(near_hr_p_table, quantity, form):
    """p has no form, so both forms give its one list of pins."""
    pins = _ESTIMATE_PINS["p" if quantity == "p" else (quantity, form)]
    rows = estimate_rows([n for n, _, _ in pins], near_hr_p_table, quantity, form)
    assert [(row.n, repr(row.estimate), repr(row.ratio)) for row in rows] == pins
    assert [row.exact for row in rows] == [getattr(near_hr_p_table, quantity)[n] for n, _, _ in pins]


def test_ratio_report_stays_finite_past_the_float_range():
    """In a synthetic table p passes 2**1024 between n = 5 and 6, and at
    n = 4 sqrt(4) * nu(4) overflows a float while p(4) does not; the
    sqrt-weighted column is then sqrt(n) times the exact quotient nu/p."""
    p = [1, 2, 3, 5, 3 << 1022, 1 << 1030, 1 << 1040, 1 << 1050]
    table = CountTable(p)
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
        CountTable([1]),
        MethodResult("nu_chain", 0, 1),
        EnumerationConstraint(2),
        AsymptoticRow(5, 7, 7.25, 1.0),
        RatioRow(1, 0.0, None, None, None, None),
        family,
        CongruenceReport(family, (0, 1), []),
        outcome,
        cli.VerificationSummary(1, 1, [outcome]),
    ]
    assert CountTable._fields == ("p",)
    for record in records:
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_importing_the_package_loads_no_module_below_it():
    """Each name is imported from the module that defines it: the package
    re-exports none, so ``import nucleus`` alone loads no submodule."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = "import nucleus, sys; print(sorted(m for m in sys.modules if m.startswith('nucleus')))"
    result = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env,
                            timeout=60, check=True)
    assert result.stdout == "['nucleus']\n"


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
