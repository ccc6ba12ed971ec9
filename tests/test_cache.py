import contextlib
import errno
import math
import os
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nucleus import cache as cache_module
from nucleus import congruence
from nucleus.cache import (
    CACHE_ENV_VAR,
    CACHE_HEADER,
    CHECK_MODULUS,
    CacheError,
    check_p,
    load_table,
    read_table,
    resolve_cache_path,
    write_table,
)
from nucleus.counting import CountTable, build_table, pentagonal_offsets


def tables_equal(a, b):
    return a.limit == b.limit and a.p == b.p and a.nu == b.nu and a.gamma == b.gamma


def test_round_trip_and_byte_stability(tmp_path):
    path = tmp_path / "counts.csv"
    table = build_table(100)
    write_table(table, path)
    first = path.read_bytes()
    loaded = read_table(path)
    assert tables_equal(loaded, table)
    write_table(loaded, path)
    assert path.read_bytes() == first


def test_file_format(tmp_path):
    path = tmp_path / "counts.csv"
    write_table(build_table(5), path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n") and not raw.endswith(b"\n\n")
    lines = raw.decode("ascii").splitlines()
    assert lines[0] == CACHE_HEADER
    assert lines[1] == "0,0,1,1"
    assert lines[6] == "5,0,2,7"
    assert all(line == line.strip() for line in lines)


def test_resume_equals_fresh(tmp_path):
    path = tmp_path / "counts.csv"
    write_table(build_table(100), path)
    resumed = load_table(200, path)
    fresh = build_table(200)
    assert tables_equal(resumed, fresh)
    # and the file was rewritten with the extension
    assert tables_equal(read_table(path), fresh)


def test_load_without_path_builds_in_memory():
    assert load_table(30, None).limit == 30


def test_load_missing_file_builds_and_writes(tmp_path):
    path = tmp_path / "fresh.csv"
    table = load_table(40, path)
    assert table.limit == 40
    assert path.exists()
    assert tables_equal(read_table(path), table)


def test_load_keeps_longer_cache(tmp_path):
    path = tmp_path / "counts.csv"
    write_table(build_table(100), path)
    assert load_table(50, path).limit == 100


def _edit_row(path, n, mutate):
    lines = path.read_text().splitlines()
    fields = lines[n + 1].split(",")
    lines[n + 1] = ",".join(mutate(fields))
    path.write_text("\n".join(lines) + "\n")


def test_hand_edited_p_rejected(tmp_path):
    path = tmp_path / "counts.csv"
    write_table(build_table(100), path)
    _edit_row(path, 50, lambda f: f[:3] + [str(int(f[3]) + 1)])
    with pytest.raises(CacheError, match="n=50"):
        read_table(path)


def test_check_p_passes_valid_tables_and_names_the_first_wrong_p():
    table = build_table(2000)
    for limit in (0, 1, 511, 512, 2000):  # the first block is _extend_p's, then the blocked kernel's
        check_p(CountTable(table.p[:limit + 1]))
    p = list(table.p)
    p[1000] += 1
    p[1500] -= 1
    with pytest.raises(CacheError, match=f"^row n=1000: p mod {CHECK_MODULUS} must be "):
        check_p(CountTable(p))


def test_check_modulus_takes_the_blocked_kernel(monkeypatch):
    """The check's modulus is the largest prime below 2^26, and its
    residues come from the blocked kernel in 8-byte lanes, not from
    ``_extend_p``, the recurrence that builds the table, which computes
    the first block alone, rows 0..511."""
    def prime(k):
        return all(k % d for d in range(2, math.isqrt(k) + 1))

    assert prime(CHECK_MODULUS) and not any(map(prime, range(CHECK_MODULUS + 1, 2**26)))
    assert congruence._lane_plan(pentagonal_offsets(20000), CHECK_MODULUS) == (231, 8, 8)
    calls = []

    def recorded(p, limit, modulus=None):
        calls.append(limit)
        return extend_p(p, limit, modulus)

    extend_p = congruence._extend_p
    monkeypatch.setattr(congruence, "_extend_p", recorded)
    check_p(build_table(20000))
    assert calls == [congruence._BLOCK - 1]


def test_hand_edited_gamma_rejected(tmp_path):
    path = tmp_path / "counts.csv"
    write_table(build_table(20), path)
    _edit_row(path, 7, lambda f: [f[0], str(int(f[1]) + 2)] + f[2:])
    with pytest.raises(CacheError, match="n=7"):
        read_table(path)


def test_gap_in_rows_rejected(tmp_path):
    path = tmp_path / "counts.csv"
    write_table(build_table(10), path)
    lines = path.read_text().splitlines()
    del lines[4]  # row n=3
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CacheError, match="^row n=3: n must be 3, got 4$"):
        read_table(path)


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("n,nu,gamma,p\n0,0,1,1\n")
    with pytest.raises(CacheError, match="header"):
        read_table(path)


def test_non_numeric_field_rejected(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text(f"{CACHE_HEADER}\n0,0,1,1\n1,0,zero,1\n")
    with pytest.raises(CacheError, match="line 3"):
        read_table(path)


@pytest.mark.parametrize("column", [1, 2, 3])
@pytest.mark.parametrize("raw", ["+1", " 1", "1 ", "1_0", "\t1"])
def test_fields_int_would_accept_are_rejected(tmp_path, column, raw):
    # Row n=1 is 1,0,0,1; int() would parse every raw value drawn here.
    fields = ["1", "0", "0", "1"]
    fields[column] = raw
    path = tmp_path / "counts.csv"
    path.write_text(f"{CACHE_HEADER}\n0,0,1,1\n{','.join(fields)}\n")
    name = ("n", "gamma", "nu", "p")[column]
    with pytest.raises(CacheError) as exc:
        read_table(path)
    assert str(exc.value) == f"line 3: {name} must be a nonnegative decimal integer, got {raw!r}"


@pytest.mark.parametrize("column", [0, 1, 2, 3])
def test_leading_zero_rejected(tmp_path, column):
    """A field is written without leading zeros, so one is refused, naming
    its line, though int() reads the same value: row n=3 is 3,0,1,3."""
    fields = ["3", "0", "1", "3"]
    fields[column] = "0" + fields[column]
    path = tmp_path / "counts.csv"
    path.write_text(f"{CACHE_HEADER}\n0,0,1,1\n1,0,0,1\n2,0,1,2\n{','.join(fields)}\n")
    name = ("n", "gamma", "nu", "p")[column]
    with pytest.raises(CacheError) as exc:
        read_table(path)
    assert str(exc.value) == f"line 5: {name} must have no leading zero, got '0{fields[column][1:]}'"


@pytest.mark.parametrize("raw, message", [
    (b"0" + b"3" * 299, "must have no leading zero, got '0" + "3" * 39 + "'"),
    (b"3" * 299 + b"x", "must be a nonnegative decimal integer, got ...'" + "3" * 36 + "x'"),
], ids=["leading_zero", "not_decimal"])
def test_long_bad_field_is_quoted_up_to_its_first_bad_byte(tmp_path, raw, message):
    """A bad field is quoted by its first 40 characters, as a bad header
    is, since far out p(n) has thousands of digits; when its first bad
    byte lies past them, by the bytes that end with that byte, marked as a
    tail.  Either quote is at most 42 characters."""
    path = tmp_path / "counts.csv"
    path.write_bytes(f"{CACHE_HEADER}\n0,0,1,1\n1,0,0,1\n2,0,1,2\n3,0,1,".encode() + raw + b"\n")
    with pytest.raises(CacheError) as exc:
        read_table(path)
    assert str(exc.value) == f"line 5: p {message}"
    assert len(str(exc.value).partition(", got ")[2]) <= 42


@pytest.mark.parametrize("rows, message", [
    (f"1,0,0,{10**19 + 1}\n", f"row n=1: nu must be {10**19}, got 0"),
    (f"1,0,0,{10**20 + 1}\n", "row n=1: nu must be 10000000...(21 digits), got 0"),
    (f"1,0,0,1\n2,0,{10**21},{10**21 + 1}\n3,0,0,{10**21 + 1}\n",
     "row n=3: gamma must be -1000000...(22 digits), got 0"),
], ids=["20_digits", "21_digits", "negative"])
def test_difference_error_quotes_a_number_whole_up_to_20_digits(tmp_path, rows, message):
    """A longer number is quoted by its first 8 characters and its count
    of digits, the sign aside."""
    path = tmp_path / "counts.csv"
    path.write_text(f"{CACHE_HEADER}\n0,0,1,1\n{rows}")
    with pytest.raises(CacheError) as exc:
        read_table(path)
    assert str(exc.value) == message


def test_non_ascii_byte_message(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_bytes(f"{CACHE_HEADER}\n0,0,1,1\n1,0,0,\u00e9\n".encode())
    with pytest.raises(CacheError) as exc:
        read_table(path)
    assert str(exc.value) == r"line 3: p must be a nonnegative decimal integer, got '\xc3\xa9'"


def test_bad_header_message(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_bytes(b"n,nu,gamma,p\n0,0,1,1\n")
    with pytest.raises(CacheError) as exc:
        read_table(path)
    assert str(exc.value) == "expected header 'n,gamma,nu,p', got 'n,nu,gamma,p'"
    path.write_bytes(b"x" * 100)
    with pytest.raises(CacheError) as exc:
        read_table(path)
    assert str(exc.value) == f"expected header 'n,gamma,nu,p', got {'x' * 40!r}"


def test_file_without_lf_is_refused_by_its_header(tmp_path):
    """A 4 MB file with no LF is refused by its header, read as at most 41
    bytes: the file is not read whole as one line."""
    path = tmp_path / "counts.csv"
    path.write_bytes(bytes(4 * 1024 * 1024))
    tracemalloc.start()
    try:
        with pytest.raises(CacheError) as exc:
            read_table(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "expected header 'n,gamma,nu,p', got '" + r"\x00" * 10 + "'"
    assert peak < 64 * 1024


@pytest.mark.parametrize("byte", [b"7", b"\0"], ids=["digits", "zero_bytes"])
def test_row_line_without_lf_is_refused_by_its_first_64_kib(tmp_path, byte):
    """A header, row 0 and 8 MB with no LF: the row line is read as at most
    64 KiB and refused as too long by its line number, before any field is
    converted or quoted, so the file is not read whole."""
    path = tmp_path / "counts.csv"
    path.write_bytes(f"{CACHE_HEADER}\n0,0,1,1\n".encode() + byte * (8 << 20))
    tracemalloc.start()
    try:
        with pytest.raises(CacheError) as exc:
            read_table(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "line 3: longer than 65535 bytes"
    assert peak < 256 * 1024


def test_wrong_field_count_rejected(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text(f"{CACHE_HEADER}\n0,0,1,1\n1,0,0\n")
    with pytest.raises(CacheError, match="4 comma-separated fields"):
        read_table(path)


def test_header_only_rejected(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text(f"{CACHE_HEADER}\n")
    with pytest.raises(CacheError, match="n=0"):
        read_table(path)


def test_bad_row_zero_rejected(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text(f"{CACHE_HEADER}\n0,0,1,2\n")
    with pytest.raises(CacheError, match="n=0"):
        read_table(path)


@settings(max_examples=25, deadline=None)
@given(limit=st.integers(0, 80))
def test_round_trip_any_limit(tmp_path_factory, limit):
    path = tmp_path_factory.mktemp("cache") / "counts.csv"
    table = build_table(limit)
    write_table(table, path)
    assert tables_equal(read_table(path), table)


TABLE_30 = build_table(30)
CACHE_30 = "".join([f"{CACHE_HEADER}\n"] + [f"{n},{TABLE_30.gamma[n]},{TABLE_30.nu[n]},{TABLE_30.p[n]}\n"
                                            for n in range(31)]).encode()


def test_fuzz_reference_is_what_write_table_writes(tmp_path):
    path = tmp_path / "counts.csv"
    write_table(TABLE_30, path)
    assert path.read_bytes() == CACHE_30


@settings(max_examples=200, deadline=None)
@given(cut=st.integers(0, len(CACHE_30)))
def test_truncated_cache_is_rejected_or_a_prefix(tmp_path_factory, cut):
    path = tmp_path_factory.mktemp("cache") / "counts.csv"
    path.write_bytes(CACHE_30[:cut])
    try:
        table = read_table(path)
    except CacheError:
        return
    limit = table.limit
    assert (table.p, table.nu, table.gamma) == (TABLE_30.p[:limit + 1], TABLE_30.nu[:limit + 1],
                                                TABLE_30.gamma[:limit + 1])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_single_byte_change_is_rejected(tmp_path_factory, data):
    position = data.draw(st.integers(0, len(CACHE_30) - 1), label="position")
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != CACHE_30[position]), label="byte")
    changed = bytearray(CACHE_30)
    changed[position] = byte
    path = tmp_path_factory.mktemp("cache") / "counts.csv"
    path.write_bytes(bytes(changed))
    with pytest.raises(CacheError):
        read_table(path)


@pytest.mark.parametrize("ending", [b"\r", b"\r\n"])
def test_non_lf_line_endings_rejected(tmp_path, ending):
    path = tmp_path / "counts.csv"
    path.write_bytes(CACHE_30.replace(b"\n", ending))
    with pytest.raises(CacheError, match="header") as exc:
        read_table(path)
    assert len(str(exc.value)) < 100
    row = CACHE_30.index(b"\n5,0,2,7\n") + len(b"\n5,0,2,7")
    path.write_bytes(CACHE_30[:row] + ending + CACHE_30[row + 1:])
    with pytest.raises(CacheError, match="line 7"):
        read_table(path)


class _FailingHandle:
    """A file handle whose write stores half its text, then fails."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()

    def write(self, text):
        self.handle.write(text[: len(text) // 2])
        self.handle.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "counts.csv"
    write_table(build_table(50), path)
    before = path.read_bytes()
    monkeypatch.setattr(cache_module, "open", lambda *args, **kwargs: _FailingHandle(open(*args, **kwargs)),
                        raising=False)
    with pytest.raises(CacheError, match="No space left on device"):
        write_table(build_table(200), path)
    assert path.read_bytes() == before
    assert [entry.name for entry in tmp_path.iterdir()] == ["counts.csv"]


def test_write_streams_the_rows(tmp_path):
    """Writing 3,000 rows (a 346 KB file) keeps the traced peak under a
    quarter of the file: the rows are streamed, never joined into one
    text, which took three times the file."""
    path = tmp_path / "counts.csv"
    table = build_table(3000)
    tracemalloc.start()
    try:
        write_table(table, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size // 4
    assert read_table(path).p == table.p


def test_read_streams_the_rows(tmp_path):
    """Reading 3,000 rows peaks under 1.25 times the table it returns: the
    file is read one line at a time, never held whole with its split,
    which took 2.9 times the table."""
    path = tmp_path / "counts.csv"
    write_table(build_table(3000), path)
    tracemalloc.start()
    try:
        table = read_table(path)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.limit == 3000
    assert peak < 1.25 * size


def test_read_holds_p_alone(tmp_path):
    """The table read from 3,000 rows traces under half the size of its
    three columns as lists of ints, which is what the loader returned
    when it kept every field: nu and gamma are views of p."""
    path = tmp_path / "counts.csv"
    write_table(build_table(3000), path)
    rows = [line.split(b",") for line in path.read_bytes().splitlines()[1:]]
    tracemalloc.start()
    try:
        columns = [[int(row[i]) for row in rows] for i in (1, 2, 3)]
        three, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tracemalloc.start()
    try:
        table = read_table(path)
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [table.gamma, table.nu, table.p] == columns
    assert size < three / 2


def test_first_faulty_line_is_reported(tmp_path):
    """A file is refused at its first faulty line: a 0xE9 byte 64 KB past a
    broken n is not reached, and is refused by its own line's field check
    once the n is mended."""
    path = tmp_path / "counts.csv"
    write_table(build_table(3000), path)
    data = bytearray(path.read_bytes())
    bad_row = data.index(b"\n3,") + 1
    data[bad_row] = ord("4")  # line 5 now breaks the n sequence
    offset = data.index(b"\n2500,") + 3
    assert offset - bad_row > 64 * 1024
    data[offset] = 0xE9
    path.write_bytes(bytes(data))
    with pytest.raises(CacheError) as exc:
        read_table(path)
    assert str(exc.value) == "row n=3: n must be 3, got 4"
    data[bad_row] = ord("3")
    path.write_bytes(bytes(data))
    with pytest.raises(CacheError) as exc:
        read_table(path)
    assert str(exc.value) == r"line 2502: n must be a nonnegative decimal integer, got '25\xe90'"


def test_read_from_a_fifo(tmp_path):
    """A cache read through a pipe loads: the file is read once, with no
    seek and no second open.  The file is larger than a pipe's buffer."""
    source = tmp_path / "counts.csv"
    table = build_table(3000)
    write_table(table, source)
    fifo = tmp_path / "counts.fifo"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as handle:
            handle.write(source.read_bytes())

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    assert tables_equal(read_table(fifo), table)
    writer.join(timeout=30)
    assert not writer.is_alive()


def test_fifo_is_refused_at_its_first_faulty_row(tmp_path):
    """A bad row read through a pipe is refused at once: the reader does
    not wait for the rest of the file, and closes the pipe first."""
    fifo = tmp_path / "counts.fifo"
    os.mkfifo(fifo)
    done = threading.Event()
    gave_up = []

    def feed():
        with open(fifo, "wb", buffering=0) as handle:
            handle.write(f"{CACHE_HEADER}\n0,0,1,1\n2,0,0,1\n".encode())
            gave_up.append(not done.wait(timeout=30))
            with contextlib.suppress(BrokenPipeError):  # the reader has closed the pipe
                handle.write(b"2,0,1,2\n")

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        with pytest.raises(CacheError) as exc:
            read_table(fifo)
    finally:
        done.set()
    writer.join(timeout=30)
    assert not writer.is_alive()
    assert str(exc.value) == "row n=1: n must be 1, got 2"
    assert gave_up == [False]


def test_last_row_without_lf_is_rejected(tmp_path):
    """The last row must end in LF, as written; the error names its line.
    A row error on that line is reported ahead of the missing LF."""
    path = tmp_path / "counts.csv"
    write_table(build_table(50), path)
    written = path.read_bytes()
    path.write_bytes(written.removesuffix(b"\n"))
    with pytest.raises(CacheError) as exc:
        read_table(path)
    assert str(exc.value) == "line 52: the last row must end in LF"
    path.write_bytes(written.removesuffix(b"\n") + b"0")
    with pytest.raises(CacheError, match="^row n=50: nu must be "):
        read_table(path)
    path.write_bytes(f"{CACHE_HEADER}".encode())
    with pytest.raises(CacheError, match="^cache has a header but no rows"):
        read_table(path)


# The bytes a single-byte mutant puts in: the file's own bytes, the bytes
# int() would skip or take as a sign, a CR and one non-ASCII byte.
_MUTANT_BYTES = b"0123456789,\n\r +-_a\x80"


def _single_byte_mutants(data: bytes):
    """Every file one byte away from ``data``: each byte of _MUTANT_BYTES
    substituted for or inserted before each byte, or appended (an extra LF
    among them), and each byte deleted."""
    for i in range(len(data) + 1):
        for byte in _MUTANT_BYTES:
            yield data[:i] + bytes([byte]) + data[i:]
            if i < len(data) and byte != data[i]:
                yield data[:i] + bytes([byte]) + data[i + 1:]
        yield data[:i] + data[i + 1:]


def test_only_the_written_cache_passes_a_single_byte_sweep(tmp_path):
    """A cache is read only in the form it is written: of every file one
    byte away from the cache of rows 0..12, read_table plus check_p, as
    `cache check` runs them, refuses each, and passes the file itself."""
    path = tmp_path / "counts.csv"
    write_table(build_table(12), path)
    written = path.read_bytes()
    mutants = set(_single_byte_mutants(written)) - {written}
    assert len(mutants) > 3000
    passed = []
    for mutant in mutants:
        path.write_bytes(mutant)
        try:
            check_p(read_table(path))
        except CacheError:
            continue
        passed.append(mutant)
    assert passed == []
    path.write_bytes(written)
    check_p(read_table(path))


def test_concurrent_resumes_leave_a_valid_cache(tmp_path):
    path = tmp_path / "counts.csv"
    write_table(build_table(50), path)
    limits = (200, 300, 400, 500)
    start = threading.Barrier(len(limits), timeout=30)
    errors = []

    def resume(limit):
        start.wait()
        try:
            load_table(limit, path)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=resume, args=(limit,)) for limit in limits]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    table = read_table(path)
    assert table.limit in limits
    assert tables_equal(table, build_table(table.limit))
    assert [entry.name for entry in tmp_path.iterdir()] == ["counts.csv"]


def test_write_through_a_symlink_replaces_its_target(tmp_path):
    target = tmp_path / "counts.csv"
    link = tmp_path / "link.csv"
    write_table(build_table(10), target)
    link.symlink_to(target)
    load_table(40, link)
    assert link.is_symlink()
    assert read_table(target).limit == 40


def test_resolve_cache_path(monkeypatch, tmp_path):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    assert resolve_cache_path(None) is None
    assert resolve_cache_path(str(tmp_path / "a.csv")).name == "a.csv"
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env.csv"))
    assert resolve_cache_path(None).name == "env.csv"
    assert resolve_cache_path(str(tmp_path / "a.csv")).name == "a.csv"  # explicit wins
