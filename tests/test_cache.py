import errno
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nucleus import cache as cache_module
from nucleus.cache import (
    CACHE_ENV_VAR,
    CACHE_HEADER,
    CacheError,
    load_table,
    read_table,
    resolve_cache_path,
    write_table,
)
from nucleus.counting import build_table


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
    with pytest.raises(CacheError, match="contiguous"):
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


def test_non_ascii_byte_message(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_bytes(f"{CACHE_HEADER}\n0,0,1,1\n1,0,0,\u00e9\n".encode())
    with pytest.raises(CacheError) as exc:
        read_table(path)
    assert str(exc.value) == "byte at offset 27 is not ASCII"


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
