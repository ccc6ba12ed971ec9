"""Persistent CSV cache for the exact count table.

Format: a header line ``n,gamma,nu,p`` followed by one row per n,
contiguous from 0, values as decimal integers, LF line endings, no
trailing whitespace.  Loading reads the file as bytes and re-checks the
format and the difference identities row by row, refusing any file that
breaks them, so a cache can only resume from verified ground.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path

from .counting import CountTable, build_table, extend_table

CACHE_HEADER = "n,gamma,nu,p"
CACHE_ENV_VAR = "NUCLEUS_CACHE"


class CacheError(Exception):
    """A cache file could not be read or written, or failed validation; the
    message names the path's problem or the offending row."""


def resolve_cache_path(explicit: str | None) -> Path | None:
    """Explicit path if given, else the NUCLEUS_CACHE environment variable."""
    if explicit:
        return Path(explicit)
    env = os.environ.get(CACHE_ENV_VAR)
    return Path(env) if env else None


def write_table(table: CountTable, path: Path | str) -> None:
    """Write the table; byte-identical output for identical tables.

    The rows go to a new temporary file in the target's directory, which
    then replaces the target (the file a symlink points to) in one step,
    so a reader or a concurrent writer sees either the old file or the
    new one, never a mix.  A failed write leaves the old file as it was
    and removes the temporary file.
    """
    target = Path(os.path.realpath(path))
    temp = target.with_name(f".{target.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(temp, "x", encoding="ascii", newline="\n") as handle:
            # One row at a time: the text layer writes them out in fixed
            # 8 KB buffers, so the file's text is never held whole.
            handle.write(CACHE_HEADER + "\n")
            handle.writelines(f"{n},{table.gamma[n]},{table.nu[n]},{table.p[n]}\n"
                              for n in range(table.limit + 1))
        os.replace(temp, target)
    except OSError as exc:
        raise CacheError(f"cannot write {path}: {exc.strerror}") from None
    finally:
        with contextlib.suppress(OSError):
            os.remove(temp)


def _field(raw: bytes, line_no: int, name: str) -> int:
    # bytes.isdigit accepts ASCII 0-9 only, so int() never sees the signs,
    # spaces and underscores it would otherwise accept.
    if not raw.isdigit():
        raise CacheError(f"line {line_no}: {name} must be a nonnegative decimal integer, got {raw.decode()!r}")
    return int(raw)


def read_table(path: Path | str) -> CountTable:
    """Load and validate a cache file; raises CacheError naming the bad row,
    or saying why the file cannot be read."""
    try:
        # Read as bytes, so a CR stays in its field and a CR or CRLF file
        # fails the row checks instead of being read as LF.
        with open(path, "rb") as handle:
            data = handle.read()
        data.decode("ascii")  # only to name the first non-ASCII byte
    except UnicodeDecodeError as exc:
        raise CacheError(f"byte at offset {exc.start} is not ASCII") from None
    except OSError as exc:
        raise CacheError(f"cannot read {path}: {exc.strerror}") from None
    lines = data.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    if not lines or lines[0] != CACHE_HEADER.encode():
        # The first line is cut short: a file with no LF at all is one line.
        raise CacheError(f"expected header {CACHE_HEADER!r}, got {lines[0][:40].decode()!r}" if lines
                         else "empty cache file")
    if len(lines) == 1:
        raise CacheError("cache has a header but no rows (row for n=0 is required)")
    p: list[int] = []
    nu: list[int] = []
    gamma: list[int] = []
    for line_no, line in enumerate(lines[1:], start=2):
        fields = line.split(b",")
        if len(fields) != 4:
            raise CacheError(f"line {line_no}: expected 4 comma-separated fields, got {len(fields)}")
        n = _field(fields[0], line_no, "n")
        expected = line_no - 2
        if n != expected:
            raise CacheError(f"line {line_no}: rows must be contiguous from 0, expected n={expected}, got n={n}")
        g = _field(fields[1], line_no, "gamma")
        v = _field(fields[2], line_no, "nu")
        q = _field(fields[3], line_no, "p")
        if n == 0:
            if (g, v, q) != (0, 1, 1):
                raise CacheError(f"row n=0 must be 0,1,1, got {g},{v},{q}")
        else:
            if v != q - p[n - 1]:
                raise CacheError(f"row n={n}: nu must equal p(n) - p(n-1) = {q - p[n - 1]}, got {v}")
            if n < 3:
                if g != 0:
                    raise CacheError(f"row n={n}: gamma must be 0 below n=3, got {g}")
            elif g != v - nu[n - 1]:
                raise CacheError(f"row n={n}: gamma must equal nu(n) - nu(n-1) = {v - nu[n - 1]}, got {g}")
        gamma.append(g)
        nu.append(v)
        p.append(q)
    return CountTable(limit=len(p) - 1, p=p, nu=nu, gamma=gamma)


def load_table(limit: int, path: Path | str | None) -> CountTable:
    """Table covering at least ``limit``, resuming from the cache when given.

    A missing file means a fresh build; a valid shorter file is extended
    and rewritten; a longer file is used as is.  Extension equals a fresh
    build value for value.
    """
    if path is None:
        return build_table(limit)
    path = Path(path)
    if not path.exists():
        table = build_table(limit)
        write_table(table, path)
        return table
    table = read_table(path)
    if table.limit < limit:
        table = extend_table(table, limit)
        write_table(table, path)
    return table
