"""Persistent CSV cache for the exact count table.

Format: a header line ``n,gamma,nu,p`` followed by one row for each of
n = 0, 1, 2, ... in order, values as decimal integers without leading
zeros, an LF after every line, the last included, no trailing
whitespace.  A cache is read only in the form it is written: loading
reads the file one line at a time, as bytes, re-checks the format row by
row and compares each row with the one row its p implies (nu and gamma
are p's first and second differences), refusing any file that breaks
them, so a cache can only resume from verified ground.  The file's text
is never held whole, and a loaded table holds its p column alone: nu and
gamma are computed from p when read.
``check_p``, which ``cache check`` adds, checks p itself, mod a prime.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path

from .congruence import p_mod_m_table
from .counting import CountTable, build_table, extend_table

CACHE_HEADER = "n,gamma,nu,p"
CACHE_ENV_VAR = "NUCLEUS_CACHE"

# The modulus of ``check_p``: the largest prime below 2^26, small enough for
# the blocked kernel's 8-byte lanes, so p mod it is not computed by the
# recurrence that built the table (``counting._extend_p``) beyond row 511.
CHECK_MODULUS = 67_108_859

# Rows written at a time: each slice reads the table's nu and gamma once,
# and the slice's values stay a small part of the file.
_WRITE_SLICE_ROWS = 128


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
            # One slice of rows at a time, so the file's text is never held
            # whole.
            handle.write(CACHE_HEADER + "\n")
            for lo in range(0, table.limit + 1, _WRITE_SLICE_ROWS):
                hi = lo + _WRITE_SLICE_ROWS
                handle.write("".join([f"{n},{g},{v},{q}\n" for n, g, v, q in zip(
                    range(lo, hi), table.gamma[lo:hi], table.nu[lo:hi], table.p[lo:hi])]))
        os.replace(temp, target)
    except OSError as exc:
        raise CacheError(f"cannot write {path}: {exc.strerror}") from None
    finally:
        with contextlib.suppress(OSError):
            os.remove(temp)


def _field(raw: bytes, line_no: int, name: str) -> int:
    # bytes.isdigit accepts ASCII 0-9 only, so int() never sees the signs,
    # spaces and underscores it would otherwise accept; and a field is
    # written without leading zeros (48 is the byte of "0").  A message
    # quotes the field's first 40 characters: p(n) may have thousands.
    if not raw.isdigit():
        raise CacheError(f"line {line_no}: {name} must be a nonnegative decimal integer, got {raw[:40].decode()!r}")
    if raw[0] == 48 and len(raw) > 1:
        raise CacheError(f"line {line_no}: {name} must have no leading zero, got {raw[:40].decode()!r}")
    return int(raw)


def _abbrev(value: int) -> str:
    """value whole if it has at most 20 digits, else its first 8 characters
    and its digit count, which still shows one digit too many or too few."""
    text = str(value)
    digits = len(text.lstrip("-"))
    return text if digits <= 20 else f"{text[:8]}...({digits} digits)"


def _ascii_lines(handle):
    """The handle's lines one at a time, each checked to be ASCII and
    ending in its LF, but for a last line that lacks one."""
    offset = 0
    for line in handle:
        if not line.isascii():
            bad = offset + next(i for i, byte in enumerate(line) if byte > 0x7F)
            raise CacheError(f"byte at offset {bad} is not ASCII") from None
        offset += len(line)
        yield line


def read_table(path: Path | str) -> CountTable:
    """Load and validate a cache file; raises CacheError naming the bad row,
    or saying why the file cannot be read.

    Every row's nu and gamma are parsed and checked against p, but only p
    and the previous row's nu are kept: the table is its p column, and its
    nu and gamma are views of p (``counting.CountTable``)."""
    try:
        # Read as bytes, so a CR stays in its field and a CR or CRLF file
        # fails the row checks instead of being read as LF.
        with open(path, "rb") as handle:
            lines = _ascii_lines(handle)
            try:
                return _parse_rows(lines)
            except CacheError:
                # A non-ASCII byte anywhere in the file is reported ahead
                # of a row error, so check the lines the rows left unread.
                for _ in lines:
                    pass
                raise
    except OSError as exc:
        raise CacheError(f"cannot read {path}: {exc.strerror}") from None


def _parse_rows(lines) -> CountTable:
    header = next(lines, None)
    if header is None:
        raise CacheError("empty cache file")
    # Its LF goes unchecked: a header that lacks one has no rows after it,
    # which is refused below.
    header = header.removesuffix(b"\n")
    if header != CACHE_HEADER.encode():
        # The first line is cut short: a file with no LF at all is one line.
        raise CacheError(f"expected header {CACHE_HEADER!r}, got {header[:40].decode()!r}")
    p: list[int] = []
    nu = last = 0  # nu(n-1) and p(n-1)
    for n, line in enumerate(lines):
        fields = line.removesuffix(b"\n").split(b",")
        if len(fields) != 4:
            raise CacheError(f"line {n + 2}: expected 4 comma-separated fields, got {len(fields)}")
        got = _field(fields[0], n + 2, "n")
        g = _field(fields[1], n + 2, "gamma")
        v = _field(fields[2], n + 2, "nu")
        q = _field(fields[3], n + 2, "p")
        # The one row this p implies, in the order n, nu, gamma, p: nu(0) = 1,
        # gamma = 0 below n = 3 and p(0) = 1.  nu is compared first, so a
        # wrong p is reported at its own row's nu.
        want = (n, d := q - last, d - nu if n > 2 else 0, q) if n else (0, 1, 0, 1)
        if (got, v, g, q) != want:
            name, w, x = next(t for t in zip(("n", "nu", "gamma", "p"), want, (got, v, g, q)) if t[1] != t[2])
            raise CacheError(f"row n={n}: {name} must be {_abbrev(w)}, got {_abbrev(x)}")
        if not line.endswith(b"\n"):  # only the last line can lack it
            raise CacheError(f"line {n + 2}: the last row must end in LF")
        nu, last = v, q
        p.append(q)
    if not p:
        raise CacheError("cache has a header but no rows (row for n=0 is required)")
    return CountTable(p)


def check_p(table: CountTable) -> None:
    """Raise CacheError naming the first row whose p differs, mod
    ``CHECK_MODULUS``, from ``congruence.p_mod_m_table``.  ``read_table``
    checks nu and gamma against p but cannot tell a wrong p."""
    residues = p_mod_m_table(table.limit, CHECK_MODULUS)
    for n, (q, r) in enumerate(zip(table.p, residues)):
        if q % CHECK_MODULUS != r:
            raise CacheError(f"row n={n}: p mod {CHECK_MODULUS} must be {r}, got {q % CHECK_MODULUS}")


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
