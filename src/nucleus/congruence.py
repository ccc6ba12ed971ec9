"""Congruence families of the partition counts, checked by sweep.

The classical Ramanujan congruences

    p(5n+4) = 0 (mod 5),  p(7n+5) = 0 (mod 7),  p(11n+6) = 0 (mod 11)

propagate to the restricted counts.  Writing (m, b) for the modulus and
progression offset, e = mn+b, and using that p is the running sum of nu:

  * nu window: the m consecutive values nu(e-m+1) .. nu(e) sum to
    p(e) - p(e-m), so the window sum is 0 mod m for n >= 1.
    For m = 5 this window is exactly nu(5n) .. nu(5n+4); shorter windows
    quoted for 7 and 11 fail numerically (for example nu(7)+...+nu(12) =
    66, not divisible by 7) and are not used here.
  * no-part-m progression: nu_m(e) = p(e) - p(e-m) = 0 mod m for n >= 1.
  * weighted gamma: expanding each nu in the window through the gamma
    recursion nu(j) = nu(j-1) + gamma(j) (j >= 3) gives, with s = e-m+1,
        sum_{t=1..m-1} t * gamma(s+t) = m * (p(e) - p(e-1)) - (p(e) - p(e-m)),
    which is 0 (mod m) for n >= 1.  For m = 5 the sum reads gamma(5n+1)
    + 2 gamma(5n+2) + 3 gamma(5n+3) + 4 gamma(5n+4).  At n = 0 the mod-5
    sum is 4, so the family starts at n = 1.

So every family is a difference of p, and every check reads only p(n) mod m
(``p_mod_m_table``), never the exact table.  The derived families start at
n = 1, the Ramanujan families themselves at n = 0.
"""

from __future__ import annotations

import sys
from array import array
from typing import NamedTuple, Sequence

from .counting import (
    _LANE_CODES,
    CountTable,
    _check_range,
    _extend_p,
    _lane_bytes,
    _pack,
    _unpack,
    pentagonal_offsets,
)

RAMANUJAN_PROGRESSIONS: dict[int, tuple[int, int]] = {5: (5, 4), 7: (7, 5), 11: (11, 6)}

# Residues per block of p_mod_m_table; of 512, 768, 1024 and 2048, 512 was the fastest.
_BLOCK = 512


class CongruenceFamily(NamedTuple):
    """One congruence family: arguments a*n + b checked modulo ``modulus``."""

    family_id: str
    modulus: int
    progression: tuple[int, int]
    start_n: int


class CongruenceReport(NamedTuple):
    """Sweep outcome: empty violations iff the family held on the range."""

    family: CongruenceFamily
    range_checked: tuple[int, int]
    violations: list[tuple[int, int]]

    @property
    def passed(self) -> bool:
        return not self.violations


def _lane_plan(offsets: list[tuple[int, int]], modulus: int) -> tuple[int, int | None, int | None]:
    """For ``p_mod_m_table``: the bias every accumulator lane starts at, and
    the lane widths in bytes of the accumulators and of the block product
    (None where 8 bytes are too few)."""
    minus = sum(sign < 0 for _, sign in offsets)
    bias = -(-minus * (modulus - 1) // modulus) * modulus
    peak = bias + len(offsets) * (modulus - 1)
    return bias, _lane_bytes(peak), _lane_bytes(_BLOCK * (modulus - 1) ** 2)


def _residue_code(modulus: int) -> str | None:
    """The narrowest unsigned array typecode that holds ``modulus`` - 1, or
    None where 8 bytes are too few."""
    return next((code for code in "BHIQ" if (modulus - 1) >> 8 * array(code).itemsize == 0), None)


def p_mod_m_table(limit: int, modulus: int) -> array | list[int]:
    """Residues p(n) mod ``modulus`` for n = 0..limit, exactly, in O(limit)
    bytes and with the standard library alone.

    The residues come back as an ``array.array`` of the narrowest unsigned
    type that holds ``modulus`` - 1 (``_residue_code``): one byte per residue
    up to modulus 256, then 2, 4 and 8.  A modulus above 2^64 gets a list.

    The pentagonal recurrence, run a block of B = _BLOCK residues at a
    time.  Given p(0..s-1), the block b = p(s..s+B-1) solves E*b = R
    (mod x^B), where E(x) = sum (-1)^k x^(k(3k+-1)/2) is Euler's sparse
    product and R_t sums, with the recurrence signs, the terms p(s+t-g)
    that reach back before the block.  As 1/E = P, the block is
    b = P[:B] * R (mod x^B).  ``_extend_p`` computes the first block,
    p(0..B-1), which is also P[:B]; the last block stops at ``limit``.

    R is scattered, not gathered.  Block j's accumulator holds the lanes
    jB..jB+2B-1 of one integer, and R for block j is its low half plus the
    high half of block j-1's, added after unpacking.  A finished block
    p(s..s+B-1) is packed into one integer once, and for each pentagonal
    offset g it is added, with g's sign and shifted by g mod B lanes, into
    the accumulator of the block that lane s+g falls in.  Where g < B, the
    lanes that land inside the block itself are its own P[:B] * R product,
    so only their spill into the next block is kept.  Every lane starts at a
    bias: a multiple of the modulus, so counting it twice changes nothing
    mod m, and no smaller than (m-1) times the number of minus offsets.  A
    lane receives each of its plus and minus terms, all in [0, m-1], at most
    once, so it stays within [0, bias + (m-1) * len(offsets)], the width
    that ``_lane_plan`` sizes: no lane ever borrows or carries.  R is
    reduced mod m, and one big-integer product with P[:B], in lanes wide
    enough for B * (m-1)^2, gives the block, reduced lane by lane.  The
    returned array is allocated whole at the start and each block is
    copied into its slice; the next block is packed from the plain list
    of the one before.

    Where 8-byte lanes are too narrow (moduli above about 9.5e7), or on a
    big-endian host, ``_extend_p`` runs the whole recurrence instead, one
    n at a time, each a sum of the terms that n reaches, gathered by one
    ``itemgetter`` per stretch between pentagonal numbers, into a list
    that is copied into an array once at the end.
    """
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    kind = _residue_code(modulus)
    offsets = pentagonal_offsets(limit)
    bias, width, wide = _lane_plan(offsets, modulus)
    if wide is None or sys.byteorder != "little":
        values = _extend_p([1 % modulus], limit, modulus)
        return values if kind is None else array(kind, values)
    code, wide_code = _LANE_CODES[width], _LANE_CODES[wide]
    block, wrap = _BLOCK, 8 * width * _BLOCK
    values = _extend_p([1 % modulus], min(limit, block - 1), modulus)
    series = _pack(values, wide_code)
    residues = array(kind, [0]) * (limit + 1)
    residues[:block] = array(kind, values)
    pending = [_pack([bias] * 2 * block, code)] * (limit // block + 1)
    reach = [(g // block, 8 * width * (g % block), sign) for g, sign in offsets]
    for j, s in enumerate(range(block, limit + 1, block)):
        done = _pack(values, code)
        for k, shift, sign in reach:
            if (k := k + j) >= len(pending):
                break
            term = done << shift if k > j else done >> wrap - shift << wrap
            if sign > 0:
                pending[k] += term
            else:
                pending[k] -= term
        size = min(block, limit + 1 - s)
        low, high = _unpack(pending[j + 1], code, size), _unpack(pending[j] >> wrap, code, size)
        reduced = _pack([(x + y) % modulus for x, y in zip(low, high)], wide_code)
        values = [v % modulus for v in _unpack(reduced * series, wide_code, size)]
        residues[s:s + size] = array(kind, values)
        pending[j] = None
    return residues


# Each family's value at e = a*n + b, read from p, or p mod m, and m.
_VALUES = {
    "custom": lambda p, m, e: p[e],
    "ramanujan": lambda p, m, e: p[e],
    "nu_window": lambda p, m, e: p[e] - p[e - m],
    "nu_k_progression": lambda p, m, e: p[e] - p[e - m],
    "gamma_weighted": lambda p, m, e: m * (p[e] - p[e - 1]) - (p[e] - p[e - m]),
}


def _check(family: CongruenceFamily, limit_n: int, residues: Sequence[int] | None) -> CongruenceReport:
    """Scan the family on p mod m, computed up to its last argument or checked
    for length: the nonzero residues of its value at a*n + b, for n from the
    family's start to ``limit_n``, are the violations."""
    a, b = family.progression
    m = family.modulus
    top = a * limit_n + b
    if residues is None:
        residues = p_mod_m_table(top, m)
    elif len(residues) <= top:
        raise ValueError(f"residue table too short: need index {top}, have {len(residues) - 1}")
    value = _VALUES[family.family_id]
    violations = []
    for n in range(family.start_n, limit_n + 1):
        r = value(residues, m, a * n + b) % m
        if r:
            violations.append((n, r))
    return CongruenceReport(family, (family.start_n, limit_n), violations)


def check_progression(a: int, b: int, modulus: int, limit_n: int, *,
                      residues: Sequence[int] | None = None) -> CongruenceReport:
    """Check p(a*n + b) = 0 (mod modulus) for n = 0..limit_n."""
    if a < 1 or b < 0:
        raise ValueError(f"progression must have a >= 1 and b >= 0, got ({a}, {b})")
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    return _check(CongruenceFamily("custom", modulus, (a, b), 0), limit_n, residues)


def _known(family_id: str, modulus: int, start_n: int) -> CongruenceFamily:
    if modulus not in RAMANUJAN_PROGRESSIONS:
        raise ValueError(f"modulus must be one of {sorted(RAMANUJAN_PROGRESSIONS)}, got {modulus}")
    return CongruenceFamily(family_id, modulus, RAMANUJAN_PROGRESSIONS[modulus], start_n)


def check_ramanujan(modulus: int, limit_n: int, *, residues: Sequence[int] | None = None) -> CongruenceReport:
    """Check the Ramanujan progression for modulus 5, 7 or 11 up to n = limit_n."""
    return _check(_known("ramanujan", modulus, 0), limit_n, residues)


def check_nu_window(modulus: int, limit_n: int, *, residues: Sequence[int] | None = None) -> CongruenceReport:
    """Check the m-term nu window ending at e = m*n+b, p(e) - p(e-m), for n = 1..limit_n."""
    return _check(_known("nu_window", modulus, 1), limit_n, residues)


def check_nu_k_progression(modulus: int, limit_n: int, *, residues: Sequence[int] | None = None) -> CongruenceReport:
    """Check nu_m(e) = p(e) - p(e-m) = 0 (mod m), e = m*n+b, for n = 1..limit_n."""
    return _check(_known("nu_k_progression", modulus, 1), limit_n, residues)


def check_gamma_weighted(modulus: int, limit_n: int, *, residues: Sequence[int] | None = None) -> CongruenceReport:
    """Check sum_{t=1..m-1} t * gamma(e-m+1+t) = m*(p(e) - p(e-1)) - (p(e) - p(e-m)) = 0 (mod m), n >= 1."""
    return _check(_known("gamma_weighted", modulus, 1), limit_n, residues)


def parity_via_gamma(n: int, table: CountTable) -> int:
    """Parity of p(n) for even n >= 4, as sum of gamma over even 4..n, mod 2.

    The weighted-gamma expansion of p(n) reduces mod 2 to this sum when n
    is even; odd n is rejected.
    """
    if n % 2 or n < 4:
        raise ValueError(f"the gamma parity sum is defined for even n >= 4, got {n}")
    _check_range(n, table)
    return sum(table.gamma[4 : n + 1 : 2]) % 2
