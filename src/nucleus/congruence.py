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
from dataclasses import dataclass
from functools import partial

from .counting import CountTable, _extend_p, pentagonal_offsets

RAMANUJAN_PROGRESSIONS: dict[int, tuple[int, int]] = {5: (5, 4), 7: (7, 5), 11: (11, 6)}

# Residues per block of p_mod_m_table; of 1024, 2048 and 4096, 2048 was the fastest.
_BLOCK = 2048
# Lane width in bytes -> an unsigned array typecode of that item size.
_LANE_CODES = {array(code).itemsize: code for code in "LQHI"}


@dataclass(frozen=True)
class CongruenceFamily:
    """One congruence family: arguments a*n + b checked modulo ``modulus``."""

    family_id: str
    modulus: int
    progression: tuple[int, int]
    start_n: int


@dataclass
class CongruenceReport:
    """Sweep outcome: empty violations iff the family held on the range."""

    family: CongruenceFamily
    range_checked: tuple[int, int]
    violations: list[tuple[int, int]]

    @property
    def passed(self) -> bool:
        return not self.violations


def _lane_bytes(value: int) -> int | None:
    """The fewest bytes, out of 2, 4 and 8, in which ``value`` fits."""
    return next((width for width in (2, 4, 8) if value >> 8 * width == 0), None)


def _lane_plan(offsets: list[tuple[int, int]], modulus: int) -> tuple[int, int | None, int | None]:
    """For ``p_mod_m_table``: the per-lane bias of R, and the lane widths in
    bytes of R and of the block product (None where 8 bytes are too few)."""
    minus = sum(sign < 0 for _, sign in offsets)
    bias = -(-minus * (modulus - 1) // modulus) * modulus
    peak = bias + len(offsets) * (modulus - 1)
    return bias, _lane_bytes(peak), _lane_bytes(_BLOCK * (modulus - 1) ** 2)


def _pack(values, code: str) -> int:
    """``values`` as the little-endian lanes of one integer."""
    return int.from_bytes(array(code, values), "little")


def _unpack(value: int, code: str, count: int) -> array:
    """The lowest ``count`` lanes of ``value``."""
    size = count * array(code).itemsize
    return array(code, (value & ((1 << 8 * size) - 1)).to_bytes(size, "little"))


def p_mod_m_table(limit: int, modulus: int) -> list[int]:
    """Residues p(n) mod ``modulus`` for n = 0..limit, exactly, in O(limit)
    bytes and with the standard library alone.

    The pentagonal recurrence, run a block at a time.  Given p(0..s-1),
    the block b = p(s..s+B-1) solves E*b = R (mod x^B), where E(x) =
    sum (-1)^k x^(k(3k+-1)/2) is Euler's sparse product and R_t sums, with
    the recurrence signs, the terms p(s+t-g) that reach back before the
    block.  As 1/E = P, the block is b = P[:B] * R (mod x^B).  B doubles
    from 1 up to _BLOCK, so P[:B] is always known, and the last block
    stops at ``limit``.

    The residues are kept as fixed-width little-endian lanes of a
    bytearray.  R is one slice of it per pentagonal offset, shifted into
    place and added onto a per-lane bias: a multiple of the modulus no
    smaller than any lane's sum of minus terms, so no lane ever borrows.
    R is reduced mod m, and one big-integer product with P[:B], in lanes
    wide enough for B * (m-1)^2, gives the block, reduced lane by lane.
    Where 8-byte lanes are too narrow (moduli above about 9.5e7), or on a
    big-endian host, ``_extend_p`` runs the recurrence one term at a time
    instead.
    """
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    residues = [1 % modulus]
    offsets = pentagonal_offsets(limit)
    bias, width, wide = _lane_plan(offsets, modulus)
    if wide is None or sys.byteorder != "little":
        return _extend_p(residues, limit, modulus)
    code, wide_code = _LANE_CODES[width], _LANE_CODES[wide]
    lanes = bytearray(array(code, residues))
    while (s := len(residues)) <= limit:
        size = min(s, _BLOCK, limit + 1 - s)
        acc = _pack([bias] * size, code)
        with memoryview(lanes) as view:
            for g, sign in offsets:
                if g >= s + size:
                    break
                lo = max(0, g - s)
                # the view ends at p(s-1), so the slice stops there when g < size
                term = int.from_bytes(view[(s + lo - g) * width:(s + size - g) * width], "little")
                if sign > 0:
                    acc += term << 8 * width * lo
                else:
                    acc -= term << 8 * width * lo
        reduced = [v % modulus for v in _unpack(acc, code, size)]
        product = _pack(reduced, wide_code) * _pack(residues[:size], wide_code)
        block = array(code, [v % modulus for v in _unpack(product, wide_code, size)])
        lanes += block
        residues.extend(block)
    return residues


def _scan(family: CongruenceFamily, limit_n: int, value) -> CongruenceReport:
    """Residues mod the family's modulus of ``value(a*n + b)`` for n from
    the family's start to ``limit_n``; the nonzero ones are violations."""
    a, b = family.progression
    violations = []
    for n in range(family.start_n, limit_n + 1):
        r = value(a * n + b) % family.modulus
        if r:
            violations.append((n, r))
    return CongruenceReport(family, (family.start_n, limit_n), violations)


# Each family's value at e = a*n + b, read from p, or p mod m, and m.
_VALUES = {
    "custom": lambda p, m, e: p[e],
    "ramanujan": lambda p, m, e: p[e],
    "nu_window": lambda p, m, e: p[e] - p[e - m],
    "nu_k_progression": lambda p, m, e: p[e] - p[e - m],
    "gamma_weighted": lambda p, m, e: m * (p[e] - p[e - 1]) - (p[e] - p[e - m]),
}


def _check(family: CongruenceFamily, limit_n: int, residues: list[int] | None) -> CongruenceReport:
    """Scan the family on p mod m up to its last argument, computed or checked for length."""
    a, b = family.progression
    top = a * limit_n + b
    if residues is None:
        residues = p_mod_m_table(top, family.modulus)
    elif len(residues) <= top:
        raise ValueError(f"residue table too short: need index {top}, have {len(residues) - 1}")
    return _scan(family, limit_n, partial(_VALUES[family.family_id], residues, family.modulus))


def check_progression(a: int, b: int, modulus: int, limit_n: int, *,
                      residues: list[int] | None = None) -> CongruenceReport:
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


def check_ramanujan(modulus: int, limit_n: int, *, residues: list[int] | None = None) -> CongruenceReport:
    """Check the Ramanujan progression for modulus 5, 7 or 11 up to n = limit_n."""
    return _check(_known("ramanujan", modulus, 0), limit_n, residues)


def check_nu_window(modulus: int, limit_n: int, *, residues: list[int] | None = None) -> CongruenceReport:
    """Check the m-term nu window ending at e = m*n+b, p(e) - p(e-m), for n = 1..limit_n."""
    return _check(_known("nu_window", modulus, 1), limit_n, residues)


def check_nu_k_progression(modulus: int, limit_n: int, *, residues: list[int] | None = None) -> CongruenceReport:
    """Check nu_m(e) = p(e) - p(e-m) = 0 (mod m), e = m*n+b, for n = 1..limit_n."""
    return _check(_known("nu_k_progression", modulus, 1), limit_n, residues)


def check_gamma_weighted(modulus: int, limit_n: int, *, residues: list[int] | None = None) -> CongruenceReport:
    """Check sum_{t=1..m-1} t * gamma(e-m+1+t) = m*(p(e) - p(e-1)) - (p(e) - p(e-m)) = 0 (mod m), n >= 1."""
    return _check(_known("gamma_weighted", modulus, 1), limit_n, residues)


def parity_via_gamma(n: int, table: CountTable) -> int:
    """Parity of p(n) for even n >= 4, as sum of gamma over even 4..n, mod 2.

    The weighted-gamma expansion of p(n) reduces mod 2 to this sum when n
    is even; odd n is rejected.
    """
    if n % 2 or n < 4:
        raise ValueError(f"the gamma parity sum is defined for even n >= 4, got {n}")
    if n > table.limit:
        raise ValueError(f"n={n} exceeds the table limit {table.limit}")
    return sum(table.gamma[4 : n + 1 : 2]) % 2
