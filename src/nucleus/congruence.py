"""Congruence families of the partition counts, checked by sweep.

The classical Ramanujan congruences

    p(5n+4) = 0 (mod 5),  p(7n+5) = 0 (mod 7),  p(11n+6) = 0 (mod 11)

and any other p(An+B) = 0 (mod M), such as Atkin's p(17303n+237) = 0
(mod 13), propagate to the restricted counts.  Writing e = An+B and using
that p is the running sum of nu, the derived families are differences of
p over the step A, not over the modulus M:

  * nu window: the A consecutive values nu(e-A+1) .. nu(e) sum to
    p(e) - p(e-A), so the window sum is 0 mod M for n >= 1.
    For 5n+4 this window is exactly nu(5n) .. nu(5n+4); shorter windows
    quoted for 7 and 11 fail numerically (for example nu(7)+...+nu(12) =
    66, not divisible by 7) and are not used here.  On Atkin's
    progression the window of 17303 terms holds at n = 1..19, and the
    one of 13 terms fails at 18 of them.
  * no-part-A progression: nu_A(e) = p(e) - p(e-A) = 0 mod M for n >= 1.
  * weighted gamma: expanding each nu in the window through the gamma
    recursion nu(j) = nu(j-1) + gamma(j) (j >= 3) gives, with s = e-A+1,
        sum_{t=1..A-1} t * gamma(s+t) = A * (p(e) - p(e-1)) - (p(e) - p(e-A)),
    which is 0 (mod M) for n >= 1 when M divides A, and only then is the
    family checked.  For 5n+4 the sum reads gamma(5n+1) + 2 gamma(5n+2)
    + 3 gamma(5n+3) + 4 gamma(5n+4).  At n = 0 the mod-5 sum is 4, so the
    family starts at n = 1.  Where the window starts at nu(1) (B = 0,
    n = 1), the step nu(1) -> nu(2) is 1 but gamma(2) is 0, so the sum is
    one less than the difference, and the family's value subtracts it.

So every family is a difference of p, and every check reads only p(n) mod M
(``p_mod_m_table``), never the exact table.  ``FAMILIES`` holds each
family's first n and its value at e; ``check_family`` scans any of them on
any progression.  The derived families start at n = 1, so e - A >= 0;
the Ramanujan family, and ``custom``, the same value under its own name,
start at n = 0.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from math import isqrt
from typing import Callable, NamedTuple, Sequence

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

# Residues per block of p_mod_m_table, timed with its superblock scatter: 384 and 640 are within noise
# of 512 on the three benchmark kernels (m = 5, 7, 11) and take 1.07x and 1.1x at (1,100,006, 11); 768
# and 1024 take 1.16x and 1.32x on the kernels, and 1024 1.5x at 1,100,006: above B = 655, the product
# lanes at m = 11 are 4 bytes wide.
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


def _span(limit: int) -> int:
    """Residues per superblock of ``p_mod_m_table`` up to ``limit``: L =
    max(1, isqrt(limit // B) // 2) blocks of B = _BLOCK, 7 at limit
    110,006 and 23 at 1,100,006."""
    return _BLOCK * max(1, isqrt(limit // _BLOCK) // 2)


def _lane_plan(offsets: list[tuple[int, int]], modulus: int) -> tuple[int, int | None, int | None]:
    """For ``p_mod_m_table``: how many terms an accumulator takes between two
    reductions mod m, and the lane widths in bytes of the accumulators and of
    the block product (None where 8 bytes are too few).

    A lane holds at most m - 1 after a reduction, and each term adds at most
    m, so one-byte lanes take room = (256 - m) // m terms, the most with
    (m - 1) + room * m <= 255.  They are used where room >= 11, m <= 21.
    Wider lanes are never reduced: a lane takes at most one term per offset,
    so they are sized for len(offsets) * m, and their room exceeds that.
    They hold m at least, the lanes of the complements' ``full``, even at
    limit 0, where there is no offset."""
    room, wide = (256 - modulus) // modulus, _lane_bytes(_BLOCK * (modulus - 1) ** 2)
    if room >= 11:
        return room, 1, wide
    return len(offsets) + 1, _lane_bytes(max(len(offsets), 1) * modulus), wide


def _reach(offsets: list[tuple[int, int]], room: int, width: int,
           span: int) -> list[tuple[int, bool, list[int], list[int]]]:
    """For ``p_mod_m_table``, which adds each finished stretch of ``span``
    residues, for each pentagonal offset g, shifted by g mod span lanes into
    the accumulator g // span stretches ahead: the offsets as runs, each
    with that reach d, whether the accumulator is reduced before the run,
    and the shifts in bits of its plus and of its minus offsets, by d and
    then by g.  An accumulator takes its terms farthest stretch first, by g
    within a stretch, and one near the start takes a suffix of that order,
    so reducing before every room-th term of the order leaves at most room
    after each.  A run ends where a reduction falls, so its terms may come
    in any order."""
    due = set(sorted(range(len(offsets)), key=lambda i: offsets[i][0] // span, reverse=True)[room::room])
    runs: list[tuple[int, bool, list[int], list[int]]] = []
    for i, (g, sign) in enumerate(offsets):
        if not runs or runs[-1][0] != g // span or i in due:
            runs.append((g // span, i in due, [], []))
        runs[-1][2 + (sign < 0)].append(8 * width * (g % span))
    return runs


def _scatter(pending: list, first: int, runs: list, plus: Callable[[int], int], minus: Callable[[int], int],
             tables: list[bytes]) -> None:
    """Add the terms of ``runs`` (``_reach``) into the accumulators
    ``pending[first + d]`` that exist, cut by one ``bisect``: ``plus`` and
    ``minus`` turn a shift into the term, a finished stretch or its
    complement shifted.  Where a run asks, its accumulator, in one-byte
    lanes, is first reduced mod m through ``tables[0]``, b -> b mod m."""
    for ahead, reduce, plus_shifts, minus_shifts in runs[:bisect_left(runs, (len(pending) - first,))]:
        total = pending[first + ahead]
        if reduce:
            raw = total.to_bytes((total.bit_length() + 7) // 8, "little")
            total = int.from_bytes(raw.translate(tables[0]), "little")
        pending[first + ahead] = total + sum(map(minus, minus_shifts), sum(map(plus, plus_shifts)))


def _fold(packed: tuple[int, ...], width: int, modulus: int, tables: list[bytes],
          total: Sequence[int]) -> Sequence[int]:
    """``total``, one residue per lane, plus the lane-by-lane sum mod
    ``modulus`` of as many lanes, ``width`` bytes each, of the integers in
    ``packed``: both reductions of ``p_mod_m_table``.  With ``tables``, up
    to m = 128, the residues are bytes: byte plane i of each integer maps
    through ``tables[i]``, b -> (b << 8i) mod m, and joins the sum as
    one-byte lanes; each sum is at most 2(m - 1) < 256, and is reduced
    again, so a lane may hold anything.  Without, above m = 128,
    ``total`` is packed and added to the integers, whose lane sums, the
    residue included, must then fit in ``width`` bytes, as the kernel's
    never-reduced lanes' do, and each lane is reduced alone, into a list:
    a zero ``total`` costs one big-integer add, not one per lane."""
    count = len(total)
    if not tables:
        return [x % modulus for x in _unpack(sum(packed, _pack(total, width)), width, count)]
    size = count * width
    for value in packed:
        raw = (value & (1 << 8 * size) - 1).to_bytes(size, "little")
        for i in range(width):
            plane = int.from_bytes(raw[i::width].translate(tables[i]), "little")
            total = (int.from_bytes(total, "little") + plane).to_bytes(count, "little").translate(tables[0])
    return total


def _residue_code(modulus: int) -> str | None:
    """The code of ``_LANE_CODES`` of the narrowest lane that holds
    ``modulus`` - 1, or None where 8 bytes are too few; as an array
    typecode its item is at least that wide."""
    return next((code for width, code in _LANE_CODES.items() if (modulus - 1) >> 8 * width == 0), None)


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

    R is scattered, not gathered, in two parts: by the near offsets g < S
    and by the far ones, where a superblock holds S = L B residues, L
    blocks, L set by ``_span`` from the limit.  Each finished stretch, a
    block for the near offsets and a superblock for the far ones, is
    packed into one integer once, and its complement, m - p(n) in every
    lane, once more as m in every lane minus it.  For each offset the
    stretch, or for a minus offset its complement, is added, shifted by g
    mod B (or mod S) lanes, into the accumulator of the stretch that lane
    s+g falls in: stretch j's accumulator holds the lanes of stretches j
    and j+1, and nothing is ever subtracted.  ``_reach`` lists each part's
    offsets as runs by the stretches they reach ahead, and ``_scatter``
    adds a run's terms with one ``sum`` over ``map``, no bytecode run per
    term; one ``bisect`` per stretch drops the runs that reach past the
    last accumulator.  Where g < B the lanes that land inside the block
    itself are its own P[:B] * R product, so a block keeps only their
    spill: its top lanes, shifted right into the high half of its own
    accumulator, which the next block reads.  A term adds at most m to a
    lane, and a lane takes at most one term per offset.

    When a superblock starts, its far part, the low half of its
    accumulator plus the high half of the previous one, is reduced once to
    S residues.  R for a block is its slice of that, plus its near part:
    the low half of its block accumulator plus the high half of the
    previous block's.  At limit 110,006 (L = 7, m = 11) the two parts
    take 20,632 shift-adds of about 1 KB and 8,462 of about 7 KB, where
    scattering every offset a block at a time took 77,682 of 1 KB: about
    as many bytes in 37% of the operations.  The far part moves the same
    bytes whatever L is, so L only trades per-operation costs: from L = 4
    to 28 at limit 110,006 and from 8 to 32 at 1,100,006 the times were
    within their noise.

    For m <= 21 the lanes are one byte (``_lane_plan``), and an accumulator
    is reduced mod m, one ``bytes.translate`` through b -> b mod m, before
    every room-th term it takes, room = (256 - m) // m, so no lane passes
    255.  In each part every accumulator takes its terms in one order,
    farthest stretch first and by g within a stretch, and one near the
    start takes a suffix of it, so which terms come after a reduction is
    fixed per offset.  Wider lanes, sized for len(offsets) * m, are never
    reduced.  No lane ever carries.

    Every block is solved by one loop body, whatever the modulus, through
    ``_fold``: the lanes of the near halves are summed mod m with the far
    residues, which is R mod m, and one big-integer product with P[:B],
    in lanes wide enough for B * (m-1)^2, gives the block, whose lanes
    are reduced the same way.  ``_fold`` reduces at C speed, a byte plane
    at a time, up to m = 128, where the residues stay bytes, and one lane
    at a time above.  The residues are copied into the block's slice of
    the returned array, allocated whole at the start, and packed into the
    next block's lanes, one-byte residues spread as one block
    (``_pack``); a finished superblock is packed from that array.

    Where 8-byte lanes are too narrow for the block product, from m =
    189,812,533 on, where B (m-1)^2 = 512 (m-1)^2 reaches 2^64,
    ``_extend_p`` runs the whole recurrence instead, one n at a time, each
    a sum of the terms that n reaches, gathered by one ``itemgetter`` per
    stretch between pentagonal numbers, into a list that is copied into
    an array once at the end.
    """
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    kind = _residue_code(modulus)
    offsets = pentagonal_offsets(limit)
    room, width, wide = _lane_plan(offsets, modulus)
    if wide is None:
        values = _extend_p([1 % modulus], limit, modulus)
        return values if kind is None else array(kind, values)
    block, span = _BLOCK, _span(limit)
    wrap = 8 * width * block
    # b -> (b << 8i) mod m for each byte plane i; none above m = 128, where two residues outgrow a byte.
    tables = [bytes((b << 8 * i) % modulus for b in range(256)) for i in range(max(width, wide)) if modulus <= 128]
    values = _extend_p([1 % modulus], min(limit, block - 1), modulus)
    series, done = _pack(values, wide), _pack(values, width)
    full, far_full = _pack([modulus] * block, width), _pack([modulus] * span, width)
    residues = array(kind, [0]) * (limit + 1)
    residues[:block] = array(kind, values)
    split = bisect_left(offsets, (span,))
    near, far = _reach(offsets[:split], room, width, block), _reach(offsets[split:], room, width, span)
    del offsets  # the runs hold all the loop needs of it; kept, it adds 21 KB to the peak at limit 110,006
    # The runs of g < B, which reach no block ahead, shift the block right into its own high half.
    spill = [(0, reduce, [wrap - x for x in plus], [wrap - x for x in minus])
             for d, reduce, plus, minus in near if not d]
    near = near[len(spill):]
    pending, distant = [0] * (limit // block + 1), [0] * (limit // span + 1)
    outer = bytes(span)
    for j, s in enumerate(range(block, limit + 1, block)):
        complement = full - done
        _scatter(pending, j, near, done.__lshift__, complement.__lshift__, tables)
        pending[j] >>= wrap
        _scatter(pending, j, spill, done.__rshift__, complement.__rshift__, tables)
        high, pending[j] = pending[j], None
        if s % span == 0:  # superblock k starts; k - 1 is finished, and a far offset never adds into its own
            k, stretch = s // span, _pack(residues[s - span:s], width)
            size, ahead, distant[k - 1] = min(span, limit + 1 - s), distant[k - 1] >> 8 * width * span, None
            _scatter(distant, k - 1, far, stretch.__lshift__, (far_full - stretch).__lshift__, tables)
            outer = _fold((distant[k], ahead), width, modulus, tables, bytes(size))
        t, size = s % span, min(block, limit + 1 - s)
        values = _fold((pending[j + 1], high), width, modulus, tables, outer[t:t + size])
        values = _fold((_pack(values, wide) * series,), wide, modulus, tables, bytes(size))
        done = _pack(values, width)
        residues[s:s + size] = array(kind, values)
    return residues


# Each family's first n and its value at e = a*n + b, read from p, or p mod m, and the step a.
# gamma_weighted's (e == a) is the step nu(1) -> nu(2) that gamma(2) = 0 leaves out (module docstring).
FAMILIES = {
    "ramanujan": (0, lambda p, a, e: p[e]),
    "nu_window": (1, lambda p, a, e: p[e] - p[e - a]),
    "nu_k_progression": (1, lambda p, a, e: p[e] - p[e - a]),
    "gamma_weighted": (1, lambda p, a, e: a * (p[e] - p[e - 1]) - (p[e] - p[e - a]) - (e == a)),
    "custom": (0, lambda p, a, e: p[e]),
}


def check_family(family_id: str, a: int, b: int, modulus: int, limit_n: int, *,
                 residues: Sequence[int] | None = None) -> CongruenceReport:
    """Scan the family ``family_id`` of ``FAMILIES`` on the progression
    a*n + b mod ``modulus``: the violations are the nonzero residues of its
    value at a*n + b, for n from the family's first to ``limit_n``.  p mod
    the modulus is computed up to the last argument, or read from
    ``residues``, checked for length.  gamma_weighted needs the modulus to
    divide the step a, and ``limit_n`` must reach the family's first n, so
    that a scan checks at least one n; an unknown family or a bad argument
    raises ValueError."""
    if family_id not in FAMILIES:
        raise ValueError(f"unknown congruence family {family_id!r}")
    if a < 1 or b < 0:
        raise ValueError(f"progression must have a >= 1 and b >= 0, got ({a}, {b})")
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    if family_id == "gamma_weighted" and a % modulus:
        raise ValueError(f"gamma_weighted needs the modulus to divide the step, got ({a}, {b}) mod {modulus}")
    start_n, value = FAMILIES[family_id]
    if limit_n < start_n:
        raise ValueError(f"{family_id} starts at n = {start_n}: the limit must be >= {start_n}, got {limit_n}")
    top = a * limit_n + b
    if residues is None:
        residues = p_mod_m_table(top, modulus)
    elif len(residues) <= top:
        raise ValueError(f"residue table too short: need index {top}, have {len(residues) - 1}")
    violations = [(n, r) for n in range(start_n, limit_n + 1) if (r := value(residues, a, a * n + b) % modulus)]
    return CongruenceReport(CongruenceFamily(family_id, modulus, (a, b), start_n), (start_n, limit_n), violations)


def _known(modulus: int) -> tuple[int, int]:
    if modulus not in RAMANUJAN_PROGRESSIONS:
        raise ValueError(f"modulus must be one of {sorted(RAMANUJAN_PROGRESSIONS)}, got {modulus}")
    return RAMANUJAN_PROGRESSIONS[modulus]


def check_ramanujan(modulus: int, limit_n: int, *, residues: Sequence[int] | None = None) -> CongruenceReport:
    """Check the Ramanujan progression for modulus 5, 7 or 11 up to n = limit_n."""
    return check_family("ramanujan", *_known(modulus), modulus, limit_n, residues=residues)


def check_nu_window(modulus: int, limit_n: int, *, residues: Sequence[int] | None = None) -> CongruenceReport:
    """Check the m-term nu window ending at e = m*n+b, p(e) - p(e-m), for n = 1..limit_n."""
    return check_family("nu_window", *_known(modulus), modulus, limit_n, residues=residues)


def check_nu_k_progression(modulus: int, limit_n: int, *, residues: Sequence[int] | None = None) -> CongruenceReport:
    """Check nu_m(e) = p(e) - p(e-m) = 0 (mod m), e = m*n+b, for n = 1..limit_n."""
    return check_family("nu_k_progression", *_known(modulus), modulus, limit_n, residues=residues)


def check_gamma_weighted(modulus: int, limit_n: int, *, residues: Sequence[int] | None = None) -> CongruenceReport:
    """Check sum_{t=1..m-1} t * gamma(e-m+1+t) = m*(p(e) - p(e-1)) - (p(e) - p(e-m)) = 0 (mod m), n >= 1."""
    return check_family("gamma_weighted", *_known(modulus), modulus, limit_n, residues=residues)


def parity_via_gamma(n: int, table: CountTable) -> int:
    """Parity of p(n) for even n >= 4, as sum of gamma over even 4..n, mod 2.

    The weighted-gamma expansion of p(n) reduces mod 2 to this sum when n
    is even; odd n is rejected.
    """
    if n % 2 or n < 4:
        raise ValueError(f"the gamma parity sum is defined for even n >= 4, got {n}")
    _check_range(n, table)
    return sum(table.gamma[4 : n + 1 : 2]) % 2
