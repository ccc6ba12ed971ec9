"""Exact counting of partitions and their part-restricted subfamilies.

The table builder runs Euler's pentagonal recurrence

    p(n) = sum_{k>=1} (-1)^(k+1) [ p(n - k(3k-1)/2) + p(n - k(3k+1)/2) ]

in unbounded integers and derives nu (count with no part 1) and gamma
(count with the two largest parts equal) as first and second differences
of p.  Everything else in this module recomputes p or nu by an
independent route so the routes can be checked against each other:

    nu chain          p(n) = nu(0) + nu(1) + ... + nu(n)
    gap sum           p(n) = n + nu(n) - 1 + sum of top-pair gaps
    gamma chain       nu(n) = 1 + gamma(3) + ... + gamma(n)
    gamma weights     p(n) = n + sum_{k=3..n} (n-k+1) gamma(k)
    n*nu - gamma      p(n) = n*nu(n) - sum_{k=3..n} (k-1) gamma(k)
    bounded sum       nu(n) = 1 + sum_{k=2..n-2} nu(k, n-k)
    k-skip sum        p(n) = p(n mod k) + sum_{j=0..floor(n/k)-1} nu_k(n-jk)

Each route over the exact table also has a whole-range sweep
(``*_sweep``, ``bounded_sums``, one ``_k_skip_chain`` per residue class)
that evaluates it for every n up to a bound by running sums or one
rolled row; the per-n functions read the same formula.  All arithmetic
is exact; p(n) outgrows 64 bits at n = 417 and keeps going.
"""

from __future__ import annotations

import struct
from array import array
from collections import Counter
from itertools import accumulate, chain, count, islice, tee
from operator import add, itemgetter, mul, sub
from typing import Iterator, NamedTuple, Sequence

from .partitions import NUCLEAR, _capacity, iter_parts

# Lane width in bytes -> the ``struct`` format code of an unsigned integer that
# wide in standard size.
_LANE_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def pentagonal_offsets(limit: int) -> list[tuple[int, int]]:
    """Generalized pentagonal numbers k(3k-/+1)/2 up to ``limit``, with the
    recurrence sign (+ for odd k, - for even k), in increasing order."""
    offsets = []
    for k in count(1):
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g > limit:  # and so is every later one
                return offsets
            offsets.append((g, 1 if k & 1 else -1))


def _extend_p(p: list[int], limit: int, modulus: int | None = None) -> list[int]:
    """Append p(len(p))..p(limit) to the prefix ``p``, each reduced mod
    ``modulus`` when one is given.

    While p(n) is computed, len(p) == n, so p(n - g) is ``p[-g]``.  The
    offsets g <= n change only where n reaches the next generalised
    pentagonal number, so between two of those every n reads the same
    negative indices: one ``itemgetter`` gathers the plus terms, another
    the minus terms, and p(n) is the difference of their sums.
    """
    offsets = pentagonal_offsets(limit)
    n = len(p)
    for reached, stop in enumerate([g for g, _ in offsets] + [limit + 1]):
        if stop <= n:
            continue
        plus = _gather([-g for g, sign in offsets[:reached] if sign > 0])
        minus = _gather([-g for g, sign in offsets[:reached] if sign < 0])
        for _ in range(n, stop):
            value = sum(plus(p)) - sum(minus(p))
            p.append(value if modulus is None else value % modulus)
        n = stop
    return p


def _gather(indices: list[int]):
    """A function of a list returning its items at ``indices`` as a sequence
    (``itemgetter`` returns a bare item when given one index)."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda values: [values[i] for i in indices]


class _Difference:
    """A read-only view of the first difference of ``base``, a list or
    another view: row n < len(head) is head[n], and row n from there on is
    base[n] - base[n-1].  An int index reads two rows of ``base``; a slice
    (any step) and == compute the rows from the slice's least to its
    greatest at C speed, from one slice of ``base``.  Iteration computes
    each row as it is read, from an iterator over ``base``, and holds
    none: ``islice`` of a view reads its rows without a list of them."""

    __slots__ = ("_base", "_head")

    def __init__(self, base, head: tuple[int, ...]):
        self._base, self._head = base, head

    def __len__(self) -> int:
        return len(self._base)

    def __getitem__(self, index):
        rows = range(len(self._base))[index]
        if isinstance(rows, int):
            return self._head[rows] if rows < len(self._head) else self._base[rows] - self._base[rows - 1]
        if not rows:
            return []
        # The span lo..top of the slice, then read in its order and step.
        lo, top = sorted((rows[0], rows[-1]))
        start = max(lo, min(len(self._head), top + 1))
        base = self._base[start - 1:top + 1]
        values = [*self._head[lo:start], *map(sub, base[1:], base)]
        return values if rows.step == 1 else values[::rows.step]

    def __iter__(self):
        # Row n >= len(head) pairs base[n] from one iterator with
        # base[n-1] from another, one row behind it.
        ahead, behind = tee(self._base)
        skip = len(self._head)
        return chain(islice(self._head, len(self._base)),
                     map(sub, islice(ahead, skip, None), islice(behind, skip - 1, None)))

    def __eq__(self, other):
        if isinstance(other, _Difference):
            other = other[:]
        return self[:] == other if isinstance(other, list) else NotImplemented


class CountTable(NamedTuple):
    """Exact values p(n), nu(n), gamma(n) for 0 <= n <= limit.

    Satisfies p[0] = nu[0] = 1, nu[n] = p[n] - p[n-1] for n >= 1,
    gamma[n] = nu[n] - nu[n-1] for n >= 3 and gamma[0..3] = 0.  A table
    is its one field, the list p: nu and gamma are properties, read-only
    views that compute those differences from p when read, so read them
    a slice at a time, not one index per row.  They compare equal to the
    lists of their values.  Treat a table as immutable; concurrent reads
    are safe.
    """

    p: list[int]

    @property
    def limit(self) -> int:
        return len(self.p) - 1

    @property
    def nu(self) -> _Difference:
        """The view of p's first difference, with nu(0) = 1."""
        return _Difference(self.p, (1,))

    @property
    def gamma(self) -> _Difference:
        """The view of nu's first difference, with gamma(0..2) = 0."""
        return _Difference(self.nu, (0, 0, 0))


def build_table(limit: int) -> CountTable:
    """Build the exact count table for 0..limit via the pentagonal recurrence."""
    if limit < 0:
        raise ValueError(f"table limit must be >= 0, got {limit}")
    return CountTable(_extend_p([1], limit))


def extend_table(table: CountTable, limit: int) -> CountTable:
    """Return a table reaching ``limit``, reusing the given prefix.

    Extending is bit-identical to a fresh build; the recurrence only ever
    reads values already fixed.  Only the new rows of p are computed; they
    are appended to a copy of the prefix's p, which shares its ints, so the
    given table is left as it was and its rows are not held twice.
    """
    if limit <= table.limit:
        return table
    return CountTable(_extend_p(list(table.p), limit))


class MethodResult(NamedTuple):
    """A value of p(n) or nu(n) labelled with the route that produced it."""

    method: str
    n: int
    value: int


def _check_range(n: int, table: CountTable, low: int = 0) -> None:
    if n < low:
        raise ValueError(f"defined for n >= {low}, got {n}")
    if n > table.limit:
        raise ValueError(f"n={n} exceeds the table limit {table.limit}")


def nu_k(n: int, k: int, table: CountTable) -> int:
    """Count of partitions of n with no part equal to k: p(n) - p(n-k).

    p of a negative argument counts as 0, which also gives the
    conventional nu_k(0) = 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_range(n, table)
    if n >= k:
        return table.p[n] - table.p[n - k]
    return table.p[n]


def _raise_bound(row: list[int], m: int, top: int, low: int | None = None) -> None:
    """Divide ``row``, the coefficients of a power series in x, by 1 - x^m
    in place up to degree ``top``, from degree ``low`` (default m): row[t]
    += row[t - m] for t = low..top in turn.  The entries below ``low`` are
    kept and those below low - m never read, so only the terms from degree
    low - m up are divided.  Its first use is the bounded-part count: with
    c(t, m) the partitions of t into parts in [2, m], c(t, m) = c(t, m-1)
    + c(t - m, m) takes the row c(., m-1) to c(., m).

    Along one residue class mod m the division is a prefix sum, so it runs
    in whichever form takes fewer C-level passes over the top + 1 - low
    entries: m prefix sums, one per class, each from the class's kept
    entry in [low - m, low) up; or one block of m entries at a time, each
    block adding the block before it, already updated.  The two forms
    make the same additions.
    """
    low = low or m
    if m * m < top + 1 - low:
        for start in range(low - m, low):
            row[start:top + 1:m] = accumulate(row[start:top + 1:m])
    else:
        for lo in range(low, top + 1, m):
            hi = min(lo + m, top + 1)
            row[lo:hi] = map(add, row[lo:hi], row[lo - m:hi - m])


def _lane_bytes(value: int) -> int | None:
    """The fewest bytes, out of 2, 4 and 8, in which ``value`` fits."""
    return next((width for width in (2, 4, 8) if value >> 8 * width == 0), None)


def _pack(values: Sequence[int], width: int) -> int:
    """``values`` as the little-endian lanes of one integer, the first in
    the lowest lane, each ``width`` bytes wide, a key of ``_LANE_CODES``.
    One-byte values, ``bytes`` or an ``array`` of one-byte items, are
    spread into the lanes' low bytes as one block, with no ``struct``
    argument per value."""
    if isinstance(values, (bytes, array)) and memoryview(values).itemsize == 1:
        lanes = bytearray(len(values) * width)
        lanes[::width] = values
        return int.from_bytes(lanes, "little")
    return int.from_bytes(struct.pack(f"<{len(values)}{_LANE_CODES[width]}", *values), "little")


def _unpack(value: int, width: int, count: int) -> tuple[int, ...]:
    """The lowest ``count`` lanes, ``width`` bytes each, of ``value``,
    lowest first."""
    lanes = struct.Struct(f"<{count}{_LANE_CODES[width]}")
    return lanes.unpack((value & (1 << 8 * lanes.size) - 1).to_bytes(lanes.size, "little"))


def _headroom(m: int, span: int, bits: int) -> int:
    """The bound on lane 0 under which lanes of ``bits`` bits that hold a
    row nondecreasing on degrees m..m + span, lane 0 the top one, divide by
    1 - x^m without a carry.  A residue class mod m holds at most t = span
    // m + 1 of those degrees, and with s = (t - 1).bit_length(), t <= 2^s.
    Lane 0 is the largest, so when it is below 2^(bits - s) each of the t
    lanes is too, and every prefix sum, partial or final, is a sum of at
    most t of them: below t * 2^(bits - s) <= 2^bits."""
    return 1 << bits - (span // m).bit_length()


def _prefix_sums(lanes: int, m: int, span: int, bits: int) -> int:
    """``lanes`` divided by 1 - x^m, lane 0 the top degree and lane ``span``
    degree m: along one residue class mod m the division is a prefix sum
    toward lane 0, taken by doubling, ``lanes += lanes >> bits * step`` for
    step = m, 2m, 4m, ... <= span."""
    step = m
    while step <= span:
        lanes += lanes >> bits * step
        step *= 2
    return lanes


def _raise_bounds_lanes(row: list[int], m: int, top: int) -> None:
    """Divide ``row`` in place by 1 - x^b from degree 2b, for b = m, m - 1,
    ... down to 2, as ``_raise_bound(row, b, top, 2 * b)`` would.  The
    entries must be nonnegative and below 2^64, nondecreasing on degrees
    m..top and at most 1 on degrees 2..2m + 1; ``bounded_sums`` holds 1 on
    every degree from 2 to top.

    The degrees b + 1..s, with s = top at first, are packed into one
    integer of unsigned lanes in reversed order, lane i holding degree
    s - i, so the degrees b..s that a division reads are the lowest
    s - b + 1 lanes and each big-integer operation costs O(s - b).  Degree
    b joins as the next lane when its division comes: every division so
    far started above it, so the row still holds its entry.  The lanes
    start as wide as the top entry needs, 16 bits in ``bounded_sums``.

    The guard, ``_headroom``, reads lane 0 alone.  In ``bounded_sums`` the
    row before the division at b holds, on degrees b..top, x^b plus the
    partitions into parts >= b + 1.  Raising the largest part by one maps
    the partitions of d one-to-one into those of d + 1, so the counts
    never fall as the degree rises and lane 0 is the largest lane.  When
    it fails below 64 bits, the lanes are repacked at twice the width and
    the guard reads again.  At 64 bits the lanes that fail are a prefix,
    the top degrees: only they leave the integer for ``row``, and s falls
    below them.  Each division then runs packed on degrees b..s and one
    entry at a time on s + 1..top, through ``_raise_bound(row, b, top,
    max(2b, s + 1))``, once the b lanes just below s + 1, which it reads,
    are unpacked into ``row``.  The entries of degrees b..2b + 1 are at
    most 1 and never leave, so s > 2b + 1 and those b lanes are all above
    degree b.  At limit 2000 the 64-bit lanes still hold every degree up
    to 407 at b = 2.
    """
    width, s = _lane_bytes(row[top]), top
    bits = 8 * width
    lanes = _pack(row[top:m:-1], width)
    while m > 1:
        lanes += row[m] << bits * (s - m)
        bound = _headroom(m, s - m, bits)
        while lanes & (1 << bits) - 1 >= bound:
            if bits < 64:  # repack at twice the width; the guard reads again
                lanes, width = _pack(_unpack(lanes, width, s - m + 1), 2 * width), 2 * width
                bits *= 2
                bound = _headroom(m, s - m, bits)
            else:  # the top lanes that fail leave; the next one passes
                count = 2
                while (head := _unpack(lanes, width, count))[-1] >= bound:
                    count *= 2
                out = sum(entry >= bound for entry in head)
                row[s - out + 1:s + 1] = reversed(head[:out])
                lanes >>= 64 * out
                s -= out
        lanes = _prefix_sums(lanes, m, s - m, bits)
        if s < top:
            row[s - m + 1:s + 1] = reversed(_unpack(lanes, width, m))
            _raise_bound(row, m, top, max(2 * m, s + 1))
        m -= 1
    row[m + 1:s + 1] = reversed(_unpack(lanes, width, s - m))


class RestrictedCounts:
    """The full table of rows c(., m), m = 0..size, where c(t, m) counts
    the partitions of t with every part in [2, m]: O(size^2) integers.

    No CLI path reads it; ``bounded_sums`` rolls one row of the same
    recurrence.  It stays only as the subject of perfbench's memory pass,
    until that pass sizes ``bounded_sums`` instead.
    """

    def ensure(self, size: int) -> None:
        """Build the rows c(., m) for m = 0..size, each size + 1 long,
        once, and store them."""
        row =[1] + [0] * size  # c(., 0) and c(., 1): the empty partition alone
        self._rows = [row, list(row)]
        for m in range(2, size + 1):
            row = list(row)
            _raise_bound(row, m, size)
            self._rows.append(row)


def nu_chain_sweep(table: CountTable, last: int) -> list[int]:
    """nu(0) + ... + nu(n) for n = 0..last; each entry is p(n)."""
    _check_range(last, table)
    return list(accumulate(islice(table.nu, last + 1)))


def p_via_nu_chain(n: int, table: CountTable) -> MethodResult:
    """p(n) as the partial sum nu(0) + ... + nu(n)."""
    return MethodResult("nu_chain", n, nu_chain_sweep(table, n)[n])


def nuclear_gaps(n: int) -> Iterator[int]:
    """Top-pair gaps of the nuclear partitions of n, skipping (n) itself.

    Enumeration order puts (n) first, or () at n = 0, and every later
    nuclear partition has at least two parts; its gap is its decay
    capacity, first part minus second part.
    """
    return map(_capacity, islice(iter_parts(n, NUCLEAR), 1, None))


def _prefixes_by_lo(limit: int) -> list[int]:
    """Entry lo, for lo = 0..limit, counts the prefixes mu (nuclear
    partitions, () included) with |mu| + 2 max(mu, 2) = lo.

    The walk is depth first from (), whose lo is 4.  The children
    mu + (x,) of a prefix of size ``total`` and top part ``top`` have
    x >= top and lo = total + 3x, so the ones with lo <= limit, x up to
    (limit - total) // 3, make one run of lo with step 3.  The run goes
    in as two difference entries, which dividing by 1 - x^3 at the end
    sums along each class mod 3.  Only the children with children of
    their own, x up to (limit - total) // 4, are pushed, so the loop takes
    one step per prefix that has room for another part.
    """
    counts = [0] * (limit + 4)
    stack = []
    if limit >= 4:
        counts[4], counts[7] = 1, -1  # (), a run of one
        stack.append((0, 2))
    while stack:
        total, top = stack.pop()
        rest = limit - total
        # At limit 4 and 5 the run of () is empty and the entries cancel.
        counts[total + 3 * top] += 1
        counts[total + 3 * (rest // 3) + 3] -= 1
        stack += [(total + x, x) for x in range(top, rest // 4 + 1)]
    _raise_bound(counts, 3, limit)
    return counts[:limit + 1]


def enumerated_sweep(limit: int) -> list[tuple[int, int, int]]:
    """``(nu(n), gap-sum value, gamma(n))`` tallied over the nuclear
    partitions of n, for n = 0..limit, with no partition built.

    The gap-sum value is n + nu(n) - 1 + (sum of the top-pair gaps of
    every nuclear partition but (n)); it equals p(n) for n >= 2 only.
    gamma(n) counts the ground states, whose gap is 0.

    A nuclear partition with two or more parts is a prefix mu, the parts
    below its top pair, and the pair u <= v, with u >= a = max(mu, 2).
    With lo = |mu| + 2a and d = n - lo >= 0, the pairs that complete mu
    to n are u = a + i, v = a + d - i for i = 0..d // 2: a run of
    d // 2 + 1 partitions, whose gaps d - 2i sum to (d + 1)^2 // 4 and
    end in one tie, gap 0, when d is even.  These depend on d alone, so
    ``_prefixes_by_lo`` counts the prefixes by lo once, and in powers of
    x the three tallies are those counts times 1/((1 - x)(1 - x^2)),
    x/((1 - x)^2 (1 - x^2)) and 1/(1 - x^2): running sums, O(limit).

    Below 4, where no run reaches, each row is ``nuclear_gaps(n)``
    tallied; there every n but 1 has the partition (n), or () at n = 0,
    that ``nuclear_gaps`` skips.
    """
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    ties = _prefixes_by_lo(limit)
    _raise_bound(ties, 2, limit)  # runs that end in a tie at n
    runs = list(accumulate(ties))  # partitions of n with two or more parts
    gaps = list(accumulate(runs, initial=0))  # their gap sum at n is gaps[n]
    rows = []
    for n in range(min(limit, 3) + 1):
        tally = Counter(nuclear_gaps(n))
        nu = (n != 1) + sum(tally.values())
        rows.append((nu, n + nu - 1 + sum(g * count for g, count in tally.items()), tally[0]))
    return rows + [(1 + runs[n], n + runs[n] + gaps[n], ties[n]) for n in range(4, limit + 1)]


def enumerated_counts(n: int) -> tuple[int, int, int]:
    """Row n of ``enumerated_sweep(n)``."""
    return enumerated_sweep(n)[n]


def p_via_gap_sum(n: int) -> MethodResult:
    """p(n) = n + nu(n) - 1 + (sum of top-pair gaps over nuclear partitions
    of n other than (n)), tallied by ``enumerated_sweep``.

    Defined for n >= 2 only: at n = 1 the nuclear set is empty and the
    formula yields 0 instead of p(1) = 1.
    """
    if n < 2:
        raise ValueError(f"the gap-sum route is defined for n >= 2 (it undercounts below that), got {n}")
    return MethodResult("gap_sum", n, enumerated_counts(n)[1])


def _gamma_moments(table: CountTable, last: int) -> tuple[Iterator[int], Iterator[int]]:
    """Iterators over the running sums S1(n) = sum_{k=3..n} gamma(k) and
    S2(n) = sum_{k=3..n} k * gamma(k) for n = 0..last.

    Both read one pass over gamma, computed from p as it is read, through
    ``tee``: taken in step, as ``zip`` takes them, they hold one row of
    gamma between them and no list.  ``tee`` keeps every row that one has
    read and the other not yet, so drop, never hold, one left unread."""
    _check_range(last, table)
    gamma, weighted = tee(islice(table.gamma, last + 1))
    return accumulate(gamma), accumulate(map(mul, count(), weighted))


def gamma_chain_sweep(table: CountTable, last: int) -> list[int]:
    """1 + gamma(3) + ... + gamma(n) for n = 0..last; nu(n) for n >= 2."""
    return [1 + s1 for s1 in _gamma_moments(table, last)[0]]


def gamma_weights_sweep(table: CountTable, last: int) -> list[int]:
    """n + sum_{k=3..n} (n - k + 1) gamma(k) = n + (n + 1) S1(n) - S2(n)
    for n = 0..last; p(n) for n >= 2."""
    s1, s2 = _gamma_moments(table, last)
    return [n + (n + 1) * a - b for n, a, b in zip(range(last + 1), s1, s2)]


def n_nu_minus_gamma_sweep(table: CountTable, last: int) -> list[int]:
    """n nu(n) - sum_{k=3..n} (k - 1) gamma(k) = n nu(n) - (S2(n) - S1(n))
    for n = 0..last; p(n) for n >= 2."""
    s1, s2 = _gamma_moments(table, last)
    return [n * nu - (b - a) for n, nu, a, b in zip(range(last + 1), table.nu, s1, s2)]


def nu_via_gamma_chain(n: int, table: CountTable) -> int:
    """nu(n) = 1 + gamma(3) + ... + gamma(n), for n >= 2."""
    _check_range(n, table, low=2)
    return gamma_chain_sweep(table, n)[n]


def p_via_gamma_weights(n: int, table: CountTable) -> MethodResult:
    """p(n) = n + sum_{k=3..n} (n - k + 1) * gamma(k), for n >= 2."""
    _check_range(n, table, low=2)
    return MethodResult("gamma_weights", n, gamma_weights_sweep(table, n)[n])


def p_via_n_nu_minus_gamma(n: int, table: CountTable) -> MethodResult:
    """p(n) = n * nu(n) - sum_{k=3..n} (k - 1) * gamma(k), for n >= 2."""
    _check_range(n, table, low=2)
    return MethodResult("n_nu_minus_gamma", n, n_nu_minus_gamma_sweep(table, n)[n])


def nu_via_bounded_sum(n: int) -> tuple[int, int]:
    """Recover nu(n) from bounded-part counts of largest-part remainders.

    Classifying a nuclear partition of n by its largest part n - k leaves
    a remainder partition of k with parts in [2, n-k].  Returns
    ``(truncated, total)`` where ``truncated`` sums only k = 2..n-2 (entry
    n of ``bounded_sums(n)``) and ``total`` adds the k = 0 term
    contributed by (n) itself; ``total`` equals nu(n).  The truncated
    variant is retained deliberately: it is always short by exactly 1 and
    the verifier reports it as an expected failure.  Needs n >= 4.
    """
    if n < 4:
        raise ValueError(f"the bounded-sum route needs n >= 4, got {n}")
    truncated = bounded_sums(n)[n]
    return truncated, truncated + 1


def bounded_sums(limit: int) -> list[int]:
    """Truncated bounded sums sum_{k=2..n-2} c(k, n-k) for n = 0..limit,
    where c(k, m) counts the partitions of k with every part in [2, m].

    One short of nu(n) for n >= 4, and 0 below that.  By largest part L,
    the nuclear partitions have the generating function
    S = sum_{L>=2} x^L prod_{j=2..L} 1/(1 - x^j), summed as the bracket

        B_L = x^L + B_{L+1} / (1 - x^{L+1}),    S = B_2 / (1 - x^2)

    with one row divided from the top bound down; S[n] - 1 leaves out (n)
    itself.  B_m has no term below degree m, so its division by 1 - x^m
    starts at degree 2m and does nothing for m > limit//2.  Each x^L lies
    below every degree read before its own division, so the row holds
    them all from the start.  About limit^2 / 4 additions on O(limit)
    stored integers.

    The row is divided in packed lanes, narrow while its counts are
    small.  From m = limit//2 down, ``_raise_bounds_lanes`` keeps it as
    one integer of lanes that start 16 bits wide and divides all of it in
    a few big-integer shift-adds per m, for as long as its guard proves
    that no lane can carry; where the guard fails, the lanes widen in
    place to 32 and then 64 bits (at limit 2000: from m = 1000, 521 and
    251; at 10,000: 5000, 3193, 1795).  The guard reads one lane, the top
    degree, since the row before each division is nondecreasing on the
    degrees it reads.  The 64-bit lanes run to m = 2: the top degrees
    that outgrow them, from limit 408 on, leave them and ``_raise_bound``
    divides them one entry at a time.
    """
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    row = [0, 0] + [1] * (limit - 1)  # x^2 + x^3 + ... + x^limit
    _raise_bounds_lanes(row, limit // 2, limit)
    for n in range(2, limit + 1):  # in place, so each S[n] is freed as it goes
        row[n] -= 1
    del row[limit + 1:]
    return row


def _k_skip_chain(table: CountTable, k: int, rest: int, last: int) -> Iterator[int]:
    """The k-skip sums V(n) for n = rest, rest + k, ... <= last, where
    rest < k: V(rest) = nu_k(rest) = p(rest) and V(n) = V(n - k) + nu_k(n),
    with nu_k(n) = p(n) - p(n - k) for n >= k.  One running sum over the
    differences of consecutive p values along the chain (``map`` stops at
    the shorter slice, so the second may run one entry past), yielded as
    it goes."""
    p = table.p
    return accumulate(map(sub, p[rest + k:last + 1:k], p[rest:last + 1:k]), initial=p[rest])


def p_via_k_nuclear(n: int, k: int, table: CountTable) -> tuple[int, MethodResult]:
    """p(n) from the no-part-k counts along the arithmetic chain n, n-k, ...

    Unrolling p(n) = nu_k(n) + p(n-k) down to the remainder r = n mod k
    gives p(n) = p(r) + sum_{j=0..floor(n/k)-1} nu_k(n - jk).  Returns
    ``(shifted, result)``: ``result`` carries that value, while
    ``shifted`` evaluates the same sum with the index range displaced by
    one (j = 1..floor(n/k)), which drops nu_k(n) and double-counts the
    tail; it is kept as an expected-failure demonstration.  At k = 1 the
    correct form collapses to the nu chain term by term.
    """
    head = nu_k(n, k, table)  # the j = 0 term; nu_k refuses a bad k or n
    rest = n % k
    *_, value = _k_skip_chain(table, k, rest, n)
    # The displaced range drops the j = 0 term nu_k(n) and adds the
    # j = floor(n/k) term nu_k(r), which is p(r) because r < k.
    shifted = value - head + table.p[rest]
    return shifted, MethodResult("k_nuclear", n, value)
