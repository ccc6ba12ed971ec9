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
(``*_sweep``, ``bounded_sums``) that evaluates it for every n up to a
bound by running or prefix sums; the per-n functions read the same
formula.  All arithmetic is exact; p(n) outgrows 64 bits at n = 417
and keeps going.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, islice
from operator import add, itemgetter, mul
from typing import Iterator

from .partitions import NUCLEAR, _capacity, iter_parts


def pentagonal_offsets(limit: int) -> list[tuple[int, int]]:
    """Generalized pentagonal numbers k(3k-/+1)/2 up to ``limit``, with the
    recurrence sign (+ for odd k, - for even k), in increasing order."""
    offsets = []
    k = 1
    while True:
        g = k * (3 * k - 1) // 2
        if g > limit:
            return offsets
        sign = 1 if k & 1 else -1
        offsets.append((g, sign))
        g += k
        if g <= limit:
            offsets.append((g, sign))
        k += 1


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


@dataclass
class CountTable:
    """Exact values p(n), nu(n), gamma(n) for 0 <= n <= limit.

    Satisfies p[0] = nu[0] = 1, nu[n] = p[n] - p[n-1] for n >= 1,
    gamma[n] = nu[n] - nu[n-1] for n >= 3 and gamma[0..3] = 0.
    Treat a built table as immutable; concurrent reads are safe.
    """

    p: list[int]
    nu: list[int]
    gamma: list[int]

    @property
    def limit(self) -> int:
        return len(self.p) - 1


def _table_from_p(p: list[int]) -> CountTable:
    limit = len(p) - 1
    nu = [1] + [p[n] - p[n - 1] for n in range(1, limit + 1)]
    gamma = [0] * min(3, limit + 1) + [nu[n] - nu[n - 1] for n in range(3, limit + 1)]
    return CountTable(p=p, nu=nu, gamma=gamma)


def build_table(limit: int) -> CountTable:
    """Build the exact count table for 0..limit via the pentagonal recurrence."""
    if limit < 0:
        raise ValueError(f"table limit must be >= 0, got {limit}")
    return _table_from_p(_extend_p([1], limit))


def extend_table(table: CountTable, limit: int) -> CountTable:
    """Return a table reaching ``limit``, reusing the given prefix.

    Extending is bit-identical to a fresh build; the recurrence only ever
    reads values already fixed.
    """
    if limit <= table.limit:
        return table
    return _table_from_p(_extend_p(list(table.p), limit))


@dataclass(frozen=True)
class MethodResult:
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


def _raise_bound(row: list[int], m: int, top: int) -> None:
    """c(., m-1) -> c(., m) in place for t <= top, where c(t, m) counts the
    partitions of t with parts in [2, m]: c(t, m) = c(t, m-1) + c(t-m, m),
    one block of m at a time so each block reads the one before, updated."""
    for lo in range(m, top + 1, m):
        hi = min(lo + m, top + 1)
        row[lo:hi] = map(add, row[lo:hi], row[lo - m:hi - m])


class RestrictedCounts:
    """Counts of partitions with every part in [2, m], stored as the
    full table of rows c(., m) for m = 0..size, each size + 1 long.

    O(size^2) integers; ``nu_bounded`` and ``bounded_sums`` roll one row
    of the same recurrence instead.
    """

    def __init__(self):
        self._size = -1
        self._rows: list[list[int]] = []

    def ensure(self, size: int) -> None:
        if size <= self._size:
            return
        size = max(size, 2 * self._size)
        empty_only = [1] + [0] * size
        rows = [empty_only, list(empty_only)]
        for m in range(2, size + 1):
            row = list(rows[-1])
            _raise_bound(row, m, size)
            rows.append(row)
        self._size = size
        self._rows = rows

    def count(self, total: int, max_part: int) -> int:
        if total < 0:
            raise ValueError(f"total must be >= 0, got {total}")
        if total == 0:
            return 1
        m = min(max_part, total)
        if m < 2:
            return 0
        self.ensure(total)
        return self._rows[m][total]


def nu_bounded(n: int, m: int) -> int:
    """Count of partitions of n with all parts in [2, m]; one row of
    n + 1 integers rolls over the part bounds 2..min(m, n)."""
    if m < 1:
        raise ValueError(f"part bound must be >= 1, got {m}")
    if n < 0:
        raise ValueError(f"total must be >= 0, got {n}")
    row = [1] + [0] * n  # c(t, 1) = [t == 0]
    for bound in range(2, min(m, n) + 1):
        _raise_bound(row, bound, n)
    return row[n]


def nu_chain_sweep(table: CountTable, last: int) -> list[int]:
    """nu(0) + ... + nu(n) for n = 0..last; each entry is p(n)."""
    _check_range(last, table)
    return list(accumulate(table.nu[: last + 1]))


def p_via_nu_chain(n: int, table: CountTable) -> MethodResult:
    """p(n) as the partial sum nu(0) + ... + nu(n)."""
    _check_range(n, table)
    return MethodResult("nu_chain", n, nu_chain_sweep(table, n)[n])


def nuclear_gaps(n: int) -> Iterator[int]:
    """Top-pair gaps of the nuclear partitions of n, skipping (n) itself.

    Enumeration order puts (n) first, or () at n = 0, and every later
    nuclear partition has at least two parts; its gap is its decay
    capacity, first part minus second part.
    """
    return map(_capacity, islice(iter_parts(n, NUCLEAR), 1, None))


def enumerated_counts(n: int) -> tuple[int, int, int]:
    """``(nu(n), gap-sum value, gamma(n))`` tallied from one pass of
    ``nuclear_gaps(n)``.

    Every n but 1 has the first nuclear partition that ``nuclear_gaps``
    skips, so nu(n) is the number of gaps plus (n != 1).  The gap-sum
    value is n + nu(n) - 1 + (sum of the gaps); it equals p(n) for
    n >= 2 only.  gamma(n) counts the ground states, whose gap is 0.
    """
    gaps = Counter(nuclear_gaps(n))
    nu = (n != 1) + sum(gaps.values())
    return nu, n + nu - 1 + sum(g * count for g, count in gaps.items()), gaps[0]


def p_via_gap_sum(n: int) -> MethodResult:
    """p(n) = n + nu(n) - 1 + (sum of top-pair gaps over nuclear partitions
    of n other than (n)), evaluated by direct enumeration.

    Defined for n >= 2 only: at n = 1 the nuclear set is empty and the
    formula yields 0 instead of p(1) = 1.
    """
    if n < 2:
        raise ValueError(f"the gap-sum route is defined for n >= 2 (it undercounts below that), got {n}")
    return MethodResult("gap_sum", n, enumerated_counts(n)[1])


def _gamma_moments(table: CountTable, last: int) -> tuple[list[int], list[int]]:
    """Running sums S1(n) = sum_{k=3..n} gamma(k) and
    S2(n) = sum_{k=3..n} k * gamma(k) for n = 0..last."""
    _check_range(last, table)
    gamma = table.gamma[: last + 1]
    return list(accumulate(gamma)), list(accumulate(map(mul, range(last + 1), gamma)))


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

    One short of nu(n) for n >= 4, and 0 below that.  One row c(., m)
    rolls over the part bound m = 2..limit//2.  The terms with k > m are
    unsettled: each c(k, m) is scattered to n = k + m.  The terms with
    k <= n - k are settled, c(k, n-k) = c(k, k) because no partition of
    k has a part above k, so row[k] is final once the bound reaches k and
    each n adds the prefix sum of c(k, k) over k = 2..n//2 once.  About
    limit^2 / 2 additions on O(limit) stored integers.
    """
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    sums = [0] * (limit + 1)
    row = [1] + [0] * max(limit - 2, 0)  # c(t, 1) = [t == 0]
    for m in range(2, limit // 2 + 1):
        _raise_bound(row, m, limit - m)  # k above limit - m lands past limit
        sums[2 * m + 1:] = map(add, sums[2 * m + 1:], row[m + 1:limit - m + 1])
    # settled[j] = c(2, 2) + ... + c(j + 2, j + 2); n and n + 1 share n//2.
    settled = list(accumulate(row[2:limit // 2 + 1]))
    sums[4::2] = map(add, sums[4::2], settled)
    sums[5::2] = map(add, sums[5::2], settled)
    return sums


def _k_skip_chain(table: CountTable, k: int, rest: int, last: int) -> list[int]:
    """The k-skip sums V(n) for n = rest, rest + k, ... <= last, where
    rest < k: V(rest) = nu_k(rest) = p(rest) and V(n) = V(n - k) + nu_k(n)."""
    return list(accumulate(nu_k(n, k, table) for n in range(rest, last + 1, k)))


def k_nuclear_sweep(table: CountTable, k: int, last: int) -> list[int]:
    """The k-skip sum p(n mod k) + sum_{j=0..floor(n/k)-1} nu_k(n - jk)
    for n = 0..last; each entry is p(n).  One running sum per residue
    class mod k, O(last) in all."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_range(last, table)
    values = [0] * (last + 1)
    for rest in range(min(k, last + 1)):
        values[rest::k] = _k_skip_chain(table, k, rest, last)
    return values


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
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_range(n, table)
    rest = n % k
    value = _k_skip_chain(table, k, rest, n)[-1]
    # The displaced range drops the j = 0 term nu_k(n) and adds the
    # j = floor(n/k) term nu_k(r), which is p(r) because r < k.
    shifted = value - nu_k(n, k, table) + table.p[rest]
    return shifted, MethodResult("k_nuclear", n, value)
