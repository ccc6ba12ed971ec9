"""Brute-force reference implementations, kept independent of the package.

The enumerators recurse on the parts and the counter is the plain coin
dynamic program, so none shares an algorithm with the code under test.
"""

import argparse

# (n, gamma, nu, p) reference rows: 1..20 and 100.
REFERENCE_ROWS = {
    1: (0, 0, 1), 2: (0, 1, 2), 3: (0, 1, 3), 4: (1, 2, 5), 5: (0, 2, 7),
    6: (2, 4, 11), 7: (0, 4, 15), 8: (3, 7, 22), 9: (1, 8, 30),
    10: (4, 12, 42), 11: (2, 14, 56), 12: (7, 21, 77), 13: (3, 24, 101),
    14: (10, 34, 135), 15: (7, 41, 176), 16: (14, 55, 231), 17: (11, 66, 297),
    18: (22, 88, 385), 19: (17, 105, 490), 20: (32, 137, 627),
    100: (2307678, 21339417, 190569292),
}


def ascending_partitions(n, smallest=1):
    if n == 0:
        yield ()
        return
    for first in range(smallest, n + 1):
        for rest in ascending_partitions(n - first, first):
            yield (first,) + rest


def all_partitions(n):
    """Partitions of n as weakly decreasing tuples, in no particular order."""
    return [tuple(reversed(asc)) for asc in ascending_partitions(n)]


def reverse_lex_partitions(n, constraint=None):
    """Partitions of n under an EnumerationConstraint, in reverse-lexicographic
    order: each part in turn takes every allowed value from the largest down,
    and the rest of n recurses below it.  The reference for iter_parts' order."""
    lo = constraint.min_part if constraint else 1
    return _descend(n, n, lo, [])


def _descend(remaining, cap, lo, prefix):
    if remaining == 0:
        yield tuple(prefix)
        return
    for part in range(min(cap, remaining), lo - 1, -1):
        rest = remaining - part
        if rest and rest < lo:
            continue
        prefix.append(part)
        yield from _descend(rest, part, lo, prefix)
        prefix.pop()


def partition_counts(limit):
    """p(0..limit) by the coin dynamic program."""
    table = [1] + [0] * limit
    for part in range(1, limit + 1):
        for total in range(part, limit + 1):
            table[total] += table[total - part]
    return table


def bounded_sums(limit):
    """sum_{k=2..n-2} c(k, n-k) for n = 0..limit, where c(k, m) counts the
    partitions of k with parts in [2, m].  One coin-DP row c(., m) rolls
    over m = 2..limit-2 and every c(k, m) is scattered to n = k + m, settled
    or not.  The reference for counting.bounded_sums."""
    sums = [0] * (limit + 1)
    row = [1] + [0] * max(limit - 2, 0)
    for m in range(2, limit - 1):
        for total in range(m, limit - m + 1):
            row[total] += row[total - m]
        for k in range(2, limit - m + 1):
            sums[k + m] += row[k]
    return sums


def prefix_counts(limit):
    """Entry lo, for lo = 0..limit, counts the prefixes mu, the nuclear
    partitions with () included, with lo = |mu| + 2 max(mu, 2), each
    built and counted.  lo >= |mu| + 4, so |mu| runs to limit - 4.  The
    reference for counting._prefixes_by_lo."""
    counts = [0] * (limit + 1)
    for size in range(limit - 3):
        for mu in ascending_partitions(size, 2):
            lo = size + 2 * max(mu, default=2)
            if lo <= limit:
                counts[lo] += 1
    return counts


# The derived congruence families as sums over an exact count table (with
# .p, .nu and .gamma columns), at the progression's end e = a*n + b, over
# its step a: a window of a nu values, and a weighted sum of a - 1 gammas.
DERIVED_FAMILIES = {
    "nu_window": lambda t, a, e: sum(t.nu[e - a + 1 : e + 1]),
    "nu_k_progression": lambda t, a, e: t.p[e] - t.p[e - a],
    "gamma_weighted": lambda t, a, e: sum(k * t.gamma[e - a + 1 + k] for k in range(1, a)),
}


def derived_violations(family, table, progression, modulus, limit_n):
    """(n, r) for n = 1..limit_n where the family's value at a*n + b, with
    (a, b) = progression, leaves the residue r != 0 mod modulus."""
    a, b = progression
    value = DERIVED_FAMILIES[family]
    residues = ((n, value(table, a, a * n + b) % modulus) for n in range(1, limit_n + 1))
    return [(n, r) for n, r in residues if r]


def row_spec(spec):
    """The rows a ``table --rows`` spec such as 1-20,100 selects, sorted,
    parsing a range and a single row by separate branches; raises
    argparse.ArgumentTypeError as the CLI does.  The reference for
    cli._row_spec."""
    rows = set()
    try:
        for chunk in spec.split(","):
            chunk = chunk.strip()
            if "-" in chunk:
                lo_text, _, hi_text = chunk.partition("-")
                lo, hi = int(lo_text), int(hi_text)
                if lo > hi or lo < 0:
                    raise ValueError
                rows.update(range(lo, hi + 1))
            else:
                value = int(chunk)
                if value < 0:
                    raise ValueError
                rows.add(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"row spec must look like 1-20,100 (nonnegative, ascending ranges), got {spec!r}") from None
    if not rows:
        raise argparse.ArgumentTypeError("row spec selects no rows")
    return sorted(rows)
