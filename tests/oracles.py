"""Brute-force reference implementations, kept independent of the package.

The enumerators recurse on the parts and the counter is the plain coin
dynamic program, so none shares an algorithm with the code under test.
"""

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
    top = constraint.max_part if constraint and constraint.max_part is not None else n
    forbidden = constraint.forbidden_part if constraint else None
    return _descend(n, top, lo, forbidden, [])


def _descend(remaining, cap, lo, forbidden, prefix):
    if remaining == 0:
        yield tuple(prefix)
        return
    for part in range(min(cap, remaining), lo - 1, -1):
        if part == forbidden:
            continue
        rest = remaining - part
        if rest and rest < lo:
            continue
        prefix.append(part)
        yield from _descend(rest, part, lo, forbidden, prefix)
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


# The derived congruence families as sums over an exact count table (with
# .p, .nu and .gamma columns), at the progression's end e = m*n + b.
DERIVED_FAMILIES = {
    "nu_window": lambda t, m, e: sum(t.nu[e - m + 1 : e + 1]),
    "nu_k_progression": lambda t, m, e: t.p[e] - t.p[e - m],
    "gamma_weighted": lambda t, m, e: sum(k * t.gamma[e - m + 1 + k] for k in range(1, m)),
}


def derived_violations(family, table, modulus, offset, limit_n):
    """(n, r) for n = 1..limit_n where the family's value at modulus*n + offset
    leaves the residue r != 0 mod modulus."""
    value = DERIVED_FAMILIES[family]
    residues = ((n, value(table, modulus, modulus * n + offset) % modulus) for n in range(1, limit_n + 1))
    return [(n, r) for n, r in residues if r]
