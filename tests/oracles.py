"""Brute-force reference implementations, kept independent of the package.

The enumerator recurses on ascending parts and the counter is the plain
coin dynamic program, so neither shares an algorithm with the code under
test.
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


def partition_counts(limit):
    """p(0..limit) by the coin dynamic program."""
    table = [1] + [0] * limit
    for part in range(1, limit + 1):
        for total in range(part, limit + 1):
            table[total] += table[total - part]
    return table


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
