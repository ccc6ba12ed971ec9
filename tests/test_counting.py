import tracemalloc

import pytest

from nucleus.counting import (
    RestrictedCounts,
    _extend_p,
    bounded_sums,
    build_table,
    enumerated_counts,
    extend_table,
    gamma_chain_sweep,
    gamma_weights_sweep,
    k_nuclear_sweep,
    n_nu_minus_gamma_sweep,
    nu_chain_sweep,
    nu_bounded,
    nu_k,
    nu_via_bounded_sum,
    nu_via_gamma_chain,
    nuclear_gaps,
    p_via_gamma_weights,
    p_via_gap_sum,
    p_via_k_nuclear,
    p_via_n_nu_minus_gamma,
    p_via_nu_chain,
)

from oracles import REFERENCE_ROWS, all_partitions, partition_counts
from oracles import bounded_sums as scatter_all_bounded_sums

K_VALUES = (1, 2, 3, 5, 7, 11)


@pytest.fixture(scope="module")
def table():
    return build_table(220)


# --- the pentagonal table ---

def test_reference_rows():
    t = build_table(100)
    for n, (gamma, nu, p) in REFERENCE_ROWS.items():
        assert (t.gamma[n], t.nu[n], t.p[n]) == (gamma, nu, p), f"row {n}"


def test_zero_table():
    t = build_table(0)
    assert t.limit == 0
    assert t.p == [1] and t.nu == [1] and t.gamma == [0]


def test_negative_limit_rejected():
    with pytest.raises(ValueError):
        build_table(-1)


def test_p_matches_coin_dp():
    assert build_table(60).p == partition_counts(60)


def test_monotonicity(big_table):
    t = big_table
    assert all(t.p[n] <= t.p[n + 1] for n in range(t.limit))
    assert all(t.nu[n] <= t.nu[n + 1] for n in range(1, t.limit))


def test_difference_identities(big_table):
    t = big_table
    assert t.p[0] == 1 and t.nu[0] == 1
    assert t.gamma[:4] == [0, 0, 0, 0]
    assert all(t.nu[n] == t.p[n] - t.p[n - 1] for n in range(1, t.limit + 1))
    assert all(t.gamma[n] == t.nu[n] - t.nu[n - 1] for n in range(3, t.limit + 1))


def test_extend_equals_fresh():
    grown = extend_table(build_table(60), 150)
    fresh = build_table(150)
    assert grown.limit == fresh.limit == 150
    assert grown.p == fresh.p and grown.nu == fresh.nu and grown.gamma == fresh.gamma


@pytest.mark.parametrize("modulus", [None, 2, 11, 10**9 + 7])
def test_extend_p_resumes_at_every_prefix(modulus):
    # 0..130 crosses 18 generalised pentagonal numbers, so resumes land on,
    # just before and just after every change of the offsets in use.
    exact = partition_counts(130)
    want = exact if modulus is None else [v % modulus for v in exact]
    for start in range(131):
        assert _extend_p(want[:start] or [1], 130, modulus) == want, start


def test_extend_noop_when_large_enough():
    t = build_table(50)
    assert extend_table(t, 30) is t


def test_values_pass_64_bits(big_table):
    assert big_table.p[416].bit_length() == 64
    assert big_table.p[417].bit_length() == 65
    assert int(str(big_table.p[500])) == big_table.p[500]
    assert big_table.p[500] == 2300165032574323995027


# --- restricted counts ---

def test_nu_k_examples(table):
    assert nu_k(9, 5, table) == 25
    assert nu_k(0, 7, table) == 1
    for n in range(21):
        assert nu_k(n, 1, table) == table.nu[n]


def test_nu_k_brute_force(table):
    for n in range(16):
        qs = all_partitions(n)
        for k in range(1, 7):
            assert nu_k(n, k, table) == sum(1 for q in qs if k not in q)


def test_nu_k_range_errors(table):
    with pytest.raises(ValueError):
        nu_k(table.limit + 1, 5, table)
    with pytest.raises(ValueError):
        nu_k(5, 0, table)


def test_nu_bounded_examples():
    for m in (1, 2, 5):
        assert nu_bounded(0, m) == 1
    assert nu_bounded(4, 2) == 1   # only (2,2)
    assert nu_bounded(3, 2) == 0
    assert nu_bounded(7, 1) == 0


def test_nu_bounded_brute_force():
    for n in range(31):
        qs = all_partitions(n)
        for m in range(1, n + 1):
            expected = sum(1 for q in qs if all(2 <= x <= m for x in q))
            assert nu_bounded(n, m) == expected, (n, m)


def test_nu_bounded_saturates_at_full_range(table):
    for n in range(31):
        assert nu_bounded(n, max(n, 1)) == table.nu[n]
        assert nu_bounded(n, n + 5) == table.nu[n]


def test_restricted_counts_growth_consistency():
    grown = RestrictedCounts()
    grown.ensure(8)
    grown.ensure(40)
    fresh = RestrictedCounts()
    for n in range(41):
        for m in range(1, 12):
            assert grown.count(n, m) == fresh.count(n, m) == nu_bounded(n, m)


# --- identity routes ---

def test_nu_chain_examples(table):
    assert p_via_nu_chain(6, table).value == 11
    assert p_via_nu_chain(0, table).value == 1
    assert p_via_nu_chain(20, table).value == 627
    assert p_via_nu_chain(5, table).method == "nu_chain"


def test_nu_chain_sweep(table):
    for n in range(table.limit + 1):
        assert p_via_nu_chain(n, table).value == table.p[n]


def test_gap_sum_examples(table):
    assert p_via_gap_sum(6).value == 11
    assert p_via_gap_sum(2).value == 2
    assert p_via_gap_sum(12).value == 77
    assert sorted(nuclear_gaps(6)) == [0, 0, 2]


def test_gap_sum_domain():
    with pytest.raises(ValueError, match="n >= 2"):
        p_via_gap_sum(1)
    with pytest.raises(ValueError, match="n >= 2"):
        p_via_gap_sum(0)


def test_gap_sum_sweep(table):
    for n in range(2, 41):
        assert p_via_gap_sum(n).value == table.p[n]


def test_gamma_chain_examples(table):
    assert nu_via_gamma_chain(2, table) == 1
    assert nu_via_gamma_chain(6, table) == 4
    assert nu_via_gamma_chain(20, table) == 137
    with pytest.raises(ValueError):
        nu_via_gamma_chain(1, table)
    with pytest.raises(ValueError):
        nu_via_gamma_chain(table.limit + 1, table)


def test_gamma_weights_examples(table):
    assert p_via_gamma_weights(6, table).value == 11
    assert p_via_gamma_weights(2, table).value == 2
    assert p_via_gamma_weights(20, table).value == 627


def test_n_nu_minus_gamma_examples(table):
    assert p_via_n_nu_minus_gamma(6, table).value == 6 * 4 - 13 == 11
    assert p_via_n_nu_minus_gamma(2, table).value == 2


def test_n_nu_minus_gamma_at_100():
    t = build_table(100)
    assert p_via_n_nu_minus_gamma(100, t).value == 190569292


@pytest.mark.parametrize("call, limit_mb", [(lambda: nu_bounded(600, 2), 0.5),
                                            (lambda: nu_via_bounded_sum(600), 2)],
                         ids=["nu_bounded", "nu_via_bounded_sum"])
def test_bounded_per_n_functions_run_in_linear_memory(call, limit_mb):
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 2**20


def test_gamma_route_sweeps(table):
    for n in range(2, table.limit + 1):
        assert nu_via_gamma_chain(n, table) == table.nu[n]
        assert p_via_gamma_weights(n, table).value == table.p[n]
        assert p_via_n_nu_minus_gamma(n, table).value == table.p[n]


def test_bounded_sum_examples():
    assert nu_via_bounded_sum(4) == (1, 2)
    assert nu_via_bounded_sum(5) == (1, 2)
    assert nu_via_bounded_sum(6) == (3, 4)
    with pytest.raises(ValueError):
        nu_via_bounded_sum(3)


def test_bounded_sum_sweep(table):
    for n in range(4, 201):
        truncated, total = nu_via_bounded_sum(n)
        assert total == table.nu[n]
        assert truncated == table.nu[n] - 1, f"truncated form must be short by exactly 1 at n={n}"


def test_k_nuclear_examples(table):
    shifted, result = p_via_k_nuclear(6, 2, table)
    assert shifted == 6
    assert result.value == 11
    shifted, result = p_via_k_nuclear(5, 7, table)
    assert result.value == 7  # floor(5/7) = 0: bare p(5)
    assert shifted == 7


def test_k_nuclear_reduces_to_nu_chain_at_k1(table):
    for n in range(41):
        _, result = p_via_k_nuclear(n, 1, table)
        assert result.value == p_via_nu_chain(n, table).value
        terms = [nu_k(n - j, 1, table) for j in range(n)]
        assert terms == [table.nu[m] for m in range(n, 0, -1)]


def test_k_nuclear_sweep(table):
    for k in K_VALUES:
        for n in range(table.limit + 1):
            assert p_via_k_nuclear(n, k, table)[1].value == table.p[n], (n, k)


def test_k_nuclear_shifted_equals_the_displaced_sum():
    t = build_table(300)
    for k in range(1, 14):
        for n in range(t.limit + 1):
            steps = n // k
            direct = t.p[n % k] + sum(nu_k(n - j * k, k, t) for j in range(1, steps + 1))
            assert p_via_k_nuclear(n, k, t)[0] == direct, (n, k)


def test_k_nuclear_rejects_bad_args(table):
    with pytest.raises(ValueError):
        p_via_k_nuclear(5, 0, table)
    with pytest.raises(ValueError):
        p_via_k_nuclear(table.limit + 1, 2, table)


# --- whole-range sweeps ---

def test_sweeps_equal_the_per_n_functions_and_the_direct_sums():
    t = build_table(300)
    span, domain = range(301), range(2, 301)
    nu_chain = nu_chain_sweep(t, 300)
    assert [nu_chain[n] for n in span] == [p_via_nu_chain(n, t).value for n in span]
    assert [nu_chain[n] for n in span] == [sum(t.nu[: n + 1]) for n in span]
    gamma_chain = gamma_chain_sweep(t, 300)
    assert [gamma_chain[n] for n in domain] == [nu_via_gamma_chain(n, t) for n in domain]
    assert [gamma_chain[n] for n in domain] == [1 + sum(t.gamma[3 : n + 1]) for n in domain]
    weights = gamma_weights_sweep(t, 300)
    assert [weights[n] for n in domain] == [p_via_gamma_weights(n, t).value for n in domain]
    assert [weights[n] for n in domain] == [
        n + sum((n - k + 1) * t.gamma[k] for k in range(3, n + 1)) for n in domain]
    n_nu = n_nu_minus_gamma_sweep(t, 300)
    assert [n_nu[n] for n in domain] == [p_via_n_nu_minus_gamma(n, t).value for n in domain]
    assert [n_nu[n] for n in domain] == [
        n * t.nu[n] - sum((k - 1) * t.gamma[k] for k in range(3, n + 1)) for n in domain]
    for k in K_VALUES:
        skip = k_nuclear_sweep(t, k, 300)
        assert skip == [p_via_k_nuclear(n, k, t)[1].value for n in span], k
        assert skip == [t.p[n % k] + sum(nu_k(n - j * k, k, t) for j in range(n // k)) for n in span], k
    assert all(len(values) == 301 for values in (nu_chain, gamma_chain, weights, n_nu))


def test_sweeps_stop_at_their_last_n():
    t = build_table(40)
    for last in range(8):
        assert nu_chain_sweep(t, last) == nu_chain_sweep(t, 40)[: last + 1]
        assert gamma_chain_sweep(t, last) == gamma_chain_sweep(t, 40)[: last + 1]
        assert gamma_weights_sweep(t, last) == gamma_weights_sweep(t, 40)[: last + 1]
        assert n_nu_minus_gamma_sweep(t, last) == n_nu_minus_gamma_sweep(t, 40)[: last + 1]
        assert k_nuclear_sweep(t, 3, last) == t.p[: last + 1]
        assert bounded_sums(last) == bounded_sums(40)[: last + 1]


def test_sweeps_reject_bad_args():
    t = build_table(20)
    for sweep in (nu_chain_sweep, gamma_chain_sweep, gamma_weights_sweep, n_nu_minus_gamma_sweep):
        with pytest.raises(ValueError):
            sweep(t, 21)
    with pytest.raises(ValueError):
        k_nuclear_sweep(t, 0, 10)
    with pytest.raises(ValueError):
        k_nuclear_sweep(t, 2, 21)
    with pytest.raises(ValueError):
        bounded_sums(-1)


def test_bounded_sums_equal_the_bounded_sum_route():
    t = build_table(300)
    sums = bounded_sums(300)
    assert len(sums) == 301 and sums[:4] == [0, 0, 0, 0]
    for n in range(4, 301):
        assert sums[n] + 1 == nu_via_bounded_sum(n)[1] == t.nu[n], n


def test_bounded_sums_equal_the_scatter_all_reference():
    for limit in (*range(81), 301, 777):
        assert bounded_sums(limit) == scatter_all_bounded_sums(limit), limit


def test_bounded_sums_give_nu_to_2000():
    nu = build_table(2000).nu
    sums = bounded_sums(2000)
    assert sums[:4] == [0, 0, 0, 0]
    assert [sums[n] + 1 for n in range(4, 2001)] == nu[4:]


# --- counts agree with direct enumeration ---

def test_enumeration_agreement_to_40(table):
    from nucleus.partitions import EnumerationConstraint, iter_parts

    nuclear = EnumerationConstraint(min_part=2)
    for n in range(41):
        stream = list(iter_parts(n, nuclear))
        assert len(stream) == table.nu[n]
        ground = sum(1 for q in stream if len(q) >= 2 and q[0] == q[1])
        assert ground == table.gamma[n]


def test_enumerated_counts_match_the_table(table):
    for n in range(2, 31):
        assert enumerated_counts(n) == (table.nu[n], table.p[n], table.gamma[n]), n
    # n = 0 has the one nuclear partition (), n = 1 none; the gap-sum
    # value undercounts both, p(0) = p(1) = 1.
    assert enumerated_counts(0) == (1, 0, 0)
    assert enumerated_counts(1) == (0, 0, 0)
    for n in (0, 1, 2):
        assert list(nuclear_gaps(n)) == []


def test_nu_bounded_matches_bounded_enumeration():
    from nucleus.partitions import EnumerationConstraint, iter_parts

    for n in range(25):
        for m in range(1, n + 2):
            c = EnumerationConstraint(min_part=2, max_part=max(m, 2))
            streamed = sum(1 for _ in iter_parts(n, c)) if m >= 2 else (1 if n == 0 else 0)
            assert nu_bounded(n, m) == streamed, (n, m)


# --- an oracle that shares no code with the package ---

def test_p_matches_sympy_at_large_n():
    numbers = pytest.importorskip("sympy.functions.combinatorial.numbers")
    t = build_table(20000)
    for n in (1000, 4567, 10000, 15001, 20000):
        assert t.p[n] == numbers.partition(n), n
