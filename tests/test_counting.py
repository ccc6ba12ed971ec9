import random
import tracemalloc
from array import array
from collections import Counter
from itertools import accumulate
from operator import le

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nucleus import counting
from nucleus.counting import (
    CountTable,
    RestrictedCounts,
    _extend_p,
    _k_skip_chain,
    _raise_bound,
    _raise_bounds_lanes,
    bounded_sums,
    build_table,
    enumerated_counts,
    enumerated_sweep,
    extend_table,
    gamma_chain_sweep,
    gamma_weights_sweep,
    n_nu_minus_gamma_sweep,
    nu_chain_sweep,
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
from nucleus.partitions import NUCLEAR

from oracles import REFERENCE_ROWS, all_partitions, partition_counts, reverse_lex_partitions
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


_BOUND = st.none() | st.integers(-15, 15)


@given(st.lists(st.integers(-10**30, 10**30), max_size=12), _BOUND, _BOUND, st.none() | st.integers(-4, 4).filter(bool))
def test_difference_views_match_plain_lists(p, start, stop, step):
    """nu and gamma of a table hold p alone; read as a slice (any bounds
    and step), by index, by iteration or by ==, they equal the lists of
    the differences the table defines, whatever the list p."""
    nu = [p[n] - p[n - 1] if n else 1 for n in range(len(p))]
    gamma = [nu[n] - nu[n - 1] if n >= 3 else 0 for n in range(len(p))]
    t = CountTable(p)
    rows = slice(start, stop, step)
    assert type(t.nu[rows]) is list and t.nu[rows] == nu[rows]
    assert type(t.gamma[rows]) is list and t.gamma[rows] == gamma[rows]
    assert len(t.nu) == len(t.gamma) == len(p)
    assert list(t.nu) == nu and list(t.gamma) == gamma
    assert t.nu == nu and nu == t.nu and t.gamma == gamma and gamma == t.gamma
    assert t.nu != nu + [0] and t.gamma != [0] + gamma and t.nu != tuple(nu)
    assert t.nu == CountTable(list(p)).nu
    assert [t.nu[n] for n in range(-len(p), len(p))] == nu + nu
    assert [t.gamma[n] for n in range(-len(p), len(p))] == gamma + gamma
    for n in (len(p), -len(p) - 1):
        with pytest.raises(IndexError):
            t.nu[n]
        with pytest.raises(IndexError):
            t.gamma[n]


@pytest.mark.parametrize("prefix", [0, 1, 2, 3, 4, 60])
def test_extend_equals_fresh(prefix):
    """Extending from every prefix up to n = 4 puts the first new gamma
    row below, at and above n = 3, where gamma stops being 0.  Both tables
    also equal the differences of the coin DP's p, so a wrong rule shared
    by the build and the extension still fails."""
    start = build_table(prefix)
    before = [list(start.p), list(start.nu), list(start.gamma)]
    p = partition_counts(150)
    nu = [1] + [p[n] - p[n - 1] for n in range(1, 151)]
    gamma = [0, 0, 0] + [nu[n] - nu[n - 1] for n in range(3, 151)]
    extended, fresh = extend_table(start, 150), build_table(150)
    assert extended == fresh
    for t in (extended, fresh):
        assert (t.p, t.nu, t.gamma) == (p, nu, gamma)
    assert [start.p, start.nu, start.gamma] == before  # the prefix table is left as it was


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


def _coin_counts(top, m):
    """c(t, m) for t = 0..top, the partitions of t with every part in
    [2, m], by the plain coin dynamic program."""
    row = [1] + [0] * top
    for part in range(2, m + 1):
        for total in range(part, top + 1):
            row[total] += row[total - part]
    return row


def test_bounded_counts_on_both_sides_of_the_prefix_sum_switch():
    """_raise_bound with its default low = m takes c(., m - 1), where
    c(t, m) counts the partitions of t into parts in [2, m], to c(., m).
    It divides by 1 - x^m as m prefix sums, one per residue class, when
    m^2 < top + 1 - m, and as blocks of m otherwise, so the form switches
    at top = m^2 + m.  For each m = 2..12, top runs over m^2 + m - 2 ..
    m^2 + m + 1 and a few tops further out on either side."""
    for m in range(2, 13):
        switch = m * m + m
        for top in (m, 2 * m - 1, *range(switch - 2, switch + 2), switch + 5 * m, 3 * switch):
            row = _coin_counts(top, m - 1)
            _raise_bound(row, m, top)
            assert row == _coin_counts(top, m), (m, top)


@pytest.mark.parametrize("size", [0, 1, 40])
def test_restricted_counts_ensure_stores_every_bounded_row(size):
    """ensure(size) leaves row m = 0..size as c(., m) on degrees 0..size,
    as the coin dynamic program counts it."""
    counts = RestrictedCounts()
    counts.ensure(size)
    for m in range(size + 1):
        assert counts._rows[m] == _coin_counts(size, m), m


@pytest.mark.parametrize("split", [False, True], ids=["low_2m", "low_s_plus_1"])
def test_raise_bound_on_both_sides_of_the_prefix_sum_switch(split):
    """_raise_bound as bounded_sums calls it, dividing by 1 - x^m from
    degree low on: in the lane stage's per-entry form low = 2m, on a row
    with no term of the bracket below degree m (x^m times c(., m - 1),
    where c(t, m) counts the partitions of t into parts in [2, m], and
    ones below m that it must not read); once the top degrees above s
    have left the 64-bit lanes, low = s + 1 > 2m + 1, on a row whose
    degrees below low are already divided.  Either way the row must come
    out as the coin DP's c(., m) on low..top, the rest kept.  The
    division runs as m prefix sums when m^2 < top + 1 - low and as blocks
    of m otherwise; for each m = 2..12, top runs over the switch at
    low + m^2 - 1 and to a few tops on either side."""
    for m in range(2, 13):
        for low in (2 * m + 3, 3 * m + 1) if split else (2 * m,):
            shift = 0 if split else m
            switch = low + m * m - 1
            for top in (low, low + m - 1, *range(switch - 1, switch + 3), switch + 5 * m):
                expected = [1] * shift + _coin_counts(top - shift, m)
                row = expected[:low] + ([1] * shift + _coin_counts(top - shift, m - 1))[low:]
                _raise_bound(row, m, top, low)
                assert row == expected, (m, low, top)


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


@pytest.mark.parametrize("call, limit_mb", [(lambda: nu_via_bounded_sum(600), 2),
                                            (lambda: bounded_sums(2000), 0.5)],
                         ids=["nu_via_bounded_sum", "bounded_sums"])
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


def _k_skip_sweep(t, k, last):
    """The k-skip sums for n = 0..last, one ``_k_skip_chain`` per residue
    class mod k, as the CLI's k_nuclear route reads them."""
    values = [None] * (last + 1)
    for rest in range(min(k, last + 1)):
        values[rest::k] = _k_skip_chain(t, k, rest, last)
    return values


def test_k_nuclear_sweep_sums_an_arbitrary_sequence():
    """On the true p the k-skip sums telescope to p(n), so a summation that
    is right for each n matches whatever it adds.  Here p is an arbitrary
    increasing sequence: the chains must equal the direct per-n sum
    p(n mod k) + sum_j nu_k(n - jk), on and next to each chain's first n."""
    rng = random.Random(19)
    t = CountTable(list(accumulate(rng.randrange(1, 10**30) for _ in range(301))))
    for k in range(1, 14):
        for last in sorted({0, k - 1, k, k + 1, 300}):
            direct = [t.p[n % k] + sum(nu_k(n - j * k, k, t) for j in range(n // k)) for n in range(last + 1)]
            assert _k_skip_sweep(t, k, last) == direct, (k, last)


def test_k_nuclear_rejects_bad_args(table):
    with pytest.raises(ValueError, match=r"^k must be >= 1, got 0$"):
        p_via_k_nuclear(5, 0, table)
    with pytest.raises(ValueError, match=r"^defined for n >= 0, got -1$"):
        p_via_k_nuclear(-1, 2, table)
    with pytest.raises(ValueError, match=r"^n=221 exceeds the table limit 220$"):
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
        skip = _k_skip_sweep(t, k, 300)
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
        assert _k_skip_sweep(t, 3, last) == t.p[: last + 1]
        assert bounded_sums(last) == bounded_sums(40)[: last + 1]


def test_sweeps_reject_bad_args():
    t = build_table(20)
    for sweep in (nu_chain_sweep, gamma_chain_sweep, gamma_weights_sweep, n_nu_minus_gamma_sweep):
        with pytest.raises(ValueError):
            sweep(t, 21)
    with pytest.raises(ValueError):
        bounded_sums(-1)


def test_bounded_sums_equal_the_bounded_sum_route():
    t = build_table(300)
    sums = bounded_sums(300)
    assert len(sums) == 301 and sums[:4] == [0, 0, 0, 0]
    for n in range(4, 301):
        assert sums[n] + 1 == nu_via_bounded_sum(n)[1] == t.nu[n], n


def test_bounded_sums_equal_the_scatter_all_reference():
    """bounded_sums divides by 1 - x^m from low = 2m, so _raise_bound
    switches from blocks of m to residue-class prefix sums at limit
    m^2 + 2m: limits 0..80 cross it for m <= 8, and m^2 + 2m - 1..+1 for
    m = 9..12.  The packed divisions start at m = limit // 2 from limit 4
    (limits 0..3 never pack).  The 16-bit lanes first hand the row over
    at m = 2 at limit 41, the 32-bit lanes at limit 127.  The 64-bit
    stage runs to m = 2 with every degree packed up to limit 407.  From
    408 its top degrees leave the lanes for _raise_bound: at 408 one
    degree, at m = 2; at 409 two at once, at 415 eight; from 440 the
    first at m = 3, from 483 at m = 4."""
    switch = (m * m + 2 * m + d for m in range(9, 13) for d in (-1, 0, 1))
    for limit in (*range(81), *switch, 126, 127, 301, 407, 408, 409, 415, 439, 440, 482, 483, 777):
        assert bounded_sums(limit) == scatter_all_bounded_sums(limit), limit


def _per_entry_division(row, m, top):
    """``row`` divided as ``_raise_bounds_lanes(row, m, top)`` must divide
    it: by 1 - x^b from degree 2b, for b = m..2, one entry at a time."""
    expected = list(row)
    for b in range(m, 1, -1):
        _raise_bound(expected, b, top, 2 * b)
    return expected


def _guard_row(top_lane, bound):
    """A row the lane stage takes at m = 10, top = 30: 1 on degrees
    2..21, ``bound`` - 1 on 22..29 and ``top_lane`` on 30.  A residue
    class mod 10 holds t = 3 of the degrees 10..30, so s = 2 and lane 0
    must be below 2^(bits - 2)."""
    return [0, 0] + [1] * 20 + [bound - 1] * 8 + [top_lane]


def _record_widths(monkeypatch):
    """(m, bits) of every packed division, read from ``_prefix_sums``."""
    widths = []
    prefix_sums = counting._prefix_sums

    def record(lanes, m, span, bits):
        widths.append((m, bits))
        return prefix_sums(lanes, m, span, bits)

    monkeypatch.setattr(counting, "_prefix_sums", record)
    return widths


def _record_lows(monkeypatch):
    """(m, low) of every per-entry division, read from ``_raise_bound``."""
    lows = []

    def per_entry(row, m, top, low=None):
        lows.append((m, low))
        _raise_bound(row, m, top, low)

    monkeypatch.setattr(counting, "_raise_bound", per_entry)
    return lows


@pytest.mark.parametrize("split_at, over", [((9, 22), -1), ((10, 30), 0)],
                         ids=["all_below_2^62", "one_at_2^62"])
def test_packed_division_guard(monkeypatch, split_at, over):
    """64-bit lanes cannot widen, so a lane 0 that fails the guard splits
    the row.  A top lane of 2^62 - 1 passes at m = 10 and is divided
    packed; its sum of three, 2^62 + 1, fails at m = 9, where the nine
    lanes of degrees 22..30 (all at 2^62 or above) leave for _raise_bound.
    A top lane of 2^62 fails at once and leaves alone, at m = 10."""
    row = _guard_row(2**62 + over, 2**62)
    expected = _per_entry_division(row, 10, 30)
    lows = _record_lows(monkeypatch)
    _raise_bounds_lanes(row, 10, 30)
    assert row == expected
    assert lows[0] == split_at


@pytest.mark.parametrize("over", [-1, 0], ids=["all_below", "top_lane_at"])
@pytest.mark.parametrize("width", [2, 4, 8])
def test_packed_division_guard_at_each_width(monkeypatch, width, over):
    """The lanes start as wide as the top entry needs, ``width`` bytes
    here.  With lane 0 at 2^(8 width - 2) - 1 the division at m = 10
    runs at that width and the sum of three fails the guard at m = 9;
    with lane 0 at 2^(8 width - 2) it fails at m = 10.  Where the guard
    fails, 16- and 32-bit lanes widen in place to twice the width and
    divide there; 64-bit lanes stay 64 bits wide and split instead."""
    bits = 8 * width
    row = _guard_row((1 << bits - 2) + over, 1 << bits - 2)
    expected = _per_entry_division(row, 10, 30)
    record = _record_widths(monkeypatch)
    _raise_bounds_lanes(row, 10, 30)
    assert row == expected
    wider = min(2 * bits, 64)
    assert record[:2] == [(10, bits if over < 0 else wider), (9, wider)]


@pytest.mark.parametrize("failing, top_lane", [(1, 2**62), (1, 2**64 - 1), (3, 2**62)],
                         ids=["one_at_2^62", "one_that_would_carry", "three_at_2^62"])
def test_64_bit_stage_divides_only_the_failing_top_lanes_per_entry(monkeypatch, failing, top_lane):
    """At m = 10, top = 30 every 64-bit lane must be below 2^62.  The top
    ``failing`` degrees are not, and only they leave the lanes: the first
    per-entry division, at m = 10, starts at degree 31 - failing.  The
    lane below them passes, so a guard that read it would keep a top lane
    of 2^64 - 1, whose sum of three carries.  The stage then divides down
    to m = 2 as _raise_bound does."""
    row = _guard_row(top_lane, 2**62)
    row[31 - failing:] = [top_lane] * failing
    expected = _per_entry_division(row, 10, 30)
    lows = _record_lows(monkeypatch)
    _raise_bounds_lanes(row, 10, 30)
    assert row == expected
    assert lows[0] == (10, 31 - failing)


@st.composite
def _lane_rows(draw):
    """(row, m, top) that meet the lane stage's contract: entries
    nonnegative and below 2^64, at most 1 on degrees 2..2m + 1 and
    nondecreasing on m..top.  Degrees 0 and 1 are never read.  The
    degrees above 2m + 1 are drawn anywhere below 2^64 or within 3 of a
    guard bound 2^(bits - s) of 16-, 32- or 64-bit lanes."""
    m = draw(st.integers(2, 12))
    top = draw(st.integers(2 * m + 1, 6 * m + 10))
    low = draw(st.lists(st.integers(0, 1), min_size=2 * m, max_size=2 * m))
    low[m - 2:] = sorted(low[m - 2:])
    near = st.builds(lambda bits, s, d: (1 << bits - s) + d,
                     st.sampled_from([16, 32, 64]), st.integers(1, 6), st.integers(-3, 3))
    high = draw(st.lists(near | st.integers(0, 2**64 - 1),
                         min_size=top - 2 * m - 1, max_size=top - 2 * m - 1))
    high = [min(max(value, low[-1]), 2**64 - 1) for value in sorted(high)]
    return draw(st.lists(st.integers(0, 9), min_size=2, max_size=2)) + low + high, m, top


def _check_lane_stage(case):
    row, m, top = case
    expected = _per_entry_division(row, m, top)
    _raise_bounds_lanes(row, m, top)
    assert row == expected


@settings(max_examples=300, deadline=None)
@given(_lane_rows())
def test_lane_stage_divides_as_raise_bound(case):
    _check_lane_stage(case)


@pytest.mark.slow
@settings(max_examples=5000, deadline=None)
@given(_lane_rows())
def test_lane_stage_divides_as_raise_bound_at_length(case):
    _check_lane_stage(case)


def test_rows_the_guard_reads_are_nondecreasing():
    """The premise of the one-lane guard: before the division at m the row
    holds x^m plus the partitions into parts >= m + 1 on degrees m..limit,
    and raising the largest part maps the partitions of d one-to-one into
    those of d + 1, so the row never falls as the degree rises.  Rolled
    here one entry at a time, which the lane stage equals
    (test_bounded_sums_equal_the_scatter_all_reference)."""
    for limit in (*range(301), 2000):
        row = [0, 0] + [1] * (limit - 1)
        for m in range(limit // 2, 1, -1):
            assert all(map(le, row[m:limit], row[m + 1:limit + 1])), (limit, m)
            _raise_bound(row, m, limit, 2 * m)


def test_bounded_sums_widen_the_lanes_where_each_width_hands_back(monkeypatch):
    """bounded_sums calls the lane stage once.  At limit 2000 its lanes
    divide at 16 bits from m = 1000, widen in place to 32 bits at 521 and
    to 64 bits at 251, and divide down to m = 2."""
    calls = []
    lanes = counting._raise_bounds_lanes

    def once(row, m, top):
        calls.append((m, top))
        lanes(row, m, top)

    monkeypatch.setattr(counting, "_raise_bounds_lanes", once)
    record = _record_widths(monkeypatch)
    assert bounded_sums(2000) == scatter_all_bounded_sums(2000)
    assert calls == [(1000, 2000)]
    first = {}
    for m, bits in record:
        first.setdefault(bits, m)
    assert first == {16: 1000, 32: 521, 64: 251}
    assert record[-1] == (2, 64)


def test_bounded_sums_widen_to_32_bits_where_the_headroom_first_fails():
    """At limit 127 the 16-bit lanes divide from m = 63.  At m = 15 the
    span is 112, so a residue class holds t = 8 degrees, s = 3, and lane 0,
    7,312, is below 2^13; a bound from t.bit_length() = 4, 2^12, would widen
    there.  At m = 14, t = 9 and s = 4, lane 0, 10,796, is not below 2^12,
    and the lanes widen to 32 bits."""
    record = []
    prefix_sums = counting._prefix_sums

    def widths(lanes, m, span, bits):
        record.append((m, bits))
        return prefix_sums(lanes, m, span, bits)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(counting, "_prefix_sums", widths)
        assert bounded_sums(127) == scatter_all_bounded_sums(127)
    first = {}
    for m, bits in record:
        first.setdefault(bits, m)
    assert first == {16: 63, 32: 14, 64: 2}


@pytest.mark.parametrize("width", [1, 2, 4, 8])
def test_lane_codec_is_little_endian_on_every_host(width):
    """Value i of ``_pack`` lands in bits 8wi..8w(i + 1) - 1 of the integer,
    whatever the host's byte order, and ``_unpack`` reads the lanes back.
    One-byte values, ``bytes`` or a one-byte ``array``, which ``_pack``
    spreads as one block, give the integer the ``struct`` path gives for
    the same values as a list."""
    top = (1 << 8 * width) - 1
    values = [top, 0, 1, top >> 1, 2, top, top - 1]
    packed = counting._pack(values, width)
    assert packed == sum(x << 8 * width * i for i, x in enumerate(values))
    assert counting._unpack(packed, width, len(values)) == tuple(values)
    assert counting._unpack(packed, width, 3) == tuple(values[:3])
    small = [255, 0, 1, 127, 2, 255, 254]
    for spread in (bytes(small), array("B", small)):
        assert counting._pack(spread, width) == counting._pack(small, width)
        assert counting._pack(spread, width) == sum(x << 8 * width * i for i, x in enumerate(small))
    assert counting._pack(b"", width) == counting._pack([], width) == 0


def test_bounded_sums_give_nu_to_2000():
    nu = build_table(2001).nu
    sums = bounded_sums(2000)
    assert sums[:4] == [0, 0, 0, 0]
    assert [sums[n] + 1 for n in range(4, 2001)] == nu[4:2001]
    odd_top = bounded_sums(2001)  # limit // 2 rounds down
    assert [odd_top[n] + 1 for n in range(4, 2002)] == nu[4:]


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
    sweep = enumerated_sweep(80)
    for n in range(2, 81):
        assert sweep[n] == (table.nu[n], table.p[n], table.gamma[n]), n
    # n = 0 has the one nuclear partition (), n = 1 none; the gap-sum
    # value undercounts both, p(0) = p(1) = 1.
    assert enumerated_counts(0) == (1, 0, 0)
    assert enumerated_counts(1) == (0, 0, 0)
    for n in (0, 1, 2):
        assert list(nuclear_gaps(n)) == []


def test_enumerated_counts_match_an_independent_enumeration():
    """One prefix sweep to 40 against the oracle's recursive reverse-lex
    walk, which shares no code with the package, and against the tally of
    ``nuclear_gaps``, which runs through ``iter_parts``."""
    sweep = enumerated_sweep(40)
    assert len(sweep) == 41
    for n in range(41):
        parts = list(reverse_lex_partitions(n, NUCLEAR))
        gaps = [q[0] - q[1] for q in parts if len(q) > 1]
        expected = (len(parts), n + len(parts) - 1 + sum(gaps), gaps.count(0))
        assert sweep[n] == expected, n
        streamed = Counter(nuclear_gaps(n))
        nu = (n != 1) + streamed.total()
        assert sweep[n] == (nu, n + nu - 1 + sum(g * c for g, c in streamed.items()), streamed[0]), n


def test_enumerated_sweep_is_a_prefix_of_a_longer_one():
    """The rows of a sweep to L are the first rows of a sweep to 60, for
    every L <= 60: the walk keeps every prefix whose runs reach L, the
    largest n included, and the rows below 4 come out the same."""
    longest = enumerated_sweep(60)
    for limit in range(61):
        assert enumerated_sweep(limit) == longest[:limit + 1], limit
        assert enumerated_counts(limit) == longest[limit], limit
    with pytest.raises(ValueError):
        enumerated_sweep(-1)


# --- an oracle that shares no code with the package ---

def test_p_matches_sympy_at_large_n():
    numbers = pytest.importorskip("sympy.functions.combinatorial.numbers")
    t = build_table(20000)
    for n in (1000, 4567, 10000, 15001, 20000):
        assert t.p[n] == numbers.partition(n), n
