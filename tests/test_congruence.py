import random
import sys
import tracemalloc
from array import array

import pytest

from nucleus import congruence
from nucleus.congruence import (
    RAMANUJAN_PROGRESSIONS,
    check_gamma_weighted,
    check_nu_k_progression,
    check_nu_window,
    check_progression,
    check_ramanujan,
    p_mod_m_table,
    parity_via_gamma,
)
from nucleus.counting import _table_from_p, build_table, pentagonal_offsets

from oracles import DERIVED_FAMILIES, derived_violations

MODULI = (5, 7, 11)


@pytest.fixture(scope="module")
def table():
    # 11*50+6 plus slack: enough for every n <= 50 family sweep here
    return build_table(600)


# --- modular table ---

@pytest.mark.parametrize("modulus", [2, 5, 7, 11, 385])
def test_modular_table_matches_exact(table, modulus):
    residues = p_mod_m_table(500, modulus)
    assert residues.tolist() == [p % modulus for p in table.p[:501]]


def test_modular_table_examples():
    assert p_mod_m_table(20, 2)[20] == 1
    assert p_mod_m_table(4, 5)[4] == 0
    assert p_mod_m_table(12, 7)[12] == 0


def test_modular_table_rejects_bad_args():
    with pytest.raises(ValueError):
        p_mod_m_table(10, 1)
    with pytest.raises(ValueError):
        p_mod_m_table(-1, 5)


# --- blocked modular kernel ---

BLOCK = congruence._BLOCK
# How far the kernel is checked against the exact table: at least 6,145,
# however small a block is, and at least three full blocks and one residue.
REACH = max(6145, 3 * BLOCK + 1)


@pytest.fixture(scope="module")
def block_p():
    """Exact p(n) for n = 0..REACH."""
    return build_table(REACH).p


def test_modular_table_every_modulus_over_three_blocks(block_p):
    for modulus in range(2, 401):
        assert p_mod_m_table(REACH, modulus).tolist() == [p % modulus for p in block_p], modulus


# The smallest limits, with no pentagonal offset and one; the edges of the first
# three blocks, and those at 2048 and 4096: block edges for every B that divides
# 2048, they keep the check reaching past 4,096.
EDGES = sorted({0, 1, BLOCK - 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1,
                3 * BLOCK - 1, 3 * BLOCK, 3 * BLOCK + 1, 2046, 2047, 2048, 2049, 4096, 4097})


@pytest.mark.parametrize("modulus", [2, 11, 385])
@pytest.mark.parametrize("limit", EDGES)
def test_modular_table_at_block_edges(block_p, modulus, limit):
    assert p_mod_m_table(limit, modulus).tolist() == [p % modulus for p in block_p[: limit + 1]]


def _first_wider(offsets, index, width):
    """The smallest modulus whose lane plan entry ``index`` (1: R, 2: the
    block product) needs more than ``width`` bytes, by bisection."""
    low, high = 2, 1 << 40
    while low < high:
        mid = (low + high) // 2
        needed = congruence._lane_plan(offsets, mid)[index]
        if needed is not None and needed <= width:
            low = mid + 1
        else:
            high = mid
    return low


@pytest.mark.parametrize("index, width, wider", [(1, 1, 2), (1, 2, 4), (2, 4, 8), (1, 4, 8), (2, 8, None)])
def test_modular_table_either_side_of_a_lane_switch(block_p, index, width, wider):
    offsets = pentagonal_offsets(REACH)
    first = _first_wider(offsets, index, width)
    for modulus, lanes in ((first - 1, width), (first, wider)):
        assert congruence._lane_plan(offsets, modulus)[index] == lanes
        assert p_mod_m_table(REACH, modulus).tolist() == [p % modulus for p in block_p], modulus


# The moduli whose accumulators have one-byte lanes.
ONE_BYTE = [m for m in range(2, 401) if congruence._lane_plan([], m)[1] == 1]


def test_one_byte_lanes_take_room_terms_between_reductions():
    """A one-byte lane holds at most m - 1 after a reduction and each term
    adds at most m, so ``room`` terms fit in 255 and one more need not."""
    assert ONE_BYTE == list(range(2, 22))
    for modulus in ONE_BYTE:
        room = congruence._lane_plan([], modulus)[0]
        assert room >= 11
        assert (modulus - 1) + room * modulus <= 255 < (modulus - 1) + (room + 1) * modulus, modulus


def _reduced_twice(modulus):
    """The smallest limit, a whole number of blocks, at which some
    accumulator, block k's, takes 2 * room + 1 terms and so is reduced at
    least twice: one term per offset g < (k + 1) * B, as the loop reaches
    every block up to k from limit (k + 1) * B."""
    room = congruence._lane_plan([], modulus)[0]
    limit = BLOCK
    while len(pentagonal_offsets(limit - 1)) <= 2 * room:
        limit += BLOCK
    return limit


@pytest.mark.parametrize("modulus", ONE_BYTE)
def test_one_byte_accumulators_take_at_most_room_terms_between_reductions(modulus):
    """The reductions ``_reach`` schedules, replayed in the kernel's order
    (block j = 0, 1, ..., each offset in turn), for every accumulator of a
    30,000-residue table: no lane takes more than ``room`` terms after a
    reduction, nor from the start."""
    offsets = pentagonal_offsets(30000)
    room, width, _ = congruence._lane_plan(offsets, modulus)
    reach = congruence._reach(offsets, room, width)
    ahead = {}
    for d, _, _, reduce in reach:
        ahead.setdefault(d, []).append(reduce)
    most = 0
    for k in range(30000 // BLOCK + 1):
        taken = 0
        for j in range(k + 1):
            for reduce in ahead.get(k - j, ()):
                taken = 1 if reduce else taken + 1
                assert taken <= room, (k, j)
                most = max(most, taken)
    assert most == room


@pytest.fixture(scope="module")
def reduced_p():
    """Exact p(n) up to the largest limit ``_reduced_twice`` gives (m = 2)."""
    return build_table(max(map(_reduced_twice, ONE_BYTE))).p


@pytest.mark.parametrize("modulus", ONE_BYTE)
def test_one_byte_lanes_reduced_twice_match_exact(reduced_p, modulus):
    limit = _reduced_twice(modulus)
    assert p_mod_m_table(limit, modulus).tolist() == [p % modulus for p in reduced_p[: limit + 1]]


def test_modular_table_huge_modulus_runs_the_recurrence(block_p):
    modulus = 10**9 + 7
    assert congruence._lane_plan(pentagonal_offsets(REACH), modulus)[2] is None
    assert p_mod_m_table(REACH, modulus).tolist() == [p % modulus for p in block_p]


# Each side of each residue width: 1, 2, 4 and 8 bytes, and a list past 64 bits.
@pytest.mark.parametrize("modulus, typecode", [
    (256, "B"), (257, "H"), (65536, "H"), (65537, "I"),
    (2**32, "I"), (2**32 + 1, "Q"), (10**9 + 7, "I"), (2**64, "Q"), (2**64 + 1, None)])
def test_modular_table_holds_each_residue_in_the_narrowest_type(block_p, modulus, typecode):
    residues = p_mod_m_table(REACH, modulus)
    if typecode is None:
        assert type(residues) is list
    else:
        assert isinstance(residues, array) and residues.typecode == typecode
    if modulus == 10**9 + 7:
        assert congruence._lane_plan(pentagonal_offsets(REACH), modulus)[2] is None
    assert list(residues) == [p % modulus for p in block_p]


def test_modular_table_on_a_big_endian_host_runs_the_recurrence(monkeypatch):
    expected = p_mod_m_table(5000, 11)
    monkeypatch.setattr(sys, "byteorder", "big")

    def no_lanes(*args):
        raise AssertionError("packed lanes on a big-endian host")

    monkeypatch.setattr(congruence, "_pack", no_lanes)
    assert p_mod_m_table(5000, 11) == expected


def test_modular_table_memory_is_linear():
    # The returned array holds one byte per residue (0.11 MB), and the call
    # peaks at about 0.45 MB on CPython 3.11 with the pending accumulators,
    # one byte a lane; 2-byte lanes (0.70 MB), a list of residues (8 bytes
    # each), an FFT or a dense design would not fit.
    tracemalloc.start()
    try:
        p_mod_m_table(110006, 11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6


# --- a large-n oracle that shares no code with the package ---

# 5*7*11*13*17*19*23: large, yet R and the block product both fit 8-byte lanes.
HRR_MODULUS = 37182145


def _sampled_n(limit):
    """The first block edges, the last n, and 60 seeded random n up to ``limit``."""
    rng = random.Random(limit)
    return sorted({BLOCK - 1, BLOCK, 2 * BLOCK - 1, 2 * BLOCK, limit, *rng.sample(range(limit + 1), 60)})


@pytest.mark.parametrize("limit", [200000, pytest.param(1100006, marks=pytest.mark.slow)])
def test_modular_table_matches_hrr_at_large_n(limit):
    numbers = pytest.importorskip("sympy.functions.combinatorial.numbers")
    _, width, wide = congruence._lane_plan(pentagonal_offsets(limit), HRR_MODULUS)
    assert (width, wide) == (8, 8)
    residues = p_mod_m_table(limit, HRR_MODULUS)
    for n in _sampled_n(limit):
        expected = int(numbers.partition(n)) % HRR_MODULUS
        assert residues[n] == expected, n
    # mod each factor the kernel runs on narrower lanes, one byte wide up to 19
    for modulus in (5, 7, 11, 13, 17, 19, 23):
        assert [r % modulus for r in residues] == p_mod_m_table(limit, modulus).tolist(), modulus


def test_huge_modulus_fallback_matches_hrr():
    numbers = pytest.importorskip("sympy.functions.combinatorial.numbers")
    modulus = 10**9 + 7
    assert congruence._lane_plan(pentagonal_offsets(20000), modulus)[2] is None
    residues = p_mod_m_table(20000, modulus)
    for n in _sampled_n(20000):
        expected = int(numbers.partition(n)) % modulus
        assert residues[n] == expected, n


# --- Ramanujan progressions ---

def test_ramanujan_known_values(table):
    assert table.p[4] == 5
    assert table.p[12] == 77 and table.p[12] % 7 == 0
    assert table.p[17] == 297 and table.p[17] % 11 == 0


@pytest.mark.parametrize("modulus", MODULI)
def test_ramanujan_sweep(modulus):
    report = check_ramanujan(modulus, 200)
    assert report.passed
    assert report.family.family_id == "ramanujan"
    assert report.family.progression == RAMANUJAN_PROGRESSIONS[modulus]
    assert report.range_checked == (0, 200)


def test_ramanujan_rejects_other_moduli():
    with pytest.raises(ValueError):
        check_ramanujan(13, 10)


def test_ramanujan_with_shared_residues():
    residues = p_mod_m_table(5 * 60 + 4, 5)
    assert check_ramanujan(5, 60, residues=residues).passed
    with pytest.raises(ValueError):
        check_ramanujan(5, 61, residues=residues)


def test_custom_progression_finds_violations():
    report = check_progression(2, 0, 3, 50)
    assert not report.passed
    assert report.violations[0] == (0, 1)  # p(0) = 1
    assert report.family.family_id == "custom"


# --- nu windows ---

def test_nu_window_known_sums(table):
    assert sum(table.nu[5:10]) == 25
    assert sum(table.nu[10:15]) == 105
    # the full 7-term window ending at 12 works; the 6-term one does not
    assert sum(table.nu[6:13]) == 70
    assert sum(table.nu[7:13]) == 66 and 66 % 7 != 0
    # same story for 11: 11 terms ending at 17, not 7 of them
    assert sum(table.nu[7:18]) == 286
    assert sum(table.nu[11:18]) == 255 and 255 % 11 != 0


@pytest.mark.parametrize("modulus", MODULI)
def test_nu_window_sweep(modulus):
    report = check_nu_window(modulus, 50)
    assert report.passed
    assert report.family.start_n == 1
    assert report.range_checked == (1, 50)


def test_nu_window_needs_big_enough_table():
    with pytest.raises(ValueError, match="too short"):
        check_nu_window(11, 50, residues=p_mod_m_table(100, 11))


def test_nu_window_detects_injected_corruption(table):
    """A corrupted p value must surface as a window violation: the window
    sum p(e) - p(e-5) is the running-sum shadow of the Ramanujan congruence."""
    bad = list(table.p)
    bad[14] += 1
    # window n=2 covers nu(10..14), p(14) - p(9); window n=3 would read p(14) too
    report = check_nu_window(5, 2, residues=bad)
    assert [n for n, _ in report.violations] == [2]


# --- nu_k progressions ---

def test_nu_k_progression_known_values(table):
    assert table.p[9] - table.p[4] == 25
    assert table.p[12] - table.p[5] == 70
    assert table.p[17] - table.p[6] == 286


@pytest.mark.parametrize("modulus", MODULI)
def test_nu_k_progression_sweep(modulus):
    report = check_nu_k_progression(modulus, 50)
    assert report.passed
    assert report.family.start_n == 1


# --- weighted gamma ---

def test_gamma_weighted_known_sums(table):
    g = table.gamma
    assert g[6] + 2 * g[7] + 3 * g[8] + 4 * g[9] == 15
    assert g[11] + 2 * g[12] + 3 * g[13] + 4 * g[14] == 65
    assert sum(t * g[6 + t] for t in range(1, 7)) == 77       # modulus 7, n=1
    assert sum(t * g[7 + t] for t in range(1, 11)) == 440     # modulus 11, n=1


def test_gamma_weighted_excludes_n0(table):
    # at n=0 the mod-5 weighted sum is 4, hence start_n = 1
    g = table.gamma
    assert g[1] + 2 * g[2] + 3 * g[3] + 4 * g[4] == 4
    report = check_gamma_weighted(5, 10)
    assert report.family.start_n == 1
    assert report.range_checked[0] == 1


@pytest.mark.parametrize("modulus", MODULI)
def test_gamma_weighted_sweep(modulus):
    assert check_gamma_weighted(modulus, 50).passed


def test_gamma_weighted_detects_injected_corruption(table):
    bad = list(table.p)
    bad[4] += 1
    # n=1 reads 5*(p(9) - p(8)) - (p(9) - p(4)); no later n reads p(4)
    report = check_gamma_weighted(5, 5, residues=bad)
    assert [n for n, _ in report.violations] == [1]


# --- residue checkers against the exact-table sums ---

DERIVED_CHECKS = {
    "nu_window": check_nu_window,
    "nu_k_progression": check_nu_k_progression,
    "gamma_weighted": check_gamma_weighted,
}


@pytest.fixture(scope="module")
def exact_p():
    return build_table(11 * 200 + 6).p


@pytest.mark.parametrize("bump", [None, *range(61)])
def test_derived_families_agree_with_exact_sums(exact_p, bump):
    """The p-difference forms give the violations (n, r) that the sums over
    the exact nu and gamma columns give, on clean p and with one p bumped."""
    p = list(exact_p)
    if bump is not None:
        p[bump] += 1
    table = _table_from_p(p)
    for family, check in DERIVED_CHECKS.items():
        for modulus in MODULI:
            offset = RAMANUJAN_PROGRESSIONS[modulus][1]
            expected = derived_violations(family, table, modulus, offset, 200)
            assert check(modulus, 200, residues=p).violations == expected, (family, modulus)
            if bump is None:
                assert expected == []
                # mod m the gamma form drops its m*(p(e) - p(e-1)) term, so pin the exact values too
                for e in range(modulus + offset, 200 * modulus + offset + 1, modulus):
                    assert congruence._VALUES[family](p, modulus, e) == DERIVED_FAMILIES[family](table, modulus, e)


# --- parity ---

def test_parity_examples(table):
    assert sum(table.gamma[4:21:2]) == 95
    assert parity_via_gamma(20, table) == 1
    assert parity_via_gamma(4, table) == 1
    assert parity_via_gamma(6, table) == 1


def test_parity_rejects_bad_n(table):
    with pytest.raises(ValueError):
        parity_via_gamma(7, table)
    with pytest.raises(ValueError):
        parity_via_gamma(2, table)
    top = table.limit
    with pytest.raises(ValueError, match=f"^n={top + 2} exceeds the table limit {top}$"):
        parity_via_gamma(top + 2, table)


def test_parity_agrees_with_modular_table(table):
    residues = p_mod_m_table(600, 2)
    for n in range(4, 601, 2):
        assert parity_via_gamma(n, table) == residues[n], n
