import random
import tracemalloc
from array import array
from bisect import bisect_left
from itertools import count

import pytest

from nucleus import congruence, counting
from nucleus.cache import CHECK_MODULUS
from nucleus.congruence import (
    FAMILIES,
    RAMANUJAN_PROGRESSIONS,
    CongruenceFamily,
    CongruenceReport,
    check_family,
    check_gamma_weighted,
    check_nu_k_progression,
    check_nu_window,
    check_ramanujan,
    p_mod_m_table,
    parity_via_gamma,
)
from nucleus.counting import CountTable, build_table, pentagonal_offsets

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


@pytest.mark.parametrize("modulus", [2, 11, 385, 100003])
@pytest.mark.parametrize("limit", EDGES)
def test_modular_table_at_block_edges(block_p, modulus, limit):
    assert p_mod_m_table(limit, modulus).tolist() == [p % modulus for p in block_p[: limit + 1]]


# A modulus of each lane plan and fold: one-byte accumulators (5, 11, 21), the
# byte-plane fold (22, 128) and the lane-by-lane fold (129, 385, the cache check's).
SOLVE_PATHS = [5, 11, 21, 22, 128, 129, 385, CHECK_MODULUS]


def _superblock_edges(blocks):
    """Limits at which the rule gives superblocks of ``blocks`` blocks,
    S residues each: the first k S - 1, k S and k S + 1 where it does,
    (k + 1) S - 1 and (k + 1) S + 1, and k S + S // 2, whose last
    superblock is partial."""
    span = blocks * BLOCK
    k = next(k for k in count(1) if congruence._span(k * span - 1) == span)
    limits = [k * span - 1, k * span, k * span + 1, (k + 1) * span - 1, (k + 1) * span + 1, k * span + span // 2]
    assert {congruence._span(limit) for limit in limits} == {span}
    return limits


SUPERBLOCK_EDGES = sorted({limit for blocks in (1, 2, 3) for limit in _superblock_edges(blocks)})


@pytest.fixture(scope="module")
def superblock_p():
    """Exact p(n) up to the last of SUPERBLOCK_EDGES."""
    return build_table(SUPERBLOCK_EDGES[-1]).p


@pytest.mark.parametrize("modulus", SOLVE_PATHS)
def test_modular_table_at_superblock_edges(superblock_p, modulus):
    """At the superblock edges of one-, two- and three-block superblocks
    (the rule's own, at limits 511 to 21,505) and below the first, on each
    solve path."""
    for limit in [300, *SUPERBLOCK_EDGES]:
        residues = p_mod_m_table(limit, modulus)
        assert residues.tolist() == [p % modulus for p in superblock_p[: limit + 1]], limit


@pytest.mark.parametrize("blocks", [2, 3, 7])
@pytest.mark.parametrize("modulus", SOLVE_PATHS)
def test_modular_table_at_forced_superblock_edges(monkeypatch, block_p, modulus, blocks):
    """With superblocks of S = 2, 3 or 7 blocks forced at every limit: the
    limits S - 1, S, S + 1, 2S - 1, 2S + 1, a partial last superblock, and
    one below S, whose offsets are all below S, as far as REACH."""
    span = blocks * BLOCK
    monkeypatch.setattr(congruence, "_span", lambda limit: span)
    for limit in [span - BLOCK - 1, span - 1, span, span + 1, 2 * span - 1, 2 * span + 1, span + span // 2]:
        if limit <= REACH:
            assert p_mod_m_table(limit, modulus).tolist() == [p % modulus for p in block_p[: limit + 1]], limit


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


@pytest.mark.parametrize("modulus", [2, 21, 22, 128, 129, 257, 65537, CHECK_MODULUS])
def test_fold_is_the_lane_sum_plus_total_mod_m(modulus):
    """``_fold`` at each width the kernel calls it with, two accumulators
    at the accumulator width and one product at the product width, equals
    (lane sum + total) mod m on random lanes: through byte planes up to
    m = 128, where a lane may hold anything, and lane by lane above, where
    the lane sums, total included, fit their width, as the kernel's wide
    lanes' do.  The lanes above the count of ``total`` are left out."""
    rng = random.Random(modulus)
    plans = [congruence._lane_plan(pentagonal_offsets(limit), modulus) for limit in (1000, 110006, 1100006)]
    calls = sorted({(width, 2) for _, width, _ in plans} | {(wide, 1) for _, _, wide in plans})
    tables = [bytes((b << 8 * i) % modulus for b in range(256)) for i in range(4)] if modulus <= 128 else []
    for width, terms in calls:
        top = 1 << 8 * width if tables else ((1 << 8 * width) - modulus) // terms
        for count in (0, 1, 7, BLOCK):
            lanes = [[rng.randrange(top) for _ in range(count + 3)] for _ in range(terms)]
            total = [rng.randrange(modulus) for _ in range(count)]
            packed = tuple(counting._pack(row, width) for row in lanes)
            folded = congruence._fold(packed, width, modulus, tables, bytes(total) if tables else total)
            assert list(folded) == [(sum(column) + t) % modulus for column, t in zip(zip(*lanes), total)]


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


def _most_taken(runs, room, accumulators):
    """Replay the reductions of ``_reach``'s ``runs`` in the kernel's order
    (stretch i = 0, 1, ..., each run in turn into accumulator i + d) for
    that many ``accumulators``: the most terms any lane takes after a
    reduction, or from the start, asserted at most ``room``."""
    most = 0
    for k in range(accumulators):
        taken = 0
        for i in range(k + 1):
            for ahead, reduce, plus, minus in runs:
                if ahead == k - i:
                    taken = (0 if reduce else taken) + len(plus) + len(minus)
                    assert taken <= room, (k, i)
                    most = max(most, taken)
    return most


@pytest.mark.parametrize("modulus", ONE_BYTE)
def test_one_byte_accumulators_take_at_most_room_terms_between_reductions(modulus):
    """The reductions ``_reach`` schedules, replayed for every accumulator
    of a 30,000- and a 110,006-residue table: the block accumulators, which
    take the offsets below the superblock span S one block at a time, and
    the superblock ones, which take the rest one superblock at a time.  No
    lane takes more than ``room`` terms after a reduction, nor from the
    start, and the last accumulator, which takes every term, reaches
    ``room`` where it takes more."""
    for limit in (30000, 110006):
        offsets = pentagonal_offsets(limit)
        room, width, _ = congruence._lane_plan(offsets, modulus)
        span = congruence._span(limit)
        split = bisect_left(offsets, (span,))
        for part, stretch in ((offsets[:split], BLOCK), (offsets[split:], span)):
            runs = congruence._reach(part, room, width, stretch)
            assert _most_taken(runs, room, limit // stretch + 1) == min(room, len(part)), (limit, stretch)


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
    report = check_family("custom", 2, 0, 3, 50)
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

# (family, (a, b), modulus): the Ramanujan progressions, where a = m, and
# steps a != m, where only sums over the step a agree; gamma_weighted needs
# m | a.
DERIVED_CASES = [
    *((family, RAMANUJAN_PROGRESSIONS[m], m) for family in DERIVED_FAMILIES for m in MODULI),
    *((family, (7, 3), 5) for family in ("nu_window", "nu_k_progression")),
    *((family, (a, b), m) for family in DERIVED_FAMILIES for a, b, m in ((10, 1, 5), (12, 7, 4))),
]


@pytest.fixture(scope="module")
def exact_p():
    return build_table(11 * 200 + 6).p


@pytest.mark.parametrize("bump", [None, *range(61)])
def test_derived_families_agree_with_exact_sums(exact_p, bump):
    """The p-difference forms in ``FAMILIES`` give the violations (n, r)
    that the sums over the exact nu and gamma columns give, on clean p and
    with one p bumped, to the last n the table reaches."""
    p = list(exact_p)
    if bump is not None:
        p[bump] += 1
    table = CountTable(p)
    for family, (a, b), modulus in DERIVED_CASES:
        limit_n = (len(p) - 1 - b) // a
        expected = derived_violations(family, table, (a, b), modulus, limit_n)
        assert check_family(family, a, b, modulus, limit_n, residues=p).violations == expected, (family, a, b)
        if bump is None:
            # only the Ramanujan progressions hold; elsewhere the violations are what is compared
            assert (expected == []) == ((a, b) == RAMANUJAN_PROGRESSIONS.get(modulus))
            # mod m the gamma form drops its a*(p(e) - p(e-1)) term, so pin the exact values too
            for e in range(a + b, a * limit_n + b + 1, a):
                assert FAMILIES[family][1](p, a, e) == DERIVED_FAMILIES[family](table, a, e), (family, a, b, e)


@pytest.mark.parametrize("a", [2, 3, 6, 10])
def test_gamma_weighted_from_nu_1_is_the_exact_sum(table, a):
    """With b = 0 the first window starts at nu(1), and nu(2) - nu(1) = 1
    while gamma(2) = 0: the family's value is still the weighted sum."""
    for e in range(a, 40 * a + 1, a):
        assert FAMILIES["gamma_weighted"][1](table.p, a, e) == DERIVED_FAMILIES["gamma_weighted"](table, a, e), e


def test_family_table_order():
    # the order of the congruence subcommand's choices, its usage and --help
    assert list(FAMILIES) == ["ramanujan", "nu_window", "nu_k_progression", "gamma_weighted", "custom"]


def test_check_family_rejects_bad_arguments():
    with pytest.raises(ValueError, match="unknown congruence family 'weird'"):
        check_family("weird", 5, 4, 5, 10)
    with pytest.raises(ValueError, match="a >= 1 and b >= 0"):
        check_family("nu_window", 0, 4, 5, 10)
    with pytest.raises(ValueError, match="a >= 1 and b >= 0"):
        check_family("nu_window", 5, -1, 5, 10)
    # the modulus is checked before gamma_weighted divides the step by it
    for modulus in (1, 0, -5):
        with pytest.raises(ValueError, match=f"modulus must be >= 2, got {modulus}"):
            check_family("gamma_weighted", 7, 5, modulus, 10)


@pytest.mark.parametrize("family", ["nu_window", "nu_k_progression", "gamma_weighted"])
def test_a_derived_family_below_its_first_n_is_an_error(family):
    """The derived families start at n = 1, so a limit of 0 would check
    nothing; it is refused, not reported as passed."""
    with pytest.raises(ValueError, match=f"{family} starts at n = 1: the limit must be >= 1, got 0"):
        check_family(family, 5, 4, 5, 0)
    assert check_family(family, 5, 4, 5, 1).range_checked == (1, 1)


def test_the_families_from_n_0_check_n_0_at_limit_0():
    assert check_family("ramanujan", 5, 4, 5, 0) == CongruenceReport(
        CongruenceFamily("ramanujan", 5, (5, 4), 0), (0, 0), [])
    assert check_family("custom", 2, 0, 3, 0).violations == [(0, 1)]
    with pytest.raises(ValueError, match="ramanujan starts at n = 0: the limit must be >= 0, got -1"):
        check_family("ramanujan", 2, 5, 3, -1)


@pytest.mark.parametrize("a, b, modulus", [(7, 5, 5), (10, 1, 4), (17303, 237, 7)])
def test_gamma_weighted_needs_the_modulus_to_divide_the_step(a, b, modulus):
    with pytest.raises(ValueError, match="gamma_weighted needs the modulus to divide the step"):
        check_family("gamma_weighted", a, b, modulus, 10)


# --- Atkin's congruence: the derived families run over the step, not the modulus ---

# Atkin (1968): p(17303n + 237) = 0 (mod 13); 17303 = 13 * 11**3.
ATKIN = (17303, 237, 13)


@pytest.fixture(scope="module")
def atkin_residues():
    a, b, modulus = ATKIN
    return p_mod_m_table(19 * a + b, modulus)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_atkin_progression_holds_in_every_family(atkin_residues, family):
    a, b, modulus = ATKIN
    report = check_family(family, a, b, modulus, 19, residues=atkin_residues)
    assert report.passed
    assert report.family == CongruenceFamily(family, modulus, (a, b), FAMILIES[family][0])


def test_atkin_window_of_the_modulus_fails(atkin_residues):
    """The window of A = 17303 nu values holds at n = 1..19; the window of
    M = 13, the rule while every family had A = M, fails at 18 of them, and
    the control window ending at e - 1 at 17."""
    a, b, modulus = ATKIN
    r = atkin_residues
    assert sum((r[a * n + b] - r[a * n + b - modulus]) % modulus != 0 for n in range(1, 20)) == 18
    assert len(check_family("nu_window", a, b - 1, modulus, 19, residues=r).violations) == 17


# --- a scan whose answer is a theorem ---

def _primes(limit):
    """The primes below ``limit``, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * limit
    sieve[:2] = bytes(2)
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, limit, i)))
    return [i for i, prime in enumerate(sieve) if prime]


@pytest.mark.parametrize("limit", [10000, pytest.param(100000, marks=pytest.mark.slow)])
def test_prime_step_scan_finds_only_ramanujans_progressions(limit):
    """Ahlgren and Boylan (Invent. Math. 153, 2003): for a prime l,
    p(l*n + beta) = 0 (mod l) for every n only at (l, beta) = (5, 4),
    (7, 5) and (11, 6).  A finite scan cannot prove that a progression
    holds, but a false hit needs all its residues to p(limit) to be 0, and
    a missed one a wrong residue: either is a fault of the kernel or of
    the checker.  Every prime below 100, every beta < l."""
    primes = _primes(100)
    assert len(primes) == 25 and primes[-1] == 97
    held = []
    for ell in primes:
        residues = p_mod_m_table(limit, ell)
        for beta in range(ell):
            if check_family("custom", ell, beta, ell, (limit - beta) // ell, residues=residues).passed:
                held.append((ell, beta))
    assert held == [(5, 4), (7, 5), (11, 6)]


@pytest.mark.parametrize("limit", [5000, pytest.param(100000, marks=pytest.mark.slow)])
def test_composite_step_scan_finds_only_multiples_of_the_modulus(limit):
    """Radu (J. reine angew. Math. 672, 2012): for a prime M >= 5, a
    congruence p(A*n + B) = 0 (mod M) for every n needs M | A.  The scan
    finds for M = 5, 7 and 11 only the sub-progressions of Ramanujan's:
    M | A and B = 4, 5, 6 (mod M), A / M of them at each such A.  For
    M = 13 it finds none; Atkin's step is 17303.  Every step A up to 60
    (200 under --runslow) and every B < A, through ``check_family("custom", ...)``."""
    max_step = 60 if limit == 5000 else 200
    counts = {5000: {5: 78, 7: 36, 11: 15, 13: 0}, 100000: {5: 820, 7: 406, 11: 171, 13: 0}}[limit]
    for modulus, count in counts.items():
        residues = p_mod_m_table(limit, modulus)
        held = [(a, b) for a in range(1, max_step + 1) for b in range(a)
                if check_family("custom", a, b, modulus, (limit - b) // a, residues=residues).passed]
        expected = []
        if modulus in RAMANUJAN_PROGRESSIONS:
            beta = RAMANUJAN_PROGRESSIONS[modulus][1]
            expected = [(a, b) for a in range(modulus, max_step + 1, modulus) for b in range(beta, a, modulus)]
        assert held == expected, modulus
        assert len(held) == count, modulus


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
