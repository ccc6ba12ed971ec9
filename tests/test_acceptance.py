"""Acceptance gate: one test per shipping criterion, zero tolerance unless a
criterion says otherwise.  Each test records a PASS/FAIL line that the
conftest terminal-summary hook prints at the end of the run."""

import time
from contextlib import contextmanager

import pytest

from nucleus import cli
from nucleus.asymptotics import dyadic_block_means, hr_nu, hr_p
from nucleus.cache import CacheError, read_table, write_table
from nucleus.congruence import (
    check_gamma_weighted,
    check_nu_k_progression,
    check_nu_window,
    check_ramanujan,
    p_mod_m_table,
    parity_via_gamma,
)
from nucleus.counting import (
    build_table,
    nu_via_bounded_sum,
    nu_via_gamma_chain,
    nuclear_gaps,
    p_via_gamma_weights,
    p_via_gap_sum,
    p_via_k_nuclear,
    p_via_n_nu_minus_gamma,
    p_via_nu_chain,
)
from nucleus.partitions import EnumerationConstraint, Partition, decay_chain, iter_parts

from oracles import REFERENCE_ROWS, all_partitions

RESULTS = {}

NUCLEAR = EnumerationConstraint(min_part=2)
K_VALUES = (1, 2, 3, 5, 7, 11)


@contextmanager
def criterion(key, description):
    try:
        yield
    except BaseException:
        RESULTS[key] = (description, "FAIL")
        raise
    RESULTS[key] = (description, "PASS")


def test_criterion_1_reference_table(capsys):
    with criterion("01", "table rows 1..20 and 100 exact, built in under a second"):
        start = time.perf_counter()
        table = build_table(100)
        elapsed = time.perf_counter() - start
        for n, (gamma, nu, p) in REFERENCE_ROWS.items():
            assert (table.gamma[n], table.nu[n], table.p[n]) == (gamma, nu, p), f"row {n}"
        assert table.p[100] == 190569292
        assert table.nu[100] == 21339417
        assert table.gamma[100] == 2307678
        assert elapsed < 1.0, f"table build took {elapsed:.3f}s"
        # and the CLI emits those rows byte-for-byte
        assert cli.main(["table", "--rows", "1-20,100", "--format", "csv"]) == 0
        expected = "n,gamma,nu,p\n" + "\n".join(
            f"{n},{g},{v},{p}" for n, (g, v, p) in sorted(REFERENCE_ROWS.items())) + "\n"
        assert capsys.readouterr().out == expected


def test_criterion_2_gap_sum_vs_oracle(big_table):
    with criterion("02", "gap-sum enumeration equals the pentagonal oracle for 2 <= n <= 40"):
        for n in range(2, 41):
            assert p_via_gap_sum(n).value == big_table.p[n], f"n={n}"


@pytest.mark.slow
def test_criterion_2_slow_gap_sum_at_100(big_table):
    with criterion("02-slow", "optional: gap sum over all 21,339,417 nuclear partitions of 100"):
        assert sum(1 for _ in iter_parts(100, NUCLEAR)) == 21339417
        assert p_via_gap_sum(100).value == big_table.p[100]


def test_criterion_3_worked_example():
    with criterion("03", "p(6) walkthrough: gaps {2,0,0}, 6+4-1+2 = 11; (5,2) decay chain exact"):
        gaps = list(nuclear_gaps(6))
        assert sorted(gaps) == [0, 0, 2]
        nu6 = sum(1 for _ in iter_parts(6, NUCLEAR))
        assert nu6 == 4
        assert 6 + nu6 - 1 + sum(gaps) == 11
        assert p_via_gap_sum(6).value == 11
        chain = decay_chain(Partition([5, 2]))
        assert [q.parts for q in chain] == [(4, 2, 1), (3, 2, 1, 1), (2, 2, 1, 1, 1)]


def test_criterion_4_identity_cross_verification(big_table):
    with criterion("04", "all identity routes equal the oracle for n <= 500, exactly"):
        t = big_table
        for n in range(501):
            assert p_via_nu_chain(n, t).value == t.p[n], f"nu_chain at {n}"
            for k in K_VALUES:
                assert p_via_k_nuclear(n, k, t)[1].value == t.p[n], f"k={k} at {n}"
        for n in range(2, 501):
            assert nu_via_gamma_chain(n, t) == t.nu[n], f"gamma_chain at {n}"
            assert p_via_gamma_weights(n, t).value == t.p[n], f"gamma_weights at {n}"
            assert p_via_n_nu_minus_gamma(n, t).value == t.p[n], f"n_nu_minus_gamma at {n}"
        for n in range(4, 501):
            assert nu_via_bounded_sum(n)[1] == t.nu[n], f"bounded_sum at {n}"


def test_criterion_5_errata_demonstrations(big_table, capsys):
    with criterion("05", "truncated bounded sum short by exactly 1 on 4..200; "
                         "shifted skip sum misses p(6); both reported expected-fail"):
        for n in range(4, 201):
            truncated, total = nu_via_bounded_sum(n)
            assert total == big_table.nu[n]
            assert truncated == big_table.nu[n] - 1, f"n={n}"
        shifted, result = p_via_k_nuclear(6, 2, big_table)
        assert shifted == 6 and shifted != big_table.p[6]
        assert result.value == big_table.p[6] == 11
        assert cli.main(["verify", "--limit", "30", "--enum-limit", "8"]) == 0
        out = capsys.readouterr().out
        assert "bounded_sum_truncated  expected-fail" in out
        assert "k_nuclear_shifted      expected-fail" in out
        assert "result: pass" in out


def test_criterion_6_decay_tiling():
    with criterion("06", "decay chains tile the non-nuclear partitions exactly, "
                         "n <= 25 (n = 1 excluded: (1) has no nuclear parent)"):
        for n in [0] + list(range(2, 26)):
            produced = []
            for parts in iter_parts(n, NUCLEAR):
                if parts:
                    produced.extend(q.parts for q in decay_chain(Partition(parts)))
            target = {q for q in all_partitions(n) if 1 in q}
            assert len(produced) == len(set(produced)), f"duplicates at n={n}"
            assert set(produced) == target, f"tiling broken at n={n}"


def test_criterion_7_congruence_sweeps():
    with criterion("07", "Ramanujan, nu-window, nu_k and weighted-gamma families hold "
                         "to n = 10,000; zero violations"):
        # one modular table serves all three moduli: 385 = 5 * 7 * 11
        residues = p_mod_m_table(11 * 10000 + 6, 385)
        for modulus in (5, 7, 11):
            for check in (check_ramanujan, check_nu_window, check_nu_k_progression, check_gamma_weighted):
                report = check(modulus, 10000, residues=residues)
                assert report.passed, f"{report.family.family_id} mod {modulus}: {report.violations[:3]}"


def test_criterion_8_parity(big_table):
    with criterion("08", "gamma-sum parity matches the modular table for even n <= 1000; "
                         "sum 95 makes p(20) odd"):
        assert sum(big_table.gamma[4:21:2]) == 95
        assert parity_via_gamma(20, big_table) == 1
        residues = p_mod_m_table(1000, 2)
        for n in range(4, 1001, 2):
            assert parity_via_gamma(n, big_table) == residues[n], f"n={n}"


def test_criterion_9_asymptotics(big_table):
    with criterion("09", "hr_p within 10% at n=100; ratio block means decrease to 2000; "
                         "nu-form gap shrinks over 100/1000/10000"):
        t = big_table
        assert 0.9 <= hr_p(100) / t.p[100] <= 1.1
        nu_over_p = [0.0, 0.0] + [t.nu[n] / t.p[n] for n in range(2, 2001)]
        gamma_over_nu = [0.0, 0.0] + [t.gamma[n] / t.nu[n] for n in range(2, 2001)]
        for series in (nu_over_p, gamma_over_nu):
            means = dyadic_block_means(series, 4)
            assert all(a > b for a, b in zip(means, means[1:])), means
        gaps = [abs(hr_nu(n, "simplified") / hr_nu(n, "exact_difference") - 1.0)
                for n in (100, 1000, 10000)]
        assert gaps[0] > gaps[1] > gaps[2]


def test_criterion_10_cache_integrity(tmp_path):
    with criterion("10", "cache round-trips byte-identically, resume equals fresh, "
                         "corruption is rejected by row"):
        path = tmp_path / "counts.csv"
        table = build_table(100)
        write_table(table, path)
        first_bytes = path.read_bytes()
        loaded = read_table(path)
        write_table(loaded, path)
        assert path.read_bytes() == first_bytes
        # resume to 200 must equal a fresh build
        assert cli.main(["cache", "build", "--limit", "200", "--cache", str(path)]) == 0
        resumed = read_table(path)
        fresh = build_table(200)
        assert resumed.p == fresh.p and resumed.nu == fresh.nu and resumed.gamma == fresh.gamma
        # corrupt one p value: the loader must name the row
        lines = path.read_text().splitlines()
        fields = lines[51].split(",")
        fields[3] = str(int(fields[3]) + 1)
        lines[51] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CacheError, match="n=50"):
            read_table(path)
