import math

import pytest

from nucleus.asymptotics import (
    FORMS,
    A,
    B,
    _gamma_factor,
    _nu_factor,
    dyadic_block_means,
    estimate_rows,
    hr_gamma,
    hr_nu,
    hr_p,
    log_hr_gamma,
    log_hr_nu,
    log_hr_p,
    ratio_report,
)

CHECKPOINTS = (100, 1000, 10000)


def test_constants_are_computed_and_in_range():
    assert A == math.pi * math.sqrt(2.0 / 3.0)
    assert B == 4.0 * math.sqrt(3.0)
    assert 2.5650 < A < 2.5651
    assert 6.9282 < B < 6.9283


# --- p estimator ---

def test_hr_p_small_n():
    assert hr_p(1) > 0 and math.isfinite(hr_p(1))
    with pytest.raises(ValueError):
        hr_p(0)


def test_hr_p_accuracy_at_100(big_table):
    ratio = hr_p(100) / big_table.p[100]
    assert ratio == pytest.approx(1.0457135630736354, rel=1e-9)
    assert 1.0 <= ratio <= 1.10


def test_hr_p_ratio_approaches_1(big_table):
    ratios = [hr_p(n) / big_table.p[n] for n in (25, 100, 400)]
    assert ratios[0] > ratios[1] > ratios[2] > 1.0


def test_log_space_variants_are_consistent():
    assert math.log(hr_p(100)) == pytest.approx(log_hr_p(100), rel=1e-12)
    assert math.log(hr_nu(100)) == pytest.approx(log_hr_nu(100), rel=1e-12)
    assert math.log(hr_gamma(100)) == pytest.approx(log_hr_gamma(100), rel=1e-12)


def test_hr_p_survives_float_overflow():
    # the plain estimator saturates near n = 77000; the log variant keeps going
    assert hr_p(80000) == math.inf
    assert math.isfinite(log_hr_p(80000))
    assert log_hr_p(80000) == pytest.approx(A * math.sqrt(80000) - math.log(B * 80000))


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("estimate, log_estimate, factor", [(hr_nu, log_hr_nu, _nu_factor),
                                                            (hr_gamma, log_hr_gamma, _gamma_factor)],
                         ids=["nu", "gamma"])
def test_scaled_estimates_stay_finite_past_hr_p(estimate, log_estimate, factor, form):
    """hr_p leaves the float range at n = 79,446; the nu and gamma
    estimates, a small factor times it, are still floats there.  Below
    the seam they are the plain product, bit for bit."""
    assert hr_p(79445) < math.inf == hr_p(79446)
    assert estimate(79445, form) == hr_p(79445) * factor(79445, form)
    for n in (79445, 79446, 80000):
        assert math.isfinite(estimate(n, form))
        assert math.log(estimate(n, form)) == pytest.approx(log_estimate(n, form), rel=1e-12)


# --- nu estimator: tolerances measured against the exact table, then frozen ---

def test_hr_nu_forms_at_100(big_table):
    nu100 = big_table.nu[100]
    assert hr_nu(100, "exact_difference") / nu100 == pytest.approx(1.126746, abs=1e-4)
    assert hr_nu(100, "exact_difference") / nu100 < 1.15
    assert hr_nu(100, "simplified") / nu100 == pytest.approx(1.200735, abs=1e-4)


def test_hr_nu_mutual_gap_shrinks():
    gaps = [abs(hr_nu(n, "simplified") / hr_nu(n, "exact_difference") - 1.0)
            for n in CHECKPOINTS]
    assert gaps[0] == pytest.approx(0.065666, abs=1e-4)
    assert gaps[0] > gaps[1] > gaps[2]
    for gap, ceiling in zip(gaps, (0.07, 0.025, 0.007)):
        assert gap < ceiling


def test_hr_nu_domain_and_form_validation():
    with pytest.raises(ValueError):
        hr_nu(1)
    with pytest.raises(ValueError):
        hr_nu(100, "fancy")


# --- gamma estimator: order-of-growth diagnostic only ---

def test_hr_gamma_positive_everywhere():
    assert all(hr_gamma(n, form) > 0
               for n in range(3, 10001)
               for form in ("exact_difference", "simplified"))


def test_hr_gamma_observed_undershoot(big_table):
    """The leading-difference forms undershoot gamma(100) by a factor of
    about 18 (roughly A*sqrt(n)); the observed ratios are frozen here so a
    change in behaviour gets noticed."""
    gamma100 = big_table.gamma[100]
    assert hr_gamma(100, "exact_difference") / gamma100 == pytest.approx(0.049421, abs=1e-4)
    assert hr_gamma(100, "simplified") / gamma100 == pytest.approx(0.056221, abs=1e-4)


def test_hr_gamma_mutual_gap_shrinks():
    gaps = [abs(hr_gamma(n, "simplified") / hr_gamma(n, "exact_difference") - 1.0)
            for n in CHECKPOINTS]
    assert gaps[0] == pytest.approx(0.137579, abs=1e-4)
    assert gaps[0] > gaps[1] > gaps[2]


def test_hr_gamma_domain():
    with pytest.raises(ValueError):
        hr_gamma(2)


# --- ratio report ---

def test_ratio_report_at_100(big_table):
    rows = ratio_report(100, big_table)
    row = rows[-1]
    assert row.n == 100
    assert row.nu_over_p == pytest.approx(0.11197720669498001, rel=1e-12)
    assert row.gamma_over_nu == pytest.approx(0.10814156731648292, rel=1e-12)
    assert row.gap_estimate == pytest.approx(0.12857723375160507, rel=1e-12)
    assert row.nu_over_p < 0.2 and row.gamma_over_nu < 0.2
    # footnote-style comparison: nu/p lands within [0.8, 0.95] of the gap estimate
    assert 0.8 < row.nu_over_p / row.gap_estimate < 0.95
    assert row.sqrt_weighted_nu == pytest.approx(1.1198, abs=1e-3)
    assert row.linear_weighted_gamma == pytest.approx(1.2109, abs=1e-3)


def test_ratio_report_field_presence(big_table):
    rows = ratio_report(10, big_table)
    assert rows[0].n == 1 and rows[0].gamma_over_nu is None  # nu(1) = 0
    for row in rows[1:]:
        if row.n % 2 == 0:
            assert row.gap_estimate is not None
        else:
            assert row.gap_estimate is None and row.sqrt_weighted_nu is None


def test_ratio_report_rejects_overrun(big_table):
    top = big_table.limit
    with pytest.raises(ValueError, match=f"^n={top + 1} exceeds the table limit {top}$"):
        ratio_report(top + 1, big_table)


def test_vanishing_ratios_block_means_decrease(big_table):
    """Both ratio families vanish on average; gamma/nu oscillates pointwise,
    so decrease is asserted on dyadic block means only."""
    t = big_table
    nu_over_p = [0.0, 0.0] + [t.nu[n] / t.p[n] for n in range(2, 2001)]
    gamma_over_nu = [0.0, 0.0] + [t.gamma[n] / t.nu[n] for n in range(2, 2001)]
    for series in (nu_over_p, gamma_over_nu):
        means = dyadic_block_means(series, 4)
        assert len(means) == 9
        assert all(a > b for a, b in zip(means, means[1:]))


def test_gamma_over_nu_is_not_pointwise_monotone(big_table):
    # the smoothing above is necessary, not decorative
    series = [big_table.gamma[n] / big_table.nu[n] for n in range(4, 200)]
    assert any(a < b for a, b in zip(series, series[1:]))


def test_dyadic_block_means_basics():
    values = [0.0] * 16
    for n in range(2, 16):
        values[n] = 1.0 / n
    means = dyadic_block_means(values, 2)
    assert len(means) == 3  # [2,4), [4,8), [8,15]
    assert means[0] == pytest.approx((1 / 2 + 1 / 3) / 2)
    with pytest.raises(ValueError):
        dyadic_block_means(values, 0)


# --- estimator rows ---

def test_estimate_rows(big_table):
    rows = estimate_rows([25, 100, 400], big_table, "p")
    assert [r.n for r in rows] == [25, 100, 400]
    assert all(r.ratio > 0 for r in rows)
    assert rows[0].exact == 1958
    nu_rows = estimate_rows([100], big_table, "nu", "simplified")
    assert nu_rows[0].estimate == pytest.approx(hr_nu(100, "simplified"))
    gamma_rows = estimate_rows([5], big_table, "gamma")
    assert math.isnan(gamma_rows[0].ratio)  # gamma(5) = 0
    with pytest.raises(ValueError):
        estimate_rows([10], big_table, "q")
    top = big_table.limit
    with pytest.raises(ValueError, match=f"^n={top + 1} exceeds the table limit {top}$"):
        estimate_rows([25, top + 1], big_table, "p")
