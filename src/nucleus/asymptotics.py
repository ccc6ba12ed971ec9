"""Floating-point growth estimates for the partition counts.

Leading-order behaviour: p(n) ~ exp(A*sqrt(n)) / (B*n) with
A = pi*sqrt(2/3) and B = 4*sqrt(3).  The restricted counts follow as
difference quotients of that estimate.  None of these carry error
bounds; the test suite freezes tolerances that were measured against
the exact tables.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Sequence

from .counting import CountTable, _check_range

A = math.pi * math.sqrt(2.0 / 3.0)
B = 4.0 * math.sqrt(3.0)

FORMS = ("exact_difference", "simplified")

# The least n at which each estimate is defined.
ESTIMATE_LOW = {"p": 1, "nu": 2, "gamma": 3}

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _check_domain(n: int, quantity: str) -> None:
    low = ESTIMATE_LOW[quantity]
    if n < low:
        raise ValueError(f"{quantity} estimate defined for n >= {low}, got {n}")


def log_hr_p(n: int) -> float:
    """Natural log of the p estimate; finite far past float overflow."""
    _check_domain(n, "p")
    return A * math.sqrt(n) - math.log(B * n)


def _exp(log_value: float) -> float:
    """exp(log_value), or inf where that leaves the float range."""
    return math.exp(log_value) if log_value < _LOG_FLOAT_MAX else math.inf


def hr_p(n: int) -> float:
    """exp(A*sqrt(n)) / (B*n); inf once the exponent overflows doubles
    (from n = 79,446), at which point use log_hr_p instead."""
    return _exp(log_hr_p(n))


def _scale_hr_p(n: int, factor: float) -> tuple[float, float]:
    """hr_p(n) * factor and its log.  Where hr_p(n) alone is inf the
    product is taken from the log, so it stays finite as long as the
    scaled estimate is."""
    log_p = log_hr_p(n)
    log_estimate = log_p + math.log(factor)
    estimate = _exp(log_p)
    return (estimate * factor if estimate < math.inf else _exp(log_estimate)), log_estimate


def _check_form(form: str) -> None:
    if form not in FORMS:
        raise ValueError(f"form must be one of {FORMS}, got {form!r}")


def _nu_factor(n: int, form: str) -> float:
    _check_form(form)
    _check_domain(n, "nu")
    x = A * (math.sqrt(n) - math.sqrt(n - 1))
    return -math.expm1(-x) if form == "exact_difference" else x


def _gamma_factor(n: int, form: str) -> float:
    _check_form(form)
    _check_domain(n, "gamma")
    x, y = _nu_factor(n, "simplified"), _nu_factor(n - 1, "simplified")
    return math.exp(-x) - math.exp(-y) if form == "exact_difference" else y - x


def hr_nu(n: int, form: str = "exact_difference") -> float:
    """Estimate of nu(n) as a first difference of the p estimate.

    With x = A*(sqrt(n) - sqrt(n-1)), the exact_difference form scales
    hr_p(n) by 1 - exp(-x) and the simplified form by x itself.  The two
    agree in the limit; the measured mutual gap is about 6.6% at n = 100
    and shrinks like x/2.
    """
    return _scale_hr_p(n, _nu_factor(n, form))[0]


def hr_gamma(n: int, form: str = "exact_difference") -> float:
    """Leading-difference estimate of gamma(n), positive for n >= 3.

    With x = A*(sqrt(n) - sqrt(n-1)) and y = A*(sqrt(n-1) - sqrt(n-2)),
    so y > x, the exact_difference form scales hr_p(n) by
    exp(-x) - exp(-y) and the simplified form by y - x.  Both keep only
    the subdominant term of the true second difference, so neither has
    gamma's order of growth: each falls short of gamma(n) by a factor
    that grows like A*sqrt(n).  hr_gamma(n)/gamma(n), measured on the
    exact table:

        n        exact_difference  simplified  1/(A*sqrt(n))
        100      0.04942           0.05622     0.03898
        1000     0.01329           0.01384     0.01233
        10000    0.00399           0.00404     0.00390
    """
    return _scale_hr_p(n, _gamma_factor(n, form))[0]


# The factor that scales hr_p(n) to each quantity's estimate; p has no form.
_FACTORS = {"p": lambda n, form: 1.0, "nu": _nu_factor, "gamma": _gamma_factor}


class AsymptoticRow(NamedTuple):
    """Exact value, estimate, and their ratio at one n."""

    n: int
    exact: int
    estimate: float
    ratio: float


def estimate_rows(points: Sequence[int], table: CountTable, quantity: str = "p",
                  form: str = "exact_difference") -> list[AsymptoticRow]:
    """Estimator-versus-exact rows for the chosen quantity at the given n's."""
    if quantity not in _FACTORS:
        raise ValueError(f"quantity must be p, nu or gamma, got {quantity!r}")
    factor, column = _FACTORS[quantity], getattr(table, quantity)
    rows = []
    for n in points:
        _check_range(n, table)
        exact, (estimate, log_estimate) = column[n], _scale_hr_p(n, factor(n, form))
        rows.append(AsymptoticRow(n, exact, estimate, _ratio(estimate, exact, log_estimate)))
    return rows


def _ratio(estimate: float, exact: int, log_estimate: float) -> float:
    """estimate / exact, NaN where exact is 0.

    Where the estimate is inf or the count no longer converts to a float
    (p from n = 79,446, nu and gamma a little later) the ratio comes from
    logs, as ``math.log`` takes an int of any size; elsewhere it is the
    float quotient.
    """
    if exact <= 0:
        return math.nan
    if estimate < math.inf:
        try:
            return estimate / exact
        except OverflowError:
            pass
    return math.exp(log_estimate - math.log(exact))


class RatioRow(NamedTuple):
    """Vanishing-ratio diagnostics at one n.

    ``gamma_over_nu`` is None where nu(n) = 0.  The even-n fields compare
    nu/p against the gap estimate A*(sqrt(n) - sqrt(n-1)) and report the
    rescalings sqrt(n)*nu/p and n*gamma/p, which hover near 1 in the
    small-n tables without being asymptotic facts; they are reported,
    never asserted.
    """

    n: int
    nu_over_p: float
    gamma_over_nu: float | None
    gap_estimate: float | None
    sqrt_weighted_nu: float | None
    linear_weighted_gamma: float | None


def ratio_report(limit: int, table: CountTable, start: int = 1) -> list[RatioRow]:
    """Ratio diagnostics for n = start..limit; no rows when start > limit.
    Each column of the table is read once, as the slice start..limit."""
    _check_range(limit, table)
    if start < 1:
        raise ValueError(f"ratio rows start at n >= 1, got {start}")
    rows = []
    span = slice(start, limit + 1)
    for n, p, nu, gamma in zip(range(start, limit + 1), table.p[span], table.nu[span], table.gamma[span]):
        nu_over_p = nu / p
        gamma_over_nu = gamma / nu if nu else None
        if n % 2 == 0:
            gap = _nu_factor(n, "simplified")
            try:
                sqn = math.sqrt(n) * nu / p
            except OverflowError:
                sqn = math.inf
            if sqn == math.inf:  # sqrt(n) * nu(n) or p(n) passed the float range
                sqn = math.sqrt(n) * nu_over_p
            lin = n * gamma / p
        else:
            gap = sqn = lin = None
        rows.append(RatioRow(n, nu_over_p, gamma_over_nu, gap, sqn, lin))
    return rows


def dyadic_block_means(values: Sequence[float], start: int) -> list[float]:
    """Means of values[n] over blocks [start, 2*start), [2*start, 4*start), ...

    ``values`` is indexed by n; the final block is clipped to the end of
    the sequence.  Used to smooth the oscillating gamma ratios before
    asking for decrease.
    """
    if start < 1:
        raise ValueError(f"start must be >= 1, got {start}")
    top = len(values) - 1
    means = []
    lo = start
    while lo <= top:
        hi = min(2 * lo - 1, top)
        block = values[lo : hi + 1]
        means.append(sum(block) / len(block))
        lo *= 2
    return means
