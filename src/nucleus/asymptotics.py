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
from functools import partial
from typing import Callable, NamedTuple, Sequence

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


def _scale_hr_p(n: int, factor: float) -> float:
    """hr_p(n) * factor.  Where hr_p(n) alone is inf the product is taken
    from logs, so it stays finite as long as the scaled estimate is."""
    estimate = hr_p(n)
    if estimate < math.inf:
        return estimate * factor
    return _exp(log_hr_p(n) + math.log(factor))


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
    return _scale_hr_p(n, _nu_factor(n, form))


def log_hr_nu(n: int, form: str = "exact_difference") -> float:
    """Log-space variant of hr_nu."""
    factor = _nu_factor(n, form)
    return log_hr_p(n) + math.log(factor)


def hr_gamma(n: int, form: str = "exact_difference") -> float:
    """Leading-difference estimate of gamma(n), positive for n >= 3.

    With x = A*(sqrt(n) - sqrt(n-1)) and y = A*(sqrt(n-1) - sqrt(n-2)),
    so y > x, the exact_difference form scales hr_p(n) by
    exp(-x) - exp(-y) and the simplified form by y - x.  Both keep only
    the subdominant term of the true second difference and undershoot
    gamma(n) by roughly a factor A*sqrt(n) (measured: about 18x at
    n = 100); they are order-of-growth diagnostics, not point estimates.
    """
    return _scale_hr_p(n, _gamma_factor(n, form))


def log_hr_gamma(n: int, form: str = "exact_difference") -> float:
    """Log-space variant of hr_gamma."""
    factor = _gamma_factor(n, form)
    return log_hr_p(n) + math.log(factor)


class AsymptoticRow(NamedTuple):
    """Exact value, estimate, and their ratio at one n."""

    n: int
    exact: int
    estimate: float
    ratio: float


def estimate_rows(points: Sequence[int], table: CountTable, quantity: str = "p",
                  form: str = "exact_difference") -> list[AsymptoticRow]:
    """Estimator-versus-exact rows for the chosen quantity at the given n's."""
    if quantity not in ESTIMATE_LOW:
        raise ValueError(f"quantity must be p, nu or gamma, got {quantity!r}")
    rows = []
    for n in points:
        _check_range(n, table)
        if quantity == "p":
            exact, estimate, log_estimate = table.p[n], hr_p(n), partial(log_hr_p, n)
        elif quantity == "nu":
            exact, estimate, log_estimate = table.nu[n], hr_nu(n, form), partial(log_hr_nu, n, form)
        else:
            exact, estimate, log_estimate = table.gamma[n], hr_gamma(n, form), partial(log_hr_gamma, n, form)
        rows.append(AsymptoticRow(n, exact, estimate, _ratio(estimate, exact, log_estimate)))
    return rows


def _ratio(estimate: float, exact: int, log_estimate: Callable[[], float]) -> float:
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
    return math.exp(log_estimate() - math.log(exact))


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


def ratio_report(limit: int, table: CountTable) -> list[RatioRow]:
    """Ratio diagnostics for n = 1..limit."""
    _check_range(limit, table)
    rows = []
    for n in range(1, limit + 1):
        nu_over_p = table.nu[n] / table.p[n]
        gamma_over_nu = table.gamma[n] / table.nu[n] if table.nu[n] else None
        if n % 2 == 0:
            gap = _nu_factor(n, "simplified")
            try:
                sqn = math.sqrt(n) * table.nu[n] / table.p[n]
            except OverflowError:
                sqn = math.inf
            if sqn == math.inf:  # sqrt(n) * nu(n) or p(n) passed the float range
                sqn = math.sqrt(n) * nu_over_p
            lin = n * table.gamma[n] / table.p[n]
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
