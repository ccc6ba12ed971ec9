"""Exact partition counting through part-restricted subfamilies.

The library counts integer partitions by several independent routes,
checks the routes against each other and against brute-force
enumeration, scans the classical congruence families, and reports
growth-rate diagnostics.  Everything integer is exact and unbounded;
floating point appears only in the asymptotic estimators.
"""

from .asymptotics import (
    A,
    B,
    AsymptoticRow,
    RatioRow,
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
from .cache import CacheError, load_table, read_table, resolve_cache_path, write_table
from .congruence import (
    RAMANUJAN_PROGRESSIONS,
    CongruenceFamily,
    CongruenceReport,
    check_gamma_weighted,
    check_nu_k_progression,
    check_nu_window,
    check_progression,
    check_ramanujan,
    p_mod_m_table,
    parity_via_gamma,
)
from .counting import (
    CountTable,
    MethodResult,
    RestrictedCounts,
    bounded_sums,
    build_table,
    extend_table,
    gamma_chain_sweep,
    gamma_weights_sweep,
    k_nuclear_sweep,
    n_nu_minus_gamma_sweep,
    nu_bounded,
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
    pentagonal_offsets,
)
from .partitions import (
    EnumerationConstraint,
    Partition,
    decay_capacity,
    decay_chain,
    decay_step,
    enumerate_partitions,
    fuse,
    is_ground_state,
    is_nuclear,
    iter_parts,
    multiplicity,
)

__version__ = "0.1.0"
