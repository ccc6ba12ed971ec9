"""Exact partition counting through part-restricted subfamilies.

The library counts integer partitions by several independent routes,
checks the routes against each other and against brute-force
enumeration, scans the classical congruence families, and reports
growth-rate diagnostics.  Everything integer is exact and unbounded;
floating point appears only in the asymptotic estimators.

Each name is imported from the module that defines it; the package
itself re-exports none, so ``import nucleus`` loads no module below.

- ``counting``: p(n) and its first and second differences nu and gamma
  (``build_table``, ``extend_table``, ``CountTable``), and the routes
  that recompute them from nuclear partitions (``p_via_*``,
  ``nu_via_*``, the ``*_sweep`` functions, ``bounded_sums``).
- ``partitions``: partitions and their enumeration (``Partition``,
  ``EnumerationConstraint``, ``enumerate_partitions``), and the decay
  and fusion maps (``decay_step``, ``decay_chain``, ``fuse``).
- ``congruence``: p mod m (``p_mod_m_table``), the Ramanujan-like
  congruence families (``check_ramanujan``, ``check_family``) and
  parity through gamma.
- ``asymptotics``: the Hardy-Ramanujan estimates of p, nu and gamma,
  and the ratios of the exact counts to them (``ratio_report``).
- ``cache``: the count table's CSV file (``read_table``,
  ``write_table``, ``load_table``, ``check_p``).
- ``cli``: the ``nucleus`` command; ``python -m nucleus`` runs it.
"""

__version__ = "0.1.0"
