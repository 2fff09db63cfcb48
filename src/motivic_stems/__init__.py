"""Motivic stable stems over C at the prime 2: regions, groups, and charts.

The (s, w) plane of the 2-complete motivic stable stems splits into four
regions: a vanishing region, a tau-local region carrying the classical stable
stems, an eta-local region carrying the homotopy of the eta-inverted sphere,
and a remaining wedge that is not understood in general. This package
classifies bidegrees, resolves the group values the regions determine, runs
the eta-localized Adams-Novikov spectral sequence to its last page inside
exact exponent windows, lifts classical chart data to its motivic
consequences, and renders deterministic SVG/TSV charts of all of it. Each
public name is imported from its module: ``from motivic_stems.regions import
classify``.
"""

# the bench's atlas workload reads this one name off the package (bench/workloads.py)
from .families import builtin_families

__all__ = ["builtin_families"]
