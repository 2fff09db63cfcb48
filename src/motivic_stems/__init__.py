"""Motivic stable stems over C at the prime 2: regions, groups, and charts.

The (s, w) plane of the 2-complete motivic stable stems splits into four
regions: a vanishing region, a tau-local region carrying the classical stable
stems, an eta-local region carrying the homotopy of the eta-inverted sphere,
and a remaining wedge that is not understood in general. This package
classifies bidegrees, resolves the group values the regions determine, runs
the eta-localized Adams-Novikov spectral sequence to its last page inside
exact exponent windows, lifts classical chart data to its motivic
consequences, and renders deterministic SVG/TSV charts of all of it.
"""

from .algebra import (
    Bidegree,
    GeneratorSpec,
    Monomial,
    MonomialAlgebraPresentation,
    Tridegree,
    Window,
)
from .charts import (
    ClassicalChart,
    ClassicalChartClass,
    MotivicLift,
    StemsTable,
    ctau_homotopy,
    eta_localize_chart,
    lift_to_motivic,
    load_sample_chart,
    load_sample_stems,
    localization_guaranteed,
    parse_chart,
    parse_stems,
    serialize_chart,
    serialize_stems,
)
from .families import (
    EXOTIC_NONNILPOTENT,
    SPECULATIVE_W2_SLOPE,
    FamilySpec,
    MayGenerator,
    builtin_families,
    family_line,
    may_e1_generators,
    sharpness_report,
    vn_bidegree,
    wn_bidegree,
    wn_slope,
)
from .groups import GroupDescriptor, TRIVIAL_GROUP, Z2_ADIC, Z_MOD_2
from .regions import (
    GroupValue,
    RegionLabel,
    adams_weak_bound,
    classify,
    eta_local_group,
    resolve_group,
)
from .render import ChartStyle, bidegree_window, groups_tsv, motivic_chart_svg, region_chart_svg
from .spectral import (
    Certainty,
    DifferentialSpec,
    PageState,
    build_differential,
    initial_page,
    leibniz_extend,
    localized_motivic_anss,
    run_to_einfty,
    turn_page,
)

__version__ = "0.1.0"

__all__ = [
    "Bidegree",
    "Certainty",
    "ChartStyle",
    "ClassicalChart",
    "ClassicalChartClass",
    "DifferentialSpec",
    "EXOTIC_NONNILPOTENT",
    "FamilySpec",
    "GeneratorSpec",
    "GroupDescriptor",
    "GroupValue",
    "MayGenerator",
    "Monomial",
    "MonomialAlgebraPresentation",
    "MotivicLift",
    "PageState",
    "RegionLabel",
    "SPECULATIVE_W2_SLOPE",
    "StemsTable",
    "TRIVIAL_GROUP",
    "Tridegree",
    "Window",
    "Z2_ADIC",
    "Z_MOD_2",
    "adams_weak_bound",
    "bidegree_window",
    "build_differential",
    "builtin_families",
    "classify",
    "ctau_homotopy",
    "eta_local_group",
    "eta_localize_chart",
    "family_line",
    "groups_tsv",
    "initial_page",
    "leibniz_extend",
    "lift_to_motivic",
    "load_sample_chart",
    "load_sample_stems",
    "localization_guaranteed",
    "localized_motivic_anss",
    "may_e1_generators",
    "motivic_chart_svg",
    "parse_chart",
    "parse_stems",
    "region_chart_svg",
    "resolve_group",
    "run_to_einfty",
    "serialize_chart",
    "serialize_stems",
    "sharpness_report",
    "turn_page",
    "vn_bidegree",
    "wn_bidegree",
    "wn_slope",
    "__version__",
]
