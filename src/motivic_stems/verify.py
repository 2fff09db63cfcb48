"""Executable verification suites with independently derived oracles.

Every suite recomputes its expected answers inside this module, by a different
route than the library code takes, and then compares. Closed forms are checked
against brute-force enumeration, region predicates against a floor-division
restatement made per stem as runs of labels over w, spectral sequence output
against the hand-derived survivor basis, and renderings against committed
golden bytes. The acceptance tests and the ``verify`` CLI subcommand both run
these suites.

The two big scans set the gate's cost, and each visits a cell once. In
``partition`` every bidegree goes through ``classify`` once, and the region
counts it reports are ``classify``'s. In ``etalocal`` every band cell goes
through ``resolve_group`` once, and its region is read off the resolved value.
On Linux the CLI runs more than one suite in forked worker processes, one per
usable CPU, so these two run side by side; the output and its order are those
of a run in one process.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from typing import Callable, NamedTuple

from .algebra import Tridegree, Window, iter_window_monomials
from .charts import (
    ChartValidationError,
    LOCALIZATION_STABLE,
    StemRangeError,
    eta_localize_chart,
    ctau_homotopy,
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
    builtin_families,
    family_line,
    may_e1_generators,
    sharpness_report,
    vn_bidegree,
    wn_slope,
)
from .regions import RegionLabel, adams_weak_bound, classify, eta_local_group, resolve_group
from .render import MOTIVIC_SCALE, ChartStyle, bidegree_window, groups_tsv, motivic_chart_svg, region_chart_svg
from .resources import SAMPLE_CHART_FILE, SAMPLE_STEMS_FILE, read_data_text
from .spectral import (
    Certainty,
    d_sum,
    leibniz_extend,
    localized_motivic_anss,
    run_to_einfty,
    sum_multiply,
)

# Acceptance parameters. Tests and the CLI import these so that one constant
# governs every run.
EINFTY_WINDOW = {"tau": (0, 8), "alpha1": (-12, 12), "alpha3": (0, 6), "alpha4": (0, 1)}
EINFTY_TIME_BUDGET = 5.0
LEIBNIZ_PAIR_SAMPLES = 10_000
PARTITION_RADIUS = 1000
FRACTION_RADIUS = 100
ETA_SCAN_MAX_STEM = 10_000
BAND_WIDTH = 25
MAY_MAX_STEM = 1000
ZERO_SAMPLE_COUNT = 10_000
SAMPLE_SEED = 0

GOLDEN_REGIONS_STYLE = ChartStyle(group_dots=True, family_overlays=("Pk_h1_4", "w1_family"))
GOLDEN_GROUPS_WINDOW = (-2, 12, -6, 12)
GOLDEN_MOTIVIC_STYLE = ChartStyle(s_min=0, s_max=15, w_min=0, w_max=15, scale=MOTIVIC_SCALE)

CORRUPT_FIXTURES = (
    "fixtures/missing_unit.txt",
    "fixtures/bad_eta_edge.txt",
    "fixtures/filtration_zero.txt",
)


class CheckResult(NamedTuple):
    """One check of a suite; the suite's ``SUITES`` key names it in the output."""

    name: str
    passed: bool
    detail: str = ""


def expected_einfty_classes(presentation, window) -> dict[Tridegree, list[frozenset]]:
    """Hand-derived survivor basis: tau exponent 0 and even alpha3 exponent.

    The differential sends tau^t a1^a a3^b a4^e (b odd) to
    tau^(t+1) a1^(a+4) a3^(b-1) a4^e, injectively onto the monomials with
    b even and t >= 1; the kernel is b even, so exactly the b-even, t = 0
    monomials survive.
    """
    i_tau = presentation.index_of("tau")
    i_a3 = presentation.index_of("alpha3")
    out: dict[Tridegree, list[frozenset]] = {}
    for m in iter_window_monomials(presentation, window):
        if m.exponents[i_tau] == 0 and m.exponents[i_a3] % 2 == 0:
            out.setdefault(presentation.degree(m), []).append(frozenset((m,)))
    return out


def check_einfty(
    window_bounds: dict[str, tuple[int, int]] | None = None, *, table: list[str] | None = None
) -> list[CheckResult]:
    """The einfty suite against the closed form.

    With ``table`` given, the same run's per-tridegree table of computed
    against expected classes is appended to it, so ``--table`` needs no
    second engine run.
    """
    presentation, diffs = localized_motivic_anss()
    window = Window.from_dict(presentation, dict(window_bounds or EINFTY_WINDOW))
    t0 = time.perf_counter()
    state = run_to_einfty(presentation, diffs, window)
    elapsed = time.perf_counter() - t0
    expected = expected_einfty_classes(presentation, window)
    if table is not None:
        table.append("tridegree (s,f,w) | status | computed | expected")
    computed_pairs = set()
    # one walk, in (s, f, w) order, with one formal-sum build per tridegree for the check and the table
    for (t, classes), status in zip(state.classes.items(), state.status.values()):
        if status is Certainty.VALID:
            computed_pairs.update((t, c) for c in classes)
        if table is not None:
            comp = sorted(presentation.sum_str(c) for c in classes)
            exp = sorted(presentation.sum_str(c) for c in expected.get(t, []))
            if status is Certainty.INDETERMINATE:
                mark = "boundary"
            else:
                mark = "ok" if comp == exp else "MISMATCH"
            table.append(
                f"{str(t):>14} | {status.value:13} | {'; '.join(comp) or '0':24} | "
                f"{'; '.join(exp) or '0':24} | {mark}"
            )
    expected_pairs = {(t, c) for t, cls in expected.items() for c in cls}
    n_indet = sum(1 for st in state.status.values() if st is Certainty.INDETERMINATE)
    return [
        CheckResult(
            "survivors_match_closed_form",
            computed_pairs == expected_pairs,
            f"{len(computed_pairs)} computed vs {len(expected_pairs)} expected classes, "
            f"{n_indet} window-boundary tridegrees flagged",
        ),
        CheckResult(
            "certified_boundary_exists",
            0 < n_indet < len(state.status),
            f"{len(state.status) - n_indet} of {len(state.status)} tridegrees certified",
        ),
        CheckResult("time_budget", elapsed < EINFTY_TIME_BUDGET, f"{elapsed:.2f}s < {EINFTY_TIME_BUDGET:.0f}s"),
    ]


def check_leibniz() -> list[CheckResult]:
    presentation, diffs = localized_motivic_anss()
    d3 = diffs[0]
    window = Window.from_dict(presentation, dict(EINFTY_WINDOW))
    monomials = list(iter_window_monomials(presentation, window))

    d = {m: leibniz_extend(d3, m) for m in monomials}
    dd_failures = sum(1 for m in monomials if d_sum(d3, d[m]))
    rng = random.Random(SAMPLE_SEED)
    product_failures = 0
    for _ in range(LEIBNIZ_PAIR_SAMPLES):
        x = rng.choice(monomials)
        y = rng.choice(monomials)
        xy = presentation.multiply(x, y)
        left = leibniz_extend(d3, xy) if xy is not None else frozenset()
        right = sum_multiply(presentation, d[x], y) ^ sum_multiply(presentation, d[y], x)
        if left != right:
            product_failures += 1
    return [
        CheckResult(
            "d_squared_zero", dd_failures == 0, f"{len(monomials)} window monomials"
        ),
        CheckResult(
            "product_rule",
            product_failures == 0,
            f"{LEIBNIZ_PAIR_SAMPLES} seeded pairs, {product_failures} failures",
        ),
    ]


def _oracle_row(s: int, r: int) -> tuple[list[RegionLabel], list[tuple[RegionLabel, int]]]:
    # the same partition at w = -r..r for |s| <= r, independently stated through
    # floor division: w takes the label of the first run reaching it, else Zero.
    # Returns the row and its (label, length) runs, which sum to 2r + 1.
    if s < 0:
        ends = ()
    elif s == 0:
        ends = ((RegionLabel.TAU_LOCAL, 0),)
    else:
        ends = (
            (RegionLabel.TAU_LOCAL, (s + 2) // 2),
            (RegionLabel.NOT_UNDERSTOOD, (3 * s + 5) // 5),
            (RegionLabel.ETA_LOCAL, s),
        )
    row: list[RegionLabel] = []
    runs = []
    for label, last_w in ends + ((RegionLabel.ZERO, r),):
        n = max(last_w + r + 1 - len(row), 0)
        row += [label] * n
        runs.append((label, n))
    return row, runs


def _region_oracle_fraction(s: int) -> Callable[[int], RegionLabel]:
    # and a third time, through exact rational comparisons against one pair of fractions per stem
    tau_edge, eta_edge = Fraction(s + 2, 2), Fraction(3 * s + 5, 5)  # s/2 + 1 and 3s/5 + 1

    def label(w: int) -> RegionLabel:
        if s < 0 or w > s:
            return RegionLabel.ZERO
        if s == 0 or w <= tau_edge:
            return RegionLabel.TAU_LOCAL
        if w > eta_edge:
            return RegionLabel.ETA_LOCAL
        return RegionLabel.NOT_UNDERSTOOD

    return label


BOUNDARY_SPOTS = (
    (20, 13, RegionLabel.NOT_UNDERSTOOD),
    (20, 14, RegionLabel.ETA_LOCAL),
    (10, 4, RegionLabel.TAU_LOCAL),
    (20, 21, RegionLabel.ZERO),
)


def check_partition() -> list[CheckResult]:
    """Every bidegree with |s|, |w| <= PARTITION_RADIUS goes through classify once.

    A row equal to the oracle's is counted from the oracle's runs, any other
    row from its own labels, so the reported counts are always classify's.
    """
    counts = {label: 0 for label in RegionLabel}
    mismatches = 0
    r = PARTITION_RADIUS
    ws = range(-r, r + 1)
    for s in range(-r, r + 1):
        # one row at a time keeps memory flat; every bidegree goes through classify
        row = list(map(classify, itertools.repeat(s), ws))
        oracle, runs = _oracle_row(s, r)
        if row == oracle:
            for label, n in runs:
                counts[label] += n
        else:
            mismatches += sum(1 for got, want in zip(row, oracle) if got is not want)
            for label in counts:
                counts[label] += row.count(label)
    fr = FRACTION_RADIUS
    fraction_mismatches = 0
    for s in range(-fr, fr + 1):
        oracle = _region_oracle_fraction(s)
        fraction_mismatches += sum(1 for w in range(-fr, fr + 1) if classify(s, w) is not oracle(w))
    spots_ok = all(classify(s, w) is label for s, w, label in BOUNDARY_SPOTS)
    total = (2 * r + 1) ** 2
    return [
        CheckResult(
            "exhaustive_floor_oracle",
            mismatches == 0 and sum(counts.values()) == total,
            f"{total} bidegrees, |s|,|w| <= {r}",
        ),
        CheckResult(
            "fraction_oracle",
            fraction_mismatches == 0,
            f"|s|,|w| <= {fr} against exact rational comparisons",
        ),
        CheckResult(
            "all_regions_realized",
            all(counts[label] > 0 for label in RegionLabel),
            ", ".join(f"{label}={counts[label]}" for label in RegionLabel),
        ),
        CheckResult(
            "boundary_spots",
            spots_ok,
            "; ".join(f"({s},{w})={label}" for s, w, label in BOUNDARY_SPOTS),
        ),
    ]


def _eta_monomial_str(a: int, eps: int, b: int) -> str:
    pieces = []
    if a:
        pieces.append("eta" if a == 1 else f"eta^{a}")
    if eps:
        pieces.append("sigma")
    if b:
        pieces.append("mu9" if b == 1 else f"mu9^{b}")
    return "*".join(pieces) or "1"


def _eta_oracle_table(d_max: int) -> tuple[dict[int, tuple[int, int]], list[int]]:
    """Forward-generate the monomial basis eta^a sigma^eps mu9^b by s - w value.

    Independent of the closed form: instead of solving 3 eps + 4 b = d, every
    (eps, b) with b >= 0 is enumerated and filed under its own d. Collisions
    would mean a bidegree with more than one monomial; there are none.
    """
    table: dict[int, tuple[int, int]] = {}
    collisions: list[int] = []
    b = 0
    while 4 * b <= d_max:
        for eps in (0, 1):
            d = 3 * eps + 4 * b
            if d <= d_max:
                if d in table:
                    collisions.append(d)
                table[d] = (eps, b)
        b += 1
    return table, collisions


ETA_SPOTS = (
    # (s, w, group string, generator string)
    (8, 8, "Z/2", "eta^8"),
    (9, 8, "0", "-"),
    (16, 13, "Z/2", "eta^9*sigma"),
    (7, 4, "Z/2", "sigma"),
    (9, 5, "Z/2", "mu9"),
    (3, 3, "Z/2", "eta^3"),
)


def check_etalocal() -> list[CheckResult]:
    """Every cell of the eta boundary band and the tau band is resolved once.

    The eta step resolves each band cell's successor (s+1, w+1) besides. The
    closed form, the band and the step each compare a value's group and
    generator strings with one oracle answer, ``expected(s, w)``. A cell's
    region is the ``region`` of its ``resolve_group`` value, which is
    ``classify``'s. Tau-band neighbours compare group strings unless they are
    the same value.
    """
    results = []
    d_max = ETA_SCAN_MAX_STEM
    table, collisions = _eta_oracle_table(d_max)
    results.append(
        CheckResult(
            "oracle_unique",
            not collisions,
            f"one monomial per s-w value, d <= {d_max}, {len(table)} realized",
        )
    )

    def expected(s: int, w: int) -> tuple[str, str]:
        # the oracle's group and generator strings: eta^a sigma^eps mu9^b with a forced by s
        hit = table.get(s - w)
        if hit is None:
            return "0", "-"
        eps, b = hit
        return "Z/2", _eta_monomial_str(s - 7 * eps - 9 * b, eps, b)

    # closed form against the table, exhaustively in d = s - w
    closed_failures = 0
    for d in range(-8, d_max + 1):
        for s in (max(d, 0) + 1, max(d, 0) + 50, d_max + 17):
            value = eta_local_group(s, s - d)
            if (value.group_str, value.generator_str) != expected(s, s - d):
                closed_failures += 1
    results.append(
        CheckResult(
            "closed_form_matches_oracle",
            closed_failures == 0,
            f"every d in [-8, {d_max}] at three stems each",
        )
    )

    # per-stem boundary band with exact values, and the eta-multiplication step
    stems = load_sample_stems()
    band_failures = 0
    step_failures = 0
    checked = 0
    for s in range(0, ETA_SCAN_MAX_STEM + 1):
        w_lo = (3 * s + 5) // 5 + 1
        for w in range(w_lo, min(w_lo + 3, s) + 1):
            checked += 1
            value = resolve_group(s, w, stems)
            if value.region is not RegionLabel.ETA_LOCAL or (value.group_str, value.generator_str) != expected(s, w):
                band_failures += 1
            succ = resolve_group(s + 1, w + 1, stems)
            if (succ.group_str, succ.generator_str) != expected(s + 1, w + 1):
                step_failures += 1
    results.append(
        CheckResult(
            "boundary_band_values",
            band_failures == 0,
            f"{checked} bidegrees along the region boundary, s <= {ETA_SCAN_MAX_STEM}",
        )
    )
    results.append(
        CheckResult(
            "eta_step_iso",
            step_failures == 0,
            "multiplication by eta preserves each group along the band",
        )
    )

    # tau-multiplication step downward through the tau-local band
    tau_failures = 0
    tau_checked = 0
    for s in range(0, ETA_SCAN_MAX_STEM + 1):
        w_hi = 0 if s == 0 else (s + 2) // 2
        below = resolve_group(s, w_hi - BAND_WIDTH, stems)
        for w in range(w_hi - BAND_WIDTH + 1, w_hi + 1):
            tau_checked += 1
            here = resolve_group(s, w, stems)
            # above the stems table every cell of a stem is one cached value
            if here.region is not RegionLabel.TAU_LOCAL or not (here is below or here.group_str == below.group_str):
                tau_failures += 1
            below = here
    results.append(
        CheckResult(
            "tau_step_iso",
            tau_failures == 0,
            f"{tau_checked} bidegrees in a band of width {BAND_WIDTH} below the tau-local boundary",
        )
    )

    spot_failures = []
    for s, w, group, generator in ETA_SPOTS:
        value = eta_local_group(s, w)
        if value.group_str != group or value.generator_str != generator:
            spot_failures.append(f"({s},{w})")
    results.append(
        CheckResult(
            "spot_values",
            not spot_failures,
            "; ".join(spot_failures) if spot_failures else f"{len(ETA_SPOTS)} frozen bidegrees",
        )
    )
    return results


MAY_CENSUS_THROUGH_STEM_7 = (
    ("h1,0", 0, 0),
    ("h1,1", 1, 1),
    ("h2,0", 2, 1),
    ("h1,2", 3, 2),
    ("h2,1", 5, 3),
    ("h3,0", 6, 3),
    ("h1,3", 7, 4),
)


def check_vanishing() -> list[CheckResult]:
    gens = may_e1_generators(MAY_MAX_STEM)
    weight_ok = all(0 <= g.weight <= g.stem for g in gens)
    region_ok = all(classify(g.stem, g.weight) is not RegionLabel.ZERO for g in gens)
    prefix = tuple((g.name, g.stem, g.weight) for g in gens if g.stem <= 7)
    results = [
        CheckResult(
            "may_weights_below_stems",
            weight_ok and region_ok,
            f"{len(gens)} generators with stem <= {MAY_MAX_STEM}",
        ),
        CheckResult(
            "may_census_prefix",
            prefix == MAY_CENSUS_THROUGH_STEM_7,
            ", ".join(f"{n}@({s},{w})" for n, s, w in prefix),
        ),
    ]

    rng = random.Random(SAMPLE_SEED)
    sample_failures = 0
    for _ in range(ZERO_SAMPLE_COUNT):
        if rng.random() < 0.5:
            s = rng.randint(-2000, -1)
            w = rng.randint(-2000, 2000)
        else:
            s = rng.randint(0, 2000)
            w = rng.randint(s + 1, s + 2001)
        value = resolve_group(s, w)
        if (
            classify(s, w) is not RegionLabel.ZERO
            or value.descriptor is None
            or not value.descriptor.is_trivial
            or value.generator_str != "-"
        ):
            sample_failures += 1
    results.append(
        CheckResult(
            "zero_region_samples",
            sample_failures == 0,
            f"{ZERO_SAMPLE_COUNT} seeded bidegrees with s < 0 or w > s",
        )
    )

    # the weaker Adams-style eta-locality bound implies membership in the region
    weak_failures = sum(
        1
        for s in range(1, 201)
        for w in range(-10, s + 1)
        if adams_weak_bound(s, w) and classify(s, w) is not RegionLabel.ETA_LOCAL
    )
    results.append(
        CheckResult(
            "weak_bound_inside_region",
            weak_failures == 0,
            "4w >= 3s + 4 with w <= s lands eta-local for s in [1, 200]",
        )
    )
    return results


CTAU_SPOTS = (
    # (s, w, group string)
    (0, 0, "Z2"),
    (1, 1, "Z/2"),
    (5, 2, "0"),
    (3, 2, "Z/4"),
    (14, 7, "0"),
)


def check_ctau() -> list[CheckResult]:
    chart = load_sample_chart()
    below_failures = 0
    checked = 0
    for s in range(0, chart.s_max + 1):
        for w in range(-20, 21):
            if 2 * w - s < 0:
                checked += 1
                if not ctau_homotopy(chart, s, w).is_trivial:
                    below_failures += 1
    spot_failures = [
        f"({s},{w})"
        for s, w, group in CTAU_SPOTS
        if str(ctau_homotopy(chart, s, w)) != group
    ]
    range_ok = True
    for s in (-1, chart.s_max + 1):
        try:
            ctau_homotopy(chart, s, 0)
            range_ok = False
        except StemRangeError:
            pass
    return [
        CheckResult(
            "vanishes_below_milnor_witt_line",
            below_failures == 0,
            f"{checked} bidegrees with 2w - s < 0",
        ),
        CheckResult("spot_values", not spot_failures, "; ".join(f"({s},{w})={g}" for s, w, g in CTAU_SPOTS)),
        CheckResult("out_of_range_is_an_error", range_ok, "lack of data is not a zero group"),
    ]


def check_localization() -> list[CheckResult]:
    chart = load_sample_chart()
    results = eta_localize_chart(chart)
    guaranteed_failures = 0
    n_guaranteed = 0
    for cls in chart.classes:
        if not localization_guaranteed(cls.s, cls.f):
            continue
        n_guaranteed += 1
        r = results[cls.name]
        if r.cls != cls or r.status != LOCALIZATION_STABLE or r.value != cls or r.steps != 0:
            guaranteed_failures += 1
    unit_result = results["1"]
    unit_ok = (
        unit_result.status == LOCALIZATION_STABLE
        and unit_result.value is not None
        and unit_result.value.name == "alpha1^3"
        and unit_result.steps == 3
    )
    dead_result = results["alpha2/2"]
    dead_ok = dead_result.status == LOCALIZATION_STABLE and dead_result.value is None
    return [
        CheckResult(
            "guaranteed_range_is_stable",
            guaranteed_failures == 0 and n_guaranteed > 0,
            f"{n_guaranteed} classes with s < 5f - 10 localize to themselves in 0 steps",
        ),
        CheckResult(
            "unit_chain",
            unit_ok,
            "the unit stabilizes at alpha1^3 after three eta steps",
        ),
        CheckResult(
            "torsion_dies",
            dead_ok,
            "alpha2/2 has no eta edge and localizes to zero",
        ),
    ]


FAMILY_LINES = {
    "Pk_h1_4": (Fraction(1, 2), Fraction(2)),
    "w1_family": (Fraction(3, 5), Fraction(3, 5)),
    "Pk_h1": (Fraction(1, 2), Fraction(1, 2)),
    "eta_powers": (Fraction(1), Fraction(0)),
}


def check_families() -> list[CheckResult]:
    results = []
    line_failures = []
    for name, (slope, intercept) in FAMILY_LINES.items():
        if family_line(name) != (slope, intercept):
            line_failures.append(name)
            continue
        family = next(f for f in builtin_families() if f.name == name)
        for k in range(101):
            p = family.bidegree(k)
            if Fraction(p.w) != slope * p.s + intercept:
                line_failures.append(f"{name}@k={k}")
                break
    results.append(
        CheckResult(
            "members_on_their_lines",
            not line_failures,
            f"{len(FAMILY_LINES)} families, 101 members each",
        )
    )

    placement_ok = True
    families = {f.name: f for f in builtin_families()}
    for k in range(1, 101):
        if classify(*families["Pk_h1_4"].bidegree(k)) is not RegionLabel.NOT_UNDERSTOOD:
            placement_ok = False
        if classify(*families["w1_family"].bidegree(k)) is not RegionLabel.NOT_UNDERSTOOD:
            placement_ok = False
        if classify(*families["Pk_h1"].bidegree(k)) is not RegionLabel.TAU_LOCAL:
            placement_ok = False
        if k >= 2 and classify(*families["eta_powers"].bidegree(k)) is not RegionLabel.ETA_LOCAL:
            placement_ok = False
        if classify(*families["tau_powers"].bidegree(k)) is not RegionLabel.TAU_LOCAL:
            placement_ok = False
    results.append(
        CheckResult(
            "members_flank_their_boundaries",
            placement_ok,
            "tau- and eta-torsion families sit just outside the local regions they bound",
        )
    )

    vn_ok = all(
        Fraction(vn_bidegree(n, k).w, vn_bidegree(n, k).s) == Fraction(1, 2)
        for n in range(1, 21)
        for k in (1, 2, 5)
    )
    slopes = [wn_slope(n) for n in range(0, 21)]
    wn_ok = (
        all(slopes[i] > slopes[i + 1] for i in range(len(slopes) - 1))
        and all(sl > Fraction(1, 2) for sl in slopes)
        and slopes[0] == Fraction(1)
        and slopes[20] - Fraction(1, 2) < Fraction(1, 1000)
    )
    results.append(
        CheckResult(
            "periodicity_slopes",
            vn_ok and wn_ok and wn_slope(2) == SPECULATIVE_W2_SLOPE == Fraction(7, 13),
            "vn slopes all 1/2; wn slopes strictly decrease from 1 toward 1/2; w2 slope 7/13",
        )
    )

    exotic = EXOTIC_NONNILPOTENT
    powers_stuck = all(
        classify(k * exotic.s, k * exotic.w) is RegionLabel.NOT_UNDERSTOOD for k in range(1, 101)
    )
    ray_slope = Fraction(exotic.w, exotic.s)
    off_periodicity = ray_slope != Fraction(1, 2) and all(
        ray_slope != wn_slope(n) for n in range(0, 21)
    )
    results.append(
        CheckResult(
            "exotic_element_outside_families",
            exotic.s == 32
            and exotic.w == 18
            and powers_stuck
            and off_periodicity,
            f"({exotic.s},{exotic.w}) and its first 100 powers stay not understood; "
            f"ray slope {ray_slope} matches no vn or wn line",
        )
    )

    report = sharpness_report(load_sample_stems())
    results.append(
        CheckResult(
            "sharpness_report_covers_all",
            all(f.name in report for f in builtin_families()) and "exotic" in report,
            f"{len(report.splitlines())} lines",
        )
    )
    return results


def check_roundtrip() -> list[CheckResult]:
    results = []
    chart_text = read_data_text(SAMPLE_CHART_FILE)
    chart = parse_chart(chart_text)
    canonical = serialize_chart(chart)
    results.append(
        CheckResult(
            "chart_canonical_form",
            canonical == chart_text and parse_chart(canonical) == chart,
            f"{len(chart.classes)} classes, s_max {chart.s_max}",
        )
    )
    stems_text = read_data_text(SAMPLE_STEMS_FILE)
    stems = parse_stems(stems_text)
    results.append(
        CheckResult(
            "stems_canonical_form",
            serialize_stems(stems) == stems_text and parse_stems(serialize_stems(stems)) == stems,
            f"stems 0..{stems.s_max}",
        )
    )
    rejected = []
    for name in CORRUPT_FIXTURES:
        try:
            parse_chart(read_data_text(name))
            rejected.append(False)
        except ChartValidationError:
            rejected.append(True)
        except Exception:  # noqa: BLE001 - anything else is the wrong failure mode
            rejected.append(False)
    results.append(
        CheckResult(
            "corrupt_fixtures_rejected",
            all(rejected) and len(rejected) == len(CORRUPT_FIXTURES),
            ", ".join(CORRUPT_FIXTURES),
        )
    )
    return results


def golden_artifacts() -> dict[str, str]:
    """The golden renders from the pinned styles, by file name under data/golden."""
    stems = load_sample_stems()
    return {
        "regions.svg": region_chart_svg(GOLDEN_REGIONS_STYLE, stems_table=stems),
        "groups.tsv": groups_tsv(bidegree_window(*GOLDEN_GROUPS_WINDOW), stems_table=stems),
        "motivic.svg": motivic_chart_svg(lift_to_motivic(load_sample_chart()), GOLDEN_MOTIVIC_STYLE),
    }


def check_golden() -> list[CheckResult]:
    artifacts = golden_artifacts()
    results = [
        CheckResult(
            "deterministic_rerender",
            artifacts == golden_artifacts(),
            "two renders, identical bytes",
        )
    ]
    for name, text in artifacts.items():
        results.append(
            CheckResult(
                f"{name.replace('.', '_')}_bytes",
                text == read_data_text(f"golden/{name}"),
                f"{len(text)} bytes",
            )
        )
    return results


SUITES: dict[str, Callable[[], list[CheckResult]]] = {
    "einfty": check_einfty,
    "leibniz": check_leibniz,
    "partition": check_partition,
    "etalocal": check_etalocal,
    "vanishing": check_vanishing,
    "ctau": check_ctau,
    "localization": check_localization,
    "families": check_families,
    "roundtrip": check_roundtrip,
    "golden": check_golden,
}

