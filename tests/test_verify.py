"""The verify suites catch a wrong answer at a single bidegree."""

from __future__ import annotations

import pytest

from motivic_stems import charts, families, regions, resources, verify
from motivic_stems.algebra import Tridegree
from motivic_stems.groups import TRIVIAL_GROUP, Z_MOD_2
from motivic_stems.regions import GroupValue, RegionLabel
from motivic_stems.spectral import sum_multiply

# small stand-ins for the acceptance constants, so each suite runs in milliseconds
RADIUS = 24
MAX_STEM = 40
BAND = 5
TAU_STEM = 30  # its tau-local band lies above the stems table, so cells read pi_30


@pytest.fixture
def small_suites(monkeypatch):
    monkeypatch.setattr(verify, "PARTITION_RADIUS", RADIUS)
    monkeypatch.setattr(verify, "ETA_SCAN_MAX_STEM", MAX_STEM)
    monkeypatch.setattr(verify, "BAND_WIDTH", BAND)


def _results(checks):
    return {c.name: c.passed for c in checks}


def test_small_suites_pass_unmutated(small_suites):
    # at s = 0 each tau-band cell is its own value, tau^k, with one group string
    ray = [regions.resolve_group(0, w) for w in range(-BAND, 1)]
    assert len({v.generator for v in ray}) == len(ray) and {v.group_str for v in ray} == {"Z2"}
    assert all(_results(verify.check_partition()).values())
    assert all(_results(verify.check_etalocal()).values())


@pytest.mark.parametrize("cell", [(20, 14), (0, 0), (RADIUS, RADIUS)], ids=["boundary", "origin", "corner"])
def test_wrong_label_at_one_cell_fails_partition(small_suites, monkeypatch, cell):
    truth = regions.classify(*cell)
    wrong = next(label for label in RegionLabel if label is not truth)

    def mutated(s, w):
        return wrong if (s, w) == cell else regions.classify(s, w)

    monkeypatch.setattr(verify, "classify", mutated)
    checks = {c.name: c for c in verify.check_partition()}
    assert not checks["exhaustive_floor_oracle"].passed
    # the counts are classify's, not the oracle's
    grid = [mutated(s, w) for s in range(-RADIUS, RADIUS + 1) for w in range(-RADIUS, RADIUS + 1)]
    counts = ", ".join(f"{label}={grid.count(label)}" for label in RegionLabel)
    assert checks["all_regions_realized"].detail == counts


@pytest.mark.parametrize(
    "w",
    [(TAU_STEM + 2) // 2 - BAND // 2, (TAU_STEM + 2) // 2 - BAND],
    ids=["band_middle", "below_band_bottom"],
)
def test_wrong_group_at_one_band_cell_fails_tau_step(small_suites, monkeypatch, w):
    cell = (TAU_STEM, w)
    assert regions.resolve_group(*cell).group_str == f"pi_{TAU_STEM}"

    def mutated(s, w, stems_table=None):
        return GroupValue(RegionLabel.NOT_UNDERSTOOD) if (s, w) == cell else regions.resolve_group(s, w, stems_table)

    monkeypatch.setattr(verify, "resolve_group", mutated)
    assert not _results(verify.check_etalocal())["tau_step_iso"]


def test_other_stem_at_one_band_cell_fails_tau_step(small_suites, monkeypatch):
    # a different value in the same region: the group strings must still be compared
    cell = (TAU_STEM, (TAU_STEM + 2) // 2 - BAND // 2)

    def mutated(s, w, stems_table=None):
        value = regions.resolve_group(s, w, stems_table)
        return GroupValue(RegionLabel.TAU_LOCAL, stem=TAU_STEM + 1) if (s, w) == cell else value

    monkeypatch.setattr(verify, "resolve_group", mutated)
    assert not _results(verify.check_etalocal())["tau_step_iso"]


def test_wrong_region_at_one_eta_band_cell_fails_band_values(small_suites, monkeypatch):
    s = MAX_STEM - 10
    cell = (s, (3 * s + 5) // 5 + 2)
    assert regions.classify(*cell) is RegionLabel.ETA_LOCAL

    def mutated(s, w, stems_table=None):
        value = regions.resolve_group(s, w, stems_table)
        return value._replace(region=RegionLabel.NOT_UNDERSTOOD) if (s, w) == cell else value

    monkeypatch.setattr(verify, "resolve_group", mutated)
    results = _results(verify.check_etalocal())
    assert not results["boundary_band_values"]
    assert results["eta_step_iso"]


def test_named_trivial_eta_value_fails_the_oracle_checks(small_suites, monkeypatch):
    # a zero group must come with no generator: the band and the closed form compare both strings
    monkeypatch.setattr(regions, "_ETA_TRIVIAL_VALUE", GroupValue(RegionLabel.ETA_LOCAL, TRIVIAL_GROUP, "x"))
    results = _results(verify.check_etalocal())
    assert not results["boundary_band_values"]
    assert not results["closed_form_matches_oracle"]


def _mutate_one_input(monkeypatch, name, original, key, wrong):
    # verify's binding of `name` answers `wrong` on the one input `key`, else as `original`
    def mutated(*args):
        return wrong if args == key else original(*args)

    monkeypatch.setattr(verify, name, mutated)


def _wrong_product(presentation, terms, m):
    # the right answer plus the multiplier itself, so d(xy) != d(x)y + xd(y) whenever x != y
    return sum_multiply(presentation, terms, m) ^ {m}


def test_wrong_product_fails_product_rule(monkeypatch):
    monkeypatch.setattr(verify, "sum_multiply", _wrong_product)
    monkeypatch.setattr(verify, "LEIBNIZ_PAIR_SAMPLES", 10)
    results = _results(verify.check_leibniz())
    assert not results["product_rule"]
    assert results["d_squared_zero"]


def test_wrong_leibniz_image_fails_d_squared_zero(monkeypatch):
    presentation, (d3,) = verify.localized_motivic_anss()
    alpha3 = presentation.monomial(alpha3=1)
    monkeypatch.setattr(verify, "localized_motivic_anss", lambda: (presentation, [d3]))
    # d(alpha3) = alpha3, whose own differential is nonzero
    _mutate_one_input(monkeypatch, "leibniz_extend", verify.leibniz_extend, (d3, alpha3), frozenset((alpha3,)))
    monkeypatch.setattr(verify, "LEIBNIZ_PAIR_SAMPLES", 10)
    assert not _results(verify.check_leibniz())["d_squared_zero"]


def test_zero_region_at_a_may_generator_fails_vanishing(monkeypatch):
    _mutate_one_input(monkeypatch, "classify", regions.classify, (1, 1), RegionLabel.ZERO)
    monkeypatch.setattr(verify, "ZERO_SAMPLE_COUNT", 10)
    assert not _results(verify.check_vanishing())["may_weights_below_stems"]


def test_named_zero_at_one_sampled_cell_fails_vanishing(monkeypatch):
    monkeypatch.setattr(verify, "ZERO_SAMPLE_COUNT", 10)
    sampled = []

    def recording(s, w):
        sampled.append((s, w))
        return regions.resolve_group(s, w)

    monkeypatch.setattr(verify, "resolve_group", recording)
    assert _results(verify.check_vanishing())["zero_region_samples"]
    named = GroupValue(RegionLabel.ZERO, TRIVIAL_GROUP, "x")
    _mutate_one_input(monkeypatch, "resolve_group", regions.resolve_group, sampled[0], named)
    assert not _results(verify.check_vanishing())["zero_region_samples"]


def test_nonzero_ctau_group_below_the_line_fails_ctau(monkeypatch):
    chart = charts.load_sample_chart()
    monkeypatch.setattr(verify, "load_sample_chart", lambda: chart)
    # (3, 1) has 2w - s = -1
    _mutate_one_input(monkeypatch, "ctau_homotopy", charts.ctau_homotopy, (chart, 3, 1), Z_MOD_2)
    results = _results(verify.check_ctau())
    assert not results["vanishes_below_milnor_witt_line"]
    assert results["spot_values"]


@pytest.mark.parametrize("side", ["below", "above"])
def test_zero_group_out_of_range_fails_ctau(monkeypatch, side):
    # lack of data answered as the zero group in place of StemRangeError
    chart = charts.load_sample_chart()
    monkeypatch.setattr(verify, "load_sample_chart", lambda: chart)
    stem = -1 if side == "below" else chart.s_max + 1
    _mutate_one_input(monkeypatch, "ctau_homotopy", charts.ctau_homotopy, (chart, stem, 0), TRIVIAL_GROUP)
    assert not _results(verify.check_ctau())["out_of_range_is_an_error"]


def test_wrong_ctau_group_at_one_spot_fails_ctau(monkeypatch):
    chart = charts.load_sample_chart()
    monkeypatch.setattr(verify, "load_sample_chart", lambda: chart)
    _mutate_one_input(monkeypatch, "ctau_homotopy", charts.ctau_homotopy, (chart, 3, 2), TRIVIAL_GROUP)
    assert not _results(verify.check_ctau())["spot_values"]


def test_unit_in_the_guaranteed_range_fails_localization(monkeypatch):
    # the unit needs three eta steps, so a range holding (0, 0) is not stable
    _mutate_one_input(monkeypatch, "localization_guaranteed", charts.localization_guaranteed, (0, 0), True)
    assert not _results(verify.check_localization())["guaranteed_range_is_stable"]


def test_wrong_family_line_fails_families(monkeypatch):
    _mutate_one_input(monkeypatch, "family_line", families.family_line, ("w1_family",), (1, 0))
    assert not _results(verify.check_families())["members_on_their_lines"]


def test_family_off_its_line_fails_families(monkeypatch):
    # the line itself stays right; the family's members leave it
    def moved():
        return [
            families.FamilySpec(f.name, f.base + Tridegree(0, 0, 1), f.period, f.annihilated_by, f.note)
            if f.name == "w1_family"
            else f
            for f in families.builtin_families()
        ]

    monkeypatch.setattr(verify, "builtin_families", moved)
    assert not _results(verify.check_families())["members_on_their_lines"]


@pytest.mark.parametrize("name", [f.name for f in families.builtin_families()])
def test_zero_region_at_one_member_fails_placement(monkeypatch, name):
    family = next(f for f in families.builtin_families() if f.name == name)
    # no family lies in the zero region, and the check reads k = 5 of every family (eta_powers from k = 2)
    _mutate_one_input(monkeypatch, "classify", regions.classify, tuple(family.bidegree(5)), RegionLabel.ZERO)
    results = _results(verify.check_families())
    assert not results["members_flank_their_boundaries"]
    assert results["members_on_their_lines"]


def test_corrupt_fixture_failing_to_parse_fails_roundtrip(monkeypatch):
    # a parse error is not the validation error a corrupt fixture must raise
    _mutate_one_input(monkeypatch, "read_data_text", resources.read_data_text, ("fixtures/missing_unit.txt",), "x\n")
    assert not _results(verify.check_roundtrip())["corrupt_fixtures_rejected"]


def test_accepted_corrupt_fixture_fails_roundtrip(monkeypatch):
    good = resources.read_data_text("sample_chart.txt")
    _mutate_one_input(monkeypatch, "read_data_text", resources.read_data_text, ("fixtures/bad_eta_edge.txt",), good)
    assert not _results(verify.check_roundtrip())["corrupt_fixtures_rejected"]


def _cell_oracle(s, w):
    # the per-cell floor-division statement the row oracle restates as runs
    if s < 0 or w > s:
        return RegionLabel.ZERO
    if s == 0:
        return RegionLabel.TAU_LOCAL
    if w <= (s + 2) // 2:
        return RegionLabel.TAU_LOCAL
    if w > (3 * s + 5) // 5:
        return RegionLabel.ETA_LOCAL
    return RegionLabel.NOT_UNDERSTOOD


def test_oracle_row_matches_cell_oracle():
    # small radii clip runs at both ends and leave some empty, including s = 0 and s = +-r
    for r in range(13):
        for s in range(-r, r + 1):
            row, runs = verify._oracle_row(s, r)
            assert row == [_cell_oracle(s, w) for w in range(-r, r + 1)], (s, r)
            assert [label for label, n in runs for _ in range(n)] == row, (s, r)
