"""The record contract: immutable values, equal and hashed by their compared fields."""

from __future__ import annotations

import copy
import pickle

import pytest

from motivic_stems.algebra import GeneratorSpec, MonomialAlgebraPresentation, Tridegree, Window
from motivic_stems.charts import LOCALIZATION_STABLE, ClassicalChart, ClassicalChartClass, LocalizationResult
from motivic_stems.families import FamilySpec, MayGenerator
from motivic_stems.groups import GroupDescriptor
from motivic_stems.render import ChartStyle
from motivic_stems.spectral import DifferentialSpec, localized_motivic_anss
from motivic_stems.verify import CheckResult

T = Tridegree(1, 1, 1)
UNIT = ClassicalChartClass("1", 0, 0, 0)
PRESENTATION = localized_motivic_anss()[0]
D3_IMAGES = {"alpha3": [PRESENTATION.monomial(tau=1, alpha1=4)]}

# per type: a builder, a builder of a record that differs from it in one compared field, that field, and the
# fields derived from the compared ones, which take no part in equality
CASES = {
    "GeneratorSpec": (
        lambda: GeneratorSpec("x", T),
        lambda: GeneratorSpec("x", T, square_zero=True),
        "square_zero",
        (),
    ),
    "MonomialAlgebraPresentation": (
        lambda: MonomialAlgebraPresentation([GeneratorSpec("x", T)]),
        lambda: MonomialAlgebraPresentation([GeneratorSpec("y", T)]),
        "generators",
        ("_index",),
    ),
    "Window": (lambda: Window(((0, 1),)), lambda: Window(((0, 2),)), "bounds", ()),
    "GroupDescriptor": (lambda: GroupDescriptor((2, 0)), lambda: GroupDescriptor((4, 0)), "summands", ("_str",)),
    "ClassicalChartClass": (
        lambda: ClassicalChartClass("a", 2, 2, 2),
        lambda: ClassicalChartClass("a", 2, 2, 4),
        "order",
        (),
    ),
    "ClassicalChart": (
        lambda: ClassicalChart([UNIT], 0),
        lambda: ClassicalChart([UNIT], 1),
        "s_max",
        ("_by_name", "_by_bidegree"),
    ),
    "LocalizationResult": (
        lambda: LocalizationResult(UNIT, LOCALIZATION_STABLE, None, 0),
        lambda: LocalizationResult(UNIT, LOCALIZATION_STABLE, None, 1),
        "steps",
        (),
    ),
    "FamilySpec": (lambda: FamilySpec("x", T, T, "tau"), lambda: FamilySpec("x", T, T, "eta"), "annihilated_by", ()),
    "MayGenerator": (lambda: MayGenerator.make(2, 1), lambda: MayGenerator.make(2, 2), "j", ()),
    "ChartStyle": (lambda: ChartStyle(), lambda: ChartStyle(scale=21), "scale", ()),
    "DifferentialSpec": (
        lambda: DifferentialSpec(PRESENTATION, 3, D3_IMAGES),
        lambda: DifferentialSpec(PRESENTATION, 5, D3_IMAGES),
        "page",
        ("offsets",),
    ),
    "CheckResult": (lambda: CheckResult("c", True), lambda: CheckResult("c", False), "passed", ()),
}
# its images are a read-only mapping proxy, which neither hashes nor pickles
UNHASHABLE = {"DifferentialSpec"}


@pytest.mark.parametrize("name", CASES)
def test_a_record_is_an_immutable_value(name):
    build, build_other, field, derived = CASES[name]
    record, twin, other = build(), build(), build_other()
    assert type(record).__name__ == name and record is not twin
    assert record == twin and (name in UNHASHABLE or hash(record) == hash(twin))
    assert getattr(record, field) != getattr(other, field) and record != other
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(other, field))
    assert record == twin and getattr(record, field) == getattr(twin, field)
    for attr in derived:
        altered = copy.copy(record)
        object.__setattr__(altered, attr, None)
        assert altered == record and (name in UNHASHABLE or hash(altered) == hash(record))
        assert attr not in repr(record)


@pytest.mark.parametrize("name", [name for name in CASES if name not in UNHASHABLE])
def test_a_record_survives_a_pickle_round_trip(name):
    # a verify suite's CheckResults come back from its worker process pickled
    record = CASES[name][0]()
    assert pickle.loads(pickle.dumps(record)) == record
