"""The record contract: every report and value record is an immutable
``typing.NamedTuple`` with a fixed field order and fixed defaults."""

import pytest

from pqforms.calculus import FLAT_MODEL_NOTE, HarmonicReport
from pqforms.choices import DEFAULT_CONVENTION, StarConvention
from pqforms.dsl import Token
from pqforms.metric import MetricValidation, VolumeCoefficientReport
from pqforms.obstruction import Direction, DirectionVerdict, FrameReport, FrameVerdict
from pqforms.realoracle import BidegreeComparison, OracleReport
from pqforms.scenarios import ConventionCheck, ScenarioReport
from pqforms.star import DefiningIdentityReport

# field order as each record has always declared it
FIELDS = {
    StarConvention: ("conjugation_mode", "output_index_mode"),
    Token: ("kind", "text", "value", "line", "column"),
    HarmonicReport: ("d_vanishes", "delta_vanishes", "d_residual", "delta_residual", "convention", "note"),
    MetricValidation: (
        "n", "is_hermitian", "hermitian_failures", "determinant", "is_invertible", "is_positive_definite",
        "leading_minors",
    ),
    VolumeCoefficientReport: ("n", "wedge_power_coefficient", "real_prefactor_variant", "match"),
    DefiningIdentityReport: ("holds", "residual", "convention"),
    BidegreeComparison: ("p", "q", "proportional", "ratio"),
    OracleReport: ("n", "convention", "proportional", "comparisons"),
    Direction: ("n", "components"),
    DirectionVerdict: ("direction", "value", "is_zero"),
    FrameVerdict: ("frame", "verdicts"),
    FrameReport: ("frames",),
    ConventionCheck: (
        "convention", "engine_result", "paper_claim", "match", "expected_match", "residual", "extras",
        "extras_as_expected",
    ),
    ScenarioReport: ("scenario_id", "checks", "notes"),
}

DEFAULTS = {
    StarConvention: {"conjugation_mode": "single", "output_index_mode": "same_type_complement"},
    HarmonicReport: {"note": FLAT_MODEL_NOTE},
    MetricValidation: {"leading_minors": ()},
    ConventionCheck: {"extras_as_expected": True},
}


def instance(record):
    if record is Direction:
        return Direction(2, (1, "-1/2"))
    return record(*FIELDS[record])


@pytest.mark.parametrize("record", FIELDS, ids=lambda record: record.__name__)
def test_record_fields_and_defaults_are_fixed(record):
    assert record._fields == FIELDS[record]
    assert record._field_defaults == DEFAULTS.get(record, {})


@pytest.mark.parametrize("record", FIELDS, ids=lambda record: record.__name__)
def test_records_are_immutable(record):
    value = instance(record)
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        value.undeclared = None


def test_defaults_fill_the_trailing_fields():
    assert StarConvention() == DEFAULT_CONVENTION
    assert DEFAULT_CONVENTION.describe() == {"conjugation": "single", "output_index": "same_type_complement"}
    assert HarmonicReport(True, True, None, None, DEFAULT_CONVENTION).note == FLAT_MODEL_NOTE
    assert MetricValidation(1, True, (), 1, True, True).leading_minors == ()
    check = ConventionCheck(DEFAULT_CONVENTION, "0", "0", True, True, "0", {})
    assert check.extras_as_expected and check.passed
    with pytest.raises(TypeError):
        ConventionCheck(DEFAULT_CONVENTION, "0", "0", True, True, "0")
