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
    if record is StarConvention:  # its modes are checked, so it gets valid ones
        return StarConvention("literal_eq_2_9", "printed_eq_2_9")
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


def test_star_convention_builds_the_four_valid_combinations():
    conventions = [StarConvention(c, o) for c in ("single", "literal_eq_2_9") for o in ("same_type_complement", "printed_eq_2_9")]
    assert [tuple(c) for c in conventions] == [
        ("single", "same_type_complement"),
        ("single", "printed_eq_2_9"),
        ("literal_eq_2_9", "same_type_complement"),
        ("literal_eq_2_9", "printed_eq_2_9"),
    ]
    assert StarConvention(output_index_mode="printed_eq_2_9") == conventions[1]
    assert conventions[3].describe() == {"conjugation": "literal_eq_2_9", "output_index": "printed_eq_2_9"}


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        # a misspelled mode must not be read as the other value of its field
        (("single", "same_type"), {}, "unknown output_index_mode 'same_type': expected one of 'same_type_complement', 'printed_eq_2_9'"),
        (("literal",), {}, "unknown conjugation_mode 'literal': expected one of 'single', 'literal_eq_2_9'"),
        ((), {"conjugation_mode": "Single"}, "unknown conjugation_mode 'Single': expected one of 'single', 'literal_eq_2_9'"),
        ((), {"output_index_mode": "printed"}, "unknown output_index_mode 'printed': expected one of 'same_type_complement', 'printed_eq_2_9'"),
        (("literal_eq_2_9", None), {}, "unknown output_index_mode None: expected one of 'same_type_complement', 'printed_eq_2_9'"),
    ],
)
def test_star_convention_rejects_an_unknown_mode(args, kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        StarConvention(*args, **kwargs)
    # the namedtuple's other constructors check the modes too
    modes = dict(zip(StarConvention._fields, args), **kwargs)
    with pytest.raises(ValueError, match=f"^{message}$"):
        DEFAULT_CONVENTION._replace(**modes)
    with pytest.raises(ValueError, match=f"^{message}$"):
        StarConvention._make({**DEFAULT_CONVENTION._asdict(), **modes}.values())
