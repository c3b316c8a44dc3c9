import json
from importlib import import_module

import pytest

from pqforms import scenario_runner, scenarios
from pqforms.dsl import parse_form
from pqforms.scenarios import SCENARIO_IDS


@pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
def test_scenarios_pass_overall(scenario_id):
    report = scenario_runner(scenario_id)
    assert report.overall_pass
    assert len(report.checks) == 2  # default and literal conventions


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        scenario_runner("lemma99")


def test_lemma31_default_matches_and_literal_fails():
    report = scenario_runner("lemma31")
    default, literal = report.checks
    assert default.convention.conjugation_mode == "single"
    assert default.match and default.expected_match
    assert default.extras["defining_identity_holds"] is True
    assert literal.convention.conjugation_mode == "literal_eq_2_9"
    assert not literal.match and not literal.expected_match
    assert literal.extras["defining_identity_holds"] is False
    assert literal.residual != "0"
    assert literal.passed


def test_lemma33_reports_both_vanishing():
    report = scenario_runner("lemma33")
    for check in report.checks:
        assert check.extras["d_vanishes"] is True
        assert check.extras["delta_vanishes"] is True
        assert check.extras["harmonic"] is True
        assert check.engine_result == "0"


def test_lemma34_battery():
    report = scenario_runner("lemma34")
    check = report.checks[0]
    assert check.engine_result == "1"
    assert check.extras["candidate_symbolic"] == {"c1": "1", "c2": "1", "c3": "-1", "c4": "-1"}
    assert check.extras["paired_symbolic_zero"] is True
    assert check.extras["zero_verdict_stable_under_transforms"] is True
    assert check.extras["frames_tested"] == 4


def test_lemma34_fails_when_a_wanted_extra_deviates(monkeypatch):
    # the symbolic obstruction reads as zero everywhere, so the candidate's
    # extra deviates from its wanted value while the engine result still matches
    monkeypatch.setattr(scenarios, "obstruction_direction_coefficients", lambda form: {})
    report = scenario_runner("lemma34")
    assert not report.overall_pass
    for check in report.checks:
        assert check.match and check.extras["paired_symbolic_zero"] is True
        assert check.extras["candidate_symbolic"] == {}
        assert not check.extras_as_expected and not check.passed


def test_lemma34_transforms_only_the_frames_it_reads(monkeypatch):
    # the paired combination is read in every rotated frame; the candidate
    # only in the standard frame, so it is never transformed
    obstruction = import_module("pqforms.obstruction")
    calls = []
    transform = obstruction.transform_form

    def counted(form, matrix):
        calls.append(form)
        return transform(form, matrix)

    monkeypatch.setattr(obstruction, "transform_form", counted)
    assert scenario_runner("lemma34").overall_pass
    assert len(calls) == len(scenarios.scenario_transforms()) == 3
    assert all(form != parse_form("dz1^dz2^dzb3^dzb4", 4) for form in calls)


def test_k3_combined_report():
    report = scenario_runner("k3")
    payload = report.to_dict()
    assert payload["schema"] == 1
    for check in payload["checks"]:
        assert check["extras"]["harmonic"] is True
        assert check["extras"]["obstruction_e1"] == "1"
        assert check["extras"]["obstruction_e1_nonzero"] is True
    # both facts live in one JSON document
    text = json.dumps(payload)
    assert "harmonic" in text and "obstruction_e1" in text


@pytest.mark.parametrize("scenario_id", SCENARIO_IDS)
def test_match_flag_reproducible_from_printed_fields(scenario_id):
    n = 4
    report = scenario_runner(scenario_id)
    for check in report.checks:
        engine = parse_form(check.engine_result, n)
        claim = parse_form(check.paper_claim, n)
        assert check.match == (engine - claim).is_zero()
        residual = parse_form(check.residual, n)
        assert residual == engine - claim


def test_reports_serialize_to_stable_json():
    for scenario_id in SCENARIO_IDS:
        first = json.dumps(scenario_runner(scenario_id).to_dict(), sort_keys=True)
        second = json.dumps(scenario_runner(scenario_id).to_dict(), sort_keys=True)
        assert first == second
