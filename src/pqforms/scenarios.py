"""Named desk-scale scenario checks, each run under both star conventions.

Every scenario compares an engine computation against a claimed result
written in the form DSL, so a report is self-contained: re-parsing its
``engine_result`` and ``paper_claim`` strings and subtracting reproduces
the ``match`` flag.  A mismatch is a report, not a crash; the literal
star convention is *expected* to fail some checks, and the expectation is
part of the scenario definition.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Tuple, Union

from .calculus import HarmonicReport, harmonic_check, laplacian
from .choices import CONVENTIONS, SCENARIO_IDS, StarConvention
from .dsl import _format_value, format_poly, pretty_print
from .forms import Form, _summed
from .metric import HermitianMetric
from .obstruction import (
    Direction,
    RealOrthogonalMatrix,
    k3_product_form,
    lemma34_scenario,
    obstruction,
    obstruction_direction_coefficients,
    paired_class_form,
)
from .star import defining_identity_check, hodge_star
from .wpoly import WirtingerPolynomial

ExtraValue = Union[bool, int, str, Dict[str, str]]


class ConventionCheck(NamedTuple):
    """One scenario evaluation under one star convention."""

    convention: StarConvention
    engine_result: str
    paper_claim: str
    match: bool
    expected_match: bool
    residual: str
    extras: Dict[str, ExtraValue]
    extras_as_expected: bool = True

    @property
    def passed(self) -> bool:
        return self.match == self.expected_match and self.extras_as_expected

    def to_dict(self) -> dict:
        return {
            "convention": self.convention.describe(),
            "engine_result": self.engine_result,
            "paper_claim": self.paper_claim,
            "match": self.match,
            "expected_match": self.expected_match,
            "residual": self.residual,
            "extras": self.extras,
            "passed": self.passed,
        }


class ScenarioReport(NamedTuple):
    scenario_id: str
    checks: Tuple[ConventionCheck, ...]
    notes: str

    @property
    def overall_pass(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "scenario": self.scenario_id,
            "notes": self.notes,
            "checks": [check.to_dict() for check in self.checks],
            "pass": self.overall_pass,
        }


def _check(
    convention: StarConvention,
    engine: Union[Form, WirtingerPolynomial],
    claim: Union[Form, WirtingerPolynomial],
    expected: bool,
    extras: Dict[str, ExtraValue],
    wanted: Dict[str, ExtraValue],
) -> ConventionCheck:
    """The check of an engine value against a claimed value, both forms or
    both polynomials; its extras are as expected when each ``wanted`` extra
    has its wanted value."""
    return ConventionCheck(
        convention=convention,
        engine_result=_format_value(engine),
        paper_claim=_format_value(claim),
        match=engine == claim,
        expected_match=expected,
        residual=_format_value(engine - claim),
        extras=extras,
        extras_as_expected=all(extras[name] == value for name, value in wanted.items()),
    )


def _laplacian_checks(
    psi: Form, extras: Callable[[HarmonicReport], Dict[str, ExtraValue]], wanted: Dict[str, ExtraValue]
) -> Tuple[ConventionCheck, ...]:
    """Laplacian(psi) = 0 under each convention, with the independent d and delta
    verdicts and ``extras(report)`` as extras; these are as expected when psi is
    harmonic and each ``wanted`` extra has its wanted value."""
    metric = HermitianMetric.identity(psi.n)
    checks = []
    for convention in CONVENTIONS.values():
        report = harmonic_check(psi, metric, convention)
        verdicts: Dict[str, ExtraValue] = {
            "d_vanishes": report.d_vanishes,
            "delta_vanishes": report.delta_vanishes,
            "harmonic": report.harmonic,
            **extras(report),
        }
        lap = laplacian(psi, metric, convention)
        checks.append(_check(convention, lap, Form.zero(psi.n), True, verdicts, {"harmonic": True, **wanted}))
    return tuple(checks)


def _lemma31_f() -> WirtingerPolynomial:
    n = 4
    return WirtingerPolynomial.z(n, 1) * WirtingerPolynomial.zb(n, 4) + WirtingerPolynomial.constant(n, 3)


def _run_lemma31() -> ScenarioReport:
    n = 4
    metric = HermitianMetric.identity(n)
    f = _lemma31_f()
    psi = Form.term(n, (1, 2), (3, 4), f)
    claim = Form.term(n, (3, 4), (1, 2), f.conjugate())
    checks = []
    for convention, expected in zip(CONVENTIONS.values(), (True, False)):
        engine = hodge_star(psi, metric, convention)
        identity = defining_identity_check(psi, psi, metric, convention)
        extras: Dict[str, ExtraValue] = {
            "defining_identity_holds": identity.holds,
            "defining_identity_residual": pretty_print(identity.residual),
        }
        checks.append(_check(convention, engine, claim, expected, extras, {"defining_identity_holds": expected}))
    return ScenarioReport(
        scenario_id="lemma31",
        checks=tuple(checks),
        notes=(
            "star of the holomorphic-coefficient (2,2)-monomial on n=4 with the identity "
            "metric; the literal index placement is expected to disagree and to break the "
            "defining identity"
        ),
    )


def _residuals(report: HarmonicReport) -> Dict[str, ExtraValue]:
    return {"d_residual": pretty_print(report.d_residual), "delta_residual": pretty_print(report.delta_residual)}


def _run_lemma33() -> ScenarioReport:
    return ScenarioReport(
        scenario_id="lemma33",
        checks=_laplacian_checks(Form.term(4, (1, 2), (3, 4), _lemma31_f()), _residuals, {}),
        notes=(
            "d and delta both vanish on the holomorphic-coefficient (2,2)-monomial, "
            "so its Laplacian is zero; holds under both conventions"
        ),
    )


def scenario_transforms() -> Tuple[RealOrthogonalMatrix, ...]:
    """Three exact rational orthogonal frame changes used by the battery."""
    n = 4
    return (
        RealOrthogonalMatrix.rotation(n, 1, 2, "3/5", "4/5"),
        RealOrthogonalMatrix.permutation([3, 1, 4, 2]),
        RealOrthogonalMatrix.rotation(n, 2, 4, "5/13", "12/13").compose(
            RealOrthogonalMatrix.sign_flip(n, [3])
        ),
    )


def scenario_directions() -> Tuple[Direction, ...]:
    n = 4
    return (
        Direction.basis(n, 1),
        Direction.basis(n, 2),
        Direction.basis(n, 3),
        Direction.basis(n, 4),
        Direction.parse("1,1,1,1", n),
        Direction.parse("2,-3,1/2,5", n),
    )


def _all_paired_forms(n: int = 4) -> List[Form]:
    from itertools import combinations

    forms = []
    for size in range(1, n + 1):
        for subset in combinations(range(1, n + 1), size):
            forms.append(paired_class_form(subset, 1, n))
    return forms


def _run_lemma34() -> ScenarioReport:
    n = 4
    candidate = Form.term(n, (1, 2), (3, 4), 1)
    directions = scenario_directions()
    transforms = scenario_transforms()

    paired = _all_paired_forms(n)
    paired_symbolic_zero = all(not obstruction_direction_coefficients(f) for f in paired)
    combination = Form(n, _summed(f.scale(weight) for weight, f in zip((1, -2, 3, -1, 2), paired)))
    frame_report = lemma34_scenario(combination, directions, transforms)
    candidate_report = lemma34_scenario(candidate, directions)

    symbolic = obstruction_direction_coefficients(candidate)
    symbolic_printed = {f"c{j}": format_poly(value) for j, value in sorted(symbolic.items())}
    value_e1 = obstruction(candidate, Direction.basis(n, 1))

    extras: Dict[str, ExtraValue] = {
        "paired_forms_tested": len(paired),
        "paired_symbolic_zero": paired_symbolic_zero,
        "paired_combination_zero_in_all_frames": frame_report.all_zero,
        "zero_verdict_stable_under_transforms": frame_report.zero_verdict_stable,
        "candidate_symbolic": symbolic_printed,
        "candidate_nonzero_in_standard_frame": not candidate_report.frames[0].all_zero,
        "frames_tested": len(frame_report.frames),
    }
    wanted: Dict[str, ExtraValue] = {
        "paired_symbolic_zero": True,
        "paired_combination_zero_in_all_frames": True,
        "zero_verdict_stable_under_transforms": True,
        "candidate_symbolic": {"c1": "1", "c2": "1", "c3": "-1", "c4": "-1"},
        "candidate_nonzero_in_standard_frame": True,
    }
    one = WirtingerPolynomial.one(n)
    return ScenarioReport(
        scenario_id="lemma34",
        checks=tuple(_check(c, value_e1, one, True, extras, wanted) for c in CONVENTIONS.values()),
        notes=(
            "pairing functionals: zero on every paired-index class form (symbolically in v, "
            "and in rotated exact orthogonal frames), nonzero on the mixed-index candidate; "
            "the star convention does not enter these functionals"
        ),
    )


def _run_k3() -> ScenarioReport:
    n = 4
    one = WirtingerPolynomial.one(n)
    psi = k3_product_form(one, one, n)
    value_e1 = obstruction(psi, Direction.basis(n, 1))
    pairing = {"obstruction_e1": format_poly(value_e1), "obstruction_e1_nonzero": not value_e1.is_zero()}
    return ScenarioReport(
        scenario_id="k3",
        checks=_laplacian_checks(psi, lambda report: pairing, {"obstruction_e1_nonzero": True}),
        notes=(
            "the product-construction (2,2)-form with unit block factors is harmonic on the "
            "flat model yet fails the pairing equation for v = e1; both facts in one report"
        ),
    )


_RUNNERS = {
    "lemma31": _run_lemma31,
    "lemma33": _run_lemma33,
    "lemma34": _run_lemma34,
    "k3": _run_k3,
}


def scenario_runner(scenario_id: str) -> ScenarioReport:
    """Run one named scenario; valid ids are in SCENARIO_IDS."""
    if scenario_id not in _RUNNERS:
        raise ValueError(f"unknown scenario {scenario_id!r}; valid ids: {', '.join(SCENARIO_IDS)}")
    return _RUNNERS[scenario_id]()
