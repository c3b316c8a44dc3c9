"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is exact symbolic equality; there are no tolerances to
tune.  Random data is generated from fixed seeds so the suite is
reproducible run to run.
"""

import io
import json
import random
from contextlib import redirect_stdout
from itertools import combinations

from helpers import random_form
from pqforms import (
    Direction,
    Form,
    HermitianMetric,
    ORACLE_STAR_RATIOS,
    StarConvention,
    WirtingerPolynomial,
    codifferential,
    defining_identity_check,
    dolbeault_del,
    dolbeault_delbar,
    exterior_d,
    gaussian,
    harmonic_check,
    hodge_star,
    obstruction,
    obstruction_direction_coefficients,
    oracle_compare,
    paired_class_form,
    scenario_runner,
)
from pqforms.cli import main
from pqforms.dsl import parse_form, pretty_print
from pqforms.obstruction import lemma34_scenario
from pqforms.scenarios import scenario_directions, scenario_transforms


def _metrics_for(n):
    diagonal = [2] + [1] * (n - 1)
    return (HermitianMetric.identity(n), HermitianMetric.diagonal(diagonal))


def test_c1_defining_identity_suite():
    # 200 random pairs per (n, bidegree), each checked under the identity
    # and the diag(2,1,...) metric, coefficients of degree <= 2
    rng = random.Random(20260808)
    pairs_per_cell = 200
    checked = 0
    for n in (1, 2, 3):
        metrics = _metrics_for(n)
        for p in range(n + 1):
            for q in range(n + 1):
                for _ in range(pairs_per_cell):
                    a = random_form(rng, n, bidegree=(p, q), max_degree=2)
                    b = random_form(rng, n, bidegree=(p, q), max_degree=2)
                    for metric in metrics:
                        report = defining_identity_check(a, b, metric)
                        assert report.holds, (n, p, q, metric)
                        checked += 1
    assert checked == 200 * 29 * 2
    print(f"\nPASS criterion 1: defining identity exact on {checked} random checks (n<=3, all bidegrees, both metrics)")


def test_c2_lemma31_reproduction():
    n = 4
    metric = HermitianMetric.identity(n)
    f = WirtingerPolynomial.z(n, 1) * WirtingerPolynomial.zb(n, 4) + WirtingerPolynomial.constant(n, 3)
    psi = Form.term(n, (1, 2), (3, 4), f)
    expected = Form.term(n, (3, 4), (1, 2), f.conjugate())
    assert hodge_star(psi, metric) == expected

    # the literal printed index placement must break the defining identity
    printed = StarConvention(conjugation_mode="single", output_index_mode="printed_eq_2_9")
    report = defining_identity_check(psi, psi, metric, printed)
    assert not report.holds
    assert not report.residual.is_zero()

    # and the scenario report must say so
    scenario = scenario_runner("lemma31")
    literal_check = scenario.checks[1]
    assert literal_check.convention.output_index_mode == "printed_eq_2_9"
    assert literal_check.extras["defining_identity_holds"] is False
    assert literal_check.match is False and literal_check.passed
    print("\nPASS criterion 2: star of the holomorphic block form reproduced exactly; literal index placement fails and is reported")


def test_c3_lemma33_reproduction():
    n = 4
    metric = HermitianMetric.identity(n)
    rng = random.Random(33)
    admissible_slots = [0, 1, n + 2, n + 3]  # z1, z2, zb3, zb4
    for _ in range(5):
        f = WirtingerPolynomial.zero(n)
        for _ in range(rng.randint(1, 4)):
            exponents = [0] * (2 * n)
            for _ in range(rng.randint(0, 3)):
                exponents[rng.choice(admissible_slots)] += 1
            f = f + WirtingerPolynomial(
                n, {tuple(exponents): gaussian(rng.randint(-5, 5), rng.randint(-5, 5))}
            )
        psi = Form.term(n, (1, 2), (3, 4), f)
        assert exterior_d(psi).is_zero()
        assert codifferential(psi, metric).is_zero()
        assert harmonic_check(psi, metric).harmonic
    print("\nPASS criterion 3: d and delta vanish exactly for 5 random admissible coefficient functions")


def test_c4_operator_algebra():
    rng = random.Random(44)
    for _ in range(100):
        n = rng.randint(1, 4)
        metric = HermitianMetric.identity(n)
        a = random_form(rng, n, max_degree=2)
        assert exterior_d(exterior_d(a)).is_zero()
        assert exterior_d(a) == dolbeault_del(a) + dolbeault_delbar(a)
        assert (dolbeault_del(dolbeault_delbar(a)) + dolbeault_delbar(dolbeault_del(a))).is_zero()
        homogeneous = random_form(rng, n, total_degree=rng.randint(0, 2 * n), max_degree=1)
        assert codifferential(codifferential(homogeneous, metric), metric).is_zero()
    print("\nPASS criterion 4: d^2 = 0, delta^2 = 0, d = del + delbar, del delbar + delbar del = 0 on 100 random forms")


def test_c5_oracle_equivalence():
    for n in (1, 2, 3):
        metric = HermitianMetric.identity(n)
        for p in range(n + 1):
            for q in range(n + 1):
                recorded = ORACLE_STAR_RATIOS[(n, p, q)]
                for A in combinations(range(1, n + 1), p):
                    for B in combinations(range(1, n + 1), q):
                        report = oracle_compare(Form.term(n, A, B, 1), metric)
                        assert report.proportional
                        assert report.ratio_for(p, q) == recorded, (n, p, q, A, B)
    print("\nPASS criterion 5: engine star proportional to the real-coordinate oracle on all monomials, ratios match the recorded table")


def test_c6_double_star_involution():
    for n in (1, 2, 3):
        metric = HermitianMetric.identity(n)
        for p in range(n + 1):
            for q in range(n + 1):
                sign = -1 if (p + q) % 2 else 1
                for A in combinations(range(1, n + 1), p):
                    for B in combinations(range(1, n + 1), q):
                        psi = Form.term(n, A, B, 1)
                        twice = hodge_star(hodge_star(psi, metric), metric)
                        assert twice == (psi if sign == 1 else -psi)
    print("\nPASS criterion 6: double star equals (-1)^(p+q) on exhaustive monomials up to n = 3")


def test_c7_obstruction_battery():
    n = 4
    # symbolically zero in v on every paired-index class form
    for size in range(1, n + 1):
        for subset in combinations(range(1, n + 1), size):
            assert obstruction_direction_coefficients(paired_class_form(subset, 1, n)) == {}

    # the candidate form evaluates to c1 + c2 - c3 - c4, which is nonzero
    candidate = Form.term(n, (1, 2), (3, 4), 1)
    symbolic = obstruction_direction_coefficients(candidate)
    one = WirtingerPolynomial.one(n)
    assert symbolic == {1: one, 2: one, 3: -one, 4: -one}
    assert not obstruction(candidate, Direction.basis(n, 1)).is_zero()

    # the zero verdict survives three exact orthogonal frame changes
    rng = random.Random(77)
    transforms = scenario_transforms()
    assert len(transforms) == 3
    subsets = [(1,), (2, 3), (1, 4), (2,), (1, 2, 3, 4)]
    combo = Form.zero(n)
    for subset in subsets:
        from fractions import Fraction

        weight = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        combo = combo + paired_class_form(subset, gaussian(weight), n)
    report = lemma34_scenario(combo, scenario_directions(), transforms)
    assert report.all_zero and report.zero_verdict_stable
    print("\nPASS criterion 7: obstruction vanishes symbolically on paired forms, is c1+c2-c3-c4 on the candidate, and the zero verdict is frame-stable")


def test_c8_k3_scenario():
    report = scenario_runner("k3")
    payload = report.to_dict()
    document = json.dumps(payload, sort_keys=True)
    assert report.overall_pass
    for check in payload["checks"]:
        assert check["extras"]["harmonic"] is True
        assert check["extras"]["obstruction_e1_nonzero"] is True
    # both facts sit in a single JSON document
    assert "harmonic" in document and "obstruction_e1" in document
    print("\nPASS criterion 8: product-construction form is harmonic and fails the pairing equation for v = e1, both in one JSON report")


def test_c9_dsl_round_trip_and_cli_determinism():
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randint(1, 4)
        form = random_form(rng, n)
        assert parse_form(pretty_print(form), n) == form

    def capture(argv):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(argv)
        return code, buffer.getvalue().encode("utf-8")

    for argv in (
        ["scenario", "lemma31", "--json"],
        ["scenario", "k3", "--json"],
        ["star", "--n", "2", "--json", "(z1+3)*dz1^dzb2"],
        ["harmonic", "--n", "4", "dz1^dz2^dzb3^dzb4"],
    ):
        first = capture(argv)
        second = capture(argv)
        assert first[0] == 0
        assert first == second
    print("\nPASS criterion 9: parse/print round trip on 100 random forms; CLI output byte-identical across runs")
