import json
import random
import re
from fractions import Fraction

import pytest

import pqforms.metric
from helpers import brute_determinant, random_dense_metric
from pqforms import (
    Form,
    HermitianMetric,
    associated_form,
    gaussian,
    load_metric,
    validate_matrix,
    volume_coefficient_report,
    raise_indices,
    volume_form,
)
from pqforms.metric import coerce_matrix
from pqforms.scalars import GaussianRational
from pqforms.wpoly import WirtingerPolynomial


def test_identity_metric_is_valid():
    report = validate_matrix([[1 if i == j else 0 for j in range(4)] for i in range(4)])
    assert report.is_valid
    assert report.determinant == gaussian(1)


def test_diagonal_metric_is_valid():
    report = validate_matrix([[2, 0], [0, 1]])
    assert report.is_valid
    assert report.determinant == gaussian(2)


def test_zero_leading_minor_fails_positivity():
    report = validate_matrix([[0, 1], [1, 0]])
    assert report.is_hermitian
    assert report.is_invertible
    assert not report.is_positive_definite
    assert report.leading_minors[0] == gaussian(0)


def test_non_square_rejected():
    with pytest.raises(ValueError):
        validate_matrix([[1, 0, 0], [0, 1, 0]])


def test_non_hermitian_rejected_with_offenders():
    with pytest.raises(ValueError) as err:
        HermitianMetric([[1, "i"], ["i", 1]])
    assert "[1,2]" in str(err.value)


def test_complex_offdiagonal_hermitian_accepted():
    metric = HermitianMetric([["2", "1+i"], ["1-i", "3"]])
    assert metric.validate().is_valid
    assert metric.determinant == gaussian(4)


def test_associated_form_identity_n1():
    metric = HermitianMetric.identity(1)
    assert associated_form(metric) == Form.term(1, (1,), (1,), gaussian(0, 1))


def test_associated_form_identity_n2():
    metric = HermitianMetric.identity(2)
    expected = Form.term(2, (1,), (1,), gaussian(0, 1)) + Form.term(2, (2,), (2,), gaussian(0, 1))
    assert associated_form(metric) == expected


def test_associated_form_diagonal():
    metric = HermitianMetric.diagonal([2, 1])
    expected = Form.term(2, (1,), (1,), gaussian(0, 2)) + Form.term(2, (2,), (2,), gaussian(0, 1))
    assert associated_form(metric) == expected


def test_volume_form_n1():
    assert volume_form(HermitianMetric.identity(1)) == Form.term(1, (1,), (1,), gaussian(0, 1))


def test_volume_form_n2():
    # wedge-power oracle: i^2 * (dz1^dzb1 + dz2^dzb2)^2 / 2 reordered gives +1
    assert volume_form(HermitianMetric.identity(2)) == Form.term(2, (1, 2), (1, 2), 1)


def test_volume_form_n4_coefficient():
    vol = volume_form(HermitianMetric.identity(4))
    full = (1, 2, 3, 4)
    assert vol == Form.term(4, full, full, 1)


def test_volume_form_diagonal_picks_up_determinant():
    assert volume_form(HermitianMetric.diagonal([2, 1])) == Form.term(2, (1, 2), (1, 2), 2)


def test_volume_form_is_built_once_per_metric():
    # dense, non-diagonal metric; the expected value is omega^n / n! wedged here
    metric = HermitianMetric([[2, "1+i", 0], ["1-i", 3, "1/2"], [0, "1/2", 1]])
    vol = volume_form(metric)
    assert volume_form(metric) is vol
    omega = associated_form(metric)
    assert vol == (omega ^ omega ^ omega).scale(Fraction(1, 6))


def test_is_identity_is_decided_once_per_metric(monkeypatch):
    # the identity and diag(1, ..., 1) are the identity; a dense metric and
    # diag(2, 1) are not, and a second call compares no entry
    compared = []
    eq = GaussianRational.__eq__

    def counted_eq(self, other):
        compared.append(other)
        return eq(self, other)

    metrics = {
        True: [HermitianMetric.identity(3), HermitianMetric.diagonal([1] * 3)],
        False: [random_dense_metric(random.Random(3), 3), HermitianMetric.diagonal([2, 1])],
    }
    for expected, built in metrics.items():
        for metric in built:
            assert metric.is_identity() is expected
            monkeypatch.setattr(GaussianRational, "__eq__", counted_eq)
            assert metric.is_identity() is expected
            monkeypatch.setattr(GaussianRational, "__eq__", eq)
    assert not compared


def test_raising_images_are_built_once_per_metric():
    # built on the first raise only, then the same images serve every raise;
    # the raising frame lives on the star rows, the metric's one star-layer slot
    assert HermitianMetric.__slots__ == ("n", "entries", "inverse", "determinant", "_identity", "_volume", "_star")
    metric = HermitianMetric([[2, "1+i", 0], ["1-i", 3, "1/2"], [0, "1/2", 1]])
    assert metric._star is None
    volume_form(metric)
    assert metric._star is None
    raise_indices(Form.term(3, (1,), (2,), 1), metric)
    frame = metric._star.frame
    assert sum(map(len, frame.generators)) == 6
    raise_indices(Form.term(3, (1, 3), (), 1), metric)
    raise_indices(Form.term(3, (), (1, 2, 3), 1), metric)
    assert metric._star.frame is frame
    assert HermitianMetric(metric.entries)._star is None


def test_raising_builds_one_constant_per_nonzero_inverse_entry(monkeypatch):
    # the identity's inverse has n nonzero entries of n^2, kept once for the
    # dz images and once for the dzb images as plain constants: the frame
    # builds no constant polynomial
    calls = []
    original = WirtingerPolynomial.constant.__func__

    def counted(cls, n, value):
        calls.append(value)
        return original(cls, n, value)

    monkeypatch.setattr(WirtingerPolynomial, "constant", classmethod(counted))
    n = 6
    metric = HermitianMetric.identity(n)
    psi = Form.term(n, (1,), (2,), 1)
    calls.clear()
    raise_indices(psi, metric)
    assert calls == []
    assert sum(len(image) for images in metric._star.frame.generators for image in images) == 2 * n


@pytest.mark.parametrize("n,expect_match", [(1, False), (2, False), (3, False), (4, True)])
def test_volume_coefficient_report(n, expect_match):
    # the i^n-free prefactor variant only agrees when i^n = 1
    report = volume_coefficient_report(HermitianMetric.identity(n))
    assert report.match is expect_match
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    assert report.wedge_power_coefficient == gaussian(0, 1) ** n * sign


def test_inverse_is_exact():
    metric = HermitianMetric([["2", "1+i"], ["1-i", "3"]])
    product = [
        [
            sum((metric.entries[i][k] * metric.inverse[k][j] for k in range(2)), gaussian(0))
            for j in range(2)
        ]
        for i in range(2)
    ]
    assert product == [[gaussian(1), gaussian(0)], [gaussian(0), gaussian(1)]]


def test_load_metric(tmp_path):
    path = tmp_path / "metric.json"
    path.write_text(json.dumps({"n": 2, "entries": [["2", "1/2+i"], ["1/2-i", "1"]]}))
    metric = load_metric(str(path))
    assert metric.n == 2
    assert metric.entries[0][1] == gaussian(Fraction(1, 2), 1)


def test_load_metric_rejects_non_hermitian(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "entries": [["1", "i"], ["i", "1"]]}))
    with pytest.raises(ValueError) as err:
        load_metric(str(path))
    assert "not Hermitian" in str(err.value)


def test_load_metric_rejects_wrong_n(tmp_path):
    path = tmp_path / "bad_n.json"
    path.write_text(json.dumps({"n": 3, "entries": [[1, 0], [0, 1]]}))
    with pytest.raises(ValueError):
        load_metric(str(path))


def _random_hermitian(rng, n):
    """Small integer Gaussian entries, so that zero leading minors, singular
    and indefinite matrices all turn up."""
    rows = [[None] * n for _ in range(n)]
    for a in range(n):
        rows[a][a] = gaussian(rng.randint(-1, 2))
        for b in range(a + 1, n):
            rows[a][b] = gaussian(rng.randint(-1, 1), rng.randint(-1, 1))
            rows[b][a] = rows[a][b].conjugate()
    return rows


def _random_low_rank(rng, n):
    """P*P for a (n-1) x n Gaussian P: Hermitian, positive semidefinite, singular."""
    P = [[gaussian(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)] for _ in range(n - 1)]
    return [[sum((P[k][a].conjugate() * P[k][b] for k in range(n - 1)), gaussian(0)) for b in range(n)] for a in range(n)]


def test_one_elimination_matches_leibniz_minors():
    rng = random.Random(9)
    seen = {"positive definite": 0, "indefinite": 0, "singular": 0, "zero minor, invertible": 0}
    for n in range(1, 6):
        for _ in range(30):
            for rows in (
                [list(row) for row in random_dense_metric(rng, n).entries],
                _random_hermitian(rng, n),
                _random_low_rank(rng, n) if n > 1 else [[gaussian(0)]],
            ):
                minors = [brute_determinant([row[:k] for row in rows[:k]]) for k in range(1, n + 1)]
                first_zero = next((k for k, m in enumerate(minors, 1) if m.is_zero()), n)
                positive = all(m.im == 0 and m.re > 0 for m in minors)
                report = validate_matrix(rows)
                assert report.determinant == minors[-1]
                assert report.leading_minors == tuple(minors[:first_zero])
                assert report.is_positive_definite is positive
                if minors[-1].is_zero():
                    seen["singular"] += 1
                    with pytest.raises(ValueError, match="metric matrix is singular"):
                        HermitianMetric(rows)
                    continue
                seen["positive definite" if positive else "indefinite"] += 1
                seen["zero minor, invertible"] += first_zero < n
                if positive:
                    inverse = HermitianMetric(rows).inverse
                else:
                    bad = next(k for k, m in enumerate(minors, 1) if not m.re > 0)
                    message = f"metric matrix is not positive definite: leading minor {bad} is {minors[bad - 1]}"
                    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                        HermitianMetric(rows)
                    inverse = pqforms.metric._gauss_jordan(coerce_matrix(rows))[1]
                product = [
                    [sum((rows[i][k] * inverse[k][j] for k in range(n)), gaussian(0)) for j in range(n)]
                    for i in range(n)
                ]
                assert product == [[gaussian(1 if i == j else 0) for j in range(n)] for i in range(n)]
    assert all(count >= 20 for count in seen.values()), seen


@pytest.mark.parametrize("build", [HermitianMetric, validate_matrix])
def test_metric_build_and_validation_run_one_elimination(monkeypatch, build):
    calls = []
    original = pqforms.metric._gauss_jordan

    def counted(matrix):
        calls.append(matrix)
        return original(matrix)

    monkeypatch.setattr(pqforms.metric, "_gauss_jordan", counted)
    build([[2, "1+i", 0], ["1-i", 3, "1/2"], [0, "1/2", 1]])
    assert len(calls) == 1


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda path: coerce_matrix([]), "matrix must be non-empty"),
        (lambda path: coerce_matrix([[1, 0], [0]]), "matrix rows have unequal lengths"),
        (lambda path: load_metric(path), "{path}: metric file must be an object with an 'entries' field"),
    ],
)
def test_input_checks(tmp_path, build, message):
    path = tmp_path / "metric.json"
    path.write_text(json.dumps([[1, 0], [0, 1]]))
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(path=path))}$"):
        build(path)


def test_metric_equality_and_repr():
    metric = HermitianMetric([[2, "i"], ["-i", 1]])
    assert metric == HermitianMetric([["2", "i"], ["-i", "1"]])
    assert metric != HermitianMetric.identity(2) and metric.__eq__(1) is NotImplemented
    assert repr(metric) == "HermitianMetric[2, i; -i, 1]"
