import json
from fractions import Fraction

import pytest

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


def test_raising_images_are_built_once_per_metric():
    # built on the first raise only, then the same images serve every raise
    metric = HermitianMetric([[2, "1+i", 0], ["1-i", 3, "1/2"], [0, "1/2", 1]])
    assert metric._raising is None
    volume_form(metric)
    assert metric._raising is None
    raise_indices(Form.term(3, (1,), (2,), 1), metric)
    frame = metric._raising
    assert frame.unit == Form.from_scalar(3, 1) and len(frame.images) == 6
    raise_indices(Form.term(3, (1, 3), (), 1), metric)
    raise_indices(Form.term(3, (), (1, 2, 3), 1), metric)
    assert metric._raising is frame
    assert HermitianMetric(metric.entries)._raising is None


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
