import random

import pytest

from helpers import random_form, random_poly
from pqforms import (
    Form,
    HermitianMetric,
    LITERAL_CONVENTION,
    WirtingerPolynomial,
    codifferential,
    dolbeault_del,
    dolbeault_delbar,
    exterior_d,
    gaussian,
    harmonic_check,
    laplacian,
)


def admissible_block_coeff(rng, n=4):
    """Random polynomial in z1, z2, zb3, zb4 only."""
    poly = WirtingerPolynomial.zero(n)
    slots = [0, 1, n + 2, n + 3]
    for _ in range(rng.randint(1, 3)):
        exponents = [0] * (2 * n)
        for _ in range(rng.randint(0, 2)):
            exponents[rng.choice(slots)] += 1
        poly = poly + WirtingerPolynomial(n, {tuple(exponents): gaussian(rng.randint(-3, 3), rng.randint(-3, 3))})
    return poly


def test_d_of_linear_coefficient():
    n = 2
    form = Form.term(n, (2,), (), WirtingerPolynomial.z(n, 1))
    assert exterior_d(form) == Form.term(n, (1, 2), (), 1)


def test_d_differentiates_only_by_the_variables_that_occur(monkeypatch):
    # z1*zb2*dz1 at n = 40: one zb2 partial in the delbar half, not one call
    # per variable of each kind; the z1 partial is not taken, since
    # dz1 ^ dz1 = 0 would discard it
    n = 40
    c = WirtingerPolynomial.z(n, 1) * WirtingerPolynomial.zb(n, 2) + WirtingerPolynomial.z(n, 1) ** 2
    form = Form.term(n, (1,), (), c)
    calls = []
    derivative = WirtingerPolynomial.derivative

    def counted(self, kind, index):
        calls.append((kind, index))
        return derivative(self, kind, index)

    monkeypatch.setattr(WirtingerPolynomial, "derivative", counted)
    result = exterior_d(form)
    assert sorted(calls) == [("zb", 2)]
    monkeypatch.undo()
    assert result == Form.term(n, (1,), (2,), -WirtingerPolynomial.z(n, 1))


def test_d_kills_holomorphic_block_form():
    n = 4
    rng = random.Random(5)
    for _ in range(5):
        f = admissible_block_coeff(rng, n)
        psi = Form.term(n, (1, 2), (3, 4), f)
        assert exterior_d(psi).is_zero()


def test_d_squared_is_zero():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(1, 4)
        assert exterior_d(exterior_d(random_form(rng, n))).is_zero()


def test_dolbeault_split():
    n = 2
    form = Form.term(n, (2,), (), WirtingerPolynomial.zb(n, 1))
    assert dolbeault_del(form).is_zero()
    assert dolbeault_delbar(form) == -Form.term(n, (2,), (1,), 1)


def test_d_is_del_plus_delbar():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(1, 4)
        a = random_form(rng, n)
        assert exterior_d(a) == dolbeault_del(a) + dolbeault_delbar(a)


def test_dolbeault_anticommutation():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(1, 3)
        a = random_form(rng, n)
        assert (dolbeault_del(dolbeault_delbar(a)) + dolbeault_delbar(dolbeault_del(a))).is_zero()


def test_codifferential_of_constant_pair():
    n = 1
    metric = HermitianMetric.identity(n)
    form = Form.term(n, (1,), (1,), gaussian(5, -2))
    assert codifferential(form, metric).is_zero()


def test_codifferential_kills_holomorphic_block_form():
    n = 4
    metric = HermitianMetric.identity(n)
    rng = random.Random(41)
    for _ in range(5):
        f = admissible_block_coeff(rng, n)
        psi = Form.term(n, (1, 2), (3, 4), f)
        assert codifferential(psi, metric).is_zero()


def test_codifferential_squared_is_zero():
    rng = random.Random(43)
    for _ in range(15):
        n = rng.randint(1, 3)
        metric = HermitianMetric.identity(n)
        k = rng.randint(0, 2 * n)
        a = random_form(rng, n, total_degree=k, max_degree=1)
        assert codifferential(codifferential(a, metric), metric).is_zero()


def test_codifferential_rejects_mixed_total_degree():
    n = 2
    metric = HermitianMetric.identity(n)
    mixed = Form.term(n, (1,), (), 1) + Form.term(n, (1,), (1,), 1)
    with pytest.raises(ValueError):
        codifferential(mixed, metric)


def test_laplacian_of_constant():
    for n in (1, 2, 3):
        metric = HermitianMetric.identity(n)
        assert laplacian(Form.from_scalar(n, 7), metric).is_zero()


def test_laplacian_of_holomorphic_block_form():
    n = 4
    metric = HermitianMetric.identity(n)
    f = WirtingerPolynomial.z(n, 1) * WirtingerPolynomial.zb(n, 4) + WirtingerPolynomial.constant(n, 3)
    psi = Form.term(n, (1, 2), (3, 4), f)
    assert laplacian(psi, metric).is_zero()


def test_laplacian_of_radius_squared():
    # hand expansion: delta(d(z1*zb1)) = -2 with this star normalization
    n = 1
    metric = HermitianMetric.identity(n)
    f = Form.from_scalar(n, WirtingerPolynomial.z(n, 1) * WirtingerPolynomial.zb(n, 1))
    assert laplacian(f, metric) == Form.from_scalar(n, -2)


def test_laplacian_commutes_with_constants_and_preserves_degree():
    rng = random.Random(47)
    metric = HermitianMetric.identity(2)
    c = gaussian(3, -1)
    for _ in range(10):
        a = random_form(rng, 2, total_degree=2, max_degree=2)
        assert laplacian(a.scale(c), metric) == laplacian(a, metric).scale(c)
        result = laplacian(a, metric)
        assert result.total_degrees() <= {2}


def test_harmonic_check_block_form():
    n = 4
    metric = HermitianMetric.identity(n)
    psi = Form.term(n, (1, 2), (3, 4), 1)
    report = harmonic_check(psi, metric)
    assert report.d_vanishes and report.delta_vanishes and report.harmonic
    assert "no compactness" in report.note


def test_harmonic_check_non_closed_function():
    report = harmonic_check(
        Form.from_scalar(1, WirtingerPolynomial.z(1, 1)), HermitianMetric.identity(1)
    )
    assert not report.d_vanishes
    assert not report.harmonic


def test_harmonic_verdict_implies_zero_laplacian():
    rng = random.Random(53)
    metric = HermitianMetric.identity(2)
    for _ in range(25):
        a = random_form(rng, 2, total_degree=rng.randint(0, 4), max_degree=1)
        report = harmonic_check(a, metric)
        if report.harmonic:
            assert laplacian(a, metric).is_zero()


def test_operators_under_literal_convention_still_square_to_zero():
    rng = random.Random(59)
    metric = HermitianMetric.identity(2)
    for _ in range(10):
        a = random_form(rng, 2, total_degree=2, max_degree=1)
        delta_twice = codifferential(codifferential(a, metric, LITERAL_CONVENTION), metric, LITERAL_CONVENTION)
        assert delta_twice.is_zero()
