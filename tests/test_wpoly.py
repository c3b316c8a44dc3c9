import re
from fractions import Fraction

import pytest
from hypothesis import given, settings

from helpers import polys, scalars
from pqforms import GaussianRational, WirtingerPolynomial, gaussian
from pqforms.wpoly import Z, ZBAR


def z(n, k):
    return WirtingerPolynomial.z(n, k)


def zb(n, k):
    return WirtingerPolynomial.zb(n, k)


def test_square_of_variable():
    assert z(2, 1) * z(2, 1) == z(2, 1) ** 2


def test_additive_inverse_cancels():
    p = z(3, 1) * zb(3, 2) + WirtingerPolynomial.constant(3, gaussian(2, -1))
    assert (p + p.scale(-1)).terms == {}


def test_difference_of_squares():
    n = 2
    assert (z(n, 1) + zb(n, 2)) * (z(n, 1) - zb(n, 2)) == z(n, 1) ** 2 - zb(n, 2) ** 2


def test_equal_polynomials_from_different_op_orders_hash_equal():
    n = 2
    a, b = z(n, 1), zb(n, 2)
    built = [(a + b) * (a - b), a**2 - b**2, (b + a) * (a - b) + a * b - b * a, -(b**2) + a**2]
    assert all(p == built[0] for p in built)
    assert len({hash(p) for p in built}) == 1
    assert len(set(built)) == 1


def test_reflected_difference():
    p = z(2, 1) * zb(2, 2) + gaussian(0, 1)
    assert 3 - p == -(p - 3)


def test_total_degree_of_zero_is_zero():
    assert WirtingerPolynomial.zero(2).total_degree() == 0
    assert (z(2, 1) ** 2 * zb(2, 2)).total_degree() == 3


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        z(2, 1) + z(3, 1)


def test_conjugate_of_imaginary_multiple():
    assert (z(1, 1).scale(gaussian(0, 1))).conjugate() == zb(1, 1).scale(gaussian(0, -1))


def test_conjugate_swaps_blocks():
    n = 4
    p = z(n, 1) * zb(n, 4) + WirtingerPolynomial.constant(n, 3)
    assert p.conjugate() == zb(n, 1) * z(n, 4) + WirtingerPolynomial.constant(n, 3)


def test_derivative_power_rule():
    n = 2
    p = z(n, 1) ** 2 * zb(n, 2)
    assert p.derivative(Z, 1) == (z(n, 1) * zb(n, 2)).scale(2)


def test_derivative_independence():
    # zb1 is not a function of z1: the formal variables are independent
    assert z(1, 1).derivative(ZBAR, 1).is_zero()
    assert zb(1, 1).derivative(Z, 1).is_zero()


def test_derivative_of_constant():
    assert WirtingerPolynomial.constant(2, 5).derivative(Z, 1).is_zero()


def test_derivative_index_out_of_range():
    with pytest.raises(ValueError):
        z(2, 1).derivative(Z, 3)


@given(polys(n=3), polys(n=3))
def test_conjugation_is_multiplicative(p, q):
    assert (p * q).conjugate() == p.conjugate() * q.conjugate()


@given(polys(n=3))
def test_conjugation_is_involution(p):
    assert p.conjugate().conjugate() == p


@given(polys(n=2))
def test_mixed_partials_commute(p):
    for kind_a, index_a in ((Z, 1), (ZBAR, 2)):
        for kind_b, index_b in ((Z, 2), (ZBAR, 1)):
            once = p.derivative(kind_a, index_a).derivative(kind_b, index_b)
            swapped = p.derivative(kind_b, index_b).derivative(kind_a, index_a)
            assert once == swapped


@settings(max_examples=60)
@given(polys(n=4, max_terms=5), polys(n=4, max_terms=5))
def test_leibniz_rule(p, q):
    for kind, index in ((Z, 1), (ZBAR, 3)):
        product_rule = p.derivative(kind, index) * q + p * q.derivative(kind, index)
        assert (p * q).derivative(kind, index) == product_rule


@given(polys())
def test_canonical_form_drops_zeros(p):
    assert all(not c.is_zero() for c in p.terms.values())
    assert (p - p).terms == {}


def test_substitute_linear_change():
    n = 2
    p = z(n, 1) ** 2
    image = p.substitute({(Z, 1): z(n, 1) + z(n, 2)})
    assert image == z(n, 1) ** 2 + (z(n, 1) * z(n, 2)).scale(2) + z(n, 2) ** 2


def test_power_builds_no_product_above_its_degree(monkeypatch):
    p = z(1, 1) + zb(1, 1)
    degrees = []
    multiply = WirtingerPolynomial.__mul__

    def recording(self, other):
        product = multiply(self, other)
        degrees.append(product.total_degree())
        return product

    monkeypatch.setattr(WirtingerPolynomial, "__mul__", recording)
    for exponent in range(10):
        degrees.clear()
        assert (p ** exponent).total_degree() == exponent
        assert max(degrees, default=0) <= exponent, (exponent, degrees)


def test_power_starts_from_the_base(monkeypatch):
    p = z(2, 1).scale(gaussian(1, 2)) + zb(2, 2)
    calls = []
    multiply = WirtingerPolynomial.__mul__

    def counted(self, other):
        calls.append(other)
        return multiply(self, other)

    monkeypatch.setattr(WirtingerPolynomial, "__mul__", counted)
    assert p ** 1 == p and calls == []
    assert p ** 0 == WirtingerPolynomial.one(2) and calls == []
    assert p ** 2 == multiply(p, p) and len(calls) == 1


@pytest.mark.parametrize("exponent", range(10))
def test_power_equals_repeated_multiplication(exponent):
    n = 2
    p = z(n, 1).scale(gaussian(1, 2)) + zb(n, 2).scale(Fraction(-1, 3)) + WirtingerPolynomial.constant(n, gaussian(0, 1))
    expected = WirtingerPolynomial.one(n)
    for _ in range(exponent):
        expected = expected * p
    assert p ** exponent == expected


def assert_canonical(p, n):
    """What the public constructor would enforce, and no zero coefficient."""
    assert p.n == n
    for exponents, coeff in p.terms.items():
        assert type(exponents) is tuple and len(exponents) == 2 * n
        assert all(type(e) is int and e >= 0 for e in exponents)
        assert type(coeff) is GaussianRational and not coeff.is_zero()


@settings(max_examples=60)
@given(polys(n=2), polys(n=2), polys(n=2), scalars())
def test_internal_ops_keep_terms_canonical(p, q, r, c):
    n = 2
    results = [
        p + q, p - q, p * q, -p, p - p, p.scale(c), p.scale(0), p.conjugate(), p ** 2, p ** 0,
        p.derivative(Z, 1), p.derivative(ZBAR, 2),
        p.substitute({(Z, 1): q, (ZBAR, 2): r}), p.substitute({(ZBAR, 1): q - q}),
    ]
    for result in results:
        assert_canonical(result, n)


@pytest.mark.parametrize(
    "terms,error",
    [
        ({(1, 0, 0): 1}, ValueError),  # length 3, expected 4
        ({(1, -1, 0, 0): 1}, ValueError),  # negative exponent
        ({(1, 0, 0, 0): "1"}, TypeError),  # not a scalar
        ({(1, 0, 0, 0): 0.5}, TypeError),
    ],
)
def test_public_constructor_rejects(terms, error):
    with pytest.raises(error):
        WirtingerPolynomial(2, terms)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: WirtingerPolynomial(0), "ambient dimension must be positive, got 0"),
        (lambda: WirtingerPolynomial.variable(2, "w", 1), "variable kind must be one of ('z', 'zb'), got 'w'"),
        (lambda: z(2, 1) ** -1, "polynomial powers must be non-negative"),
        (lambda: z(2, 1).constant_value(), "polynomial is not constant"),
    ],
)
def test_input_checks(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_polynomial_repr_zero_and_nonzero():
    n = 2
    p = WirtingerPolynomial.z(n, 1) * WirtingerPolynomial.zb(n, 2).scale(gaussian(0, 1)) + WirtingerPolynomial.constant(n, -1)
    # monomials by descending exponent vector, each coefficient in parentheses
    assert repr(p) == "<poly (i)*z1*zb2 + (-1)>"
    assert repr(WirtingerPolynomial.zero(n)) == "<poly 0>"
