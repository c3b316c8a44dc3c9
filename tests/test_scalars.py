from fractions import Fraction

import pytest
from hypothesis import given

from helpers import nonzero_scalars, scalars
from pqforms import GaussianRational, gaussian, parse_scalar


def test_product():
    assert gaussian(1, 2) * gaussian(3, -1) == gaussian(5, 5)


def test_additive_identity():
    value = gaussian(Fraction(-7, 3), Fraction(2, 5))
    assert value + gaussian(0) == value


def test_self_division():
    value = gaussian(1, 1)
    assert value / value == gaussian(1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        gaussian(1) / gaussian(0)


def test_conjugate_and_power():
    assert gaussian(0, 1) ** 2 == gaussian(-1)
    assert gaussian(2, -3).conjugate() == gaussian(2, 3)
    assert gaussian(0, 1) ** -1 == gaussian(0, -1)


@given(scalars(), scalars(), scalars())
def test_field_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@given(nonzero_scalars(), nonzero_scalars())
def test_division_inverts_multiplication(a, b):
    assert (a * b) / b == a


@given(scalars(), scalars())
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


@given(scalars())
def test_parse_round_trip(a):
    assert parse_scalar(str(a)) == a


@pytest.mark.parametrize(
    "text,expected",
    [
        ("3", gaussian(3)),
        ("-1/2", gaussian(Fraction(-1, 2))),
        ("i", gaussian(0, 1)),
        ("-i", gaussian(0, -1)),
        ("2i", gaussian(0, 2)),
        ("2*i", gaussian(0, 2)),
        ("3/4 i", gaussian(0, Fraction(3, 4))),
        ("1/2+3/4i", gaussian(Fraction(1, 2), Fraction(3, 4))),
        ("1 - 2 i", gaussian(1, -2)),
    ],
)
def test_parse_scalar_literals(text, expected):
    assert parse_scalar(text) == expected


@pytest.mark.parametrize("text", ["", "x", "1+", "2**", "i i"])
def test_parse_scalar_rejects_garbage(text):
    with pytest.raises(ValueError):
        parse_scalar(text)


def test_equality_with_int_and_fraction():
    assert GaussianRational(1) == 1
    assert 1 == GaussianRational(1)
    assert gaussian(Fraction(1, 2)) == Fraction(1, 2)
    assert gaussian(1, 1) != 1
    assert gaussian(2) != 1


@given(scalars())
def test_hash_agrees_with_equality(a):
    if a.im == 0:
        assert a == a.re
        assert hash(a) == hash(a.re)
    assert hash(a) == hash(gaussian(a.re, a.im))
