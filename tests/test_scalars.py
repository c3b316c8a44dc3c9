import operator
import re
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import FractionPair, fraction_pairs, nonzero_scalars, scalars
from pqforms import GaussianRational, gaussian, parse_scalar
from pqforms.scalars import _format_factor, _reduced, format_scalar


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


@pytest.mark.parametrize("text", ["1/0", "2+1/0i"])
def test_parse_scalar_rejects_a_zero_denominator(text):
    with pytest.raises(ValueError, match=f"^invalid scalar literal '{re.escape(text)}': zero denominator$"):
        parse_scalar(text)


@pytest.mark.parametrize(
    "text, reason",
    [("1" * 38 + "/0", ": zero denominator"), ("1" * 39 + "/0", ": zero denominator"), ("x" * 5000, " (at offset 0)")],
    ids=["40-chars", "41-chars", "5000-chars"],
)
def test_parse_scalar_quotes_a_long_literal_by_its_head(text, reason):
    # a literal of at most 40 characters is quoted whole, a longer one by
    # its first 40 characters and its length, so the message stays short
    quoted = repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"
    with pytest.raises(ValueError, match=f"^invalid scalar literal {re.escape(quoted + reason)}$") as caught:
        parse_scalar(text)
    assert len(str(caught.value)) < 120


def test_equality_with_int_and_fraction():
    assert GaussianRational(1) == 1
    assert 1 == GaussianRational(1)
    assert gaussian(Fraction(1, 2)) == Fraction(1, 2)
    assert gaussian(1, 1) != 1
    assert gaussian(2) != 1
    assert gaussian(1) != "1"  # a non-number is left to the other side


@given(scalars())
def test_hash_agrees_with_equality(a):
    if a.im == 0:
        assert a == a.re
        assert hash(a) == hash(a.re)
    assert hash(a) == hash(gaussian(a.re, a.im))


# -- the integer triple against the Fraction-pair model --------------------------


def assert_agrees(value, model):
    """``value`` keeps the triple invariant and equals the model's value."""
    a, b, d = value._a, value._b, value._d
    assert d > 0 and gcd(a, b, d) == 1, (a, b, d)
    assert (value.re, value.im) == model.pair()


@given(fraction_pairs(), fraction_pairs())
def test_arithmetic_matches_fraction_pair_model(x, y):
    a, b = GaussianRational(*x), GaussianRational(*y)
    ma, mb = FractionPair(*x), FractionPair(*y)
    assert_agrees(a, ma)
    for op in (operator.add, operator.sub, operator.mul):
        assert_agrees(op(a, b), op(ma, mb))
    assert_agrees(-a, FractionPair() - ma)
    assert_agrees(a.conjugate(), ma.conjugate())
    if y == (0, 0):
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        assert_agrees(a / b, ma / mb)


@given(fraction_pairs(), st.fractions(min_value=-30, max_value=30, max_denominator=12))
def test_int_and_fraction_operands_match_model(x, r):
    a, ma = GaussianRational(*x), FractionPair(*x)
    for other in (r, r.numerator):
        mo = FractionPair(other)
        assert_agrees(a + other, ma + mo)
        assert_agrees(other + a, mo + ma)
        assert_agrees(a - other, ma - mo)
        assert_agrees(other - a, mo - ma)
        assert_agrees(a * other, ma * mo)
        assert_agrees(other * a, mo * ma)
        if other != 0:
            assert_agrees(a / other, ma / mo)
        if x != (0, 0):
            assert_agrees(other / a, mo / ma)


@given(fraction_pairs(), st.integers(-7, 7))
def test_power_matches_model(x, exponent):
    a, ma = GaussianRational(*x), FractionPair(*x)
    if exponent < 0 and x == (0, 0):
        with pytest.raises(ZeroDivisionError):
            a ** exponent
    else:
        assert_agrees(a ** exponent, ma ** exponent)


@given(fraction_pairs(), fraction_pairs())
def test_equality_and_hash_match_model(x, y):
    a, b = GaussianRational(*x), GaussianRational(*y)
    assert (a == b) == (x == y)
    assert (a != b) == (x != y)
    if x == y:
        assert hash(a) == hash(b)
    re, im = x
    for other in (re, re.numerator):
        assert (a == other) == (other == a) == (im == 0 and re == other)
        if a == other:
            assert hash(a) == hash(other)


def test_power_squares_no_further_than_its_top_bit(monkeypatch):
    """A power's intermediate products never exceed the result in size."""
    sizes = []
    multiply = GaussianRational.__mul__

    def recording(self, other):
        product = multiply(self, other)
        sizes.append(abs(product.re))
        return product

    monkeypatch.setattr(GaussianRational, "__mul__", recording)
    for exponent in range(10):
        sizes.clear()
        assert gaussian(3) ** exponent == 3 ** exponent
        assert all(size <= 3 ** exponent for size in sizes), (exponent, sizes)


@pytest.mark.parametrize(
    "args,text_repr,text_str",
    [
        ((), "GaussianRational(0, 0)", "0"),
        ((3,), "GaussianRational(3, 0)", "3"),
        ((Fraction(-1, 2),), "GaussianRational(-1/2, 0)", "-1/2"),
        ((0, 1), "GaussianRational(0, 1)", "i"),
        ((0, -1), "GaussianRational(0, -1)", "-i"),
        ((0, 2), "GaussianRational(0, 2)", "2*i"),
        ((1, -2), "GaussianRational(1, -2)", "1-2*i"),
        ((Fraction(1, 2), Fraction(3, 4)), "GaussianRational(1/2, 3/4)", "1/2+3/4*i"),
        ((Fraction(-2, 6), Fraction(4, 6)), "GaussianRational(-1/3, 2/3)", "-1/3+2/3*i"),
        ((Fraction(5, 3), -1), "GaussianRational(5/3, -1)", "5/3-i"),
        ((-7, Fraction(-1, 3)), "GaussianRational(-7, -1/3)", "-7-1/3*i"),
        ((Fraction("3/6"), Fraction(0.25)), "GaussianRational(1/2, 1/4)", "1/2+1/4*i"),
        ((Fraction(Decimal("1.5")), Fraction("-2/4")), "GaussianRational(3/2, -1/2)", "3/2-1/2*i"),
        ((True, False), "GaussianRational(1, 0)", "1"),
    ],
)
def test_repr_and_str_table(args, text_repr, text_str):
    value = GaussianRational(*args)
    assert repr(value) == text_repr
    assert str(value) == text_str


def _fraction_format(value):
    """The scalar formatter as it was, on the ``Fraction`` parts."""

    def imaginary(b):
        return "i" if b == 1 else "-i" if b == -1 else f"{b}*i"

    a, b = value.re, value.im
    if b == 0:
        return str(a)
    if a == 0:
        return imaginary(b)
    return f"{a}{'+' if b > 0 else '-'}{imaginary(abs(b))}"


_PART = st.one_of(st.integers(-40, 40), st.integers(-(10**30), 10**30))


@given(_PART, _PART, st.one_of(st.integers(1, 40), st.integers(1, 10**30)))
def test_format_scalar_matches_the_fraction_formatter(a, b, d):
    value = _reduced(a, b, d)
    text = _fraction_format(value)
    assert format_scalar(value) == str(value) == text
    assert _format_factor(value) == (f"({text})" if value.re != 0 and value.im != 0 else text)


@pytest.mark.parametrize("bad,error", [("x", TypeError), (None, TypeError), (1j, TypeError)])
def test_constructor_rejects_what_fraction_rejects(bad, error):
    with pytest.raises(error):
        GaussianRational(bad)


@pytest.mark.parametrize("bad", [0.1, 0.5, "1e5", "3/6", Decimal("1.5")])
def test_constructor_takes_only_ints_and_fractions(bad):
    # a float, a string or a Decimal is refused in either part, as
    # GaussianRational.coerce refuses it; Fraction would have read it
    message = f"^cannot interpret {re.escape(repr(bad))} as a Gaussian rational$"
    for args in ((bad,), (0, bad), (bad, Fraction(1, 3))):
        with pytest.raises(TypeError, match=message):
            GaussianRational(*args)
        with pytest.raises(TypeError, match=message):
            gaussian(*args)


@pytest.mark.parametrize("name", ["re", "im"])
def test_parts_are_read_only(name):
    value = gaussian(1, 2)
    with pytest.raises(AttributeError):
        setattr(value, name, Fraction(3))
    assert value == gaussian(1, 2)
