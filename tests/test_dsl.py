import io
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_form, random_poly
from pqforms import Form, ParseError, WirtingerPolynomial, format_poly, gaussian, pretty_print
from pqforms.cli import main
from pqforms.dsl import MAX_NESTING, MAX_WORK, _Parser, parse_form, parse_poly


def test_parse_plain_wedge():
    assert parse_form("dz1^dz2", 2) == Form.term(2, (1, 2), (), 1)


def test_parse_coefficient_form():
    n = 4
    expected_coeff = (
        WirtingerPolynomial.z(n, 1) * WirtingerPolynomial.zb(n, 4)
        + WirtingerPolynomial.constant(n, 3)
    )
    parsed = parse_form("(z1*zb4+3)*dz1^dz2^dzb3^dzb4", n)
    assert parsed == Form.term(n, (1, 2), (3, 4), expected_coeff)


def test_parse_canonicalizes_factor_order():
    assert parse_form("dzb1^dz1", 1) == Form.term(1, (1,), (1,), -1)


def test_parse_scalar_form():
    assert parse_form("1/2", 1) == Form.from_scalar(1, Fraction(1, 2))
    assert parse_form("i", 1) == Form.from_scalar(1, gaussian(0, 1))


def test_parse_mixed_sum():
    n = 2
    parsed = parse_form("dz1 - 2*dz2 + (z1+3)*dzb1", n)
    expected = (
        Form.term(n, (1,), (), 1)
        + Form.term(n, (2,), (), -2)
        + Form.term(n, (), (1,), WirtingerPolynomial.z(n, 1) + WirtingerPolynomial.constant(n, 3))
    )
    assert parsed == expected


def test_parse_nested_form_factor():
    n = 3
    parsed = parse_form("(dz1+dz2)^dzb3", n)
    assert parsed == Form.term(n, (1,), (3,), 1) + Form.term(n, (2,), (3,), 1)


def test_parse_leading_minus():
    assert parse_form("-dz1", 1) == Form.term(1, (1,), (), -1)
    assert parse_form("-i*dzb1", 1) == Form.term(1, (), (1,), gaussian(0, -1))


def test_parse_power_in_coefficient():
    n = 1
    parsed = parse_form("z1**2*dzb1", n)
    assert parsed == Form.term(n, (), (1,), WirtingerPolynomial.z(n, 1) ** 2)


def test_parse_reports_position():
    with pytest.raises(ParseError) as err:
        parse_form("dz1^", 2)
    assert err.value.column == 5
    with pytest.raises(ParseError) as err:
        parse_form("dz1 + + dz2", 2)
    assert err.value.column == 7


@pytest.mark.parametrize("text, line, column", [("dz1 +\n  + dz2", 2, 3), ("dz1\n^\n  dz9", 3, 3)])
def test_parse_reports_position_on_later_lines(text, line, column):
    with pytest.raises(ParseError) as err:
        parse_form(text, 2)
    assert (err.value.line, err.value.column) == (line, column)


def test_parse_rejects_a_nonpositive_dimension():
    with pytest.raises(ValueError, match="^ambient dimension must be positive, got 0$"):
        parse_form("dz1", 0)


def test_parse_range_error():
    with pytest.raises(ParseError) as err:
        parse_form("dz3", 2)
    assert "out of range" in str(err.value)
    with pytest.raises(ParseError):
        parse_form("z5*dz1", 2)
    with pytest.raises(ParseError):
        parse_form("dz0", 2)


def test_parse_rejects_empty_and_trailing():
    with pytest.raises(ParseError):
        parse_form("  ", 2)
    with pytest.raises(ParseError):
        parse_form("dz1 dz2", 2)


# How a parenthesized group is read: as a coefficient when it holds a
# polynomial, as a wedge factor when it holds a form or is the lone factor
# right before "^".  Each case is (text, expected form at n = 2 or None
# for a ParseError).
_Z1 = WirtingerPolynomial.z(2, 1)
EDGE_CASES = [
    ("(z1)^dz1", Form.term(2, (1,), (), _Z1)),
    ("dz1^(z1)", Form.term(2, (1,), (), _Z1)),
    ("2*(dz1+dz2)", Form.term(2, (1,), (), 2) + Form.term(2, (2,), (), 2)),
    ("(1+dz1)", Form.from_scalar(2, 1) + Form.term(2, (1,), (), 1)),
    ("2*3*dz1", Form.term(2, (1,), (), 6)),
    ("-(z1+1)*dz1", Form.term(2, (1,), (), -_Z1 - 1)),
    ("-(-dz1)", Form.term(2, (1,), (), 1)),
    ("((z1))**2", Form.from_scalar(2, _Z1 ** 2)),
    ("(1)^(2)", Form.from_scalar(2, 2)),
    # a run of differentials is closed before a form group joins it
    ("dz1^(dz2+dzb1)", Form.term(2, (1,), (1,), 1) + Form.term(2, (1, 2), (), 1)),
    ("dzb1^(dz1)^dz2", Form.term(2, (1, 2), (1,), 1)),
    ("z1^dz1", None),
    ("2*(z1)^dz1", None),
    ("(dz1)*(z1)", None),
    ("((1)^(2))*dz1", None),
    ("(dz1^dz1)*dz2", None),
    ("dz1*2", None),
    ("(z1)**2^dz1", None),
]


@pytest.mark.parametrize("text, expected", EDGE_CASES, ids=[text for text, _ in EDGE_CASES])
def test_parse_edge_cases(text, expected):
    if expected is None:
        with pytest.raises(ParseError):
            parse_form(text, 2)
    else:
        assert parse_form(text, 2) == expected


def test_nesting_bound():
    assert MAX_NESTING == 100
    nested = "(" * MAX_NESTING + "dz1" + ")" * MAX_NESTING
    assert parse_form(nested, 1) == Form.term(1, (1,), (), 1)
    with pytest.raises(ParseError) as err:
        parse_form("(" + nested + ")", 1)
    assert err.value.column == MAX_NESTING + 1
    with pytest.raises(ParseError):
        parse_poly("(" * (MAX_NESTING + 1) + "1" + ")" * (MAX_NESTING + 1), 1)


def _budget_error(text, n, operator_column):
    with pytest.raises(ParseError, match=f"budget of {MAX_WORK}") as err:
        parse_form(text, n)
    assert (err.value.line, err.value.column) == (1, operator_column)


def test_work_budget_boundary():
    # (z1+zb1)**304 is the highest power of a binomial within the budget
    assert MAX_WORK == 500_000
    power = parse_poly("(z1+zb1)**304", 1)
    assert len(power.terms) == 305
    assert power.terms[(152, 152)] == gaussian(comb(304, 152))
    _budget_error("(z1+zb1)**305", 1, 9)
    # the budget is one per parse, so a second power that alone would pass does not
    _budget_error("(z1+zb1)**304+(z1+zb1)**304", 1, 23)


def test_power_budget_charges_each_product_of_the_power(monkeypatch):
    # one charge for the first factor and one for each product __pow__ makes, all before it makes any
    events = []
    charge, multiply = _Parser.charge, WirtingerPolynomial.__mul__
    monkeypatch.setattr(_Parser, "charge", lambda self, *args: events.append("charge") or charge(self, *args))
    monkeypatch.setattr(WirtingerPolynomial, "__mul__", lambda *args: events.append("mul") or multiply(*args))
    for exponent in range(1, 41):
        events.clear()
        parse_poly(f"(z1+zb1)**{exponent}", 1)
        products = events.count("mul")
        assert products == exponent.bit_length() + bin(exponent).count("1") - 2
        assert events == ["charge"] * (products + 1) + ["mul"] * products, exponent


def test_work_budget_charges_products_and_wedges():
    # each power here is cheap; the product of the two 792-term results is not
    zs, zbs = "+".join(f"z{k}" for k in range(1, 9)), "+".join(f"zb{k}" for k in range(1, 9))
    product = f"({zs})**5*({zbs})**5"
    _budget_error(product, 8, product.index("*(") + 1)
    wedge = f"(({zs})**5*dz1)^(({zbs})**5*dz2)"
    _budget_error(wedge, 8, wedge.index("^") + 1)
    coefficient = f"dz1^(({zs})**5)^(({zbs})**5)"
    _budget_error(coefficient, 8, coefficient.rindex("^") + 1)
    assert parse_form(f"({zs})**2*({zbs})**2*dz1^dz2", 8) == parse_form(f"(({zs})**2)^(({zbs})**2)^dz1^dz2", 8)


_SOUP_TOKENS = [
    "dz1", "dz2", "dzb1", "dzb2", "dz3", "z1", "zb2", "z3", "i", "0", "1", "2", "3", "1/2", "2/0",
    "**", "*", "+", "-", "/", "^", "(", ")", "x",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_SOUP_TOKENS), max_size=14))
def test_token_soup_exits_0_or_2(tokens):
    # Joined by spaces, integer tokens never merge, so every exponent after
    # "**" is in 0..3: an unbounded power is a separate budget question.
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(["d", "--n", "2", " ".join(tokens)]) in (0, 2)


def test_polynomial_sums_parse_without_polynomial_adds(monkeypatch):
    calls = []
    add = WirtingerPolynomial.__add__

    def counted(self, other):
        calls.append(other)
        return add(self, other)

    monkeypatch.setattr(WirtingerPolynomial, "__add__", counted)
    text = "+".join(f"z1**{k}" for k in range(1, 200)) + "-z1"
    summed = parse_poly(text, 1)
    form = parse_form(f"({text})*dz1+(z1-zb1)*dz1", 1)
    assert calls == []
    monkeypatch.undo()
    assert summed == WirtingerPolynomial(1, {(k, 0): 1 for k in range(2, 200)})
    assert form == Form.term(1, (1,), (), summed + WirtingerPolynomial.z(1, 1) - WirtingerPolynomial.zb(1, 1))


def test_parse_poly():
    n = 4
    poly = parse_poly("z1*zb4+3", n)
    assert poly == WirtingerPolynomial.z(n, 1) * WirtingerPolynomial.zb(n, 4) + WirtingerPolynomial.constant(n, 3)
    assert parse_poly("-1/2*i", 1) == WirtingerPolynomial.constant(1, gaussian(0, Fraction(-1, 2)))
    with pytest.raises(ParseError):
        parse_poly("dz1", 2)


def test_pretty_print_zero():
    assert pretty_print(Form.zero(3)) == "0"


def test_pretty_print_conjugated_term():
    form = Form.term(2, (1,), (2,), gaussian(0, 1)).conjugate()
    assert pretty_print(form) == "i*dz2^dzb1"


def test_pretty_print_sorts_terms():
    n = 2
    form = Form.term(n, (1, 2), (), 1) + Form.term(n, (1,), (), 1) + Form.from_scalar(n, 5)
    assert pretty_print(form) == "5+dz1+dz1^dz2"


def test_pretty_print_negative_and_complex_coefficients():
    n = 2
    form = Form.term(n, (1,), (), -1) + Form.term(n, (2,), (), gaussian(1, 1))
    text = pretty_print(form)
    assert text == "-dz1+(1+i)*dz2"
    assert parse_form(text, n) == form


def test_round_trip_on_random_forms():
    rng = random.Random(101)
    for _ in range(100):
        n = rng.randint(1, 4)
        form = random_form(rng, n)
        assert parse_form(pretty_print(form), n) == form


def test_poly_format_round_trip():
    rng = random.Random(103)
    for _ in range(100):
        n = rng.randint(1, 4)
        poly = random_poly(rng, n)
        assert parse_poly(format_poly(poly), n) == poly


def test_print_is_deterministic():
    rng = random.Random(107)
    for _ in range(20):
        form = random_form(rng, 3)
        once = pretty_print(form)
        # rebuild the same form through a shuffled term order
        items = list(form.terms.items())
        rng.shuffle(items)
        rebuilt = Form(form.n, dict(items))
        assert pretty_print(rebuilt) == once
