"""The parser against the reference parser kept in tests/dsl_reference.py.

Both read the same text at the same dimension, in form and in polynomial
mode, and must agree exactly: the same value, with its terms in the same
order, or the same exception with the same message, line, column and
expected tokens; and, for an accepted input, the same work total charged
against ``MAX_WORK``.  The inputs are forms rendered with parenthesized
scalars, ``**`` and nested groups, the same forms spread over lines with
tabs and ``\\r\\n``, and token soups.
"""

from fractions import Fraction
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

import dsl_reference
from pqforms import dsl


def _shape(value):
    """The value's type and its terms in order, the coefficients' too."""
    if isinstance(value, dsl.Form):
        return type(value), value.n, [(key, list(poly.terms.items())) for key, poly in value.terms.items()]
    return type(value), value.n, list(value.terms.items())


def _outcome(module, src, n, polynomial):
    """What ``module._parse`` makes of the text, and the work its parser charged."""
    parsers = []

    class Recording(module._Parser):
        def __init__(self, *args):
            parsers.append(self)
            super().__init__(*args)

    with patch.object(module, "_Parser", Recording):
        try:
            value = module._parse(src, n, polynomial)
        except Exception as exc:
            fields = [getattr(exc, name, None) for name in ("message", "line", "column", "expected")]
            return (type(exc), str(exc), *fields), None
    return _shape(value), parsers[0].work


def _assert_agree(src, n):
    for polynomial in (False, True):
        new, reference = _outcome(dsl, src, n, polynomial), _outcome(dsl_reference, src, n, polynomial)
        assert new == reference, (src, n, polynomial)


# -- rendered forms, as token lists ------------------------------------------------


# mostly small parts; large ones make the products charge more than one unit each
_NUMERATORS = st.one_of(st.integers(-3, 3), st.integers(-(10**12), 10**12))
_DENOMINATORS = st.one_of(st.integers(1, 3), st.integers(1, 10**12))


@st.composite
def _scalar(draw):
    """A parenthesized scalar, as the benchmark renders one: (re), (im*i) or (re+im*i)."""
    re, im = (Fraction(draw(_NUMERATORS), draw(_DENOMINATORS)) for _ in range(2))
    imag = [*_rational(abs(im)), "*", "i"]
    if im == 0:
        body = _rational(re)
    elif re == 0:
        body = (["-"] if im < 0 else []) + imag
    else:
        body = _rational(re) + ["-" if im < 0 else "+"] + imag
    return ["(", *body, ")"]


def _rational(value):
    sign = ["-"] if value < 0 else []
    value = abs(value)
    return sign + ([str(value)] if value.denominator == 1 else [str(value.numerator), "/", str(value.denominator)])


def _names(n, *kinds):
    return st.sampled_from([f"{kind}{k}" for kind in kinds for k in range(1, n + 1)])


@st.composite
def _monomial(draw, n):
    tokens = draw(_scalar())
    for name in draw(st.lists(_names(n, "z", "zb"), max_size=3)):
        tokens += ["*", name] + (["**", str(draw(st.integers(0, 3)))] if draw(st.booleans()) else [])
    return tokens


@st.composite
def _poly(draw, n):
    monomials = draw(st.lists(_monomial(n), min_size=1, max_size=3))
    tokens = ["("]
    for k, monomial in enumerate(monomials):
        tokens += (["+"] if k else []) + monomial
    return tokens + [")"]


@st.composite
def _form(draw, n, depth=0):
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        factors = []
        for name in draw(st.lists(_names(n, "dz", "dzb"), max_size=3)):
            factors += (["^"] if factors else []) + [name]
        if depth < 2 and draw(st.booleans()):  # a nested form group, wedged in front
            group = ["(", *draw(_form(n, depth + 1)), ")"]
            factors = group + (["^"] + factors if factors else [])
        term = draw(_poly(n))
        terms.append(term + ["*"] + factors if factors else term)
    tokens = []
    for k, term in enumerate(terms):
        tokens += (["+"] if k else []) + term
    return tokens


_SPACES = st.sampled_from(["", " ", "\t", "\n", "\r\n", " \t\r\n  ", "\n\n"])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), _form(n))))
def test_rendered_forms_parse_as_the_reference_parses_them(case):
    n, tokens = case
    _assert_agree("".join(tokens), n)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), _form(n))), st.data())
def test_forms_over_lines_with_tabs_parse_as_the_reference_parses_them(case, data):
    n, tokens = case
    spaces = data.draw(st.lists(_SPACES, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    _assert_agree("".join(space + token for space, token in zip(spaces, tokens + [""])), n)


# -- token soups -----------------------------------------------------------------

_SOUP = [
    "dz1", "dz2", "dzb1", "dzb3", "dz0", "z1", "zb2", "z4", "dz", "z", "i", "0", "1", "2", "12", "1/2", "2/0",
    "123456789012", "/987654321", "٣", "**", "*", "+", "-", "/", "^", "(", ")", "x", "$", "é",
    " ", "\t", "\n", "\r\n",
]


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 3), st.lists(st.sampled_from(_SOUP), max_size=16), st.sampled_from(["", " "]))
def test_token_soups_parse_as_the_reference_parses_them(n, tokens, joint):
    _assert_agree(joint.join(tokens), n)


def test_the_paper_form_and_the_error_positions_agree():
    for src, n in [
        ("dz1^dz2^dzb3^dzb4", 4),
        ("(z1*zb4+3)*dz1^dz2^dzb3^dzb4", 4),
        ("dz1 +\n  + dz2", 2),
        ("dz1\r\n^\r\n\tdz9", 2),
        ("  \n ", 2),
        ("(z1+zb1)**305", 1),
        ("(" * 101 + "dz1" + ")" * 101, 1),
        ("dz1\n\n  ", 1),
    ]:
        _assert_agree(src, n)
