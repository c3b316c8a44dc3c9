"""The form parser as it was before tokens became offset-only tuples: the
tokenizer and the recursive descent, kept verbatim as a reference for
tests/test_dsl_reference.py.  It shares ``ParseError``, ``MAX_NESTING`` and
``MAX_WORK`` with ``pqforms.dsl``, so the two raise the same exceptions
against the same bounds.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb
from typing import List, NamedTuple, Optional, Tuple, Union

from pqforms.dsl import MAX_NESTING, MAX_WORK, ParseError
from pqforms.forms import Form
from pqforms.scalars import _height, _power, gaussian
from pqforms.wpoly import WirtingerPolynomial

# -- tokens -------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<dzb>dzb\d+)
    | (?P<dz>dz\d+)
    | (?P<zb>zb\d+)
    | (?P<z>z\d+)
    | (?P<imag>i)
    | (?P<int>\d+)
    | (?P<pow>\*\*)
    | (?P<mul>\*)
    | (?P<plus>\+)
    | (?P<minus>-)
    | (?P<slash>/)
    | (?P<wedge>\^)
    | (?P<lparen>\()
    | (?P<rparen>\))
    """,
    re.VERBOSE,
)

_NUMBERED = ("dzb", "dz", "zb", "z", "int")
_ATOM_START = ("int", "imag", "z", "zb", "lparen")


class Token(NamedTuple):
    kind: str
    text: str
    value: int
    line: int
    column: int


def _tokenize(src: str) -> List[Token]:
    tokens: List[Token] = []
    line, column = 1, 1
    pos = 0
    while pos < len(src):
        match = _TOKEN_RE.match(src, pos)
        if not match:
            raise ParseError(f"unexpected character {src[pos]!r}", line, column)
        text, kind = match.group(0), match.lastgroup
        if kind != "ws":
            value = int(text.lstrip("dzb")) if kind in _NUMBERED else 0
            tokens.append(Token(kind, text, value, line, column))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            column = len(text) - text.rfind("\n")
        else:
            column += len(text)
        pos = match.end()
    tokens.append(Token("eof", "", 0, line, column))
    return tokens


# -- parsing ------------------------------------------------------------------

_Value = Union[WirtingerPolynomial, Form]


class _Parser:
    """One recursive-descent walk over the tokens that builds values as it reads.

    Every method returns a WirtingerPolynomial while the text it read is a
    polynomial, and a Form once a differential, a wedge or a form group
    entered it; that type is what decides how a group is read.
    """

    def __init__(self, src: str, n: int, polynomial: bool = False):
        if n < 1:
            raise ValueError(f"ambient dimension must be positive, got {n}")
        if not src.strip():
            raise ParseError("empty input", 1, 1)
        self.tokens = _tokenize(src)
        self.n = n
        self.polynomial = polynomial
        self.pos = 0
        self.depth = 0
        self.work = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def error(self, message: str, expected: Tuple[str, ...] = ()) -> ParseError:
        token = self.peek()
        where = f"{token.kind} {token.text!r}".strip()
        return ParseError(f"{message}, found {where}", token.line, token.column, expected)

    def check_index(self, token: Token) -> int:
        if not 1 <= token.value <= self.n:
            raise ParseError(
                f"index {token.value} out of range 1..{self.n} in {token.text!r}",
                token.line,
                token.column,
            )
        return token.value

    def accept(self, kind: str) -> bool:
        """Consume the next token if it is of this kind."""
        if self.peek().kind != kind:
            return False
        self.pos += 1
        return True

    def charge(self, work: int, operator: Token) -> None:
        self.work += work
        if self.work > MAX_WORK:
            raise ParseError(f"expansion needs more work than the budget of {MAX_WORK}", operator.line, operator.column)

    def multiplied(self, left: _Value, right: _Value, operator: Token) -> _Value:
        """left * right (or left ^ right for forms), charged before it is built."""
        (t1, h1), (t2, h2) = _size(left), _size(right)
        self.charge(_cost(t1 * t2, h1 + h2), operator)
        return left.wedge(right) if isinstance(left, Form) else left * right

    def integer(self, message: str) -> int:
        if self.peek().kind != "int":
            raise self.error(message, ("integer",))
        return self.advance().value

    def form(self) -> _Value:
        """form := ["-"] term { ("+" | "-") term }"""
        terms = [self.term(-1 if self.accept("minus") else 1)]
        while self.peek().kind in ("plus", "minus"):
            terms.append(self.term(1 if self.advance().kind == "plus" else -1))
        if all(isinstance(term, WirtingerPolynomial) for term in terms):
            return WirtingerPolynomial._sum(self.n, terms)
        return Form(self.n, [pair for term in terms for pair in _as_form(term, self.n).terms.items()])

    def term(self, sign: int) -> _Value:
        """term := coeff "*" factors | coeff | factors, with coeff a product."""
        token = self.peek()
        if token.kind not in _ATOM_START:
            return self.factors(sign)
        first = self.atom()
        if isinstance(first, Form) or (token.kind == "lparen" and self.peek().kind == "wedge"):
            return self.factors(sign, first)
        coeff = self.power(first) if sign > 0 else -self.power(first)
        while self.accept("mul"):
            operator = self.tokens[self.pos - 1]
            if self.peek().kind not in _ATOM_START:
                return self.factors(coeff)
            factor = self.atom()
            if isinstance(factor, Form):
                return self.factors(coeff, factor)
            coeff = self.multiplied(coeff, self.power(factor), operator)
        if self.peek().kind not in ("plus", "minus", "rparen", "eof"):
            raise self.error("unexpected token after coefficient", ("*", "+", "-", ")", "end"))
        return coeff

    def atom(self) -> _Value:
        """INT ["/" INT] | "i" | "z" INT | "zb" INT | "(" form ")"; the caller checked the kind."""
        token = self.advance()
        if token.kind == "int":
            value = Fraction(token.value)
            if self.accept("slash"):
                denom = self.peek()
                if self.integer("expected a denominator") == 0:
                    raise ParseError("zero denominator", denom.line, denom.column)
                value = Fraction(token.value, denom.value)
            return WirtingerPolynomial.constant(self.n, gaussian(value))
        if token.kind == "imag":
            return WirtingerPolynomial.constant(self.n, gaussian(0, 1))
        if token.kind in ("z", "zb"):
            return WirtingerPolynomial.variable(self.n, token.kind, self.check_index(token))
        return self.group(token)

    def power(self, base: WirtingerPolynomial) -> WirtingerPolynomial:
        if not self.accept("pow"):
            return base
        operator = self.tokens[self.pos - 1]
        exponent = self.integer("exponent must be a non-negative integer")
        t, height = _size(base)
        size = lambda k: comb(max(t, 1) + k - 1, k)  # a k-th power has at most this many terms

        def charged(k: int, j: int) -> int:  # the product of the k-th and j-th powers
            self.charge(_cost(size(k) * size(j), (k + j) * height), operator)
            return k + j

        _power(1, exponent, charged, 0)  # from the 0th power, so the first factor is charged too
        return base ** exponent

    def group(self, opening: Token) -> _Value:
        if self.depth == MAX_NESTING:
            raise ParseError(
                f"parentheses nested deeper than {MAX_NESTING} levels", opening.line, opening.column
            )
        self.depth += 1
        value = self.form()
        if not self.accept("rparen"):
            raise self.error("unclosed parenthesis", (")",))
        self.depth -= 1
        return value

    def factors(self, coeff: Union[int, WirtingerPolynomial], first: Optional[_Value] = None) -> Form:
        """factors := factor { "^" factor }, times coeff; ``first`` was read already.

        Each run of differentials is one Form.from_factors call; a form
        group ends the run and joins by a wedge, a polynomial group scales.
        """
        if self.polynomial:
            raise self.error("expected a polynomial")
        product: Optional[Form] = None  # wedge of the groups and runs so far
        run: List[Tuple[str, int]] = []
        operator = self.peek()  # the last "^"
        factor = self.factor() if first is None else first
        while True:
            if isinstance(factor, WirtingerPolynomial):
                coeff = self.multiplied(factor, coeff, operator)
            elif isinstance(factor, Form):
                if run:
                    product = self.wedged(product, Form.from_factors(self.n, run), operator)
                    run = []
                product = self.wedged(product, factor, operator)
            else:
                run.append(factor)
            if not self.accept("wedge"):
                return self.wedged(product, Form.from_factors(self.n, run, coeff), operator)
            operator = self.tokens[self.pos - 1]
            factor = self.factor()

    def wedged(self, left: Optional[Form], right: Form, operator: Token) -> Form:
        return right if left is None else self.multiplied(left, right, operator)

    def factor(self) -> Union[_Value, Tuple[str, int]]:
        """factor := "dz" INT | "dzb" INT | "(" form ")"; a differential is a (kind, index) pair."""
        token = self.peek()
        if token.kind in ("dz", "dzb"):
            self.advance()
            return token.kind[1:], self.check_index(token)  # "z" or "zb", as in Form.from_factors
        if token.kind == "lparen":
            self.advance()
            return self.group(token)
        raise self.error("expected a differential or a parenthesized form", ("dzN", "dzbN", "("))


def _size(value: Union[int, _Value]) -> Tuple[int, float]:
    """Monomials and height (``scalars._height``) of a polynomial, of all
    coefficients of a form, or of a sign."""
    if isinstance(value, int):
        return 1, 0.0
    polys = value.terms.values() if isinstance(value, Form) else (value,)
    coefficients = [c for poly in polys for c in poly.terms.values()]
    return len(coefficients), _height(coefficients)


def _cost(products: int, bits: float) -> int:
    """Work of that many monomial products with coefficients of that many
    bits, in units of about 4 us (the exact scalar multiply-add, measured)."""
    b = int(bits) + 1
    return products * (1 + b // 24 + (b // 128) ** 2)


def _as_form(value: _Value, n: int) -> Form:
    return value if isinstance(value, Form) else Form.from_scalar(n, value)


def _parse(src: str, n: int, polynomial: bool) -> _Value:
    parser = _Parser(src, n, polynomial)
    value = parser.form()
    if parser.peek().kind != "eof":
        what, expected = ("polynomial", ("+", "-", "*", "end")) if polynomial else ("form", ("+", "-", "end"))
        raise parser.error(f"trailing input after {what}", expected)
    return value
