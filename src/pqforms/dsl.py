"""Text syntax for forms and polynomial coefficients.

Grammar (EBNF; ``^`` is the wedge, ``**`` is the polynomial power, and
whitespace is insignificant everywhere):

    form       := ["-"] term { ("+" | "-") term }
    term       := coeff "*" factors | coeff | factors
    factors    := factor { "^" factor }
    factor     := "dz" INT | "dzb" INT | "(" form ")"
    coeff      := polyterm
    polyexpr   := ["-"] polyterm { ("+" | "-") polyterm }
    polyterm   := polyfactor { "*" polyfactor }
    polyfactor := polyatom [ "**" INT ]
    polyatom   := INT [ "/" INT ] | "i" | "z" INT | "zb" INT | "(" polyexpr ")"

A coefficient is a product; polynomial sums must be parenthesized, as in
``(z1+3)*dz1``, so that ``z1+3*dz1`` unambiguously means the scalar term
z1 plus 3*dz1.  The text is split into tokens in one regular-expression
pass; a token is a ``(kind, text, value, offset)`` tuple, and ``_error``
counts its line and column from the offset only when a ParseError
reports them.
The parser reads the tokens once, left to right, and builds
values as it goes: a sum or term is a polynomial while its text is one and
becomes a Form once a differential, a wedge or a form group enters it.  A
``(`` group is read once, and the type of its value decides its role: a
polynomial group is a coefficient, unless it is the lone factor right
before ``^``, and a form group is a wedge factor, so ``(z1+3)*dz1`` and
``(dz1+dz2)^dzb3`` both parse.  A number, ``i`` or a variable becomes a
polynomial of one monomial, built from integers, and a product of two such
monomials is one scalar product at the summed exponents; longer operands
take the polynomial product.  Groups nest at most ``MAX_NESTING`` deep,
and the products of one parse may do at most ``MAX_WORK`` units of work,
each bounded before the operator expands.
The printer emits one canonical spelling per form: terms sorted by (total
degree, I, J), monomials sorted by descending exponent vector, so printing
is deterministic and ``parse_form(pretty_print(a), a.n)`` rebuilds
exactly ``a``.
"""

from __future__ import annotations

import re
from math import comb
from operator import add
from typing import List, Optional, Tuple, Union

from .forms import Form, TermKey, _run_key, _summed
from .scalars import (
    I_UNIT, MINUS_ONE, ONE, GaussianRational, _format_factor, _height, _height_of, _power, _reduced, _triple, format_scalar,
)
from .wpoly import WirtingerPolynomial, _variable_names

# Deepest "(" nesting the parser reads; a deeper "(" is a ParseError.
MAX_NESTING = 100
# Most work the "*", "**" and "^" of one parse may do, in monomial products
# weighted by coefficient size (see _cost); "**" is charged for each product
# of the engine's own squaring schedule (scalars._power).  The operator that
# would pass it is a ParseError, raised before it expands.
MAX_WORK = 500_000


class ParseError(ValueError):
    """Syntax or range error with source position and expected tokens."""

    def __init__(self, message: str, line: int, column: int, expected: Tuple[str, ...] = ()):
        self.message = message
        self.line = line
        self.column = column
        self.expected = expected
        suffix = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at line {line}, column {column}{suffix}")


# -- tokens -------------------------------------------------------------------

# A numbered token (its prefix and its digits), a punctuation token, or any
# other non-space character, which is an error.  Whitespace matches nothing,
# so it only separates tokens.
_TOKEN_RE = re.compile(r"(dzb|dz|zb|z)?(\d+)|(\*\*|[-+*/^()i])|(\S)")
_PUNCTUATION = {
    "i": "imag", "**": "pow", "*": "mul", "+": "plus", "-": "minus", "/": "slash", "^": "wedge", "(": "lparen",
    ")": "rparen",
}
_ATOM_START = ("int", "imag", "z", "zb", "lparen")

# A token as the parser reads it: (kind, text, value, offset into the source).
_Token = Tuple[str, str, int, int]


def _error(src: str, token: _Token, message: str, expected: Tuple[str, ...] = ()) -> ParseError:
    """A ParseError at the token, its line and column (both from 1) counted from its offset."""
    offset = token[3]
    return ParseError(message, src.count("\n", 0, offset) + 1, offset - src.rfind("\n", 0, offset), expected)


def _tokenize(src: str) -> List[_Token]:
    """The tokens of ``src``, read in one pass, then an "eof" token at its end."""
    tokens: List[_Token] = []
    for match in _TOKEN_RE.finditer(src):
        prefix, digits, punctuation, other = match.groups()
        if digits is not None:
            tokens.append((prefix or "int", match.group(), int(digits), match.start()))
        elif other is None:
            tokens.append((_PUNCTUATION[punctuation], punctuation, 0, match.start()))
        else:
            raise _error(src, ("", other, 0, match.start()), f"unexpected character {other!r}")
    tokens.append(("eof", "", 0, len(src)))
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
        self.src = src
        self.tokens = _tokenize(src)
        self.n = n
        self.origin = (0,) * (2 * n)  # the exponents of a constant
        self.polynomial = polynomial
        self.pos = 0
        self.depth = 0
        self.work = 0

    def peek(self) -> str:
        """The kind of the next token."""
        return self.tokens[self.pos][0]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def error(self, message: str, expected: Tuple[str, ...] = ()) -> ParseError:
        token = self.tokens[self.pos]
        where = f"{token[0]} {token[1]!r}".strip()
        return _error(self.src, token, f"{message}, found {where}", expected)

    def check_index(self, token: _Token) -> int:
        index = token[2]
        if not 1 <= index <= self.n:
            raise _error(self.src, token, f"index {index} out of range 1..{self.n} in {token[1]!r}")
        return index

    def accept(self, kind: str) -> bool:
        """Consume the next token if it is of this kind."""
        if self.tokens[self.pos][0] != kind:
            return False
        self.pos += 1
        return True

    def charge(self, work: int, operator: _Token) -> None:
        self.work += work
        if self.work > MAX_WORK:
            raise _error(self.src, operator, f"expansion needs more work than the budget of {MAX_WORK}")

    def multiplied(self, left: _Value, right: _Value, operator: _Token) -> _Value:
        """left * right (or left ^ right for forms), charged before it is built.

        Two monomials multiply directly: one scalar product at the summed
        exponents, charged as ``_size`` would charge them."""
        if type(left) is type(right) is WirtingerPolynomial and len(left.terms) == len(right.terms) == 1:
            ((e1, c1),), ((e2, c2),) = left.terms.items(), right.terms.items()
            self.charge(_cost(1, _height_of(c1) + _height_of(c2)), operator)
            return WirtingerPolynomial._trusted(self.n, {tuple(map(add, e1, e2)): c1 * c2})
        (t1, h1), (t2, h2) = _size(left), _size(right)
        self.charge(_cost(t1 * t2, h1 + h2), operator)
        return left.wedge(right) if isinstance(left, Form) else left * right

    def integer(self, message: str) -> int:
        if self.peek() != "int":
            raise self.error(message, ("integer",))
        return self.advance()[2]

    def form(self) -> _Value:
        """form := ["-"] term { ("+" | "-") term }"""
        terms = [self.term(-1 if self.accept("minus") else 1)]
        while self.peek() in ("plus", "minus"):
            terms.append(self.term(1 if self.advance()[0] == "plus" else -1))
        if len(terms) == 1:  # a lone term is the sum
            return terms[0]
        if all(isinstance(term, WirtingerPolynomial) for term in terms):
            return WirtingerPolynomial._sum(self.n, terms)
        return Form._trusted(self.n, _summed(_as_form(term, self.n) for term in terms))

    def term(self, sign: int) -> _Value:
        """term := coeff "*" factors | coeff | factors, with coeff a product."""
        kind = self.peek()
        if kind not in _ATOM_START:
            return self.factors(sign)
        first = self.atom()
        if isinstance(first, Form) or (kind == "lparen" and self.peek() == "wedge"):
            return self.factors(sign, first)
        coeff = self.power(first) if sign > 0 else -self.power(first)
        while self.accept("mul"):
            operator = self.tokens[self.pos - 1]
            if self.peek() not in _ATOM_START:
                return self.factors(coeff)
            factor = self.atom()
            if isinstance(factor, Form):
                return self.factors(coeff, factor)
            coeff = self.multiplied(coeff, self.power(factor), operator)
        if self.peek() not in ("plus", "minus", "rparen", "eof"):
            raise self.error("unexpected token after coefficient", ("*", "+", "-", ")", "end"))
        return coeff

    def atom(self) -> _Value:
        """INT ["/" INT] | "i" | "z" INT | "zb" INT | "(" form ")"; the caller checked the kind.

        A number, ``i`` and a variable are built from integers, as trusted polynomials."""
        token = self.advance()
        kind = token[0]
        if kind == "int":
            if not self.accept("slash"):
                return self.constant(_triple(token[2], 0, 1))
            denom = self.tokens[self.pos]
            if self.integer("expected a denominator") == 0:
                raise _error(self.src, denom, "zero denominator")
            return self.constant(_reduced(token[2], 0, denom[2]))
        if kind == "imag":
            return self.constant(I_UNIT)
        if kind in ("z", "zb"):
            exponents = list(self.origin)
            exponents[self.check_index(token) - 1 + (self.n if kind == "zb" else 0)] = 1
            return WirtingerPolynomial._trusted(self.n, {tuple(exponents): ONE})
        return self.group(token)

    def constant(self, value: GaussianRational) -> WirtingerPolynomial:
        return WirtingerPolynomial._trusted(self.n, {self.origin: value})

    def power(self, base: WirtingerPolynomial) -> WirtingerPolynomial:
        if self.peek() != "pow":
            return base
        operator = self.advance()
        exponent = self.integer("exponent must be a non-negative integer")
        t, height = _size(base)
        size = lambda k: comb(max(t, 1) + k - 1, k)  # a k-th power has at most this many terms

        def charged(k: int, j: int) -> int:  # the product of the k-th and j-th powers
            self.charge(_cost(size(k) * size(j), (k + j) * height), operator)
            return k + j

        _power(1, exponent, charged, 0)  # from the 0th power, so the first factor is charged too
        return base ** exponent

    def group(self, opening: _Token) -> _Value:
        if self.depth == MAX_NESTING:
            raise _error(self.src, opening, f"parentheses nested deeper than {MAX_NESTING} levels")
        self.depth += 1
        value = self.form()
        if not self.accept("rparen"):
            raise self.error("unclosed parenthesis", (")",))
        self.depth -= 1
        return value

    def factors(self, coeff: Union[int, WirtingerPolynomial], first: Optional[_Value] = None) -> Form:
        """factors := factor { "^" factor }, times coeff; ``first`` was read already.

        Each run of differentials is one ``run_form`` call; a form group ends
        the run and joins by a wedge, a polynomial group scales.
        """
        if self.polynomial:
            raise self.error("expected a polynomial")
        product: Optional[Form] = None  # wedge of the groups and runs so far
        run: List[Tuple[str, int]] = []
        operator = self.tokens[self.pos]  # the last "^"
        factor = self.factor() if first is None else first
        while True:
            if isinstance(factor, WirtingerPolynomial):
                coeff = self.multiplied(factor, coeff, operator)
            elif isinstance(factor, Form):
                if run:
                    product = self.wedged(product, self.run_form(run, 1), operator)
                    run = []
                product = self.wedged(product, factor, operator)
            else:
                run.append(factor)
            if not self.accept("wedge"):
                return self.wedged(product, self.run_form(run, coeff), operator)
            operator = self.tokens[self.pos - 1]
            factor = self.factor()

    def run_form(self, run: List[Tuple[str, int]], coeff: Union[int, WirtingerPolynomial]) -> Form:
        """coeff times the wedge of a run of checked differentials, its key
        folded by ``forms._run_key`` as in ``Form.from_factors`` and built
        trusted; an int sign is a constant, and a zero coefficient or a
        repeated differential gives the zero form."""
        key, sign = _run_key(run)
        if isinstance(coeff, int):
            coeff = self.constant(_triple(coeff, 0, 1))
        if not sign or not coeff.terms:
            return Form._trusted(self.n, {})
        return Form._trusted(self.n, {key: coeff if sign > 0 else -coeff})

    def wedged(self, left: Optional[Form], right: Form, operator: _Token) -> Form:
        return right if left is None else self.multiplied(left, right, operator)

    def factor(self) -> Union[_Value, Tuple[str, int]]:
        """factor := "dz" INT | "dzb" INT | "(" form ")"; a differential is a (kind, index) pair."""
        kind = self.peek()
        if kind in ("dz", "dzb"):
            return kind[1:], self.check_index(self.advance())  # "z" or "zb"
        if kind == "lparen":
            return self.group(self.advance())
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
    return value if isinstance(value, Form) else Form._trusted(n, [(((), ()), value)])


def _parse(src: str, n: int, polynomial: bool) -> _Value:
    parser = _Parser(src, n, polynomial)
    value = parser.form()
    if parser.peek() != "eof":
        what, expected = ("polynomial", ("+", "-", "*", "end")) if polynomial else ("form", ("+", "-", "end"))
        raise parser.error(f"trailing input after {what}", expected)
    return value


def parse_form(src: str, n: int) -> Form:
    """Parse form syntax into a canonical Form; raises ParseError with position info."""
    return _as_form(_parse(src, n, polynomial=False), n)


def parse_poly(src: str, n: int) -> WirtingerPolynomial:
    """Parse the shared polynomial syntax on its own."""
    return _parse(src, n, polynomial=True)


# -- printing -----------------------------------------------------------------


def _format_monomial(scalar: GaussianRational, names: str) -> str:
    """The scalar times ``names``: the variables, then the differentials, joined by "*"."""
    if not names:
        return format_scalar(scalar)
    if scalar == ONE:
        return names
    if scalar == MINUS_ONE:
        return f"-{names}"
    return f"{_format_factor(scalar)}*{names}"


def _join_signed(pieces: List[str]) -> str:
    out = pieces[0]
    for piece in pieces[1:]:
        out += piece if piece.startswith("-") else "+" + piece
    return out


def format_poly(poly: WirtingerPolynomial) -> str:
    """Canonical polynomial text: monomials by descending exponent vector."""
    if poly.is_zero():
        return "0"
    pieces = [
        _format_monomial(poly.terms[exponents], _variable_names(exponents, poly.n))
        for exponents in sorted(poly.terms, reverse=True)
    ]
    return _join_signed(pieces)


def _format_form_term(key: TermKey, poly: WirtingerPolynomial, n: int) -> str:
    factors = "^".join(Form._names(key))
    if len(poly.terms) > 1:
        return f"({format_poly(poly)})*{factors}" if factors else format_poly(poly)
    (exponents, scalar), = poly.terms.items()
    return _format_monomial(scalar, "*".join(filter(None, (_variable_names(exponents, n), factors))))


def pretty_print(form: Form) -> str:
    """Deterministic canonical text; parse_form(pretty_print(a), a.n) == a."""
    if form.is_zero():
        return "0"
    return _join_signed([_format_form_term(key, poly, form.n) for key, poly in form.sorted_terms()])


def _format_value(value: _Value) -> str:
    """The canonical text of a form or a polynomial."""
    return pretty_print(value) if isinstance(value, Form) else format_poly(value)
