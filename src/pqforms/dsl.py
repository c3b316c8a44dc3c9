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
z1 plus 3*dz1.  A ``(`` may open either a coefficient polynomial or a
nested form; the parser resolves this by trying the polynomial reading
first and falling back, so ``(z1+3)*dz1`` and ``(dz1+dz2)^dzb3`` both
parse.  The printer
emits one canonical spelling per form: terms sorted by (total degree, I,
J), monomials sorted by descending exponent vector, so printing is
deterministic and ``parse(pretty_print(a))`` rebuilds exactly ``a``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from .forms import Form, _summed
from .scalars import GaussianRational, format_scalar, gaussian
from .wpoly import WirtingerPolynomial, Z, ZBAR


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

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<dzb>dzb(?P<dzb_idx>\d+))
    | (?P<dz>dz(?P<dz_idx>\d+))
    | (?P<zb>zb(?P<zb_idx>\d+))
    | (?P<z>z(?P<z_idx>\d+))
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


@dataclass(frozen=True)
class Token:
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
        text = match.group(0)
        kind = match.lastgroup or ""
        for name in ("dzb", "dz", "zb", "z", "imag", "int", "pow", "mul", "plus",
                     "minus", "slash", "wedge", "lparen", "rparen", "ws"):
            if match.group(name):
                kind = name
                break
        if kind != "ws":
            if kind in ("dzb", "dz", "zb", "z"):
                value = int(match.group(f"{kind}_idx"))
            elif kind == "int":
                value = int(text)
            else:
                value = 0
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


# -- AST ----------------------------------------------------------------------


@dataclass(frozen=True)
class DifferentialNode:
    kind: str  # "z" for dz, "zb" for dzb
    index: int


@dataclass(frozen=True)
class GroupNode:
    inner: "FormNode"


FactorNode = Union[DifferentialNode, GroupNode]


@dataclass(frozen=True)
class TermNode:
    coeff: Optional[WirtingerPolynomial]
    factors: Tuple[FactorNode, ...]


@dataclass(frozen=True)
class FormNode:
    """Signed sum of terms; each entry is (+1 or -1, term)."""

    terms: Tuple[Tuple[int, TermNode], ...]


class _PolyFail(Exception):
    """Internal signal: the polynomial reading of this stretch failed."""


class _Parser:
    def __init__(self, src: str, n: int):
        if n < 1:
            raise ValueError(f"ambient dimension must be positive, got {n}")
        if not src.strip():
            raise ParseError("empty input", 1, 1)
        self.tokens = _tokenize(src)
        self.n = n
        self.pos = 0

    # -- token helpers --------------------------------------------------------

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

    def check_index(self, token: Token, index: int) -> int:
        if not 1 <= index <= self.n:
            raise ParseError(
                f"index {index} out of range 1..{self.n} in {token.text!r}",
                token.line,
                token.column,
            )
        return index

    # -- form grammar -----------------------------------------------------------

    def parse_form(self) -> FormNode:
        terms: List[Tuple[int, TermNode]] = []
        sign = 1
        if self.peek().kind == "minus":
            self.advance()
            sign = -1
        terms.append((sign, self.parse_term()))
        while self.peek().kind in ("plus", "minus"):
            op = self.advance()
            terms.append((1 if op.kind == "plus" else -1, self.parse_term()))
        return FormNode(tuple(terms))

    def parse_term(self) -> TermNode:
        # The coefficient slot accepts products only; a sum must be
        # parenthesized, so a stretch like "z1+3*dz1" splits into the
        # scalar term z1 plus the term 3*dz1 instead of being swallowed
        # as one coefficient.
        start = self.pos
        coeff: Optional[WirtingerPolynomial] = None
        try:
            coeff = self.parse_polyterm()
        except _PolyFail:
            self.pos = start
        if coeff is not None:
            nxt = self.peek().kind
            if nxt == "mul":
                self.advance()
                return TermNode(coeff, self.parse_factors())
            if nxt == "wedge":
                # the parenthesized stretch was a form factor after all
                self.pos = start
            elif nxt in ("plus", "minus", "rparen", "eof"):
                return TermNode(coeff, ())
            else:
                raise self.error("unexpected token after coefficient", ("*", "+", "-", ")", "end"))
        return TermNode(None, self.parse_factors())

    def parse_factors(self) -> Tuple[FactorNode, ...]:
        factors = [self.parse_factor()]
        while self.peek().kind == "wedge":
            self.advance()
            factors.append(self.parse_factor())
        return tuple(factors)

    def parse_factor(self) -> FactorNode:
        token = self.peek()
        if token.kind == "dz":
            self.advance()
            return DifferentialNode(Z, self.check_index(token, token.value))
        if token.kind == "dzb":
            self.advance()
            return DifferentialNode(ZBAR, self.check_index(token, token.value))
        if token.kind == "lparen":
            self.advance()
            inner = self.parse_form()
            if self.peek().kind != "rparen":
                raise self.error("unclosed parenthesis", (")",))
            self.advance()
            return GroupNode(inner)
        raise self.error("expected a differential or a parenthesized form", ("dzN", "dzbN", "("))

    # -- polynomial grammar -------------------------------------------------------
    #
    # These raise _PolyFail (and restore nothing themselves) when the input
    # cannot be read as a polynomial at this position; parse_term handles
    # the backtracking.

    def parse_polyexpr(self, allow_leading_minus: bool = True) -> WirtingerPolynomial:
        sign = 1
        if allow_leading_minus and self.peek().kind == "minus":
            self.advance()
            sign = -1
        total = self.parse_polyterm()
        if sign < 0:
            total = -total
        while self.peek().kind in ("plus", "minus"):
            save = self.pos
            op = self.advance()
            try:
                operand = self.parse_polyterm()
            except _PolyFail:
                self.pos = save
                break
            total = total + operand if op.kind == "plus" else total - operand
        return total

    def parse_polyterm(self) -> WirtingerPolynomial:
        total = self.parse_polyfactor()
        while self.peek().kind == "mul":
            save = self.pos
            self.advance()
            try:
                operand = self.parse_polyfactor()
            except _PolyFail:
                self.pos = save
                break
            total = total * operand
        return total

    def parse_polyfactor(self) -> WirtingerPolynomial:
        base = self.parse_polyatom()
        if self.peek().kind == "pow":
            self.advance()
            token = self.peek()
            if token.kind != "int":
                raise self.error("exponent must be a non-negative integer", ("integer",))
            self.advance()
            return base ** token.value
        return base

    def parse_polyatom(self) -> WirtingerPolynomial:
        token = self.peek()
        if token.kind == "int":
            self.advance()
            value = Fraction(token.value)
            if self.peek().kind == "slash":
                self.advance()
                denom = self.peek()
                if denom.kind != "int":
                    raise self.error("expected a denominator", ("integer",))
                if denom.value == 0:
                    raise ParseError("zero denominator", denom.line, denom.column)
                self.advance()
                value = Fraction(token.value, denom.value)
            return WirtingerPolynomial.constant(self.n, gaussian(value))
        if token.kind == "imag":
            self.advance()
            return WirtingerPolynomial.constant(self.n, gaussian(0, 1))
        if token.kind == "z":
            self.advance()
            return WirtingerPolynomial.z(self.n, self.check_index(token, token.value))
        if token.kind == "zb":
            self.advance()
            return WirtingerPolynomial.zb(self.n, self.check_index(token, token.value))
        if token.kind == "lparen":
            save = self.pos
            self.advance()
            try:
                inner = self.parse_polyexpr()
            except _PolyFail:
                self.pos = save
                raise
            if self.peek().kind != "rparen":
                self.pos = save
                raise _PolyFail()
            self.advance()
            return inner
        raise _PolyFail()


def parse(src: str, n: int) -> FormNode:
    """Parse form syntax into an AST; raises ParseError with position info."""
    parser = _Parser(src, n)
    try:
        node = parser.parse_form()
    except _PolyFail:
        raise parser.error("expected a form") from None
    if parser.peek().kind != "eof":
        raise parser.error("trailing input after form", ("+", "-", "end"))
    return node


def to_form(node: FormNode, n: int) -> Form:
    """Evaluate a parsed AST into a canonical Form."""
    return Form(n, _summed(_term_to_form(sign, term, n) for sign, term in node.terms))


def _term_to_form(sign: int, term: TermNode, n: int) -> Form:
    coeff = term.coeff if term.coeff is not None else 1
    value = Form.from_scalar(n, coeff if sign > 0 else -coeff)
    for factor in term.factors:
        if isinstance(factor, DifferentialNode):
            piece = Form.from_factors(n, [(factor.kind, factor.index)], 1)
        else:
            piece = to_form(factor.inner, n)
        value = value.wedge(piece)
    return value


def parse_form(src: str, n: int) -> Form:
    """Parse and evaluate in one step."""
    return to_form(parse(src, n), n)


def parse_poly(src: str, n: int) -> WirtingerPolynomial:
    """Parse the shared polynomial syntax on its own."""
    parser = _Parser(src, n)
    try:
        poly = parser.parse_polyexpr()
    except _PolyFail:
        raise parser.error("expected a polynomial") from None
    if parser.peek().kind != "eof":
        raise parser.error("trailing input after polynomial", ("+", "-", "*", "end"))
    return poly


# -- printing -----------------------------------------------------------------


def _variable_names(exponents: Tuple[int, ...], n: int) -> str:
    names = []
    for slot, e in enumerate(exponents):
        if e == 0:
            continue
        name = f"z{slot + 1}" if slot < n else f"zb{slot - n + 1}"
        names.append(name if e == 1 else f"{name}**{e}")
    return "*".join(names)


def _format_monomial(exponents: Tuple[int, ...], scalar: GaussianRational, n: int) -> str:
    variables = _variable_names(exponents, n)
    if not variables:
        return format_scalar(scalar)
    if scalar == gaussian(1):
        return variables
    if scalar == gaussian(-1):
        return f"-{variables}"
    rendered = format_scalar(scalar)
    if scalar.re != 0 and scalar.im != 0:
        rendered = f"({rendered})"
    return f"{rendered}*{variables}"


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
        _format_monomial(exponents, poly.terms[exponents], poly.n)
        for exponents in sorted(poly.terms, reverse=True)
    ]
    return _join_signed(pieces)


def _format_form_term(I: Tuple[int, ...], J: Tuple[int, ...], poly: WirtingerPolynomial, n: int) -> str:
    factors = "^".join([f"dz{k}" for k in I] + [f"dzb{k}" for k in J])
    if not factors:
        return format_poly(poly)
    if len(poly.terms) > 1:
        return f"({format_poly(poly)})*{factors}"
    exponents, scalar = next(iter(poly.terms.items()))
    mono = _format_monomial(exponents, scalar, n)
    if mono == "1":
        return factors
    if mono == "-1":
        return f"-{factors}"
    if scalar.re != 0 and scalar.im != 0 and not mono.startswith("("):
        mono = f"({mono})"
    return f"{mono}*{factors}"


def pretty_print(form: Form) -> str:
    """Deterministic canonical text; parse(pretty_print(a), a.n) == a."""
    if form.is_zero():
        return "0"
    pieces = [
        _format_form_term(I, J, poly, form.n)
        for (I, J), poly in form.sorted_terms()
    ]
    return _join_signed(pieces)
